import dataclasses
import math

import numpy as np
import pytest

import hypflux as hf
from hypflux import diagnostics as diag
from hypflux.errors import ConfigError


def burgers_wave(x):
    x = np.asarray(x, dtype=float)
    return (0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0]))[..., None]


def burgers_wave_prime(y):
    return 0.25 * 2 * np.pi * np.cos(2 * np.pi * np.asarray(y, dtype=float))


def test_accumulate_constant_state_all_zero(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(5, 1.0)
    fld = hf.StateField(np.full((5, 1), 0.3), 0.0, mesh.mesh_id)
    records = hf.interface_flux_records(mesh, burgers_sys, burgers_rusanov, fld)
    led = hf.DiagnosticsLedger()
    hf.accumulate_step(led, mesh, burgers_sys, burgers_rusanov, fld, fld,
                       records, 1e-3)
    assert led.wbv_sq == 0.0 and led.wbv_l1 == 0.0
    assert led.entropy_flux_bv == 0.0
    assert led.time_bv_u == 0.0 and led.time_bv_eta == 0.0
    assert led.entropy_residual_max == 0.0
    assert led.mu_t_mass == 0.0 and led.mu_bar_t_mass == 0.0
    assert led.gap_all_pass


def test_accumulate_hand_computed_increments():
    # one Rusanov step on u = [0, 1, 0], three interfaces, recomputed here
    # with bare arithmetic as the oracle
    sys = hf.make_burgers(1, u_range=(-1.2, 1.2))
    sch = hf.make_rusanov(sys, c=1.3)
    mesh = hf.build_uniform_1d(3, 1.0)
    u = np.array([0.0, 1.0, 0.0])
    fld = hf.StateField(u[:, None], 0.0, mesh.mesh_id)
    dt = 0.01

    c = 1.3
    f = 0.5 * u * u
    uL = u
    uR = np.roll(u, -1)
    G = 0.5 * (f + np.roll(f, -1)) - 0.5 * c * (uR - uL)
    defect = np.abs(G - f)
    want_sq = dt * float((defect ** 2).sum())
    want_l1 = dt * float(np.abs(defect).sum())

    records = hf.interface_flux_records(mesh, sys, sch, fld)
    new = hf.step(mesh, sys, sch, fld, dt)
    led = hf.DiagnosticsLedger()
    vol_du, vol_deta = hf.accumulate_step(led, mesh, sys, sch, fld, new,
                                          records, dt)
    assert led.wbv_sq == pytest.approx(want_sq, rel=1e-14)
    assert led.wbv_l1 == pytest.approx(want_l1, rel=1e-14)
    # time variation oracle from the explicit update itself
    upd = -(dt / (1.0 / 3.0)) * (G - np.roll(G, 1))
    assert led.time_bv_u == pytest.approx(float((np.abs(upd) / 3.0).sum() * 3.0
                                                * (1.0 / 3.0)), rel=1e-12)
    # the per-cell terms the error fold masks are the ledger's summands
    np.testing.assert_allclose(vol_du, np.abs(upd) / 3.0, rtol=1e-12)
    np.testing.assert_allclose(
        vol_deta, np.abs(0.5 * (u + upd) ** 2 - 0.5 * u ** 2) / 3.0,
        rtol=1e-12)
    assert (float(vol_du.sum()), float(vol_deta.sum())) \
        == (led.time_bv_u, led.time_bv_eta)


def test_accumulate_nan_cell_fails_residual(burgers_sys, burgers_rusanov):
    # a NaN compares false with everything: the residual maxima must read
    # inf, not stay at 0.0 and let the entropy_residual flag pass
    mesh = hf.build_uniform_1d(5, 1.0)
    fld = hf.StateField(np.full((5, 1), 0.3), 0.0, mesh.mesh_id)
    bad = np.full((5, 1), 0.3)
    bad[2, 0] = np.nan
    new = hf.StateField(bad, 1e-3, mesh.mesh_id)
    records = hf.interface_flux_records(mesh, burgers_sys, burgers_rusanov, fld)
    led = hf.DiagnosticsLedger()
    hf.accumulate_step(led, mesh, burgers_sys, burgers_rusanov, fld, new,
                       records, 1e-3)
    assert led.entropy_residual_max == math.inf
    assert led.entropy_residual_max_scaled == math.inf


def test_accumulate_nan_cell_fails_gap_slack(burgers_sys, burgers_rusanov):
    # min(inf, nan) is inf: a NaN state must not report the best slack
    mesh = hf.build_uniform_1d(5, 1.0)
    bad = np.full((5, 1), 0.3)
    bad[2, 0] = np.nan
    fld = hf.StateField(bad, 0.0, mesh.mesh_id)
    records = hf.interface_flux_records(mesh, burgers_sys, burgers_rusanov, fld)
    led = hf.DiagnosticsLedger()
    hf.accumulate_step(led, mesh, burgers_sys, burgers_rusanov, fld, fld,
                       records, 1e-3)
    assert led.min_gap_slack == -math.inf
    assert not led.gap_all_pass


def test_accumulate_rejects_mismatched_sizes(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(5, 1.0)
    fld = hf.StateField(np.full((5, 1), 0.3), 0.0, mesh.mesh_id)
    bad = hf.StateField(np.full((4, 1), 0.3), 0.0, mesh.mesh_id)
    records = hf.interface_flux_records(mesh, burgers_sys, burgers_rusanov, fld)
    with pytest.raises(ConfigError):
        hf.accumulate_step(hf.DiagnosticsLedger(), mesh, burgers_sys,
                           burgers_rusanov, fld, bad, records, 1e-3)


def test_entropy_residual_nonpositive_on_strengthened_run(burgers_sys,
                                                          burgers_rusanov):
    mesh = hf.build_uniform_1d(48, 1.0)
    cfg = hf.RunConfig(final_time=0.1, zeta=0.1)
    led = hf.DiagnosticsLedger()
    fold = hf.ErrorFold(led, mesh, burgers_sys, burgers_rusanov, burgers_wave,
                        10.0, 0.1, burgers_sys.lf)
    hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave, cfg, [fold])
    assert led.entropy_residual_max_scaled <= 1e-10
    assert led.gap_all_pass
    assert led.min_gap_slack >= -1e-10


def test_measure_masses_constant_data(advection_sys, advection_godunov):
    mesh = hf.build_uniform_1d(16, 1.0)
    cfg = hf.RunConfig(final_time=0.05)
    u0 = lambda x: np.full(np.asarray(x).shape[:-1] + (1,), 0.25)
    traj = hf.run(mesh, advection_sys, advection_godunov, u0, cfg)
    m = hf.measure_masses(mesh, advection_sys, u0, traj, r=10.0, T=0.05)
    assert m.mu0 == 0.0 and m.mu_bar0 == 0.0
    assert m.mu_t == 0.0 and m.mu_bar_t == 0.0


def test_measure_masses_require_full_snapshots(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(16, 1.0)
    cfg = hf.RunConfig(final_time=0.05, record_every=5)
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave, cfg)
    with pytest.raises(ConfigError):
        hf.measure_masses(mesh, burgers_sys, burgers_wave, traj, 10.0, 0.05)


def test_mu0_fine_quadrature_oracle_and_scaling():
    # u0(x) = x with eta = u^2/2: oracle by dense per-cell quadrature
    sys = hf.make_advection(1, [1.0], u_range=(-0.1, 1.1))
    u0 = lambda x: np.asarray(x, dtype=float).copy()
    values = {}
    for n in (16, 32, 64, 128):
        mesh = hf.build_uniform_1d(n, 1.0)
        traj = hf.run(mesh, sys, hf.make_godunov_scalar(sys), u0,
                      hf.RunConfig(final_time=0.0))
        m = hf.measure_masses(mesh, sys, u0, traj, r=10.0, T=0.0)
        h = 1.0 / n
        oracle = 0.0
        for k in range(n):
            xs = (k + (np.arange(4000) + 0.5) / 4000.0) * h
            ubar = (k + 0.5) * h  # midpoint projection of linear data
            oracle += (h / 4000.0) * np.abs(0.5 * xs ** 2
                                            - 0.5 * ubar ** 2).sum()
        assert m.mu0 == pytest.approx(oracle, rel=5e-2)
        values[n] = m.mu0 / h
    ratios = np.array(list(values.values()))
    assert ratios.max() / ratios.min() < 2.0


def test_streamed_errors_match_trajectory_functionals(burgers_sys,
                                                      burgers_rusanov):
    # r = 0.3 masks part of the box; the fold streamed through run() must
    # give the trajectory functionals and a plain loop over the stored
    # states bit for bit
    mesh = hf.build_uniform_1d(24, 1.0)
    T, r, lf = 0.05, 0.3, burgers_sys.lf
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    led = hf.DiagnosticsLedger()
    fold = hf.ErrorFold(led, mesh, burgers_sys, burgers_rusanov, burgers_wave,
                        r, T, lf, ref)
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave,
                  hf.RunConfig(final_time=T), [fold])
    fold.finish(traj)
    m = hf.measure_masses(mesh, burgers_sys, burgers_wave, traj, r, T)
    cone = hf.cone_l2_error(mesh, burgers_sys, traj, ref, r=r, T=T, lf=lf)
    assert (led.mu0_mass, led.mu_t_mass, led.mu_bar0_mass,
            led.mu_bar_t_mass) == (m.mu0, m.mu_t, m.mu_bar0, m.mu_bar_t)
    assert fold.cone == cone

    dist = mesh.periodic_distance_to_origin(mesh.cell_centroids)
    ball = dist <= r
    assert 0 < ball.sum() < mesh.n_cells
    vols, dt = mesh.cell_volumes, traj.dt
    mu_t = mu_bar_t = want_cone = 0.0
    for (t, fa), (_, fb) in zip(traj.snapshots[:-1], traj.snapshots[1:]):
        deta = np.abs(burgers_sys.entropy(fb.values)
                      - burgers_sys.entropy(fa.values))[ball]
        du = fb.values[ball] - fa.values[ball]
        mu_t += dt * float((vols[ball] * deta).sum())
        mu_bar_t += dt * float((vols[ball] * np.sqrt((du ** 2).sum(-1))).sum())
        cone_mask = dist <= r + lf * (T - t)
        ubar = hf.reference_cell_means(mesh, ref, t)
        diff = fa.values[cone_mask] - ubar[cone_mask]
        want_cone += dt * float((vols[cone_mask] * (diff ** 2).sum(-1)).sum())
    assert (led.mu_t_mass, led.mu_bar_t_mass) == (mu_t, mu_bar_t)
    assert fold.cone == want_cone > 0.0
    assert ([t for t, _ in led.rel_entropy_series]
            == [t for t, _ in traj.snapshots])
    assert fold.mbeta_ok


def test_cone_l2_error_zero_for_exact_reference(advection_sys,
                                                advection_godunov):
    mesh = hf.build_uniform_1d(8, 1.0)
    cfg = hf.RunConfig(final_time=0.02)
    u0 = lambda x: np.full(np.asarray(x).shape[:-1] + (1,), 0.5)
    traj = hf.run(mesh, advection_sys, advection_godunov, u0, cfg)
    ref = hf.ReferenceSolution(
        kind="exact-advection",
        eval=lambda x, t: np.full(np.asarray(x).shape[:-1] + (1,), 0.5),
        valid_until=math.inf)
    err = hf.cone_l2_error(mesh, advection_sys, traj, ref, r=10.0, T=0.02,
                           lf=advection_sys.lf)
    assert err == 0.0


def test_cone_l2_error_hand_computed_two_steps():
    # 4-cell upwind advection; the oracle repeats the arithmetic verbatim
    sys = hf.make_advection(1, [1.0], u_range=(-1.5, 1.5))
    sch = hf.make_godunov_scalar(sys)
    mesh = hf.build_uniform_1d(4, 1.0)
    mids = np.array([0.125, 0.375, 0.625, 0.875])
    dt = 0.1
    nu = dt / 0.25
    w0 = np.sin(2 * np.pi * mids)
    w1 = w0 - nu * (w0 - np.roll(w0, 1))
    w2 = w1 - nu * (w1 - np.roll(w1, 1))
    f0 = hf.StateField(w0[:, None], 0.0, mesh.mesh_id)
    f1 = hf.StateField(w1[:, None], dt, mesh.mesh_id)
    f2 = hf.StateField(w2[:, None], 2 * dt, mesh.mesh_id)
    traj = hf.Trajectory(snapshots=[(0.0, f0), (dt, f1), (2 * dt, f2)],
                         dt=dt, n_steps=2)
    ref = hf.exact_advection([1.0],
                             lambda x: np.sin(2 * np.pi * np.asarray(x)[..., 0])[..., None],
                             (1.0,))
    got = hf.cone_l2_error(mesh, sys, traj, ref, r=10.0, T=2 * dt, lf=sys.lf)
    want = dt * (0.25 * (w0 - np.sin(2 * np.pi * mids)) ** 2).sum() \
        + dt * (0.25 * (w1 - np.sin(2 * np.pi * (mids - dt))) ** 2).sum()
    assert got == pytest.approx(want, rel=1e-13)


def test_cone_l2_error_rejects_expired_reference(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(16, 1.0)
    cfg = hf.RunConfig(final_time=0.05)
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave, cfg)
    ref = hf.ReferenceSolution(kind="exact-advection",
                               eval=lambda x, t: burgers_wave(x),
                               valid_until=0.01)
    with pytest.raises(ConfigError):
        hf.cone_l2_error(mesh, burgers_sys, traj, ref, r=10.0, T=0.05,
                         lf=burgers_sys.lf)


def test_relative_entropy_norm_identities(friedrichs_sys, burgers_sys):
    mesh = hf.build_uniform_1d(16, 1.0)
    rng = np.random.default_rng(8)
    vals = friedrichs_sys.omega.sample(rng, 16)
    refm = friedrichs_sys.omega.sample(rng, 16)
    fld = hf.StateField(vals, 0.0, mesh.mesh_id)
    norm = hf.relative_entropy_norm(mesh, friedrichs_sys, fld, refm)
    esq = hf.squared_l2_cell_error(mesh, fld, refm)
    # eta = |u|^2 gives H = |v-u|^2 exactly: factor 1
    assert norm == pytest.approx(esq, rel=1e-12)

    valsb = burgers_sys.omega.sample(rng, 16)
    refb = burgers_sys.omega.sample(rng, 16)
    fldb = hf.StateField(valsb, 0.0, mesh.mesh_id)
    normb = hf.relative_entropy_norm(mesh, burgers_sys, fldb, refb)
    esqb = hf.squared_l2_cell_error(mesh, fldb, refb)
    assert normb == pytest.approx(0.5 * esqb, rel=1e-12)
    assert hf.relative_entropy_norm(mesh, burgers_sys, fldb, valsb) == 0.0


def test_fit_rate_exact_slopes():
    def table_for(p):
        rows = [diag.ConvergenceRow(h=h, dt=h, error_l2_spacetime=h ** p,
                                    wbv_l1=1.0, wbv_sq=1.0, mu0_mass=h,
                                    mu_t_mass=h)
                for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64)]
        return diag.ConvergenceTable(rows=rows)

    assert hf.fit_rate(table_for(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert hf.fit_rate(table_for(0.25)) == pytest.approx(0.25, abs=1e-12)


def test_fit_rate_needs_three_levels():
    rows = [diag.ConvergenceRow(h=h, dt=h, error_l2_spacetime=h, wbv_l1=1.0,
                                wbv_sq=1.0, mu0_mass=h, mu_t_mass=h)
            for h in (0.5, 0.25)]
    with pytest.raises(ConfigError):
        hf.fit_rate(diag.ConvergenceTable(rows=rows))


def test_convergence_table_requires_decreasing_h():
    rows = [diag.ConvergenceRow(h=h, dt=h, error_l2_spacetime=h, wbv_l1=1.0,
                                wbv_sq=1.0, mu0_mass=h, mu_t_mass=h)
            for h in (0.25, 0.5, 0.125)]
    with pytest.raises(ConfigError):
        diag.ConvergenceTable(rows=rows)


def _table_from(hs, l1s, sqs):
    rows = [diag.ConvergenceRow(h=h, dt=h, error_l2_spacetime=h, wbv_l1=l1,
                                wbv_sq=sq, mu0_mass=h, mu_t_mass=h)
            for h, l1, sq in zip(hs, l1s, sqs)]
    return diag.ConvergenceTable(rows=rows)


def test_wbv_scaling_report_rules():
    hs = (1 / 32, 1 / 64, 1 / 128)
    ok = hf.wbv_scaling_report(_table_from(hs, (1.0, 1.1, 1.2), (3e-4, 2e-4, 1e-4)))
    assert ok.passed_l1 and ok.passed_sq  # l1*sqrt(h) decreasing, sq decreasing
    bad = hf.wbv_scaling_report(_table_from(hs, (1.0, 4.0, 16.0), (1e-4, 1e-4, 1e-4)))
    assert not bad.passed_l1  # grows like 1/sqrt(h) squared: real growth
    assert bad.passed_sq
    grow = hf.wbv_scaling_report(_table_from(hs, (1.0, 1.0, 1.0), (1e-4, 2e-4, 4e-4)))
    assert grow.passed_l1
    assert not grow.passed_sq  # doubles per level: real growth


def test_measure_scaling_report_rules():
    hs = (1 / 32, 1 / 64, 1 / 128)
    good = [diag.MeasureMasses(mu0=h, mu_t=h, mu_bar0=1.1 * h, mu_bar_t=h)
            for h in hs]
    rep = hf.measure_scaling_report(hs, good)
    assert rep.passed and rep.mu0_over_h_ratio < 1.01
    bad = [diag.MeasureMasses(mu0=math.sqrt(h), mu_t=h, mu_bar0=h, mu_bar_t=h)
           for h in hs]
    assert not hf.measure_scaling_report(hs, bad).passed


def test_cauchy_schwarz_relation_on_run(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(48, 1.0)
    cfg = hf.RunConfig(final_time=0.1)
    led = hf.DiagnosticsLedger()
    fold = hf.ErrorFold(led, mesh, burgers_sys, burgers_rusanov, burgers_wave,
                        10.0, 0.1, burgers_sys.lf)
    hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave, cfg, [fold])
    rhs = math.sqrt(led.wbv_sq * led.interface_measure_total)
    assert led.wbv_l1 <= rhs * (1 + 1e-12)


def test_projection_masses_chunks_keep_the_bits():
    # more cells than one chunk: the chunked fold must give the bits of
    # one whole-mesh quadrature batch
    mesh = hf.build_perturbed_quad_2d(72, 60, 1.0, 1.0, 0.2, 5)
    assert mesh.n_cells > diag._MASS_CHUNK
    sysm = hf.make_advection(2, [1.0, 0.5], u_range=(-1.0, 1.0))
    u0 = lambda x: (0.5 * np.sin(2 * np.pi * x[..., 0])
                    * np.cos(2 * np.pi * x[..., 1]))[..., None]
    field0 = hf.project_initial(mesh, sysm, u0)
    mask = mesh.periodic_distance_to_origin(mesh.cell_centroids) <= 0.4

    pts, wts = hf.solver.tensor_gauss_quadrature(mesh, diag._GAUSS4, "oracle")
    vals = u0(pts)
    eta = (wts * np.abs(sysm.entropy(vals)
                        - sysm.entropy(field0.values)[:, None])).sum(axis=1)
    du = (wts * np.sqrt(((vals - field0.values[:, None, :]) ** 2)
                        .sum(axis=-1))).sum(axis=1)
    want = (float(eta[mask].sum()), float(du[mask].sum()))
    assert diag.projection_masses(mesh, sysm, u0, field0, mask) == want

    cells = slice(4000, 4400)
    part = hf.solver.tensor_gauss_quadrature(mesh, diag._GAUSS4, "oracle", cells)
    assert np.array_equal(part[0], pts[cells]) and np.array_equal(part[1], wts[cells])


def _counting_entropy(sysm):
    """A copy of `sysm` whose entropy records each call."""
    calls = []

    def entropy(u):
        calls.append(np.shape(u))
        return sysm.entropy(u)

    return dataclasses.replace(sysm, entropy=entropy), calls


def test_replays_evaluate_entropy_once_per_state(burgers_sys,
                                                 burgers_rusanov):
    # the cone replay folds the error part only: eta(u^n) and eta(ubar^n)
    # per step.  The mass replay carries eta(u^{n+1}) into the next step:
    # one per state, plus the two of the projection masses (one chunk)
    mesh = hf.build_uniform_1d(64, 1.0)
    T = 0.2
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave,
                  hf.RunConfig(final_time=T))
    n = traj.n_steps
    assert n > 1
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    counted, calls = _counting_entropy(burgers_sys)
    cone = hf.cone_l2_error(mesh, counted, traj, ref, r=10.0, T=T,
                            lf=burgers_sys.lf)
    assert len(calls) == 2 * n
    assert cone == hf.cone_l2_error(mesh, burgers_sys, traj, ref, r=10.0,
                                    T=T, lf=burgers_sys.lf)
    calls.clear()
    masses = hf.measure_masses(mesh, counted, burgers_wave, traj, 0.3, T)
    assert len(calls) == (n + 1) + 2
    assert masses == hf.measure_masses(mesh, burgers_sys, burgers_wave, traj,
                                       0.3, T)


def test_fold_shares_entropy_bit_for_bit(burgers_sys, burgers_rusanov):
    # eta(u^{n+1}) of one step serves as eta(u^n) of the next and of the
    # relative entropy: the series must equal a fresh evaluation per state
    mesh = hf.build_uniform_1d(24, 1.0)
    T = 0.05
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    counted, calls = _counting_entropy(burgers_sys)
    led = hf.DiagnosticsLedger()
    fold = hf.ErrorFold(led, mesh, counted, burgers_rusanov, burgers_wave,
                        10.0, T, burgers_sys.lf, ref)
    traj = hf.run(mesh, counted, burgers_rusanov, burgers_wave,
                  hf.RunConfig(final_time=T), [fold])
    fold.finish(traj)
    n = traj.n_steps
    assert len(calls) == 2 * n + 4
    want = [(t, hf.relative_entropy_norm(
        mesh, burgers_sys, f, hf.reference_cell_means(mesh, ref, t)))
        for t, f in traj.snapshots]
    assert led.rel_entropy_series == want


def test_gap_flag_matches_relative_floor_oracle(burgers_sys, burgers_rusanov):
    # the ledger skips the per-interface floors when the least slack is
    # above -1e-10; the flag must still equal the full check
    # slack >= -1e-10 max(1, |gap|), also where only the relative floor
    # lets an interface pass, and on NaN
    mesh = hf.build_uniform_1d(4, 1.0)
    fld = hf.StateField(np.full((4, 1), 0.3), 0.0, mesh.mesh_id)
    coef = burgers_sys.beta0 / (2.0 * burgers_rusanov.lambda_star)
    big = np.sqrt(100.0 / coef)
    cases = [([0.0, 1.0, 2.0, 0.5], [0.0, 0.0, 0.0, 0.0]),
             ([-1e-10, 0.0, 0.0, 0.0], [0.0] * 4),
             ([-1.5e-10, 0.0, 0.0, 0.0], [0.0] * 4),
             ([100.0, 0.0, 0.0, 0.0], [big * (1 + 2e-11), 0.0, 0.0, 0.0]),
             ([100.0, 0.0, 0.0, 0.0], [big * (1 + 2e-9), 0.0, 0.0, 0.0]),
             ([np.nan, 0.0, 0.0, 0.0], [0.0] * 4)]
    seen = set()
    for gap, defect in cases:
        gap, defect = np.array(gap), np.array(defect)
        rec = hf.InterfaceFluxRecords(
            g_value=np.zeros((4, 1)), xi_value=np.zeros(4), x_kl=gap,
            xi_left=np.zeros(4), defect=defect, dissipation_gap=gap)
        led = hf.DiagnosticsLedger()
        hf.accumulate_step(led, mesh, burgers_sys, burgers_rusanov, fld, fld,
                           rec, 1e-3)
        slack = gap - coef * defect * defect
        tol = 1e-10 * np.maximum(1.0, np.abs(gap))
        want = bool(np.all(slack >= -tol))
        assert led.gap_all_pass is want
        seen.add((want, bool(slack.min() >= -1e-10)))
    # both flag values, with and without the shortcut
    assert seen == {(True, True), (False, False), (True, False)}

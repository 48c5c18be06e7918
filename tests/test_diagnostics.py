import dataclasses
import math
import os
import platform
import sys

import numpy as np
import pytest

import hypflux as hf
from hypflux import diagnostics as diag
from hypflux.errors import ConfigError
from hypflux.systems import SCRATCH_ENTRIES

from conftest import SCRATCH_BYTES, fresh_maxrss, same_bits, traced_peak


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


@pytest.mark.parametrize("r", [0.0, 1e-4, -0.05])
def test_cone_l2_error_reads_only_the_cones(r):
    # B(0, r) holds no centroid, but the cones B(0, r + lf (T - t^n)) do:
    # at t^0 the two cells whose centroids lie 0.125 from the origin
    # (radius 0.2 + r), at t^1 none (radius 0.1 + r)
    sys = hf.make_advection(1, [1.0], u_range=(-1.5, 1.5))
    mesh = hf.build_uniform_1d(4, 1.0)
    mids = np.array([0.125, 0.375, 0.625, 0.875])
    dt = 0.1
    w0 = np.sin(2 * np.pi * mids) + np.array([0.1, -0.2, 0.3, -0.4])
    levels = [(n * dt, w0 + 0.05 * n) for n in range(3)]
    traj = hf.Trajectory(
        snapshots=[(t, hf.StateField(w[:, None], t, mesh.mesh_id))
                   for t, w in levels], dt=dt, n_steps=2)
    ref = hf.exact_advection([1.0],
                             lambda x: np.sin(2 * np.pi * np.asarray(x)[..., 0])[..., None],
                             (1.0,))
    got = hf.cone_l2_error(mesh, sys, traj, ref, r=r, T=2 * dt, lf=1.0)
    err0 = 0.25 * (w0 - np.sin(2 * np.pi * mids)) ** 2
    assert got == pytest.approx(dt * (err0[0] + err0[3]), rel=1e-13)
    assert got > 0


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
    # several chunks and a remainder: the chunked fold must give the bits
    # of one whole-mesh quadrature batch
    mesh = hf.build_perturbed_quad_2d(72, 60, 1.0, 1.0, 0.2, 5)
    chunk = SCRATCH_ENTRIES // (diag._GAUSS4[0].size ** 2 * 2)
    assert mesh.n_cells > 2 * chunk and mesh.n_cells % chunk
    sysm = hf.make_advection(2, [1.0, 0.5], u_range=(-1.0, 1.0))
    u0 = lambda x: (0.5 * np.sin(2 * np.pi * x[..., 0])
                    * np.cos(2 * np.pi * x[..., 1]))[..., None]
    field0 = hf.project_initial(mesh, sysm, u0)
    mask = mesh.periodic_distance_to_origin(mesh.cell_centroids) <= 0.4

    pts, wts = hf.solver.tensor_gauss_quadrature(mesh, diag._GAUSS4)
    vals = u0(pts)
    eta = (wts * np.abs(sysm.entropy(vals)
                        - sysm.entropy(field0.values)[:, None])).sum(axis=1)
    du = (wts * np.sqrt(((vals - field0.values[:, None, :]) ** 2)
                        .sum(axis=-1))).sum(axis=1)
    want = (float(eta[mask].sum()), float(du[mask].sum()))
    assert diag.projection_masses(mesh, sysm, u0, field0, mask) == want

    cells = slice(4000, 4400)
    part = hf.solver.tensor_gauss_quadrature(mesh, diag._GAUSS4, cells)
    assert np.array_equal(part[0], pts[cells]) and np.array_equal(part[1], wts[cells])


def _counting_entropy(sysm):
    """A copy of `sysm` whose entropy records each call."""
    calls = []

    def entropy(u):
        calls.append(np.shape(u))
        return sysm.entropy(u)

    return dataclasses.replace(sysm, entropy=entropy), calls


def test_replays_evaluate_entropy_once_per_block(monkeypatch, burgers_sys,
                                                 burgers_rusanov):
    # the mass replay stacks the stored states of each block of K steps
    # and evaluates eta on them in one call, and adds the two of the
    # projection masses (one chunk).  The cone replay needs no eta: the
    # relative entropy is in closed form.  117 steps in blocks of 16: 8
    # blocks
    monkeypatch.setattr(hf.solver, "_BLOCK_ENTRIES", 16 * 64)
    mesh = hf.build_uniform_1d(64, 1.0)
    T = 0.2
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave,
                  hf.RunConfig(final_time=T))
    assert traj.n_steps == 117 and hf.steps_per_block(mesh) == 16
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    counted, calls = _counting_entropy(burgers_sys)
    cone = hf.cone_l2_error(mesh, counted, traj, ref, r=10.0, T=T,
                            lf=burgers_sys.lf)
    assert len(calls) == 0
    assert cone == hf.cone_l2_error(mesh, burgers_sys, traj, ref, r=10.0,
                                    T=T, lf=burgers_sys.lf)
    calls.clear()
    masses = hf.measure_masses(mesh, counted, burgers_wave, traj, 0.3, T)
    assert len(calls) == 8 + 2
    assert masses == hf.measure_masses(mesh, burgers_sys, burgers_wave, traj,
                                       0.3, T)


def test_fold_shares_entropy_bit_for_bit(burgers_sys, burgers_rusanov):
    # eta of a block's states serves the ledger, and the series the fold
    # forms must equal a fresh evaluation per state
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
    # one block of 11 steps: eta(u) once at the first state and once at
    # the 11 after it, and the two of the projection masses; the relative
    # entropy, in closed form, needs neither eta(u) nor eta(ubar), at the
    # final level either
    assert traj.n_steps == 11 and hf.steps_per_block(mesh) > 11
    assert calls == [(24, 1), (11, 24, 1), (24, 4, 1), (24, 1)]
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


# ---------------------------------------------------------------------------
# the ledger folded over blocks of steps against step by step
# ---------------------------------------------------------------------------

def _adv2d_wave(x):
    x = np.asarray(x, dtype=float)
    return (0.3 * np.sin(2 * np.pi * (x[..., 0] + 2 * x[..., 1])))[..., None]


def _sw_wave(x):
    s = np.sin(2 * np.pi * np.asarray(x, dtype=float)[..., 0])
    return np.stack([1.2 + 0.1 * s, 0.3 + 0.05 * s], axis=-1)


def _blocked_case(name, request):
    """(mesh, system, scheme, u0, T, reference, check_admissibility)."""
    burgers = request.getfixturevalue("burgers_sys")
    exact = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    line = hf.build_uniform_1d(1024, 1.0)
    if name == "burgers-rusanov":
        return (line, burgers, request.getfixturevalue("burgers_rusanov"),
                burgers_wave, 0.05, exact, True)
    if name == "burgers-godunov":
        return (line, burgers, request.getfixturevalue("burgers_godunov"),
                burgers_wave, 0.05, exact, True)
    if name == "shallow-water":
        return (hf.build_uniform_1d(256, 1.0),
                request.getfixturevalue("shallow_water_sys"),
                request.getfixturevalue("shallow_water_rusanov"), _sw_wave,
                0.002, None, True)
    if name == "advection2d-jittered":
        sysm = hf.make_advection(2, [1.0, 0.5], u_range=(-0.4, 0.4))
        return (hf.build_perturbed_quad_2d(24, 24, 1.0, 1.0, 0.15, 3), sysm,
                hf.make_rusanov(sysm), _adv2d_wave, 0.04,
                hf.exact_advection([1.0, 0.5], _adv2d_wave, (1.0, 1.0)), True)
    # lambda* far below the wave speeds and no admissibility check: the
    # run blows up to NaN
    sysm = hf.make_burgers(1, u_range=(0.2, 0.8))
    bad = dataclasses.replace(hf.make_rusanov(sysm), lambda_star=0.02)
    return (line, sysm, bad, burgers_wave, 4.0, None, False)


@pytest.mark.parametrize("name", ["burgers-rusanov", "burgers-godunov",
                                  "shallow-water", "advection2d-jittered",
                                  "non-finite"])
def test_blocked_ledger_matches_step_by_step_bitwise(request, monkeypatch,
                                                     name):
    mesh, sysm, sch, u0, T, ref, check = _blocked_case(name, request)
    cfg = hf.RunConfig(final_time=T, check_admissibility=check)
    ledgers, folds, ks = [], [], []
    entries = hf.solver._BLOCK_ENTRIES
    for block in (entries, 1):
        monkeypatch.setattr(hf.solver, "_BLOCK_ENTRIES", block)
        led = hf.DiagnosticsLedger()
        fold = hf.ErrorFold(led, mesh, sysm, sch, u0, 0.3, T, sysm.lf, ref)
        with np.errstate(all="ignore"):
            traj = hf.run(mesh, sysm, sch, u0, cfg, [fold])
        # complete when the run returns, without finish
        assert led.n_steps_accumulated == traj.n_steps
        ledgers.append(repr(dataclasses.asdict(led)))
        fold.finish(traj)
        ledgers.append(repr(dataclasses.asdict(led)))
        folds.append(fold)
        ks.append(hf.steps_per_block(mesh))
    # several full blocks and a partial one
    default = ks[0]
    assert default == max(1, entries // mesh.n_interfaces) > 1
    assert ks[1] == 1
    assert traj.n_steps > 2 * default and traj.n_steps % default != 0
    # repr tells -0.0 from 0.0 and gives every other float exactly
    assert ledgers[0] == ledgers[2] and ledgers[1] == ledgers[3]
    assert repr((folds[0].cone, folds[0].mbeta_ok)) == \
        repr((folds[1].cone, folds[1].mbeta_ok))
    led = folds[0].ledger
    if name == "non-finite":
        assert not np.isfinite(traj.final_field.values).all()
        assert not led.entropy_residual_max_scaled <= 1e-10
        assert not led.gap_all_pass
    else:
        assert led.entropy_residual_max_scaled <= 1e-10 and led.gap_all_pass


def test_fold_rejects_a_second_dt(burgers_sys, burgers_rusanov):
    # the blocks of one fold share one dt; a run never changes it
    mesh = hf.build_uniform_1d(32, 1.0)
    fold = hf.ErrorFold(hf.DiagnosticsLedger(), mesh, burgers_sys,
                        burgers_rusanov, burgers_wave, 0.3, 1.0,
                        burgers_sys.lf)
    field = hf.project_initial(mesh, burgers_sys, burgers_wave)
    for dt in (1e-3, 1e-3, 2e-3):
        block, = hf.march_blocks(mesh, burgers_sys, burgers_rusanov, field,
                                 dt, 1)
        if dt == 2e-3:
            with pytest.raises(ConfigError):
                fold(block)
        else:
            fold(block)
    assert fold.ledger.n_steps_accumulated == 2


@pytest.mark.parametrize("quadrature", ["midpoint", "gauss3"])
def test_level_means_match_cell_means_per_level_bitwise(quadrature):
    # the quadrature sum runs over the points axis of every level alike,
    # the 9-point 2D rule (numpy's pairwise sum) included
    line = hf.build_uniform_1d(96, 1.0)
    burgers = hf.exact_burgers(
        lambda x: (0.5 + 0.25 * np.sin(2 * np.pi * np.asarray(x)[..., 0]))[..., None],
        lambda y: 0.5 * np.pi * np.cos(2 * np.pi * np.asarray(y)), (1.0,))
    grid = hf.build_perturbed_quad_2d(16, 16, 1.0, 1.0, 0.15, 3)
    advection = hf.exact_advection([1.0, 0.5], _adv2d_wave, (1.0, 1.0))
    for mesh, ref in ((line, burgers), (grid, advection)):
        ts = (0.0, 0.02, 0.3)
        got = diag.reference_level_means(mesh, ref, ts, quadrature)
        want = [hf.solver.cell_means(mesh, lambda x: ref.eval(x, t),
                                     quadrature) for t in ts]
        assert got.shape == (3, mesh.n_cells, 1)
        assert np.array_equal(got.view(np.int64), np.stack(want).view(np.int64))


GODUNOV_1024 = """
[run]
problem = burgers1d
n_cells = 1024
t = 0.2
zeta = 0.1
cfl_mode = strengthened
record_every = 1
check_admissibility = true
quadrature = midpoint
seed = 1
r = 10.0

[initial]
kind = sine
mean = 0.5
amplitude = 0.25
frequency = 1

[flux]
name = godunov

[output]
reference = exact
snapshots = ends
"""

_FAULTS = """
import resource, sys
from hypflux import cli
cfg = cli.parse_config_text(sys.stdin.read())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
report = cli.execute_run(cfg, write_snapshots="ends")
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(report["metadata"]["n_steps"], after - before, report["passed"])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc heap trims through minor faults")
def test_flushes_do_not_make_the_heap_trim():
    # a block fold whose temporaries reach the top of glibc's heap leaves
    # a top chunk above the trim threshold; glibc gives its pages back and
    # the next block faults them in again, tens of faults per step on this
    # 1024-cell Godunov run (K = 8 steps per block; about 16,600 faults
    # without `cli._keep_step_heap`).  Setup included, a run whose blocks
    # keep the heap takes under one per step.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    res, _ = fresh_maxrss(_FAULTS, stdin=GODUNOV_1024, env=env)
    assert res.returncode == 0, res.stderr
    n_steps, faults, passed = res.stdout.split()
    assert passed == "True" and int(n_steps) == 741
    assert int(faults) < 2 * int(n_steps)


# ---------------------------------------------------------------------------
# scratch memory at 128 x 128, where an interface array is one scratch chunk
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def adv2d_128():
    mesh = hf.build_perturbed_quad_2d(128, 128, 1.0, 1.0, 0.15, 1)
    assert mesh.n_interfaces * 8 == SCRATCH_BYTES
    sysm = hf.make_advection(2, [1.0, 0.5], u_range=(-0.45, 0.65))
    ref = hf.exact_advection([1.0, 0.5], _adv2d_wave, (1.0, 1.0))
    return mesh, sysm, hf.make_rusanov(sysm), ref


def test_projection_masses_scratch_is_bounded(adv2d_128):
    # chunks of 1024 cells (16 points of 2 coordinates each): under 9
    # scratch chunks, where chunks of 4096 cells took about 29
    mesh, sysm, _, _ = adv2d_128
    field0 = hf.project_initial(mesh, sysm, _adv2d_wave)
    ball = mesh.periodic_distance_to_origin(mesh.cell_centroids) <= 0.4
    got, peak, kept = traced_peak(diag.projection_masses, mesh, sysm,
                                  _adv2d_wave, field0, ball)
    assert peak - kept <= 10 * SCRATCH_BYTES
    assert got[0] > 0.0 and got[1] > 0.0


def test_step_and_flush_scratch_is_bounded(adv2d_128):
    # one step of E = 32,768 interfaces, a block of K = 1, with its fold:
    # march's step, then the records part on the update the fold takes
    # over from the block, and the fold's and the ledger's temporaries once
    # the update is gone.  11.5 chunks at the peak, the march's normal
    # speeds (one chunk) included; a ledger that formed the cell variation
    # before its scatter and kept the residual took 12.5 with them (12.0
    # without), a records part that kept the update's sides and allocated
    # its differences 14.5, and a fold that ran the ledger with the step's
    # update still held (5 interface arrays) 16.0
    mesh, sysm, sch, ref = adv2d_128
    dt = hf.compute_dt(mesh, sysm, sch, hf.RunConfig(final_time=0.0))
    fold = hf.ErrorFold(hf.DiagnosticsLedger(), mesh, sysm, sch, _adv2d_wave,
                        10.0, 2 * dt, sysm.lf, ref)
    assert hf.steps_per_block(mesh) == 1
    field = hf.project_initial(mesh, sysm, _adv2d_wave)

    def one_step():
        for block in hf.march_blocks(mesh, sysm, sch, field, dt, 1):
            fold(block)
        return block.states[-1].copy()

    _, peak, kept = traced_peak(one_step)
    assert fold.ledger.n_steps_accumulated == 1
    assert peak - kept <= 12.5 * SCRATCH_BYTES


def test_fold_binds_its_reference_once_and_finish_releases_it():
    # with the catalog sine, the fold binds the reference to its points
    # once (one translation call) and reads the rotation every block; its
    # functionals agree with those of the wrapped levels to roundoff, and
    # finish lets the binding go
    from hypflux import cli
    cfg = cli.parse_config_text("[run]\nproblem = advection2d\nnx = 16\n"
                                "t = 0.3\n[initial]\nkind = sine\n"
                                "mean = 0.1\namplitude = 0.5\n")
    u0 = cli.make_initial(cli.resolve_config(cfg), (1.0, 1.0))[0]
    binds = []
    translation = u0.translation
    u0.translation = lambda x: binds.append(x.shape) or translation(x)
    mesh = hf.build_perturbed_quad_2d(16, 16, 1.0, 1.0, 0.15, 2)
    sysm = hf.make_advection(2, [1.0, 0.5], u_range=(-0.45, 0.65))
    sch = hf.make_rusanov(sysm)
    cfg = hf.RunConfig(final_time=0.3)
    folds = []
    for datum in (u0, lambda x: u0(x)):  # the second has no translation
        ref = hf.exact_advection([1.0, 0.5], datum, (1.0, 1.0))
        folds.append(hf.ErrorFold(hf.DiagnosticsLedger(), mesh, sysm, sch,
                                  u0, 10.0, cfg.final_time, sysm.lf, ref))
    assert binds == [(mesh.n_cells, 1, 2)]
    for fold in folds:  # each takes its run's updates over
        fold.finish(hf.run(mesh, sysm, sch, u0, cfg, [fold]))
        assert fold._bound is None
    bound, wrapped = folds
    assert binds == [(mesh.n_cells, 1, 2)]
    assert abs(bound.cone - wrapped.cone) <= 1e-12 * wrapped.cone
    assert bound.mbeta_ok and wrapped.mbeta_ok
    got, want = (np.array(f.ledger.rel_entropy_series) for f in folds)
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.abs(got[:, 1] - want[:, 1]).max() <= 1e-15 * want[:, 1].max()


# ---------------------------------------------------------------------------
# the relative-entropy series against its oracles
# ---------------------------------------------------------------------------

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _shipped_runs_with_reference():
    """(label, cfg, n_override) of every run of a shipped config that has
    a reference: each run config, and each level of the study spec."""
    from hypflux import cli
    runs = []
    for name in sorted(os.listdir(CONFIG_DIR)):
        cfg = cli.load_config(os.path.join(CONFIG_DIR, name))
        if "study" in cfg:
            for n in cli.resolve_config(cfg)["levels"]:
                runs.append((f"{name}:{n}", cfg, n))
        elif cli.build_problem(cfg).ref is not None:
            runs.append((name, cfg, None))
    return runs


def _series_levels(cfg, n_override=None):
    """The run of `cfg`, folded as `execute_run` folds it: (setup, its
    relative-entropy series, the states of its levels, the reference
    means there as the fold's binding gives them)."""
    from hypflux import cli
    setup = cli.build_problem(cfg, n_override)
    rc = dataclasses.replace(setup.run_config, record_every=1)
    fold = hf.ErrorFold(hf.DiagnosticsLedger(), setup.mesh, setup.system,
                        setup.scheme, setup.u0, setup.conf["r"], rc.final_time,
                        setup.system.lf, setup.ref, rc.quadrature)
    traj = hf.run(setup.mesh, setup.system, setup.scheme, setup.u0, rc,
                  [fold])
    fold.finish(traj)
    series = fold.ledger.rel_entropy_series
    ts = [t for t, _ in traj.snapshots]
    assert [t for t, _ in series] == ts
    ubars = diag.reference_level_means(
        setup.mesh, diag.bind_reference(setup.mesh, setup.ref,
                                        rc.quadrature), ts)
    states = np.stack([fld.values for _, fld in traj.snapshots])
    return setup, np.array([h for _, h in series]), states, ubars


@pytest.mark.parametrize("name", ["advection2d.ini", "burgers1d.ini",
                                  "friedrichs1d.ini"])
def test_quadratic_series_matches_relative_entropy_terms_bitwise(name):
    # advection, Burgers (beta = 1) and Friedrichs (beta = 2): the series
    # is (beta/2) sum |K| |u - ubar|^2, with the bits of the sum of |K| H
    # from relative_entropy_terms at every level
    from hypflux import cli
    setup, got, u, ubar = _series_levels(
        cli.load_config(os.path.join(CONFIG_DIR, name)))
    sysm = setup.system
    assert sysm.beta0 == sysm.beta1
    want = diag._relative_entropy_sum(setup.mesh, sysm, u, ubar, u - ubar)
    assert got.size > 30 and (got[1:] > 0).all()
    assert same_bits(got, want)


def test_series_within_1e14_of_long_double():
    # every entry of every shipped series against sum |K| H in long
    # double, on the same double states and reference means
    ld = np.longdouble
    if np.finfo(ld).eps >= np.finfo(float).eps:
        pytest.skip("np.longdouble is plain double on this platform")
    from hypflux.systems import relative_entropy_terms
    runs = _shipped_runs_with_reference()
    assert [label for label, *_ in runs] == [
        "advection2d.ini", "burgers1d.ini", "burgers1d_study.ini:32",
        "burgers1d_study.ini:64", "burgers1d_study.ini:128",
        "burgers1d_study.ini:256", "constant.ini", "friedrichs1d.ini"]
    for label, cfg, n in runs:
        setup, got, u, ubar = _series_levels(cfg, n)
        u, ubar = u.astype(ld), ubar.astype(ld)
        want = (setup.mesh.cell_volumes.astype(ld)
                * relative_entropy_terms(setup.system, u, ubar, u - ubar)
                ).sum(axis=-1)
        err = np.abs(got.astype(ld) - want)
        assert (err <= 1e-14 * np.abs(want)).all(), (label, err.max())


def test_mbeta_tolerance_is_relative():
    # at esq = 1e-12 a bracket miss of 5e-11 is outside; the absolute
    # floor of 1e-10 that the tolerance had took it in.  A few ulp are
    # inside, NaN and inf are outside
    esq = np.array([1e-12])
    for beta in (1.0, 2.0):
        exact = 0.5 * beta * esq
        assert diag._mbeta_inside(esq, exact, beta, beta, 128).all()
        for miss in (5e-11, -5e-11):
            assert not diag._mbeta_inside(esq, exact + miss, beta, beta,
                                          128).any()
        near = exact * (1 + 4 * np.finfo(float).eps)
        assert diag._mbeta_inside(esq, near, beta, beta, 128).all()
    # a two-sided bracket, as shallow water's
    assert diag._mbeta_inside(esq, 0.5 * esq, 0.8, 1.2, 128).all()
    assert not diag._mbeta_inside(esq, 0.7 * esq, 0.8, 1.2, 128).any()
    for bad in (np.nan, np.inf):
        assert not diag._mbeta_inside(esq, np.array([bad]), 1.0, 1.0,
                                      128).any()
        assert not diag._mbeta_inside(np.array([bad]), np.array([1.0]), 1.0,
                                      1.0, 128).any()


@pytest.mark.parametrize("r", [-1.0, math.nan, 1e-4])
def test_fold_rejects_a_ball_without_a_centroid(burgers_sys, burgers_rusanov,
                                                r):
    # at construction, before any block: the nearest centroid of the
    # 1024-cell line lies 4.9e-4 from the origin
    mesh = hf.build_uniform_1d(1024, 1.0)
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    with pytest.raises(ConfigError, match="no cell centroid"):
        hf.ErrorFold(hf.DiagnosticsLedger(), mesh, burgers_sys,
                     burgers_rusanov, burgers_wave, r, 0.1, 1.0, ref)
    with pytest.raises(ConfigError, match="no cell centroid"):
        diag.check_ball(mesh, r)
    diag.check_ball(mesh, 5e-4)

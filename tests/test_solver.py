import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypflux as hf
from hypflux import diagnostics, solver
from hypflux.errors import AdmissibilityError, ConfigError

from conftest import same_bits


def sine_u0(x):
    x = np.asarray(x, dtype=float)
    return np.sin(2 * np.pi * x[..., 0])[..., None]


def burgers_wave_u0(x):
    x = np.asarray(x, dtype=float)
    return (0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0]))[..., None]


def test_run_config_validation():
    with pytest.raises(ConfigError):
        hf.RunConfig(final_time=1.0, zeta=1.5)
    with pytest.raises(ConfigError):
        hf.RunConfig(final_time=-1.0)
    with pytest.raises(ConfigError):
        hf.RunConfig(final_time=1.0, cfl_mode="implicit")


def test_project_constant(advection_sys):
    mesh = hf.build_uniform_1d(8, 1.0)
    fld = hf.project_initial(mesh, advection_sys,
                             lambda x: np.full(np.asarray(x).shape[:-1] + (1,), 0.25))
    assert np.all(fld.values == 0.25)


def test_project_linear_gauss_exact():
    # mean of u0(x) = x over [0, 0.25] is 0.125
    mesh = hf.build_uniform_1d(4, 1.0)
    sys = hf.make_advection(1, [1.0], u_range=(-0.5, 1.5))
    fld = hf.project_initial(mesh, sys, lambda x: np.asarray(x).copy(),
                             quadrature="gauss3")
    assert fld.values[0, 0] == pytest.approx(0.125, abs=1e-15)


def test_project_midpoint_sine():
    mesh = hf.build_uniform_1d(4, 1.0)
    sys = hf.make_advection(1, [1.0], u_range=(-1.5, 1.5))
    fld = hf.project_initial(mesh, sys, sine_u0, quadrature="midpoint")
    mids = np.array([0.125, 0.375, 0.625, 0.875])
    assert np.array_equal(fld.values[:, 0], np.sin(2 * np.pi * mids))


def test_project_gauss3_quadratic_2d():
    # gauss3 integrates quadratics exactly on affine cells
    mesh = hf.build_uniform_quad_2d(3, 3, 1.0, 1.0)
    sys = hf.make_advection(2, [1.0, 0.0], u_range=(-1.0, 2.0))
    fld = hf.project_initial(mesh, sys,
                             lambda x: (np.asarray(x)[..., 0] ** 2)[..., None],
                             quadrature="gauss3")
    # cell [0,1/3]^2: mean of x^2 is (1/3)^2/3
    assert fld.values[0, 0] == pytest.approx((1.0 / 3.0) ** 2 / 3.0, rel=1e-13)
    # the same tensor rule with 3 and with 4 points (the mass rule)
    for rule in (solver._GAUSS3, diagnostics._GAUSS4):
        pts, wts = solver.tensor_gauss_quadrature(mesh, rule)
        mean = (wts * pts[..., 0] ** 2).sum(axis=1) / mesh.cell_volumes
        assert mean[0] == pytest.approx((1.0 / 3.0) ** 2 / 3.0, rel=1e-13)


def _bilinear_map(rule):
    """The tensor rule's points and weights and the bilinear shape values
    and derivatives at its points, as (4, p) arrays over the corners."""
    nodes, weights = rule
    s, t = np.meshgrid(nodes, nodes, indexing="ij")
    ws, wt = np.meshgrid(weights, weights, indexing="ij")
    s, t, w = s.ravel(), t.ravel(), (ws * wt).ravel()
    shp = np.stack([(1 - s) * (1 - t), (1 + s) * (1 - t),
                    (1 + s) * (1 + t), (1 - s) * (1 + t)], axis=0) / 4.0
    d_s = np.stack([-(1 - t), (1 - t), (1 + t), -(1 + t)], axis=0) / 4.0
    d_t = np.stack([-(1 - s), -(1 + s), (1 + s), (1 - s)], axis=0) / 4.0
    return w, shp, d_s, d_t


def _mapped_quadrature(verts, rule, corner_sum):
    """Points and weights of the 2D tensor rule on the quads `verts`,
    with each map sum_q coeffs[q, p] verts[n, q, i] formed by
    `corner_sum(coeffs, verts)`."""
    w, shp, d_s, d_t = _bilinear_map(rule)
    pts = corner_sum(shp, verts)
    xs, xt = corner_sum(d_s, verts), corner_sum(d_t, verts)
    jac = np.abs(xs[..., 0] * xt[..., 1] - xs[..., 1] * xt[..., 0])
    return pts, jac * w[None, :]


def _loop_corner_sum(coeffs, verts):
    """The corner sum as Python floats, over the corners q in order."""
    n, _, d = verts.shape
    out = np.empty((n, coeffs.shape[1], d))
    for k in range(n):
        for p in range(coeffs.shape[1]):
            for i in range(d):
                acc = float(coeffs[0, p]) * float(verts[k, 0, i])
                for q in range(1, len(coeffs)):
                    acc += float(coeffs[q, p]) * float(verts[k, q, i])
                out[k, p, i] = acc
    return out


def test_quadrature_map_matches_ordered_corner_loop_bitwise():
    # the corner sums add each product in corner order: the points and
    # weights of a plain loop over the corners bit for bit, on all cells
    # and on a slice, and the points C-ordered; np.einsum, which the map
    # replaced and whose order of summation numpy does not fix, lies
    # within 1 ulp of them
    mesh = hf.build_perturbed_quad_2d(9, 7, 1.0, 0.8, 0.2, 5)
    for rule in (solver._GAUSS3, diagnostics._GAUSS4):
        for cells in (slice(None), slice(10, 33)):
            verts = mesh.cell_vertices[cells]
            got = solver.tensor_gauss_quadrature(mesh, rule, cells)
            want = _mapped_quadrature(verts, rule, _loop_corner_sum)
            summed = _mapped_quadrature(
                verts, rule,
                lambda c, v: np.einsum("qp,nqi->npi", c, v))
            for a, b, e in zip(got, want, summed):
                assert a.shape == b.shape and a.flags.c_contiguous
                assert same_bits(a, b)
                assert (np.abs(a - e) <= np.spacing(np.abs(e))).all()


def test_project_rejects_inadmissible():
    mesh = hf.build_uniform_1d(4, 1.0)
    sys = hf.make_advection(1, [1.0], u_range=(-0.5, 0.5))
    with pytest.raises(AdmissibilityError) as exc:
        hf.project_initial(mesh, sys, sine_u0)
    assert "cell" in str(exc.value)


@pytest.mark.parametrize("quadrature", ["midpoint", "gauss3"])
@pytest.mark.parametrize("mesh", [hf.build_uniform_1d(16, 1.0),
                                  hf.build_perturbed_quad_2d(6, 5, 1.0, 1.0,
                                                             0.2, 3)],
                         ids=["1d", "2d"])
def test_project_evaluates_u0_once(mesh, quadrature):
    # the point-wise check and the means read one evaluation of u0, and
    # the means are those of cell_means bit for bit
    sys = hf.make_advection(mesh.dim, [1.0] * mesh.dim, u_range=(-1.5, 1.5))
    calls = []

    def u0(x):
        calls.append(np.shape(x))
        return sine_u0(x)

    fld = hf.project_initial(mesh, sys, u0, quadrature=quadrature)
    pts, _ = solver.cell_quadrature(mesh, quadrature)
    assert calls == [pts.shape]
    want = hf.cell_means(mesh, sine_u0, quadrature)
    assert np.array_equal(fld.values.view(np.int64), want.view(np.int64))


def _scheme_with_lambda(sys, lam):
    sch = hf.make_rusanov(sys)
    return dataclasses.replace(sch, lambda_star=lam)


def test_compute_dt_standard_hand_value():
    # a = 0.5, h = 0.01, lambda* = 2: a^2 h / lambda* = 1.25e-3; the per-cell
    # bound 2.5e-3 is slack.  T chosen so the exact fit keeps the value.
    mesh = hf.build_uniform_1d(100, 1.0)
    sys = hf.make_burgers(1, u_range=(-1.0, 1.0))
    sch = _scheme_with_lambda(sys, 2.0)
    cfg = hf.RunConfig(final_time=0.125, cfl_mode="standard")
    dt = hf.compute_dt(mesh, sys, sch, cfg)
    assert dt == pytest.approx(1.25e-3, rel=1e-14)


def test_compute_dt_strengthened_hand_value():
    # beta0 = beta1, zeta = 0.1: (a^2/lambda*)(1-zeta)h = 1.125e-3
    mesh = hf.build_uniform_1d(100, 1.0)
    sys = hf.make_burgers(1, u_range=(-1.0, 1.0))
    sch = _scheme_with_lambda(sys, 2.0)
    cfg = hf.RunConfig(final_time=0.1125, cfl_mode="strengthened", zeta=0.1)
    dt = hf.compute_dt(mesh, sys, sch, cfg)
    assert dt == pytest.approx(1.125e-3, rel=1e-14)


def test_compute_dt_monotone_in_zeta():
    mesh = hf.build_uniform_1d(64, 1.0)
    sys = hf.make_burgers(1, u_range=(-1.0, 1.0))
    sch = hf.make_rusanov(sys)
    dts = [hf.compute_dt(mesh, sys, sch,
                         hf.RunConfig(final_time=1.0, zeta=z))
           for z in (0.1, 0.5, 0.9)]
    assert dts[0] > dts[1] > dts[2]


def test_compute_dt_exact_fit():
    mesh = hf.build_uniform_1d(32, 1.0)
    sys = hf.make_burgers(1, u_range=(-1.0, 1.0))
    sch = hf.make_rusanov(sys)
    cfg = hf.RunConfig(final_time=0.2)
    dt = hf.compute_dt(mesh, sys, sch, cfg)
    n = round(0.2 / dt)
    assert n * dt == pytest.approx(0.2, rel=1e-15)
    # and dt respects the per-cell bound
    lam = sch.lambda_star
    assert dt * lam * 2 / mesh.h <= 1.0 + 1e-12


def test_step_upwind_hand_values():
    # speed-1 advection, nu = dt/dx = 0.5: [0,1,0] -> [0, 0.5, 0.5]
    mesh = hf.build_uniform_1d(3, 1.0)
    sys = hf.make_advection(1, [1.0], u_range=(-0.5, 1.5))
    sch = hf.make_godunov_scalar(sys)
    fld = hf.StateField(values=np.array([[0.0], [1.0], [0.0]]), time=0.0,
                        mesh_id=mesh.mesh_id)
    dt = 0.5 * mesh.h
    out = hf.step(mesh, sys, sch, fld, dt)
    assert np.allclose(out.values[:, 0], [0.0, 0.5, 0.5], atol=1e-15)


def test_step_constant_state_is_fixed_point(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(7, 1.0)
    fld = hf.StateField(values=np.full((7, 1), 0.42), time=0.0,
                        mesh_id=mesh.mesh_id)
    out = hf.step(mesh, burgers_sys, burgers_rusanov, fld, 1e-3)
    assert np.array_equal(out.values, fld.values)


def test_step_conserves_mass(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(32, 1.0)
    fld = hf.project_initial(mesh, burgers_sys, burgers_wave_u0)
    dt = hf.compute_dt(mesh, burgers_sys, burgers_rusanov,
                       hf.RunConfig(final_time=0.1))
    m0 = (mesh.cell_volumes[:, None] * fld.values).sum()
    out = hf.step(mesh, burgers_sys, burgers_rusanov, fld, dt)
    m1 = (mesh.cell_volumes[:, None] * out.values).sum()
    assert abs(m1 - m0) <= 1e-13 * max(1.0, abs(m0))


def test_run_trajectory_bookkeeping(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(16, 1.0)
    cfg = hf.RunConfig(final_time=0.05, record_every=3)
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave_u0, cfg)
    assert traj.n_steps == round(0.05 / traj.dt)
    # snapshot times are integer multiples of dt, final time included
    for t, fld in traj.snapshots:
        k = round(t / traj.dt) if traj.dt else 0
        assert t == k * traj.dt
        assert fld.time == t
    assert traj.snapshots[-1][0] == pytest.approx(0.05, rel=1e-15)


def test_run_zero_final_time(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(8, 1.0)
    cfg = hf.RunConfig(final_time=0.0)
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave_u0, cfg)
    assert traj.n_steps == 0
    assert len(traj.snapshots) == 1


def test_run_tiny_final_time_single_step(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(8, 1.0)
    cfg = hf.RunConfig(final_time=1e-7)
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave_u0, cfg)
    assert traj.n_steps == 1
    assert traj.dt == pytest.approx(1e-7)
    # consistent with the step-count bound n <= T/dt + 1
    assert traj.n_steps <= 1e-7 / traj.dt + 1


def test_run_mass_conservation_over_run(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(64, 1.0)
    cfg = hf.RunConfig(final_time=0.2)
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave_u0, cfg)
    m0 = (mesh.cell_volumes[:, None] * traj.snapshots[0][1].values).sum()
    mN = (mesh.cell_volumes[:, None] * traj.final_field.values).sum()
    assert abs(mN - m0) <= 1e-12 * max(1.0, abs(m0))


def test_run_deterministic(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(32, 1.0)
    cfg = hf.RunConfig(final_time=0.1)
    t1 = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave_u0, cfg)
    t2 = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave_u0, cfg)
    assert t1.dt == t2.dt
    for (ta, fa), (tb, fb) in zip(t1.snapshots, t2.snapshots):
        assert ta == tb
        assert np.array_equal(fa.values, fb.values)


def test_run_admissibility_violation_names_cell_and_step():
    # a lambda_star far below the wave speeds forces a CFL breach; the
    # blow-up must be reported with the offending cell and step
    sys = hf.make_burgers(1, u_range=(0.2, 0.8))
    mesh = hf.build_uniform_1d(32, 1.0)
    bad = _scheme_with_lambda(sys, 0.02)
    cfg = hf.RunConfig(final_time=0.5, check_admissibility=True)
    with pytest.raises(AdmissibilityError) as exc:
        hf.run(mesh, sys, bad, burgers_wave_u0, cfg)
    msg = str(exc.value)
    assert "step" in msg and "cell" in msg


def test_run_hooks_see_every_step(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(16, 1.0)
    cfg = hf.RunConfig(final_time=0.05)
    seen = []

    def hook(block):
        k = len(block.states) - 1
        seen.extend(range(block.start, block.start + k))
        assert block.update.g_value.shape == (k, mesh.n_interfaces, 1)
        assert np.array_equal(block.update.left,
                              block.states[:-1][:, mesh.iface_left])
        return None

    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave_u0, cfg,
                  [hook])
    assert seen == list(range(traj.n_steps))


@pytest.mark.parametrize("steps", [1, 5, None])
def test_march_of_states_only_gives_the_same_states(burgers_sys,
                                                    burgers_rusanov, steps):
    # blocks of one step, of several steps with a shorter last one, and of
    # the mesh's K: the same states and times, and no update
    mesh = hf.build_uniform_1d(64, 1.0)
    fld = hf.project_initial(mesh, burgers_sys, burgers_wave_u0)
    args = (mesh, burgers_sys, burgers_rusanov, fld, 1e-3, 23, True, steps)
    full = [(b.start, b.times, b.states.copy())
            for b in hf.march_blocks(*args)]
    only = []
    for b in hf.march_blocks(*args, _states_only=True):
        assert b.update is None
        only.append((b.start, b.times, b.states.copy()))
    for (s0, t0, x0), (s1, t1, x1) in zip(full, only, strict=True):
        assert s0 == s1 and t0 == t1 and np.array_equal(x0, x1)


def test_flux_accumulation_order_insensitive(burgers_sys, burgers_rusanov):
    # permuting interface evaluation order must not move results beyond 1e-13
    mesh = hf.build_uniform_1d(32, 1.0)
    fld = hf.project_initial(mesh, burgers_sys, burgers_wave_u0)
    records = hf.interface_flux_records(mesh, burgers_sys, burgers_rusanov, fld)
    dt = 1e-3
    base = hf.step(mesh, burgers_sys, burgers_rusanov, fld, dt)
    perm = np.random.default_rng(0).permutation(mesh.n_interfaces)
    new = fld.values.copy()
    flux = mesh.iface_areas[perm, None] * records.g_value[perm]
    np.subtract.at(new, mesh.iface_left[perm],
                   (dt / mesh.cell_volumes[mesh.iface_left[perm]])[:, None] * flux)
    np.add.at(new, mesh.iface_right[perm],
              (dt / mesh.cell_volumes[mesh.iface_right[perm]])[:, None] * flux)
    assert np.abs(new - base.values).max() <= 1e-13


_ADV2D = hf.make_advection(2, [1.0, -0.5], u_range=(-1.0, 1.0))
_ADV2D_RUSANOV = hf.make_rusanov(_ADV2D)


@settings(max_examples=20, deadline=None, database=None)
@given(nx=st.integers(3, 8), ny=st.integers(3, 8),
       jitter=st.floats(0.0, 0.24), seed=st.integers(0, 2 ** 31 - 1),
       data_seed=st.integers(0, 2 ** 31 - 1))
def test_march_property(nx, ny, jitter, seed, data_seed):
    # march conserves mass, repeats bit for bit, and is the loop of run
    # and step
    mesh = hf.build_perturbed_quad_2d(nx, ny, 1.0, 1.0, jitter, seed)
    sysm, sch = _ADV2D, _ADV2D_RUSANOV
    rng = np.random.default_rng(data_seed)
    amp, phase = rng.uniform(0.1, 0.9), rng.uniform(0.0, 2 * np.pi)
    kx, ky = rng.integers(1, 4, size=2)

    def u0(x):
        x = np.asarray(x, dtype=float)
        return (amp * np.sin(2 * np.pi * (kx * x[..., 0] + ky * x[..., 1])
                             + phase))[..., None]

    cfg = hf.RunConfig(final_time=0.05)
    fld = hf.project_initial(mesh, sysm, u0)
    dt = hf.compute_dt(mesh, sysm, sch, cfg)
    traj = hf.run(mesh, sysm, sch, u0, cfg)
    marches = [list(hf.march(mesh, sysm, sch, fld, dt, traj.n_steps, True))
               for _ in range(2)]
    assert [n for n, *_ in marches[0]] == list(range(traj.n_steps))
    assert len(traj.snapshots) == traj.n_steps + 1
    mass0 = (mesh.cell_volumes[:, None] * fld.values).sum(axis=0)
    for (n, fa, fb, update), (_, ga, gb, _), (t, snap) in zip(
            marches[0], marches[1], traj.snapshots[1:]):
        assert np.array_equal(fb.values, gb.values)
        assert np.array_equal(fb.values, snap.values) and fb.time == t
        assert fb.time == (n + 1) * dt
        mass = (mesh.cell_volumes[:, None] * fb.values).sum(axis=0)
        assert np.abs(mass - mass0).max() <= 1e-12 * max(1.0, np.abs(mass0).max())
        assert np.array_equal(update.g_value, hf.interface_flux_records(
            mesh, sysm, sch, fa).g_value)
    first = hf.step(mesh, sysm, sch, fld, dt)
    assert np.array_equal(first.values, marches[0][0][2].values)
    assert first.time == marches[0][0][2].time

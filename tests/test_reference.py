import heapq
import math
import os

import numpy as np
import pytest

import hypflux as hf
from hypflux import cli, reference, solver
from hypflux.errors import AdmissibilityError, ConstructionError, HorizonError

from conftest import count_kernel_parts, same_bits

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def sine1(x):
    x = np.asarray(x, dtype=float)
    return np.sin(2 * np.pi * x[..., 0])[..., None]


def burgers_wave(x):
    x = np.asarray(x, dtype=float)
    return (0.5 + 0.25 * np.sin(2 * np.pi * x[..., 0]))[..., None]


def burgers_wave_prime(y):
    return 0.25 * 2 * np.pi * np.cos(2 * np.pi * np.asarray(y, dtype=float))


def vec2(x):
    x = np.asarray(x, dtype=float)
    s = np.sin(2 * np.pi * x[..., 0])
    c = np.cos(2 * np.pi * x[..., 0])
    return np.stack([0.4 * s, 0.3 * c], axis=-1)


def test_advection_initial_time():
    ref = hf.exact_advection([1.0], sine1, (1.0,))
    x = np.linspace(0, 1, 33, endpoint=False)[:, None]
    assert np.allclose(ref.eval(x, 0.0), sine1(x), atol=0)
    assert ref.valid_until == math.inf


def test_advection_hand_value():
    ref = hf.exact_advection([1.0], sine1, (1.0,))
    v = ref.eval(np.array([[0.25]]), 0.25)
    assert v[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_advection_conserves_integral():
    ref = hf.exact_advection([0.37], sine1, (1.0,))
    x = (np.arange(4096) + 0.5)[:, None] / 4096.0
    m0 = ref.eval(x, 0.0).mean()
    m1 = ref.eval(x, 0.53).mean()
    assert m1 == pytest.approx(m0, abs=1e-12)


def test_friedrichs_zero_matrix_is_identity():
    ref = hf.exact_friedrichs(np.zeros((2, 2)), vec2, (1.0,))
    x = np.linspace(0, 1, 17)[:, None]
    assert np.allclose(ref.eval(x, 0.7), vec2(x), atol=1e-14)


def test_friedrichs_diagonal_transports_components():
    A = np.diag([1.0, -1.0])
    ref = hf.exact_friedrichs(A, vec2, (1.0,))
    x = np.linspace(0, 1, 33)[:, None]
    t = 0.3
    got = ref.eval(x, t)
    want0 = vec2(np.mod(x - t, 1.0))[..., 0]
    want1 = vec2(np.mod(x + t, 1.0))[..., 1]
    assert np.allclose(got[..., 0], want0, atol=1e-13)
    assert np.allclose(got[..., 1], want1, atol=1e-13)


def test_friedrichs_scalar_reduces_to_advection():
    c = 0.8
    ref_f = hf.exact_friedrichs(np.array([[c]]), sine1, (1.0,))
    ref_a = hf.exact_advection([c], sine1, (1.0,))
    x = np.linspace(0, 1, 41)[:, None]
    assert np.allclose(ref_f.eval(x, 0.45), ref_a.eval(x, 0.45), atol=1e-13)


def test_friedrichs_rejects_nonsymmetric():
    with pytest.raises(ConstructionError):
        hf.exact_friedrichs(np.array([[0.0, 1.0], [0.0, 0.0]]), vec2, (1.0,))


def test_friedrichs_conserves_integral():
    ref = hf.exact_friedrichs(np.array([[0.0, 1.0], [1.0, 0.0]]), vec2, (1.0,))
    x = (np.arange(4096) + 0.5)[:, None] / 4096.0
    m0 = ref.eval(x, 0.0).mean(axis=0)
    m1 = ref.eval(x, 0.41).mean(axis=0)
    assert np.abs(m1 - m0).max() <= 1e-12


def test_burgers_horizon_value():
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    assert ref.valid_until == pytest.approx(0.9 / (0.5 * math.pi), rel=1e-6)


def test_burgers_initial_time():
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    x = np.linspace(0, 1, 29)[:, None]
    assert np.allclose(ref.eval(x, 0.0), burgers_wave(x), atol=1e-13)


def test_burgers_constant_datum():
    ref = hf.exact_burgers(
        lambda x: np.full(np.asarray(x).shape[:-1] + (1,), 0.4),
        lambda y: np.zeros_like(np.asarray(y, dtype=float)), (1.0,))
    assert ref.valid_until == math.inf
    assert np.allclose(ref.eval(np.array([[0.3]]), 5.0), 0.4, atol=1e-14)


def test_burgers_implicit_equation_residual():
    # u(x,t) must satisfy u = u0(x - u t)
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (500, 1))
    for t in (0.05, 0.2, 0.5):
        u = ref.eval(x, t)
        back = burgers_wave(np.mod(x - u * t, 1.0))
        assert np.abs(u - back).max() <= 1e-12


def test_burgers_rejects_past_horizon():
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    with pytest.raises(HorizonError):
        ref.eval(np.array([[0.1]]), 0.6)
    # no time without an anchor, nor a constant datum's infinite one
    constant = hf.exact_burgers(
        lambda x: np.full(np.asarray(x).shape[:-1] + (1,), 0.4),
        lambda y: np.zeros_like(np.asarray(y, dtype=float)), (1.0,))
    for r, t in ((ref, np.nan), (constant, np.nan), (constant, np.inf)):
        with pytest.raises(HorizonError):
            r.bind(np.array([[0.1]]))([0.0, t])


def _pde_residual(ref, flux_of, x, t, step=1e-5):
    ut = (ref.eval(x, t + step) - ref.eval(x, t - step)) / (2 * step)
    e = np.zeros(x.shape[-1])
    e[0] = step
    fx = (flux_of(ref.eval(x + e, t)) - flux_of(ref.eval(x - e, t))) / (2 * step)
    return np.abs(ut + fx).max()


def test_exact_references_satisfy_pde():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, (200, 1))

    ref_a = hf.exact_advection([0.7], sine1, (1.0,))
    assert _pde_residual(ref_a, lambda u: 0.7 * u, x, 0.33) <= 1e-4

    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    ref_f = hf.exact_friedrichs(A, vec2, (1.0,))
    assert _pde_residual(ref_f, lambda u: u @ A.T, x, 0.21) <= 1e-4

    ref_b = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    assert _pde_residual(ref_b, lambda u: 0.5 * u * u, x, 0.2) <= 1e-4


def test_fine_grid_guard_and_degenerate_factor(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(16, 1.0)
    cfg = hf.RunConfig(final_time=0.05)
    with pytest.raises(ConstructionError):
        hf.fine_grid_reference(mesh, burgers_sys, burgers_rusanov,
                               burgers_wave, cfg, refinement_factor=4)
    # every fine level is the fine run's state, read forward and then
    # backward, where each query restarts the cursor from the projection
    ref = hf.fine_grid_reference(mesh, burgers_sys, burgers_rusanov,
                                 burgers_wave, cfg)
    fine = hf.build_uniform_1d(16 * 8, 1.0)
    traj = hf.run(fine, burgers_sys, burgers_rusanov, burgers_wave, cfg)
    assert len(traj.snapshots) == traj.n_steps + 1 > 2
    for t, fld in traj.snapshots + traj.snapshots[::-1]:
        got = ref.eval(fine.cell_centroids, min(t, cfg.final_time))
        assert np.array_equal(got, fld.values)


def test_fine_grid_reference_restarts_after_a_failed_march(monkeypatch):
    # twenty times the CFL step drives the fine run out of Omega; a query
    # after the failure raises again instead of finding the march spent
    sysm = hf.make_burgers(1, u_range=(0.2, 0.8))
    sch = hf.make_rusanov(sysm)
    compute_dt = solver.compute_dt
    monkeypatch.setattr(hf.solver, "compute_dt",
                        lambda *args: 20.0 * compute_dt(*args))
    cfg = hf.RunConfig(final_time=2.0)
    ref = hf.fine_grid_reference(hf.build_uniform_1d(16, 1.0), sysm, sch,
                                 burgers_wave, cfg)
    for _ in range(2):
        with pytest.raises(AdmissibilityError, match="step "):
            ref.eval(np.array([[0.25]]), 2.0)
    fine = hf.build_uniform_1d(128, 1.0)
    assert np.array_equal(ref.eval(fine.cell_centroids, 0.0),
                          hf.project_initial(fine, sysm, burgers_wave).values)


def test_fine_grid_reference_runs_only_the_update_part(burgers_sys,
                                                       burgers_rusanov,
                                                       monkeypatch):
    # the fine march needs G only: a query runs the update part once per
    # fine step and the records part never, and its blocks carry no
    # update (the march copies no rows)
    calls = []
    updates = []
    march = reference._solver.march_blocks

    def recorded(*args, **kwargs):
        for block in march(*args, **kwargs):
            updates.append(block.update)
            yield block

    monkeypatch.setattr(reference._solver, "march_blocks", recorded)

    sch = count_kernel_parts(burgers_rusanov, calls, "update", "records")
    cfg = hf.RunConfig(final_time=0.05)
    ref = hf.fine_grid_reference(hf.build_uniform_1d(16, 1.0), burgers_sys,
                                 sch, burgers_wave, cfg)
    ref.eval(np.array([[0.25]]), cfg.final_time)
    assert calls == ["update"] * round(cfg.final_time / ref.params["fine_dt"])
    assert len(calls) > 1
    assert updates and all(up is None for up in updates)


def test_fine_grid_reference_on_non_square_mesh():
    # a 12x6 mesh is refined to 96x48 cells, indexed with its own sides
    sysm = hf.make_advection(2, [1.0, 0.5], u_range=(-0.6, 0.6))
    sch = hf.make_rusanov(sysm)

    def u0(x):
        x = np.asarray(x, dtype=float)
        return (0.5 * np.sin(2 * np.pi * x[..., 0])
                * np.cos(4 * np.pi * x[..., 1]))[..., None]

    cfg = hf.RunConfig(final_time=0.01)
    mesh = hf.build_perturbed_quad_2d(12, 6, 1.0, 0.5, 0.1, seed=4)
    ref = hf.fine_grid_reference(mesh, sysm, sch, u0, cfg)
    assert ref.params["fine_cells"] == 96 * 48
    fine = hf.build_uniform_quad_2d(96, 48, 1.0, 0.5)
    traj = hf.run(fine, sysm, sch, u0, cfg)
    for t, fld in (traj.snapshots[0], traj.snapshots[-1]):
        assert np.array_equal(ref.eval(fine.cell_centroids, t), fld.values)
    # a 2D mesh from the constructor has no grid shape to refine
    ungridded = hf.Mesh(2, mesh.domain, mesh.cell_volumes, mesh.cell_centroids,
                        mesh.iface_left, mesh.iface_right, mesh.iface_areas,
                        mesh.iface_normals, "ungridded",
                        cell_vertices=mesh.cell_vertices)
    with pytest.raises(ConstructionError):
        hf.fine_grid_reference(ungridded, sysm, sch, u0, cfg)


def test_shallow_water_self_convergence(shallow_water_sys,
                                        shallow_water_rusanov):
    # no closed form: a factor-8 fine-grid run serves as the reference and
    # the error against it must shrink under refinement
    sysm, sch = shallow_water_sys, shallow_water_rusanov

    def wave(x):
        x = np.asarray(x, dtype=float)
        s = np.sin(2 * np.pi * x[..., 0])
        return np.stack([1.2 + 0.1 * s, 0.3 + 0.05 * s], axis=-1)

    T = 0.02
    cfg = hf.RunConfig(final_time=T)
    fine = hf.fine_grid_reference(hf.build_uniform_1d(64, 1.0), sysm, sch,
                                  wave, cfg, refinement_factor=8)

    meshes = [hf.build_uniform_1d(n, 1.0) for n in (16, 32, 64)]
    folds = [hf.ErrorFold(hf.DiagnosticsLedger(), mesh, sysm, sch, wave, 10.0,
                          T, sysm.lf, fine) for mesh in meshes]

    def steps(mesh, fold):
        # (t^n, fold, block) for every step of one coarse run, in blocks
        # of one step: a fold reads the reference at the levels of a
        # block, and blocks of several steps would read them out of order
        # across the runs and restart the shared fine run
        dt = hf.compute_dt(mesh, sysm, sch, cfg)
        field = hf.project_initial(mesh, sysm, wave)
        for block in hf.march_blocks(mesh, sysm, sch, field, dt,
                                     round(T / dt), steps=1):
            yield block.times[0], fold, block

    # the coarse runs read the shared reference in time order, so its fine
    # run only moves forward and is solved once
    for _, fold, block in heapq.merge(*map(steps, meshes, folds),
                                      key=lambda item: item[0]):
        fold(block)
    errs = [fold.cone for fold in folds]
    assert errs[0] > errs[1] > errs[2]


def test_fine_grid_cross_validates_against_exact(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(16, 1.0)
    cfg = hf.RunConfig(final_time=0.05)
    fine = hf.fine_grid_reference(mesh, burgers_sys, burgers_rusanov,
                                  burgers_wave, cfg, refinement_factor=8)
    assert fine.params["numerical"] is True
    exact = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    xs = (np.arange(2048) + 0.5)[:, None] / 2048.0
    t = 0.05
    err_fine = np.abs(fine.eval(xs, t) - exact.eval(xs, t)).mean()
    # the coarse run's own error at the same time, for scale
    traj = hf.run(mesh, burgers_sys, burgers_rusanov, burgers_wave, cfg)
    coarse_cells = np.minimum((xs[:, 0] * 16).astype(int), 15)
    err_coarse = np.abs(traj.final_field.values[coarse_cells]
                        - exact.eval(xs, t)).mean()
    assert err_fine <= 0.5 * err_coarse


def test_exact_burgers_reuses_the_converged_u0():
    # u0 runs once for u0(x) and once per residual of each of the two
    # solves (the level's two anchors together, from t = 0, then the
    # level), the slope once per Newton step; the answer comes from the
    # last residual's u0(y) and step, not from one more call
    calls, slopes = [], []

    def counted(x):
        calls.append(1)
        return burgers_wave(x)

    def counted_prime(y):
        slopes.append(1)
        return burgers_wave_prime(y)

    ref = hf.exact_burgers(counted, counted_prime, (1.0,))
    x = np.linspace(0.0, 1.0, 33)[:, None]
    for t, steps in ((0.0, 2), (0.1, 4), (0.4, 8)):
        calls.clear()
        slopes.clear()
        got = ref.eval(x, t)
        assert len(calls) == 3 + len(slopes) and len(slopes) == steps
        # the foot point y solves y + u0(y) t = x, and the value is u0(y)
        y = x[:, 0] - got[:, 0] * t
        np.testing.assert_allclose(got, burgers_wave(y[:, None]), atol=1e-12)


@pytest.mark.parametrize("lengths", [(1.0,), (0.7, 1.3), (3.0, 3.0)])
def test_wrap_matches_np_mod_bitwise(lengths):
    L = np.asarray(lengths)
    d = L.size
    short = L.min()
    # within one period of every axis: the np.where-free fast path,
    # including -0.0, +0.0, the smallest subnormals, a negative tiny
    # enough that y + L rounds to L, and 1 ulp inside +-min(L)
    inside = np.array([-0.0, 0.0, 5e-324, -5e-324, -1e-17, 1e-17, 0.5 * short,
                       -0.5 * short, np.nextafter(short, 0.0),
                       np.nextafter(-short, 0.0), -0.25 * short])
    assert np.abs(inside).max() < short
    # at and beyond a period, 1 ulp either side of +-L, inf and NaN: np.mod
    outside = np.concatenate([inside, np.array(
        [L.max(), -L.max(), np.nextafter(L.max(), np.inf),
         np.nextafter(-L.max(), -np.inf), 2.5 * L.max(), -7.25 * L.max(),
         1e300, -1e300, np.inf, -np.inf, np.nan])])
    rng = np.random.default_rng(d)
    for vals in (inside, outside):
        for shape in ((vals.size, 1, d), (vals.size, d)):
            y = rng.permutation(np.resize(vals, (vals.size * d,)))
            y = y.reshape(shape)
            with np.errstate(invalid="ignore"):
                want = np.mod(y, L)
                got = reference._wrap(y, lengths)
            assert same_bits(got, want)
    # non-contiguous input, as a slice of a larger array
    y = rng.uniform(-short, short, (40, 3, d))[:, ::2]
    assert same_bits(reference._wrap(y, lengths), np.mod(y, L))


def test_exact_advection_shift_matches_broadcast_bitwise():
    # the per-axis shift x - fmod(c t, L) gives the bits of the broadcast
    # one; within one period fmod(c t, L) is c t itself
    c = np.array([1.0, 0.5])
    u0 = lambda x: np.asarray(x)[..., :1] * 1.0
    lengths = np.array([1.0, 0.8])
    ref = hf.exact_advection(c, u0, tuple(lengths))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (50, 4, 2)) * lengths
    for t in (0.0, 0.013, 0.37, 2.9, -1.3):
        want = np.mod(x - np.fmod(c * t, lengths), lengths)[..., :1]
        assert same_bits(ref.eval(x, t), want)
        if abs(t) < 0.8:
            assert same_bits(want, np.mod(x - c * t, lengths)[..., :1])


# ---------------------------------------------------------------------------
# many time levels in one evaluation against one eval per level
# ---------------------------------------------------------------------------

def test_exact_burgers_levels_match_per_level_eval_bitwise():
    # each level, and each anchor, stops at its own iteration: the evals
    # take different numbers of Newton steps
    u0_sizes, slope_sizes = [], []

    def counted(x):
        u0_sizes.append(np.size(x))
        return burgers_wave(x)

    def counted_prime(y):
        slope_sizes.append(np.size(y))
        return burgers_wave_prime(y)

    ref = hf.exact_burgers(counted, counted_prime, (1.0,))
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, (257, 1))
    ts = (0.0, 0.05, 0.3, 0.55)
    steps, want = [], []
    for t in ts:
        slope_sizes.clear()
        want.append(ref.eval(x, t))
        steps.append(len(slope_sizes))
    assert steps == [2, 4, 7, 19]
    u0_sizes.clear()
    slope_sizes.clear()
    got = ref.levels(x, ts)
    assert same_bits(got, np.stack(want))
    # u0(x) once; then the eight anchors around the levels (the windows
    # 0, 3, 19 and 35 of W = 1/64 and the next ones), solved together
    # from t = 0, and the four levels from their anchors.  In each of the
    # two solves u0 runs once per residual and the slope once per Newton
    # step, on the points of the rows not yet done: a row's last residual
    # takes no slope
    n = len(x)
    assert u0_sizes[:2] == [n, 8 * n] and 4 * n in u0_sizes
    assert sum(u0_sizes) == n + sum(slope_sizes) + (8 + 4) * n
    assert (len(u0_sizes), len(slope_sizes)) == (22, 19)
    assert same_bits(ref.eval_levels(x, ts), got)
    with pytest.raises(HorizonError):
        ref.levels(x, (0.1, 0.6))


def test_exact_advection_2d_levels_match_per_level_eval_bitwise():
    c = np.array([1.0, 0.5])

    def wave(x):
        x = np.asarray(x, dtype=float)
        return (0.3 * np.sin(2 * np.pi * (x[..., 0] + 2 * x[..., 1])))[..., None]

    ref = hf.exact_advection(c, wave, (1.0, 1.0))
    mesh = hf.build_perturbed_quad_2d(24, 24, 1.0, 1.0, 0.15, 3)
    gauss, _ = solver.cell_quadrature(mesh, "gauss3")
    # within one period of the box, and past it (np.mod for every level)
    for ts in ((0.0, 0.013, 0.37), (0.0, 0.2, 2.9), (0.05,)):
        for x in (mesh.cell_centroids, gauss):
            want = np.stack([ref.eval(x, t) for t in ts])
            assert same_bits(ref.levels(x, ts), want)
            assert same_bits(want, np.stack([
                wave(np.mod(x - np.fmod(c * t, 1.0), 1.0)) for t in ts]))


def test_exact_friedrichs_levels_match_per_level_eval_bitwise():
    A = np.array([[0.3, 1.0], [1.0, -0.2]])
    ref = hf.exact_friedrichs(A, vec2, (1.0,))
    x = np.random.default_rng(2).uniform(0.0, 1.0, (129, 3, 1))
    for ts in ((0.0, 0.3, 0.71), (0.0, 1.9)):
        want = np.stack([ref.eval(x, t) for t in ts])
        assert same_bits(ref.levels(x, ts), want)


def test_levels_without_a_batched_form_read_eval_in_order():
    seen = []
    ref = hf.ReferenceSolution(
        kind="fine-grid", valid_until=1.0,
        eval=lambda x, t: seen.append(t) or np.full(x.shape[:-1] + (1,), t))
    x = np.zeros((4, 1))
    got = ref.eval_levels(x, (0.0, 0.25, 0.5))
    assert seen == [0.0, 0.25, 0.5] and ref.levels is None
    assert got.shape == (3, 4, 1) and (got[:, 0, 0] == [0.0, 0.25, 0.5]).all()


# ---------------------------------------------------------------------------
# references bound to fixed points: the sine datum's rotation
# ---------------------------------------------------------------------------

def _catalog(problem, domain, initial):
    size = "nx" if problem == "advection2d" else "n_cells"
    cfg = cli.parse_config_text(f"[run]\nproblem = {problem}\n{size} = 8\n"
                                "t = 0.1\n[initial]\n" + initial)
    return cli.make_initial(cli.resolve_config(cfg), domain)[0]


_SHIPPED_SINE = "kind = sine\nmean = 0.1\namplitude = 0.5\n"


@pytest.mark.parametrize("quadrature", ["midpoint", "gauss3"])
def test_sine_rotation_matches_the_wrapped_levels_2d(quadrature):
    # the shipped datum (frequency 1) on jittered 2D points, bound once:
    # within 4 ulp of 1 of the wrapped levels, also where |c t| > L.  The
    # two differ only in rounding: the levels round x - c t, its wrap and
    # the phase k y / L; the rotation the phases k x / L and k r / L of
    # the exact remainder r = fmod(c t, L)
    u0 = _catalog("advection2d", (1.0, 1.0), _SHIPPED_SINE)
    assert u0.translation is not None
    mesh = hf.build_perturbed_quad_2d(40, 40, 1.0, 1.0, 0.15, 3)
    pts = solver.cell_quadrature(mesh, quadrature)[0]
    ref = hf.exact_advection([1.0, 0.5], u0, (1.0, 1.0))
    ts = [0.0, 0.013, 0.37, 1.3]
    got, want = ref.bind(pts)(ts), ref.levels(pts, ts)
    assert got.shape == want.shape == (len(ts),) + pts.shape[:-1] + (1,)
    assert np.abs(got - want).max() <= 4 * np.spacing(1.0)
    # a second frequency on a box that is not square: each axis uses its
    # own length; the phases reach k / L_y, so 4 ulp of it, in amplitudes
    u0 = _catalog("advection2d", (1.0, 0.75), _SHIPPED_SINE + "frequency = 2\n")
    mesh = hf.build_perturbed_quad_2d(40, 30, 1.0, 0.75, 0.15, 3)
    pts = solver.cell_quadrature(mesh, quadrature)[0]
    ref = hf.exact_advection([1.0, -0.5], u0, (1.0, 0.75))
    diff = ref.bind(pts)(ts) - ref.levels(pts, ts)
    assert np.abs(diff).max() <= 4 * np.spacing(4 * np.pi / 0.75) * 0.5


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60,
                    reason="needs an extended-precision long double")
def test_sine_rotation_is_within_three_ulp_of_the_exact_translate():
    # against u0(x - c t) in extended precision, with the 2 pi of a datum
    # periodic on the box: the rotation stays within 3 ulp of 1 at any
    # shift
    u0 = _catalog("advection2d", (1.0, 1.0), _SHIPPED_SINE)
    mesh = hf.build_perturbed_quad_2d(40, 40, 1.0, 1.0, 0.15, 3)
    pts = solver.cell_quadrature(mesh, "gauss3")[0]
    c = np.array([1.0, 0.5])
    ref = hf.exact_advection(c, u0, (1.0, 1.0))
    ts = [0.013, 1.3, -1.3, 12.345]
    got = ref.bind(pts)(ts)[..., 0]
    ld = np.longdouble
    k, x = ld("6.28318530717958647692528676655900577"), pts.astype(ld)
    for row, t in zip(got, ts):
        y = np.mod(x - c.astype(ld) * ld(t), ld(1.0))
        exact = ld(0.1) + ld(0.5) * (np.sin(k * y[..., 0])
                                     * np.sin(k * y[..., 1]))
        assert np.abs(row - exact).max() <= 3 * np.spacing(1.0)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60,
                    reason="needs an extended-precision long double")
def test_wrapped_levels_are_within_three_ulp_of_the_exact_translate():
    # the levels reduce the shift by whole periods before they add it to
    # x, so their error does not grow with |c t|: rounding x - c t first
    # lost about 13 ulp at t = 12.345
    ld = np.longdouble
    k = ld("6.28318530717958647692528676655900577")
    ts = [-1.3, 12.345]
    u0 = _catalog("advection2d", (1.0, 1.0), _SHIPPED_SINE)
    mesh = hf.build_perturbed_quad_2d(40, 40, 1.0, 1.0, 0.15, 3)
    pts = solver.cell_quadrature(mesh, "gauss3")[0]
    c = np.array([1.0, 0.5])
    got = hf.exact_advection(c, u0, (1.0, 1.0)).levels(pts, ts)[..., 0]
    for row, t in zip(got, ts):
        y = np.mod(pts.astype(ld) - c.astype(ld) * ld(t), ld(1.0))
        exact = ld(0.1) + ld(0.5) * (np.sin(k * y[..., 0])
                                     * np.sin(k * y[..., 1]))
        assert np.abs(row - exact).max() <= 3 * np.spacing(1.0)
    # Friedrichs: each characteristic component at its own shift
    u0 = _catalog("friedrichs1d", (1.0,),
                  "kind = sine\nmeans = 0.0, 0.1\namplitudes = 0.4, 0.3\n")
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    ref = hf.exact_friedrichs(A, u0, (1.0,))
    lam, R = np.linalg.eigh(A)
    pts = solver.cell_quadrature(hf.build_uniform_1d(64, 1.0), "gauss3")[0]
    got = ref.levels(pts, ts)
    for row, t in zip(got, ts):
        w = np.stack([
            (np.stack([ld(0.0), ld(0.1)])
             + np.stack([ld(0.4), ld(0.3)]) * np.sin(
                 k * (pts.astype(ld) - ld(lam[i]) * ld(t)))) @ R.astype(ld)
            for i in range(2)])
        exact = np.stack([w[i][..., i] for i in range(2)], axis=-1) \
            @ R.T.astype(ld)
        assert np.abs(row - exact).max() <= 3 * np.spacing(1.0)


def test_sine_rotation_matches_the_wrapped_levels_friedrichs():
    # each characteristic component translates with its own speed (+-1):
    # the rotation at shifts of either sign and beyond one period
    u0 = _catalog("friedrichs1d", (1.0,),
                  "kind = sine\nmeans = 0.0, 0.1\namplitudes = 0.4, 0.3\n")
    ref = hf.exact_friedrichs(np.array([[0.0, 1.0], [1.0, 0.0]]), u0, (1.0,))
    x = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 700))
    for pts in (x[:, None, None], solver.cell_quadrature(
            hf.build_uniform_1d(64, 1.0), "gauss3")[0]):
        ts = [0.0, 0.2, 0.9, 1.3]
        got, want = ref.bind(pts)(ts), ref.levels(pts, ts)
        assert got.shape == want.shape == (4,) + pts.shape[:-1] + (2,)
        assert np.abs(got - want).max() <= 4 * np.spacing(1.0)


@pytest.mark.parametrize("initial", [
    _SHIPPED_SINE + "frequency = 1.5\n",
    "kind = gaussian-bump\nmean = 0.1\namplitude = 0.5\n",
    "kind = constant\nvalue = 0.3\n"])
def test_data_without_a_translation_bind_to_the_wrapped_levels(initial):
    # a non-integer frequency is not periodic on the box: like the other
    # catalog data it offers no translation, and a bound reference is its
    # levels at the bound points, bit for bit
    u0 = _catalog("advection2d", (1.0, 1.0), initial)
    assert getattr(u0, "translation", None) is None
    mesh = hf.build_perturbed_quad_2d(24, 24, 1.0, 1.0, 0.15, 2)
    pts = solver.cell_quadrature(mesh, "midpoint")[0]
    ref = hf.exact_advection([1.0, 0.5], u0, (1.0, 1.0))
    assert ref.bind_points is None
    ts = [0.0, 0.37, 1.3]
    assert same_bits(ref.bind(pts)(ts), ref.levels(pts, ts))


def test_burgers_and_fine_grid_references_bind_to_their_levels(
        burgers_sys, burgers_rusanov):
    # Burgers binds to its points (u0(x) once, then warm starts); a fresh
    # binding gives the bits of eval_levels.  The fine grid has no
    # binding: bound, it evaluates eval_levels at the points on every call
    x = np.linspace(0.0, 1.0, 50, endpoint=False)[:, None, None]
    ts = [0.0, 0.05, 0.1]
    burgers = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    fine = hf.fine_grid_reference(hf.build_uniform_1d(16, 1.0), burgers_sys,
                                  burgers_rusanov, burgers_wave,
                                  hf.RunConfig(final_time=0.1))
    assert burgers.bind_points is not None and fine.bind_points is None
    for ref in (burgers, fine):
        assert same_bits(ref.bind(x)(ts), ref.eval_levels(x, ts))


def _burgers_roots(x, t, guess):
    """u0 at the root of y + u0(y) t = x for the catalog sine of
    `burgers_wave`, by Newton in long double from the values `guess`."""
    ld = np.longdouble
    k = ld("6.28318530717958647692528676655900577")
    x, t = x.astype(ld), ld(t)
    y = x - guess.astype(ld) * t
    for _ in range(8):
        g = y + (ld(0.5) + ld(0.25) * np.sin(k * y)) * t - x
        y = y - g / (1 + ld(0.25) * k * np.cos(k * y) * t)
    return ld(0.5) + ld(0.25) * np.sin(k * y)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 60,
                    reason="needs an extended-precision long double")
def test_bound_burgers_is_within_four_ulp_of_the_long_double_root():
    # every level of the shipped config, queried as its run's error fold
    # queries them (the blocks of t^n, each warm started from the last
    # level of the query before, then the final time), and in one cold
    # query
    with open(os.path.join(CONFIG_DIR, "burgers1d.ini")) as fh:
        setup = cli.build_problem(cli.parse_config_text(fh.read()))
    mesh, config = setup.mesh, setup.run_config
    dt = solver.compute_dt(mesh, setup.system, setup.scheme, config)
    n_steps = int(round(config.final_time / dt))
    times = [n * dt for n in range(n_steps)]
    k = solver.steps_per_block(mesh)
    queries = [times[s:s + k] for s in range(0, n_steps, k)]
    queries.append([config.final_time])
    assert n_steps == 180 and len(queries) == 4
    pts = solver.cell_quadrature(mesh, config.quadrature)[0]
    bound = setup.ref.bind(pts)
    levels = [(ts, bound(ts)) for ts in queries]
    levels.append((times, setup.ref.levels(pts, times)))
    for ts, got in levels:
        for t, row in zip(ts, got[..., 0]):
            err = np.abs(row - _burgers_roots(pts[..., 0], t, row)).max()
            assert err <= 4 * np.spacing(1.0), t


def test_bound_burgers_levels_depend_on_their_time_alone():
    # every level starts from the anchors of its time: after any queries,
    # forwards or backwards, in blocks of any size, a bound reference
    # gives the bits of a fresh binding, and levels are a fresh binding
    ref = hf.exact_burgers(burgers_wave, burgers_wave_prime, (1.0,))
    x = np.random.default_rng(8).uniform(0.0, 1.0, (300, 3, 1))
    bound = ref.bind(x)
    bound([0.0, 0.01, 0.02])
    bound([0.03, 0.04])
    assert same_bits(bound([0.3]), ref.levels(x, [0.3]))
    assert same_bits(bound([0.01, 0.04]), ref.levels(x, [0.01, 0.04]))
    ts = [0.0, 0.013, 0.02, 0.05, 0.3]
    want = ref.bind(x)(ts)
    assert same_bits(np.concatenate([bound(ts[3:]), bound(ts[:3])]),
                     want[[3, 4, 0, 1, 2]])
    assert same_bits(np.concatenate([bound([t]) for t in ts]), want)

import heapq
import math

import numpy as np
import pytest

import hypflux as hf
from hypflux import reference
from hypflux.errors import AdmissibilityError, ConstructionError, HorizonError


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
    compute_dt = hf.solver.compute_dt
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
    # a mesh loaded from JSON has no grid shape to refine
    loaded = hf.mesh_from_json(hf.mesh_to_json(mesh))
    with pytest.raises(ConstructionError):
        hf.fine_grid_reference(loaded, sysm, sch, u0, cfg)


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
        # (t^n, fold, hook arguments) for every step of one coarse run
        dt = hf.compute_dt(mesh, sysm, sch, cfg)
        field = hf.project_initial(mesh, sysm, wave)
        for k, fa, fb, records in hf.march(mesh, sysm, sch, field, dt,
                                           round(T / dt)):
            yield fa.time, fold, (k, fa, fb, records, dt)

    # the coarse runs read the shared reference in time order, so its fine
    # run only moves forward and is solved once
    for _, fold, args in heapq.merge(*map(steps, meshes, folds),
                                     key=lambda item: item[0]):
        fold(*args)
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
    # u0 runs once for the first guess and once per residual; the answer
    # is the u0(y) of the converged residual, not one more call
    calls, slopes = [], []

    def counted(x):
        calls.append(1)
        return burgers_wave(x)

    def counted_prime(y):
        slopes.append(1)
        return burgers_wave_prime(y)

    ref = hf.exact_burgers(counted, counted_prime, (1.0,))
    x = np.linspace(0.0, 1.0, 33)[:, None]
    for t in (0.0, 0.1, 0.4):
        calls.clear()
        slopes.clear()
        got = ref.eval(x, t)
        assert len(calls) == len(slopes) + 2
        assert (len(slopes) > 0) == (t > 0.0)
        # the foot point y solves y + u0(y) t = x, and the value is u0(y)
        y = x[:, 0] - got[:, 0] * t
        np.testing.assert_allclose(got, burgers_wave(y[:, None]), atol=1e-12)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and \
        np.array_equal(got.view(np.int64), want.view(np.int64))


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
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert _same_bits(got[~nan], want[~nan])
    # non-contiguous input, as a slice of a larger array
    y = rng.uniform(-short, short, (40, 3, d))[:, ::2]
    assert _same_bits(reference._wrap(y, lengths), np.mod(y, L))


def test_exact_advection_shift_matches_broadcast_bitwise():
    # the per-axis shift x - c t gives the bits of the broadcast one
    c = np.array([1.0, 0.5])
    u0 = lambda x: np.asarray(x)[..., :1] * 1.0
    ref = hf.exact_advection(c, u0, (1.0, 0.8))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, (50, 4, 2)) * np.array([1.0, 0.8])
    for t in (0.0, 0.013, 0.37, 2.9):
        want = np.mod(x - c * t, np.array([1.0, 0.8]))[..., :1]
        assert _same_bits(ref.eval(x, t), want)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hypflux as hf
from hypflux.errors import AdmissibilityError, ConstructionError
from hypflux.systems import (axis_all, axis_sum, estimate_cz,
                             generalized_eigvalsh, validate_system)

from conftest import sample_pairs


def test_relative_entropy_friedrichs_value(friedrichs_diag_sys):
    H = hf.relative_entropy(friedrichs_diag_sys, [0.0, 1.0], [1.0, 0.0])
    assert H == pytest.approx(2.0, abs=1e-14)


def test_relative_entropy_identity(burgers_sys, shallow_water_sys):
    assert hf.relative_entropy(burgers_sys, [0.3], [0.3]) == 0.0
    u = [1.2, 0.4]
    assert hf.relative_entropy(shallow_water_sys, u, u) == 0.0


def test_relative_entropy_burgers_value(burgers_sys):
    # (v - u)^2 / 2 for the quadratic entropy
    assert hf.relative_entropy(burgers_sys, [1.0], [0.0]) == pytest.approx(0.5)


def test_relative_entropy_flux_friedrichs_symmetry(friedrichs_diag_sys):
    q = hf.relative_entropy_flux(friedrichs_diag_sys, [0.0, 1.0], [1.0, 0.0], 0)
    assert q == pytest.approx(0.0, abs=1e-14)
    # symmetric in its arguments for linear symmetric systems
    rng = np.random.default_rng(0)
    u = friedrichs_diag_sys.omega.sample(rng, 200)
    v = friedrichs_diag_sys.omega.sample(rng, 200)
    q1 = hf.relative_entropy_flux(friedrichs_diag_sys, v, u, 0)
    q2 = hf.relative_entropy_flux(friedrichs_diag_sys, u, v, 0)
    assert np.abs(q1 - q2).max() <= 1e-13


def test_relative_entropy_flux_burgers_value(burgers_sys):
    q = hf.relative_entropy_flux(burgers_sys, [1.0], [0.0], 0)
    assert q == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_relative_z_friedrichs_zero(friedrichs_sys):
    rng = np.random.default_rng(1)
    u = friedrichs_sys.omega.sample(rng, 500)
    v = friedrichs_sys.omega.sample(rng, 500)
    z = hf.relative_z(friedrichs_sys, v, u, 0)
    assert np.abs(z).max() <= 1e-14


def test_relative_z_burgers_value():
    sys = hf.make_burgers(1, u_range=(-2.5, 2.5))
    z = hf.relative_z(sys, [2.0], [0.0], 0)
    assert z == pytest.approx(np.array([2.0]), abs=1e-14)


def test_relative_entropy_rejects_inadmissible(burgers_sys):
    with pytest.raises(AdmissibilityError):
        hf.relative_entropy(burgers_sys, [3.0], [0.0])


def test_mbeta_bracket_all_systems(burgers_sys, advection_sys, friedrichs_sys,
                                   shallow_water_sys):
    for sys in (burgers_sys, advection_sys, friedrichs_sys, shallow_water_sys):
        u, v, _ = sample_pairs(sys, 10000, seed=42)
        H = hf.relative_entropy(sys, v, u)
        d2 = ((v - u) ** 2).sum(axis=-1)
        lo = 0.5 * sys.beta0 * d2
        hi = 0.5 * sys.beta1 * d2
        tol = 1e-10 * np.maximum(1.0, np.abs(H))
        assert np.all(H >= lo - tol), sys.name
        assert np.all(H <= hi + tol), sys.name


def test_finite_speed_bound_all_systems(burgers_sys, advection_sys,
                                        friedrichs_sys, shallow_water_sys):
    # |Q_a(v,u)| <= 1.01 * L_f * H(v,u)
    for sys in (burgers_sys, advection_sys, friedrichs_sys, shallow_water_sys):
        u, v, _ = sample_pairs(sys, 10000, seed=7)
        H = hf.relative_entropy(sys, v, u)
        for a in range(sys.d):
            Q = hf.relative_entropy_flux(sys, v, u, a)
            assert np.all(np.abs(Q) <= 1.01 * sys.lf * H + 1e-14), sys.name


def test_z_quadratic_bound(burgers_sys, shallow_water_sys, friedrichs_sys):
    for sys in (burgers_sys, shallow_water_sys, friedrichs_sys):
        cz = estimate_cz(sys)
        u, v, _ = sample_pairs(sys, 5000, seed=3)
        d2 = ((v - u) ** 2).sum(axis=-1)
        for a in range(sys.d):
            z = hf.relative_z(sys, v, u, a)
            zn = np.sqrt((z ** 2).sum(axis=-1))
            assert np.all(zn <= cz * d2 + 1e-12), sys.name


def test_z_bound_tight_for_burgers(burgers_sys):
    # |Z| = (v-u)^2/2 exactly, so the sampled constant must be ~1/2
    cz = estimate_cz(burgers_sys)
    assert cz == pytest.approx(0.5 * 1.01, rel=1e-5)


def test_friedrichs_specialization(friedrichs_sys):
    rng = np.random.default_rng(5)
    u = friedrichs_sys.omega.sample(rng, 2000)
    v = friedrichs_sys.omega.sample(rng, 2000)
    H1 = hf.relative_entropy(friedrichs_sys, v, u)
    H2 = hf.relative_entropy(friedrichs_sys, u, v)
    d2 = ((v - u) ** 2).sum(axis=-1)
    assert np.abs(H1 - d2).max() <= 1e-13
    assert np.abs(H2 - d2).max() <= 1e-13


def test_entropy_pair_compatibility_oracle(burgers_sys, advection_sys,
                                           friedrichs_sys, shallow_water_sys):
    # independent finite-difference re-check of the analytic derivatives
    for sys in (burgers_sys, advection_sys, friedrichs_sys, shallow_water_sys):
        validate_system(sys, samples=1000, seed=123)


def test_entropy_hessian_fd_oracle(shallow_water_sys):
    # central second differences of eta against the analytic Hessian
    sys = shallow_water_sys
    rng = np.random.default_rng(9)
    pts = sys.omega.sample(rng, 200)
    step = 1e-4
    hess = sys.entropy_hessian(pts)
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ej = np.zeros(2)
            ei[i] = step
            ej[j] = step
            fd = (sys.entropy(pts + ei + ej) - sys.entropy(pts + ei - ej)
                  - sys.entropy(pts - ei + ej) + sys.entropy(pts - ei - ej)
                  ) / (4 * step * step)
            assert np.abs(fd - hess[:, i, j]).max() < 1e-5


def test_entropy_nonnegative(burgers_sys, shallow_water_sys, friedrichs_sys):
    for sys in (burgers_sys, shallow_water_sys, friedrichs_sys):
        rng = np.random.default_rng(11)
        pts = sys.omega.sample(rng, 2000)
        assert sys.entropy(pts).min() >= -1e-12


def test_lf_advection_exact():
    sys = hf.make_advection(1, [-2.5], u_range=(0.0, 1.0))
    assert sys.lf == pytest.approx(2.5, abs=1e-12)


def test_lf_burgers_dense_grid_oracle(burgers_sys):
    # D2eta = 1 makes the quotient |u|; oracle maximizes over a dense grid
    grid = np.linspace(-1.0, 1.0, 200001)
    oracle = np.abs(grid).max()
    assert abs(burgers_sys.lf - oracle) <= 0.01


def test_lf_friedrichs_eigen_oracle():
    A = np.array([[0.3, 0.7], [0.7, -0.4]])
    sys = hf.make_friedrichs([A], radius=2.0)
    oracle = np.abs(np.linalg.eigvalsh(A)).max()
    assert sys.lf == pytest.approx(oracle, rel=1e-9)


def _pencils(sys, seed):
    """The (S, B) pencils of compute_lf and of the near-equal lambda bound."""
    u, v, _ = sample_pairs(sys, 3000, seed)
    u = np.vstack([u, sys.omega.extreme_points()])
    v = np.vstack([v, sys.omega.extreme_points()])
    B = sys.entropy_hessian(v)
    S = B @ sys.flux_jacobian(u, 0)
    c = 1.05 * float(sys.max_wave_speed(u, np.array([1.0])).max())
    M = c * np.eye(sys.m) - sys.flux_jacobian(v, 0)
    return [(0.5 * (S + np.swapaxes(S, -1, -2)), B),
            (np.swapaxes(M, -1, -2) @ B @ M, 2.0 * c * B)]


def test_generalized_eigvalsh_matches_scipy_eigh(shallow_water_sys,
                                                 friedrichs_sys):
    linalg = pytest.importorskip("scipy.linalg")
    nonsym = hf.make_friedrichs([np.array([[0.3, 0.7], [0.7, -0.4]])], 2.0)
    for sys in (shallow_water_sys, friedrichs_sys, nonsym):
        for S, B in _pencils(sys, seed=4):
            got = generalized_eigvalsh(S, B)
            want = np.stack([linalg.eigh(S[i], B[i], eigvals_only=True)
                             for i in range(S.shape[0])])
            scale = np.abs(want).max(axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_compute_lf_matches_scipy_loop(shallow_water_sys):
    linalg = pytest.importorskip("scipy.linalg")
    sys = shallow_water_sys
    rng = np.random.default_rng(0)
    corners = sys.omega.extreme_points()
    us = np.vstack([sys.omega.sample(rng, 4096), corners])
    vs = np.vstack([sys.omega.sample(rng, 4096), corners])
    pair_u = np.vstack([us, us, rng.permutation(us)])
    pair_v = np.vstack([vs, us, rng.permutation(vs)])
    B = sys.entropy_hessian(pair_v)
    S = B @ sys.flux_jacobian(pair_u, 0)
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    want = max(np.abs(linalg.eigh(S[i], B[i], eigvals_only=True)).max()
               for i in range(S.shape[0]))
    assert abs(hf.compute_lf(sys) - want) <= 1e-12 * want


def test_compute_lf_requires_samples(burgers_sys):
    with pytest.raises(ValueError):
        hf.compute_lf(burgers_sys, samples=10)


def test_shallow_water_hessian_positive_definite(shallow_water_sys):
    rng = np.random.default_rng(21)
    pts = shallow_water_sys.omega.sample(rng, 5000)
    eigs = np.linalg.eigvalsh(shallow_water_sys.entropy_hessian(pts))
    assert eigs.min() > 0
    assert eigs.min() >= shallow_water_sys.beta0 - 1e-9
    assert eigs.max() <= shallow_water_sys.beta1 + 1e-9


def test_friedrichs_requires_symmetric():
    with pytest.raises(ConstructionError):
        hf.make_friedrichs([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_friedrichs_requires_commuting():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ConstructionError):
        hf.make_friedrichs([A, B])


def test_shallow_water_requires_positive_depth():
    with pytest.raises(ConstructionError):
        hf.make_shallow_water_1d(9.81, 0.0, 1.0, 1.0)


def test_state_field_admissibility(burgers_sys):
    fld = hf.StateField(values=np.array([[0.0], [2.0]]), time=0.0, mesh_id="x")
    with pytest.raises(AdmissibilityError) as exc:
        fld.check_admissible(burgers_sys)
    assert "cell 1" in str(exc.value)


def test_admissible_set_rejects_bad_construction():
    with pytest.raises(ConstructionError):
        hf.AdmissibleSet("sphere", [-1.0], [1.0])
    with pytest.raises(ConstructionError):
        hf.AdmissibleSet("box", [1.0], [1.0])
    with pytest.raises(ConstructionError):
        hf.AdmissibleSet("box", [-1.0, -1.0], [1.0, 1.0],
                         basis=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_admissible_set_characteristic_box():
    R = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))[1]
    box = hf.AdmissibleSet("box", [-1.0, -1.0], [1.0, 1.0], basis=R)
    # (1,1)/sqrt2 has characteristic coordinates (0, 1): inside
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert box.contains(w)
    # (1,1) has a characteristic coordinate sqrt(2): outside
    assert not box.contains(np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# short-axis reductions against the numpy forms they replace
# ---------------------------------------------------------------------------

_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308,
                            -1e308, 5e-324, -5e-324, 1.0, -1.0, 0.1])
_FLOATS = st.one_of(_SPECIAL, st.floats(width=64))


def _same_sum_bits(got, want):
    """Equal bit for bit, sign of zero included.  A NaN only has to meet a
    NaN: IEEE 754 leaves open which payload an operation on two NaNs
    returns, and numpy's loops and plain adds pick differently."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@settings(max_examples=300, deadline=None, database=None)
@given(n=st.integers(1, 11), lead=st.integers(1, 5), trail=st.integers(0, 3),
       layout=st.sampled_from(["C", "F", "reversed", "strided"]),
       data=st.data())
def test_axis_sum_matches_numpy_sum_bitwise(n, lead, trail, layout, data):
    # the state axis last, and the quadrature axis in the middle of
    # (cells, points, m); lengths 1-7 add in place, 8 on fall back to .sum
    shape = (lead, n) + ((trail,) if trail else ())
    x = data.draw(arrays(np.float64, (2 * lead,) + shape[1:],
                         elements=_FLOATS))
    x = {"C": x[:lead], "F": np.asfortranarray(x[:lead]),
         "reversed": x[:lead, ::-1], "strided": x[::2]}[layout]
    with np.errstate(all="ignore"):
        for axis in ({1, -1} if trail else {-1}):
            _same_sum_bits(axis_sum(x, axis), x.sum(axis=axis))
        _same_sum_bits(axis_sum(x[0], -1), x[0].sum(axis=-1))


def test_axis_sum_fallback_is_pairwise():
    # from length 8 numpy sums pairwise, which a left-to-right fold does
    # not reproduce: the helper must hand such axes to .sum
    x = np.array([[1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16,
                   1e-16]])
    left_to_right = 0.0
    for v in x[0]:
        left_to_right += v
    assert x.sum(axis=-1)[0] != left_to_right
    _same_sum_bits(axis_sum(x), x.sum(axis=-1))
    empty = np.zeros((3, 0))
    _same_sum_bits(axis_sum(empty), empty.sum(axis=-1))


@settings(max_examples=100, deadline=None, database=None)
@given(shape=st.tuples(st.integers(0, 5), st.integers(0, 10)),
       data=st.data())
def test_axis_all_matches_np_all(shape, data):
    x = data.draw(arrays(np.bool_, shape))
    got, want = axis_all(x), np.all(x, axis=-1)
    assert got.shape == want.shape and np.array_equal(got, want)
    if shape[0] and shape[-1]:
        assert type(axis_all(x[0])) is type(np.all(x[0], axis=-1))
        assert axis_all(x[0]) == np.all(x[0], axis=-1)


def test_contains_keeps_shape_and_type(friedrichs_sys, shallow_water_sys):
    # m = 2 through the plain ands: a batch gives a bool array, one state
    # a numpy bool, as np.all(axis=-1) did
    for sysm in (friedrichs_sys, shallow_water_sys):
        omega = sysm.omega
        w = np.stack([omega.lo, omega.hi, 0.5 * (omega.lo + omega.hi),
                      omega.hi + 1.0])
        u = w if omega.basis is None else w @ omega.basis.T
        ok = omega.contains(u)
        assert ok.shape == (4,) and ok.dtype == np.bool_
        assert ok.tolist() == [True, True, True, False]
        assert type(omega.contains(u[2])) is np.bool_

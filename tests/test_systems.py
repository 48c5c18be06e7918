import dataclasses
import fractions
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hypflux as hf
from hypflux import cli, systems
from hypflux.errors import AdmissibilityError, ConstructionError
from hypflux.systems import (axis_all, axis_dot, axis_norm, axis_sum,
                             eigvals_extremes, estimate_cz,
                             generalized_eigvalsh, validate_system)

from conftest import (SCRATCH_BYTES, rel_close, same_bits, sample_pairs,
                      traced_peak)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


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


def _exact_relative_entropy(sysm, v, u):
    """eta(v) - eta(u) - Deta(u).(v - u) of one pair in exact rational
    arithmetic on the doubles given."""
    F = fractions.Fraction
    v, u = [F(x) for x in v], [F(x) for x in u]
    if sysm.name == "shallow_water1d":
        g = F(sysm.params["g"])

        def eta(h, q):
            return q * q / (2 * h) + g * h * h / 2

        (hv, qv), (hu, qu) = v, u
        grad = (g * hu - qu * qu / (2 * hu * hu), qu / hu)
        return (eta(hv, qv) - eta(hu, qu) - grad[0] * (hv - hu)
                - grad[1] * (qv - qu))
    half = F(sysm.beta0) / 2  # eta = (beta0 / 2) |u|^2
    return sum(half * (a * a - b * b) - 2 * half * b * (a - b)
               for a, b in zip(v, u))


@pytest.mark.parametrize("name, ulps", [
    ("burgers_sys", 1), ("advection_sys", 1), ("friedrichs_sys", 4),
    ("shallow_water_sys", 4)])
def test_closed_form_relative_entropy_against_exact_rationals(request, name,
                                                              ulps):
    # the closed forms stay within a few ulp of H, far or near pairs,
    # where eta(v) - eta(u) - Deta(u).(v - u) cancels: at |v - u| ~ 1e-9
    # the generic form loses every digit
    sysm = request.getfixturevalue(name)
    u, v, _ = sample_pairs(sysm, 60, seed=13)
    rng = np.random.default_rng(14)
    near = u + rng.uniform(-1e-9, 1e-9, u.shape)
    for v in (v, near, u):
        got = hf.relative_entropy(sysm, v, u)
        want = [_exact_relative_entropy(sysm, a, b) for a, b in zip(v, u)]
        err = [abs(fractions.Fraction(x) - w) for x, w in zip(got, want)]
        assert all(e <= ulps * np.spacing(float(w))
                   for e, w in zip(err, want))
    generic = dataclasses.replace(sysm, relative_entropy=None)
    rough = hf.relative_entropy(generic, near, u)
    assert np.abs(rough - hf.relative_entropy(sysm, near, u)).max() > 0.0


def test_generic_relative_entropy_is_the_fallback(burgers_sys,
                                                  shallow_water_sys):
    # without a closed form, eta(v) - eta(u) - Deta(u).(v - u); on far
    # pairs it agrees with the closed form to its cancellation
    for sysm in (burgers_sys, shallow_water_sys):
        u, v, _ = sample_pairs(sysm, 500, seed=15)
        generic = dataclasses.replace(sysm, relative_entropy=None)
        want = (sysm.entropy(v) - sysm.entropy(u)
                - axis_dot(sysm.entropy_gradient(u), v - u))
        assert same_bits(hf.relative_entropy(generic, v, u), want)
        assert same_bits(systems.relative_entropy_terms(
            generic, v, u, v - u), want)
        scale = np.abs(sysm.entropy(v)) + np.abs(sysm.entropy(u)) + 1.0
        assert (np.abs(want - hf.relative_entropy(sysm, v, u))
                <= 8 * np.spacing(scale)).all()


def test_equal_betas_mean_a_quadratic_entropy(burgers_sys, advection_sys,
                                              friedrichs_sys,
                                              shallow_water_sys):
    # a system with beta0 = beta1 = beta has eta = (beta/2)|u|^2, and its
    # closed-form H is (beta/2)|v - u|^2 bit for bit, on which the error
    # fold's series rests; shallow water's bracket is two-sided
    adv2 = hf.make_advection(2, [1.0, 0.5], u_range=(-0.4, 0.4))
    for sysm in (burgers_sys, advection_sys, adv2, friedrichs_sys):
        beta = sysm.beta0
        assert beta == sysm.beta1 and beta in (1.0, 2.0)
        u, v, _ = sample_pairs(sysm, 500, seed=16)
        assert np.abs(sysm.entropy(u) - 0.5 * beta * axis_dot(u, u)).max() \
            <= np.spacing(sysm.entropy(u)).max()
        assert same_bits(hf.relative_entropy(sysm, v, u),
                         (0.5 * beta) * axis_dot(v - u, v - u))
    assert shallow_water_sys.beta0 < shallow_water_sys.beta1


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
    """Sampled (S, B) pencils of the forms that compute_lf and the
    near-equal lambda bound solve."""
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


def _shipped_systems():
    """The system of each shipped run config, and the default shallow-water
    box."""
    names = ("advection2d", "burgers1d", "constant", "friedrichs1d",
             "shallow_water1d")
    out = [cli.build_problem(cli.load_config(
        os.path.join(CONFIG_DIR, f"{name}.ini"))).system for name in names]
    return out + [hf.make_shallow_water_1d()]


def _lf_pencils(sysm, u, v):
    """The (S, B) pencils of the pairs (u, v) for each flux direction,
    stacked: B = D2eta(v), S the symmetric part of B Df_a(u)."""
    B = sysm.entropy_hessian(v)
    S = np.concatenate([B @ sysm.flux_jacobian(u, a) for a in range(sysm.d)])
    B = np.concatenate([B] * sysm.d)
    return 0.5 * (S + np.swapaxes(S, -1, -2)), B


def _setup_pairs(sysm):
    """The pairs compute_lf reads: every ordered pair of the setup states
    for m >= 2, and (u, u) for m = 1, where the quotient is |f_a'(u)|."""
    pts = systems.setup_states(sysm.omega)
    if sysm.m == 1:
        return pts, pts
    return np.repeat(pts, len(pts), axis=0), np.tile(pts, (len(pts), 1))


def test_lf_dominates_every_corner_pencil():
    # L_f is a max over the setup pairs, which hold every corner x corner
    # pair, so it is at least their eigenvalues (to the solvers' roundoff);
    # sampled pairs fell short on shallow water
    for sysm in _shipped_systems():
        corners = sysm.omega.extreme_points()
        u = np.repeat(corners, len(corners), axis=0)
        v = np.tile(corners, (len(corners), 1))
        want = np.abs(generalized_eigvalsh(*_lf_pencils(sysm, u, v))).max()
        assert sysm.lf >= want * (1.0 - 1e-12), (sysm.name, sysm.lf, want)


def test_compute_lf_matches_scipy_loop():
    linalg = pytest.importorskip("scipy.linalg")
    for sysm in _shipped_systems():
        S, B = _lf_pencils(sysm, *_setup_pairs(sysm))
        want = max(np.abs(linalg.eigh(S[i], B[i], eigvals_only=True)).max()
                   for i in range(S.shape[0]))
        assert abs(sysm.lf - want) <= 1e-12 * want, sysm.name
        assert hf.compute_lf(sysm) == sysm.lf


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
            assert same_bits(axis_sum(x, axis), x.sum(axis=axis))
        assert same_bits(axis_sum(x[0], -1), x[0].sum(axis=-1))


# nonzero floats whose squares and pairwise products are normal numbers
_NORMAL = st.builds(lambda mag, neg: -mag if neg else mag,
                    st.floats(2.0 ** -240, 2.0 ** 240), st.booleans())


@settings(max_examples=300, deadline=None, database=None)
@given(n=st.sampled_from([1, 2, 3, 7, 8, 9]), lead=st.integers(1, 4),
       data=st.data())
def test_axis_dot_and_axis_norm_match_axis_sum_bitwise(n, lead, data):
    # on normal-range inputs: one product (m = 1) or products added left
    # to right, and |x| for m = 1; from 8 on both go to .sum
    a, b = (data.draw(arrays(np.float64, (lead, 2, n), elements=_NORMAL))
            for _ in range(2))
    assert same_bits(axis_dot(a, b), axis_sum(a * b))
    assert same_bits(axis_dot(a, a), axis_sum(a ** 2))
    assert same_bits(axis_norm(a), np.sqrt(axis_sum(a ** 2)))


def test_axis_dot_and_axis_norm_off_the_normal_range():
    # where they differ from the sum forms: a one-column product of -0.0
    # keeps its sign (a sum starts from +0.0), and |x| does not lose the
    # bits of a square that underflows or overflows
    a, b = np.array([[-1.0], [2.0]]), np.array([[0.0], [-0.0]])
    assert same_bits(axis_dot(a, b), np.array([-0.0, -0.0]))
    assert same_bits(axis_sum(a * b), np.array([0.0, 0.0]))
    x = np.array([[3e-170], [-3e-170], [1e200]])
    with np.errstate(over="ignore"):
        square_root = np.sqrt(axis_sum(x ** 2))
    assert same_bits(axis_norm(x), np.abs(x[:, 0]))
    assert square_root.tolist() == [0.0, 0.0, math.inf]
    # from two columns on, the norm is sqrt of the dot, as before
    y = np.array([[3e-170, 4e-170], [3.0, 4.0]])
    assert same_bits(axis_norm(y), np.sqrt(axis_sum(y ** 2)))


def _per_axis(sys, u, n, entropy=False):
    """sum_alpha n_alpha f_alpha(u), or n_alpha xi_alpha(u), in axis order:
    the directional forms before they were bound."""
    def term(a):
        if entropy:
            return n[..., a] * sys.entropy_flux(u, a)
        return n[..., a, None] * sys.flux(u, a)
    out = term(0)
    for a in range(1, sys.d):
        out = out + term(a)
    return out


def _sample_normals(rng, d, n):
    if d == 1:
        return np.where(rng.random((n, 1)) < 0.5, 1.0, -1.0)
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


_FRIEDRICHS_2D = ([np.array([[0.0, 1.0], [1.0, 0.0]]),
                   np.array([[0.5, -1.5], [-1.5, 0.5]])], 1.5)


@pytest.mark.parametrize("build", [
    lambda: hf.make_burgers(1),
    lambda: hf.make_shallow_water_1d(9.81, 0.8, 1.7, 1.0),
    lambda: hf.make_friedrichs([np.array([[0.0, 1.0], [1.0, 0.0]])], 1.5),
    lambda: hf.make_friedrichs(*_FRIEDRICHS_2D),
    lambda: hf.make_advection(1, [0.7])])
def test_bound_forms_are_the_per_axis_sums_bitwise(build):
    # the default binding takes the columns of n once and sums the axes
    # in order; 1D advection's a_n = +-c makes a_n u and a_n u^2 / 2 the
    # per-axis products exactly; a block of steps on a leading axis
    # against one set of normals, as a run binds them
    sys = build()
    rng = np.random.default_rng(11)
    n = _sample_normals(rng, sys.d, 301)
    u = sys.omega.sample(rng, 3 * 301).reshape(3, 301, sys.m)
    forms = sys.bind(n)
    assert same_bits(forms.flux(u), _per_axis(sys, u, n))
    assert same_bits(forms.entropy_flux(u), _per_axis(sys, u, n, True))
    assert (forms.normal_speed is not None) == sys.name.startswith("advection")
    # the per-call wrappers bind and give the same bits
    assert same_bits(sys.directional_flux(u, n), forms.flux(u))
    assert same_bits(sys.directional_entropy_flux(u, n),
                     forms.entropy_flux(u))


def test_advection_normal_speed_binding_within_a_few_ulp():
    # in 2D, a_n = n_0 c_0 + n_1 c_1 is formed once; f(u).n = a_n u and
    # xi(u).n = a_n u^2 / 2 round differently from the per-axis sums, by a
    # few ulp of the sum of the magnitudes of their terms
    c = np.array([1.0, -0.45])
    sys = hf.make_advection(2, c, u_range=(-2.0, 3.0))
    rng = np.random.default_rng(12)
    n = _sample_normals(rng, 2, 4001)
    u = sys.omega.sample(rng, 4001)
    forms = sys.bind(n)
    assert np.array_equal(forms.normal_speed, n[:, 0] * c[0] + n[:, 1] * c[1])
    scale = (np.abs(n) @ np.abs(c))[:, None] * np.abs(u)
    err = np.abs(forms.flux(u) - _per_axis(sys, u, n))
    assert (err <= 4 * np.spacing(scale)).all()
    err = np.abs(forms.entropy_flux(u) - _per_axis(sys, u, n, True))
    assert (err <= 4 * np.spacing(0.5 * scale[:, 0] * np.abs(u[:, 0]))).all()
    # on the axes the normal speeds are c exactly
    assert same_bits(sys.bind(np.eye(2)).normal_speed, c)


def test_axis_sum_fallback_is_pairwise():
    # from length 8 numpy sums pairwise, which a left-to-right fold does
    # not reproduce: the helper must hand such axes to .sum
    x = np.array([[1.0, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16, 1e-16,
                   1e-16]])
    left_to_right = 0.0
    for v in x[0]:
        left_to_right += v
    assert x.sum(axis=-1)[0] != left_to_right
    assert same_bits(axis_sum(x), x.sum(axis=-1))
    empty = np.zeros((3, 0))
    assert same_bits(axis_sum(empty), empty.sum(axis=-1))


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


def test_contains_precomputed_bounds_match_formula_bitwise(
        burgers_sys, friedrichs_sys, shallow_water_sys):
    # contains keeps lo/hi -/+ tol*scale from construction for the default
    # tol; the answers must be those of the bounds formed on every call,
    # on a plain box, a basis box and the positivity-constrained hull
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308])
    for sysm in (burgers_sys, friedrichs_sys, shallow_water_sys):
        omega = sysm.omega
        edges = np.concatenate([omega.lo, omega.hi])
        vals = np.concatenate([special, edges, np.nextafter(edges, np.inf),
                               np.nextafter(edges, -np.inf),
                               edges * (1.0 + 1e-12), edges * (1.0 - 1e-12)])
        u = np.stack(np.meshgrid(*[vals] * omega.m, indexing="ij"), axis=-1)
        u = u.reshape(-1, omega.m)
        for tol in (1e-12, 0.0, 1e-9, np.nextafter(1e-12, 1.0)):
            with np.errstate(invalid="ignore"):  # inf - inf in the basis map
                w = u if omega.basis is None else u @ omega.basis
                got = omega.contains(u, tol=tol)
            scale = np.maximum(1.0, np.maximum(np.abs(omega.lo),
                                               np.abs(omega.hi)))
            want = np.all((w >= omega.lo - tol * scale)
                          & (w <= omega.hi + tol * scale), axis=-1)
            assert got.dtype == np.bool_ and np.array_equal(got, want), \
                (sysm.name, tol)
            if tol == 1e-12:
                with np.errstate(invalid="ignore"):
                    assert np.array_equal(omega.contains(u), want)
        assert omega.contains(u[:1, :]).shape == (1,)


def _errstate_where_model(g):
    """The shallow-water model functions in their np.errstate / np.where
    form: the reference for the masked divisions."""
    def hq(u):
        return u[..., 0], u[..., 1]

    def flux(u):
        h, q = hq(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            f2 = np.where(h > 0, q * q / h + 0.5 * g * h * h, np.inf)
        return np.stack([q, f2], axis=-1)

    def vel(h, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h > 0, q / h, np.inf)

    def jac(u):
        h, q = hq(u)
        v = vel(h, q)
        out = np.zeros(h.shape + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = g * h - v * v
        out[..., 1, 1] = 2.0 * v
        return out

    def entropy(u):
        h, q = hq(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h > 0, 0.5 * q * q / h + 0.5 * g * h * h, np.inf)

    def gradient(u):
        h, q = hq(u)
        v = vel(h, q)
        return np.stack([g * h - 0.5 * v * v, v], axis=-1)

    def hessian(u):
        h, q = hq(u)
        v = vel(h, q)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_h = np.where(h > 0, 1.0 / h, np.inf)
        out = np.empty(h.shape + (2, 2))
        out[..., 0, 0] = v * v * inv_h + g
        out[..., 0, 1] = -v * inv_h
        out[..., 1, 0] = -v * inv_h
        out[..., 1, 1] = inv_h
        return out

    def entropy_flux(u):
        h, q = hq(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h > 0, 0.5 * q ** 3 / h ** 2 + g * h * q, np.inf)

    def wave(u, n):
        h, q = hq(u)
        return np.abs(vel(h, q) * n[..., 0]) + np.sqrt(g * np.maximum(h, 0.0))

    return flux, jac, entropy, gradient, hessian, entropy_flux, wave


def test_shallow_water_model_matches_errstate_where_forms_bitwise(
        shallow_water_sys):
    # the masked divisions give the bits of the np.where forms, and flux
    # and entropy_gradient, filled column by column, those of np.stack;
    # on h <= 0 (inf), -0.0, NaN, infinities, subnormals and h whose
    # square underflows
    sysm = shallow_water_sys
    special = np.array([1.2, 0.8, 0.0, -0.0, -0.5, np.nan, np.inf, -np.inf,
                        5e-324, 1e-310, 1e-170, 1e308, -1e-300, 3.0])
    h, q = np.meshgrid(special, special, indexing="ij")
    u = np.stack([h, q], axis=-1)
    n = np.array([-1.0])
    flux, jac, entropy, gradient, hessian, entropy_flux, wave = \
        _errstate_where_model(sysm.params["g"])
    for states in (u, u.reshape(-1, 2), u[::2, 1::3], u[None], u[3, 4]):
        with np.errstate(all="ignore"):
            pairs = [(sysm.flux(states, 0), flux(states)),
                     (sysm.flux_jacobian(states, 0), jac(states)),
                     (sysm.entropy(states), entropy(states)),
                     (sysm.entropy_gradient(states), gradient(states)),
                     (sysm.entropy_hessian(states), hessian(states)),
                     (sysm.entropy_flux(states, 0), entropy_flux(states)),
                     (sysm.max_wave_speed(states, n), wave(states, n))]
        for got, want in pairs:
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # h = 0 gives inf, h = NaN a NaN first gradient component
    with np.errstate(all="ignore"):
        assert np.isinf(sysm.flux(u, 0)[2, 0, 1])
        assert np.isnan(sysm.entropy_gradient(u)[5, 0, 0])


# -- extreme eigenvalues ------------------------------------------------------

def _full_extremes(S, B=None):
    """(min, max) of the eigenvalues of the whole batch, as LAPACK gives."""
    eigs = np.linalg.eigvalsh(S) if B is None else generalized_eigvalsh(S, B)
    return float(eigs.min()), float(eigs.max())


def _hessian_grid(sysm, k=257):
    p = sysm.params
    H, Q = np.meshgrid(np.linspace(p["h_min"], p["h_max"], k),
                       np.linspace(-p["q_max"], p["q_max"], k), indexing="ij")
    return sysm.entropy_hessian(np.stack([H.ravel(), Q.ravel()], axis=-1))


def test_eigvals_extremes_match_full_lapack(shallow_water_sys, friedrichs_sys):
    # the 257^2 Hessian grid of beta0/beta1 (default and shipped boxes),
    # the compute_lf pencils and the near-equal pencils, with directions
    # on a leading axis and B broadcast over them: the closed form agrees
    # with LAPACK on the same inputs to 1e-12 relative
    sw_default = hf.make_shallow_water_1d()
    for sysm in (sw_default, shallow_water_sys):
        grid = _hessian_grid(sysm)
        want = _full_extremes(grid)
        assert rel_close(eigvals_extremes(grid), want)
        assert rel_close((sysm.beta0, sysm.beta1), want)
    for sysm in (sw_default, shallow_water_sys, friedrichs_sys):
        S, B = _lf_pencils(sysm, *_setup_pairs(sysm))
        lo, hi = eigvals_extremes(S, B)
        assert rel_close((lo, hi), _full_extremes(S, B))
        assert rel_close(sysm.lf, np.abs(generalized_eigvalsh(S, B)).max())
        for S, B in _pencils(sysm, seed=4):
            assert rel_close(eigvals_extremes(S, B), _full_extremes(S, B))
        pts = systems.setup_states(sysm.omega)
        c = 1.05 * hf.sample_wave_speed_sup(sysm)
        n = np.array([[1.0], [-1.0]])[:, None, :]
        M = c * np.eye(2) - sysm.directional_jacobian(pts, n)
        B = sysm.entropy_hessian(pts)
        S = np.swapaxes(M, -1, -2) @ B @ M
        assert rel_close(eigvals_extremes(S, 2.0 * c * B),
                         _full_extremes(S, 2.0 * c * B))


def _count_eigvalsh(monkeypatch):
    """Record the batch shape of every np.linalg.eigvalsh call."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kw):
        sizes.append(np.shape(a)[:-2])
        return eigvalsh(a, *args, **kw)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return sizes


def test_shallow_water_setup_runs_no_lapack(monkeypatch):
    # the 66,049 Hessians of the beta0/beta1 scan, the 14,641 compute_lf
    # pencils and the near-equal quotient of the lambda* calibration are
    # all 2x2 pencils under the conditioning cap: closed form, no LAPACK
    sizes = _count_eigvalsh(monkeypatch)
    sysm = hf.make_shallow_water_1d(9.81, 0.8, 1.7, 1.0)
    hf.make_rusanov(sysm)
    assert sizes == []


def test_friedrichs_setup_runs_no_lapack(monkeypatch):
    # A and the entropy Hessian 2I are constant, so every compute_lf pair
    # gives the pencil (2A, 2I), which the closed form takes as it comes
    sizes = _count_eigvalsh(monkeypatch)
    sysm = hf.make_friedrichs([np.array([[0.0, 1.0], [1.0, 0.0]])], radius=1.5)
    assert sizes == []
    assert sysm.lf == 0.9999999999999998
    S, B = _lf_pencils(sysm, *_setup_pairs(sysm))
    assert rel_close(eigvals_extremes(S, B), _full_extremes(S, B))
    assert sizes == [(len(S),)]


def test_shallow_water_constants_scratch_is_bounded():
    # the 257^2 Hessian scan of beta0/beta1 and the compute_lf pencils,
    # formed and solved a chunk at a time: about 4 scratch chunks, where
    # the whole batches took about 25
    sysm, peak, kept = traced_peak(hf.make_shallow_water_1d, 9.81, 0.8, 1.7,
                                   1.0)
    assert peak - kept <= 6 * SCRATCH_BYTES
    assert sysm.beta0 < sysm.beta1 and sysm.lf > 0.0


def test_friedrichs_constants_scratch_is_bounded():
    # the 14,641 constant compute_lf pencils, a chunk at a time: about 4
    # scratch chunks, where gathering them for one solve took about 12
    sysm, peak, kept = traced_peak(
        hf.make_friedrichs, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert peak - kept <= 6 * SCRATCH_BYTES
    assert sysm.lf == 0.9999999999999998


def test_eigvals_extremes_take_the_whole_batch_when_unscreenable(monkeypatch):
    # a non-finite closed-form value, a pencil beyond the conditioning cap
    # and m != 2 send their chunk, here the whole batch, to LAPACK, and
    # give its numbers; a batch the closed form takes never reaches it
    rng = np.random.default_rng(3)
    S = rng.standard_normal((50, 2, 2))
    S = S + np.swapaxes(S, -1, -2)
    B = np.broadcast_to(np.eye(2), S.shape).copy()
    sizes = _count_eigvalsh(monkeypatch)
    got = eigvals_extremes(S, B)
    assert sizes == []
    assert rel_close(got, _full_extremes(S, B))
    cases = []
    for bad in (np.inf, np.nan):
        T = S.copy()
        T[7, 0, 0] = bad
        cases.append((T, None))
    U = S.copy()
    U[11, 0, 0] = U[11, 1, 1] = 1.5e308  # the closed form's a + d overflows
    cases.append((U, B))
    C = B.copy()
    C[4] = np.diag([1.0, 1.0 / (2.0 * systems._CLOSED_FORM_MAX_COND)])
    cases.append((S, C))
    R = rng.standard_normal((50, 3, 3))
    cases.append((R + np.swapaxes(R, -1, -2), None))
    for T, Bc in cases:
        sizes.clear()
        with np.errstate(all="ignore"):
            got = eigvals_extremes(T, Bc)
        assert sizes[-1] == (50,)
        with np.errstate(all="ignore"):
            want = _full_extremes(T, Bc)
        assert np.array_equal(got, want, equal_nan=True)


def test_closed_form_eigvals_are_accurate_up_to_the_conditioning_cap():
    # pencils up to the conditioning cap: the closed form and LAPACK differ
    # by c eps kappa(B) |mu|_max (Weyl), far under 1e-9 relative, and not
    # by nothing, so the test would see a drift in either kernel
    rng = np.random.default_rng(11)
    n = 20000
    th = rng.uniform(0.0, np.pi, n)
    c, s = np.cos(th), np.sin(th)
    Q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    kappa = 10.0 ** rng.uniform(0.0, 3.9, n)
    D = np.zeros((n, 2, 2))
    D[:, 0, 0] = 10.0 ** rng.uniform(-3.0, 3.0, n)
    D[:, 1, 1] = D[:, 0, 0] * kappa
    B = Q @ D @ np.swapaxes(Q, -1, -2)
    B = 0.5 * (B + np.swapaxes(B, -1, -2))
    S = rng.standard_normal((n, 2, 2)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))
    S = 0.5 * (S + np.swapaxes(S, -1, -2))
    lo, hi = systems._closed_form_eigvals(S, B)
    full = generalized_eigvalsh(S, B)
    scale = np.abs(full).max(axis=-1)
    err = np.maximum(np.abs(lo - full[:, 0]), np.abs(hi - full[:, 1])) / scale
    assert 1e-14 < err.max() <= 1e-9

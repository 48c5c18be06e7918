import copy
import dataclasses
import math

import numpy as np
import pytest

import hypflux as hf
from hypflux import numflux
from hypflux.systems import generalized_eigvalsh
from hypflux.errors import ConstructionError

from conftest import (SCRATCH_BYTES, count_kernel_parts, fixed_pairs,
                      rel_close, same_bits, sample_pairs, traced_peak)


def all_pairs(request):
    names = [("burgers_sys", "burgers_rusanov"),
             ("burgers_sys", "burgers_godunov"),
             ("advection_sys", "advection_rusanov"),
             ("advection_sys", "advection_godunov"),
             ("friedrichs_sys", "friedrichs_rusanov"),
             ("shallow_water_sys", "shallow_water_rusanov")]
    return [(request.getfixturevalue(s), request.getfixturevalue(f))
            for s, f in names]


# -- construction and example values ---------------------------------------

def test_rusanov_example_burgers():
    sys = hf.make_burgers(1, u_range=(-2.5, 2.5))
    sch = hf.make_rusanov(sys, c=2.5)
    g = sch.bind(np.array([1.0])).update(np.array([0.0]), np.array([2.0])).g_value
    # (f(0)+f(2))/2 - c(2-0)/2 with c=2.5: 1 - 2.5 = -1.5
    assert g[0] == pytest.approx(-1.5, abs=1e-14)


def test_rusanov_example_given_speed():
    # the classic hand value with c = 2 on a box wide enough to admit it
    sys = hf.make_burgers(1, u_range=(-1.9, 1.9))
    sch = hf.make_rusanov(sys, c=2.0)
    g = sch.bind(np.array([1.0])).update(np.array([0.0]),
                                        np.array([2.0 - 0.2])).g_value
    expect = 0.5 * (0.0 + 0.5 * 1.8 ** 2) - 1.0 * 1.8
    assert g[0] == pytest.approx(expect, abs=1e-14)


def test_rusanov_consistency_is_flux(burgers_sys, burgers_rusanov):
    u = np.array([[0.7]])
    g = burgers_rusanov.bind(np.array([1.0])).update(u, u).g_value
    assert g[0, 0] == 0.5 * 0.7 ** 2


def test_rusanov_friedrichs_example():
    sys = hf.make_friedrichs([np.diag([1.0, -1.0])], radius=1.5)
    sch = hf.make_rusanov(sys, c=1.1)
    g = sch.bind(np.array([1.0])).update(np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0])).g_value
    # (f(u)+f(v))/2 - c(v-u)/2 = (0.5, -0.5) - 1.1*(-0.5, 0.5)
    assert np.allclose(g, [0.5 + 0.55, -0.5 - 0.55], atol=1e-14)


def test_rusanov_rejects_small_speed(burgers_sys):
    with pytest.raises(ConstructionError):
        hf.make_rusanov(burgers_sys, c=0.5)


def test_godunov_sonic_point(burgers_godunov):
    g = burgers_godunov.bind(np.array([1.0])).update(
        np.array([-1.0]), np.array([1.0])).g_value
    assert g[0] == pytest.approx(0.0, abs=1e-13)


def test_godunov_reversed_max(burgers_godunov):
    g = burgers_godunov.bind(np.array([1.0])).update(
        np.array([1.0]), np.array([-1.0])).g_value
    assert g[0] == pytest.approx(0.5, abs=1e-14)


def test_godunov_upwind():
    sys = hf.make_advection(1, [1.0], u_range=(0.0, 10.0))
    sch = hf.make_godunov_scalar(sys)
    g = sch.bind(np.array([1.0])).update(np.array([3.0]), np.array([7.0])).g_value
    assert g[0] == pytest.approx(3.0, abs=1e-14)


def test_godunov_rejects_systems(friedrichs_sys):
    with pytest.raises(ConstructionError):
        hf.make_godunov_scalar(friedrichs_sys)


def test_x_flux_consistency(burgers_sys, burgers_rusanov):
    u = np.array([0.4])
    x = hf.x_flux(burgers_sys, burgers_rusanov, u, u, np.array([1.0]))
    assert x == pytest.approx(0.4 ** 3 / 3.0, abs=1e-15)


def test_x_flux_rejects_inadmissible(burgers_sys, burgers_rusanov):
    from hypflux.errors import AdmissibilityError
    with pytest.raises(AdmissibilityError):
        hf.x_flux(burgers_sys, burgers_rusanov, np.array([3.0]),
                  np.array([0.0]), np.array([1.0]))


def test_x_flux_example_zero_gradient():
    sys = hf.make_burgers(1, u_range=(-2.5, 2.5))
    sch = hf.make_rusanov(sys, c=2.5)
    # Deta(0) = 0 kills the defect term
    x = hf.x_flux(sys, sch, np.array([0.0]), np.array([2.0]), np.array([1.0]))
    assert x == pytest.approx(0.0, abs=1e-15)


# -- axiom suites ------------------------------------------------------------

N_SAMPLES = 10000


def test_flux_axioms_all_pairs(request):
    for sys, sch in all_pairs(request):
        u, v, n = sample_pairs(sys, N_SAMPLES, seed=101)
        rec, rev, same = (sch.kernel(u, v, n), sch.kernel(v, u, -n),
                          sch.kernel(u, u, n))
        # conservativity (bit-exact by construction, tolerance 1e-14)
        assert np.abs(rec.g_value + rev.g_value).max() <= 1e-14, sch.name
        assert np.abs(rec.xi_value + rev.xi_value).max() <= 1e-14
        # consistency at coincident states
        gd = np.abs(same.g_value - sys.directional_flux(u, n)).max()
        xd = np.abs(same.xi_value - sys.bind(n).entropy_flux(u)).max()
        assert gd <= 1e-14, (sys.name, sch.name)
        assert xd <= 1e-12, (sys.name, sch.name)


def test_interfacial_entropy_inequality_all_pairs(request):
    for sys, sch in all_pairs(request):
        u, v, n = sample_pairs(sys, N_SAMPLES, seed=202)
        rec = sch.kernel(u, v, n)
        delta = rec.g_value - sys.directional_flux(u, n)
        lhs = rec.xi_value - sys.bind(n).entropy_flux(u)
        for mult in (1.0, 2.0, 10.0):
            lam = mult * sch.lambda_star
            rhs = -lam * (sys.entropy(u - delta / lam) - sys.entropy(u))
            assert np.all(lhs <= rhs + 1e-10), (sys.name, sch.name, mult)


def test_x_sandwich_all_pairs(request):
    for sys, sch in all_pairs(request):
        u, v, n = sample_pairs(sys, N_SAMPLES, seed=303)
        xi = sch.kernel(u, v, n).xi_value
        x_uv = hf.x_flux(sys, sch, u, v, n)
        x_vu = hf.x_flux(sys, sch, v, u, -n)
        assert np.all(xi <= x_uv + 1e-10), (sys.name, sch.name)
        assert np.all(-x_vu <= xi + 1e-10), (sys.name, sch.name)


def test_dissipation_gap_all_pairs(request):
    for sys, sch in all_pairs(request):
        u, v, n = sample_pairs(sys, N_SAMPLES, seed=404)
        chk = hf.dissipation_gap_check(sys, sch, u, v, n)
        assert bool(np.all(chk.passed)), (sys.name, sch.name)


def test_dissipation_gap_trivial(burgers_sys, burgers_rusanov):
    u = np.array([0.25])
    chk = hf.dissipation_gap_check(burgers_sys, burgers_rusanov, u, u,
                                   np.array([1.0]))
    assert chk.gap == pytest.approx(0.0, abs=1e-15)
    assert chk.lower_bound == pytest.approx(0.0, abs=1e-15)
    assert bool(chk.passed)


def test_omega_stability_all_pairs(request):
    for sys, sch in all_pairs(request):
        u, v, n = sample_pairs(sys, N_SAMPLES, seed=505)
        for lam in (sch.lambda_star, 2.0 * sch.lambda_star):
            ok = hf.omega_stability_check(sys, sch, u, v, n, lam=lam)
            assert bool(np.all(ok)), (sys.name, sch.name, lam)


def test_omega_stability_trivial(burgers_sys, burgers_rusanov):
    u = np.array([0.9])
    assert bool(hf.omega_stability_check(burgers_sys, burgers_rusanov, u, u,
                                         np.array([1.0])))


def test_omega_stability_rejects_small_lambda(burgers_sys, burgers_rusanov):
    u = np.array([0.1])
    with pytest.raises(ValueError):
        hf.omega_stability_check(burgers_sys, burgers_rusanov, u, u,
                                 np.array([1.0]),
                                 lam=0.5 * burgers_rusanov.lambda_star)


def test_divergence_free_on_mesh_cells(burgers_sys, burgers_rusanov):
    # consistency + closure: sum_L |sigma| G_KL(u,u) = 0 per cell
    mesh = hf.build_perturbed_quad_2d(6, 6, 1.0, 1.0, 0.2, 13)
    sys = hf.make_advection(2, [1.0, 0.5], u_range=(-1.0, 1.0))
    sch = hf.make_rusanov(sys)
    state = np.full((mesh.n_cells, 1), 0.37)
    g = sch.bind(mesh.iface_normals).update(
        state[mesh.iface_left], state[mesh.iface_right]).g_value
    div = np.zeros((mesh.n_cells, 1))
    contrib = mesh.iface_areas[:, None] * g
    np.add.at(div, mesh.iface_left, contrib)
    np.add.at(div, mesh.iface_right, -contrib)
    assert np.all(np.abs(div[:, 0]) <= 1e-12 * mesh.boundary_measure())


def test_godunov_rusanov_first_order_agreement(burgers_sys, burgers_rusanov,
                                               burgers_godunov):
    # both fluxes deviate from f.n by at most O(|u - v|) with speed-size slope
    rng = np.random.default_rng(77)
    u = burgers_sys.omega.sample(rng, 4000)
    v = u + rng.uniform(-0.05, 0.05, u.shape)
    np.clip(v, -1.0, 1.0, out=v)
    n = np.where(rng.random((4000, 1)) < 0.5, 1.0, -1.0)
    dg = (burgers_rusanov.bind(n).update(u, v).g_value
          - burgers_godunov.bind(n).update(u, v).g_value)
    jump = np.abs(v - u)
    c = burgers_rusanov.params["c"]
    assert np.all(np.abs(dg) <= 1.1 * c * jump + 1e-14)


def test_dissipation_gap_wide_box_numeric_speed():
    # numeric c = 2 on the symmetric unit box, 10^4 pairs, 100% pass
    sys = hf.make_burgers(1, u_range=(-1.0, 1.0))
    sch = hf.make_rusanov(sys, c=2.0)
    u, v, n = sample_pairs(sys, 10000, seed=2024)
    chk = hf.dissipation_gap_check(sys, sch, u, v, n)
    assert bool(np.all(chk.passed))


def test_interface_record_accessor(burgers_sys, burgers_rusanov):
    mesh = hf.build_uniform_1d(5, 1.0)
    fld = hf.StateField(np.linspace(0.1, 0.5, 5)[:, None], 0.0, mesh.mesh_id)
    recs = hf.interface_flux_records(mesh, burgers_sys, burgers_rusanov, fld)
    assert np.array_equal(recs.dissipation_gap, recs.x_kl - recs.xi_value)
    assert np.all(recs.defect >= 0.0)


def test_lambda_star_values(burgers_sys):
    # Rusanov: calibrated threshold (c+M)^2/(2c) with a 2% margin
    sch = hf.make_rusanov(burgers_sys)
    c = sch.params["c"]
    M = sch.params["wave_speed_sup"]
    assert sch.lambda_star == pytest.approx(1.02 * (c + M) ** 2 / (2 * c), rel=1e-12)
    # Godunov keeps the 5%-inflated wave-speed sup, exactly
    god = hf.make_godunov_scalar(burgers_sys)
    assert god.lambda_star == 1.05 * M


def test_bouchut_fails_at_wave_speed_for_rusanov(burgers_sys, burgers_rusanov):
    # lambda = c is NOT enough for the midpoint entropy flux: downwind
    # near-corner states need (c+M)^2/(2c); guard against regressions that
    # would weaken lambda_star back to c
    sch = burgers_rusanov
    c = sch.params["c"]
    u = np.array([[-1.0]])
    v = np.array([[0.0]])
    n = np.array([1.0])
    rec = sch.kernel(u, v, n)
    delta = rec.g_value - burgers_sys.directional_flux(u, n)
    lhs = rec.xi_value - burgers_sys.bind(n).entropy_flux(u)
    rhs = -c * (burgers_sys.entropy(u - delta / c) - burgers_sys.entropy(u))
    assert lhs[0] > rhs[0] + 1e-3
    assert sch.lambda_star > c


# -- interface kernels, bit for bit --------------------------------------------

def _closed_form_burgers_godunov(u, v):
    """(G, xi) of the exact Riemann flux of Burgers for n = +1."""
    g = np.where(u <= v,
                 np.where((u <= 0.0) & (0.0 <= v), 0.0,
                          0.5 * np.minimum(u ** 2, v ** 2)),
                 0.5 * np.maximum(u ** 2, v ** 2))
    # Riemann trace: upwind end of a fan, sonic 0 inside it, the end with
    # the larger |w| across a shock (v, the lower end, when u + v = 0)
    w = np.where(u <= v, np.where(u > 0.0, u, np.where(v < 0.0, v, 0.0)),
                 np.where(u + v > 0.0, u, v))
    return g, w ** 3 / 3.0


def _scalar_pairs(rng, n):
    u = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-1.0, 1.0, n)
    v[: n // 8] = u[: n // 8]                   # equal states
    v[n // 8: n // 4] = -u[n // 8: n // 4]      # stationary shocks, sonic fans
    u[n // 4: n // 4 + 4] = [0.0, -0.0, 0.5, -0.5]
    return u, v


def test_godunov_burgers_closed_form(burgers_sys, burgers_godunov):
    rng = np.random.default_rng(11)
    u, v = _scalar_pairs(rng, 4000)
    n = np.where(rng.random(u.shape) < 0.5, 1.0, -1.0)
    rec = burgers_godunov.kernel(u[:, None], v[:, None], n[:, None])
    g_pos, xi_pos = _closed_form_burgers_godunov(u, v)
    g_neg, xi_neg = _closed_form_burgers_godunov(v, u)
    # n = -1 by conservativity: G(u, v, -1) = -G(v, u, +1)
    assert np.array_equal(rec.g_value[:, 0], np.where(n > 0, g_pos, -g_neg))
    assert np.array_equal(rec.xi_value, np.where(n > 0, xi_pos, -xi_neg))
    assert np.array_equal(rec.xi_left, n * u ** 3 / 3.0)


def test_godunov_advection_is_upwind(advection_sys, advection_godunov):
    rng = np.random.default_rng(12)
    u, v = _scalar_pairs(rng, 4000)
    n = np.where(rng.random(u.shape) < 0.5, 1.0, -1.0)
    rec = advection_godunov.kernel(u[:, None], v[:, None], n[:, None])
    w = np.where(n > 0, u, v)     # speed +1: the upwind cell
    assert np.array_equal(rec.g_value[:, 0], n * w)
    assert np.array_equal(rec.xi_value, n * 0.5 * w ** 2)


def test_rusanov_records_match_written_out_formulas(request):
    names = [("burgers_sys", "burgers_rusanov"),
             ("advection_sys", "advection_rusanov"),
             ("friedrichs_sys", "friedrichs_rusanov"),
             ("shallow_water_sys", "shallow_water_rusanov")]
    pairs = [(request.getfixturevalue(s), request.getfixturevalue(f))
             for s, f in names]
    adv2 = hf.make_advection(2, [1.0, 0.5], u_range=(-1.0, 1.0))
    pairs.append((adv2, hf.make_rusanov(adv2)))
    for sys, sch in pairs:
        u, v, n = sample_pairs(sys, 2000, seed=606)
        c = sch.params["c"]

        def g(a, b, nn):
            return (0.5 * (sys.directional_flux(a, nn) + sys.directional_flux(b, nn))
                    - (0.5 * c) * (b - a))

        def x(a, b, nn):
            return (sys.bind(nn).entropy_flux(a)
                    + (sys.entropy_gradient(a)
                       * (g(a, b, nn) - sys.directional_flux(a, nn))).sum(axis=-1))

        # both orientations evaluated the long way round
        want_g = g(u, v, n)
        want_x = x(u, v, n)
        want_xi = 0.5 * (want_x - x(v, u, -n))
        want_defect = np.sqrt(((want_g - sys.directional_flux(u, n)) ** 2).sum(axis=-1))
        rec = sch.kernel(u, v, n)
        assert np.array_equal(rec.g_value, want_g), sys.name
        assert np.array_equal(rec.x_kl, want_x), sys.name
        assert np.array_equal(rec.xi_value, want_xi), sys.name
        assert np.array_equal(rec.xi_left, sys.bind(n).entropy_flux(u))
        assert np.array_equal(rec.defect, want_defect), sys.name
        assert np.array_equal(rec.dissipation_gap, want_x - want_xi), sys.name
        assert np.array_equal(sch.bind(n).update(u, v).g_value, want_g)


def test_kernels_conservative_bitwise(request):
    for sys, sch in all_pairs(request):
        u, v, n = sample_pairs(sys, 2000, seed=707)
        assert np.array_equal(sch.bind(-n).update(v, u).g_value,
                              -sch.bind(n).update(u, v).g_value), \
            (sys.name, sch.name)


def test_godunov_needs_critical_points(burgers_sys):
    sys = dataclasses.replace(burgers_sys, flux_critical_points=None)
    with pytest.raises(ConstructionError):
        hf.make_godunov_scalar(sys)


@pytest.mark.parametrize("scheme", ["burgers_rusanov", "burgers_godunov"])
def test_one_records_call_evaluates_two_fluxes(request, monkeypatch,
                                               burgers_sys, scheme):
    # the kernel binds the normals once and evaluates the bound f(u).n
    # twice: f(u).n and f(v).n (Rusanov), f(w*).n and f(u).n (Godunov)
    sch = request.getfixturevalue(scheme)
    mesh = hf.build_uniform_1d(8, 1.0)
    fld = hf.StateField(np.linspace(-0.5, 0.5, 8)[:, None], 0.0, mesh.mesh_id)
    calls = []
    bind = hf.SystemModel.bind

    def counted_bind(self, n):
        forms = bind(self, n)
        calls.append("bind")
        return forms._replace(flux=_count_calls(forms, "flux", calls))

    monkeypatch.setattr(hf.SystemModel, "bind", counted_bind)
    hf.interface_flux_records(mesh, burgers_sys, sch, fld)
    assert calls == ["bind", "flux", "flux"]


def test_records_part_on_stacked_steps_matches_kernel_bitwise(request):
    # the records part on updates stacked on a leading step axis, with
    # one set of normals as on a mesh, gives every step's kernel records
    # bit for bit; the kernel is the update part, then the records part
    for sys, sch in all_pairs(request):
        steps = [sample_pairs(sys, 257, seed=s) for s in (31, 32, 33)]
        n = steps[0][2]
        updates = [sch.bind(n).update(u, v) for u, v, _ in steps]
        block = sch.bind(n).records(hf.InterfaceUpdate(
            *(np.stack([getattr(up, name) for up in updates])
              for name in ("g_value", "left", "right")),
            tuple(map(np.stack, zip(*(up.parts for up in updates))))))
        for k, (u, v, _) in enumerate(steps):
            one = sch.kernel(u, v, n)
            assert np.array_equal(updates[k].g_value, one.g_value)
            for f in dataclasses.fields(one):
                got, want = getattr(block, f.name)[k], getattr(one, f.name)
                assert got.shape == want.shape, (sys.name, sch.name, f.name)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), \
                    (sys.name, sch.name, f.name)


def test_one_binding_serves_every_step_bitwise(request):
    # a run binds its normals once and calls the bound parts every step:
    # each call gives the bits of a kernel bound afresh for that call
    adv2 = hf.make_advection(2, [1.0, 0.5], u_range=(-0.4, 0.6))
    pairs = all_pairs(request) + [(adv2, hf.make_rusanov(adv2))]
    for sys, sch in pairs:
        n = sample_pairs(sys, 300, seed=40)[2]
        kernel = sch.bind(n)
        for seed in (41, 42):
            u, v, _ = sample_pairs(sys, 300, seed=seed)
            got, want = kernel.update(u, v), sch.bind(n).update(u, v)
            for name in ("g_value", "left", "right"):
                assert same_bits(getattr(got, name), getattr(want, name))
            got, want = kernel.records(got), sch.kernel(u, v, n)
            for f in dataclasses.fields(want):
                assert same_bits(getattr(got, f.name), getattr(want, f.name)), \
                    (sys.name, sch.name, f.name)


def _plain_records(sys, sch, u, v, n):
    """The records of (u, v, n) by their formulas, each difference and sum
    in a new array: delta = G - f(u).n, X_KL = xi(u).n + Deta(u).delta and
    xi_KL the midpoint of X_KL and X_LK (Rusanov) or xi(w*).n (Godunov)."""
    update = sch.bind(n).update(u, v)
    g = update.g_value
    xi_u = sys.bind(n).entropy_flux(u)
    delta = g - sys.directional_flux(u, n)
    x = xi_u + (sys.entropy_gradient(u) * delta).sum(axis=-1)
    if sch.name == "rusanov":
        x_rev = (sys.bind(n).entropy_flux(v)
                 + (sys.entropy_gradient(v)
                    * (g - sys.directional_flux(v, n))).sum(axis=-1))
        xi = 0.5 * (x + x_rev)
    else:
        xi = sys.bind(n).entropy_flux(update.parts[0])
    return hf.InterfaceFluxRecords(
        g_value=g, xi_value=xi, x_kl=x, xi_left=xi_u,
        defect=np.sqrt((delta ** 2).sum(axis=-1)), dissipation_gap=x - xi)


@pytest.mark.parametrize("k", [1, 3])
def test_records_part_on_an_update_taken_over_matches_a_copy(request, k):
    # the records part works in the update it is handed and releases its
    # sides: on the update itself it gives the records of a deep copy, and
    # both give the records' formulas, bit for bit.  K = 1 hands it views
    # of the step's own arrays, as a block of one step does, and K > 1
    # the stacked rows; the 2D normals are column-major, as on a mesh
    adv2d = hf.make_advection(2, [1.0, 0.5], u_range=(-0.45, 0.65))
    for sys, sch in all_pairs(request) + [(adv2d, hf.make_rusanov(adv2d))]:
        steps = [sample_pairs(sys, 257, seed=s) for s in range(41, 41 + k)]
        n = np.asfortranarray(steps[0][2])
        updates = [sch.bind(n).update(u, v) for u, v, _ in steps]
        if k == 1:
            (up,) = updates
            update = hf.InterfaceUpdate(
                up.g_value[None], up.left[None], up.right[None],
                tuple(p[None] for p in up.parts))
        else:
            update = hf.InterfaceUpdate(
                *(np.stack([getattr(up, name) for up in updates])
                  for name in ("g_value", "left", "right")),
                tuple(map(np.stack, zip(*(up.parts for up in updates)))))
        del updates
        want = sch.bind(n).records(copy.deepcopy(update))
        got = sch.bind(n).records(update)
        plain = [_plain_records(sys, sch, u, v, n) for u, v, _ in steps]
        for f in dataclasses.fields(got):
            assert same_bits(getattr(got, f.name), getattr(want, f.name)), \
                (sys.name, sch.name, f.name)
            assert same_bits(getattr(got, f.name), np.stack(
                [getattr(one, f.name) for one in plain])), \
                (sys.name, sch.name, f.name)
        if sch.name == "rusanov":
            assert update.left is None and update.right is None


def test_records_part_broadcasts_one_sided_fluxes(friedrichs_sys,
                                                  friedrichs_rusanov):
    # one left state and one direction against many right states: f(u).n
    # has fewer entries than G, so G - f(u).n takes a new array, and the
    # records are those of the left state repeated (xi(u).n is one value)
    u, v, _ = sample_pairs(friedrichs_sys, 33, seed=4)
    n = np.array([-1.0])
    got = friedrichs_rusanov.kernel(u[0], v, n)
    want = friedrichs_rusanov.kernel(np.repeat(u[:1], len(v), axis=0), v, n)
    assert np.shape(got.xi_left) == ()
    for f in dataclasses.fields(got):
        w = getattr(want, f.name)
        assert same_bits(np.broadcast_to(getattr(got, f.name), w.shape), w), \
            f.name


# -- lambda_star calibration ---------------------------------------------------

def test_cycled_directions_match_stacked_list():
    # one indexed take gives the rows of the per-pair stack it replaced
    for d in (1, 2):
        dirs = numflux._axis_directions(d)
        for n in (1, 2, 131, 132, 133, 16448):
            want = np.stack([dirs[i % len(dirs)] for i in range(n)])
            got = numflux._cycled_directions(d, n)
            assert got.shape == want.shape and np.array_equal(got, want)


def _count_calls(obj, name, calls):
    fn = getattr(obj, name)

    def counted(*args):
        calls.append(name)
        return fn(*args)
    return counted


@pytest.mark.parametrize("build", ["burgers", "advection2d", "friedrichs"])
def test_closed_form_calibration_runs_one_kernel_and_no_entropy(build):
    # constant Hessian: one records call on the pair grid and no entropy
    # evaluation (the bisection evaluated eta at 140 trial lambdas)
    sys = {"burgers": lambda: hf.make_burgers(1),
           "advection2d": lambda: hf.make_advection(2, [1.0, 0.5]),
           "friedrichs": lambda: hf.make_friedrichs(
               [np.array([[0.0, 1.0], [1.0, 0.0]])], radius=1.5)}[build]()
    schemes = [(hf.make_rusanov(sys), True)]
    if sys.m == 1 and sys.d == 1:
        schemes.append((hf.make_godunov_scalar(sys), False))
    entropy = sys.entropy
    for sch, rusanov in schemes:
        calls = []
        sys.entropy = _count_calls(sys, "entropy", calls)
        counted = count_kernel_parts(sch, calls, "records")
        c = sch.params["c"] if rusanov else 1.05 * sch.params["wave_speed_sup"]
        lam, source = numflux._calibrate_lambda_star(
            sys, counted, c, rusanov_c=c if rusanov else None,
            include_c_floor=rusanov)
        assert calls == ["records"], (build, sch.name)
        if rusanov:
            assert (lam, source) == (sch.lambda_star,
                                     sch.params["lambda_star_source"])
        sys.entropy = entropy


def test_lambda_star_sources(burgers_rusanov, burgers_godunov,
                             advection_godunov, friedrichs_rusanov,
                             shallow_water_rusanov):
    # which term set lambda_star: Burgers' near-equal quotient (c + M)^2/(2c)
    # at the box edge, Godunov's inflated wave speed, the Friedrichs pair
    # maximum (the near-equal value plus roundoff) and shallow water's
    # near-equal quotient on the setup states
    sources = [sch.params["lambda_star_source"]
               for sch in (burgers_rusanov, burgers_godunov, advection_godunov,
                           friedrichs_rusanov, shallow_water_rusanov)]
    assert sources == ["near-equal", "wave-speed", "wave-speed", "pairs",
                       "near-equal"]
    c = friedrichs_rusanov.params["c"]
    M = friedrichs_rusanov.params["wave_speed_sup"]
    assert friedrichs_rusanov.lambda_star == pytest.approx(
        1.02 * (c + M) ** 2 / (2 * c), rel=1e-13)


def test_advection_wave_speed_sup_is_the_norm_of_its_speed():
    # |n.a| peaks at n = a/|a|, which 64 angles plus the axes missed: the
    # max over them read 1.117619632761354 on a = (1, 0.5), so a Rusanov
    # speed between that and |a| passed the floor check
    sys = hf.make_advection(2, [1.0, 0.5], u_range=(-0.4, 0.6))
    norm = math.hypot(1.0, 0.5)
    assert norm == 1.118033988749895
    assert hf.sample_wave_speed_sup(sys) == norm
    with pytest.raises(ConstructionError, match="below the wave-speed max"):
        hf.make_rusanov(sys, c=1.1179)
    assert hf.make_rusanov(sys, c=norm).params["c"] == norm
    sch = hf.make_rusanov(sys)
    assert sch.params["c"] == 1.05 * norm
    # the other systems take the max over the lambda* calibration's
    # directions, which for d = 1 are +-1
    assert hf.sample_wave_speed_sup(hf.make_burgers(1, (-0.3, 0.8))) == 0.8
    assert hf.sample_wave_speed_sup(hf.make_advection(1, [-0.7])) == 0.7


def test_godunov_lambda_star_is_exactly_the_inflated_wave_speed():
    for lo, hi in ((0.225, 0.775), (-0.3, 2.0)):
        sys = hf.make_burgers(1, u_range=(lo, hi))
        sch = hf.make_godunov_scalar(sys)
        assert sch.lambda_star == 1.05 * sch.params["wave_speed_sup"]
        assert sch.params["wave_speed_sup"] == max(abs(lo), abs(hi))
    # upwind advection: every pair's critical lambda is the speed squared
    sys = hf.make_advection(1, [1.0], u_range=(0.7325, 0.7675))
    sch = hf.make_godunov_scalar(sys)
    assert sch.lambda_star == 1.05


def test_centred_flux_fails_the_closed_form_calibration(advection_sys):
    # G = (f(u) + f(v)).n/2 with xi_KL = (xi(u) + xi(v)).n/2 has the gap
    # -(a.n)(v - u)^2/4 < 0 for a.n > 0: no lambda satisfies the inequality
    sys = advection_sys

    def update(u, v, n):
        fu, fv = sys.directional_flux(u, n), sys.directional_flux(v, n)
        return hf.InterfaceUpdate(0.5 * (fu + fv), u, v, (fu,))

    def records(step, n):
        u, v, g = step.left, step.right, step.g_value
        xi_u = sys.bind(n).entropy_flux(u)
        delta = g - step.parts[0]
        x = numflux._dissipation_flux(sys, u, delta, xi_u)
        return numflux._records(
            g, delta, xi_u, x, 0.5 * (xi_u + sys.bind(n).entropy_flux(v)))

    centred = hf.FluxScheme("centred", lambda n: numflux.BoundKernel(
        lambda u, v: update(u, v, n), lambda step: records(step, n)), np.nan)
    rec = centred.kernel(np.array([[0.0]]), np.array([[0.5]]), np.array([1.0]))
    assert rec.dissipation_gap[0] == -0.0625
    with pytest.raises(ConstructionError, match="not entropy dissipative"):
        numflux._calibrate_lambda_star(sys, centred, 1.0, rusanov_c=None,
                                       include_c_floor=False)


def test_batched_near_equal_quotient_matches_per_direction_loop(request):
    # one call over every direction gives the maximum of the per-direction
    # matrix form: bit for bit elementwise for m = 1, and for m = 2, whose
    # pencils go in closed form, to 1e-12 relative of LAPACK's
    adv2 = hf.make_advection(2, [1.0, 0.5], u_range=(-0.4, 0.6))
    systems = [request.getfixturevalue(name) for name in
               ("burgers_sys", "advection_sys", "friedrichs_sys",
                "shallow_water_sys")] + [adv2]
    for sys in systems:
        rng = np.random.default_rng(5)
        pts = np.vstack([sys.omega.sample(rng, 512),
                         sys.omega.extreme_points()])
        for c in (1.05 * hf.sample_wave_speed_sup(sys), 7.3):
            want = 0.0
            for n in numflux._axis_directions(sys.d):
                M = c * np.eye(sys.m) - sys.directional_jacobian(pts, n)
                B = sys.entropy_hessian(pts)
                S = np.swapaxes(M, -1, -2) @ B @ M
                q = (S[..., 0, 0] / (2.0 * c * B[..., 0, 0]) if sys.m == 1
                     else generalized_eigvalsh(S, 2.0 * c * B))
                want = max(want, float(q.max()))
            got = numflux._near_equal_lambda(sys, pts, c)
            if sys.m == 1:
                assert same_bits(got, want), (sys.name, c)
            else:
                assert rel_close(got, want), (sys.name, c)


# -- the shallow-water bisection -------------------------------------------------

def _unpruned_bisection(sys, scheme, c, U, V, nd):
    """The geometric bisection over every pair in every sweep, verbatim from
    before the pruning: the oracle of `_bisected_pair_lambda`."""
    rec = scheme.kernel(U, V, nd)
    lhs = rec.xi_value - rec.xi_left
    delta = rec.g_value - sys.directional_flux(U, nd)
    eta_u = sys.entropy(U)

    def margin_at(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            shifted = U - delta / lam[..., None]
            val = lhs + lam * (sys.entropy(shifted) - eta_u)
        return np.where(np.isfinite(val), val, np.inf)

    lam_hi = np.full(U.shape[0], max(c, 1.0))
    for _ in range(60):
        bad = margin_at(lam_hi) > 0.0
        if not np.any(bad):
            break
        lam_hi = np.where(bad, 2.0 * lam_hi, lam_hi)
        if lam_hi.max() > 1e9 * max(c, 1.0):
            raise ConstructionError(
                f"{sys.name}: no finite lambda satisfies the interfacial "
                "entropy inequality; the flux is not entropy dissipative")
    lam_lo = np.full_like(lam_hi, 1e-9 * max(c, 1.0))
    for _ in range(80):
        mid = np.sqrt(lam_lo * lam_hi)
        viol = margin_at(mid) > 0.0
        lam_lo = np.where(viol, mid, lam_lo)
        lam_hi = np.where(viol, lam_hi, mid)
    return float(lam_hi.max())


def test_pruned_bisection_matches_unpruned_loop_bitwise(
        shallow_water_sys, shallow_water_rusanov):
    sys, sch = shallow_water_sys, shallow_water_rusanov
    c = sch.params["c"]
    pairs = fixed_pairs(sys)
    got = numflux._bisected_pair_lambda(sys, sch, c, *pairs)
    want = _unpruned_bisection(sys, sch, c, *pairs)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    # 40 copies of the 64 grid pairs with the smallest gaps: 40 pairs tie
    # at the batch maximum, and the pruning must keep every one
    rec = sch.kernel(*pairs)
    top = np.argsort(rec.dissipation_gap)[:64]
    tied = tuple(np.tile(a[top], (40, 1)) for a in pairs)
    got = numflux._bisected_pair_lambda(sys, sch, c, *tied)
    assert got == _unpruned_bisection(sys, sch, c, *tied)


def test_shallow_water_bisection_drops_roundoff_pairs(shallow_water_sys,
                                                      shallow_water_rusanov):
    sys, sch = shallow_water_sys, shallow_water_rusanov
    c = sch.params["c"]
    assert sch.lambda_star == 9.81700548140926
    # 1e-9 apart, the pair's critical lambda is roundoff over roundoff: on
    # its own it stops the setup
    u = np.array([[1.5, 0.9]])
    v = u + np.array([0.0, 1e-9])
    with pytest.raises(ConstructionError, match="not entropy dissipative"):
        numflux._bisected_pair_lambda(sys, sch, c, u, v, np.array([[1.0]]))
    assert not numflux._far_apart(sys.omega, u, v)[0]
    # the grid pairs leave out every pair closer than 1e-6 diam Omega: the
    # 121 pairs (u, u), and nothing else is that close
    U, V, nd = fixed_pairs(sys)
    assert len(U) == 121 * 121 - 121
    diam = np.hypot(*(sys.omega.hi - sys.omega.lo))
    assert np.sqrt(((V - U) ** 2).sum(axis=-1)).min() > 1e-6 * diam
    assert numflux._bisected_pair_lambda(sys, sch, c, U, V, nd) < \
        sch.lambda_star / 1.05


@pytest.mark.parametrize("name", ["make_rusanov", "make_godunov_scalar",
                                  "compute_lf", "sample_wave_speed_sup"])
def test_setup_draws_no_random_state(monkeypatch, name):
    # every setup max reads the fixed states of setup_states: no generator
    # is made, so the seed cannot reach a scheme or a constant
    systems = [hf.make_burgers(1, u_range=(-0.3, 2.0)),
               hf.make_shallow_water_1d(9.81, 0.8, 1.7, 1.0),
               hf.make_advection(2, [1.0, 0.5], u_range=(-0.4, 0.6)),
               hf.make_friedrichs([np.array([[0.0, 1.0], [1.0, 0.0]])])]
    if name == "make_godunov_scalar":
        systems = systems[:1]
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kw):
        calls.append(args)
        return default_rng(*args, **kw)
    monkeypatch.setattr(np.random, "default_rng", counted)
    for sysm in systems:
        getattr(hf, name)(sysm)
    assert calls == []


# -- Godunov state ---------------------------------------------------------------

def _godunov_state_stacked(sys, u, v, n):
    """The Godunov state as it was, stacking the candidates for one argmin:
    the bitwise oracle of the running comparison."""
    a, b = u[..., 0], v[..., 0]
    n = numflux._as_direction(n, 1)
    ncoef = np.broadcast_to(n[..., 0], a.shape).astype(float)
    coef = np.where(a <= b, 1.0, -1.0) * ncoef
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    cand = np.stack([lo, hi] + [
        np.clip(np.broadcast_to(wc, a.shape), lo, hi)
        for wc in np.atleast_1d(sys.flux_critical_points(n))], axis=0)
    vals = coef * sys.flux(cand[..., None], 0)[..., 0]
    w_star = np.take_along_axis(cand, np.argmin(vals, axis=0)[None], axis=0)[0]
    return w_star[..., None]


def test_godunov_state_matches_stacked_argmin_bitwise(burgers_sys,
                                                     advection_sys):
    # every ordered pair of special states under the normals +-1 and +-0.0
    # (0 * inf gives NaN values): ties (+-0.0, |u| = |v| for Burgers,
    # repeated critical points) go to the first candidate and the first NaN
    # wins, as under argmin
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.5, -0.5, 1.0,
                        -1.0, 0.25, 5e-324, -5e-324, 1e308, -1e308])
    u = np.repeat(special, special.size)[:, None]
    v = np.tile(special, special.size)[:, None]
    rng = np.random.default_rng(5)
    normals = [np.full((len(u), 1), x) for x in (1.0, -1.0, 0.0, -0.0)]
    normals.append(rng.choice([1.0, -1.0, 0.0, -0.0], (len(u), 1)))
    repeated = dataclasses.replace(
        burgers_sys,
        flux_critical_points=lambda n: np.array([0.0, -0.0, 0.25, 0.25, -1.0]))
    for sysm in (burgers_sys, advection_sys, repeated):
        for n in normals:
            with np.errstate(all="ignore"):
                got = numflux._godunov_states(sysm, n)(u, v)
                want = _godunov_state_stacked(sysm, u, v, n)
            assert got.shape == want.shape == u.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # random pairs through the kernel, on both orientations
    uu, vv = (rng.uniform(-1.0, 1.0, (4000, 1)) for _ in range(2))
    for sysm in (burgers_sys, advection_sys):
        for n in (1.0, -1.0):
            assert np.array_equal(
                numflux._godunov_states(sysm, np.array([n]))(uu, vv),
                _godunov_state_stacked(sysm, uu, vv, np.array([n])))


def _godunov_state_running(sys, u, v, n):
    """The Godunov state before it was bound to n, verbatim: the running
    best with the orientation and the candidates formed on every call."""
    a, b = u[..., 0], v[..., 0]
    n = numflux._as_direction(n, 1)
    ncoef = np.broadcast_to(n[..., 0], a.shape).astype(float)
    coef = np.where(a <= b, 1.0, -1.0) * ncoef
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    w_star = lo
    best = coef * sys.flux(lo[..., None], 0)[..., 0]
    for w in [hi] + [np.clip(np.broadcast_to(wc, a.shape), lo, hi)
                     for wc in np.atleast_1d(sys.flux_critical_points(n))]:
        val = coef * sys.flux(w[..., None], 0)[..., 0]
        better = (val < best) | (np.isnan(val) & ~np.isnan(best))
        w_star = np.where(better, w, w_star)
        best = np.where(better, val, best)
    return w_star[..., None]


def test_bound_godunov_update_matches_the_running_best_bitwise(burgers_sys,
                                                               advection_sys):
    # bound once to fixed normals, the update reuses its orientation
    # coefficients and candidates on every call: random pairs, tied pairs
    # (u = v, |u| = |v| for Burgers, +-0.0) and NaN pairs, under normals
    # of either sign and +-0.0, on one step and on a block of steps
    rng = np.random.default_rng(21)
    E = 3000
    special = np.array([0.0, -0.0, np.nan, 0.5, -0.5, 1.0, -1.0])
    u = rng.uniform(-1.0, 1.0, (E, 1))
    v = rng.uniform(-1.0, 1.0, (E, 1))
    pick = rng.random((E, 1))
    v = np.where(pick < 0.2, u, np.where(pick < 0.4, -u, v))
    u[::7] = rng.choice(special, (len(u[::7]), 1))
    v[::5] = rng.choice(special, (len(v[::5]), 1))
    normals = rng.choice([1.0, -1.0, 0.0, -0.0], (E, 1))
    for sysm in (burgers_sys, advection_sys):
        bound = hf.make_godunov_scalar(sysm).bind(normals)
        for uu, vv in ((u, v), (v, u), (np.stack([u, v]), np.stack([v, u]))):
            with np.errstate(invalid="ignore"):
                got = bound.update(uu, vv).parts[0]
                want = _godunov_state_running(sysm, uu, vv, normals)
            assert same_bits(got, want)


def test_shallow_water_lambda_star_scratch_is_bounded():
    # the sw-run system's 14,520 grid pairs: the kernel runs on chunks of
    # pairs (one chunk here) and its records go before the bisection's
    # sweeps, which need the whole batch: about 10.6 scratch chunks, where
    # records held through the sweeps took about 13.7
    sysm = hf.make_shallow_water_1d(9.81, 0.8, 1.7, 1.0)
    sch, peak, kept = traced_peak(numflux.make_rusanov, sysm, "auto")
    assert peak - kept <= 11 * SCRATCH_BYTES
    assert sch.lambda_star == 9.81700548140926


def test_pair_records_in_chunks_keep_the_bits(shallow_water_sys,
                                              friedrichs_sys, monkeypatch):
    # chunks of 1000 pairs and a remainder give each pair term the bits of
    # one batch (one chunk at the scratch bound): the bisection (shallow
    # water) and the closed form (friedrichs1d, whose lambda* it sets)
    terms = {}
    for chunked in (False, True):
        if chunked:
            monkeypatch.setattr(
                numflux, "scratch_slices", lambda n, per_item: (
                    slice(i, i + 1000) for i in range(0, n, 1000)))
        for sysm in (shallow_water_sys, friedrichs_sys):
            U, V, nd = fixed_pairs(sysm)
            assert len(U) % 1000
            calls = []
            sch = count_kernel_parts(hf.make_rusanov(sysm), calls, "records")
            if sysm.beta0 == sysm.beta1:
                lam = numflux._closed_form_pair_lambda(sysm, sch, U, V, nd)
            else:
                lam = numflux._bisected_pair_lambda(sysm, sch, sch.params["c"],
                                                    U, V, nd)
            assert len(calls) == (-(-len(U) // 1000) if chunked else 1)
            terms.setdefault(sysm.name, []).append(lam)
    assert all(a == b for a, b in terms.values()), terms
    assert terms["friedrichs1d"][0] * 1.02 == hf.make_rusanov(
        friedrichs_sys).lambda_star


def test_make_rusanov_scratch_is_bounded():
    # the near-equal quotient of the 2D system covers 132 directions x
    # 2001 states; in one batch it needed about 25 scratch chunks
    sysm = hf.make_advection(2, [1.0, 0.5], u_range=(-0.45, 0.65))
    sch, peak, kept = traced_peak(numflux.make_rusanov, sysm, "auto")
    assert peak - kept <= 10 * SCRATCH_BYTES
    assert sch.lambda_star == hf.make_rusanov(sysm).lambda_star

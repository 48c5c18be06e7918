"""Entropy-satisfying numerical fluxes and their machine-checkable axioms.

Two schemes are provided: Rusanov (any system) and the exact Riemann /
Godunov flux (scalar systems).  Each carries a numerical entropy flux
xi_KL and a stability parameter lambda_star chosen so that the four flux
axioms hold: conservativity and consistency of both fluxes, preservation
of the admissible set by the interface update, and the interfacial
entropy inequality

    xi_KL(u,v) - xi(u).n  <=  -lam * (eta(u - (G - f(u).n)/lam) - eta(u))

for every lam >= lambda_star.  For Rusanov with the midpoint entropy flux
xi_KL = (X_KL(u,v) - X_LK(v,u))/2 the inequality fails at lam = c (the
wave-speed parameter) for states moving against the interface normal; the
sharp threshold in the near-equal-state limit is the largest generalized
eigenvalue of (cI - Df_n)^T D2eta (cI - Df_n) against 2c D2eta, which is
(c + M)^2 / (2c) for constant-Hessian entropies with wave speeds up to M.
`make_rusanov` therefore calibrates lambda_star over that quotient on a
state grid plus a bisection scan of sampled state pairs, with a small
safety margin.

Each scheme has one interface kernel, which evaluates f(u).n, f(v).n,
xi(u).n, xi(v).n, Deta(u) and Deta(v) once and derives G_KL, xi_KL, X_KL,
the defect and the dissipation gap from them; `FluxScheme.g` and
`.xi_num` are views of it.  The Godunov state is exact (Osher form): f.n
is extremal over the interval hull of (u, v) at an endpoint or at a
critical point of f.n, so the kernel compares those candidates only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConstructionError
from .systems import (SystemModel, _as_direction, axis_sum,
                      generalized_eigvalsh)


@dataclass
class FluxScheme:
    """Numerical flux pair (G_KL, xi_KL) with its stability parameter."""

    name: str
    kernel: Callable   # (u, v, n) -> InterfaceFluxRecords
    lambda_star: float
    params: dict = field(default_factory=dict)

    def g(self, u, v, n):
        """G_KL(u, v, n), shape (..., m)."""
        return self.kernel(u, v, n).g_value

    def xi_num(self, u, v, n):
        """xi_KL(u, v, n), shape (...)."""
        return self.kernel(u, v, n).xi_value


@dataclass
class InterfaceFluxRecords:
    """Per-interface flux data for one time level (struct of arrays)."""

    g_value: np.ndarray          # (E, m)
    xi_value: np.ndarray         # (E,)
    x_kl: np.ndarray             # (E,)
    xi_left: np.ndarray          # (E,), xi(u_K).n
    defect: np.ndarray           # (E,), |G - f(u_K).n|
    dissipation_gap: np.ndarray  # (E,), X_KL - xi_KL


@dataclass
class DissipationGapCheck:
    gap: np.ndarray
    lower_bound: np.ndarray
    passed: np.ndarray


# ---------------------------------------------------------------------------
# wave speeds
# ---------------------------------------------------------------------------

def sample_wave_speed_sup(sys: SystemModel, samples: int = 4096,
                          seed: int = 0) -> float:
    """Sampled sup over Omega and unit directions of the wave-speed bound."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([sys.omega.sample(rng, samples), sys.omega.extreme_points()])
    if sys.m == 1:
        grid = np.linspace(sys.omega.lo[0], sys.omega.hi[0], 4001).reshape(-1, 1)
        pts = np.vstack([pts, grid])
    best = 0.0
    for n in _unit_directions(sys.d):
        best = max(best, float(sys.max_wave_speed(pts, n).max()))
    return best


def _unit_directions(d, n_angles=64):
    if d == 1:
        return [np.array([1.0])]
    th = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = [np.array([np.cos(t), np.sin(t)]) for t in th]
    return dirs + [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def make_rusanov(sys: SystemModel, c="auto", samples: int = 4096,
                 seed: int = 0) -> FluxScheme:
    """Rusanov flux G = (f(u)+f(v)).n/2 - c (v-u)/2.

    c must dominate the wave speeds over Omega ("auto": sampled sup
    inflated by 5%).  The numerical entropy flux is the midpoint of the
    one-sided dissipation fluxes, xi_KL = (X_KL(u,v) - X_LK(v,u))/2, and
    lambda_star is calibrated so the interfacial entropy inequality holds
    (see module docstring).
    """
    speed_sup = sample_wave_speed_sup(sys, samples=samples, seed=seed)
    if c == "auto":
        c_val = 1.05 * speed_sup
    else:
        c_val = float(c)
        if c_val < speed_sup:
            raise ConstructionError(
                f"Rusanov speed {c_val} is below the sampled wave-speed sup "
                f"{speed_sup:.6g}")

    def kernel(u, v, n):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        fu = sys.directional_flux(u, n)
        fv = sys.directional_flux(v, n)
        g = 0.5 * (fu + fv) - (0.5 * c_val) * (v - u)
        xi_u = sys.directional_entropy_flux(u, n)
        delta = g - fu
        x = _dissipation_flux(sys, u, delta, xi_u)
        # X_LK(v, u) is -(xi(v).n + Deta(v).(G - f(v).n)) bit for bit:
        # G(v, u, -n) = -G and f(v).(-n) = -f(v).n hold exactly in IEEE
        # arithmetic, so the reverse orientation needs no evaluation
        x_rev = _dissipation_flux(sys, v, g - fv,
                                  sys.directional_entropy_flux(v, n))
        return _records(g, delta, xi_u, x, 0.5 * (x + x_rev))

    lam = _calibrate_lambda_star(sys, kernel, c_val, seed=seed,
                                 rusanov_c=c_val)
    return FluxScheme(name="rusanov", kernel=kernel, lambda_star=lam,
                      params={"c": c_val, "wave_speed_sup": speed_sup})


def make_godunov_scalar(sys: SystemModel, samples: int = 4096,
                        seed: int = 0) -> FluxScheme:
    """Exact Riemann (Godunov) flux for scalar systems, in Osher form.

    With f_n(w) = f(w).n the flux is min_{[u,v]} f_n for u <= v and
    max_{[v,u]} f_n otherwise; the numerical entropy flux is xi(w*).n at
    the minimizing/maximizing state (the Riemann trace at the interface).
    The system must list the critical points of f_n
    (`flux_critical_points`), which makes w* exact.  lambda_star is the
    sampled wave-speed sup inflated by 5% (the entropy inequality
    calibration below confirms it and can only raise it).
    """
    if sys.m != 1:
        raise ConstructionError("the Godunov flux is provided for scalar systems only")
    if sys.d != 1:
        raise ConstructionError(
            f"{sys.name}: the Godunov flux is provided in 1D only")
    if sys.flux_critical_points is None:
        raise ConstructionError(
            f"{sys.name}: the Godunov flux needs the critical points of f.n "
            "(flux_critical_points)")
    speed_sup = sample_wave_speed_sup(sys, samples=samples, seed=seed)

    def kernel(u, v, n):
        w = _godunov_state(sys, u, v, n)
        g = sys.directional_flux(w, n)
        xi_u = sys.directional_entropy_flux(u, n)
        delta = g - sys.directional_flux(u, n)
        x = _dissipation_flux(sys, u, delta, xi_u)
        return _records(g, delta, xi_u, x, sys.directional_entropy_flux(w, n))

    lam = max(1.05 * speed_sup,
              _calibrate_lambda_star(sys, kernel, 1.05 * speed_sup,
                                     seed=seed, rusanov_c=None,
                                     include_c_floor=False))
    return FluxScheme(name="godunov", kernel=kernel, lambda_star=lam,
                      params={"wave_speed_sup": speed_sup})


def _godunov_state(sys, u, v, n):
    """Arg-min/arg-max of f_n over the interval hull of (u, v), exactly.

    A continuous f_n is extremal on [lo, hi] at an endpoint or at a
    critical point of f_n inside it (Osher 1984), so the candidates are
    lo, hi and the critical points clipped to [lo, hi].  The endpoints
    come first, so ties resolve to them.  Both orientations of an
    interface compare the same candidates, so conservativity holds
    bitwise.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    a, b = u[..., 0], v[..., 0]
    n = _as_direction(n, 1)
    ncoef = np.broadcast_to(n[..., 0], a.shape).astype(float)
    # minimize ncoef*f on [lo,hi] when u<=v, else maximize f_n = minimize (-ncoef)*f
    coef = np.where(a <= b, 1.0, -1.0) * ncoef
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    cand = np.stack([lo, hi] + [
        np.clip(np.broadcast_to(wc, a.shape), lo, hi)
        for wc in np.atleast_1d(sys.flux_critical_points(n))], axis=0)
    vals = coef * sys.flux(cand[..., None], 0)[..., 0]
    w_star = np.take_along_axis(cand, np.argmin(vals, axis=0)[None], axis=0)[0]
    return w_star[..., None]


def _dissipation_flux(sys, w, delta, xi_w):
    """xi(w).n + Deta(w).delta with delta = g - f(w).n; X_KL for w = u."""
    return xi_w + axis_sum(sys.entropy_gradient(w) * delta)


def _records(g, delta, xi_u, x, xi) -> InterfaceFluxRecords:
    """Records of G = g with delta = G - f(u).n."""
    return InterfaceFluxRecords(
        g_value=g, xi_value=xi, x_kl=x, xi_left=xi_u,
        defect=np.sqrt(axis_sum(delta ** 2)), dissipation_gap=x - xi)


# ---------------------------------------------------------------------------
# dissipation flux and checks
# ---------------------------------------------------------------------------

def x_flux(sys: SystemModel, scheme: FluxScheme, u, v, n, check: bool = True):
    """Dissipation flux X_KL = xi(u).n + Deta(u).(G(u,v,n) - f(u).n)."""
    if check:
        sys.require_admissible(u, v)
    return scheme.kernel(u, v, n).x_kl


def dissipation_gap_check(sys: SystemModel, scheme: FluxScheme, u, v, n,
                          tol: float = 1e-10) -> DissipationGapCheck:
    """Check X_KL - xi_KL >= beta0/(2 lambda*) |G - f(u).n|^2."""
    sys.require_admissible(u, v)
    rec = scheme.kernel(u, v, n)
    gap = rec.dissipation_gap
    lower = (sys.beta0 / (2.0 * scheme.lambda_star)) * rec.defect ** 2
    passed = gap >= lower - tol * np.maximum(1.0, np.abs(gap))
    return DissipationGapCheck(gap=gap, lower_bound=lower, passed=passed)


def omega_stability_check(sys: SystemModel, scheme: FluxScheme, u, v, n,
                          lam: Optional[float] = None):
    """Whether u - (G(u,v,n) - f(u).n)/lam stays in the preserved convex set.

    For box sets (plain or in characteristic coordinates) this is plain
    membership; for positivity-constrained sets (shallow water) the set
    the flux theory preserves is positivity of the water height, not the
    bounded sampling hull (box corners are not interface-invariant for
    any lam).
    """
    if lam is None:
        lam = scheme.lambda_star
    if lam < scheme.lambda_star * (1.0 - 1e-12):
        raise ValueError("lam must be at least lambda_star")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    shifted = u - (scheme.g(u, v, n) - sys.directional_flux(u, n)) / lam
    return sys.omega.stable_contains(shifted)


# ---------------------------------------------------------------------------
# lambda_star calibration
# ---------------------------------------------------------------------------

def _calibrate_lambda_star(sys: SystemModel, kernel, c: float,
                           seed: int, rusanov_c: Optional[float],
                           include_c_floor: bool = True) -> float:
    """Smallest lambda (with margin) making the entropy inequality hold.

    Combines the closed-form near-equal-state quotient (Rusanov only) on a
    state grid with a geometric bisection of the critical lambda on
    sampled finite state pairs.  The margin is 2% for constant-Hessian
    entropies (where the quotient is exact) and 5% otherwise.
    """
    rng = np.random.default_rng(seed + 1)
    omega = sys.omega
    margin = 1.02 if sys.beta0 == sys.beta1 else 1.05
    best = c if include_c_floor else 0.0

    if rusanov_c is not None:
        pts = np.vstack([omega.sample(rng, 512), omega.extreme_points()])
        if sys.m == 1:
            grid = np.linspace(omega.lo[0], omega.hi[0], 2001).reshape(-1, 1)
            pts = np.vstack([pts, grid])
        for n in _axis_directions(sys.d):
            best = max(best, _near_equal_lambda(sys, pts, n, rusanov_c))

    # finite pairs: random, corner-anchored, and near-equal
    n_pairs = 4096
    us = omega.sample(rng, n_pairs)
    vs = omega.sample(rng, n_pairs)
    corners = omega.extreme_points()
    cu = np.repeat(corners, len(corners), axis=0)
    cv = np.tile(corners, (len(corners), 1))
    eps_pairs_u, eps_pairs_v = [], []
    for t in (1e-3, 1e-2, 1e-1):
        eps_pairs_u.append(us)
        eps_pairs_v.append(us + t * (vs - us))
    U = np.vstack([us, cu] + eps_pairs_u)
    V = np.vstack([vs, cv] + eps_pairs_v)
    dirs = _axis_directions(sys.d)
    nd = np.stack([dirs[i % len(dirs)] for i in range(U.shape[0])])

    rec = kernel(U, V, nd)
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
    best = max(best, float(lam_hi.max()))
    return margin * best


def _axis_directions(d):
    if d == 1:
        return [np.array([1.0]), np.array([-1.0])]
    dirs = []
    for a in range(d):
        e = np.zeros(d)
        e[a] = 1.0
        dirs.extend([e.copy(), -e])
    # full circle: the entropy-inequality threshold peaks for states moving
    # against the normal, so half-circle coverage misses the worst direction
    th = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    dirs.extend(np.array([np.cos(t), np.sin(t)]) for t in th)
    return dirs


def _near_equal_lambda(sys, pts, n, c):
    """sup_w of w^T (cI - Df_n)^T B (cI - Df_n) w / (2c w^T B w) over pts."""
    dfn = sys.directional_jacobian(pts, n)
    B = sys.entropy_hessian(pts)
    eye = np.eye(sys.m)
    M = c * eye - dfn
    S = np.swapaxes(M, -1, -2) @ B @ M
    if sys.m == 1:
        q = (S[..., 0, 0] / (2.0 * c * B[..., 0, 0]))
        return float(q.max())
    return float(generalized_eigvalsh(S, 2.0 * c * B).max())

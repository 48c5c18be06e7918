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
state grid and over finite state pairs, with a small safety margin.

For a constant Hessian D2eta = beta0 I (advection, Burgers, Friedrichs)
the inequality is exactly quadratic in 1/lam (Tadmor 1987; Bouchut 2004):
with delta = G - f(u).n,

    -lam * (eta(u - delta/lam) - eta(u)) = Deta(u).delta - beta0 |delta|^2 / (2 lam),

so it reads X_KL - xi_KL >= beta0 |delta|^2 / (2 lam), and each pair's
critical lam is beta0 |delta|^2 / (2 (X_KL - xi_KL)) in closed form.  These
systems take the maximum of that over a fixed grid of pairs; other
entropies (shallow water) bisect the critical lam of the same pairs.  The
wave speeds behind c and the near-equal quotient are maxima over the
fixed states of `systems.setup_states`: no scheme depends on the seed,
and each max is a lower bound of its sup over Omega.

Each scheme's interface kernel has two parts.  The update part, which the
time loop runs every step, gives G_KL and the intermediates the records
reuse: f(u).n and f(v).n for Rusanov, the Godunov state w* for Godunov.
The records part takes that `InterfaceUpdate` with any leading shape (a
block of steps stacks them on a leading axis) and derives xi_KL, X_KL,
xi(u).n, the defect and the dissipation gap; every operation is
elementwise per interface, so a block gives the bits of its steps one by
one.  The records part takes the update over: it may overwrite the
update's arrays (Rusanov forms G - f(u).n and G - f(v).n in the buffers
of f(u).n and f(v).n) and release them (it sets `left` and `right` to
None once it is done with them), so a caller that still needs an update
hands it a copy.  Both parts are bound to one array of normals
(`FluxScheme.bind`, through `SystemModel.bind`), so what depends on the
normals alone, such as advection's normal speed, is formed once; a run
binds its mesh's normals once.  `FluxScheme.kernel` binds and runs the
two parts in turn on a fresh update, and `.g` and `.xi_num` read from
them.  The Godunov state is exact (Osher form): f.n is extremal over the
interval hull of (u, v) at an endpoint or at a critical point of f.n, so
the update compares those candidates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConstructionError
from .systems import (SystemModel, _as_direction, _pair_grid_size, axis_dot,
                      axis_norm, eigvals_extremes, scratch_slices,
                      setup_states)


class BoundKernel(NamedTuple):
    """The two parts of a scheme's interface kernel on one fixed array of
    normals (`FluxScheme.bind`)."""

    update: Callable   # (u, v) -> InterfaceUpdate, run every step
    records: Callable  # (InterfaceUpdate) -> InterfaceFluxRecords; may
    #                    overwrite and release the update it is handed


@dataclass
class FluxScheme:
    """Numerical flux pair (G_KL, xi_KL) with its stability parameter.

    `bind(n)` gives the kernel on the normals n; a run binds its mesh's
    normals once.  The methods bind on every call."""

    name: str
    bind: Callable     # (n) -> BoundKernel
    lambda_star: float
    params: dict = field(default_factory=dict)

    def update(self, u, v, n):
        """The update part on (u, v, n): an `InterfaceUpdate`."""
        return self.bind(n).update(u, v)

    def records(self, update, n):
        """The records part on an update of normals n; it may overwrite
        and release the update."""
        return self.bind(n).records(update)

    def kernel(self, u, v, n):
        """Both parts of the interface kernel: the records of (u, v, n)."""
        bound = self.bind(n)
        return bound.records(bound.update(u, v))

    def g(self, u, v, n):
        """G_KL(u, v, n), shape (..., m)."""
        return self.update(u, v, n).g_value

    def xi_num(self, u, v, n):
        """xi_KL(u, v, n), shape (...)."""
        return self.kernel(u, v, n).xi_value


@dataclass
class InterfaceUpdate:
    """The update part's output: G_KL of u_K = `left` and u_L = `right`,
    with the intermediates that the records part reuses."""

    g_value: np.ndarray   # (..., E, m)
    left: np.ndarray      # (..., E, m)
    right: np.ndarray     # (..., E, m)
    parts: tuple = ()     # Rusanov: (f(u).n, f(v).n); Godunov: (w*,)


@dataclass
class InterfaceFluxRecords:
    """Per-interface flux data (struct of arrays); a block of steps adds a
    leading step axis to every array."""

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

def sample_wave_speed_sup(sys: SystemModel) -> float:
    """The sup over Omega and unit directions of the wave-speed bound.

    Linear advection's wave speed is |a_n| = |n.c| in every state, whose
    sup over unit n is |c|: the norm of its bound normal speeds on the
    axes, which are c exactly.  Any other system takes the max over
    `setup_states` and the directions of `_axis_directions` (the set of
    the lambda* calibration), a lower bound of the sup.
    """
    speeds = sys.bind(np.eye(sys.d)).normal_speed
    if speeds is not None:
        return math.hypot(*speeds.tolist())
    pts = setup_states(sys.omega)
    return max(float(sys.max_wave_speed(pts, n).max())
               for n in _axis_directions(sys.d))


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def make_rusanov(sys: SystemModel, c="auto") -> FluxScheme:
    """Rusanov flux G = (f(u)+f(v)).n/2 - c (v-u)/2.

    c must dominate the wave speeds over Omega ("auto":
    `sample_wave_speed_sup` inflated by 5%).  The numerical entropy flux
    is the midpoint of the one-sided dissipation fluxes,
    xi_KL = (X_KL(u,v) - X_LK(v,u))/2, and lambda_star is calibrated so
    the interfacial entropy inequality holds (see module docstring).
    """
    speed_sup = sample_wave_speed_sup(sys)
    if c == "auto":
        c_val = 1.05 * speed_sup
    else:
        c_val = float(c)
        if c_val < speed_sup:
            raise ConstructionError(
                f"Rusanov speed {c_val} is below the wave-speed max "
                f"{speed_sup:.6g}")

    def bind(n):
        forms = sys.bind(n)

        def update(u, v):
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            fu = forms.flux(u)
            fv = forms.flux(v)
            # 0.5 (fu + fv) - (0.5 c) (v - u), each product in its sum's
            # buffer
            g = fu + fv
            g *= 0.5
            jump = v - u
            jump *= 0.5 * c_val
            g -= jump
            return InterfaceUpdate(g, u, v, (fu, fv))

        def records(step):
            u, v, g = step.left, step.right, step.g_value
            fu, fv = step.parts
            xi_u = forms.entropy_flux(u)
            delta = _minus(g, fu)
            x = _dissipation_flux(sys, u, delta, xi_u)
            step.left = u = None
            # X_LK(v, u) is -(xi(v).n + Deta(v).(G - f(v).n)) bit for bit:
            # G(v, u, -n) = -G and f(v).(-n) = -f(v).n hold exactly in IEEE
            # arithmetic, so the reverse orientation needs no evaluation.
            # xi = 0.5 (x + x_rev) is formed in x_rev's buffer: a sum and a
            # product are the same float in either operand order
            xi = _dissipation_flux(sys, v, _minus(g, fv),
                                   forms.entropy_flux(v))
            step.right = v = None
            xi += x
            xi *= 0.5
            return _records(g, delta, xi_u, x, xi)

        return BoundKernel(update, records)

    scheme = FluxScheme(name="rusanov", bind=bind, lambda_star=np.nan,
                        params={"c": c_val, "wave_speed_sup": speed_sup})
    scheme.lambda_star, scheme.params["lambda_star_source"] = \
        _calibrate_lambda_star(sys, scheme, c_val, rusanov_c=c_val)
    return scheme


def make_godunov_scalar(sys: SystemModel) -> FluxScheme:
    """Exact Riemann (Godunov) flux for scalar systems, in Osher form.

    With f_n(w) = f(w).n the flux is min_{[u,v]} f_n for u <= v and
    max_{[v,u]} f_n otherwise; the numerical entropy flux is xi(w*).n at
    the minimizing/maximizing state (the Riemann trace at the interface).
    The system must list the critical points of f_n
    (`flux_critical_points`), which makes w* exact.  lambda_star is
    `sample_wave_speed_sup` inflated by 5% (the entropy inequality
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
    speed_sup = sample_wave_speed_sup(sys)

    def bind(n):
        forms = sys.bind(n)
        state = _godunov_states(sys, n)

        def update(u, v):
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            w = state(u, v)
            return InterfaceUpdate(forms.flux(w), u, v, (w,))

        def records(step):
            u, g = step.left, step.g_value
            (w,) = step.parts
            xi_u = forms.entropy_flux(u)
            delta = _minus(g, forms.flux(u))
            x = _dissipation_flux(sys, u, delta, xi_u)
            return _records(g, delta, xi_u, x, forms.entropy_flux(w))

        return BoundKernel(update, records)

    scheme = FluxScheme(name="godunov", bind=bind, lambda_star=np.nan,
                        params={"wave_speed_sup": speed_sup})
    floor = 1.05 * speed_sup
    lam, source = _calibrate_lambda_star(sys, scheme, floor, rusanov_c=None,
                                         include_c_floor=False)
    if floor >= lam:
        lam, source = floor, "wave-speed"
    scheme.lambda_star, scheme.params["lambda_star_source"] = lam, source
    return scheme


def _godunov_state(sys, u, v, n):
    """Arg-min/arg-max of f_n over the interval hull of (u, v), exactly:
    `_godunov_states` bound to n, on (u, v)."""
    return _godunov_states(sys, n)(u, v)


def _godunov_states(sys, n):
    """(u, v) -> the arg-min/arg-max of f_n over the interval hull of
    (u, v), exactly, on the normals n.

    A continuous f_n is extremal on [lo, hi] at an endpoint or at a
    critical point of f_n inside it (Osher 1984), so the candidates are
    lo, hi and the critical points clipped to [lo, hi].  What depends on
    n alone is formed once: the orientation coefficients, +n for u <= v
    (minimize f_n) and -n otherwise (maximize it), and the critical
    points.  A running best goes through the candidates in that order
    under argmin's rules: a candidate replaces it only when strictly
    smaller, or when it is the first NaN, so the endpoints win ties.  Both
    orientations of an interface compare the same candidates, so
    conservativity holds bitwise.
    """
    n = _as_direction(n, 1)
    ncoef = n[..., 0].astype(float)
    flipped = -ncoef
    critical = np.atleast_1d(sys.flux_critical_points(n))

    def f(w):
        return sys.flux(w[..., None], 0)[..., 0]

    def state(u, v):
        a, b = u[..., 0], v[..., 0]
        coef = np.where(a <= b, ncoef, flipped)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        w_star = lo
        best = coef * f(lo)
        # np.clip's bits, without its Python wrapper
        for w in [hi] + [np.minimum(np.maximum(wc, lo), hi)
                         for wc in critical]:
            val = coef * f(w)
            # val < best, or val is the first NaN: not val >= best, unless
            # best is a NaN already
            better = ~(val >= best)
            better &= best == best
            w_star = np.where(better, w, w_star)
            best = np.where(better, val, best)
        return w_star[..., None]

    return state


def _dissipation_flux(sys, w, delta, xi_w):
    """xi(w).n + Deta(w).delta with delta = g - f(w).n; X_KL for w = u.

    Formed in the buffer of the dot product, which has the shape of the
    sum: a sum is the same float in either operand order."""
    x = axis_dot(sys.entropy_gradient(w), delta)
    x += xi_w
    return x


def _minus(g, f):
    """g - f, in f's buffer when f has the shape of the difference (a
    one-sided flux of the update, which the records part may overwrite)."""
    return np.subtract(g, f, out=f if f.shape == g.shape else None)


def _records(g, delta, xi_u, x, xi) -> InterfaceFluxRecords:
    """Records of G = g with delta = G - f(u).n."""
    return InterfaceFluxRecords(
        g_value=g, xi_value=xi, x_kl=x, xi_left=xi_u,
        defect=axis_norm(delta), dissipation_gap=x - xi)


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

def _calibrate_lambda_star(sys: SystemModel, scheme: FluxScheme, c: float,
                           rusanov_c: Optional[float],
                           include_c_floor: bool = True):
    """Smallest lambda (with margin) making the entropy inequality hold,
    and the name of the term that set it.

    The terms are the floor c (`include_c_floor`), the closed-form
    near-equal-state quotient (Rusanov only, `rusanov_c`) on
    `setup_states`, and the largest critical lambda of the pairs of
    `_grid_pairs` with their `_cycled_directions`; the term names are
    "c", "near-equal" and "pairs".  A constant Hessian (beta0 == beta1)
    gives each pair's critical lambda in closed form (module docstring),
    and the margin is 2%.  Otherwise a geometric bisection finds it, and
    the margin is 5%.  A pair no finite lambda satisfies raises
    ConstructionError.
    """
    U, V = _grid_pairs(sys.omega, _pair_grid_size(sys.m))
    nd = _cycled_directions(sys.d, len(U))
    terms = {"c": c} if include_c_floor else {}
    if rusanov_c is not None:
        terms["near-equal"] = _near_equal_lambda(
            sys, setup_states(sys.omega), rusanov_c)
    if sys.beta0 == sys.beta1:
        margin = 1.02
        terms["pairs"] = _closed_form_pair_lambda(sys, scheme, U, V, nd)
    else:
        margin = 1.05
        terms["pairs"] = _bisected_pair_lambda(sys, scheme, c, U, V, nd)
    # the first of equal terms names the source: pairs only when larger
    source = max(terms, key=terms.get)
    return margin * terms[source], source


def _grid_pairs(omega, k):
    """All ordered pairs (u, v) of the k^m hull grid that `_far_apart` keeps."""
    pts = omega.grid(k)
    U = np.repeat(pts, len(pts), axis=0)
    V = np.tile(pts, (len(pts), 1))
    far = _far_apart(omega, U, V)
    return U[far], V[far]


def _far_apart(omega, U, V):
    """Whether |v - u| exceeds 1e-6 diam Omega, pair by pair.  The
    near-equal quotient covers the limit v -> u, where a pair's critical
    lambda is roundoff over roundoff."""
    return axis_norm(V - U) > 1e-6 * axis_norm(omega.hi - omega.lo)


def _cycled_directions(d, n):
    """n directions, cycling through `_axis_directions(d)`."""
    dirs = np.asarray(_axis_directions(d))
    return dirs[np.arange(n) % len(dirs)]


def _pair_records(scheme, U, V, nd):
    """(chunk, records) of the pairs (U, V) with normals nd, a chunk of
    pairs under the scratch bound at a time (`scratch_slices`, counting a
    pair's m state entries, so that each (pairs, m) array of the kernel is
    at most one scratch chunk).  The kernel works pair by pair, so each
    pair's records have the bits of one batch over all of them."""
    for chunk in scratch_slices(len(U), U.shape[-1]):
        yield chunk, scheme.kernel(U[chunk], V[chunk], nd[chunk])


def _closed_form_pair_lambda(sys, scheme, U, V, nd):
    """max over the pairs (U, V) with normals nd of
    beta0 |delta|^2 / (2 (X_KL - xi_KL)).

    One kernel call per chunk of pairs and no entropy evaluation: the
    defect and the gap of the records are all the closed form needs.  A
    pair with a negative gap, or a zero gap and delta != 0, satisfies no
    finite lambda.  The largest of the chunks' maxima is the maximum.
    """
    lam_max = -np.inf
    for chunk, rec in _pair_records(scheme, U, V, nd):
        d2 = rec.defect ** 2
        gap = rec.dissipation_gap
        bad = ~(np.isfinite(d2) & np.where(d2 > 0.0, gap > 0.0, gap >= 0.0))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ConstructionError(
                f"{sys.name}: no finite lambda satisfies the interfacial "
                f"entropy inequality at u={U[chunk][i]}, v={V[chunk][i]} "
                f"(dissipation gap {gap[i]:.3g}, defect {rec.defect[i]:.3g}); "
                "the flux is not entropy dissipative")
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(d2 > 0.0, sys.beta0 * d2 / (2.0 * gap), 0.0)
        lam_max = max(lam_max, float(lam.max()))
    return lam_max


def _bisected_pair_lambda(sys, scheme, c, U, V, nd):
    """Largest critical lambda of the pairs (U, V) with normals nd, by
    geometric bisection.

    The kernel runs a chunk of pairs at a time (`_pair_records`), and its
    records go once the sweeps' per-pair inputs are taken from them; only
    those inputs are whole, so that the sweeps run in lockstep over every
    pair.  Only a pair whose bracket reaches the largest lower end can
    hold the maximum: brackets only shrink, and sqrt(lo hi) stays inside
    them (rounding is monotone and sqrt(x * x) == x), so each sweep drops
    the pairs whose upper end is below it.  The kept pairs run the same
    elementwise arithmetic, which gives the bits of bisecting all pairs.
    """
    lhs, delta = np.empty(len(U)), np.empty_like(U)
    for chunk, rec in _pair_records(scheme, U, V, nd):
        np.subtract(rec.xi_value, rec.xi_left, out=lhs[chunk])
        np.subtract(rec.g_value, sys.directional_flux(U[chunk], nd[chunk]),
                    out=delta[chunk])
        del rec  # the records go before the next chunk's and the sweeps
    eta_u = sys.entropy(U)

    def margin_at(lam, U, delta, lhs, eta_u):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            shifted = U - delta / lam[..., None]
            val = lhs + lam * (sys.entropy(shifted) - eta_u)
        return np.where(np.isfinite(val), val, np.inf)

    pairs = (U, delta, lhs, eta_u)
    lam_hi = np.full(U.shape[0], max(c, 1.0))
    for _ in range(60):
        bad = margin_at(lam_hi, *pairs) > 0.0
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
        viol = margin_at(mid, *pairs) > 0.0
        lam_lo = np.where(viol, mid, lam_lo)
        lam_hi = np.where(viol, lam_hi, mid)
        keep = lam_hi >= lam_lo.max()
        if not keep.all():
            lam_lo, lam_hi = lam_lo[keep], lam_hi[keep]
            pairs = tuple(a[keep] for a in pairs)
    return float(lam_hi.max())


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


def _near_equal_lambda(sys, pts, c):
    """sup_w of w^T (cI - Df_n)^T B (cI - Df_n) w / (2c w^T B w) over pts
    and the directions of `_axis_directions`.

    The directions go in chunks under the scratch bound (m^2 entries per
    point and direction), and the largest of the chunks' maxima is the
    maximum of one batch over all of them.
    """
    dirs = np.asarray(_axis_directions(sys.d))[:, None, :]
    B = sys.entropy_hessian(pts)
    per_dir = len(pts) * sys.m * sys.m
    return float(np.max([_near_equal_max(sys, pts, B, dirs[chunk], c)
                         for chunk in scratch_slices(len(dirs), per_dir)]))


def _near_equal_max(sys, pts, B, n, c):
    """The largest near-equal quotient over pts and the directions n,
    (k, 1, d), in one batched call."""
    M = c * np.eye(sys.m) - sys.directional_jacobian(pts, n)
    if sys.m == 1:
        # the 1x1 products of M^T B M, elementwise and in the same order
        m, b = M[..., 0, 0], B[..., 0, 0]
        return (m * b * m / (2.0 * c * b)).max()
    S = np.swapaxes(M, -1, -2) @ B @ M
    return eigvals_extremes(S, 2.0 * c * B)[1]

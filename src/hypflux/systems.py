"""Conservation-law system models and relative-entropy calculus.

A :class:`SystemModel` bundles the flux functions f_alpha, an entropy pair
(eta, xi) with Hessian spectral bounds [beta0, beta1], the admissible set
Omega, the entropy-weighted speed bound L_f, and a directional wave-speed
bound.  All evaluation callables are pure and vectorized over a leading
batch axis: states have shape (..., m).

Built-in systems: scalar linear advection, Burgers, symmetric (Friedrichs)
linear systems with eta = |u|^2, and 1D shallow water.  Analytic
derivatives are supplied everywhere; the test suite re-derives them by
finite differences as an independent oracle.  Each built-in system also
gives the relative entropy H(v, u) in closed form, free of the
cancellation of eta(v) - eta(u) - Deta(u).(v - u), which stays the form
of a system without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import AdmissibilityError, ConstructionError

_MBETA_GUARD = 1e-9  # slack for the admissibility tolerance in pair checks
_SHORT_AXIS = 8  # numpy reduces axes at least this long pairwise
_CONTAINS_TOL = 1e-12  # default relative slack of AdmissibleSet.contains
# The scratch bound: the batches that setup, the error fold and the
# snapshot writer form hold about this many float64 entries at a time
# (256 KiB, one interface array of a 128 x 128 quad mesh), so that a
# run's peak memory is what it keeps plus one bounded working set.  Only
# elementwise work and max/min are split into such chunks; no sum is
# reassociated, so no result depends on the bound.
SCRATCH_ENTRIES = 2 ** 15


def scratch_slices(n: int, per_item: int):
    """Slices over range(n), in order, of at most
    max(1, SCRATCH_ENTRIES // per_item) items each: the chunks of a batch
    of n items that take `per_item` entries each."""
    step = max(1, SCRATCH_ENTRIES // per_item)
    return (slice(start, start + step) for start in range(0, n, step))


# ---------------------------------------------------------------------------
# reductions over short axes
# ---------------------------------------------------------------------------

def axis_sum(x, axis: int = -1):
    """x.sum(axis) of a float array, bit for bit, without numpy's reduction
    overhead.

    numpy adds an axis shorter than 8 left to right, starting from 0.0,
    so (x_0 + 0.0) + x_1 + ... gives the same bits, -0.0 included (only
    the payload of a NaN may differ).  From 8 on numpy sums pairwise, so
    longer or empty axes go to `.sum`.  The state axis (m <= 2) and the
    midpoint quadrature axis (one point) are short.
    """
    n = x.shape[axis]
    if not 0 < n < _SHORT_AXIS:
        return x.sum(axis=axis)
    lead = (slice(None),) * (axis % x.ndim)
    out = x[lead + (0,)] + 0.0
    for k in range(1, n):
        out += x[lead + (k,)]
    return out


def axis_dot(a, b):
    """axis_sum(a * b) over the last axis, for arrays of one shape.

    A product of two one-column arrays is one elementwise pass; longer
    short axes add the products left to right, as `axis_sum` does.  The
    bits are those of axis_sum(a * b), but for the sign of a zero: a sum
    starts from +0.0, so where every product is -0.0 the sum is +0.0 and
    this gives -0.0.
    """
    n = a.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return axis_sum(a * b)
    out = a[..., 0] * b[..., 0]
    for k in range(1, n):
        out += a[..., k] * b[..., k]
    return out


def axis_norm(x):
    """sqrt(axis_sum(x ** 2)), the Euclidean norm over the last axis.

    A one-column x gives |x|, one pass.  That is the same float as
    sqrt(x * x) wherever x * x neither underflows nor overflows (a
    correctly rounded square root of a correctly rounded square is |x|),
    and more accurate where it does: for 0 < |x| < 2^-511 the square
    loses bits or flushes to zero, and above 2^512 it is inf.
    """
    if x.shape[-1] == 1:
        return np.abs(x[..., 0])
    return np.sqrt(axis_dot(x, x))


def axis_all(x):
    """np.all(x, axis=-1) of a boolean array, by plain ands on short axes."""
    n = x.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return np.all(x, axis=-1)
    out = x[..., 0]
    for k in range(1, n):
        out = out & x[..., k]
    return out[()] if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# admissible sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibleSet:
    """Convex bounded set of admissible states.

    kind "box": product of intervals [lo_i, hi_i] in the coordinates
        w = basis^T u (basis orthogonal; identity when None).  Linear
        symmetric systems use their eigenbasis: boxes in characteristic
        variables are the sets interface updates actually preserve,
        whereas state-space boxes and Euclidean balls are not.
    kind "positivity-constrained": box bounds define the bounded hull and
        run-admissibility test; the convex set preserved by interface
        updates is positivity of the first component (water height).
    """

    kind: str
    lo: np.ndarray
    hi: np.ndarray
    basis: Optional[np.ndarray] = None
    # (scale, lo - tol*scale, hi + tol*scale) at the default tol of contains
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, dtype=float)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, dtype=float)))
        if self.kind not in ("box", "positivity-constrained"):
            raise ConstructionError(f"unknown admissible-set kind {self.kind!r}")
        if np.any(self.hi <= self.lo):
            raise ConstructionError("admissible set has empty extent")
        if self.basis is not None:
            B = np.asarray(self.basis, dtype=float)
            if np.abs(B @ B.T - np.eye(B.shape[0])).max() > 1e-12:
                raise ConstructionError("admissible-set basis must be orthogonal")
            object.__setattr__(self, "basis", B)
        scale = np.maximum(1.0, np.maximum(np.abs(self.lo), np.abs(self.hi)))
        object.__setattr__(self, "_bounds", (
            scale, self.lo - _CONTAINS_TOL * scale,
            self.hi + _CONTAINS_TOL * scale))

    @property
    def m(self):
        return self.lo.shape[0]

    def _coords(self, u):
        u = np.asarray(u, dtype=float)
        return u if self.basis is None else u @ self.basis

    def contains(self, u, tol: float = _CONTAINS_TOL):
        """Membership in the bounded hull, broadcast over leading axes."""
        w = self._coords(u)
        scale, lo, hi = self._bounds
        if tol != _CONTAINS_TOL:
            lo, hi = self.lo - tol * scale, self.hi + tol * scale
        return axis_all((w >= lo) & (w <= hi))

    def stable_contains(self, u, tol: float = _CONTAINS_TOL):
        """Membership in the convex set preserved by interface updates."""
        u = np.asarray(u, dtype=float)
        if self.kind == "positivity-constrained":
            return u[..., 0] > 0.0
        return self.contains(u, tol=tol)

    def sample(self, rng, n: int):
        """n states drawn uniformly from the set (seeded generator)."""
        w = rng.uniform(self.lo, self.hi, size=(n, self.m))
        return w if self.basis is None else w @ self.basis.T

    def grid(self, k: int):
        """The k^m states of the tensor grid of the hull, k points from lo
        to hi per box coordinate (mapped back from box coordinates)."""
        axes = [np.linspace(self.lo[i], self.hi[i], k) for i in range(self.m)]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                        axis=-1)
        return grid if self.basis is None else grid @ self.basis.T

    def extreme_points(self):
        """Corners of the hull (mapped back from box coordinates)."""
        return self.grid(2)


# ---------------------------------------------------------------------------
# system model
# ---------------------------------------------------------------------------

class DirectionalForms(NamedTuple):
    """f(u).n and xi(u).n on one fixed array of normals n, (d,) or (..., d):
    what depends on n alone is formed once, when the forms are bound
    (`SystemModel.bind`)."""

    flux: Callable          # (u) -> (..., m)
    entropy_flux: Callable  # (u) -> (...)
    # a_n = sum_alpha n_alpha c_alpha when f(u).n = a_n u (linear
    # advection), else None
    normal_speed: Optional[np.ndarray] = None


@dataclass
class SystemModel:
    """Descriptor of a system of m conservation laws in d dimensions."""

    name: str
    m: int
    d: int
    flux: Callable               # (u, alpha) -> (..., m)
    flux_jacobian: Callable      # (u, alpha) -> (..., m, m)
    entropy: Callable            # (u) -> (...)
    entropy_gradient: Callable   # (u) -> (..., m)
    entropy_hessian: Callable    # (u) -> (..., m, m)
    entropy_flux: Callable       # (u, alpha) -> (...)
    beta0: float
    beta1: float
    omega: AdmissibleSet
    max_wave_speed: Callable     # (u, n) -> (...), bound on |eig(sum n_a Df_a)|
    lf: float = 0.0
    # (n) -> every state w where d(f.n)/dw = 0; the Godunov flux needs it
    flux_critical_points: Optional[Callable] = None
    params: dict = field(default_factory=dict)
    # (n) -> DirectionalForms of checked normals; None binds the per-axis
    # sums of flux and entropy_flux (`_axis_forms`)
    directional_forms: Optional[Callable] = None
    # (v, u, v - u) -> H(v, u) in closed form, without the cancellation of
    # eta(v) - eta(u) - Deta(u).(v - u); None takes that generic form
    relative_entropy: Optional[Callable] = None

    def require_admissible(self, *states, tol: float = 1e-12, what: str = "state"):
        for u in states:
            ok = self.omega.contains(u, tol=tol)
            if not np.all(ok):
                bad = np.asarray(u)[~np.atleast_1d(ok)][:1]
                raise AdmissibilityError(
                    f"{what} outside the admissible set of {self.name}: {bad}")

    def bind(self, n) -> DirectionalForms:
        """f(u).n and xi(u).n bound to the normals n, (d,) or (..., d)."""
        n = _as_direction(n, self.d)
        if self.directional_forms is not None:
            return self.directional_forms(n)
        return _axis_forms(self, n)

    def directional_flux(self, u, n):
        """sum_alpha n_alpha f_alpha(u); n has shape (d,) or (..., d)."""
        return self.bind(n).flux(u)

    def directional_jacobian(self, u, n):
        n = _as_direction(n, self.d)
        out = n[..., 0, None, None] * self.flux_jacobian(u, 0)
        for a in range(1, self.d):
            out = out + n[..., a, None, None] * self.flux_jacobian(u, a)
        return out

    def directional_entropy_flux(self, u, n):
        """sum_alpha n_alpha xi_alpha(u); n has shape (d,) or (..., d)."""
        return self.bind(n).entropy_flux(u)


def _axis_forms(sys: SystemModel, n) -> DirectionalForms:
    """The default binding: the sums over the axes of n_alpha f_alpha(u)
    and n_alpha xi_alpha(u), in axis order, with the columns of n taken
    once."""
    cols = [n[..., a] for a in range(sys.d)]
    flux_cols = [c[..., None] for c in cols]

    def flux(u):
        out = flux_cols[0] * sys.flux(u, 0)
        for a in range(1, sys.d):
            out = out + flux_cols[a] * sys.flux(u, a)
        return out

    def entropy_flux(u):
        out = cols[0] * sys.entropy_flux(u, 0)
        for a in range(1, sys.d):
            out = out + cols[a] * sys.entropy_flux(u, a)
        return out

    return DirectionalForms(flux, entropy_flux)


def _as_direction(n, d):
    n = np.asarray(n, dtype=float)
    if n.ndim == 0:
        if d != 1:
            raise ValueError("scalar direction only valid in 1D")
        n = n.reshape(1)
    if n.shape[-1] != d:
        raise ValueError(f"direction has wrong dimension {n.shape[-1]} != {d}")
    return n


@dataclass
class StateField:
    """Per-cell conserved states at one time level."""

    values: np.ndarray   # (n_cells, m)
    time: float
    mesh_id: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("state field values must have shape (n_cells, m)")

    def check_admissible(self, sys: SystemModel, tol: float = 1e-12):
        ok = sys.omega.contains(self.values, tol=tol)
        if not np.all(ok):
            cell = int(np.flatnonzero(~ok)[0])
            raise AdmissibilityError(
                f"cell {cell} holds inadmissible state {self.values[cell]} "
                f"at t={self.time!r}")
        return True


# ---------------------------------------------------------------------------
# relative entropy calculus
# ---------------------------------------------------------------------------

def relative_entropy(sys: SystemModel, v, u, check: bool = True):
    """H(v, u) = eta(v) - eta(u) - Deta(u).(v - u)."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if check:
        sys.require_admissible(v, u, tol=_MBETA_GUARD)
    return relative_entropy_terms(sys, v, u, v - u)


def relative_entropy_terms(sys: SystemModel, v, u, diff):
    """H(v, u) with diff = v - u at hand (no Omega check): the system's
    closed form (`SystemModel.relative_entropy`) where it has one, else
    eta(v) - eta(u) - Deta(u).diff."""
    if sys.relative_entropy is not None:
        return sys.relative_entropy(v, u, diff)
    return (sys.entropy(v) - sys.entropy(u)
            - axis_dot(sys.entropy_gradient(u), diff))


def relative_entropy_flux(sys: SystemModel, v, u, alpha: int, check: bool = True):
    """Q_alpha(v, u) = xi_a(v) - xi_a(u) - Deta(u).(f_a(v) - f_a(u))."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if check:
        sys.require_admissible(v, u, tol=_MBETA_GUARD)
    return (sys.entropy_flux(v, alpha) - sys.entropy_flux(u, alpha)
            - axis_sum(sys.entropy_gradient(u)
                       * (sys.flux(v, alpha) - sys.flux(u, alpha))))


def relative_z(sys: SystemModel, v, u, alpha: int, check: bool = True):
    """Z_alpha(v, u) = D2eta(u) (f_a(v) - f_a(u) - Df_a(u)(v - u))."""
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    if check:
        sys.require_admissible(v, u, tol=_MBETA_GUARD)
    rem = (sys.flux(v, alpha) - sys.flux(u, alpha)
           - np.einsum("...ij,...j->...i", sys.flux_jacobian(u, alpha), v - u))
    return np.einsum("...ij,...j->...i", sys.entropy_hessian(u), rem)


# ---------------------------------------------------------------------------
# constants estimation
# ---------------------------------------------------------------------------

def setup_states(omega: AdmissibleSet):
    """The one state set that every setup max reads: the hull grid, 2001
    points for m = 1 and about 128 states (11^2 for m = 2) otherwise.  Its
    corners are the extreme points.  A max over it is a lower bound of the
    sup over Omega, and it holds no random draw."""
    return omega.grid(2001 if omega.m == 1 else _pair_grid_size(omega.m))


def _pair_grid_size(m):
    """Grid points per axis: about 128 states, so about 16k ordered pairs."""
    return int(128 ** (1.0 / m))


def compute_lf(sys: SystemModel) -> float:
    """Entropy-weighted bound on flux-Jacobian spectra over Omega^2, as a
    max over the setup states.

    The inner sup over w of |w^T D2eta(v) Df_a(u) w| / (w^T D2eta(v) w) is
    exact per pair, a symmetric generalized eigenproblem (the quadratic
    form only sees the symmetric part).  For m = 1 it is |f_a'(u)|, a max
    over `setup_states`; otherwise (u, v) runs over every ordered pair of
    `setup_states`, the diagonal included, and `pencil_extremes` solves
    the pencils a chunk at a time, in closed form for m = 2.  A max over
    these pairs is a lower bound of the sup: on the shipped shallow-water
    box it reads 4.96496682067929 on 11^2 states and 4.965466528594629 on
    65^2.  The result is stored on the model.
    """
    pts = setup_states(sys.omega)
    if sys.m == 1:
        # quotient reduces to |f_a'(u)|, independent of v and w
        sys.lf = max(float(np.abs(sys.flux_jacobian(pts, a)).max())
                     for a in range(sys.d))
        return sys.lf

    best = 0.0
    k = len(pts)
    hess = sys.entropy_hessian(pts)
    for a in range(sys.d):
        jac = sys.flux_jacobian(pts, a)

        def pencils(items, jac=jac):
            # pair i * k + j is (u, v) = (pts[i], pts[j])
            i, j = np.divmod(np.arange(*items.indices(k * k)), k)
            B = hess[j]
            S = B @ jac[i]
            return 0.5 * (S + np.swapaxes(S, -1, -2)), B

        lo, hi = pencil_extremes(pencils, k * k)
        best = max(best, abs(lo), abs(hi))
    sys.lf = best
    return best


def generalized_eigvalsh(S, B):
    """Eigenvalues mu of S w = mu B w for symmetric S and definite B.

    Batched over leading axes: (..., m, m) -> (..., m), ascending.  With
    B = L L^T (Cholesky) the pencil has the eigenvalues of the symmetric
    matrix L^-1 S L^-T.
    """
    L_inv = np.linalg.inv(np.linalg.cholesky(B))
    return np.linalg.eigvalsh(L_inv @ S @ np.swapaxes(L_inv, -1, -2))


_CLOSED_FORM_MAX_COND = 1e4  # largest kappa(B) the closed form takes


def _sym2_eigvals(a, b, d):
    """(lo, hi) eigenvalues of the symmetric 2x2 matrices [[a, b], [b, d]],
    by the closed-form roots of their characteristic quadratic."""
    mean = 0.5 * (a + d)
    rad = np.hypot(0.5 * (a - d), b)
    return mean - rad, mean + rad


def _closed_form_eigvals(S, B):
    """Closed-form (lo, hi) eigenvalues of 2x2 pencils (S, B), (n, 2, 2) each
    (B = I when None), or None when B is not safely definite: the roots of
    the whitened matrix L^-1 S L^-T, B = L L^T."""
    s00, s01, s11 = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
    if B is None:
        return _sym2_eigvals(s00, s01, s11)
    b00, b01, b11 = B[:, 0, 0], B[:, 0, 1], B[:, 1, 1]
    b_lo, b_hi = _sym2_eigvals(b00, b01, b11)
    if not np.all((b_lo > 0.0) & (b_hi <= _CLOSED_FORM_MAX_COND * b_lo)):
        return None
    l00 = np.sqrt(b00)
    l10 = b01 / l00
    p = 1.0 / l00                       # L^-1 = [[p, 0], [r, t]]
    t = 1.0 / np.sqrt(b11 - l10 * l10)
    r = -l10 * p * t
    return _sym2_eigvals(p * p * s00, p * (r * s00 + t * s01),
                         r * r * s00 + 2.0 * r * t * s01 + t * t * s11)


def eigvals_extremes(S, B=None):
    """(min, max) over a batch of the eigenvalues of the symmetric pencils
    S w = mu B w, (..., m, m) each; B = I when None: `pencil_extremes`
    over the array, so in closed form for m = 2."""
    S = np.asarray(S, dtype=float)
    if B is not None:
        S, B = np.broadcast_arrays(S, np.asarray(B, dtype=float))
        B = B.reshape(-1, *B.shape[-2:])
    S = S.reshape(-1, *S.shape[-2:])
    return pencil_extremes(
        lambda items: (S[items], None if B is None else B[items]), len(S))


def pencil_extremes(pencils, n):
    """(min, max) of the eigenvalues of n symmetric pencils S w = mu B w,
    where pencils(items) gives (S, B) of a slice of them, (k, m, m) each,
    with B None for B = I.

    One pass over chunks under the scratch bound, folded into a running
    min and max that carry a NaN.  For m = 2 a chunk takes the closed-form
    eigenvalues of the whitened pencil (`_closed_form_eigvals`); m != 2, a
    chunk with a pencil beyond the conditioning cap and a chunk with a
    non-finite closed-form value go to `np.linalg.eigvalsh` (B = None) or
    `generalized_eigvalsh`.  Cholesky and the symmetric eigenvalues are
    backward stable, and Weyl's inequality carries a matrix error to the
    eigenvalues, so the two kernels differ by c eps kappa(B) |mu|_max per
    pencil, c a small constant: under the cap, about 1e-11 relative at
    worst and an ulp or two on the shipped systems.
    """
    lo, hi = np.inf, -np.inf
    for items in scratch_slices(n, 16):
        S, B = pencils(items)
        with np.errstate(all="ignore"):  # non-finite: LAPACK's numbers
            eigs = _closed_form_eigvals(S, B) if S.shape[-1] == 2 else None
        if eigs is None or not np.isfinite(eigs).all():
            eigs = (np.linalg.eigvalsh(S) if B is None
                    else generalized_eigvalsh(S, B))
        lo = np.minimum(lo, np.min(eigs))
        hi = np.maximum(hi, np.max(eigs))
    return float(lo), float(hi)


def estimate_cz(sys: SystemModel, samples: int = 2000, seed: int = 0,
                inflate: float = 1.01) -> float:
    """C_Z = 1/2 * sup|D2eta|_inf * sup|D2f_a . e|_2, sampled over Omega.

    D2f is obtained by central finite differences of the analytic Jacobian.
    """
    rng = np.random.default_rng(seed)
    pts = np.vstack([sys.omega.sample(rng, samples), sys.omega.extreme_points()])
    hess_inf = axis_sum(np.abs(sys.entropy_hessian(pts))).max()

    scale = np.maximum(1.0, np.abs(pts)).max()
    step = 1e-6 * scale
    best = 0.0
    dirs = np.vstack([np.eye(sys.m),
                      _unit_vectors(rng, 16, sys.m) if sys.m > 1 else np.empty((0, sys.m))])
    for a in range(sys.d):
        for e in dirs:
            dj = (sys.flux_jacobian(pts + step * e, a)
                  - sys.flux_jacobian(pts - step * e, a)) / (2 * step)
            best = max(best, float(np.linalg.norm(dj, ord=2, axis=(-2, -1)).max()))
    return inflate * 0.5 * float(hess_inf) * best


def _unit_vectors(rng, n, m):
    z = rng.standard_normal((n, m))
    return z / np.sqrt((z ** 2).sum(axis=-1, keepdims=True))


def validate_system(sys: SystemModel, samples: int = 1000, seed: int = 0) -> None:
    """Check the entropy-pair compatibility conditions on sampled states.

    The gradient of each entropy flux is formed by central finite
    differences and compared against Deta.Df (absolute tolerance 1e-8);
    the Hessian-Jacobian product must be symmetric to the same tolerance,
    and eta must be nonnegative on the sampled states.
    """
    rng = np.random.default_rng(seed)
    pts = sys.omega.sample(rng, samples)
    scale = np.maximum(1.0, np.abs(pts)).max()
    step = 1e-4 * scale  # 4th-order stencil: truncation and cancellation both small
    deta = sys.entropy_gradient(pts)
    for a in range(sys.d):
        jac = sys.flux_jacobian(pts, a)
        dxi_exact = np.einsum("...i,...ij->...j", deta, jac)
        dxi_fd = np.empty_like(dxi_exact)
        for k in range(sys.m):
            e = np.zeros(sys.m)
            e[k] = step
            dxi_fd[..., k] = (-sys.entropy_flux(pts + 2 * e, a)
                              + 8.0 * sys.entropy_flux(pts + e, a)
                              - 8.0 * sys.entropy_flux(pts - e, a)
                              + sys.entropy_flux(pts - 2 * e, a)) / (12 * step)
        err = np.abs(dxi_fd - dxi_exact).max()
        if err > 1e-8:
            raise ConstructionError(
                f"{sys.name}: entropy flux {a} is not compatible (defect {err:.2e})")
        hess = sys.entropy_hessian(pts)
        comm = hess @ jac - np.swapaxes(jac, -1, -2) @ hess
        if np.abs(comm).max() > 1e-8:
            raise ConstructionError(
                f"{sys.name}: D2eta Df_{a} is not symmetric")
    if sys.entropy(pts).min() < -1e-12:
        raise ConstructionError(f"{sys.name}: entropy is negative on Omega")


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

def _identity_gradient(u):
    """Deta(u) = u of eta = u^2/2: the input itself, not a copy (no caller
    writes into a gradient)."""
    return np.asarray(u, dtype=float)


def _half_square_distance(v, u, diff):
    """H(v, u) = |v - u|^2 / 2 of eta = |u|^2 / 2."""
    out = axis_dot(diff, diff)
    out *= 0.5
    return out


def _square_distance(v, u, diff):
    """H(v, u) = |v - u|^2 of eta = |u|^2."""
    return axis_dot(diff, diff)


def make_advection(d: int, speed_vector, u_range=(-1.0, 1.0)) -> SystemModel:
    """Scalar linear advection with eta = u^2/2."""
    c = np.atleast_1d(np.asarray(speed_vector, dtype=float))
    if c.shape != (d,):
        raise ConstructionError(f"speed vector must have {d} components")
    lo, hi = float(u_range[0]), float(u_range[1])
    omega = AdmissibleSet("box", [lo], [hi])

    def flux(u, a):
        return c[a] * np.asarray(u, dtype=float)

    def jac(u, a):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(c[a], u.shape[:-1] + (1, 1)).copy()

    def wave(u, n):
        n = _as_direction(n, d)
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(np.abs((n * c).sum(axis=-1)), u.shape[:-1]).copy()

    def forms(n):
        # the normal speed once; then f(u).n = a_n u is one pass and
        # xi(u).n = a_n u^2 / 2 three in one buffer (a halving is exact, so
        # the bits are those of (a_n / 2) u^2)
        a_n = n[..., 0] * c[0]
        for a in range(1, d):
            a_n = a_n + n[..., a] * c[a]
        a_col = a_n[..., None]

        def flux(u):
            return a_col * np.asarray(u, dtype=float)

        def entropy_flux(u):
            u = np.asarray(u, dtype=float)[..., 0]
            out = np.empty(np.broadcast_shapes(u.shape, a_n.shape))
            np.multiply(u, u, out=out)
            out *= a_n
            out *= 0.5
            return out

        return DirectionalForms(flux, entropy_flux, a_n)

    sys = SystemModel(
        name=f"advection{d}d", m=1, d=d,
        flux=flux, flux_jacobian=jac,
        entropy=lambda u: 0.5 * np.asarray(u, dtype=float)[..., 0] ** 2,
        entropy_gradient=_identity_gradient,
        entropy_hessian=lambda u: np.ones(np.asarray(u).shape[:-1] + (1, 1)),
        entropy_flux=lambda u, a: c[a] * 0.5 * np.asarray(u, dtype=float)[..., 0] ** 2,
        beta0=1.0, beta1=1.0, omega=omega, max_wave_speed=wave,
        flux_critical_points=lambda n: np.empty(0),
        params={"speed": tuple(c)}, directional_forms=forms,
        relative_entropy=_half_square_distance)
    validate_system(sys)
    compute_lf(sys)
    return sys


def make_burgers(d: int = 1, u_range=(-1.0, 1.0)) -> SystemModel:
    """Burgers equation, f = u^2/2, entropy pair (u^2/2, u^3/3)."""
    if d != 1:
        raise ConstructionError("Burgers system is provided in 1D only")
    lo, hi = float(u_range[0]), float(u_range[1])
    omega = AdmissibleSet("box", [lo], [hi])

    def wave(u, n):
        u = np.asarray(u, dtype=float)
        n = _as_direction(n, 1)
        return np.abs(u[..., 0] * n[..., 0])

    sys = SystemModel(
        name="burgers1d", m=1, d=1,
        flux=lambda u, a: 0.5 * np.asarray(u, dtype=float) ** 2,
        flux_jacobian=lambda u, a: np.asarray(u, dtype=float)[..., None],
        entropy=lambda u: 0.5 * np.asarray(u, dtype=float)[..., 0] ** 2,
        entropy_gradient=_identity_gradient,
        entropy_hessian=lambda u: np.ones(np.asarray(u).shape[:-1] + (1, 1)),
        entropy_flux=lambda u, a: np.asarray(u, dtype=float)[..., 0] ** 3 / 3.0,
        beta0=1.0, beta1=1.0, omega=omega, max_wave_speed=wave,
        flux_critical_points=lambda n: np.zeros(1),
        params={}, relative_entropy=_half_square_distance)
    validate_system(sys)
    compute_lf(sys)
    return sys


def make_friedrichs(A_list: Sequence, radius: float = 1.0) -> SystemModel:
    """Linear symmetric system f_a(u) = A_a u with eta = |u|^2.

    Omega is a box of half-width `radius` in characteristic coordinates:
    each characteristic component obeys its own maximum principle, so such
    boxes are preserved by the exact evolution and by the interface
    updates, while state-space boxes and Euclidean balls are not (wave
    superposition mixes components).  Several matrices must commute so a
    common eigenbasis exists.
    """
    mats = [np.asarray(A, dtype=float) for A in A_list]
    d = len(mats)
    m = mats[0].shape[0]
    for A in mats:
        if A.shape != (m, m):
            raise ConstructionError("all Friedrichs matrices must share one shape")
        if np.abs(A - A.T).max() > 1e-12:
            raise ConstructionError("Friedrichs matrices must be symmetric")
    for A in mats[1:]:
        if np.abs(A @ mats[0] - mats[0] @ A).max() > 1e-10:
            raise ConstructionError(
                "Friedrichs matrices must commute (no common characteristic basis)")
    _, R = np.linalg.eigh(sum(mats))
    for A in mats:
        D = R.T @ A @ R
        if np.abs(D - np.diag(np.diag(D))).max() > 1e-10:
            raise ConstructionError("could not diagonalize the Friedrichs "
                                    "matrices in a common basis")
    box = radius * np.ones(m)
    omega = AdmissibleSet("box", -box, box, basis=R)

    def flux(u, a):
        return np.asarray(u, dtype=float) @ mats[a].T

    def jac(u, a):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(mats[a], u.shape[:-1] + (m, m)).copy()

    def wave(u, n):
        n = _as_direction(n, d)
        u = np.asarray(u, dtype=float)
        An = np.tensordot(n, np.stack(mats), axes=(-1, 0))
        rho = np.abs(np.linalg.eigvalsh(An)).max(axis=-1)
        return np.broadcast_to(rho, u.shape[:-1]).copy()

    sys = SystemModel(
        name=f"friedrichs{d}d", m=m, d=d,
        flux=flux, flux_jacobian=jac,
        entropy=lambda u: axis_sum(np.asarray(u, dtype=float) ** 2),
        entropy_gradient=lambda u: 2.0 * np.asarray(u, dtype=float),
        entropy_hessian=lambda u: np.broadcast_to(
            2.0 * np.eye(m), np.asarray(u).shape[:-1] + (m, m)).copy(),
        entropy_flux=lambda u, a: np.einsum(
            "...i,ij,...j->...", np.asarray(u, dtype=float), mats[a],
            np.asarray(u, dtype=float)),
        beta0=2.0, beta1=2.0, omega=omega, max_wave_speed=wave,
        params={"matrices": [A.copy() for A in mats]},
        relative_entropy=_square_distance)
    validate_system(sys)
    compute_lf(sys)
    return sys


def make_shallow_water_1d(g: float = 9.81, h_min: float = 0.5,
                          h_max: float = 2.0, q_max: float = 1.5) -> SystemModel:
    """1D shallow water, state (h, q), energy entropy.

    eta = q^2/(2h) + g h^2/2 (nonnegative for h > 0, so the normalizing
    shift is zero) and xi = (q^2/(2h) + g h^2) q/h.  beta0/beta1 come from
    a dense eigenvalue scan of D2eta over the admissible box (257^2
    states, formed a chunk at a time), whose 2x2 eigenvalues
    `pencil_extremes` takes in closed form.  The model functions return
    inf where h <= 0 or h is NaN.
    """
    if h_min <= 0 or h_max <= h_min or q_max <= 0:
        raise ConstructionError("shallow water needs 0 < h_min < h_max and q_max > 0")
    g = float(g)
    omega = AdmissibleSet("positivity-constrained",
                          [h_min, -q_max], [h_max, q_max])

    def split(u):
        u = np.asarray(u, dtype=float)
        return u[..., 0], u[..., 1]

    def over_h(num, den, pos, plus=None):
        """num / den + plus where pos (h > 0), inf elsewhere: the bits of
        np.where(h > 0, num / den + plus, inf) without np.errstate, since
        no division runs where h <= 0 or h is NaN."""
        out = np.divide(num, den, out=np.full(pos.shape, np.inf), where=pos)
        if plus is not None:
            np.add(out, plus, out=out, where=pos)
        return out

    # flux and entropy_gradient fill their two output columns in place,
    # the bits of np.stack([first, second], axis=-1) without its overhead
    def flux(u, a):
        h, q = split(u)
        out = np.empty(h.shape + (2,))
        out[..., 0] = q
        out[..., 1] = over_h(q * q, h, h > 0, 0.5 * g * h * h)
        return out

    def jac(u, a):
        h, q = split(u)
        v = over_h(q, h, h > 0)
        out = np.zeros(h.shape + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = g * h - v * v
        out[..., 1, 1] = 2.0 * v
        return out

    def entropy(u):
        h, q = split(u)
        return over_h(0.5 * q * q, h, h > 0, 0.5 * g * h * h)

    def entropy_gradient(u):
        h, q = split(u)
        v = over_h(q, h, h > 0)
        out = np.empty(h.shape + (2,))
        out[..., 0] = g * h - 0.5 * v * v
        out[..., 1] = v
        return out

    def entropy_hessian(u):
        h, q = split(u)
        pos = h > 0
        v = over_h(q, h, pos)
        inv_h = over_h(1.0, h, pos)
        out = np.empty(h.shape + (2, 2))
        out[..., 0, 0] = v * v * inv_h + g
        out[..., 0, 1] = -v * inv_h
        out[..., 1, 0] = -v * inv_h
        out[..., 1, 1] = inv_h
        return out

    def entropy_flux(u, a):
        h, q = split(u)
        return over_h(0.5 * q ** 3, h ** 2, h > 0, g * h * q)

    def wave(u, n):
        h, q = split(u)
        n = _as_direction(n, 1)
        v = over_h(q, h, h > 0)
        return np.abs(v * n[..., 0]) + np.sqrt(g * np.maximum(h, 0.0))

    def relative_entropy(v, u, diff):
        # eta expanded about u: g/2 dh^2 + (dq - v_u dh)^2 / (2 h_v) with
        # v_u = q_u / h_u, written in the differences so that no velocity
        # difference is formed from two rounded quotients
        h_u, q_u = split(u)
        h_v = np.asarray(v, dtype=float)[..., 0]
        dh, dq = diff[..., 0], diff[..., 1]
        pos = (h_u > 0) & (h_v > 0)
        m = dq - over_h(q_u, h_u, pos) * dh
        return over_h(0.5 * m * m, h_v, pos, 0.5 * g * dh * dh)

    # dense spectral scan for the Hessian bounds: state (hh[i], qq[j]) is
    # row i*257 + j of the scan, formed a chunk at a time
    hh = np.linspace(h_min, h_max, 257)
    qq = np.linspace(-q_max, q_max, 257)

    def hessians(items):
        i, j = np.divmod(np.arange(*items.indices(257 ** 2)), 257)
        return entropy_hessian(np.stack([hh[i], qq[j]], axis=-1)), None

    beta0, beta1 = pencil_extremes(hessians, 257 ** 2)

    sys = SystemModel(
        name="shallow_water1d", m=2, d=1,
        flux=flux, flux_jacobian=jac,
        entropy=entropy, entropy_gradient=entropy_gradient,
        entropy_hessian=entropy_hessian, entropy_flux=entropy_flux,
        beta0=beta0, beta1=beta1, omega=omega, max_wave_speed=wave,
        params={"g": g, "h_min": h_min, "h_max": h_max, "q_max": q_max},
        relative_entropy=relative_entropy)
    validate_system(sys)
    compute_lf(sys)
    return sys

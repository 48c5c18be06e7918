"""Conservation-law system models and relative-entropy calculus.

A :class:`SystemModel` bundles the flux functions f_alpha, an entropy pair
(eta, xi) with Hessian spectral bounds [beta0, beta1], the admissible set
Omega, the entropy-weighted speed bound L_f, and a directional wave-speed
bound.  All evaluation callables are pure and vectorized over a leading
batch axis: states have shape (..., m).

Built-in systems: scalar linear advection, Burgers, symmetric (Friedrichs)
linear systems with eta = |u|^2, and 1D shallow water.  Analytic
derivatives are supplied everywhere; the test suite re-derives them by
finite differences as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AdmissibilityError, ConstructionError

_MBETA_GUARD = 1e-9  # slack for the admissibility tolerance in pair checks
_SHORT_AXIS = 8  # numpy reduces axes at least this long pairwise


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

    @property
    def m(self):
        return self.lo.shape[0]

    def _coords(self, u):
        u = np.asarray(u, dtype=float)
        return u if self.basis is None else u @ self.basis

    def contains(self, u, tol: float = 1e-12):
        """Membership in the bounded hull, broadcast over leading axes."""
        w = self._coords(u)
        scale = np.maximum(1.0, np.maximum(np.abs(self.lo), np.abs(self.hi)))
        return axis_all((w >= self.lo - tol * scale)
                        & (w <= self.hi + tol * scale))

    def stable_contains(self, u, tol: float = 1e-12):
        """Membership in the convex set preserved by interface updates."""
        u = np.asarray(u, dtype=float)
        if self.kind == "positivity-constrained":
            return u[..., 0] > 0.0
        return self.contains(u, tol=tol)

    def sample(self, rng, n: int):
        """n states drawn uniformly from the set (seeded generator)."""
        w = rng.uniform(self.lo, self.hi, size=(n, self.m))
        return w if self.basis is None else w @ self.basis.T

    def extreme_points(self):
        """Corners of the hull (mapped back from box coordinates)."""
        m = self.m
        grids = np.meshgrid(*[(self.lo[i], self.hi[i]) for i in range(m)],
                            indexing="ij")
        corners = np.stack([g.ravel() for g in grids], axis=-1)
        return corners if self.basis is None else corners @ self.basis.T


# ---------------------------------------------------------------------------
# system model
# ---------------------------------------------------------------------------

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

    def require_admissible(self, *states, tol: float = 1e-12, what: str = "state"):
        for u in states:
            ok = self.omega.contains(u, tol=tol)
            if not np.all(ok):
                bad = np.asarray(u)[~np.atleast_1d(ok)][:1]
                raise AdmissibilityError(
                    f"{what} outside the admissible set of {self.name}: {bad}")

    def directional_flux(self, u, n):
        """sum_alpha n_alpha f_alpha(u); n has shape (d,) or (..., d)."""
        n = _as_direction(n, self.d)
        out = n[..., 0, None] * self.flux(u, 0)
        for a in range(1, self.d):
            out = out + n[..., a, None] * self.flux(u, a)
        return out

    def directional_jacobian(self, u, n):
        n = _as_direction(n, self.d)
        out = n[..., 0, None, None] * self.flux_jacobian(u, 0)
        for a in range(1, self.d):
            out = out + n[..., a, None, None] * self.flux_jacobian(u, a)
        return out

    def directional_entropy_flux(self, u, n):
        n = _as_direction(n, self.d)
        out = n[..., 0] * self.entropy_flux(u, 0)
        for a in range(1, self.d):
            out = out + n[..., a] * self.entropy_flux(u, a)
        return out


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
    return relative_entropy_terms(sys, sys.entropy(v), u, v - u)


def relative_entropy_terms(sys: SystemModel, eta_v, u, diff):
    """H(v, u) from eta(v) and v - u already at hand (no Omega check)."""
    return (eta_v - sys.entropy(u)
            - axis_sum(sys.entropy_gradient(u) * diff))


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

def compute_lf(sys: SystemModel, samples: int = 4096, seed: int = 0) -> float:
    """Entropy-weighted bound on flux-Jacobian spectra over Omega^2.

    The inner sup over w of |w^T D2eta(v) Df_a(u) w| / (w^T D2eta(v) w) is
    computed exactly per sampled pair as a symmetric generalized
    eigenproblem (the quadratic form only sees the symmetric part); only
    the (u, v) sampling is approximate, backed by hull corners and, for
    scalar systems, a dense state grid.  The result is stored on the model.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = np.random.default_rng(seed)
    omega = sys.omega
    corners = omega.extreme_points()
    us = np.vstack([omega.sample(rng, samples), corners])
    vs = np.vstack([omega.sample(rng, samples), corners])

    if sys.m == 1:
        # quotient reduces to |f_a'(u)|, independent of v and w
        grid = np.linspace(omega.lo[0], omega.hi[0], 4001).reshape(-1, 1)
        pts = np.vstack([us, grid])
        best = 0.0
        for a in range(sys.d):
            best = max(best, float(np.abs(sys.flux_jacobian(pts, a)).max()))
        sys.lf = best
        return best

    pair_u = np.vstack([us, us, rng.permutation(us)])
    pair_v = np.vstack([vs, us, rng.permutation(vs)])
    best = 0.0
    for a in range(sys.d):
        A = sys.flux_jacobian(pair_u, a)
        B = sys.entropy_hessian(pair_v)
        S = B @ A
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
        best = max(best, float(np.abs(generalized_eigvalsh(S, B)).max()))
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

    sys = SystemModel(
        name=f"advection{d}d", m=1, d=d,
        flux=flux, flux_jacobian=jac,
        entropy=lambda u: 0.5 * np.asarray(u, dtype=float)[..., 0] ** 2,
        entropy_gradient=lambda u: np.asarray(u, dtype=float).copy(),
        entropy_hessian=lambda u: np.ones(np.asarray(u).shape[:-1] + (1, 1)),
        entropy_flux=lambda u, a: c[a] * 0.5 * np.asarray(u, dtype=float)[..., 0] ** 2,
        beta0=1.0, beta1=1.0, omega=omega, max_wave_speed=wave,
        flux_critical_points=lambda n: np.empty(0),
        params={"speed": tuple(c)})
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
        entropy_gradient=lambda u: np.asarray(u, dtype=float).copy(),
        entropy_hessian=lambda u: np.ones(np.asarray(u).shape[:-1] + (1, 1)),
        entropy_flux=lambda u, a: np.asarray(u, dtype=float)[..., 0] ** 3 / 3.0,
        beta0=1.0, beta1=1.0, omega=omega, max_wave_speed=wave,
        flux_critical_points=lambda n: np.zeros(1),
        params={})
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
        params={"matrices": [A.copy() for A in mats]})
    validate_system(sys)
    compute_lf(sys)
    return sys


def make_shallow_water_1d(g: float = 9.81, h_min: float = 0.5,
                          h_max: float = 2.0, q_max: float = 1.5) -> SystemModel:
    """1D shallow water, state (h, q), energy entropy.

    eta = q^2/(2h) + g h^2/2 (nonnegative for h > 0, so the normalizing
    shift is zero) and xi = (q^2/(2h) + g h^2) q/h.  beta0/beta1 come from
    a dense eigenvalue scan of D2eta over the admissible box.
    """
    if h_min <= 0 or h_max <= h_min or q_max <= 0:
        raise ConstructionError("shallow water needs 0 < h_min < h_max and q_max > 0")
    g = float(g)
    omega = AdmissibleSet("positivity-constrained",
                          [h_min, -q_max], [h_max, q_max])

    def split(u):
        u = np.asarray(u, dtype=float)
        return u[..., 0], u[..., 1]

    def flux(u, a):
        h, q = split(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            f2 = np.where(h > 0, q * q / h + 0.5 * g * h * h, np.inf)
        return np.stack([q, f2], axis=-1)

    def jac(u, a):
        h, q = split(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(h > 0, q / h, np.inf)
        out = np.zeros(h.shape + (2, 2))
        out[..., 0, 1] = 1.0
        out[..., 1, 0] = g * h - v * v
        out[..., 1, 1] = 2.0 * v
        return out

    def entropy(u):
        h, q = split(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h > 0, 0.5 * q * q / h + 0.5 * g * h * h, np.inf)

    def entropy_gradient(u):
        h, q = split(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(h > 0, q / h, np.inf)
        return np.stack([g * h - 0.5 * v * v, v], axis=-1)

    def entropy_hessian(u):
        h, q = split(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(h > 0, q / h, np.inf)
            inv_h = np.where(h > 0, 1.0 / h, np.inf)
        out = np.empty(h.shape + (2, 2))
        out[..., 0, 0] = v * v * inv_h + g
        out[..., 0, 1] = -v * inv_h
        out[..., 1, 0] = -v * inv_h
        out[..., 1, 1] = inv_h
        return out

    def entropy_flux(u, a):
        h, q = split(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(h > 0, 0.5 * q ** 3 / h ** 2 + g * h * q, np.inf)

    def wave(u, n):
        h, q = split(u)
        n = _as_direction(n, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(h > 0, q / h, np.inf)
        return np.abs(v * n[..., 0]) + np.sqrt(g * np.maximum(h, 0.0))

    # dense spectral scan for the Hessian bounds
    hh = np.linspace(h_min, h_max, 257)
    qq = np.linspace(-q_max, q_max, 257)
    H, Q = np.meshgrid(hh, qq, indexing="ij")
    grid = np.stack([H.ravel(), Q.ravel()], axis=-1)
    eigs = np.linalg.eigvalsh(entropy_hessian(grid))
    beta0 = float(eigs.min())
    beta1 = float(eigs.max())

    sys = SystemModel(
        name="shallow_water1d", m=2, d=1,
        flux=flux, flux_jacobian=jac,
        entropy=entropy, entropy_gradient=entropy_gradient,
        entropy_hessian=entropy_hessian, entropy_flux=entropy_flux,
        beta0=beta0, beta1=beta1, omega=omega, max_wave_speed=wave,
        params={"g": g, "h_min": h_min, "h_max": h_max, "q_max": q_max})
    validate_system(sys)
    compute_lf(sys)
    return sys

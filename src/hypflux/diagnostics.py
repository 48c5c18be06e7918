"""Stability and error functionals for finite-volume runs.

The ledger accumulates, step by step, the interface weak-BV sums, the
entropy-flux and time variation sums, the worst discrete entropy residual
and the per-interface dissipation-gap slack.  `ErrorFold`, the one solver
hook, takes each block of K steps that `solver.march_blocks` yields and
folds it into the ledger and the error functionals: the masses of the
error measures, the relative-entropy error series and the shrinking-cone
L2 error against a reference.  A block evaluates eta and the reference
once over its time levels, runs the flux records part once on the
block's update, and every sum is a row reduction.  `measure_masses` and
`cone_l2_error` replay a stored trajectory, in blocks of the same size,
through the part of the fold each reports, which needs no flux records.

All reductions fold over interfaces and cells in id order, and the rows of
a block into the ledger in step order, so repeated runs produce identical
floating-point results, whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .mesh import Mesh
from .numflux import FluxScheme, InterfaceFluxRecords
from .solver import (_average, _point_values, cell_quadrature,
                     steps_per_block, tensor_gauss_quadrature)
from .systems import (StateField, SystemModel, axis_dot, axis_norm,
                      relative_entropy_terms, scratch_slices)

# Gauss-Legendre 4-point rule (per axis) for the mass integrals.  It is
# deliberately independent of the projection quadrature: with a midpoint
# mass rule and midpoint projection the integrand |eta(u0) - eta(u_K^0)|
# would vanish identically at the nodes.
_GAUSS4 = (np.array([-0.8611363115940526, -0.3399810435848563,
                     0.3399810435848563, 0.8611363115940526]),
           np.array([0.3478548451374538, 0.6521451548625461,
                     0.6521451548625461, 0.3478548451374538]))


@dataclass
class DiagnosticsLedger:
    """Running sums of the scheme's stability functionals."""

    wbv_sq: float = 0.0            # sum_n dt sum_e |sigma| |G - f(u_K).n|^2
    wbv_l1: float = 0.0            # sum_n dt sum_e |sigma| |G - f(u_K).n|
    entropy_flux_bv: float = 0.0   # sum_n dt sum_e |sigma| |xi_KL - xi(u_K).n|
    time_bv_u: float = 0.0         # sum_n sum_K |K| |u^{n+1} - u^n|
    time_bv_eta: float = 0.0       # sum_n sum_K |K| |eta^{n+1} - eta^n|
    entropy_residual_max: float = 0.0         # positive part, raw scale
    entropy_residual_max_scaled: float = 0.0  # residual * dt / |K|
    interface_measure_total: float = 0.0      # sum_n dt sum_e |sigma|
    min_gap_slack: float = math.inf           # min of gap - beta0/(2 lam*) defect^2
    gap_all_pass: bool = True
    mu0_mass: float = 0.0
    mu_t_mass: float = 0.0
    mu_bar0_mass: float = 0.0
    mu_bar_t_mass: float = 0.0
    rel_entropy_series: list = field(default_factory=list)  # [(t, value)]
    n_steps_accumulated: int = 0


@dataclass
class MeasureMasses:
    mu0: float
    mu_t: float
    mu_bar0: float
    mu_bar_t: float


@dataclass
class ConvergenceRow:
    h: float
    dt: float
    error_l2_spacetime: float
    wbv_l1: float
    wbv_sq: float
    mu0_mass: float
    mu_t_mass: float


@dataclass
class ConvergenceTable:
    rows: list

    def __post_init__(self):
        hs = [r.h for r in self.rows]
        if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
            raise ConfigError("convergence rows must be sorted by decreasing h")


def accumulate_step(ledger: DiagnosticsLedger, mesh: Mesh, sys: SystemModel,
                    scheme: FluxScheme, field_n: StateField,
                    field_np1: StateField, records: InterfaceFluxRecords,
                    dt: float):
    """Add one step's interface and cell contributions to every ledger sum;
    return the step's per-cell |K| |u^{n+1} - u^n| and |K| |eta^{n+1} - eta^n|.

    `accumulate_block` on the block of this one step, through views.
    """
    rows = InterfaceFluxRecords(*(getattr(records, f.name)[None]
                                  for f in fields(records)))
    vol_du, vol_deta = accumulate_block(
        ledger, mesh, sys, scheme, field_n.values[None],
        field_np1.values[None], rows, dt)
    return vol_du[0], vol_deta[0]


def accumulate_block(ledger: DiagnosticsLedger, mesh: Mesh, sys: SystemModel,
                     scheme: FluxScheme, u_n, u_np1,
                     records: InterfaceFluxRecords, dt: float,
                     entropies=None):
    """Add the interface and cell contributions of K steps of one dt to
    every ledger sum; return the per-cell |K| |u^{n+1} - u^n| and
    |K| |eta^{n+1} - eta^n| of each step as (K, n_cells) arrays.

    u_n and u_np1 are the (K, n_cells, m) states before and after each
    step, `records` carry the same leading step axis, and `entropies` is
    (eta(u_n[0]), eta(u_np1)) when the caller has them: the steps' states
    follow on, so eta(u_n) is the first row and eta(u_np1) less its last.
    Every sum is a row reduction, folded into the ledger in step order, so
    a block adds the bits its steps would add one by one.
    """
    return _accumulate(ledger, mesh, sys, scheme, u_n, u_np1, records, dt,
                       entropies)[:2]


def _accumulate(ledger, mesh, sys, scheme, u_n, u_np1, records, dt,
                entropies=None, scales=None):
    """`accumulate_block`, which also returns the row sums over all cells
    of its two arrays, as lists; `scales` are (|K| / dt, dt / |K|) when
    the caller has them."""
    d = records.defect
    if d.shape[-1] != mesh.n_interfaces:
        raise ConfigError("flux records do not match the mesh")
    if entropies is None:
        entropies = (sys.entropy(u_n[0]), sys.entropy(u_np1))
    if scales is None:
        scales = _rate_scales(mesh, dt)

    areas = mesh.iface_areas
    # discrete entropy residual: (|K|/dt)(eta^{n+1} - eta^n) + sum |sigma| xi_KL;
    # the scatter adds per column, so it takes the steps as columns.  It
    # runs before the cell variation is formed, and the residual goes as
    # soon as its maxima are taken, so neither adds to the other's scratch
    area_xi = (areas * records.xi_value).T
    xi_div = mesh.scatter(np.zeros((mesh.n_cells, len(d))), area_xi,
                          area_xi, signs=(1, -1)).T
    del area_xi
    eta_jump, vol_du, vol_deta = _cell_variation(mesh, u_n, u_np1, *entropies)
    # the residual and then its dt/|K| scaling in the jump's buffer
    resid = np.multiply(eta_jump, scales[0], out=eta_jump)
    resid += xi_div
    del xi_div, eta_jump
    top = _worst(resid)
    resid *= scales[1]
    top_scaled = _worst(resid)
    del resid
    l1 = (areas * d).sum(axis=-1)
    # per-interface dissipation-gap inequality, slack = gap - bound formed
    # in the bound's buffer; d^2 is formed once, for the bound and for
    # |sigma| d^2 (in its own buffer)
    d2 = d * d
    slack = (sys.beta0 / (2.0 * scheme.lambda_star)) * d2
    np.subtract(records.dissipation_gap, slack, out=slack)
    least = _least(slack)
    d2 *= areas
    sq = d2.sum(axis=-1)
    del d2
    # |sigma| |xi_KL - xi(u_K).n|, in one buffer
    xi_bv = records.xi_value - records.xi_left
    np.abs(xi_bv, out=xi_bv)
    xi_bv *= areas
    xi_bv = xi_bv.sum(axis=-1)
    du_rows = vol_du.sum(axis=-1).tolist()
    deta_rows = vol_deta.sum(axis=-1).tolist()
    rows = zip(*(a.tolist() for a in (sq, l1, xi_bv)), du_rows, deta_rows,
               *(a.tolist() for a in (top, top_scaled, least)))
    for sq, l1, xi_bv, du, deta, top, top_scaled, low in rows:
        ledger.wbv_sq += dt * sq
        ledger.wbv_l1 += dt * l1
        ledger.interface_measure_total += dt * mesh.total_iface_area
        ledger.entropy_flux_bv += dt * xi_bv
        ledger.time_bv_u += du
        ledger.time_bv_eta += deta
        ledger.entropy_residual_max = max(ledger.entropy_residual_max, top)
        ledger.entropy_residual_max_scaled = max(
            ledger.entropy_residual_max_scaled, top_scaled)
        ledger.min_gap_slack = min(ledger.min_gap_slack, low)
    # every floor -1e-10 max(1, |gap|) lies at or below -1e-10, so a step
    # whose least slack is above it passes every interface without them
    check = ~(least >= -1e-10)
    if ledger.gap_all_pass and check.any():
        floor = -1e-10 * np.maximum(1.0, np.abs(records.dissipation_gap[check]))
        ledger.gap_all_pass = bool((slack[check] >= floor).all())

    ledger.n_steps_accumulated += len(d)
    return vol_du, vol_deta, du_rows, deta_rows


def _rate_scales(mesh: Mesh, dt: float, out=(None, None)):
    """(|K| / dt, dt / |K|) per cell, into the arrays `out` when given:
    they turn a cell's entropy jump into a rate and its residual back into
    a jump."""
    vols = mesh.cell_volumes
    return np.divide(vols, dt, out=out[0]), np.divide(dt, vols, out=out[1])


def _cell_variation(mesh: Mesh, u_n, u_np1, eta_first, eta_np1):
    """Per-cell time variation of steps on a leading axis, from the
    states' values and entropies, where eta_first is eta(u_n[0]) and the
    states follow on (u_n[j + 1] is u_np1[j]): eta^{n+1} - eta^n,
    |K| |u^{n+1} - u^n| and |K| |eta^{n+1} - eta^n|, each scaled by |K|
    in the buffer of its norm."""
    if u_n.shape[-2] != mesh.n_cells or u_np1.shape[-2] != mesh.n_cells:
        raise ConfigError("state fields do not match the mesh")
    vol_du = axis_norm(u_np1 - u_n)
    vol_du *= mesh.cell_volumes
    eta_jump = np.empty(eta_np1.shape)
    np.subtract(eta_np1[0], eta_first, out=eta_jump[0])
    np.subtract(eta_np1[1:], eta_np1[:-1], out=eta_jump[1:])
    vol_deta = np.abs(eta_jump)
    vol_deta *= mesh.cell_volumes
    return eta_jump, vol_du, vol_deta


def _worst(values):
    """Largest entry along the last axis, or inf where any entry is not
    finite.

    A plain max() of an array with a NaN is NaN, and NaN compares false
    with everything, so a NaN cell would leave the running maximum (and
    the flag built on it) untouched.
    """
    top, low = values.max(axis=-1), values.min(axis=-1)
    # a NaN makes the max NaN, an inf makes the max or the min infinite
    return np.where(np.isfinite(top) & np.isfinite(low), top, np.inf)


def _least(values):
    """Smallest entry along the last axis, or -inf where any entry is not
    finite (see `_worst`)."""
    top, low = values.max(axis=-1), values.min(axis=-1)
    return np.where(np.isfinite(top) & np.isfinite(low), low, -np.inf)


# ---------------------------------------------------------------------------
# error functionals
# ---------------------------------------------------------------------------

def projection_masses(mesh: Mesh, sys: SystemModel, u0, field0: StateField,
                      cell_mask):
    """mu0 = integral |eta(u0) - eta(u^h(.,0))| and mu_bar0 with |u0 - u^h|,
    over the cells selected by the boolean `cell_mask`.

    The per-cell integrals are filled in chunks of cells under the scratch
    bound (`scratch_slices`, counting the larger of d and m entries per
    quadrature point); each cell's integral has the same bits whatever
    chunk holds it.  The masked sums then fold over all cells in id order
    at once.
    """
    per_cell_eta = np.empty(mesh.n_cells)
    per_cell_u = np.empty(mesh.n_cells)
    per_cell = _GAUSS4[0].size ** mesh.dim * max(mesh.dim, sys.m)
    for cells in scratch_slices(mesh.n_cells, per_cell):
        pts, wts = tensor_gauss_quadrature(mesh, _GAUSS4, cells)
        vals = _point_values(u0, pts)
        u_cell = field0.values[cells]
        eta_exact = sys.entropy(vals)
        eta_cell = sys.entropy(u_cell)[:, None]
        diff = vals - u_cell[:, None, :]
        per_cell_eta[cells] = (wts * np.abs(eta_exact - eta_cell)).sum(axis=1)
        per_cell_u[cells] = (wts * axis_norm(diff)).sum(axis=1)
    return (float(per_cell_eta[cell_mask].sum()),
            float(per_cell_u[cell_mask].sum()))


def reference_cell_means(mesh: Mesh, reference, t: float,
                         quadrature: str = "midpoint"):
    """Cell averages of the reference at time t, same rule as the projection."""
    return reference_level_means(mesh, reference, (t,), quadrature)[0]


@dataclass(frozen=True)
class BoundReference:
    """A reference bound to the points of one mesh's cell quadrature
    (`bind_reference`): `levels(ts)` gives its values there, (K, N, q, m),
    and `weights` are the rule's."""

    levels: Callable
    weights: np.ndarray


def bind_reference(mesh: Mesh, reference, quadrature: str = "midpoint"):
    """The reference bound once to the quadrature points of `mesh`
    (`ReferenceSolution.bind`)."""
    pts, wts = cell_quadrature(mesh, quadrature)
    return BoundReference(reference.bind(pts), wts)


def reference_level_means(mesh: Mesh, reference, ts,
                          quadrature: str = "midpoint"):
    """`reference_cell_means` at each time of `ts`, on a leading axis, from
    one evaluation of the reference over all the levels.  A
    `BoundReference` of this mesh and rule evaluates at the points it is
    bound to."""
    if isinstance(reference, BoundReference):
        return _average(mesh, reference.weights, reference.levels(ts))
    pts, wts = cell_quadrature(mesh, quadrature)
    return _average(mesh, wts, reference.eval_levels(pts, ts))


def relative_entropy_norm(mesh: Mesh, sys: SystemModel, field: StateField,
                          reference_means) -> float:
    """sum_K |K| H(u_K, ubar_K); brackets the squared L2 cell error."""
    ubar = np.asarray(reference_means, dtype=float)
    return float(_relative_entropy_sum(mesh, sys, field.values, ubar,
                                       field.values - ubar))


def squared_l2_cell_error(mesh: Mesh, field: StateField, reference_means) -> float:
    diff = field.values - np.asarray(reference_means, dtype=float)
    return float(_cell_sq_error(mesh, diff).sum())


def _relative_entropy_sum(mesh, sys, u, ubar, diff):
    """sum_K |K| H(u_K, ubar_K) with diff = u - ubar, per level when they
    have leading level axes."""
    # no Omega check: a run checks its states under its own config
    H = relative_entropy_terms(sys, u, ubar, diff)
    return (mesh.cell_volumes * H).sum(axis=-1)


def _cell_sq_error(mesh, diff):
    """Per-cell |K| |u_K - ubar_K|^2 from diff = u - ubar."""
    out = axis_dot(diff, diff)
    out *= mesh.cell_volumes
    return out


def _mbeta_inside(esq, hnorm, beta0, beta1, n_cells):
    """Where (beta0/2) esq <= hnorm <= (beta1/2) esq holds, up to the
    rounding of the two sums over n_cells cells: a few ulp per cell term
    and one per level of the pairwise sum, that is (8 + log2 n_cells) ulp
    of the upper bound.  A NaN or infinite sum lies outside."""
    hi = 0.5 * beta1 * esq
    tol = (8.0 + math.log2(n_cells)) * np.finfo(float).eps * hi
    with np.errstate(invalid="ignore"):  # inf - inf, which lies outside
        return (0.5 * beta0 * esq - tol <= hnorm) & (hnorm <= hi + tol)


def check_ball(mesh: Mesh, r: float, dist=None) -> None:
    """Raise ConfigError unless some cell centroid lies in B(0, r), at the
    periodic minimum-image distances `dist` of the centroids to the
    origin.  They are formed only when not given and r is below half the
    box's diagonal, which bounds every such distance."""
    if dist is None:
        if r >= 0.5 * math.hypot(*mesh.domain):
            return
        dist = mesh.periodic_distance_to_origin(mesh.cell_centroids)
    if not (dist <= r).any():
        raise ConfigError("no cell centroid lies in the requested ball")


class ErrorFold:
    """The run's one solver hook: folds each `StepBlock` of a march into
    the error functionals, the ledger (`accumulate_block`) and the masses.

    Cells count as inside a ball when their centroid is (periodic
    minimum-image distance).  A fold given u0 folds the masses on
    B(0, r) and rejects at construction a ball that holds no centroid
    (`check_ball`); without u0 (`cone_l2_error`) only the cones
    B(0, r + lf (T - t)) are read, and r may be any radius.  The measure
    masses mu_T and mu_bar_T on
    B(0, r) are ball-masked sums of the per-cell time variation that
    `accumulate_block` returns.  With a reference, its cell means at the
    time levels t^n of a block are evaluated in one call; per level,
    u^n - ubar^n and the squared error |K| |u^n - ubar^n|^2 are formed
    once, as row reductions over the block folded in step order.  The
    squared error gives the shrinking-cone L2 error (`cone`) and, for a
    system with beta0 = beta1 = beta, whose M-beta bounds make H(v, u) =
    (beta/2)|v - u|^2, the relative-entropy series entry (beta/2) sum |K|
    |u^n - ubar^n|^2; for beta = 1 or 2 (advection, Burgers, Friedrichs)
    a power-of-two scale of each term gives the bits of sum |K| H.  Other
    systems sum their closed-form H.  Both
    sums feed the M-beta bracket (`mbeta_ok`, `_mbeta_inside`).
    `finish(trajectory)` adds the projection masses mu_0, mu_bar_0 of the
    first state and the level at the final time.  Time sums use the
    left-endpoint rule.

    A block runs the records part of the march's own binding
    (`StepBlock.kernel`) once on the block's update, which it takes over:
    the records part may overwrite and release the update it is handed
    (see `numflux`), so it works in the update's buffers and drops the
    gathered sides as soon as it is done with them, and the rest goes with
    the records part.  Of the records only the four fields the ledger
    reads stay (defect, xi_KL, xi(u_K).n and the gap).  One `sys.entropy`
    call then gives eta at the block's k + 1 states, for the ledger and
    the relative entropy, and the error levels come last, once the
    records have gone.  The reference is bound to the quadrature points
    once, at construction (`bind_reference`), and `finish` releases that
    binding.  A step and its fold on the 128 x 128 mesh (K = 1) take at
    most 12 scratch chunks, in the march's scatter.  A reference is read
    in time order within one fold; several folds sharing a fine-grid
    reference read it in time order only with blocks of one step.
    """

    def __init__(self, ledger: DiagnosticsLedger, mesh: Mesh,
                 sys: SystemModel, scheme: FluxScheme, u0, r: float,
                 T: float, lf: float, reference=None,
                 quadrature: str = "midpoint"):
        self.ledger, self.mesh, self.sys, self.scheme = ledger, mesh, sys, scheme
        self.u0, self.r, self.T, self.lf = u0, r, T, lf
        self.reference, self.quadrature = reference, quadrature
        dist = mesh.periodic_distance_to_origin(mesh.cell_centroids)
        if u0 is not None:  # the masses: mu_0 needs a cell in B(0, r)
            check_ball(mesh, r, dist)
        self.ball = dist <= r
        # a ball over every cell needs no selection, which copies nothing;
        # the cell ids of a smaller ball gather C-ordered rows (a boolean
        # mask on the last axis of a block gives F order, whose row sums
        # add in another order)
        self._ball = None if self.ball.all() else np.flatnonzero(self.ball)
        self._dist_max = dist.max()
        # a cone of radius r + lf (T - t) >= r holds every centroid that
        # the ball holds, so with every cell in the ball its masks are
        # rare (t > T, or a NaN radius) and form the distances again
        self._dist = None if self._ball is None else dist
        self.cone = 0.0
        self.mbeta_ok = True
        self._dt = None
        # buffers for the run: |K| / dt and dt / |K| once dt is known, and
        # eta at the first state of the next block, with that block's
        # step (None: none carried).  Held from here on, they sit below
        # the step loop's temporaries in the heap
        self._scales = (np.empty(mesh.n_cells), np.empty(mesh.n_cells))
        self._eta_carry, self._carry_step = np.empty(mesh.n_cells), None
        # the reference bound to the quadrature points for the run,
        # released by `finish`
        self._bound = (None if reference is None
                       else bind_reference(mesh, reference, quadrature))

    def __call__(self, block):
        """Fold the steps of one `StepBlock`, taking its update."""
        if self._dt is not None and block.dt != self._dt:
            raise ConfigError("the steps of one ErrorFold share one dt")
        if self._dt is None:
            self._dt = block.dt
            _rate_scales(self.mesh, block.dt, self._scales)
        update, block.update = block.update, None  # taken over
        records = block.kernel.records(update)
        del update
        # the update has gone with the records part; the ledger reads
        # neither G nor X_KL, so they go before its temporaries, and the
        # records go before the error levels'
        records.g_value = records.x_kl = None
        states, dt = block.states, block.dt
        if self._carry_step != block.start:
            self._eta_carry[:] = self.sys.entropy(states[0])
        eta_next = self.sys.entropy(states[1:])
        vol_du, vol_deta, *sums = _accumulate(
            self.ledger, self.mesh, self.sys, self.scheme, states[:-1],
            states[1:], records, dt, (self._eta_carry, eta_next),
            self._scales)
        del records
        if self._ball is None:  # every cell: the ledger's row sums
            del vol_du, vol_deta
            self._fold_rows(*sums, dt)
        else:
            self._fold_masses(vol_du, vol_deta, dt)
            del vol_du, vol_deta
        self._eta_carry[:] = eta_next[-1]
        self._carry_step = block.start + len(states) - 1
        del eta_next
        self._fold_errors(block.times[:-1], states[:-1], dt)

    def _fold_masses(self, vol_du, vol_deta, dt):
        """The share of mu_T and mu_bar_T of the rows of a block of steps,
        in step order."""
        self._fold_rows(self._ball_sums(vol_du), self._ball_sums(vol_deta),
                        dt)

    def _fold_rows(self, du_rows, deta_rows, dt):
        """mu_T and mu_bar_T from the ball sums of each row, in step order."""
        for deta, du in zip(deta_rows, du_rows):
            self.ledger.mu_t_mass += dt * deta
            self.ledger.mu_bar_t_mass += dt * du

    def _ball_sums(self, values):
        """Sums over the cells of B(0, r) along the last axis, as floats."""
        if self._ball is not None:
            values = values.take(self._ball, axis=-1)
        return values.sum(axis=-1).tolist()

    def _fold_errors(self, ts, states, dt):
        """The share of the error functionals of steps from the levels t^n
        of a block, whose (k, N, m) states are given, in step order."""
        if self.reference is None:
            return
        cell_sq, esq = self._levels(ts, states)
        radii = (self.r + self.lf * (self.T - t) for t in ts)
        for row, value, radius in zip(cell_sq, esq.tolist(), radii):
            # the whole mesh lies in the cone when its farthest centroid does
            # (a NaN radius holds no cell, as the mask does)
            if not radius >= self._dist_max:
                dist = self._dist
                if dist is None:
                    dist = self.mesh.periodic_distance_to_origin(
                        self.mesh.cell_centroids)
                value = float(row[dist <= radius].sum())
            self.cone += dt * value

    def _levels(self, ts, states):
        """Series entries and M-beta checks at the times `ts`, in order,
        of (k, N, m) states; one evaluation of the reference serves them
        all.  Returns each level's per-cell squared error and their sums,
        as (k, N) and (k,) arrays."""
        for t in ts:
            if t > self.reference.valid_until * (1 + 1e-12):
                raise ConfigError(f"reference not valid at t={t}")
        sys = self.sys
        ubars = reference_level_means(self.mesh, self._bound, ts,
                                      self.quadrature)
        diff = states - ubars
        quadratic = sys.beta0 == sys.beta1
        if not quadratic:
            hnorm = _relative_entropy_sum(self.mesh, sys, states, ubars,
                                          diff)
        del ubars
        cell_sq = _cell_sq_error(self.mesh, diff)
        del diff
        esq = cell_sq.sum(axis=-1)
        if quadratic:
            # (beta/2) sum |K| |u - ubar|^2: a power-of-two scale of each
            # term (beta = 1, 2) gives the bits of the sum of |K| H
            hnorm = (0.5 * sys.beta0) * esq
        self.ledger.rel_entropy_series.extend(zip(ts, hnorm.tolist()))
        self.mbeta_ok = self.mbeta_ok and bool(_mbeta_inside(
            esq, hnorm, sys.beta0, sys.beta1, self.mesh.n_cells).all())
        return cell_sq, esq

    def finish(self, trajectory):
        """Add the projection masses and the final level of a finished
        run, then release the run's bindings."""
        self.ledger.mu0_mass, self.ledger.mu_bar0_mass = projection_masses(
            self.mesh, self.sys, self.u0, trajectory.snapshots[0][1],
            self.ball)
        if self.reference is not None:
            self._levels([trajectory.final_field.time],
                         trajectory.final_field.values[None])
        self._bound, self._carry_step = None, None


def _replay(fold: ErrorFold, trajectory, masses: bool) -> None:
    """Fold every step of a stored trajectory (no flux records needed):
    its share of the measure masses, or else of the error functionals,
    over blocks of `steps_per_block` steps as in a run."""
    snaps = trajectory.snapshots
    if len(snaps) != trajectory.n_steps + 1:
        raise ConfigError("the error functionals need snapshots at every step")
    k = steps_per_block(fold.mesh)
    for start in range(0, trajectory.n_steps, k):
        levels = snaps[start:start + k + 1]
        states = np.stack([fld.values for _, fld in levels])
        if masses:
            eta = fold.sys.entropy(states)
            _, vol_du, vol_deta = _cell_variation(
                fold.mesh, states[:-1], states[1:], eta[0], eta[1:])
            fold._fold_masses(vol_du, vol_deta, trajectory.dt)
        else:
            fold._fold_errors([t for t, _ in levels[:-1]], states[:-1],
                              trajectory.dt)


def measure_masses(mesh: Mesh, sys: SystemModel, u0, trajectory, r: float,
                   T: float) -> MeasureMasses:
    """Total masses of the four error measures on B(0, r) x [0, T].

    `ErrorFold` over a trajectory recorded at every step (record_every =
    1), so that the time sums are exact.
    """
    ledger = DiagnosticsLedger()
    fold = ErrorFold(ledger, mesh, sys, None, u0, r, T, sys.lf)
    _replay(fold, trajectory, masses=True)
    fold.finish(trajectory)
    return MeasureMasses(mu0=ledger.mu0_mass, mu_t=ledger.mu_t_mass,
                         mu_bar0=ledger.mu_bar0_mass,
                         mu_bar_t=ledger.mu_bar_t_mass)


def cone_l2_error(mesh: Mesh, sys: SystemModel, trajectory, reference,
                  r: float, T: float, lf: float,
                  quadrature: str = "midpoint") -> float:
    """Space-time squared L2 error over the shrinking cone.

    sum_n dt sum_{K: centroid in B(0, r + lf (T - t^n))} |K| |u_K^n - ubar_K(t^n)|^2
    with left-endpoint time quadrature on [0, T); on periodic problems
    with r large the ball covers the whole box.  B(0, r) itself may hold
    no centroid (r = 0 takes the cone B(0, lf (T - t^n))).  `ErrorFold`
    over a trajectory recorded at every step.
    """
    fold = ErrorFold(DiagnosticsLedger(), mesh, sys, None, None, r, T, lf,
                     reference, quadrature)
    _replay(fold, trajectory, masses=False)
    return fold.cone


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

def fit_rate(table: ConvergenceTable) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.array([row.h for row in table.rows])
    errs = np.array([row.error_l2_spacetime for row in table.rows])
    if len(hs) < 3 or len(set(hs.tolist())) < 3:
        raise ConfigError("rate fit needs at least 3 distinct mesh levels")
    if np.any(errs <= 0.0):
        raise ConfigError("rate fit needs positive errors")
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


@dataclass
class WbvScalingReport:
    sup_wbv_l1_sqrt_h: float
    sup_wbv_sq: float
    wbv_sq_max_over_min: float
    wbv_l1h_last_over_first: float
    passed_l1: bool
    passed_sq: bool


def wbv_scaling_report(table: ConvergenceTable) -> WbvScalingReport:
    """Boundedness check of the weak-BV sums across refinement levels.

    Both quantities must show no growth trend: the last level at most
    1.5x the first, or outright decreasing.
    """
    if len(table.rows) < 3:
        raise ConfigError("scaling report needs at least 3 levels")
    l1h = [row.wbv_l1 * math.sqrt(row.h) for row in table.rows]
    sq = [row.wbv_sq for row in table.rows]

    def no_growth(seq):
        decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))
        return decreasing or seq[-1] <= 1.5 * seq[0]

    return WbvScalingReport(
        sup_wbv_l1_sqrt_h=max(l1h),
        sup_wbv_sq=max(sq),
        wbv_sq_max_over_min=max(sq) / min(sq) if min(sq) > 0 else math.inf,
        wbv_l1h_last_over_first=l1h[-1] / l1h[0] if l1h[0] > 0 else math.inf,
        passed_l1=no_growth(l1h),
        passed_sq=no_growth(sq))


@dataclass
class MeasureScalingReport:
    mu0_over_h_ratio: float       # max/min of mu0/h across levels
    mu_bar0_over_h_ratio: float
    mu_t_scaled_last_over_first: float    # (mu_t/sqrt(h)) last / first
    mu_bar_t_scaled_last_over_first: float
    passed: bool


def measure_scaling_report(hs, masses: Sequence[MeasureMasses]) -> MeasureScalingReport:
    """mu0, mu_bar0 must scale like h; mu_T, mu_bar_T like sqrt(h)."""
    if len(hs) < 3:
        raise ConfigError("scaling report needs at least 3 levels")
    hs = list(hs)
    mu0h = [m.mu0 / h for m, h in zip(masses, hs)]
    mub0h = [m.mu_bar0 / h for m, h in zip(masses, hs)]
    mut = [m.mu_t / math.sqrt(h) for m, h in zip(masses, hs)]
    mubt = [m.mu_bar_t / math.sqrt(h) for m, h in zip(masses, hs)]

    def ratio(seq):
        return max(seq) / min(seq) if min(seq) > 0 else math.inf

    def no_growth(seq):
        decreasing = all(b <= a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))
        return decreasing or (seq[0] > 0 and seq[-1] <= 1.5 * seq[0])

    return MeasureScalingReport(
        mu0_over_h_ratio=ratio(mu0h),
        mu_bar0_over_h_ratio=ratio(mub0h),
        mu_t_scaled_last_over_first=(mut[-1] / mut[0]) if mut[0] > 0 else math.inf,
        mu_bar_t_scaled_last_over_first=(mubt[-1] / mubt[0]) if mubt[0] > 0 else math.inf,
        passed=(ratio(mu0h) < 2.0 and ratio(mub0h) < 2.0
                and no_growth(mut) and no_growth(mubt)))

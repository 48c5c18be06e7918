"""Stability and error functionals for finite-volume runs.

The ledger accumulates, step by step, the interface weak-BV sums, the
entropy-flux and time variation sums, the worst discrete entropy residual
and the per-interface dissipation-gap slack.  `ErrorFold`, the one solver
hook, feeds each step to the ledger and folds in the error functionals:
the masses of the error measures, the relative-entropy error series and
the shrinking-cone L2 error against a reference.  `measure_masses` and
`cone_l2_error` replay a stored trajectory through the part of the fold
each reports, which needs no flux records.

All reductions fold over interfaces and cells in id order, so repeated
runs produce identical floating-point results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .mesh import Mesh
from .numflux import FluxScheme, InterfaceFluxRecords
from .solver import cell_means, tensor_gauss_quadrature
from .systems import (StateField, SystemModel, axis_sum,
                      relative_entropy_terms)

# Gauss-Legendre 4-point rule (per axis) for the mass integrals.  It is
# deliberately independent of the projection quadrature: with a midpoint
# mass rule and midpoint projection the integrand |eta(u0) - eta(u_K^0)|
# would vanish identically at the nodes.
_GAUSS4 = (np.array([-0.8611363115940526, -0.3399810435848563,
                     0.3399810435848563, 0.8611363115940526]),
           np.array([0.3478548451374538, 0.6521451548625461,
                     0.6521451548625461, 0.3478548451374538]))
_MASS_CHUNK = 4096  # cells per batch of mass quadrature points


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
                    dt: float, entropies=None):
    """Add one step's interface and cell contributions to every ledger sum;
    return the step's per-cell |K| |u^{n+1} - u^n| and |K| |eta^{n+1} - eta^n|.

    `entropies` is (eta(u^n), eta(u^{n+1})) when the caller has them.
    """
    if records.g_value.shape[0] != mesh.n_interfaces:
        raise ConfigError("flux records do not match the mesh")
    eta_jump, vol_du, vol_deta = _cell_variation(mesh, sys, field_n,
                                                 field_np1, entropies)

    areas = mesh.iface_areas
    vols = mesh.cell_volumes
    d = records.defect
    area_d = areas * d
    ledger.wbv_sq += dt * float((area_d * d).sum())
    ledger.wbv_l1 += dt * float(area_d.sum())
    ledger.interface_measure_total += dt * mesh.total_iface_area

    ledger.entropy_flux_bv += dt * float(
        (areas * np.abs(records.xi_value - records.xi_left)).sum())

    ledger.time_bv_u += float(vol_du.sum())
    ledger.time_bv_eta += float(vol_deta.sum())

    # discrete entropy residual: (|K|/dt)(eta^{n+1} - eta^n) + sum |sigma| xi_KL
    area_xi = areas * records.xi_value
    xi_div = mesh.scatter(np.zeros(mesh.n_cells), area_xi, -area_xi)
    resid = (vols / dt) * eta_jump + xi_div
    ledger.entropy_residual_max = max(ledger.entropy_residual_max,
                                      _worst(resid))
    ledger.entropy_residual_max_scaled = max(
        ledger.entropy_residual_max_scaled, _worst(resid * (dt / vols)))

    # per-interface dissipation-gap inequality
    bound = (sys.beta0 / (2.0 * scheme.lambda_star)) * d * d
    slack = records.dissipation_gap - bound
    least = _least(slack)
    ledger.min_gap_slack = min(ledger.min_gap_slack, least)
    # every floor -1e-10 max(1, |gap|) lies at or below -1e-10, so a
    # least slack above it passes every interface without the floors
    if ledger.gap_all_pass and not least >= -1e-10:
        floor = -1e-10 * np.maximum(1.0, np.abs(records.dissipation_gap))
        ledger.gap_all_pass = bool((slack >= floor).all())

    ledger.n_steps_accumulated += 1
    return vol_du, vol_deta


def _cell_variation(mesh: Mesh, sys: SystemModel, field_n: StateField,
                    field_np1: StateField, entropies=None):
    """Per-cell time variation of one step: eta^{n+1} - eta^n,
    |K| |u^{n+1} - u^n| and |K| |eta^{n+1} - eta^n|.  `entropies` is
    (eta(u^n), eta(u^{n+1})), evaluated here when not given."""
    if field_n.values.shape[0] != mesh.n_cells or \
            field_np1.values.shape[0] != mesh.n_cells:
        raise ConfigError("state fields do not match the mesh")
    if entropies is None:
        entropies = (sys.entropy(field_n.values),
                     sys.entropy(field_np1.values))
    eta_n, eta_np1 = entropies
    du = field_np1.values - field_n.values
    eta_jump = eta_np1 - eta_n
    return (eta_jump, mesh.cell_volumes * np.sqrt(axis_sum(du ** 2)),
            mesh.cell_volumes * np.abs(eta_jump))


def _worst(values) -> float:
    """Largest entry, or inf when any entry is not finite.

    A plain max() of an array with a NaN is NaN, and NaN compares false
    with everything, so a NaN cell would leave the running maximum (and
    the flag built on it) untouched.
    """
    # a NaN makes the max NaN, an inf makes the max or the min infinite
    top = float(values.max())
    if not (math.isfinite(top) and math.isfinite(values.min())):
        return math.inf
    return top


def _least(values) -> float:
    """Smallest entry, or -inf when any entry is not finite (see `_worst`)."""
    return -_worst(-values)


# ---------------------------------------------------------------------------
# error functionals
# ---------------------------------------------------------------------------

def projection_masses(mesh: Mesh, sys: SystemModel, u0, field0: StateField,
                      cell_mask):
    """mu0 = integral |eta(u0) - eta(u^h(.,0))| and mu_bar0 with |u0 - u^h|,
    over the cells selected by the boolean `cell_mask`.

    The per-cell integrals are filled in chunks of `_MASS_CHUNK` cells, so
    the quadrature temporaries stay small; the masked sums then fold over
    all cells in id order at once.
    """
    per_cell_eta = np.empty(mesh.n_cells)
    per_cell_u = np.empty(mesh.n_cells)
    for start in range(0, mesh.n_cells, _MASS_CHUNK):
        cells = slice(start, start + _MASS_CHUNK)
        pts, wts = tensor_gauss_quadrature(mesh, _GAUSS4, "measure masses",
                                           cells)
        vals = np.asarray(u0(pts), dtype=float)
        if vals.ndim == 2:
            vals = vals[..., None]
        u_cell = field0.values[cells]
        eta_exact = sys.entropy(vals)
        eta_cell = sys.entropy(u_cell)[:, None]
        diff = vals - u_cell[:, None, :]
        per_cell_eta[cells] = (wts * np.abs(eta_exact - eta_cell)).sum(axis=1)
        per_cell_u[cells] = (wts * np.sqrt(axis_sum(diff ** 2))).sum(axis=1)
    return (float(per_cell_eta[cell_mask].sum()),
            float(per_cell_u[cell_mask].sum()))


def reference_cell_means(mesh: Mesh, reference, t: float,
                         quadrature: str = "midpoint"):
    """Cell averages of the reference at time t, same rule as the projection."""
    return cell_means(mesh, lambda x: reference.eval(x, t), quadrature)


def relative_entropy_norm(mesh: Mesh, sys: SystemModel, field: StateField,
                          reference_means) -> float:
    """sum_K |K| H(u_K, ubar_K); brackets the squared L2 cell error."""
    ubar = np.asarray(reference_means, dtype=float)
    return _relative_entropy_sum(mesh, sys, sys.entropy(field.values), ubar,
                                 field.values - ubar)


def squared_l2_cell_error(mesh: Mesh, field: StateField, reference_means) -> float:
    diff = field.values - np.asarray(reference_means, dtype=float)
    return float(_cell_sq_error(mesh, diff).sum())


def _relative_entropy_sum(mesh, sys, eta_u, ubar, diff) -> float:
    """sum_K |K| H(u_K, ubar_K) from eta(u) and diff = u - ubar."""
    # no Omega check: a run checks its states under its own config
    H = relative_entropy_terms(sys, eta_u, ubar, diff)
    return float((mesh.cell_volumes * H).sum())


def _cell_sq_error(mesh, diff):
    """Per-cell |K| |u_K - ubar_K|^2 from diff = u - ubar."""
    return mesh.cell_volumes * axis_sum(diff ** 2)


class ErrorFold:
    """The run's one solver hook: `accumulate_step`, then the error functionals.

    Cells count as inside a ball when their centroid is (periodic
    minimum-image distance).  The measure masses mu_T and mu_bar_T on
    B(0, r) are ball-masked sums of the per-cell time variation that
    `accumulate_step` returns.  With a reference, its cell means are
    evaluated once per time level t^n; u^n - ubar^n and |K| |u^n - ubar^n|^2
    are formed once and shared by the shrinking-cone L2 error (`cone`), the
    relative-entropy series and the M-beta bracket (`mbeta_ok`).  eta(u^n)
    serves the ledger and the relative entropy, and eta(u^{n+1}) of a step
    is kept as eta(u^n) of the next, which the solver hands the same state
    object (states are never changed in place).  `finish(trajectory)` adds
    the projection masses mu_0, mu_bar_0 of the first state and the level
    at the final time.  Time sums use the left-endpoint rule; nothing is
    kept per step.
    """

    def __init__(self, ledger: DiagnosticsLedger, mesh: Mesh,
                 sys: SystemModel, scheme: FluxScheme, u0, r: float,
                 T: float, lf: float, reference=None,
                 quadrature: str = "midpoint"):
        self.ledger, self.mesh, self.sys, self.scheme = ledger, mesh, sys, scheme
        self.u0, self.r, self.T, self.lf = u0, r, T, lf
        self.reference, self.quadrature = reference, quadrature
        self.dist = mesh.periodic_distance_to_origin(mesh.cell_centroids)
        self.ball = self.dist <= r
        # a ball over every cell selects by a plain slice, which copies
        # nothing and sums the same
        self._ball = slice(None) if self.ball.all() else self.ball
        self.cone = 0.0
        self.mbeta_ok = True
        self._last = (None, None)  # the latest new state and its eta

    def __call__(self, n, field_n, field_np1, records, dt):
        entropies = self._step_entropies(field_n, field_np1)
        vol_du, vol_deta = accumulate_step(self.ledger, self.mesh, self.sys,
                                           self.scheme, field_n, field_np1,
                                           records, dt, entropies)
        self._fold_masses(vol_du, vol_deta, dt)
        self._fold_error(field_n, entropies[0], dt)

    def _entropy(self, field: StateField):
        """eta of a state; the carried one when it is the latest new state."""
        last, eta = self._last
        return eta if field is last else self.sys.entropy(field.values)

    def _step_entropies(self, field_n, field_np1):
        """(eta(u^n), eta(u^{n+1})) of a step; keeps the second for the next."""
        eta_n = self._entropy(field_n)
        eta_np1 = self.sys.entropy(field_np1.values)
        self._last = (field_np1, eta_np1)
        return eta_n, eta_np1

    def _fold_masses(self, vol_du, vol_deta, dt):
        """The step's share of mu_T and mu_bar_T."""
        self.ledger.mu_t_mass += dt * float(vol_deta[self._ball].sum())
        self.ledger.mu_bar_t_mass += dt * float(vol_du[self._ball].sum())

    def _fold_error(self, field_n, eta_n, dt):
        """The step's share of the error functionals at t^n."""
        if self.reference is None:
            return
        cell_sq, esq = self._level(field_n, eta_n)
        cone = self.dist <= self.r + self.lf * (self.T - field_n.time)
        self.cone += dt * (esq if cone.all() else float(cell_sq[cone].sum()))

    def _level(self, field: StateField, eta):
        """Series entry and M-beta check at t = field.time, where eta =
        eta(u); returns the per-cell squared error and its sum."""
        t = field.time
        if t > self.reference.valid_until * (1 + 1e-12):
            raise ConfigError(f"reference not valid at t={t}")
        ubar = reference_cell_means(self.mesh, self.reference, t,
                                    self.quadrature)
        diff = field.values - ubar
        hnorm = _relative_entropy_sum(self.mesh, self.sys, eta, ubar, diff)
        cell_sq = _cell_sq_error(self.mesh, diff)
        esq = float(cell_sq.sum())
        self.ledger.rel_entropy_series.append((t, hnorm))
        lo = 0.5 * self.sys.beta0 * esq
        hi = 0.5 * self.sys.beta1 * esq
        tol = 1e-10 * max(1.0, esq) + 1e-10 * abs(hnorm)
        if not (lo - tol <= hnorm <= hi + tol):
            self.mbeta_ok = False
        return cell_sq, esq

    def finish(self, trajectory):
        """Add the projection masses and the final level of a finished run."""
        if not np.any(self.ball):
            raise ConfigError("no cell centroid lies in the requested ball")
        self.ledger.mu0_mass, self.ledger.mu_bar0_mass = projection_masses(
            self.mesh, self.sys, self.u0, trajectory.snapshots[0][1],
            self.ball)
        if self.reference is not None:
            final = trajectory.final_field
            self._level(final, self._entropy(final))


def _replay(fold: ErrorFold, trajectory, masses: bool) -> None:
    """Fold every step of a stored trajectory (no flux records needed):
    its share of the measure masses, or else of the error functionals."""
    snaps = trajectory.snapshots
    if len(snaps) != trajectory.n_steps + 1:
        raise ConfigError("the error functionals need snapshots at every step")
    for (_, fa), (_, fb) in zip(snaps[:-1], snaps[1:]):
        if masses:
            _, vol_du, vol_deta = _cell_variation(
                fold.mesh, fold.sys, fa, fb, fold._step_entropies(fa, fb))
            fold._fold_masses(vol_du, vol_deta, trajectory.dt)
        else:
            fold._fold_error(fa, fold._entropy(fa), trajectory.dt)


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
    with r large the ball covers the whole box.  `ErrorFold` over a
    trajectory recorded at every step.
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

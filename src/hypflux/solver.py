"""Explicit finite-volume time loop.

The update is the first-order balance

    u_K^{n+1} = u_K^n - (dt/|K|) sum_L |sigma_KL| G_KL(u_K^n, u_L^n)

with the cell averages of the initial data as starting values.  Each
interface flux is evaluated once per step and scattered with opposite
signs into its two cells, so the discrete balance is conservative
bit-exactly.  The loop runs only the update part of the flux kernel,
which gives G_KL; the flux records (entropy fluxes, defect, gap) come from
the records part, which `diagnostics.ErrorFold` runs over blocks of
steps.  The time step is uniform over the whole run and pre-shrunk so
that an integer number of steps lands exactly on the final time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AdmissibilityError, ConfigError
from .mesh import Mesh
from .numflux import FluxScheme, InterfaceFluxRecords
from .systems import StateField, SystemModel, axis_sum

_GAUSS3 = (np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)]),
           np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]))


@dataclass
class RunConfig:
    final_time: float
    cfl_mode: str = "strengthened"
    zeta: float = 0.1
    record_every: int = 1
    check_admissibility: bool = True
    quadrature: str = "midpoint"

    def __post_init__(self):
        if not (self.final_time >= 0.0 and math.isfinite(self.final_time)):
            raise ConfigError(f"final_time must be nonnegative, got {self.final_time}")
        if self.cfl_mode not in ("standard", "strengthened"):
            raise ConfigError(f"unknown cfl_mode {self.cfl_mode!r}")
        if not 0.0 < self.zeta < 1.0:
            raise ConfigError(f"zeta must lie in (0, 1), got {self.zeta}")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")
        if self.quadrature not in ("midpoint", "gauss3"):
            raise ConfigError(f"unknown quadrature {self.quadrature!r}")


@dataclass
class Trajectory:
    snapshots: list          # [(time, StateField), ...]
    dt: float
    n_steps: int

    @property
    def final_field(self):
        return self.snapshots[-1][1]


# ---------------------------------------------------------------------------
# quadrature over cells
# ---------------------------------------------------------------------------

def cell_quadrature(mesh: Mesh, quadrature: str = "midpoint"):
    """(points, weights) per cell; weights sum to the cell volume.

    midpoint evaluates at centroids; gauss3 is the 3-point tensor
    Gauss-Legendre rule of `tensor_gauss_quadrature`.
    """
    if quadrature == "midpoint":
        pts = mesh.cell_centroids[:, None, :]
        wts = mesh.cell_volumes[:, None]
        return pts, wts
    if quadrature != "gauss3":
        raise ConfigError(f"unknown quadrature {quadrature!r}")
    return tensor_gauss_quadrature(mesh, _GAUSS3)


def tensor_gauss_quadrature(mesh: Mesh, rule, cells=slice(None)):
    """(points, weights) per cell of the tensor product of a 1D rule.

    `rule` is (nodes, weights) on [-1, 1]; `cells` is a slice of cell ids
    (all cells by default).  1D cells are reconstructed from centroid and
    volume, 2D cells map the reference square through the bilinear
    embedding of their vertices, which every 2D mesh carries.  Each cell's
    points and weights are the same bit for bit whatever slice computes
    them.
    """
    nodes, weights = rule
    if mesh.dim == 1:
        half = 0.5 * mesh.cell_volumes[cells, None]
        pts = mesh.cell_centroids[cells] + half * nodes[None, :]
        return pts[..., None], half * weights[None, :]
    verts = mesh.cell_vertices[cells]  # (N, 4, 2)
    s, t = np.meshgrid(nodes, nodes, indexing="ij")
    ws, wt = np.meshgrid(weights, weights, indexing="ij")
    s, t, w = s.ravel(), t.ravel(), (ws * wt).ravel()
    # bilinear map from [-1,1]^2 through corners p0..p3 (counterclockwise)
    shp = np.stack([(1 - s) * (1 - t), (1 + s) * (1 - t),
                    (1 + s) * (1 + t), (1 - s) * (1 + t)], axis=0) / 4.0
    d_s = np.stack([-(1 - t), (1 - t), (1 + t), -(1 + t)], axis=0) / 4.0
    d_t = np.stack([-(1 - s), -(1 + s), (1 + s), (1 - s)], axis=0) / 4.0
    pts = np.einsum("qp,nqi->npi", shp, verts)
    xs = np.einsum("qp,nqi->npi", d_s, verts)
    xt = np.einsum("qp,nqi->npi", d_t, verts)
    jac = np.abs(xs[..., 0] * xt[..., 1] - xs[..., 1] * xt[..., 0])
    return pts, jac * w[None, :]


def cell_means(mesh: Mesh, fn, quadrature: str = "midpoint"):
    """Cell averages (1/|K|) integral_K fn(x) dx under the given rule."""
    pts, wts = cell_quadrature(mesh, quadrature)
    return _average(mesh, wts, _point_values(fn, pts))


def _point_values(fn, pts):
    """fn(pts) as float, with a trailing state axis for scalar callables."""
    vals = np.asarray(fn(pts), dtype=float)
    return vals[..., None] if vals.ndim == 2 else vals


def _average(mesh: Mesh, wts, vals):
    """Cell averages of point values (..., n_cells, points, m), where the
    leading axes, if any, are time levels."""
    return (axis_sum(wts[..., None] * vals, axis=-2)
            / mesh.cell_volumes[:, None])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def project_initial(mesh: Mesh, sys: SystemModel, u0,
                    quadrature: str = "midpoint") -> StateField:
    """Cell averages of the initial data, checked for admissibility.

    u0 is evaluated once; the point-wise check and the means read the
    same values, so the means are those of `cell_means`.
    """
    pts, wts = cell_quadrature(mesh, quadrature)
    vals = _point_values(u0, pts)
    ok = sys.omega.contains(vals)
    if not np.all(ok):
        cell = int(np.flatnonzero(~np.all(ok, axis=-1))[0])
        raise AdmissibilityError(
            f"initial data leave the admissible set inside cell {cell}")
    fld = StateField(values=_average(mesh, wts, vals), time=0.0,
                     mesh_id=mesh.mesh_id)
    try:
        fld.check_admissible(sys)
    except AdmissibilityError as exc:
        raise AdmissibilityError(f"projected initial data: {exc}") from exc
    return fld


def compute_dt(mesh: Mesh, sys: SystemModel, scheme: FluxScheme,
               config: RunConfig) -> float:
    """Uniform time step under the selected CFL rule, exact-fit to T.

    standard:     dt <= min(a^2 h / lambda*, min_K |K| / (lambda* sum|sigma|))
    strengthened: dt <= (beta0/beta1) (a^2/lambda*) (1 - zeta) h, also
                  capped by the per-cell bound.
    The result is then reduced so that n_steps * dt == final_time.
    """
    lam = scheme.lambda_star
    a, h = mesh.a, mesh.h
    if not all(map(math.isfinite, (lam, a, h, sys.beta0, sys.beta1))):
        raise ConfigError("non-finite CFL inputs")
    per_cell = float((mesh.cell_volumes / (lam * mesh.boundary_measure())).min())
    if config.cfl_mode == "standard":
        dt0 = min(a * a * h / lam, per_cell)
    else:
        dt0 = (sys.beta0 / sys.beta1) * (a * a / lam) * (1.0 - config.zeta) * h
        dt0 = min(dt0, per_cell)
    if config.final_time == 0.0:
        return dt0
    n = max(1, int(math.ceil(config.final_time / dt0 - 1e-12)))
    while config.final_time / n > dt0 * (1.0 + 1e-15):
        n += 1
    return config.final_time / n


def _gather(mesh: Mesh, field: StateField):
    """(u_K, u_L, n) of every interface, the arguments of a flux kernel."""
    return (field.values.take(mesh.iface_left, axis=0),
            field.values.take(mesh.iface_right, axis=0), mesh.iface_normals)


def interface_flux_records(mesh: Mesh, sys: SystemModel, scheme: FluxScheme,
                           field: StateField) -> InterfaceFluxRecords:
    """Evaluate every interface flux once for the given state."""
    return scheme.kernel(*_gather(mesh, field))


def march(mesh: Mesh, sys: SystemModel, scheme: FluxScheme,
          field: StateField, dt: float, n_steps: int,
          check_admissibility: bool = False):
    """The one time loop: n_steps updates of size dt from `field`, yielding
    (n, field_n, field_np1, update) after each, where `update` is the
    `InterfaceUpdate` of field_n that the step used: G_KL with the gathered
    states and the intermediates the flux records need.  Only the update
    part of the kernel runs; `scheme.records(update, mesh.iface_normals)`
    gives the records.  The caller is responsible for the CFL bound."""
    if field.values.shape[0] != mesh.n_cells:
        raise ConfigError("state field does not match the mesh")
    t0 = field.time
    to_left = (dt / mesh.cell_volumes[mesh.iface_left])[:, None]
    to_right = (dt / mesh.cell_volumes[mesh.iface_right])[:, None]
    for n in range(n_steps):
        update = scheme.update(*_gather(mesh, field))
        flux = mesh.iface_areas[:, None] * update.g_value
        new = StateField(
            values=mesh.scatter(field.values, to_left * flux,
                                to_right * flux, signs=(-1, 1)),
            time=t0 + (n + 1) * dt, mesh_id=field.mesh_id)
        del flux
        if check_admissibility:
            try:
                new.check_admissible(sys)
            except AdmissibilityError as exc:
                raise AdmissibilityError(f"step {n + 1}: {exc}") from exc
        yield n, field, new, update
        del update  # before the next step's flux
        field = new


def step(mesh: Mesh, sys: SystemModel, scheme: FluxScheme,
         field: StateField, dt: float,
         check_admissibility: bool = False) -> StateField:
    """One explicit update.  The caller is responsible for the CFL bound."""
    return next(march(mesh, sys, scheme, field, dt, 1, check_admissibility))[2]


def run(mesh: Mesh, sys: SystemModel, scheme: FluxScheme, u0,
        config: RunConfig, hooks: Sequence[Callable] = ()) -> Trajectory:
    """Project, then march N_T uniform steps to the final time.

    Hooks are invoked after every step as hook(n, field_n, field_np1,
    update, dt), with the `InterfaceUpdate` that `march` yields.  The
    first state, every `record_every`-th state and the last state are
    kept on the trajectory.
    """
    field = project_initial(mesh, sys, u0, config.quadrature)
    dt = compute_dt(mesh, sys, scheme, config)
    n_steps = 0 if config.final_time == 0.0 else int(round(config.final_time / dt))
    traj = Trajectory(snapshots=[(0.0, field)], dt=dt, n_steps=n_steps)
    for n, field_n, field_np1, update in march(
            mesh, sys, scheme, field, dt, n_steps, config.check_admissibility):
        for hook in hooks:
            hook(n, field_n, field_np1, update, dt)
        del update  # before the next step's flux
        if (n + 1) % config.record_every == 0 or n + 1 == n_steps:
            traj.snapshots.append((field_np1.time, field_np1))
    return traj

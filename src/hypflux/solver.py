"""Explicit finite-volume time loop.

The update is the first-order balance

    u_K^{n+1} = u_K^n - (dt/|K|) sum_L |sigma_KL| G_KL(u_K^n, u_L^n)

with the cell averages of the initial data as starting values.  Each
interface flux is evaluated once per step and scattered with opposite
signs into its two cells, so the discrete balance is conservative
bit-exactly.  The loop runs only the update part of the flux kernel,
which gives G_KL, and hands its steps out in blocks (`march_blocks`):
the states, G, the gathered sides and the kernel's intermediates of K
steps on a leading axis, from which `diagnostics.ErrorFold` derives the
flux records (entropy fluxes, defect, gap) and every functional as row
reductions.  The time step is uniform over the whole run and pre-shrunk
so that an integer number of steps lands exactly on the final time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AdmissibilityError, ConfigError
from .mesh import Mesh
from .numflux import (BoundKernel, FluxScheme, InterfaceFluxRecords,
                      InterfaceUpdate)
from .systems import SCRATCH_ENTRIES, StateField, SystemModel, axis_sum

# Interface entries per block of steps: `march_blocks` yields blocks of
# K = max(1, _BLOCK_ENTRIES // E) steps on a mesh of E interfaces.  The
# records part, the ledger and the error levels of a block run on (K, E)
# arrays, so their scratch grows with the block; at 8192 entries, a
# quarter of the scratch bound, blocks of 16,384 or 32,768 entries raised
# the peak of the 1024-cell Godunov run by 1.7 or 5.2 MiB.
_BLOCK_ENTRIES = SCRATCH_ENTRIES // 4

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
    pts = np.ascontiguousarray(_corner_sum(shp, verts))
    xs = _corner_sum(d_s, verts)
    xt = _corner_sum(d_t, verts)
    jac = np.abs(xs[..., 0] * xt[..., 1] - xs[..., 1] * xt[..., 0])
    return pts, jac * w[None, :]


def _corner_sum(coeffs, verts):
    """sum_q coeffs[q, p] verts[n, q, i] over the corners q in order, as
    (n, p, i); the bits of np.einsum("qp,nqi->npi", coeffs, verts), which
    adds the same products in the same order.

    The sum runs on an (n, i, p) array, whose last axis is long, and is
    returned as its transposed view.
    """
    corners = verts.transpose(0, 2, 1)[..., None]  # (n, i, q, 1)
    out = corners[:, :, 0] * coeffs[0]
    for q in range(1, len(coeffs)):
        out += corners[:, :, q] * coeffs[q]
    return out.transpose(0, 2, 1)


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


def interface_flux_records(mesh: Mesh, sys: SystemModel, scheme: FluxScheme,
                           field: StateField) -> InterfaceFluxRecords:
    """Evaluate every interface flux once for the given state."""
    u = field.values
    return scheme.kernel(mesh.gather_left(u),
                         u.take(mesh.iface_right, axis=0), mesh.iface_normals)


def steps_per_block(mesh: Mesh) -> int:
    """K, the steps of a block of `march_blocks` on `mesh`."""
    return max(1, _BLOCK_ENTRIES // mesh.n_interfaces)


@dataclass
class StepBlock:
    """k consecutive steps of one march, from step `start`.

    Row j of `states` is the state after start + j steps, at `times[j]`;
    row j of the arrays of `update` is the `InterfaceUpdate` of the step
    from row j to row j + 1.  The rows are the march's buffers, which its
    next block rewrites, so a consumer copies what it keeps and may
    overwrite the rest (the records part does).  A consumer that takes
    `update` (setting it to None) frees its arrays, when they are the
    step's own, as soon as it is done with them.  A march of states only
    gives None.  `kernel` is the march's kernel, bound to the mesh's
    normals: `block.kernel.records(block.update)` gives the records.
    """

    start: int
    dt: float
    times: list
    states: np.ndarray       # (k + 1, n_cells, m)
    update: InterfaceUpdate  # arrays with a leading step axis of length k
    kernel: BoundKernel = None


def march_blocks(mesh: Mesh, sys: SystemModel, scheme: FluxScheme,
                 field: StateField, dt: float, n_steps: int,
                 check_admissibility: bool = False, steps: int = None, *,
                 _states_only: bool = False):
    """The one time loop: n_steps updates of size dt from `field`, yielded
    in `StepBlock`s of `steps` steps (`steps_per_block(mesh)` by default;
    the last may be shorter).  Only the update part of the kernel runs,
    bound once to the mesh's normals (`FluxScheme.bind`); each block
    carries that binding, whose records part gives the records.  The
    caller is responsible for the CFL bound.

    The states are one (K + 1, N, m) buffer for the run: a step gathers
    from its row and scatters into the next.  With K > 1 the sides are
    gathered into (K, E, m) buffers, and G and the parts are copied into
    theirs; a block of one step is the step's own arrays.  With
    `check_admissibility`, the new states of a block are tested at once:
    the steps before the first one outside Omega are yielded, and then the
    march raises what checking that step alone raises.  With
    `_states_only`, for a caller that reads only the states, the blocks
    carry no update and the march copies no rows.
    """
    if field.values.shape[0] != mesh.n_cells:
        raise ConfigError("state field does not match the mesh")
    k_max = steps or steps_per_block(mesh)
    kernel = scheme.bind(mesh.iface_normals)
    areas = mesh.iface_areas[:, None]
    to_left = (dt / mesh.cell_volumes[mesh.iface_left])[:, None]
    to_right = (dt / mesh.cell_volumes[mesh.iface_right])[:, None]
    states = np.empty((k_max + 1,) + field.values.shape)
    states[-1] = field.values
    times = [field.time]
    # for K > 1: the G and side buffers, then the parts' in the shapes of
    # the first step's
    shape = (k_max, mesh.n_interfaces) + field.values.shape[1:]
    rows = ([np.empty(shape) for _ in range(3)]
            if k_max > 1 and not _states_only else None)
    # a checked block may step on from a state outside Omega, whose
    # floating-point warnings belong to steps that are never yielded
    quiet = "ignore" if check_admissibility else None
    for start in range(0, n_steps, k_max):
        states[0] = states[-1]  # the last state of the previous, full block
        times = times[-1:]
        k = min(k_max, n_steps - start)
        with np.errstate(all=quiet):
            for j in range(k):
                u = states[j]
                # the mesh's indices are in range, and a clipped take
                # writes into `out` without a buffer
                out = (None, None) if rows is None else (rows[1][j], rows[2][j])
                update = kernel.update(
                    mesh.gather_left(u, out=out[0]),
                    u.take(mesh.iface_right, axis=0, out=out[1], mode="clip"))
                flux = areas * update.g_value
                # the right cells' share in the buffer of the flux
                to_left_flux = to_left * flux
                flux *= to_right
                mesh.scatter(u, to_left_flux, flux, signs=(-1, 1),
                             out=states[j + 1])
                del to_left_flux
                times.append(field.time + (start + j + 1) * dt)
                if _states_only:
                    block_rows = None
                elif rows is None:  # a block of one step: the step's arrays
                    block_rows = [a[None] for a in (
                        update.g_value, update.left, update.right,
                        *update.parts)]
                else:
                    if len(rows) == 3:
                        rows += [np.empty((k_max,) + p.shape)
                                 for p in update.parts]
                    rows[0][j] = update.g_value
                    for row, p in zip(rows[3:], update.parts):
                        row[j] = p
                    block_rows = rows
                del update, flux
        ok = _admissible_rows(sys, states[1:k + 1]) if check_admissibility else k
        if ok:
            block = StepBlock(start, dt, times[:ok + 1], states[:ok + 1],
                              None, kernel)
            if block_rows is not None:
                block_rows = [a[:ok] for a in block_rows]
                block.update = InterfaceUpdate(*block_rows[:3],
                                               tuple(block_rows[3:]))
            del block_rows  # the block holds the update from here on
            yield block
        if ok < k:
            try:
                StateField(states[ok + 1], times[ok + 1],
                           field.mesh_id).check_admissible(sys)
            except AdmissibilityError as exc:
                raise AdmissibilityError(
                    f"step {start + ok + 1}: {exc}") from exc


def _admissible_rows(sys: SystemModel, states) -> int:
    """How many leading rows of a (k, N, m) block of states lie in Omega,
    from one membership test over the whole block."""
    ok = sys.omega.contains(states.reshape(-1, states.shape[-1]))
    bad = ~ok.reshape(len(states), -1).all(axis=1)
    return int(bad.argmax()) if bad.any() else len(states)


def run(mesh: Mesh, sys: SystemModel, scheme: FluxScheme, u0,
        config: RunConfig, hooks: Sequence[Callable] = (),
        record: Callable = None) -> Trajectory:
    """Project, then march N_T uniform steps to the final time.

    Each hook is invoked as hook(block) with every `StepBlock` of the
    march, in order.  The recorded states are the first state, every
    `record_every`-th state and the last state.  They are kept on the
    trajectory, as copies of block rows; or, with `record`, handed to
    record(states) as they come, a list of (time, StateField) on the
    march's rows (valid during the call only): the first state before the
    march, then those of each block after its hooks.  The trajectory then
    keeps the first and last states only.
    """
    field = project_initial(mesh, sys, u0, config.quadrature)
    dt = compute_dt(mesh, sys, scheme, config)
    n_steps = 0 if config.final_time == 0.0 else int(round(config.final_time / dt))
    traj = Trajectory(snapshots=[(0.0, field)], dt=dt, n_steps=n_steps)
    if record is not None:
        record([(0.0, field)])
    for block in march_blocks(mesh, sys, scheme, field, dt, n_steps,
                              config.check_admissibility):
        for hook in hooks:
            hook(block)
        kept = [(t, StateField(values=block.states[j], time=t,
                               mesh_id=field.mesh_id))
                for j, t in enumerate(block.times[1:], 1)
                if (block.start + j) % config.record_every == 0
                or block.start + j == n_steps]
        if record is not None:
            record(kept)
            # the run's last state is the last row of its last block
            last = block.start + len(block.times) - 1 == n_steps
            kept = kept[-1:] if last else []
        traj.snapshots += [(t, StateField(values=fld.values.copy(), time=t,
                                          mesh_id=fld.mesh_id))
                           for t, fld in kept]
    return traj

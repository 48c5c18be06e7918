"""Immutable unstructured meshes of periodic boxes.

A mesh is a flat collection of polygonal cells plus oriented interfaces.
Each interface is stored once, with a unit normal pointing from its
``left`` cell to its ``right`` cell; the opposite orientation is obtained
by negation.  The constructor computes the largest cell diameter ``h``
and the mesh regularity constant ``a`` (the largest value such that every
cell satisfies |K| >= a*h^d and sum|sigma_KL| <= h^(d-1)/a) and stores
them on the mesh, since the time-step bounds depend on them explicitly.

In one dimension the interface measure is the counting measure: every
interface has area 1 and normal +-1.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
# numpy imports numpy.random on first use; import it with the package, so
# that the first default_rng call of a problem build does not pay for it
import numpy.random  # noqa: F401

from .errors import MeshError
from .systems import scratch_slices

# Relative tolerances used by the validation pass.
_CLOSURE_RTOL = 1.0e-12
_NORMAL_TOL = 1.0e-14


class Mesh:
    """Periodic polygonal mesh with cached geometry arrays.

    The per-entity arrays (volumes, centroids, areas, normals, the CSR
    offsets and the scatter table) are the storage; the CSR ids are
    derived on access.  All arrays are frozen after construction, and
    each keeps the memory order it is given (the quad builders give
    column-major normals, so that each component is contiguous).
    """

    def __init__(self, dim, domain, cell_volumes, cell_centroids,
                 iface_left, iface_right, iface_areas, iface_normals,
                 mesh_id, cell_vertices=None, grid_shape=None):
        self.dim = int(dim)
        self.domain = tuple(float(x) for x in domain)
        self.cell_volumes = np.asarray(cell_volumes, dtype=float)
        self.cell_centroids = np.asarray(cell_centroids, dtype=float).reshape(-1, self.dim)
        self.iface_left = np.asarray(iface_left, dtype=int)
        self.iface_right = np.asarray(iface_right, dtype=int)
        self.iface_areas = np.asarray(iface_areas, dtype=float)
        self.iface_normals = np.asarray(iface_normals, dtype=float).reshape(-1, self.dim)
        self.mesh_id = str(mesh_id)
        ends = np.concatenate([self.iface_left, self.iface_right])
        if np.any((ends < 0) | (ends >= self.n_cells)):
            raise MeshError("an interface references a cell outside the mesh")
        # cell -> interface adjacency (CSR): the offsets are kept and the
        # ids derived on access (`cell_iface_ids`); the rows as slots into
        # [left values; right values] build the scatter table and go
        self.cell_iface_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(ends, minlength=self.n_cells))])
        slots = _csr_slots(ends)
        del ends
        self._scatter_columns = _scatter_columns(
            slots, self.cell_iface_offsets, self.n_interfaces)
        del slots
        # r when iface_left is each cell id repeated r times in order (the
        # built meshes: r = 1 on a segment, 2 on a quad grid), else None
        self._left_repeats = _repeat_count(self.iface_left, self.n_cells)
        # (n_cells, k, d) vertex coordinates, for the cell diameters and the
        # tensor quadrature; a 2D mesh without them is rejected below.
        self.cell_vertices = (None if cell_vertices is None
                              else np.asarray(cell_vertices, dtype=float))
        # (n,) of a uniform segment or (nx, ny) of a quad grid, whose cell
        # (i, j) has id i*ny + j; set by the builders only.
        self.grid_shape = grid_shape
        self.h = self._max_diameter()
        self.a = regularity_constant(self)
        for arr in (self.cell_volumes, self.cell_centroids, self.iface_left,
                    self.iface_right, self.iface_areas, self.iface_normals,
                    self.cell_iface_offsets, self.cell_vertices):
            if arr is not None:
                arr.setflags(write=False)

    # -- basic queries -------------------------------------------------

    @property
    def n_cells(self):
        return self.cell_volumes.shape[0]

    @property
    def n_interfaces(self):
        return self.iface_areas.shape[0]

    def boundary_measure(self):
        """Per-cell sum of incident interface areas, sum_L |sigma_KL|."""
        return self.scatter(np.zeros(self.n_cells), self.iface_areas,
                            self.iface_areas)

    @cached_property
    def total_iface_area(self):
        """sum_e |sigma_e|, in interface order."""
        return float(self.iface_areas.sum())

    @property
    def cell_iface_ids(self):
        """The CSR ids: row K, cell_iface_ids[cell_iface_offsets[K]:
        cell_iface_offsets[K + 1]], lists the interfaces whose left cell is
        K, then those whose right cell is K, each in interface order.
        Derived on each access; the mesh does not keep it."""
        ids = _csr_slots(np.concatenate([self.iface_left, self.iface_right]))
        ids %= self.n_interfaces
        ids.setflags(write=False)
        return ids

    def gather_left(self, u, out=None):
        """u.take(iface_left, axis=0), in `out` or a new array: the rows of
        each interface's left cell.

        Where iface_left repeats each cell r times in order, as on the
        built meshes, the rows are copied without an index: one copy of u
        for r = 1, and for one-column states r copies of u side by side,
        whose (n_cells, r) rows are the interface rows in order.  Both
        copy the rows that `take` copies, and faster; the rest gathers
        with `take`.
        """
        r = self._left_repeats
        if out is None:
            out = np.empty((self.n_interfaces,) + u.shape[1:], u.dtype)
        if r == 1:
            np.copyto(out, u)
        elif r is not None and u.shape[1:] == (1,) and out.flags.c_contiguous:
            np.concatenate([u] * r, axis=1, out=out.reshape(self.n_cells, r))
        else:
            # the mesh's indices are in range, and a clipped take writes
            # into `out` without a buffer
            u.take(self.iface_left, axis=0, out=out, mode="clip")
        return out

    def scatter(self, base, to_left, to_right, signs=(1, 1), out=None):
        """base plus, per cell, the interface values of its faces, each
        side's values added (sign 1) or subtracted (sign -1), in a new
        array or in `out` (an array of base's shape other than base).

        Adds in the order of np.add.at(base, iface_left, signs[0] * to_left)
        followed by np.add.at(base, iface_right, signs[1] * to_right), so
        the sums are the same bit for bit: x - y is x + (-y) in IEEE
        arithmetic.  One-sided columns read `to_left` or `to_right`
        directly; a mesh with a mixed column reads the stack of both
        sides' signed values and -0.0, whose padding changes no float.  A
        column whose rows step evenly (each left column of a built mesh)
        is a basic slice, which reads its rows as a view; the other
        columns gather with `take`, which on a (n, m) array is several
        times faster than fancy indexing and copies the same rows.
        """
        cols = self._scatter_columns
        sources, signs = [to_left, to_right], list(signs)
        if cols[0][0] == 2:
            sources.append(np.concatenate(
                [x if sign > 0 else -x for x, sign in zip(sources, signs)]
                + [np.full((1,) + to_left.shape[1:], -0.0)]))
            signs.append(1)
        for k, (src, col) in enumerate(cols):
            vals = (sources[src][col] if isinstance(col, slice)
                    else sources[src].take(col, axis=0))
            if k == 0:
                out = (np.add if signs[src] > 0 else np.subtract)(
                    base, vals, out=out)
            elif signs[src] > 0:
                out += vals
            else:
                out -= vals
            del vals
        return out

    def _max_diameter(self):
        if self.cell_vertices is not None:
            # one vertex pair at a time; the max of the pairs' maxima is
            # the max over all pairs
            v = self.cell_vertices
            return float(np.max([
                np.sqrt(((v[:, a] - v[:, b]) ** 2).sum(-1)).max()
                for a, b in zip(*np.triu_indices(v.shape[1], 1))]))
        if self.dim == 1:
            return float(self.cell_volumes.max())
        raise MeshError("cell vertices required to compute diameters in 2D")

    def periodic_distance_to_origin(self, points):
        """Minimum-image Euclidean distance from `points` to the origin."""
        p = np.asarray(points, dtype=float).reshape(-1, self.dim)
        lengths = np.asarray(self.domain)
        wrapped = np.mod(p, lengths)
        d = np.minimum(wrapped, lengths - wrapped)
        return np.sqrt((d ** 2).sum(axis=1))


def _csr_slots(ends):
    """The CSR rows of the cells as slots into [left values; right values],
    from ends = [iface_left; iface_right]."""
    return np.argsort(ends, kind="stable")


def _scatter_columns(slots, offsets, n):
    """Columns of the (n_cells, k) table of the CSR rows `slots` (with
    their `offsets`, on a mesh of n interfaces), each as (source, rows),
    where rows is a basic slice when its ids step evenly (`_as_slice`) and
    otherwise a contiguous intp array of its own (the index type of
    `take`, which then converts nothing).

    Row K of the table is the CSR row of K as slots into [left values;
    right values], padded with the index of a -0.0 row after them.  When
    every column reads one side only and has no padding, as on the built
    meshes, source is that side (0 left, 1 right) and rows index its
    values; otherwise source is 2 and rows index the stack [left values;
    right values; -0.0].
    """
    counts = np.diff(offsets)
    n_cells = counts.size
    rank = np.arange(slots.size)
    rank -= np.repeat(offsets[:-1], counts)
    table = np.full((counts.max(), n_cells), slots.size, np.intp)
    table[rank, np.repeat(np.arange(n_cells), counts)] = slots
    right = ((table >= n) & (table < 2 * n)).all(axis=1)
    if ((table < n).all(axis=1) | right).all():
        table[right] -= n
        sources = right.astype(int).tolist()
    else:
        sources = [2] * len(table)
    # the index columns are copies, so that the table goes
    slices = [_as_slice(col) for col in table]
    return tuple((src, col.copy() if cut is None else cut)
                 for src, col, cut in zip(sources, table, slices))


def _as_slice(ids):
    """The basic slice that selects `ids`, when they step by a positive
    constant (n >= 1 entries), else None."""
    start = int(ids[0])
    step = int(ids[1]) - start if ids.size > 1 else 1
    stop = start + step * ids.size
    if step < 1 or int(ids[-1]) != stop - step:
        return None
    if not np.array_equal(ids, np.arange(start, stop, step)):
        return None
    return slice(start, stop, step)


def _repeat_count(ids, n):
    """r when `ids` is each of range(n) repeated r times in order, else
    None."""
    if n == 0 or ids.size % n:
        return None
    r = ids.size // n
    return r if (ids.reshape(n, r) == np.arange(n)[:, None]).all() else None


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_uniform_1d(n_cells: int, length: float) -> Mesh:
    """Uniform periodic partition of a segment into `n_cells` cells.

    Rejects n_cells < 3: with two cells each interface pair would join the
    same two cells twice through the periodic wrap.
    """
    if n_cells < 3:
        raise MeshError(f"need at least 3 cells on a periodic segment, got {n_cells}")
    if length <= 0:
        raise MeshError("length must be positive")
    dx = length / n_cells
    x = np.arange(n_cells + 1) * dx  # vertex lattice
    # interface e joins cell e to cell e+1 (wrapped)
    left = np.arange(n_cells)
    mesh = Mesh(1, (length,), np.full(n_cells, dx),
                ((left + 0.5) * dx).reshape(-1, 1), left, (left + 1) % n_cells,
                np.ones(n_cells), np.ones((n_cells, 1)),
                mesh_id=f"uniform1d:n={n_cells}:L={length!r}",
                cell_vertices=np.stack([x[:-1], x[1:]], axis=-1)[..., None],
                grid_shape=(n_cells,))
    validate_mesh(mesh)
    return mesh


def build_uniform_quad_2d(nx: int, ny: int, lx: float, ly: float) -> Mesh:
    """Uniform periodic grid of axis-aligned rectangles."""
    return _build_quad_2d(nx, ny, lx, ly, jitter=0.0, seed=0,
                          mesh_id=f"quad2d:nx={nx}:ny={ny}:lx={lx!r}:ly={ly!r}")


def build_perturbed_quad_2d(nx: int, ny: int, lx: float, ly: float,
                            jitter: float, seed: int) -> Mesh:
    """Quad grid with vertices displaced by at most jitter*min(dx, dy).

    The displacement field is drawn from a seeded generator, so identical
    arguments produce bit-identical meshes.  jitter < 0.25 keeps the cells
    convex; the builder rejects meshes that end up non-convex or with a
    regularity constant at or below 0.05.
    """
    if not 0.0 <= jitter < 0.25:
        raise MeshError(f"jitter must lie in [0, 0.25), got {jitter}")
    mid = f"pquad2d:nx={nx}:ny={ny}:lx={lx!r}:ly={ly!r}:jitter={jitter!r}:seed={seed}"
    return _build_quad_2d(nx, ny, lx, ly, jitter=jitter, seed=seed, mesh_id=mid)


def _build_quad_2d(nx, ny, lx, ly, jitter, seed, mesh_id):
    """Quad mesh on the vertex lattice of `_vertex_lattice`.

    Only what the mesh stores outlives a step here: the lattice and the
    edge vectors are freed before `Mesh` builds its adjacency, and the
    shoelace geometry and the convexity test run over cells in chunks
    under the scratch bound (`scratch_slices`); each cell's numbers are
    the same whichever chunk holds it.
    """
    if nx < 3 or ny < 3:
        raise MeshError(f"need at least 3 cells per direction, got {nx}x{ny}")
    if lx <= 0 or ly <= 0:
        raise MeshError("box extents must be positive")
    dx, dy = lx / nx, ly / ny
    n_cells = nx * ny
    p = _vertex_lattice(nx, ny, lx, ly, jitter, seed)
    # cell (i, j) has id i*ny + j and corners p[i, j], p[i+1, j],
    # p[i+1, j+1], p[i, j+1] (counterclockwise)
    corners = np.stack([p[:-1, :-1], p[1:, :-1], p[1:, 1:], p[:-1, 1:]],
                       axis=2).reshape(n_cells, 4, 2)
    elen, normals = _quad_edges(p, dx, dy)
    del p
    volumes = np.empty(n_cells)
    centroids = np.empty((n_cells, 2))
    for cells in scratch_slices(n_cells, corners[0].size):
        volumes[cells], centroids[cells] = _polygon_geometry(corners[cells])
        if jitter > 0.0 and np.any(_corner_cross_products(corners[cells])
                                   <= 1e-12 * dx * dy):
            raise MeshError("perturbed mesh contains a non-convex cell")
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    right = np.stack([((i + 1) % nx) * ny + j, i * ny + (j + 1) % ny], axis=-1)
    del i, j

    mesh = Mesh(2, (lx, ly), volumes, centroids,
                np.repeat(np.arange(n_cells), 2), right.ravel(), elen,
                normals, mesh_id=mesh_id,
                cell_vertices=corners, grid_shape=(nx, ny))
    if jitter > 0.0 and mesh.a <= 0.05:
        raise MeshError(f"perturbed mesh violates regularity: a = {mesh.a:.4f} <= 0.05")
    validate_mesh(mesh)
    return mesh


def _vertex_lattice(nx, ny, lx, ly, jitter, seed):
    """(nx+1, ny+1, 2) vertex coordinates: lattice point (i mod nx, j mod
    ny) displaced by its seeded offset of at most jitter*min(dx, dy), and
    unwrapped, that is shifted by a full period where the index wraps."""
    dx, dy = lx / nx, ly / ny
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-1.0, 1.0, size=(nx, ny, 2)) * (jitter * min(dx, dy))
    base = np.stack(np.meshgrid(np.arange(nx) * dx, np.arange(ny) * dy,
                                indexing="ij"), axis=-1)
    verts = base + offsets  # periodic vertex lattice, index (i, j)
    del base, offsets
    ii, jj = np.arange(nx + 1), np.arange(ny + 1)
    shift = np.stack(np.meshgrid((ii // nx) * lx, (jj // ny) * ly,
                                 indexing="ij"), axis=-1)
    return verts[np.ix_(ii % nx, jj % ny)] + shift


def _quad_edges(p, dx, dy):
    """(lengths, unit normals) of interfaces 2k and 2k+1, the +x and +y
    edges of cell k on the lattice p, each normal oriented toward the +x
    / +y neighbor."""
    t = np.empty(p[1:, 1:].shape[:2] + (2, 2))
    t[:, :, 0] = p[1:, 1:] - p[1:, :-1]   # +x edge, p[i+1, j] to p[i+1, j+1]
    t[:, :, 1] = p[:-1, 1:] - p[1:, 1:]   # +y edge, p[i+1, j+1] to p[i, j+1]
    t = t.reshape(-1, 2)
    elen = np.hypot(t[:, 0], t[:, 1])
    # column-major, so that each component is one contiguous column
    normals = np.empty_like(t, order="F")
    normals[:, 0] = t[:, 1]
    np.negative(t[:, 0], out=normals[:, 1])
    del t
    normals /= elen[:, None]
    # the normal of an edge against its neighbor step, (dx, 0) on the +x
    # edges and (0, dy) on the +y ones: n.step is n_a * step_a plus a
    # signed zero, whose sign no comparison with 0 sees
    for a, step in enumerate((dx, dy)):
        edges = normals[a::2]
        flip = edges[:, a] * step < 0
        for col in edges.T:
            np.negative(col, out=col, where=flip)
    return elen, normals


def _polygon_geometry(corners):
    """Shoelace areas and centroids for a batch of simple polygons."""
    x, y = corners[..., 0], corners[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum(axis=1)
    cx = ((x + xn) * cross).sum(axis=1) / (6.0 * area)
    cy = ((y + yn) * cross).sum(axis=1) / (6.0 * area)
    return np.abs(area), np.stack([cx, cy], axis=-1)


def _corner_cross_products(corners):
    prev = corners - np.roll(corners, 1, axis=1)
    nxt = np.roll(corners, -1, axis=1) - corners
    return prev[..., 0] * nxt[..., 1] - prev[..., 1] * nxt[..., 0]


# ---------------------------------------------------------------------------
# regularity and validation
# ---------------------------------------------------------------------------

def regularity_constant(mesh: Mesh) -> float:
    """Largest a > 0 with |K| >= a*h^d and sum|sigma| <= h^(d-1)/a for all K."""
    h, d = mesh.h, mesh.dim
    vol_bound = float((mesh.cell_volumes / h ** d).min())
    per_bound = float((h ** (d - 1) / mesh.boundary_measure()).min())
    return min(vol_bound, per_bound)


def validate_mesh(mesh: Mesh) -> None:
    """Assert the structural and geometric mesh invariants; raise MeshError."""
    if mesh.dim not in (1, 2):
        raise MeshError(f"unsupported dimension {mesh.dim}")
    if np.any(mesh.cell_volumes <= 0):
        raise MeshError("non-positive cell volume")
    if np.any(mesh.iface_areas <= 0):
        raise MeshError("non-positive interface area")
    if np.any(mesh.iface_left == mesh.iface_right):
        raise MeshError("an interface joins a cell to itself")

    norms = np.sqrt((mesh.iface_normals ** 2).sum(axis=1))
    if np.any(np.abs(norms - 1.0) > _NORMAL_TOL):
        raise MeshError("interface normals are not unit vectors")

    # the CSR rows reference every interface from its two cells by
    # construction; each cell needs at least one
    empty = np.flatnonzero(np.diff(mesh.cell_iface_offsets) == 0)
    if empty.size:
        raise MeshError(f"cell {int(empty[0])} has no interfaces")

    # regularity with the stored constant
    a, h, d = mesh.a, mesh.h, mesh.dim
    if a <= 0:
        raise MeshError("regularity constant must be positive")
    slack = 1.0 + 1e-12
    perimeter = mesh.boundary_measure()
    if np.any(mesh.cell_volumes * slack < a * h ** d):
        raise MeshError("a cell violates the volume regularity bound")
    if np.any(perimeter > slack * h ** (d - 1) / a):
        raise MeshError("a cell violates the perimeter regularity bound")

    # closed-polygon identity per cell, outward orientation
    # in row-major order, from which the scatter's row gathers copy nothing
    # more (the normals may be column-major)
    contrib = np.multiply(mesh.iface_areas[:, None], mesh.iface_normals,
                          order="C")
    closure = mesh.scatter(np.zeros((mesh.n_cells, mesh.dim)), contrib,
                           contrib, signs=(1, -1))
    closure_norm = np.sqrt((closure ** 2).sum(axis=1))
    if np.any(closure_norm > _CLOSURE_RTOL * perimeter):
        raise MeshError("a cell violates the interface closure identity")

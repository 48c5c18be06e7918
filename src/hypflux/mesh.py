"""Immutable unstructured meshes of periodic boxes.

A mesh is a flat collection of polygonal cells plus oriented interfaces.
Each interface is stored once, with a unit normal pointing from its
``left`` cell to its ``right`` cell; the opposite orientation is obtained
by negation.  Builders compute the mesh regularity constant ``a`` (the
largest value such that every cell satisfies |K| >= a*h^d and
sum|sigma_KL| <= h^(d-1)/a) and store it on the mesh, since the time-step
bounds depend on it explicitly.

In one dimension the interface measure is the counting measure: every
interface has area 1 and normal +-1.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np
# numpy imports numpy.random on first use; import it with the package, so
# that the first default_rng call of a problem build does not pay for it
import numpy.random  # noqa: F401

from .errors import MeshError

# Relative tolerances used by the validation pass.
_CLOSURE_RTOL = 1.0e-12
_NORMAL_TOL = 1.0e-14


class Mesh:
    """Periodic polygonal mesh with cached geometry arrays.

    The per-entity arrays (volumes, centroids, areas, normals, adjacency)
    are the storage.  All arrays are frozen after construction.
    """

    def __init__(self, dim, domain, cell_volumes, cell_centroids,
                 iface_left, iface_right, iface_areas, iface_normals,
                 iface_midpoints, mesh_id, cell_vertices=None, a=None, h=None,
                 grid_shape=None):
        self.dim = int(dim)
        self.domain = tuple(float(x) for x in domain)
        self.cell_volumes = np.asarray(cell_volumes, dtype=float)
        self.cell_centroids = np.asarray(cell_centroids, dtype=float).reshape(-1, self.dim)
        self.iface_left = np.asarray(iface_left, dtype=int)
        self.iface_right = np.asarray(iface_right, dtype=int)
        self.iface_areas = np.asarray(iface_areas, dtype=float)
        self.iface_normals = np.asarray(iface_normals, dtype=float).reshape(-1, self.dim)
        self.iface_midpoints = np.asarray(iface_midpoints, dtype=float).reshape(-1, self.dim)
        self.mesh_id = str(mesh_id)
        ends = np.concatenate([self.iface_left, self.iface_right])
        if np.any((ends < 0) | (ends >= self.n_cells)):
            raise MeshError("an interface references a cell outside the mesh")
        # cell -> interface adjacency (CSR): row K, cell_iface_ids[
        # cell_iface_offsets[K]:cell_iface_offsets[K + 1]], lists the
        # interfaces whose left cell is K, then those whose right cell is
        # K, each in interface order.  _iface_slots holds the same rows as
        # indices into [left values; right values].
        self._iface_slots = np.argsort(ends, kind="stable")
        self.cell_iface_ids = np.tile(np.arange(self.n_interfaces), 2)[self._iface_slots]
        self.cell_iface_offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(ends, minlength=self.n_cells))])
        # (n_cells, k, d) vertex coordinates, kept for quadrature on fresh
        # meshes; not part of the serialized schema.
        self.cell_vertices = (None if cell_vertices is None
                              else np.asarray(cell_vertices, dtype=float))
        # (n,) of a uniform segment or (nx, ny) of a quad grid, whose cell
        # (i, j) has id i*ny + j; like the vertices, known to built meshes
        # only.
        self.grid_shape = grid_shape
        self.h = float(h) if h is not None else float(self._max_diameter())
        self.a = float(a) if a is not None else regularity_constant(self)
        for arr in (self.cell_volumes, self.cell_centroids, self.iface_left,
                    self.iface_right, self.iface_areas, self.iface_normals,
                    self.iface_midpoints, self.cell_iface_ids,
                    self.cell_iface_offsets, self._iface_slots,
                    self.cell_vertices):
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

    @cached_property
    def _scatter_columns(self):
        """Columns of the (n_cells, k) table of rows into [left values;
        right values; -0.0], as contiguous intp arrays (the index type of
        `take`, which then converts nothing).

        Row K of the table is the CSR row of K as slots, padded with the
        index of the -0.0 row.
        """
        slots = self._iface_slots
        counts = np.diff(self.cell_iface_offsets)
        rank = np.arange(slots.size) - np.repeat(self.cell_iface_offsets[:-1], counts)
        table = np.full((counts.max(), self.n_cells), slots.size, np.intp)
        table[rank, np.repeat(np.arange(self.n_cells), counts)] = slots
        return tuple(table)

    def scatter(self, base, to_left, to_right):
        """base plus, per cell, the interface values of its faces.

        Adds in the order of np.add.at(base, iface_left, to_left) followed
        by np.add.at(base, iface_right, to_right), so the sums are the
        same bit for bit; padding adds -0.0, which changes no float.
        The gathers use `take`, which on a (n, m) array is several times
        faster than fancy indexing and copies the same rows.
        """
        vals = np.concatenate([to_left, to_right,
                               np.full((1,) + to_left.shape[1:], -0.0)])
        first, *rest = self._scatter_columns
        out = base + vals.take(first, axis=0)
        for col in rest:
            out += vals.take(col, axis=0)
        return out

    def _max_diameter(self):
        if self.cell_vertices is not None:
            v = self.cell_vertices
            a, b = np.triu_indices(v.shape[1], 1)  # each vertex pair once
            diff = v[:, a] - v[:, b]
            return float(np.sqrt((diff ** 2).sum(-1)).max())
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
    # interface e sits at vertex x[e + 1] between cells e and e+1 (wrapped)
    left = np.arange(n_cells)
    mesh = Mesh(1, (length,), np.full(n_cells, dx),
                ((left + 0.5) * dx).reshape(-1, 1), left, (left + 1) % n_cells,
                np.ones(n_cells), np.ones((n_cells, 1)),
                (x[1:] % length).reshape(-1, 1),
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
    if nx < 3 or ny < 3:
        raise MeshError(f"need at least 3 cells per direction, got {nx}x{ny}")
    if lx <= 0 or ly <= 0:
        raise MeshError("box extents must be positive")
    dx, dy = lx / nx, ly / ny
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-1.0, 1.0, size=(nx, ny, 2)) * (jitter * min(dx, dy))
    base = np.stack(np.meshgrid(np.arange(nx) * dx, np.arange(ny) * dy,
                                indexing="ij"), axis=-1)
    verts = base + offsets  # periodic vertex lattice, index (i, j)
    # padded lattice (nx+1, ny+1): unwrapped coordinates, shifted by a full
    # period where the index wraps
    ii, jj = np.arange(nx + 1), np.arange(ny + 1)
    shift = np.stack(np.meshgrid((ii // nx) * lx, (jj // ny) * ly,
                                 indexing="ij"), axis=-1)
    p = verts[np.ix_(ii % nx, jj % ny)] + shift

    # cell (i, j) has id i*ny + j and corners p[i, j], p[i+1, j],
    # p[i+1, j+1], p[i, j+1] (counterclockwise)
    n_cells = nx * ny
    corners = np.stack([p[:-1, :-1], p[1:, :-1], p[1:, 1:], p[:-1, 1:]],
                       axis=2).reshape(n_cells, 4, 2)
    volumes, centroids = _polygon_geometry(corners)
    if jitter > 0.0:
        cross = _corner_cross_products(corners)
        if np.any(cross <= 1e-12 * dx * dy):
            raise MeshError("perturbed mesh contains a non-convex cell")

    # interfaces 2k and 2k+1: the +x and +y edges of cell k
    p1 = np.stack([p[1:, :-1], p[1:, 1:]], axis=2).reshape(-1, 2)
    p2 = np.stack([p[1:, 1:], p[:-1, 1:]], axis=2).reshape(-1, 2)
    t = p2 - p1
    elen = np.hypot(t[:, 0], t[:, 1])
    normals = np.stack([t[:, 1], -t[:, 0]], axis=-1) / elen[:, None]
    # orient from each cell to its +x / +y neighbor
    toward = np.tile([[dx, 0.0], [0.0, dy]], (n_cells, 1))
    flip = (normals * toward).sum(axis=-1) < 0
    normals = np.where(flip[:, None], -normals, normals)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    right = np.stack([((i + 1) % nx) * ny + j, i * ny + (j + 1) % ny], axis=-1)

    mesh = Mesh(2, (lx, ly), volumes, centroids,
                np.repeat(np.arange(n_cells), 2), right.ravel(), elen,
                normals, 0.5 * (p1 + p2), mesh_id=mesh_id,
                cell_vertices=corners, grid_shape=(nx, ny))
    if jitter > 0.0 and mesh.a <= 0.05:
        raise MeshError(f"perturbed mesh violates regularity: a = {mesh.a:.4f} <= 0.05")
    validate_mesh(mesh)
    return mesh


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
    contrib = mesh.iface_areas[:, None] * mesh.iface_normals
    closure = mesh.scatter(np.zeros((mesh.n_cells, mesh.dim)), contrib,
                           -contrib)
    closure_norm = np.sqrt((closure ** 2).sum(axis=1))
    if np.any(closure_norm > _CLOSURE_RTOL * perimeter):
        raise MeshError("a cell violates the interface closure identity")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def mesh_to_json(mesh: Mesh) -> str:
    """Serialize to the canonical JSON document (round-trips bit-exactly)."""
    ids, off = mesh.cell_iface_ids.tolist(), mesh.cell_iface_offsets.tolist()
    doc = {
        "dim": mesh.dim,
        "h": mesh.h,
        "a": mesh.a,
        "domain": list(mesh.domain),
        "mesh_id": mesh.mesh_id,
        "cells": [
            {"id": i, "volume": float(mesh.cell_volumes[i]),
             "centroid": [float(x) for x in mesh.cell_centroids[i]],
             "interfaces": sorted(ids[off[i]:off[i + 1]])}
            for i in range(mesh.n_cells)],
        "interfaces": [
            {"id": e, "left": int(mesh.iface_left[e]),
             "right": int(mesh.iface_right[e]),
             "area": float(mesh.iface_areas[e]),
             "normal": [float(x) for x in mesh.iface_normals[e]],
             "midpoint": [float(x) for x in mesh.iface_midpoints[e]]}
            for e in range(mesh.n_interfaces)],
    }
    return json.dumps(doc, indent=1)


def mesh_from_json(text: str) -> Mesh:
    doc = json.loads(text)
    cells = doc["cells"]
    ifaces = doc["interfaces"]
    mesh = Mesh(
        doc["dim"], doc["domain"],
        [c["volume"] for c in cells],
        [c["centroid"] for c in cells],
        [e["left"] for e in ifaces],
        [e["right"] for e in ifaces],
        [e["area"] for e in ifaces],
        [e["normal"] for e in ifaces],
        [e["midpoint"] for e in ifaces],
        mesh_id=doc["mesh_id"],
        cell_vertices=None,
        a=doc["a"],
        h=doc["h"],
    )
    ids, off = mesh.cell_iface_ids.tolist(), mesh.cell_iface_offsets.tolist()
    for k, c in enumerate(cells):
        faces = ids[off[k]:off[k + 1]]
        if set(c["interfaces"]) != set(faces):
            raise MeshError(f"cell {k} lists interfaces {sorted(c['interfaces'])}, "
                            f"but its faces are {sorted(faces)}")
    validate_mesh(mesh)
    return mesh

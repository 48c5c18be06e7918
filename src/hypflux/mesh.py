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
                 cell_interfaces, iface_left, iface_right, iface_areas,
                 iface_normals, iface_midpoints, mesh_id,
                 cell_vertices=None, a=None, h=None, grid_shape=None):
        self.dim = int(dim)
        self.domain = tuple(float(x) for x in domain)
        self.cell_volumes = np.asarray(cell_volumes, dtype=float)
        self.cell_centroids = np.asarray(cell_centroids, dtype=float).reshape(-1, self.dim)
        self.cell_interfaces = [tuple(int(i) for i in ids) for ids in cell_interfaces]
        self.iface_left = np.asarray(iface_left, dtype=int)
        self.iface_right = np.asarray(iface_right, dtype=int)
        self.iface_areas = np.asarray(iface_areas, dtype=float)
        self.iface_normals = np.asarray(iface_normals, dtype=float).reshape(-1, self.dim)
        self.iface_midpoints = np.asarray(iface_midpoints, dtype=float).reshape(-1, self.dim)
        self.mesh_id = str(mesh_id)
        # Vertex coordinates per cell, kept for quadrature on fresh meshes;
        # not part of the serialized schema.
        self.cell_vertices = cell_vertices
        # (n,) of a uniform segment or (nx, ny) of a quad grid, whose cell
        # (i, j) has id i*ny + j; like the vertices, known to built meshes
        # only.
        self.grid_shape = grid_shape
        self.h = float(h) if h is not None else float(self._max_diameter())
        self.a = float(a) if a is not None else regularity_constant(self)
        for arr in (self.cell_volumes, self.cell_centroids, self.iface_left,
                    self.iface_right, self.iface_areas, self.iface_normals,
                    self.iface_midpoints):
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
        out = np.zeros(self.n_cells)
        np.add.at(out, self.iface_left, self.iface_areas)
        np.add.at(out, self.iface_right, self.iface_areas)
        return out

    @cached_property
    def _scatter_table(self):
        """(n_cells, k) rows into [left values; right values; -0.0].

        Row K lists the interfaces whose left cell is K, then those whose
        right cell is K, each in interface order, padded with the index of
        the -0.0 row.
        """
        cells = np.concatenate([self.iface_left, self.iface_right])
        order = np.argsort(cells, kind="stable")
        counts = np.bincount(cells, minlength=self.n_cells)
        rank = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
        # int32 halves a table that lives as long as the mesh
        table = np.full((self.n_cells, counts.max()), order.size, np.int32)
        table[cells[order], rank] = order
        return table

    def scatter(self, base, to_left, to_right):
        """base plus, per cell, the interface values of its faces.

        Adds in the order of np.add.at(base, iface_left, to_left) followed
        by np.add.at(base, iface_right, to_right), so the sums are the
        same bit for bit; padding adds -0.0, which changes no float.
        """
        vals = np.concatenate([to_left, to_right,
                               np.full((1,) + to_left.shape[1:], -0.0)])
        table = self._scatter_table
        out = base + vals[table[:, 0]]
        for j in range(1, table.shape[1]):
            out += vals[table[:, j]]
        return out

    def _max_diameter(self):
        if self.cell_vertices is not None:
            v = np.stack([np.asarray(c) for c in self.cell_vertices])
            diff = v[:, :, None, :] - v[:, None, :, :]
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
    centroids = (np.arange(n_cells) + 0.5) * dx
    volumes = np.full(n_cells, dx)
    # interface e sits at vertex (e+1)*dx between cells e and e+1 (wrapped)
    left = np.arange(n_cells)
    right = (left + 1) % n_cells
    areas = np.ones(n_cells)
    normals = np.ones((n_cells, 1))
    midpoints = ((np.arange(n_cells) + 1) * dx % length).reshape(-1, 1)
    cell_ifaces = [((i - 1) % n_cells, i) for i in range(n_cells)]
    verts = [np.array([[i * dx], [(i + 1) * dx]]) for i in range(n_cells)]
    mesh = Mesh(1, (length,), volumes, centroids.reshape(-1, 1), cell_ifaces,
                left, right, areas, normals, midpoints,
                mesh_id=f"uniform1d:n={n_cells}:L={length!r}",
                cell_vertices=verts, grid_shape=(n_cells,))
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

    def vertex(i, j):
        # unwrapped coordinates: shift by a full period when the index wraps
        shift = np.array([(i // nx) * lx, (j // ny) * ly])
        return verts[i % nx, j % ny] + shift

    n_cells = nx * ny

    def cid(i, j):
        return (i % nx) * ny + (j % ny)

    corners = np.empty((n_cells, 4, 2))
    for i in range(nx):
        for j in range(ny):
            corners[cid(i, j)] = [vertex(i, j), vertex(i + 1, j),
                                  vertex(i + 1, j + 1), vertex(i, j + 1)]

    volumes, centroids = _polygon_geometry(corners)
    if jitter > 0.0:
        cross = _corner_cross_products(corners)
        if np.any(cross <= 1e-12 * dx * dy):
            raise MeshError("perturbed mesh contains a non-convex cell")

    # interfaces: the +x and +y edges of every cell
    left_ids, right_ids, areas, normals, midpoints = [], [], [], [], []
    cell_ifaces = [[] for _ in range(n_cells)]
    eid = 0
    for i in range(nx):
        for j in range(ny):
            k = cid(i, j)
            for (li, lj), (p1, p2) in (
                    ((i + 1, j), (vertex(i + 1, j), vertex(i + 1, j + 1))),
                    ((i, j + 1), (vertex(i + 1, j + 1), vertex(i, j + 1)))):
                lcell = cid(li, lj)
                t = p2 - p1
                elen = float(np.hypot(t[0], t[1]))
                nrm = np.array([t[1], -t[0]]) / elen
                # orient from k to its neighbor, judged in unwrapped frame
                nb_centroid = centroids[k] + (np.array([dx, 0.0]) if li != i
                                              else np.array([0.0, dy]))
                if np.dot(nrm, nb_centroid - centroids[k]) < 0:
                    nrm = -nrm
                left_ids.append(k)
                right_ids.append(lcell)
                areas.append(elen)
                normals.append(nrm)
                midpoints.append(0.5 * (p1 + p2))
                cell_ifaces[k].append(eid)
                cell_ifaces[lcell].append(eid)
                eid += 1

    mesh = Mesh(2, (lx, ly), volumes, centroids, cell_ifaces, left_ids,
                right_ids, areas, normals, midpoints, mesh_id=mesh_id,
                cell_vertices=list(corners), grid_shape=(nx, ny))
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

    # each interface referenced by exactly its two incident cells
    refs = np.zeros(mesh.n_interfaces, dtype=int)
    for k, ids in enumerate(mesh.cell_interfaces):
        if not ids:
            raise MeshError(f"cell {k} has no interfaces")
        for e in ids:
            refs[e] += 1
            if mesh.iface_left[e] != k and mesh.iface_right[e] != k:
                raise MeshError(f"cell {k} lists interface {e} it is not incident to")
    if np.any(refs != 2):
        raise MeshError("an interface is not referenced by exactly two cells")

    # regularity with the stored constant
    a, h, d = mesh.a, mesh.h, mesh.dim
    if a <= 0:
        raise MeshError("regularity constant must be positive")
    slack = 1.0 + 1e-12
    if np.any(mesh.cell_volumes * slack < a * h ** d):
        raise MeshError("a cell violates the volume regularity bound")
    if np.any(mesh.boundary_measure() > slack * h ** (d - 1) / a):
        raise MeshError("a cell violates the perimeter regularity bound")

    # closed-polygon identity per cell, outward orientation
    closure = np.zeros((mesh.n_cells, mesh.dim))
    contrib = mesh.iface_areas[:, None] * mesh.iface_normals
    np.add.at(closure, mesh.iface_left, contrib)
    np.add.at(closure, mesh.iface_right, -contrib)
    closure_norm = np.sqrt((closure ** 2).sum(axis=1))
    if np.any(closure_norm > _CLOSURE_RTOL * mesh.boundary_measure()):
        raise MeshError("a cell violates the interface closure identity")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def mesh_to_json(mesh: Mesh) -> str:
    """Serialize to the canonical JSON document (round-trips bit-exactly)."""
    doc = {
        "dim": mesh.dim,
        "h": mesh.h,
        "a": mesh.a,
        "domain": list(mesh.domain),
        "mesh_id": mesh.mesh_id,
        "cells": [
            {"id": i, "volume": float(mesh.cell_volumes[i]),
             "centroid": [float(x) for x in mesh.cell_centroids[i]],
             "interfaces": list(mesh.cell_interfaces[i])}
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
        [c["interfaces"] for c in cells],
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
    validate_mesh(mesh)
    return mesh


def save_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(mesh_to_json(mesh))


def load_mesh(path) -> Mesh:
    with open(path) as fh:
        return mesh_from_json(fh.read())

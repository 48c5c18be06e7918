import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hypflux as hf
from hypflux.errors import MeshError

from conftest import SCRATCH_BYTES, same_bits, traced_peak


def test_uniform_1d_basic():
    m = hf.build_uniform_1d(4, 1.0)
    assert m.dim == 1
    assert m.h == 0.25
    assert np.all(m.cell_volumes == 0.25)
    assert m.n_interfaces == 4
    assert np.all(np.abs(m.iface_areas - 1.0) == 0.0)


def test_uniform_1d_regularity_constant():
    # hand evaluation in d=1: |K|/h = 1 and h^0/|bdK| = 1/2, so a = 0.5
    m = hf.build_uniform_1d(4, 1.0)
    assert m.a == pytest.approx(0.5, abs=0.0)
    assert np.all(m.cell_volumes >= m.a * m.h)
    assert np.all(m.boundary_measure() <= 1.0 / m.a + 1e-15)


def test_uniform_1d_rejects_degenerate():
    with pytest.raises(MeshError):
        hf.build_uniform_1d(2, 1.0)


def test_uniform_quad_2d_basic():
    m = hf.build_uniform_quad_2d(4, 4, 1.0, 1.0)
    assert m.n_cells == 16
    assert np.allclose(m.cell_volumes, 0.0625, rtol=0, atol=1e-15)
    assert m.h == pytest.approx(0.25 * math.sqrt(2.0), rel=1e-15)


def test_uniform_quad_2d_regularity():
    # squares of side s: |K| = h^2/2 and |bdK| = 2 sqrt(2) h, so a = 1/(2 sqrt 2)
    m = hf.build_uniform_quad_2d(4, 4, 1.0, 1.0)
    assert m.a == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-13)


def test_uniform_quad_2d_axis_normals_exact():
    m = hf.build_uniform_quad_2d(4, 8, 1.0, 1.0)
    vertical = np.abs(m.iface_normals[:, 0]) == 1.0
    assert np.any(vertical)
    assert np.all(m.iface_normals[vertical][:, 1] == 0.0)


def test_quad_2d_rejects_small():
    with pytest.raises(MeshError):
        hf.build_uniform_quad_2d(2, 4, 1.0, 1.0)


def test_perturbed_zero_jitter_matches_uniform():
    a = hf.build_uniform_quad_2d(8, 8, 1.0, 1.0)
    b = hf.build_perturbed_quad_2d(8, 8, 1.0, 1.0, 0.0, 7)
    assert np.array_equal(a.cell_centroids, b.cell_centroids)
    assert np.array_equal(a.cell_volumes, b.cell_volumes)
    assert np.array_equal(a.iface_normals, b.iface_normals)
    assert np.array_equal(a.iface_areas, b.iface_areas)


def test_perturbed_quad_regular_and_convex():
    m = hf.build_perturbed_quad_2d(8, 8, 1.0, 1.0, 0.2, 7)
    assert m.a > 0.05
    hf.validate_mesh(m)  # closure, normals, regularity all re-checked


def test_perturbed_quad_deterministic():
    a = hf.build_perturbed_quad_2d(8, 8, 1.0, 1.0, 0.2, 7)
    b = hf.build_perturbed_quad_2d(8, 8, 1.0, 1.0, 0.2, 7)
    assert np.array_equal(a.cell_centroids, b.cell_centroids)
    assert np.array_equal(a.iface_normals, b.iface_normals)


def test_perturbed_quad_rejects_large_jitter():
    with pytest.raises(MeshError):
        hf.build_perturbed_quad_2d(8, 8, 1.0, 1.0, 0.25, 7)


def test_regularity_constant_definition():
    for m in (hf.build_uniform_1d(7, 2.0),
              hf.build_uniform_quad_2d(5, 6, 1.0, 2.0),
              hf.build_perturbed_quad_2d(6, 6, 1.0, 1.0, 0.15, 3)):
        a = hf.regularity_constant(m)
        assert a > 0
        assert np.all(m.cell_volumes * (1 + 1e-12) >= a * m.h ** m.dim)
        assert np.all(m.boundary_measure() <= (1 + 1e-12) * m.h ** (m.dim - 1) / a)


def test_closure_identity():
    for m in (hf.build_uniform_1d(5, 1.0),
              hf.build_perturbed_quad_2d(6, 6, 1.0, 1.0, 0.2, 11)):
        closure = np.zeros((m.n_cells, m.dim))
        contrib = m.iface_areas[:, None] * m.iface_normals
        np.add.at(closure, m.iface_left, contrib)
        np.add.at(closure, m.iface_right, -contrib)
        norm = np.sqrt((closure ** 2).sum(axis=1))
        assert np.all(norm <= 1e-12 * m.boundary_measure())


def test_interface_references():
    m = hf.build_perturbed_quad_2d(5, 5, 1.0, 1.0, 0.1, 2)
    refs = np.zeros(m.n_interfaces, dtype=int)
    off = m.cell_iface_offsets
    for k in range(m.n_cells):
        ids = m.cell_iface_ids[off[k]:off[k + 1]].tolist()
        assert ids
        for e in ids:
            refs[e] += 1
            assert k in (m.iface_left[e], m.iface_right[e])
    assert np.all(refs == 2)
    assert np.all(m.iface_left != m.iface_right)


def test_cell_iface_ids_derived_as_the_stable_argsort():
    # the mesh keeps no ids: each access derives them, equal to the stored
    # construction they replace (the stable argsort of [left; right],
    # modulo E) and to a per-cell loop, on 1D, 2D and unequal-degree meshes
    rng = np.random.default_rng(5)
    left = rng.integers(0, 6, 20)
    right = (left + rng.integers(1, 6, 20)) % 6
    graph = hf.Mesh(1, (1.0,), np.full(6, 1.0 / 6.0), np.zeros(6),
                    left, right, np.ones(20), np.ones(20), "graph")
    assert len(set(np.diff(graph.cell_iface_offsets).tolist())) > 1
    for m in (hf.build_uniform_1d(7, 1.0),
              hf.build_perturbed_quad_2d(6, 5, 1.0, 1.3, 0.2, 4), graph):
        ends = np.concatenate([m.iface_left, m.iface_right])
        old = np.argsort(ends, kind="stable") % m.n_interfaces
        ids = m.cell_iface_ids
        assert ids.dtype == old.dtype and np.array_equal(ids, old)
        loop = [e for k in range(m.n_cells)
                for side in (m.iface_left, m.iface_right)
                for e in range(m.n_interfaces) if side[e] == k]
        assert ids.tolist() == loop
        assert not ids.flags.writeable
        assert not {"cell_iface_ids", "_iface_slots"} & set(vars(m))


def test_unit_normals():
    m = hf.build_perturbed_quad_2d(6, 6, 1.0, 1.0, 0.2, 5)
    norms = np.sqrt((m.iface_normals ** 2).sum(axis=1))
    assert np.abs(norms - 1.0).max() <= 1e-14


def test_periodic_distance():
    m = hf.build_uniform_1d(8, 1.0)
    d = m.periodic_distance_to_origin(np.array([[0.9]]))
    assert d[0] == pytest.approx(0.1, rel=1e-12)




SIGNS = [(1, 1), (-1, 1), (1, -1), (-1, -1)]


def _signed(x, sign):
    return x if sign > 0 else -x


@pytest.mark.parametrize("m", [1, 2])
def test_scatter_matches_add_at_bitwise(m):
    rng = np.random.default_rng(m)
    # cells of unequal degree, so that rows of the scatter are padded
    left = rng.integers(0, 6, 20)
    right = (left + rng.integers(1, 6, 20)) % 6
    graph = hf.Mesh(1, (1.0,), np.full(6, 1.0 / 6.0), np.zeros(6),
                    left, right, np.ones(20), np.ones(20), "graph")
    for mesh in (hf.build_perturbed_quad_2d(7, 5, 1.0, 1.3, 0.2, 4),
                 hf.build_uniform_1d(9, 1.0), graph):
        base = rng.standard_normal((mesh.n_cells, m))
        base[::3] = -0.0
        to_left = rng.standard_normal((mesh.n_interfaces, m))
        to_right = rng.standard_normal((mesh.n_interfaces, m))
        to_left[::4] = 0.0
        to_left[1::5] = -0.0
        to_right[::3] = -0.0
        # all -0.0 sums to -0.0, which a +0.0 padding would turn into 0.0;
        # a subtracted side adds the negated values
        for args in ((base, to_left, to_right),
                     tuple(np.full_like(x, -0.0)
                           for x in (base, to_left, to_right)),
                     tuple(np.full_like(x, 0.0)
                           for x in (base, to_left, to_right))):
            for signs in SIGNS:
                ref = args[0].copy()
                np.add.at(ref, mesh.iface_left, _signed(args[1], signs[0]))
                np.add.at(ref, mesh.iface_right, _signed(args[2], signs[1]))
                out = mesh.scatter(*args, signs=signs)
                # compare bit patterns, so that -0.0 and 0.0 count as
                # different
                assert np.array_equal(out.view(np.int64), ref.view(np.int64))
                # into a row of a block of states, as the march scatters
                rows = np.full((2,) + ref.shape, np.nan)
                mesh.scatter(*args, signs=signs, out=rows[1])
                assert np.array_equal(rows[1].view(np.int64),
                                      ref.view(np.int64))
    # the built meshes gather one side per column, the graph the stack
    assert {src for src, _ in graph._scatter_columns} == {2}
    assert [src for src, _ in hf.build_uniform_1d(9, 1.0)._scatter_columns] \
        == [0, 1]


def _permuted(mesh, seed):
    """`mesh` with its interfaces in a random order."""
    perm = np.random.default_rng(seed).permutation(mesh.n_interfaces)
    return hf.Mesh(mesh.dim, mesh.domain, mesh.cell_volumes,
                   mesh.cell_centroids, mesh.iface_left[perm],
                   mesh.iface_right[perm], mesh.iface_areas[perm],
                   mesh.iface_normals[perm], "permuted",
                   cell_vertices=mesh.cell_vertices)


@pytest.mark.parametrize("m", [1, 2])
def test_slice_columns_scatter_like_add_at(m):
    # the left columns of built segments and quads are slices; with the
    # interfaces permuted no column is, and every column gathers.  Both
    # add like np.add.at bit for bit
    rng = np.random.default_rng(10 + m)
    quad = hf.build_perturbed_quad_2d(7, 5, 1.0, 1.3, 0.2, 4)
    line = hf.build_uniform_1d(9, 1.0)
    cases = [(quad, [slice(0, 70, 2), slice(1, 71, 2), None, None]),
             (line, [slice(0, 9, 1), None]),
             (_permuted(quad, 1), [None] * 4), (_permuted(line, 2), [None] * 2)]
    for mesh, cuts in cases:
        cols = mesh._scatter_columns
        assert [c if isinstance(c, slice) else None for _, c in cols] == cuts
        base = rng.standard_normal((mesh.n_cells, m))
        to_left = rng.standard_normal((mesh.n_interfaces, m))
        to_right = rng.standard_normal((mesh.n_interfaces, m))
        to_left[::3] = -0.0
        for signs in SIGNS:
            ref = base.copy()
            np.add.at(ref, mesh.iface_left, _signed(to_left, signs[0]))
            np.add.at(ref, mesh.iface_right, _signed(to_right, signs[1]))
            assert same_bits(mesh.scatter(base, to_left, to_right, signs), ref)
            # a column-major view of the values, as the ledger scatters
            left_f = np.asfortranarray(to_left)
            assert same_bits(mesh.scatter(base, left_f, to_right, signs), ref)


@pytest.mark.parametrize("m", [1, 2])
def test_gather_left_matches_take(m):
    # repeated rows on the built meshes (each cell twice on a quad grid,
    # once on a segment), take on a permuted mesh: the rows of
    # u.take(iface_left), in a new array or in `out`, which may be a
    # strided view
    rng = np.random.default_rng(m)
    quad = hf.build_perturbed_quad_2d(7, 5, 1.0, 1.3, 0.2, 4)
    line = hf.build_uniform_1d(9, 1.0)
    for mesh, r in ((quad, 2), (line, 1), (_permuted(quad, 3), None),
                    (_permuted(line, 4), None)):
        assert mesh._left_repeats == r
        u = rng.standard_normal((mesh.n_cells, m))
        u[::4] = -0.0
        want = u.take(mesh.iface_left, axis=0)
        got = mesh.gather_left(u)
        assert same_bits(got, want) and not np.shares_memory(got, u)
        rows = np.full((2, mesh.n_interfaces, m), np.nan)
        row = rows[1]
        assert mesh.gather_left(u, out=row) is row
        assert same_bits(rows[1], want) and np.isnan(rows[0]).all()
        strided = np.full((mesh.n_interfaces, 2 * m), np.nan)[:, ::2]
        assert mesh.gather_left(u, out=strided) is strided
        assert same_bits(strided, want)


def test_scatter_matches_add_at_special_values_m2():
    # m = 2 states with signed zeros, infinities, NaN and overflow, on a
    # jittered mesh and with a Fortran-ordered base; the two left columns
    # read slice views, the two right ones gather at cached contiguous
    # intp columns
    mesh = hf.build_perturbed_quad_2d(9, 7, 1.0, 0.8, 0.2, 11)
    cols = mesh._scatter_columns
    assert [src for src, _ in cols] == [0, 0, 1, 1]
    assert [c for _, c in cols[:2]] == [slice(0, 126, 2), slice(1, 127, 2)]
    assert all(c.dtype == np.intp and c.flags.c_contiguous
               for _, c in cols[2:])
    rng = np.random.default_rng(2)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308,
                        5e-324, 1.5, -2.25])
    base = np.asfortranarray(rng.choice(special, (mesh.n_cells, 2)))
    to_left = rng.choice(special, (mesh.n_interfaces, 2))
    to_right = rng.choice(special, (mesh.n_interfaces, 2))
    for signs in SIGNS:
        ref = base.copy()
        with np.errstate(all="ignore"):
            np.add.at(ref, mesh.iface_left, _signed(to_left, signs[0]))
            np.add.at(ref, mesh.iface_right, _signed(to_right, signs[1]))
            out = mesh.scatter(base, to_left, to_right, signs=signs)
        nan = np.isnan(ref)
        assert nan.any() and np.array_equal(np.isnan(out), nan)
        assert np.array_equal(out[~nan].view(np.int64),
                              ref[~nan].view(np.int64))


# ---------------------------------------------------------------------------
# array builders against a loop-built oracle
# ---------------------------------------------------------------------------

def _loop_uniform_1d(n, length):
    """Per-cell loop of the 1D builder: (arrays, vertices, rows)."""
    dx = length / n
    arrays = {"cell_centroids": [[(i + 0.5) * dx] for i in range(n)],
              "cell_volumes": [dx] * n,
              "iface_left": list(range(n)),
              "iface_right": [(i + 1) % n for i in range(n)],
              "iface_areas": [1.0] * n, "iface_normals": [[1.0]] * n}
    verts = [[[i * dx], [(i + 1) * dx]] for i in range(n)]
    rows = [[(i - 1) % n, i] for i in range(n)]
    return arrays, verts, rows


def _loop_quad_2d(nx, ny, lx, ly, jitter, seed):
    """Per-cell loop of the quad builder: (arrays, vertices, rows)."""
    dx, dy = lx / nx, ly / ny
    offsets = (np.random.default_rng(seed).uniform(-1.0, 1.0, (nx, ny, 2))
               * (jitter * min(dx, dy)))

    def vertex(i, j):
        base = np.array([(i % nx) * dx, (j % ny) * dy]) + offsets[i % nx, j % ny]
        return base + np.array([(i // nx) * lx, (j // ny) * ly])

    def cid(i, j):
        return (i % nx) * ny + j % ny

    verts, rows = [], [[] for _ in range(nx * ny)]
    arrays = {k: [] for k in ("iface_left", "iface_right", "iface_areas",
                              "iface_normals")}
    for i in range(nx):
        for j in range(ny):
            verts.append([vertex(i, j), vertex(i + 1, j),
                          vertex(i + 1, j + 1), vertex(i, j + 1)])
            for nb, p1, p2, step in (
                    (cid(i + 1, j), vertex(i + 1, j), vertex(i + 1, j + 1), [dx, 0.0]),
                    (cid(i, j + 1), vertex(i + 1, j + 1), vertex(i, j + 1), [0.0, dy])):
                t = p2 - p1
                elen = float(np.hypot(t[0], t[1]))
                nrm = np.array([t[1], -t[0]]) / elen
                if np.dot(nrm, step) < 0:
                    nrm = -nrm
                rows[cid(i, j)].append(len(arrays["iface_left"]))
                rows[nb].append(len(arrays["iface_left"]))
                for key, val in zip(arrays, (cid(i, j), nb, elen, nrm)):
                    arrays[key].append(val)
    # shoelace area and centroid, one polygon at a time
    for poly in verts:
        x, y = np.array(poly)[:, 0], np.array(poly)[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        area = 0.5 * cross.sum()
        arrays.setdefault("cell_volumes", []).append(abs(area))
        arrays.setdefault("cell_centroids", []).append(
            [((x + xn) * cross).sum() / (6.0 * area),
             ((y + yn) * cross).sum() / (6.0 * area)])
    return arrays, verts, rows


def _assert_matches_oracle(mesh, oracle):
    arrays, verts, rows = oracle
    for key, val in arrays.items():
        want = np.asarray(val, dtype=getattr(mesh, key).dtype).reshape(
            getattr(mesh, key).shape)
        assert same_bits(getattr(mesh, key), want), key
    assert same_bits(mesh.cell_vertices, np.asarray(verts, dtype=float))
    off, ids = mesh.cell_iface_offsets, mesh.cell_iface_ids
    for k, row in enumerate(rows):
        # left faces first, then right faces, each in interface order
        want = ([e for e in sorted(row) if mesh.iface_left[e] == k]
                + [e for e in sorted(row) if mesh.iface_right[e] == k])
        assert ids[off[k]:off[k + 1]].tolist() == want, k


@pytest.mark.parametrize("n", [3, 7])
def test_uniform_1d_matches_loop_oracle(n):
    mesh = hf.build_uniform_1d(n, 1.3)
    _assert_matches_oracle(mesh, _loop_uniform_1d(n, 1.3))
    assert mesh.h == max(b[0] - a[0] for a, b in _loop_uniform_1d(n, 1.3)[1])


@pytest.mark.parametrize("nx,ny", [(3, 3), (5, 7), (12, 12)])
@pytest.mark.parametrize("jitter", [0.0, 0.15, 0.24])
def test_quad_2d_matches_loop_oracle(nx, ny, jitter):
    mesh = hf.build_perturbed_quad_2d(nx, ny, 1.0, 1.7, jitter, 11)
    _assert_matches_oracle(mesh, _loop_quad_2d(nx, ny, 1.0, 1.7, jitter, 11))
    verts = np.asarray(_loop_quad_2d(nx, ny, 1.0, 1.7, jitter, 11)[1])
    diam = max(np.sqrt(((p - q) ** 2).sum()) for cell in verts
               for p in cell for q in cell)
    assert mesh.h == diam
    if jitter == 0.0:
        uniform = hf.build_uniform_quad_2d(nx, ny, 1.0, 1.7)
        _assert_matches_oracle(uniform, _loop_quad_2d(nx, ny, 1.0, 1.7, 0.0, 0))


def test_mesh_rejects_interface_outside_mesh():
    with pytest.raises(MeshError):
        hf.Mesh(1, (1.0,), np.full(3, 1 / 3), np.zeros(3), [0, 1, 2],
                [1, 2, 3], np.ones(3), np.ones(3), "bad")


def test_2d_mesh_without_vertices_rejected():
    # a 2D cell diameter needs the cell's vertices, so the constructor
    # cannot compute h without them
    m = hf.build_perturbed_quad_2d(4, 5, 1.0, 1.0, 0.1, 3)
    arrays = (m.domain, m.cell_volumes, m.cell_centroids, m.iface_left,
              m.iface_right, m.iface_areas, m.iface_normals)
    with pytest.raises(MeshError, match="vertices"):
        hf.Mesh(2, *arrays, "no-vertices")
    # with them it gets the built mesh's h and a
    again = hf.Mesh(2, *arrays, "vertices", cell_vertices=m.cell_vertices)
    assert (again.h, again.a) == (m.h, m.a)


# ---------------------------------------------------------------------------
# property: the scatter adds like np.add.at on random jittered meshes
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None, database=None)
@given(nx=st.integers(3, 9), ny=st.integers(3, 9),
       jitter=st.floats(0.0, 0.24), seed=st.integers(0, 2 ** 31 - 1),
       m=st.integers(1, 3), values_seed=st.integers(0, 2 ** 31 - 1))
def test_scatter_matches_add_at_property(nx, ny, jitter, seed, m, values_seed):
    mesh = hf.build_perturbed_quad_2d(nx, ny, 1.0, 1.0, jitter, seed)
    rng = np.random.default_rng(values_seed)
    base = rng.standard_normal((mesh.n_cells, m))
    to_left = rng.standard_normal((mesh.n_interfaces, m)) * 1e3
    to_right = rng.standard_normal((mesh.n_interfaces, m))
    to_right[rng.random(mesh.n_interfaces) < 0.3] = -0.0
    signs = SIGNS[values_seed % len(SIGNS)]
    ref = base.copy()
    np.add.at(ref, mesh.iface_left, _signed(to_left, signs[0]))
    np.add.at(ref, mesh.iface_right, _signed(to_right, signs[1]))
    assert same_bits(mesh.scatter(base, to_left, to_right, signs=signs), ref)


# ---------------------------------------------------------------------------
# scratch memory of the builder
# ---------------------------------------------------------------------------

def test_quad_builder_scratch_is_bounded():
    # the builder's temporaries freed before the mesh builds its
    # adjacency, and the diameters one vertex pair at a time: at 128 x 128
    # (an interface array is one scratch chunk) under 8 chunks of scratch.
    # With every temporary alive it took about 34, and the (n, 6, 2)
    # vertex-pair differences alone need more than 10
    mesh, peak, kept = traced_peak(hf.build_perturbed_quad_2d, 128, 128, 1.0,
                                   1.0, 0.15, 1)
    assert mesh.n_interfaces * 8 == SCRATCH_BYTES
    assert peak - kept <= 10 * SCRATCH_BYTES
    # the builder gives column-major normals, which the mesh keeps as they
    # are: a copy to that order in the mesh took 2 chunks more (9.5)
    assert mesh.iface_normals.flags.f_contiguous


def test_quad_mesh_keeps_only_what_a_step_reads():
    # at 128 x 128 the mesh keeps 12.0 chunks: the per-cell and
    # per-interface arrays, the CSR offsets and the scatter table's 2
    # index columns (its 2 left columns are slices).  It kept 13.0 while
    # every column was an index array, and 17.0 while it also stored the
    # CSR ids and their slots (2E integers each), which no step reads
    mesh, _, kept = traced_peak(hf.build_perturbed_quad_2d, 128, 128, 1.0,
                                1.0, 0.15, 1)
    assert mesh.n_interfaces * 8 == SCRATCH_BYTES
    assert kept <= 13.5 * SCRATCH_BYTES

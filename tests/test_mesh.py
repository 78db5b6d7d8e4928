import math

import numpy as np
import pytest

from lsmaxwell import mesh as meshmod
from lsmaxwell.mesh import (EXTERIOR, SLIT_BOTTOM, SLIT_TOP, Mesh, MeshError,
                            boundary_facets_of, build_lshape, build_slit,
                            build_structured_cube, build_structured_square,
                            perturb_interior, read_mesh_text, tag_subdomain,
                            unique_edges, validate, write_mesh_text)


def fields_equal(a, b):
    """Every field of two meshes, bit for bit."""
    for name in ("vertices", "cells", "boundary_facets", "facet_tags",
                 "cell_tags", "crack_pairs"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape, name
        assert x.dtype == y.dtype, name
        if x.dtype == object:
            assert list(x) == list(y), name
        else:
            assert x.tobytes() == y.tobytes(), name


def interior_facet_counts(mesh):
    facets = meshmod._facets_of_cells(mesh.cells)
    _, counts = np.unique(facets, axis=0, return_counts=True)
    return counts


class TestStructuredSquare:
    def test_n1_counts(self):
        m = build_structured_square(1, side=math.pi)
        assert m.num_vertices == 4
        assert m.num_cells == 2
        assert m.num_facets == 4

    def test_n16_counts(self):
        m = build_structured_square(16, side=math.pi)
        assert m.num_vertices == 289
        assert m.num_cells == 512

    def test_crisscross_n2(self):
        m = build_structured_square(2, side=math.pi, diagonal="crisscross")
        assert m.num_vertices == 13
        assert m.num_cells == 16

    def test_counting_formulas(self):
        for n in range(1, 33):
            m = build_structured_square(n)
            assert m.num_vertices == (n + 1) ** 2
            assert m.num_cells == 2 * n * n

    def test_rejects_bad_input(self):
        with pytest.raises(MeshError):
            build_structured_square(0)
        with pytest.raises(MeshError):
            build_structured_square(2, side=-1.0)
        with pytest.raises(MeshError):
            build_structured_square(2, diagonal="diag")
        # the cube's split is not a quad split
        with pytest.raises(MeshError, match="unknown diagonal 'kuhn'"):
            build_structured_square(2, diagonal="kuhn")

    def test_orientation_and_conformity(self):
        for diag in ("right", "left", "crisscross"):
            m = build_structured_square(4, diagonal=diag)
            assert (m.signed_volumes() > 0).all()
            counts = interior_facet_counts(m)
            assert set(counts.tolist()) <= {1, 2}

    def test_all_facets_exterior(self):
        m = build_structured_square(3)
        assert set(m.facet_tags) == {EXTERIOR}


class TestLshape:
    def test_n1_hand_enumeration(self):
        m = build_lshape(1)
        assert m.num_vertices == 8
        assert m.num_cells == 6

    def test_counting_formulas(self):
        for n in (1, 2, 4, 8, 16, 32):
            m = build_lshape(n)
            assert m.num_cells == 6 * n * n
            assert m.num_vertices == 3 * (n + 1) ** 2 - 2 * (n + 1)

    def test_n16(self):
        m = build_lshape(16)
        assert m.num_vertices == 833
        assert m.num_cells == 1536

    def test_no_vertex_inside_removed_square(self):
        for n in (1, 3, 8):
            m = build_lshape(n)
            inside = (m.vertices[:, 0] > 1e-12) & (m.vertices[:, 1] > 1e-12)
            assert not inside.any()


class TestSlit:
    def test_crack_pair_counts(self):
        assert len(build_slit(1).crack_pairs) == 1
        assert len(build_slit(16).crack_pairs) == 16

    def test_n1_pair_is_boundary_vertex(self):
        m = build_slit(1)
        a, b = m.crack_pairs[0]
        assert np.allclose(m.vertices[a], [1.0, 0.0])
        assert np.allclose(m.vertices[b], [1.0, 0.0])

    def test_no_cell_spans_crack(self):
        m = build_slit(8)
        for a, b in m.crack_pairs:
            both = (np.isin(m.cells, a).any(axis=1)
                    & np.isin(m.cells, b).any(axis=1))
            assert not both.any()

    def test_tip_single(self):
        m = build_slit(4)
        at_tip = np.flatnonzero(
            (np.abs(m.vertices[:, 0]) < 1e-12) & (np.abs(m.vertices[:, 1]) < 1e-12))
        assert len(at_tip) == 1

    def test_tags(self):
        m = build_slit(16)
        tags = list(m.facet_tags)
        assert tags.count(SLIT_TOP) == 16
        assert tags.count(SLIT_BOTTOM) == 16
        assert tags.count(EXTERIOR) == 128

    def test_counting_formulas(self):
        for n in (1, 2, 5, 16, 32):
            m = build_slit(n)
            assert m.num_cells == 8 * n * n
            assert m.num_vertices == (2 * n + 1) ** 2 + n
            assert len(m.crack_pairs) == n

    def test_validates(self):
        validate(build_slit(3))

    def test_validate_rejects_a_cell_across_a_crack_pair(self):
        # a positive cell and its own edges as facets: only the crack test
        # sees that the cell holds both vertices of the pair
        m = Mesh(2, np.array([[0.0, 0.0], [1e-10, 0.0], [0.0, 1.0]]),
                 np.array([[0, 1, 2]]), np.array([[0, 1], [0, 2], [1, 2]]),
                 np.array([EXTERIOR] * 3, dtype=object))
        validate(m)
        m.crack_pairs = np.array([[0, 1]])
        with pytest.raises(MeshError, match="both sides of a crack pair"):
            validate(m)


class TestCube:
    def test_n1_kuhn(self):
        m = build_structured_cube(1)
        assert m.num_vertices == 8
        assert m.num_cells == 6

    def test_n8(self):
        m = build_structured_cube(8)
        assert m.num_vertices == 729
        assert m.num_cells == 3072

    def test_counting_formulas(self):
        for n in range(1, 9):
            m = build_structured_cube(n)
            assert m.num_vertices == (n + 1) ** 3
            assert m.num_cells == 6 * n ** 3

    def test_subcube_volume_tiling(self):
        n, side = 3, math.pi
        m = build_structured_cube(n, side)
        vols = m.signed_volumes()
        assert (vols > 0).all()
        h = side / n
        # six tets per subcube, in construction order
        per_cube = vols.reshape(-1, 6).sum(axis=1)
        assert np.abs(per_cube - h ** 3).max() < 1e-14 * h ** 3 * 10

    def test_conformity(self):
        counts = interior_facet_counts(build_structured_cube(2))
        assert set(counts.tolist()) <= {1, 2}


def loop_cube(n, side):
    """Vertices point by point and cells subcube by subcube (iz fastest),
    six Kuhn tetrahedra each, swapped to positive orientation one cell at a
    time."""
    xs = side * np.arange(n + 1) / n
    verts = np.array([[xs[ix], xs[iy], xs[iz]] for ix in range(n + 1)
                      for iy in range(n + 1) for iz in range(n + 1)])
    vid = lambda ix, iy, iz: (ix * (n + 1) + iy) * (n + 1) + iz
    paths = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        c = [0, 0, 0]
        path = [tuple(c)]
        for axis in perm:
            c[axis] += 1
            path.append(tuple(c))
        paths.append(path)
    cells = []
    for ix in range(n):
        for iy in range(n):
            for iz in range(n):
                for path in paths:
                    cell = [vid(ix + o[0], iy + o[1], iz + o[2]) for o in path]
                    p = verts[cell]
                    if np.linalg.det(p[1:] - p[0]) < 0:
                        cell[2], cell[3] = cell[3], cell[2]
                    cells.append(cell)
    return verts, np.array(cells, dtype=np.int64)


def loop_quad_triangles(v00, v10, v01, v11, diagonal):
    if diagonal == "right":
        return [(v00, v10, v11), (v00, v11, v01)]
    if diagonal == "left":
        return [(v00, v10, v01), (v10, v11, v01)]
    raise MeshError(f"unknown diagonal {diagonal!r}")


def loop_tagged_mesh(verts, cells, **kw):
    cells = meshmod._orient_positive(verts, np.array(cells, dtype=np.int64), 2)
    bf = boundary_facets_of(cells)
    return validate(Mesh(2, verts, cells, bf,
                         np.array([EXTERIOR] * len(bf), dtype=object), **kw))


def loop_square(n, side, diagonal):
    """Quad by quad (x fastest); 'crisscross' appends each quad's centre
    as it goes."""
    xs = side * np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = lambda ix, iy: iy * (n + 1) + ix
    cells, centers = [], []
    h = side / n
    for iy in range(n):
        for ix in range(n):
            v00, v10 = vid(ix, iy), vid(ix + 1, iy)
            v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
            if diagonal == "crisscross":
                c = len(verts) + len(centers)
                centers.append([(ix + 0.5) * h, (iy + 0.5) * h])
                cells += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
            else:
                cells += loop_quad_triangles(v00, v10, v01, v11, diagonal)
    if centers:
        verts = np.vstack([verts, np.array(centers)])
    return loop_tagged_mesh(verts, cells)


def loop_lshape(n, diagonal):
    """Vertex by vertex outside the open upper right quadrant, then quad by
    quad as in :func:`loop_square`."""
    m = 2 * n
    coords = -1.0 + np.arange(m + 1) / n
    keep, verts = {}, []
    for iy in range(m + 1):
        for ix in range(m + 1):
            x, y = coords[ix], coords[iy]
            if x > 1e-12 and y > 1e-12:
                continue
            keep[(ix, iy)] = len(verts)
            verts.append([x, y])
    verts = np.array(verts)
    cells, centers = [], []
    for iy in range(m):
        for ix in range(m):
            cx, cy = coords[ix] + 0.5 / n, coords[iy] + 0.5 / n
            if cx > 0 and cy > 0:
                continue
            v00, v10 = keep[(ix, iy)], keep[(ix + 1, iy)]
            v01, v11 = keep[(ix, iy + 1)], keep[(ix + 1, iy + 1)]
            if diagonal == "crisscross":
                c = len(verts) + len(centers)
                centers.append([cx, cy])
                cells += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
            else:
                cells += loop_quad_triangles(v00, v10, v01, v11, diagonal)
    if centers:
        verts = np.vstack([verts, np.array(centers)])
    return loop_tagged_mesh(verts, cells)


def loop_slit(n, diagonal):
    """The shifted square, its slit vertices copied and swapped into the
    cells above one at a time, and each boundary facet tagged by its own
    geometric and vertex-set tests."""
    base = loop_square(2 * n, 2.0, diagonal)
    verts = base.vertices - 1.0
    cells = base.cells.copy()
    on_slit = ((np.abs(verts[:, 1]) < 1e-12) & (verts[:, 0] > 1e-12)
               & (verts[:, 0] <= 1.0 + 1e-12))
    slit = np.flatnonzero(on_slit)
    slit = slit[np.argsort(verts[slit, 0])]
    top_copy = {int(v): len(verts) + k for k, v in enumerate(slit)}
    verts = np.vstack([verts, verts[slit]])
    above = base.vertices[base.cells][:, :, 1].mean(axis=1) - 1.0 > 0
    for v, t in top_copy.items():
        for r in np.flatnonzero(above & (cells == v).any(axis=1)):
            cells[r, cells[r] == v] = t
    pairs = np.array([[v, top_copy[v]] for v in slit], dtype=np.int64)
    tip = int(np.flatnonzero((np.abs(verts[:, 1]) < 1e-12)
                             & (np.abs(verts[:, 0]) < 1e-12))[0])
    tops = set(pairs[:, 1].tolist()) | {tip}
    bottoms = set(pairs[:, 0].tolist()) | {tip}
    mesh = loop_tagged_mesh(verts, cells, crack_pairs=pairs)
    for k, facet in enumerate(mesh.boundary_facets):
        pts = verts[facet]
        if not ((np.abs(pts[:, 1]) < 1e-12).all()
                and ((pts[:, 0] > -1e-12) & (pts[:, 0] <= 1.0 + 1e-12)).all()):
            continue
        if set(facet.tolist()) <= tops:
            mesh.facet_tags[k] = SLIT_TOP
        elif set(facet.tolist()) <= bottoms:
            mesh.facet_tags[k] = SLIT_BOTTOM
    return mesh


def loop_boundary_facets(cells):
    facets = np.sort(np.concatenate(
        [np.delete(cells, i, axis=1) for i in range(cells.shape[1])]), axis=1)
    uniq, counts = np.unique(facets, axis=0, return_counts=True)
    return uniq[counts == 1]


class TestArrayConstruction:
    """The array-based constructions against loop references."""

    def test_cube_matches_loop(self):
        for side in (math.pi, 1.5):
            for n in range(1, 6):
                m = build_structured_cube(n, side)
                verts, ref = loop_cube(n, side)
                assert m.vertices.dtype == verts.dtype
                assert m.vertices.tobytes() == verts.tobytes()
                assert m.cells.dtype == ref.dtype
                assert np.array_equal(m.cells, ref)
                assert np.array_equal(m.boundary_facets, loop_boundary_facets(ref))

    @pytest.mark.parametrize("diagonal", ["right", "left", "crisscross"])
    def test_2d_builders_match_loop(self, diagonal):
        for n in range(1, 17):
            for side in (math.pi, 1e-3, 2.0):
                fields_equal(build_structured_square(n, side, diagonal),
                             loop_square(n, side, diagonal))
            fields_equal(build_lshape(n, diagonal), loop_lshape(n, diagonal))
            fields_equal(build_slit(n, diagonal), loop_slit(n, diagonal))

    def test_unique_edges_matches_loop(self):
        # every vertex pair of a cell, i < j in cell order; the edge set
        # sorted, and each cell's pairs looked up in it one by one
        for mesh in (build_structured_square(3, diagonal="crisscross"), build_lshape(2),
                     build_slit(2, "left"), build_structured_cube(2)):
            nl = mesh.cells.shape[1]
            local = [(i, j) for i in range(nl) for j in range(i + 1, nl)]
            pairs = [tuple(sorted(int(v) for v in c[[i, j]])) for c in mesh.cells
                     for i, j in local]
            want = sorted(set(pairs))
            index = {e: k for k, e in enumerate(want)}
            edges, cell_edges = unique_edges(mesh.cells, return_inverse=True)
            assert np.array_equal(unique_edges(mesh.cells), want)
            assert np.array_equal(edges, want)
            assert np.array_equal(cell_edges.ravel(), [index[e] for e in pairs])
            assert cell_edges.shape == (mesh.num_cells, len(local))

    def test_unique_rows_matches_numpy(self):
        rng = np.random.default_rng(0)
        # entries beyond 2**21 would overflow three columns packed in int64
        for hi, shape in ((4, (200, 2)), (6, (300, 3)), (2**40, (50, 3)), (3, (0, 2))):
            a = rng.integers(0, hi, size=shape)
            a = np.vstack([a, a[: len(a) // 3]])
            u, inv, counts = meshmod._unique_rows(a, return_inverse=True,
                                                  return_counts=True)
            ru, rinv, rcounts = np.unique(a, axis=0, return_inverse=True,
                                          return_counts=True)
            assert np.array_equal(u, ru)
            assert np.array_equal(inv, rinv.ravel())
            assert np.array_equal(counts, rcounts)
            assert np.array_equal(u[inv], a)

    @staticmethod
    def loop_perturb(mesh, amplitude, seed):
        """Interior vertices moved one at a time, with per-edge and per-cell
        Python loops for the local edge length and the incidence."""
        verts = mesh.vertices.copy()
        fixed = set(int(v) for v in np.unique(mesh.boundary_facets))
        fixed |= set(int(v) for v in mesh.crack_pairs.ravel())
        nl = mesh.cells.shape[1]
        pairs = np.vstack([np.sort(mesh.cells[:, [i, j]], axis=1)
                           for i in range(nl) for j in range(i + 1, nl)])
        edges = np.unique(pairs, axis=0)
        elen = np.sqrt(((verts[edges[:, 1]] - verts[edges[:, 0]]) ** 2).sum(axis=1))
        h_local = np.full(len(verts), np.inf)
        for (a, b), length in zip(edges, elen):
            h_local[a] = min(h_local[a], length)
            h_local[b] = min(h_local[b], length)
        incident = [[] for _ in range(len(verts))]
        for c, cell in enumerate(mesh.cells):
            for v in cell:
                incident[v].append(c)
        rng = np.random.default_rng(seed)
        for v in range(len(verts)):
            if v in fixed:
                continue
            old = verts[v].copy()
            cells_v = mesh.cells[incident[v]]
            for _ in range(100):
                verts[v] = old + amplitude * h_local[v] * rng.uniform(-1.0, 1.0, size=mesh.dim)
                if (meshmod.signed_volumes(verts, cells_v, mesh.dim) > 0).all():
                    break
            else:
                raise AssertionError(f"reference loop stuck at vertex {v}")
        return verts

    def test_perturb_matches_loop(self):
        for m, seed in ((build_structured_cube(4), 3), (build_structured_square(8), 1),
                        (build_slit(2, "crisscross"), 2)):
            got = perturb_interior(m, 0.2, seed)
            ref = self.loop_perturb(m, 0.2, seed)
            assert got.vertices.tobytes() == ref.tobytes()
            assert np.array_equal(got.cells, m.cells)


class TestPerturb:
    def test_amplitude_zero_is_identity(self):
        m = build_structured_square(4)
        p = perturb_interior(m, 0.0, seed=3)
        assert np.array_equal(p.vertices, m.vertices)
        assert np.array_equal(p.cells, m.cells)

    def test_deterministic(self):
        m = build_structured_square(8)
        a = perturb_interior(m, 0.2, seed=7)
        b = perturb_interior(m, 0.2, seed=7)
        assert np.array_equal(a.vertices, b.vertices)

    def test_boundary_fixed_and_oriented(self):
        m = build_structured_square(16)
        p = perturb_interior(m, 0.2, seed=1)
        bv = m.boundary_vertices()
        assert np.array_equal(p.vertices[bv], m.vertices[bv])
        assert p.signed_volumes().min() > 0

    def test_slit_crack_fixed(self):
        m = build_slit(4)
        p = perturb_interior(m, 0.2, seed=2)
        cid = np.unique(m.crack_pairs.ravel())
        assert np.array_equal(p.vertices[cid], m.vertices[cid])

    def test_cube(self):
        m = build_structured_cube(3)
        p = perturb_interior(m, 0.2, seed=5)
        assert p.signed_volumes().min() > 0

    def test_amplitude_range(self):
        m = build_structured_square(2)
        with pytest.raises(MeshError):
            perturb_interior(m, 0.6, seed=1)


class TestTagSubdomain:
    def test_whole_domain(self):
        m = build_structured_square(4)
        t = tag_subdomain(m, ((0, 0), (math.pi, math.pi)), 1)
        assert (t.cell_tags == 1).all()

    def test_fitted_count(self):
        n = 8
        m = build_structured_square(n)
        t = tag_subdomain(m, ((0, 0), (math.pi / 2, math.pi / 2)), 1)
        assert int((t.cell_tags == 1).sum()) == 2 * (n // 2) ** 2

    def test_partition_on_perturbed(self):
        m = perturb_interior(build_structured_square(8), 0.2, seed=1)
        t = tag_subdomain(m, ((0, 0), (math.pi / 2, math.pi / 2)), 1)
        assert set(np.unique(t.cell_tags)) == {0, 1}
        assert len(t.cell_tags) == t.num_cells


class TestExport:
    def test_header_and_roundtrip(self):
        m = build_structured_square(2)
        text = write_mesh_text(m)
        head = text.splitlines()[0].split()
        assert head == ["2", str(m.num_vertices), str(m.num_cells), str(m.num_facets)]
        r = read_mesh_text(text)
        assert np.allclose(r.vertices, m.vertices)
        assert np.array_equal(r.cells, m.cells)
        assert np.array_equal(r.boundary_facets, m.boundary_facets)
        assert list(r.facet_tags) == list(m.facet_tags)

    def test_slit_tags_roundtrip(self):
        m = build_slit(2)
        r = read_mesh_text(write_mesh_text(m))
        assert list(r.facet_tags) == list(m.facet_tags)

    def test_tagged_square_roundtrip(self):
        m = tag_subdomain(perturb_interior(build_structured_square(4), 0.2, 1),
                          ((0, 0), (1.6, 1.6)), 3)
        assert set(np.unique(m.cell_tags)) == {0, 3}
        r = read_mesh_text(write_mesh_text(m))
        fields_equal(r, m)

    def test_slit_roundtrip(self):
        m = build_slit(2)
        r = validate(read_mesh_text(write_mesh_text(m)))
        fields_equal(r, m)
        assert len(r.crack_pairs) == 2

    def test_untagged_text_unchanged(self):
        # zero tags and no crack pairs write nothing after the facets
        m = build_structured_cube(1)
        text = write_mesh_text(m)
        assert len(text.splitlines()) == 1 + m.num_vertices + m.num_cells + m.num_facets
        fields_equal(read_mesh_text(text), m)

    def test_golden_unit_square(self):
        golden = (
            "2 4 2 4\n"
            "0 0\n"
            "1 0\n"
            "0 1\n"
            "1 1\n"
            "0 1 3\n"
            "0 3 2\n"
            "0 1 exterior\n"
            "0 2 exterior\n"
            "1 3 exterior\n"
            "2 3 exterior\n")
        assert write_mesh_text(build_structured_square(1, side=1.0)) == golden

    def test_read_validates(self):
        # one cell written with two vertices swapped: reading it used to
        # succeed, and the least-squares build then failed with a misleading
        # "D != -B^T" from the negative cell volume
        m = build_structured_square(4)
        rows = write_mesh_text(m).splitlines()
        cell = 1 + m.num_vertices
        a, b, c = rows[cell].split()
        rows[cell] = f"{a} {c} {b}"
        with pytest.raises(MeshError, match="oriented"):
            read_mesh_text("\n".join(rows) + "\n")

    @pytest.mark.parametrize("case", ["empty", "header only", "half the lines",
                                      "non-numeric coordinate",
                                      "facet without tag", "non-integer header"])
    def test_read_rejects_malformed_text(self, case):
        # text from outside the program: every malformation is a MeshError,
        # never an IndexError, TypeError or ValueError of the parser
        rows = write_mesh_text(build_structured_square(2)).splitlines()
        text = {
            "empty": [],
            "header only": rows[:1],
            "half the lines": rows[:len(rows) // 2],
            "non-numeric coordinate": rows[:1] + ["0 x"] + rows[2:],
            "facet without tag": rows[:-1] + [" ".join(rows[-1].split()[:2])],
            "non-integer header": ["2 9.5 8 8"] + rows[1:],
        }[case]
        with pytest.raises(MeshError) as info:
            read_mesh_text("\n".join(text) + "\n")
        assert type(info.value) is MeshError

    def test_read_exported(self):
        import lsmaxwell
        assert lsmaxwell.read_mesh_text is read_mesh_text

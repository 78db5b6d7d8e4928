import math
from fractions import Fraction

import numpy as np
import pytest

from lsmaxwell.elements import (LEVI_CIVITA, REF_EDGES, ElementError, eval_lagrange,
                                eval_nedelec, quadrature)


def random_reference_points(dim, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        x = rng.random(dim)
        if x.sum() <= 1.0:
            pts.append(x)
    return np.array(pts)


class TestLagrange:
    def test_dof_counts(self):
        for k, dim, ndof in ((1, 2, 3), (2, 2, 6), (1, 3, 4), (2, 3, 10)):
            vals, grads = eval_lagrange(k, dim, np.zeros((2, dim)))
            assert vals.shape == (2, ndof)
            assert grads.shape == (2, ndof, dim)

    def test_p1_barycenter(self):
        vals, _ = eval_lagrange(1, 2, [[1 / 3, 1 / 3]])
        assert np.allclose(vals[0], [1 / 3, 1 / 3, 1 / 3])

    def test_p1_nodal(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals, _ = eval_lagrange(1, 2, verts)
        assert np.allclose(vals, np.eye(3), atol=1e-15)

    def test_p2_midpoint_nodal(self):
        # edge (0,1) midpoint: that edge dof is 1, all others 0
        vals, _ = eval_lagrange(2, 2, [[0.5, 0.0]])
        expect = np.zeros(6)
        expect[3] = 1.0
        assert np.allclose(vals[0], expect, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("k", [1, 2])
    def test_partition_of_unity(self, dim, k):
        pts = random_reference_points(dim, 100)
        vals, grads = eval_lagrange(k, dim, pts)
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-13
        assert np.abs(grads.sum(axis=1)).max() < 1e-13

    def test_unsupported_degree(self):
        with pytest.raises(ElementError):
            eval_lagrange(3, 2, [[0.2, 0.2]])


# symbolic-differentiation oracle values of the constant rot (2D) and curl
# (3D) of each Whitney function on the reference simplex
ORACLE_CURLS = {
    2: [2.0, -2.0, 2.0],
    3: [[0, -2, 2], [2, 0, -2], [-2, 2, 0], [0, 0, 2], [0, -2, 0], [2, 0, 0]],
}


@pytest.mark.parametrize("dim", [2, 3])
class TestNedelec:
    def test_tangential_moment_duality(self, dim):
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        xg, wg = np.polynomial.legendre.leggauss(4)
        xg = (xg + 1) / 2
        wg = wg / 2
        ne = len(REF_EDGES[dim])
        moments = np.zeros((ne, ne))
        for e, (i, j) in enumerate(REF_EDGES[dim]):
            a, b = verts[i], verts[j]
            t = b - a
            pts = a[None, :] + np.outer(xg, t)
            vals, _ = eval_nedelec(dim, pts)
            moments[e] = np.einsum("q,qnd,d->n", wg, vals, t)
        assert np.abs(moments - np.eye(ne)).max() < 1e-13

    def test_curl_values(self, dim):
        # constant per function: any interior point will do
        _, curls = eval_nedelec(dim, [np.full(dim, 0.2)])
        assert np.allclose(curls[0], ORACLE_CURLS[dim], atol=1e-15)

    def test_constant_reproduction(self, dim):
        verts = np.vstack([np.zeros(dim), np.eye(dim)])
        c = np.array([0.3, -0.7, 1.1][:dim])
        coeffs = np.array([c @ (verts[j] - verts[i]) for (i, j) in REF_EDGES[dim]])
        pts = random_reference_points(dim, 20)
        vals, _ = eval_nedelec(dim, pts)
        field = np.einsum("n,qnd->qd", coeffs, vals)
        assert np.abs(field - c).max() < 1e-14

    def test_p1_gradients_in_span(self, dim):
        # grad of each barycentric hat is a curl-free member of the span
        grads = np.vstack([-np.ones(dim), np.eye(dim)])
        pts = random_reference_points(dim, 10)
        vals, curls = eval_nedelec(dim, pts)
        for v in range(dim + 1):
            coeffs = np.array([(1.0 if j == v else 0.0) - (1.0 if i == v else 0.0)
                               for (i, j) in REF_EDGES[dim]])
            field = np.einsum("n,qnd->qd", coeffs, vals)
            curl = np.tensordot(coeffs, curls, axes=(0, 1))
            assert np.abs(field - grads[v]).max() < 1e-14
            assert np.abs(curl).max() < 1e-14


def test_reference_tables():
    # the tables written out by hand
    assert REF_EDGES == {1: ((0, 1),), 2: ((0, 1), (0, 2), (1, 2)),
                         3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
    eps3 = np.zeros((3, 3, 3))
    eps3[0, 1, 2] = eps3[1, 2, 0] = eps3[2, 0, 1] = 1.0
    eps3[0, 2, 1] = eps3[2, 1, 0] = eps3[1, 0, 2] = -1.0
    assert np.array_equal(LEVI_CIVITA[2], [[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(LEVI_CIVITA[3], eps3)


@pytest.mark.parametrize("dim", [1, 4])
def test_nedelec_unsupported_dimension(dim):
    with pytest.raises(ElementError):
        eval_nedelec(dim, np.zeros((1, dim)))


def tangential_jump_2d(mesh_verts, cells, edge):
    """Tangential trace difference of the shared-edge basis function across
    two triangles."""
    from lsmaxwell.assembly import build_space
    from lsmaxwell.mesh import Mesh, boundary_facets_of
    cells = np.asarray(cells, dtype=np.int64)
    bf = boundary_facets_of(cells)
    tags = np.array(["exterior"] * len(bf), dtype=object)
    mesh = Mesh(2, np.asarray(mesh_verts, float), cells, bf, tags)
    space = build_space(mesh, "ned0")
    eidx = int(np.flatnonzero((space.edges == sorted(edge)).all(axis=1))[0])
    a, b = mesh.vertices[edge[0]], mesh.vertices[edge[1]]
    t = (b - a) / np.linalg.norm(b - a)
    traces = []
    for c in range(2):
        p0 = mesh.vertices[mesh.cells[c, 0]]
        J = np.column_stack([mesh.vertices[mesh.cells[c, 1]] - p0,
                             mesh.vertices[mesh.cells[c, 2]] - p0])
        JinvT = np.linalg.inv(J).T
        pts_phys = a[None, :] + np.outer(np.linspace(0.1, 0.9, 7), (b - a))
        pts_ref = np.linalg.solve(J, (pts_phys - p0).T).T
        vals, _ = eval_nedelec(2, pts_ref)
        loc = int(np.flatnonzero(space.cell_dofs[c] == eidx)[0])
        sign = space.cell_signs[c, loc]
        phys = sign * vals[:, loc, :] @ JinvT.T
        traces.append(phys @ t)
    return np.abs(traces[0] - traces[1]).max()


class TestMappingConsistency:
    def test_tangential_continuity_2d(self):
        verts = [[0.0, 0.0], [1.1, 0.2], [0.3, 1.4], [-0.9, 0.7]]
        cells = [[0, 1, 2], [0, 2, 3]]
        assert tangential_jump_2d(verts, cells, (0, 2)) < 1e-13

    def test_tangential_continuity_3d(self):
        from lsmaxwell.assembly import build_space
        from lsmaxwell.mesh import Mesh, boundary_facets_of
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [0.9, 0.8, 0.9]], dtype=float)
        cells = np.array([[0, 1, 2, 3], [1, 2, 3, 4]], dtype=np.int64)
        from lsmaxwell.mesh import signed_volumes
        for c in range(2):
            if signed_volumes(verts, cells[c:c + 1], 3)[0] < 0:
                cells[c, [2, 3]] = cells[c, [3, 2]]
        bf = boundary_facets_of(cells)
        mesh = Mesh(3, verts, cells, bf, np.array(["exterior"] * len(bf), dtype=object))
        space = build_space(mesh, "ned0")
        # shared facet (1,2,3): compare tangential components at interior points
        p1, p2, p3 = verts[1], verts[2], verts[3]
        bary = np.array([[0.3, 0.3, 0.4], [0.6, 0.25, 0.15], [0.2, 0.5, 0.3]])
        pts_phys = bary @ np.vstack([p1, p2, p3])
        t1 = (p2 - p1) / np.linalg.norm(p2 - p1)
        nrm = np.cross(p2 - p1, p3 - p1)
        t2 = np.cross(nrm / np.linalg.norm(nrm), t1)
        for eidx in range(space.num_dofs):
            comp = []
            for c in range(2):
                p0 = verts[cells[c, 0]]
                J = np.column_stack([verts[cells[c, k]] - p0 for k in (1, 2, 3)])
                ref = np.linalg.solve(J, (pts_phys - p0).T).T
                vals, _ = eval_nedelec(3, ref)
                where = np.flatnonzero(space.cell_dofs[c] == eidx)
                if len(where) == 0:
                    comp.append(None)
                    continue
                loc = int(where[0])
                phys = space.cell_signs[c, loc] * vals[:, loc, :] @ np.linalg.inv(J)
                comp.append(np.column_stack([phys @ t1, phys @ t2]))
            if comp[0] is None or comp[1] is None:
                continue
            assert np.abs(comp[0] - comp[1]).max() < 1e-13


def exact_monomial_integral(dim, powers):
    # int over reference simplex of prod x_i^{a_i} = prod a_i! / (sum a_i + dim)!
    num = 1
    for a in powers:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(sum(powers) + dim))


class TestQuadrature:
    def test_degree1_triangle_barycenter(self):
        rule = quadrature(2, 1)
        assert rule.points.shape == (1, 3)
        assert np.allclose(rule.points[0], [1 / 3, 1 / 3, 1 / 3])
        assert abs(rule.weights.sum() - 0.5) < 1e-15

    def test_xy_triangle(self):
        rule = quadrature(2, 2)
        pts = rule.cartesian
        val = (rule.weights * pts[:, 0] * pts[:, 1]).sum()
        assert abs(val - 1 / 24) < 1e-15

    def test_x2_tet(self):
        rule = quadrature(3, 2)
        pts = rule.cartesian
        val = (rule.weights * pts[:, 0] ** 2).sum()
        assert abs(val - 1 / 60) < 1e-15

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_monomial_exactness(self, dim, degree):
        rule = quadrature(dim, degree)
        pts = rule.cartesian
        for total in range(degree + 1):
            for powers in _power_tuples(dim, total):
                got = (rule.weights * np.prod(pts ** np.array(powers), axis=1)).sum()
                want = float(exact_monomial_integral(dim, powers))
                assert abs(got - want) < 1e-14, (powers, got, want)

    def test_weights_sum_to_volume(self):
        assert abs(quadrature(2, 4).weights.sum() - 0.5) < 1e-15
        assert abs(quadrature(3, 4).weights.sum() - 1 / 6) < 1e-15

    def test_unsupported(self):
        with pytest.raises(ElementError):
            quadrature(2, 7)
        with pytest.raises(ElementError):
            quadrature(4, 2)


def _power_tuples(dim, total):
    if dim == 2:
        return [(a, total - a) for a in range(total + 1)]
    out = []
    for a in range(total + 1):
        for b in range(total - a + 1):
            out.append((a, b, total - a - b))
    return out

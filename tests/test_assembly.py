import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sparse

from lsmaxwell import assembly, elements, formulations
from lsmaxwell.assembly import (FORMS, AssemblyError, CoefficientField,
                                assemble, build_space, discrete_gradient,
                                eliminate_constraints)
from lsmaxwell.formulations import FormulationSpec, build_pencil
from lsmaxwell.mesh import (Mesh, boundary_facets_of, build_lshape, build_slit,
                            build_structured_cube, build_structured_square,
                            perturb_interior, tag_subdomain)


def single_triangle_mesh(verts):
    verts = np.asarray(verts, dtype=float)
    cells = np.array([[0, 1, 2]], dtype=np.int64)
    bf = boundary_facets_of(cells)
    return Mesh(2, verts, cells, bf, np.array(["exterior"] * 3, dtype=object))


class TestSpaces:
    def test_p1_dof_count(self):
        m = build_structured_square(16)
        assert build_space(m, "p1").num_dofs == 289

    def test_ned0_square_n1(self):
        m = build_structured_square(1)
        V = build_space(m, "ned0", ("tangential_zero", ("exterior",)))
        assert V.num_dofs == 5
        assert len(V.constrained) == 4
        assert len(V.free_dofs()) == 1

    def test_slit_scalar_zero_count(self):
        m = build_slit(16)
        Q = build_space(m, "p1", ("scalar_zero", ("slit_top", "slit_bottom")))
        assert len(Q.constrained) == 2 * 16 + 1

    def test_p2_dof_count(self):
        m = build_structured_square(4)
        P2 = build_space(m, "p2")
        n_edges = len(P2.edges)
        assert P2.num_dofs == 25 + n_edges

    def test_vector_spaces(self):
        m = build_structured_square(4)
        assert build_space(m, "vector_p1").num_dofs == 2 * 25
        mc = build_structured_cube(2)
        assert build_space(mc, "vector_p1").num_dofs == 3 * 27

    def test_missing_tag_errors(self):
        m = build_structured_square(2)
        with pytest.raises(AssemblyError):
            build_space(m, "p1", ("scalar_zero", ("slit_top",)))

    def test_unknown_family(self):
        m = build_structured_square(2)
        with pytest.raises(AssemblyError):
            build_space(m, "p7")

    def test_cube_tangential_corner_vertices_fully_constrained(self):
        mc = build_structured_cube(2)
        V = build_space(mc, "vector_p1", ("tangential_zero", ("exterior",)))
        # a cube corner vertex has all three components constrained
        corner = int(np.flatnonzero(np.abs(mc.vertices).sum(axis=1) < 1e-12)[0])
        for c in range(3):
            assert 3 * corner + c in set(V.constrained.tolist())


class TestForms:
    def test_p1_mass_single_triangle(self):
        m = single_triangle_mesh([[0, 0], [1, 0], [0, 1]])
        P = build_space(m, "p1")
        M = assemble("mass_scalar", P, P).toarray()
        area = 0.5
        expect = area / 12 * (np.ones((3, 3)) + np.eye(3))
        assert np.abs(M - expect).max() < 1e-15

    @pytest.mark.parametrize("family", ["ned0", "vector_p1"])
    def test_rot_pairing_is_minus_B_transpose(self, family):
        m = build_structured_square(4)
        V = build_space(m, family, ("tangential_zero", ("exterior",)))
        Q = build_space(m, "p1")
        B = assemble("curl_to_vector", Q, V)
        D = assemble("rot_pairing", V, Q)
        Bred, _, _ = eliminate_constraints(B, Q, V)
        Dred, _, _ = eliminate_constraints(D, V, Q)
        scale = np.abs(Bred.data).max()
        assert np.abs((Dred + Bred.T).toarray()).max() < 1e-14 * scale

    def test_rot_pairing_3d_identity(self):
        m = build_structured_cube(2)
        V = build_space(m, "ned0", ("tangential_zero", ("exterior",)))
        Q = build_space(m, "ned0")
        B, _, _ = eliminate_constraints(assemble("curl_to_vector", Q, V), Q, V)
        D, _, _ = eliminate_constraints(assemble("rot_pairing", V, Q), V, Q)
        scale = np.abs(B.data).max()
        assert np.abs((D + B.T).toarray()).max() < 1e-14 * scale

    def test_eps_mass_linear_in_coefficient(self):
        m = tag_subdomain(build_structured_square(4),
                          ((0, 0), (math.pi / 2, math.pi / 2)), 1)
        V = build_space(m, "ned0")
        coeff = CoefficientField(eps={0: 1.0, 1: 100.0}, mu={0: 1.0, 1: 1.0})
        M = assemble("eps_mass", V, V, coeff)
        M_in = assemble("eps_mass", V, V,
                        CoefficientField(eps={0: 1e-30, 1: 1.0}, mu={0: 1, 1: 1}))
        M_out = assemble("eps_mass", V, V,
                         CoefficientField(eps={0: 1.0, 1: 1e-30}, mu={0: 1, 1: 1}))
        diff = (M - (100 * M_in + M_out)).toarray()
        assert np.abs(diff).max() < 1e-12 * np.abs(M.toarray()).max()

    def test_symmetric_forms(self):
        m = build_structured_square(3)
        V = build_space(m, "ned0")
        P = build_space(m, "p1")
        for form, sp in (("eps_mass", V), ("mu_inv_rot_rot", V),
                         ("eps_inv_curl_curl", P), ("mass_scalar", P),
                         ("stiffness_laplace", P)):
            A = assemble(form, sp, sp)
            asym = np.abs((A - A.T).toarray()).max()
            assert asym < 1e-14 * max(np.abs(A.toarray()).max(), 1.0)

    def test_patch_test_curl_energy(self):
        # C applied to the interpolant of a linear scalar reproduces the
        # exact weighted gradient energy
        for mesh in (build_structured_square(5),
                     perturb_interior(build_structured_square(5), 0.2, 3)):
            P = build_space(mesh, "p1")
            C = assemble("eps_inv_curl_curl", P, P)
            a, b, c = 0.7, -1.3, 0.4
            p = a + b * mesh.vertices[:, 0] + c * mesh.vertices[:, 1]
            area = mesh.signed_volumes().sum()
            exact = (b * b + c * c) * area
            assert abs(p @ C @ p - exact) < 1e-12 * max(exact, 1.0)

    def test_discrete_gradient_kernel_3d(self):
        m = build_structured_cube(2)
        V = build_space(m, "ned0")
        P = build_space(m, "p1")
        C = assemble("eps_inv_curl_curl", V, V)
        G = discrete_gradient(V, P)
        R = C @ G
        assert np.abs(R.toarray()).max() < 1e-13

    def test_grad_pairing_matches_discrete_gradient(self):
        # (mu q, grad phi) equals M_mu G when grad phi is interpolated
        m = build_structured_cube(2)
        V = build_space(m, "ned0")
        P = build_space(m, "p1")
        Gw = assemble("grad_pairing_3d", V, P)
        Mmu = assemble("eps_mass", V, V)  # unit coefficients: same weight
        G = discrete_gradient(V, P)
        diff = (Gw - Mmu @ G).toarray()
        assert np.abs(diff).max() < 1e-13

    def test_mean_row(self):
        m = build_structured_square(3)
        P = build_space(m, "p1")
        row = assemble("mu_mean_row", None, P)
        assert row.shape == (1, P.num_dofs)
        assert abs(row.sum() - math.pi ** 2) < 1e-12

    def test_scalar_curl_rejected_in_3d(self):
        m = build_structured_cube(2)
        P = build_space(m, "p1")
        V = build_space(m, "vector_p1")
        with pytest.raises(AssemblyError):
            assemble("curl_to_vector", P, V)
        with pytest.raises(AssemblyError):
            assemble("rot_pairing", V, P)

    def test_incompatible_spaces(self):
        m = build_structured_square(2)
        V = build_space(m, "ned0")
        with pytest.raises(AssemblyError):
            assemble("mass_scalar", V, V)

    def test_different_meshes_rejected(self):
        A = build_space(build_structured_square(2), "p1")
        Bsp = build_space(build_structured_square(3), "p1")
        with pytest.raises(AssemblyError):
            assemble("mass_scalar", A, Bsp)

    def test_determinism(self):
        m = build_structured_square(6)
        V = build_space(m, "ned0")
        A1 = assemble("mu_inv_rot_rot", V, V)
        A2 = assemble("mu_inv_rot_rot", V, V)
        assert np.array_equal(A1.indices, A2.indices)
        assert np.array_equal(A1.indptr, A2.indptr)
        assert np.array_equal(A1.data, A2.data)


# ---- per-quadrature-point oracle -------------------------------------------
#
# Evaluates every basis quantity in physical space at each quadrature point
# of each cell and sums w_q * coef * |det J| * T . U, cell by cell.

FAMILIES = ("p1", "p2", "vector_p1", "vector_p2", "ned0")
ORACLE_COEFF = CoefficientField(eps={0: 2.5, 1: 0.4}, mu={0: 0.7, 1: 3.0})
_S = ("scalar",)
_VE = ("vector", "edge")
_ANY = ("scalar", "vector", "edge")
# form -> (coefficient from (eps, mu), test quantity, trial quantity,
#          test kinds, trial kinds)
ORACLE_FORMS = {
    "mass_scalar": (lambda e, m: 1.0, "val", "val", _S, _S),
    "stiffness_laplace": (lambda e, m: 1.0, "grad", "grad", _S, _S),
    "eps_mass": (lambda e, m: e, "val", "val", _VE, _VE),
    "mu_inv_rot_rot": (lambda e, m: 1.0 / m, "curl", "curl", _VE, _VE),
    "eps_inv_curl_curl": (lambda e, m: 1.0 / e, "curl", "curl", _ANY, _ANY),
    "curl_to_vector": (lambda e, m: -1.0, "curl", "val", _ANY, _VE),
    "rot_pairing": (lambda e, m: 1.0, "curl", "val", _VE, _ANY),
    "grad_pairing_3d": (lambda e, m: m, "val", "grad", ("edge",), _S),
}


def _oracle_spaces():
    cube = tag_subdomain(perturb_interior(build_structured_cube(2), 0.2, 5),
                         ((0, 0, 0), (2.0, 2.0, 3.2)), 1)
    lshape = tag_subdomain(build_lshape(2, diagonal="crisscross"), ((-1, -1), (0.1, 0.1)), 1)
    return {name: {f: build_space(m, f) for f in FAMILIES}
            for name, m in (("cube", cube), ("lshape", lshape))}


ORACLE_SPACES = _oracle_spaces()


def _jacobian(mesh, cell):
    p = mesh.vertices[mesh.cells[cell]]
    return (p[1:] - p[:1]).T


def _physical(space, name, cell, pts):
    """(nq, ndof, ncomp) physical values of one quantity on one cell, edge
    signs included, or None when the quantity does not exist."""
    dim = space.mesh.dim
    J = _jacobian(space.mesh, cell)
    detJ = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    if space.kind == "edge":
        vals, curls = elements.eval_nedelec(dim, pts)
        curls = (curls / detJ)[:, :, None] if dim == 2 else curls @ J.T / detJ
        out = {"val": vals @ Jinv, "curl": curls}
    else:
        vals, grads = elements.eval_lagrange(space.degree, dim, pts)
        g = grads @ Jinv
        if space.kind == "scalar":
            out = {"val": vals[:, :, None], "grad": g}
            if dim == 2:
                out["curl"] = np.stack([g[..., 1], -g[..., 0]], axis=-1)
        else:
            nq, nl = vals.shape
            val = np.zeros((nq, nl * dim, dim))
            curl = np.zeros((nq, nl * dim, 1 if dim == 2 else 3))
            for n in range(nl):
                for c in range(dim):
                    val[:, n * dim + c, c] = vals[:, n]
                    if dim == 3:
                        curl[:, n * dim + c, :] = np.cross(g[:, n, :], np.eye(3)[c])
                    elif c == 0:
                        curl[:, n * dim, 0] = -g[:, n, 1]
                    else:
                        curl[:, n * dim + 1, 0] = g[:, n, 0]
            out = {"val": val, "curl": curl}
    if name not in out:
        return None
    return out[name] * space.cell_signs[cell][None, :, None]


def _defined(mesh_name, form, test_family, trial_family):
    spaces = ORACLE_SPACES[mesh_name]
    trial_space = spaces[trial_family]
    if form == "mu_mean_row":
        return trial_space.kind == "scalar"
    test_space = spaces[test_family]
    _, qt, qu, kt, ku = ORACLE_FORMS[form]
    if test_space.kind not in kt or trial_space.kind not in ku:
        return False
    pts = elements.quadrature(trial_space.mesh.dim, 1).cartesian
    T = _physical(test_space, qt, 0, pts)
    U = _physical(trial_space, qu, 0, pts)
    return T is not None and U is not None and T.shape[2] == U.shape[2]


def oracle_assemble(form, test_space, trial_space, coeff):
    """Dense matrix of one defined pairing, summed point by point."""
    mesh = trial_space.mesh
    quad = elements.quadrature(mesh.dim, 4)
    eps, mu = coeff.eps_on(mesh), coeff.mu_on(mesh)
    if form == "mu_mean_row":
        coef, qt, qu = (lambda e, m: m), None, "val"
    else:
        coef, qt, qu = ORACLE_FORMS[form][:3]
    out = np.zeros((test_space.num_dofs if test_space else 1, trial_space.num_dofs))
    for c in range(mesh.num_cells):
        vol = abs(np.linalg.det(_jacobian(mesh, c)))
        U = _physical(trial_space, qu, c, quad.cartesian)
        if test_space is None:
            E = coef(eps[c], mu[c]) * vol * np.einsum("q,qm->m", quad.weights, U[:, :, 0])
            np.add.at(out[0], trial_space.cell_dofs[c], E)
            continue
        T = _physical(test_space, qt, c, quad.cartesian)
        E = coef(eps[c], mu[c]) * vol * np.einsum("q,qni,qmi->nm", quad.weights, T, U)
        np.add.at(out, np.ix_(test_space.cell_dofs[c], trial_space.cell_dofs[c]), E)
    return out


def _pairings():
    """Every (mesh, form, test family, trial family), test family None for
    the mean row."""
    for name, spaces in ORACLE_SPACES.items():
        for form in FORMS:
            if form == "mu_mean_row":
                yield from ((name, form, None, fu) for fu in FAMILIES)
            else:
                yield from ((name, form, ft, fu)
                            for ft, fu in itertools.product(FAMILIES, FAMILIES))


ACCEPTED = [p for p in _pairings() if _defined(*p)]


class TestOracle:
    @pytest.mark.parametrize("mesh_name,form,test_family,trial_family", ACCEPTED,
                             ids=["-".join(str(x) for x in p) for p in ACCEPTED])
    def test_matches_quadrature_point_oracle(self, mesh_name, form, test_family,
                                             trial_family):
        spaces = ORACLE_SPACES[mesh_name]
        test_space = spaces[test_family] if test_family else None
        trial_space = spaces[trial_family]
        got = assemble(form, test_space, trial_space, ORACLE_COEFF).toarray()
        want = oracle_assemble(form, test_space, trial_space, ORACLE_COEFF)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_other_pairings_rejected(self):
        rejected = [p for p in _pairings() if not _defined(*p)]
        assert rejected
        for name, form, ft, fu in rejected:
            spaces = ORACLE_SPACES[name]
            with pytest.raises(AssemblyError):
                assemble(form, spaces[ft] if ft else None, spaces[fu], ORACLE_COEFF)


def _same_matrix(a, b):
    """Bitwise equal values on the same stored pattern."""
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


class TestBuildCache:
    """Forms assembled inside one build share geometry, dof maps and CSR
    patterns; each returned matrix must still own its pattern."""

    TWO_FIELD = ("eps_mass", "mu_inv_rot_rot", "curl_to_vector",
                 "eps_inv_curl_curl", "rot_pairing")

    @staticmethod
    def two_field_forms(mesh, order):
        V = build_space(mesh, "vector_p1", ("tangential_zero", ("exterior",)))
        Q = build_space(mesh, "vector_p1")
        spaces = {"eps_mass": (V, V), "mu_inv_rot_rot": (V, V),
                  "curl_to_vector": (Q, V), "eps_inv_curl_curl": (Q, Q),
                  "rot_pairing": (V, Q)}
        return {f: assemble(f, *spaces[f], ORACLE_COEFF) for f in order}

    def test_two_field_call_order(self):
        m = tag_subdomain(perturb_interior(build_structured_cube(3), 0.2, 3),
                          ((0, 0, 0), (2.0, 2.0, 3.2)), 1)
        alone = self.two_field_forms(m, self.TWO_FIELD)
        with assembly._per_build(m):
            forward = self.two_field_forms(m, self.TWO_FIELD)
        with assembly._per_build(m):
            backward = self.two_field_forms(m, self.TWO_FIELD[::-1])
        # exact zeros inside the shared pattern are dropped per matrix, so
        # a matrix that shared its pattern arrays would corrupt the next one
        V = build_space(m, "vector_p1")
        pattern_nnz = len(assembly._pattern(V, V)[1])
        assert min(a.nnz for a in alone.values()) < pattern_nnz
        for f in self.TWO_FIELD:
            assert _same_matrix(forward[f], alone[f]), f
            assert _same_matrix(backward[f], alone[f]), f

    @pytest.mark.parametrize("mesh_name", sorted(ORACLE_SPACES))
    def test_every_pairing_in_one_build(self, mesh_name):
        spaces = ORACLE_SPACES[mesh_name]
        mesh = spaces["p1"].mesh
        pairings = [p[1:] for p in ACCEPTED if p[0] == mesh_name]

        def run(order):
            return [assemble(form, spaces[ft] if ft else None, spaces[fu],
                             ORACLE_COEFF) for form, ft, fu in order]

        alone = run(pairings)
        for order in (pairings, pairings[::-1]):
            with assembly._per_build(mesh):
                got = run(order)
            if order is not pairings:
                got = got[::-1]
            for p, a, b in zip(pairings, got, alone):
                assert _same_matrix(a, b), p

    def test_replaced_meshes_rebuild(self):
        spec = FormulationSpec(kind="ls3d_twofield_nodal", elements_v="p1",
                               elements_q="p1", gauge="none", coeff=ORACLE_COEFF)
        box = ((0, 0, 0), (2.0, 2.0, 3.2))

        def fresh():
            return build_structured_cube(2)

        m = fresh()
        build_pencil(m, spec)
        for derived, again in (
                (perturb_interior(m, 0.2, 4), perturb_interior(fresh(), 0.2, 4)),
                (tag_subdomain(m, box, 1), tag_subdomain(fresh(), box, 1))):
            got, want = build_pencil(derived, spec), build_pencil(again, spec)
            assert _same_matrix(got.K, want.K)
            assert _same_matrix(got.M, want.M)

    @pytest.mark.parametrize("name, mesh, args", [
        ("ls_maxwell_2d", build_structured_square(3), (FormulationSpec(elements_v="p1"),)),
        ("ls_maxwell_3d_threefield", build_structured_cube(1),
         (FormulationSpec(kind="ls3d_threefield", elements_q="ned0"),)),
        ("galerkin_laplace", build_structured_square(3), ()),
        ("curlcurl_edge", build_structured_square(3), ())])
    def test_direct_builder_call_shares_geometry(self, name, mesh, args, monkeypatch):
        # called directly, not through build_pencil, a builder still
        # computes the cell geometry once for all of its forms
        calls = []
        geometry = assembly._geometry
        monkeypatch.setattr(assembly, "_geometry",
                            lambda m: calls.append(m) or geometry(m))
        getattr(formulations, name)(mesh, *args)
        assert calls == [mesh]
        assert assembly._BUILD.get() is None

    def test_two_field_build_shares_maps_and_free_dofs(self, monkeypatch):
        # five forms on two spaces need two per-cell maps (vector val and
        # curl) and two free-dof sets per build, each computed once; the
        # reference tables are tabulated by the first build only
        maps, frees, tables = [], [], []
        quantity, setdiff = assembly._quantity, np.setdiff1d

        def counted(space, name, pts):
            tables.append((space.kind, name))
            ref, cell_map = quantity(space, name, pts)
            return ref, lambda *g: maps.append((space.kind, name)) or cell_map(*g)
        monkeypatch.setattr(assembly, "_REF_TABLES", {})
        monkeypatch.setattr(assembly, "_quantity", counted)
        monkeypatch.setattr(np, "setdiff1d",
                            lambda *a, **k: frees.append(1) or setdiff(*a, **k))
        spec = FormulationSpec(kind="ls3d_twofield_nodal", elements_v="p1", gauge="none")

        def build():
            maps.clear()
            frees.clear()
            build_pencil(build_structured_cube(2), spec)
            assert sorted(maps) == [("vector", "curl"), ("vector", "val")]
            assert len(frees) == 2
        build()
        tabulated = len(tables)
        build()
        assert tabulated and len(tables) == tabulated

    def test_reference_tables_are_read_only(self):
        m = build_structured_square(2)
        P = build_space(m, "p1")
        assemble("mass_scalar", P, P)
        assemble("mu_mean_row", None, P)
        R, _, _ = assembly._REF_TABLES[("mass_scalar", "p1", "p1", 2)]
        ref = assembly._REF_TABLES[("mu_mean_row", "p1", 2)]
        for a in (R, ref):
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_nothing_left_after_build(self):
        m = build_structured_square(3)
        fields = {f.name for f in dataclasses.fields(m)}
        build_pencil(m, FormulationSpec(elements_v="p2", elements_q="p2"))
        assert set(vars(m)) == fields
        assert assembly._BUILD.get() is None
        # a build that fails half way drops its cache too
        with pytest.raises(AssemblyError):
            build_pencil(m, FormulationSpec(bc="mixed_slit"))
        assert set(vars(m)) == fields
        assert assembly._BUILD.get() is None


class TestEliminate:
    def test_identity_when_unconstrained(self):
        m = build_structured_square(3)
        P = build_space(m, "p1")
        M = assemble("mass_scalar", P, P)
        red, tf, uf = eliminate_constraints(M, P, P)
        assert red.shape == M.shape
        assert np.array_equal(tf, np.arange(P.num_dofs))

    def test_fully_constrained_degenerate(self):
        m = single_triangle_mesh([[0, 0], [1, 0], [0, 1]])
        P = build_space(m, "p1", ("scalar_zero", ("exterior",)))
        M = assemble("mass_scalar", P, P)
        red, tf, _ = eliminate_constraints(M, P, P)
        assert red.shape == (0, 0)
        assert len(tf) == 0

    def test_hand_integrated_single_free_edge(self):
        # one free (diagonal) edge dof on the 2-triangle pi-square;
        # the reduced A entry equals 1/3 + 4/pi^2 (hand integration)
        m = build_structured_square(1, side=math.pi)
        V = build_space(m, "ned0", ("tangential_zero", ("exterior",)))
        A = assemble("eps_mass", V, V) + assemble("mu_inv_rot_rot", V, V)
        red, _, _ = eliminate_constraints(A, V, V)
        assert red.shape == (1, 1)
        expect = 1.0 / 3.0 + 4.0 / math.pi ** 2
        assert abs(red[0, 0] - expect) < 1e-14

    @pytest.mark.parametrize("constraint", ["none", "some", "all"])
    def test_matches_fancy_indexing(self, constraint):
        # one pass over the entries keeps exactly the entries, and their
        # order, of row then column fancy indexing, in a new matrix
        if constraint == "all":
            m = single_triangle_mesh([[0, 0], [1, 0], [0, 1]])
        else:
            m = build_structured_square(3)
        tags = None if constraint == "none" else ("exterior",)
        V = build_space(m, "ned0", tags and ("tangential_zero", tags))
        P = build_space(m, "p1", tags and ("scalar_zero", tags))
        for mat, test, trial in ((assemble("mass_scalar", P, P), P, P),
                                 (assemble("curl_to_vector", P, V), P, V),
                                 (assemble("rot_pairing", V, P), V, P)):
            red, tf, uf = eliminate_constraints(mat, test, trial)
            assert (len(tf) == test.num_dofs, len(tf) == 0) == (
                constraint == "none", constraint == "all")
            want = mat.tocsr()[tf][:, uf]
            assert red.format == "csr"
            assert _same_matrix(red, want)
            assert not np.shares_memory(red.data, mat.data)


class TestCoefficients:
    def test_validation(self):
        with pytest.raises(AssemblyError):
            CoefficientField(eps={0: 0.0})
        with pytest.raises(AssemblyError):
            CoefficientField(mu={0: -2.0})

    def test_missing_tag(self):
        m = tag_subdomain(build_structured_square(2), ((0, 0), (4, 4)), 7)
        with pytest.raises(AssemblyError, match="no coefficient for cell tag 7"):
            CoefficientField().eps_on(m)

    def test_per_cell_values_match_a_lookup_per_cell(self):
        m = tag_subdomain(tag_subdomain(build_structured_square(4), ((0, 0), (1.6, 1.6)), 3),
                          ((2.0, 2.0), (4.0, 4.0)), 1)
        assert set(m.cell_tags) == {0, 1, 3}
        coeff = CoefficientField(eps={0: 1.0, 1: 2.5, 3: 0.3}, mu={0: 1, 1: 7, 3: 2})
        for table, got in ((coeff.eps, coeff.eps_on(m)), (coeff.mu, coeff.mu_on(m))):
            want = np.array([table[int(t)] for t in m.cell_tags])
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_mean_row_matches_a_scatter_per_cell(self):
        m = tag_subdomain(build_structured_square(4), ((0, 0), (1.6, 1.6)), 1)
        coeff = CoefficientField(mu={0: 1.0, 1: 3.0})
        quad = elements.quadrature(2, 4)
        weights = coeff.mu_on(m) * assembly._geometry(m)[1]
        for family in ("p1", "p2"):
            P = build_space(m, family)
            vals, _ = elements.eval_lagrange(P.degree, 2, quad.cartesian)
            want = np.zeros(P.num_dofs)
            np.add.at(want, P.cell_dofs, weights[:, None] * (quad.weights @ vals))
            assert np.array_equal(assemble("mu_mean_row", None, P, coeff).toarray()[0], want)

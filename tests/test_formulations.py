import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from lsmaxwell.assembly import (AssemblyError, CoefficientField, assemble,
                                discrete_gradient)
from lsmaxwell.bench import solve_spectrum
from lsmaxwell.formulations import (FormulationSpec, build_pencil,
                                    curlcurl_edge, galerkin_laplace,
                                    ls_maxwell_2d, ls_maxwell_3d_threefield,
                                    ls_maxwell_3d_twofield_nodal)
from lsmaxwell.mesh import (Mesh, boundary_facets_of, build_lshape,
                            build_slit, build_structured_cube,
                            build_structured_square, perturb_interior,
                            tag_subdomain)
from lsmaxwell import pencil
from lsmaxwell.pencil import (PencilError, dense_qz, factorize,
                              shift_invert_eigs, solve_symmetric)

QUARTER = ((0.0, 0.0), (math.pi / 2, math.pi / 2))


class TestLs2d:
    def test_edge_square_n16(self):
        m = build_structured_square(16)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d"))
        sol = shift_invert_eigs(pen, nev=1)
        assert 0.005 <= abs(sol.eigenvalues[0] - 1.0) <= 0.02

    def test_nodal_square_n16(self):
        m = build_structured_square(16)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1"))
        sol = shift_invert_eigs(pen, nev=1)
        assert 0.005 <= abs(sol.eigenvalues[0] - 1.0) <= 0.02

    def test_structure_invariants(self):
        m = build_structured_square(4)
        coeff = CoefficientField(eps={0: 2.5}, mu={0: 0.5})
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", coeff=coeff))
        B, D = pen.blocks["B"], pen.blocks["D"]
        scale = np.abs(B.data).max()
        assert np.abs((D + B.T).toarray()).max() < 1e-14 * scale
        # K itself is block-symmetric, so negating off-diagonal blocks
        # preserves symmetry
        assert np.abs((pen.K - pen.K.T).toarray()).max() < 1e-14 * np.abs(pen.K.data).max()

    def test_second_equation_residual(self):
        m = build_structured_square(8)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1"))
        sol = shift_invert_eigs(pen, nev=5)
        B, C = pen.blocks["B"], pen.blocks["C"]
        mrow = pen.blocks["mean_row"]
        scale = np.abs(pen.K.data).max()
        for j in range(5):
            u, p = sol.vectors["u"][:, j], sol.vectors["p"][:, j]
            lm = sol.vectors["lm"][:, j]
            r = B @ u + C @ p + (mrow.T @ lm).ravel()
            z = np.sqrt(np.linalg.norm(u) ** 2 + np.linalg.norm(p) ** 2)
            assert np.linalg.norm(r) <= 1e-8 * scale * z

    def test_mixed_slit_requires_slit(self):
        m = build_structured_square(4)
        with pytest.raises(AssemblyError):
            ls_maxwell_2d(m, FormulationSpec(kind="ls2d", bc="mixed_slit"))

    def test_mixed_slit_spaces(self):
        m = build_slit(4)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1",
                                               bc="mixed_slit"))
        assert "lm" not in pen.ranges
        Q, _ = pen.spaces["p"]
        assert len(Q.constrained) == 2 * 4 + 1

    def test_unknown_gauge_rejected(self):
        # it used to be built as gauge = 'none' and flagged nonsingular
        with pytest.raises(AssemblyError, match="unknown gauge mode 'bogus'"):
            FormulationSpec(kind="ls2d", gauge="bogus")

    @pytest.mark.parametrize("q", ["ned0", "p3"])
    def test_potential_element_rejected(self, q):
        # an edge potential used to fail only inside assembly
        with pytest.raises(AssemblyError, match=f"elements_q = 'p1' or 'p2', got '{q}'"):
            FormulationSpec(kind="ls2d", elements_q=q)

    def test_wrong_dimension(self):
        mc = build_structured_cube(1)
        with pytest.raises(AssemblyError):
            ls_maxwell_2d(mc, FormulationSpec(kind="ls2d"))


class TestLs3d:
    def test_threefield_n4_band(self):
        m = build_structured_cube(4)
        pen = ls_maxwell_3d_threefield(m, FormulationSpec(
            kind="ls3d_threefield", elements_q="ned0"))
        sol = shift_invert_eigs(pen, nev=3)
        assert 0.2 <= sol.eigenvalues[0] - 2.0 <= 0.8
        # the multiplier field vanishes for every kept mode
        for j in range(len(sol.eigenvalues)):
            z = np.concatenate([sol.vectors[k][:, j] for k in sol.vectors])
            w = sol.vectors["w"][:, j]
            assert np.linalg.norm(w) <= 1e-8 * np.linalg.norm(z)

    def test_threefield_oracle_n2(self):
        m = build_structured_cube(2)
        pen = ls_maxwell_3d_threefield(m, FormulationSpec(
            kind="ls3d_threefield", elements_q="ned0"))
        sol = shift_invert_eigs(pen, nev=5)
        qz = dense_qz(pen.K, pen.M)
        assert np.abs(sol.eigenvalues[:5] - qz.finite[:5]).max() < 1e-9

    def test_threefield_requires_multiplier(self):
        with pytest.raises(AssemblyError):
            FormulationSpec(kind="ls3d_threefield", gauge="none")

    @pytest.mark.parametrize("kw", [
        dict(kind="ls3d_twofield_nodal", bc="mixed_slit"),
        dict(kind="ls3d_twofield_nodal", elements_v="p2"),
        dict(kind="ls3d_twofield_nodal", elements_q="p2"),
        dict(kind="ls3d_twofield_nodal", elements_q="ned0"),
        dict(kind="ls3d_threefield", elements_q="ned0", bc="mixed_slit"),
        dict(kind="ls3d_threefield", elements_v="p1", elements_q="ned0"),
        dict(kind="galerkin_laplace", elements_v="p2"),
        dict(kind="galerkin_laplace", elements_q="p2"),
        dict(kind="galerkin_laplace", coeff=CoefficientField(
            eps={0: 1.0, 1: 5.0}, mu={0: 1.0, 1: 1.0})),
        dict(kind="galerkin_laplace", coeff=CoefficientField(mu={0: 2.0})),
        dict(kind="curlcurl_edge", bc="mixed_slit"),
        dict(kind="curlcurl_edge", elements_v="p1"),
        dict(kind="curlcurl_edge", elements_q="p2"),
    ])
    def test_fixed_fields_reject_other_values(self, kw):
        with pytest.raises(AssemblyError, match="fixes"):
            FormulationSpec(**kw)

    # kind -> (mesh, the values of the fields it fixes)
    FIXED = {
        "ls2d": (lambda: build_structured_square(3), {}),
        "ls3d_threefield": (lambda: build_structured_cube(2), dict(
            elements_v="ned0", elements_q="ned0", gauge="multiplier", bc="standard")),
        "ls3d_twofield_nodal": (lambda: build_structured_cube(2), dict(
            elements_v="p1", elements_q="p1", gauge="none", bc="standard")),
        # the CLI passes unit coefficients for cell tags 0 and 1
        "galerkin_laplace": (lambda: build_slit(2), dict(
            elements_v="p1", elements_q="p1", gauge="none",
            coeff=CoefficientField(eps={0: 1.0, 1: 1.0}, mu={0: 1.0, 1: 1.0}))),
        "curlcurl_edge": (lambda: build_structured_square(3), dict(
            elements_v="ned0", elements_q="p1", gauge="none", bc="standard")),
    }

    @pytest.mark.parametrize("kind", list(FIXED))
    def test_fixed_fields_accept_the_defaults(self, kind):
        # the spec holds the fixed values, so a defaulted spec is the
        # explicit one and builds the same pencil, bit for bit
        make_mesh, fixed = self.FIXED[kind]
        plain, explicit = FormulationSpec(kind=kind), FormulationSpec(kind=kind, **fixed)
        assert plain == explicit
        m = make_mesh()
        a, b = build_pencil(m, plain), build_pencil(m, explicit)
        pairs = [(a.K, b.K), (a.M, b.M)]
        if hasattr(a, "blocks"):
            assert a.blocks.keys() == b.blocks.keys()
            pairs += [(a.blocks[k], b.blocks[k]) for k in a.blocks]
        elif a.kernel_basis is not None:
            pairs.append((a.kernel_basis, b.kernel_basis))
        for x, y in pairs:
            x, y = x.tocsr(), y.tocsr()
            assert x.shape == y.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(x, attr), getattr(y, attr))

    def test_reference_kinds_accept_unit_coefficients(self):
        # the CLI always passes cell tags 0 and 1
        unit = CoefficientField(eps={0: 1.0, 1: 1.0}, mu={0: 1.0, 1: 1.0})
        m = build_slit(2)
        plain = build_pencil(m, FormulationSpec(kind="galerkin_laplace"))
        fixed = build_pencil(m, FormulationSpec(
            kind="galerkin_laplace", elements_v="p1", gauge="none", coeff=unit))
        assert (plain.K != fixed.K).nnz == 0 and (plain.M != fixed.M).nnz == 0
        FormulationSpec(kind="curlcurl_edge", gauge="none", coeff=JUMP)

    def test_twofield_n4(self):
        m = build_structured_cube(4)
        pen = ls_maxwell_3d_twofield_nodal(m, FormulationSpec(
            kind="ls3d_twofield_nodal", elements_v="p1", elements_q="p1",
            gauge="none"))
        assert pen.flags["theory_covered"] is False
        sol = shift_invert_eigs(pen, nev=5)
        assert abs(sol.eigenvalues[0] - 2.55107) < 5e-4
        assert sol.eigenvalues[0] > 1.5
        B, D = pen.blocks["B"], pen.blocks["D"]
        assert np.abs((D + B.T).toarray()).max() < 1e-14 * np.abs(B.data).max()

    def test_twofield_oracle_n2(self):
        m = build_structured_cube(2)
        pen = ls_maxwell_3d_twofield_nodal(m, FormulationSpec(
            kind="ls3d_twofield_nodal", elements_v="p1", elements_q="p1",
            gauge="none"))
        sol = shift_invert_eigs(pen, nev=3)
        qz = dense_qz(pen.K, pen.M)
        assert qz.num_degenerate > 0
        assert np.abs(sol.eigenvalues[:3] - qz.finite[:3]).max() < 1e-9


class TestGalerkin:
    def test_square_neumann_spectrum(self):
        m = build_structured_square(16)
        lam, _ = solve_spectrum(m, FormulationSpec(kind="galerkin_laplace"), 10)
        exact = np.array([1, 1, 2, 4, 4, 5, 5, 8, 9, 9], dtype=float)
        assert np.abs(lam - exact).max() < 0.31

    def test_single_triangle_zero_mode(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cells = np.array([[0, 1, 2]], dtype=np.int64)
        bf = boundary_facets_of(cells, 2)
        m = Mesh(2, verts, cells, bf, np.array(["exterior"] * 3, dtype=object))
        pen = galerkin_laplace(m)
        lam = scipy.linalg.eigh(pen.K.toarray(), pen.M.toarray(),
                                eigvals_only=True)
        assert int((np.abs(lam) < 1e-10).sum()) == 1
        assert pen.kernel_basis.shape[1] == 1
        assert np.abs(pen.K @ pen.kernel_basis).max() <= 1e-14 * np.abs(pen.K).max()

    def test_mixed_slit_value(self):
        # converges to ~1.034 from above; discrete value at n=16 depends on
        # the mesh convention
        m = build_slit(16)
        lam, _ = solve_spectrum(m, FormulationSpec(kind="galerkin_laplace",
                                                   bc="mixed_slit"), 1)
        assert 1.034 < lam[0] < 1.30


class TestCurlCurl:
    def test_kernel_dimension_n4(self):
        m = build_structured_square(4)
        pen = curlcurl_edge(m)
        lam = scipy.linalg.eigh(pen.K.toarray(), pen.M.toarray(),
                                eigvals_only=True)
        n_zero = int((np.abs(lam) < 1e-10 * np.abs(lam).max()).sum())
        assert n_zero == (4 - 1) ** 2
        assert pen.kernel_basis.shape[1] == n_zero

    def test_square_unit_coefficients(self):
        m = build_structured_square(16)
        lam, _ = solve_spectrum(m, FormulationSpec(kind="curlcurl_edge"), 5)
        exact = np.array([1, 1, 2, 4, 4], dtype=float)
        assert np.abs(lam - exact).max() < 0.05

    def test_jumping_eps_table_value(self):
        # high-permittivity complement: lambda_1 at fitted n=64
        m = tag_subdomain(build_structured_square(64), QUARTER, 1)
        coeff = CoefficientField(eps={0: 100.0, 1: 1.0}, mu={0: 1.0, 1: 1.0})
        lam, _ = solve_spectrum(m, FormulationSpec(kind="curlcurl_edge",
                                                   coeff=coeff), 1)
        assert abs(lam[0] - 0.01294) < 2e-4

    def test_jumping_mu_two_route_value(self):
        # cross-validated against an independent scalar P1 discretization of
        # the equivalent weighted Neumann problem (see test body below)
        m = tag_subdomain(build_structured_square(32), QUARTER, 1)
        coeff = CoefficientField(eps={0: 1.0, 1: 1.0}, mu={0: 0.01, 1: 1.0})
        lam, _ = solve_spectrum(m, FormulationSpec(kind="curlcurl_edge",
                                                   coeff=coeff), 1)
        oracle = _scalar_weighted_mass_eig(m, mu_out=0.01)
        assert abs(lam[0] - oracle) < 0.02 * oracle

    def test_requires_2d(self):
        with pytest.raises(AssemblyError):
            curlcurl_edge(build_structured_cube(1))


SYMMETRIC_CASES = {
    "curlcurl_eps_jump": lambda: curlcurl_edge(
        tag_subdomain(build_structured_square(8), QUARTER, 1),
        CoefficientField(eps={0: 100.0, 1: 1.0}, mu={0: 1.0, 1: 1.0})),
    "curlcurl_lshape_perturbed": lambda: curlcurl_edge(
        perturb_interior(build_lshape(4), 0.2, 1)),
    "curlcurl_slit": lambda: curlcurl_edge(build_slit(4)),
    "galerkin_neumann_slit": lambda: galerkin_laplace(build_slit(4)),
    "galerkin_mixed_slit": lambda: galerkin_laplace(build_slit(4), "mixed_slit"),
}


class TestSymmetricSolver:
    @pytest.mark.parametrize("path", ["dense", "sparse"])
    @pytest.mark.parametrize("name", sorted(SYMMETRIC_CASES))
    def test_matches_dense_eigh(self, name, path, monkeypatch):
        pen = SYMMETRIC_CASES[name]()
        nker = 0 if pen.kernel_basis is None else pen.kernel_basis.shape[1]
        full = scipy.linalg.eigh(pen.K.toarray(), pen.M.toarray(),
                                 eigvals_only=True)
        # the kernel basis spans exactly the zero eigenvalues
        assert np.abs(full[:nker]).max(initial=0.0) <= 1e-10 * full.max()
        assert full[nker] > 1e-6 * full.max()
        if nker:
            assert np.abs(pen.K @ pen.kernel_basis).max() <= 1e-12 * np.abs(pen.K).max()
        factored = []
        monkeypatch.setattr(pencil, "factorize",
                            lambda A, **kw: factored.append(A.shape) or factorize(A, **kw))
        monkeypatch.setattr(pencil, "_DENSE_SOLVE_LIMIT",
                            pen.size if path == "dense" else 0)
        sol = solve_symmetric(pen, nev=8)
        lam = sol.eigenvalues
        want = full[nker:nker + 8]
        assert (np.abs(lam - want) <= 1e-9 * (1 + np.abs(want))).all()
        assert bool(factored) == (path == "sparse")
        # the pairs carry their vectors through the residual gate
        meta = sol.meta
        assert meta["path"] == path and meta["kernel_dim"] == nker
        lanczos = [meta[k] for k in ("sigma", "lu_nnz", "op_applies",
                                     "lanczos_k", "lanczos_ncv")]
        if path == "dense":
            assert lanczos == [None] * 5
        else:
            assert meta["sigma"] < 0 < meta["lu_nnz"]
            assert meta["lanczos_k"] == 8 < meta["lanczos_ncv"] <= meta["op_applies"]
        assert sol.discarded == [] and list(sol.vectors) == ["u"]
        Z = sol.vectors["u"]
        res = np.linalg.norm(pen.K @ Z - (pen.M @ Z) * lam, axis=0) \
            / ((np.abs(lam) + 1.0) * np.linalg.norm(Z, axis=0))
        assert res.max() <= pencil.RESIDUAL_TOL
        assert np.allclose(res, sol.residuals, rtol=1e-6, atol=1e-16)
        if nker:
            # the vectors are deflated: M-orthogonal to the kernel basis
            G = pen.kernel_basis
            assert np.linalg.norm(G.T @ (pen.M @ Z)) <= 1e-12 * np.linalg.norm(Z) \
                * sparse.linalg.norm(G) * sparse.linalg.norm(pen.M)

    @pytest.mark.parametrize("path", ["dense", "sparse"])
    def test_gate_names_every_rejected_pair(self, path, monkeypatch):
        # the symmetric solver ends in the Schur solver's gate: with a bound
        # no pair can meet, the error names every pair, its residual and
        # the request
        pen = curlcurl_edge(build_structured_square(8))
        monkeypatch.setattr(pencil, "_DENSE_SOLVE_LIMIT",
                            pen.size if path == "dense" else 0)
        sol = solve_symmetric(pen, nev=5)
        assert sol.meta["path"] == path
        monkeypatch.setattr(pencil, "RESIDUAL_TOL", 1e-30)
        with pytest.raises(PencilError) as info:
            solve_symmetric(pen, nev=5)
        msg = str(info.value)
        assert msg.startswith("0 of 5 symmetric pairs passed (5 computed, "
                              "residual bound 1e-30)")
        named = re.findall(r"lambda = (\S+): residual (\S+?)(?:;|$)", msg)
        assert len(named) == 5
        assert np.allclose([float(lam) for lam, _ in named], sol.eigenvalues,
                           rtol=1e-5)
        assert np.allclose([float(res) for _, res in named], sol.residuals,
                           rtol=1e-2)

    @pytest.mark.parametrize("side", [10.0**e for e in range(-5, 6)])
    @pytest.mark.parametrize("build", [curlcurl_edge, galerkin_laplace])
    def test_side_sweep_matches_dense_eigh(self, build, side):
        # the shift scales with the spectrum, so neither the success nor the
        # relative accuracy of the Lanczos solve depends on the units
        pen = build(build_structured_square(8, side))
        assert pen.size > pencil._DENSE_SOLVE_LIMIT
        nker = pen.kernel_basis.shape[1]
        full = scipy.linalg.eigh(pen.K.toarray(), pen.M.toarray(),
                                 eigvals_only=True)
        want = full[nker:nker + 8]
        lam = solve_symmetric(pen, nev=8).eigenvalues
        assert np.abs(lam - want).max() <= 1e-9 * np.abs(want).max()


def _scalar_weighted_mass_eig(mesh, mu_out):
    # -Lap p = lambda mu p with Neumann bc: P1 stiffness vs mu-weighted mass
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    base = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    vol = mesh.signed_volumes()
    w = np.where(mesh.cell_tags == 1, 1.0, mu_out)
    n = mesh.num_vertices
    rows, cols, dk, dm = [], [], [], []
    for c, cell in enumerate(mesh.cells):
        p = mesh.vertices[cell]
        J = np.column_stack([p[1] - p[0], p[2] - p[0]])
        G = np.linalg.inv(J).T @ np.array([[-1.0, -1], [1, 0], [0, 1]]).T
        Ke = vol[c] * (G.T @ G)
        Me = w[c] * vol[c] * base
        for a in range(3):
            for b in range(3):
                rows.append(cell[a])
                cols.append(cell[b])
                dk.append(Ke[a, b])
                dm.append(Me[a, b])
    K = sp.coo_matrix((dk, (rows, cols)), shape=(n, n)).tocsr()
    M = sp.coo_matrix((dm, (rows, cols)), shape=(n, n)).tocsr()
    lam = np.sort(spla.eigsh(K, k=3, M=M, sigma=-0.1, which="LM",
                             return_eigenvectors=False))
    return lam[np.abs(lam) > 1e-8][0]


class TestConsistency:
    def test_ls_and_galerkin_same_limit(self):
        # on the square the least-squares and Galerkin spectra converge to
        # the same values at second order
        diffs = []
        for n in (8, 16, 32):
            m = build_structured_square(n)
            lam_ls, _ = solve_spectrum(m, FormulationSpec(kind="ls2d",
                                                          elements_v="p1"), 5)
            lam_g, _ = solve_spectrum(m, FormulationSpec(kind="galerkin_laplace"), 5)
            diffs.append(np.abs(lam_ls - lam_g))
        for mode in range(5):
            rate = np.log2(diffs[1][mode] / diffs[2][mode])
            assert 1.5 <= rate <= 2.5

    def test_build_pencil_dispatch(self):
        m = build_structured_square(2)
        assert build_pencil(m, FormulationSpec(kind="ls2d")).flags["kind"] == "ls2d"
        assert build_pencil(m, FormulationSpec(kind="galerkin_laplace")).flags["kind"] == "galerkin_laplace"
        assert build_pencil(m, FormulationSpec(kind="curlcurl_edge")).flags["kind"] == "curlcurl_edge"


# Fingerprints of the least-squares pencils on ten configurations, frozen
# from the three separate builders that preceded the shared block builder:
# shape, nnz, sum of |entries| and one position-weighted sum per matrix.
# A refactoring of the builders must reproduce them to roundoff.  "Bfull"
# and "Cfull" are the bordered blocks of K below and right of the u range.
JUMP = CoefficientField(eps={0: 1.0, 1: 2.5}, mu={0: 1.0, 1: 0.5})
GOLDEN_CONFIGS = {
    "ls2d_ned0": (ls_maxwell_2d, lambda: build_structured_square(4), {}),
    "ls2d_p1": (ls_maxwell_2d, lambda: build_structured_square(4),
                {"elements_v": "p1"}),
    "ls2d_p2": (ls_maxwell_2d, lambda: build_structured_square(3),
                {"elements_v": "p2", "elements_q": "p2"}),
    "ls2d_nogauge": (ls_maxwell_2d, lambda: build_structured_square(4),
                     {"gauge": "none"}),
    "ls2d_jump": (ls_maxwell_2d,
                  lambda: tag_subdomain(build_structured_square(4), QUARTER, 1),
                  {"elements_v": "p1", "coeff": JUMP}),
    "ls2d_slit_mult": (ls_maxwell_2d, lambda: build_slit(2), {"bc": "mixed_slit"}),
    "ls2d_slit_none": (ls_maxwell_2d, lambda: build_slit(2),
                       {"bc": "mixed_slit", "gauge": "none", "elements_v": "p1"}),
    "ls2d_lshape_crisscross": (ls_maxwell_2d,
                               lambda: build_lshape(2, diagonal="crisscross"), {}),
    "threefield_cube": (ls_maxwell_3d_threefield,
                        lambda: perturb_interior(build_structured_cube(4), 0.2, 1),
                        {"kind": "ls3d_threefield", "elements_q": "ned0"}),
    "twofield_cube": (ls_maxwell_3d_twofield_nodal,
                      lambda: perturb_interior(build_structured_cube(4), 0.2, 2),
                      {"kind": "ls3d_twofield_nodal", "elements_v": "p1",
                       "elements_q": "p1", "gauge": "none"}),
}

_GOLDEN = {
    "ls2d_ned0": {
        "ranges": {"u": (0, 40), "p": (40, 65), "lm": (65, 66)},
        "spaces": {"u": ("ned0", 56, 40), "p": ("p1", 25, 25)},
        "K": ((66, 66), 543, 903.7687852984648, 160.49828506451),
        "M": ((66, 66), 108, 26.66666666666666, 0.13861386138613763),
        "blocks": {
            "A": ((40, 40), 172, 702.6962431629527, 134.62416618839254),
            "B": ((25, 40), 108, 26.66666666666666, 0.4125412541254134),
            "Bfull": ((26, 40), 108, 26.66666666666666, 0.4125412541254134),
            "C": ((25, 25), 105, 127.99999999999997, 2.9999999999999973),
            "Cfull": ((26, 26), 155, 147.73920880217872, 32.954900816342565),
            "D": ((40, 25), 108, 26.66666666666666, 0.47194719471947255),
            "mean_row": ((1, 25), 25, 9.869604401089356, 14.421674417763409),
        },
    },
    "ls2d_p1": {
        "ranges": {"u": (0, 30), "p": (30, 55), "lm": (55, 56)},
        "spaces": {"u": ("vector_p1", 50, 30), "p": ("p1", 25, 25)},
        "K": ((56, 56), 797, 359.8742956607048, 78.30679235067332),
        "M": ((56, 56), 183, 25.132741228718345, 0.13997194991241596),
        "blocks": {
            "A": ((30, 30), 276, 161.86960440108933, 50.093581140157546),
            "B": ((25, 30), 183, 25.132741228718345, 0.39788322799177633),
            "Bfull": ((26, 30), 183, 25.132741228718345, 0.39788322799177633),
            "C": ((25, 25), 105, 127.99999999999997, 2.9999999999999973),
            "Cfull": ((26, 26), 155, 147.73920880217872, 32.954900816342565),
            "D": ((30, 25), 183, 25.132741228718345, -0.12182743788673361),
            "mean_row": ((1, 25), 25, 9.869604401089356, 14.421674417763409),
        },
    },
    "ls2d_p2": {
        "ranges": {"u": (0, 70), "p": (70, 119), "lm": (119, 120)},
        "spaces": {"u": ("vector_p2", 98, 70), "p": ("p2", 49, 49)},
        "K": ((120, 120), 2889, 1107.8963463151717, 89.79073825472909),
        "M": ((120, 120), 660, 66.18288523562498, 0.9379848692896258),
        "blocks": {
            "A": ((70, 70), 1064, 571.7913670417431, 69.74749403066029),
            "B": ((49, 70), 650, 66.18288523562498, -4.779782882194372),
            "Bfull": ((50, 70), 650, 66.18288523562498, -4.779782882194372),
            "C": ((49, 49), 427, 384.0, 7.333333333333323),
            "Cfull": ((50, 50), 525, 403.7392088021788, 36.60194015093862),
            "D": ((70, 49), 660, 66.18288523562498, 0.9379848692896267),
            "mean_row": ((1, 49), 49, 9.869604401089356, 14.697639704005823),
        },
    },
    "ls2d_nogauge": {
        "ranges": {"u": (0, 40), "p": (40, 65)},
        "spaces": {"u": ("ned0", 56, 40), "p": ("p1", 25, 25)},
        "K": ((65, 65), 493, 884.029576496286, 130.5647602477985),
        "M": ((65, 65), 108, 26.66666666666666, 0.13861386138613763),
        "blocks": {
            "A": ((40, 40), 172, 702.6962431629527, 134.62416618839254),
            "B": ((25, 40), 108, 26.66666666666666, 0.4125412541254134),
            "Bfull": ((25, 40), 108, 26.66666666666666, 0.4125412541254134),
            "C": ((25, 25), 105, 127.99999999999997, 2.9999999999999973),
            "Cfull": ((25, 25), 105, 127.99999999999997, 2.9999999999999973),
            "D": ((40, 25), 108, 26.66666666666666, 0.47194719471947255),
        },
    },
    "ls2d_jump": {
        "ranges": {"u": (0, 30), "p": (30, 55), "lm": (55, 56)},
        "spaces": {"u": ("vector_p1", 50, 30), "p": ("p1", 25, 25)},
        "K": ((56, 56), 797, 379.9079962108409, 87.30179148917072),
        "M": ((56, 56), 183, 25.132741228718345, 0.13997194991241596),
        "blocks": {
            "A": ((30, 30), 276, 203.57070605149787, 62.56551583251656),
            "B": ((25, 30), 183, 25.132741228718345, 0.39788322799177633),
            "Bfull": ((26, 30), 183, 25.132741228718345, 0.39788322799177633),
            "C": ((25, 25), 105, 108.8, 2.999999999999999),
            "Cfull": ((26, 26), 155, 126.07180770190637, 29.185599548063493),
            "D": ((30, 25), 183, 25.132741228718345, -0.12182743788673361),
            "mean_row": ((1, 25), 25, 8.635903850953186, 12.54364016446206),
        },
    },
    "ls2d_slit_mult": {
        "ranges": {"u": (0, 42), "p": (42, 64)},
        "spaces": {"u": ("ned0", 58, 42), "p": ("p1", 27, 22)},
        "K": ((64, 64), 436, 1857.333333333333, 385.49339933993394),
        "M": ((64, 64), 89, 21.999999999999996, 0.8976897689768975),
        "blocks": {
            "A": ((42, 42), 174, 1711.333333333333, 377.6600660066006),
            "B": ((22, 42), 89, 21.999999999999993, -1.0957095709570948),
            "Bfull": ((22, 42), 89, 21.999999999999993, -1.0957095709570948),
            "C": ((22, 22), 84, 101.99999999999997, 13.86633663366336),
            "Cfull": ((22, 22), 84, 101.99999999999997, 13.86633663366336),
            "D": ((42, 22), 89, 21.999999999999996, 0.9603960396039607),
        },
    },
    "ls2d_slit_none": {
        "ranges": {"u": (0, 33), "p": (33, 55)},
        "spaces": {"u": ("vector_p1", 54, 33), "p": ("p1", 27, 22)},
        "K": ((55, 55), 671, 284.0, 45.86169554455446),
        "M": ((55, 55), 150, 12.999999999999996, 0.6443894389438947),
        "blocks": {
            "A": ((33, 33), 287, 156.0, 38.24618399339935),
            "B": ((22, 33), 150, 12.999999999999996, -0.9207920792079207),
            "Bfull": ((22, 33), 150, 12.999999999999996, -0.9207920792079207),
            "C": ((22, 22), 84, 101.99999999999997, 13.86633663366336),
            "Cfull": ((22, 22), 84, 101.99999999999997, 13.86633663366336),
            "D": ((33, 22), 150, 12.999999999999996, 0.35396039603960416),
        },
    },
    "ls2d_lshape_crisscross": {
        "ranges": {"u": (0, 64), "p": (64, 97), "lm": (97, 98)},
        "spaces": {"u": ("ned0", 80, 64), "p": ("p1", 33, 33)},
        "K": ((98, 98), 739, 5936.666666666664, 847.3795379537951),
        "M": ((98, 98), 128, 42.66666666666664, 0.19141914191419218),
        "blocks": {
            "A": ((64, 64), 288, 5653.333333333332, 847.4141914191417),
            "B": ((33, 64), 128, 42.666666666666664, -0.46204620462046075),
            "Bfull": ((34, 64), 128, 42.666666666666664, -0.46204620462046075),
            "C": ((33, 33), 129, 192.0, 2.0),
            "Cfull": ((34, 34), 195, 198.0, 10.870874587458747),
            "D": ((64, 33), 128, 42.66666666666664, -0.475247524752476),
            "mean_row": ((1, 33), 33, 3.0000000000000004, 4.442244224422442),
        },
    },
    "threefield_cube": {
        "ranges": {"u": (0, 316), "p": (316, 920), "w": (920, 1045), "lm": (1045, 1046)},
        "spaces": {"u": ("ned0", 604, 316), "p": ("ned0", 604, 604), "w": ("p1", 125, 125)},
        "K": ((1046, 1046), 29037, 20574.462153124354, 1687.4136468452107),
        "M": ((1046, 1046), 4754, 268.0, -1.0676567656765723),
        "blocks": {
            "A": ((316, 316), 3916, 7276.736581664316, 569.6788242747757),
            "B": ((604, 316), 4835, 268.00000000000006, 5.151815181518175),
            "Bfull": ((730, 316), 4835, 268.00000000000006, 5.151815181518175),
            "C": ((604, 604), 7727, 11839.51581056225, 1034.9278696078568),
            "Cfull": ((730, 730), 15451, 12761.725571460036, 1130.5609302104344),
            "D": ((316, 604), 4754, 268.0, -1.567656765676574),
            "G": ((604, 125), 3737, 430.0986037685938, -0.43688429973057596),
            # +1 and -1 at the two ends of each of the 604 edges
            "Gd": ((604, 125), 1208, 1208.0, 2.7920792079208017),
            "mean_row": ((1, 125), 125, 31.00627668029981, 46.50737302547694),
        },
    },
    "twofield_cube": {
        "ranges": {"u": (0, 135), "p": (135, 510)},
        "spaces": {"u": ("vector_p1", 375, 135), "p": ("vector_p1", 375, 375)},
        "K": ((510, 510), 21724, 4066.159741846991, 229.2190059437867),
        "M": ((510, 510), 3608, 200.66422114135727, -0.7855785925211407),
        "blocks": {
            "A": ((135, 135), 3213, 1109.014187109168, 238.84217129462758),
            "B": ((375, 135), 3608, 200.66422114135725, -0.4752654713720921),
            "Bfull": ((375, 135), 3608, 200.66422114135725, -0.4752654713720921),
            "C": ((375, 375), 11295, 2555.817112455108, 3.303862644419924),
            "Cfull": ((375, 375), 11295, 2555.817112455108, 3.303862644419924),
            "D": ((135, 375), 3608, 200.66422114135727, -0.7870104724700161),
        },
    },
}


def _fingerprint(mat):
    coo = sparse.coo_matrix(mat)
    w = 1.0 + ((7 * coo.row + 13 * coo.col) % 101) / 101.0
    return (coo.shape, coo.nnz, float(np.abs(coo.data).sum()),
            float((coo.data * w).sum()))


def _same_fingerprint(got, want):
    (shape, nnz, abs_sum, pos_sum), (w_shape, w_nnz, w_abs, w_pos) = got, want
    tol = 1e-13 * max(w_abs, 1e-300)
    return (shape == w_shape and nnz == w_nnz and abs(abs_sum - w_abs) <= tol
            and abs(pos_sum - w_pos) <= 2 * tol)


class TestGoldenPencils:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_pencil_matches_frozen(self, name):
        builder, make_mesh, kw = GOLDEN_CONFIGS[name]
        pen = builder(make_mesh(), FormulationSpec(**kw))
        want = _GOLDEN[name]
        assert {k: (s.start, s.stop) for k, s in pen.ranges.items()} == want["ranges"]
        assert {k: (sp.family, sp.num_dofs, len(free))
                for k, (sp, free) in pen.spaces.items()} == want["spaces"]
        assert _same_fingerprint(_fingerprint(pen.K), want["K"])
        assert _same_fingerprint(_fingerprint(pen.M), want["M"])
        nU = pen.ranges["u"].stop
        got = dict(pen.blocks, Bfull=pen.K[nU:, :nU], Cfull=pen.K[nU:, nU:])
        assert sorted(got) == sorted(want["blocks"])
        for k, fp in want["blocks"].items():
            assert _same_fingerprint(_fingerprint(got[k]), fp), k


def _pencil_built_by_scipy(pen, coeff):
    """K, M and the blocks of a least-squares pencil formed the plain scipy
    way, on the pencil's own spaces: each form assembled, its constraints
    eliminated by row then column fancy indexing, and K joined by
    ``sparse.bmat`` from the lower blocks and their transposes."""
    (V, vf), (Q, qf) = pen.spaces["u"], pen.spaces["p"]

    def reduced(mat, test, trial):
        return mat.tocsr()[test.free_dofs()][:, trial.free_dofs()]

    A = reduced(assemble("eps_mass", V, V, coeff) + assemble("mu_inv_rot_rot", V, V, coeff),
                V, V)
    B = reduced(assemble("curl_to_vector", Q, V, coeff), Q, V)
    C = reduced(assemble("eps_inv_curl_curl", Q, Q, coeff), Q, Q)
    D = reduced(assemble("rot_pairing", V, Q, coeff), V, Q)
    blocks = {"A": A, "B": B, "C": C, "D": D}
    lower = {("u", "u"): A, ("p", "u"): B, ("p", "p"): C}
    if "w" in pen.ranges:
        W, wf = pen.spaces["w"]
        G = reduced(assemble("grad_pairing_3d", Q, W, coeff), Q, W)
        m = assemble("mu_mean_row", None, W, coeff)[:, wf]
        blocks.update(G=G, Gd=discrete_gradient(Q, W)[qf][:, wf].tocsr(), mean_row=m)
        lower[("w", "p")], lower[("lm", "w")] = G.T, m
    elif "lm" in pen.ranges:
        m = assemble("mu_mean_row", None, Q, coeff)[:, qf]
        blocks["mean_row"] = m
        lower[("lm", "p")] = m
    grid = lower | {(c, r): S.T for (r, c), S in lower.items() if r != c}
    K = sparse.bmat([[grid.get((r, c)) for c in pen.ranges] for r in pen.ranges],
                    format="csr")
    D = D.tocoo()
    M = sparse.csr_matrix((D.data, (D.row, D.col + len(vf))), shape=K.shape)
    return K, M, blocks


BITWISE_CONFIGS = {
    **{f"ls2d_{ev}_{gauge}": (
        lambda ev=ev: build_structured_square(3 if ev == "p2" else 4),
        {"elements_v": ev, "elements_q": "p2" if ev == "p2" else "p1", "gauge": gauge})
       for ev in ("ned0", "p1", "p2") for gauge in ("multiplier", "none")},
    **{name: GOLDEN_CONFIGS[name][1:] for name in (
        "ls2d_jump", "ls2d_slit_mult", "ls2d_slit_none", "threefield_cube",
        "twofield_cube")},
}


class TestBlockBuild:
    @pytest.mark.parametrize("name", sorted(BITWISE_CONFIGS))
    def test_same_pencil_as_scipy_glue(self, name):
        # the one-pass elimination and block join store bitwise the same
        # entries, in the same order, as fancy indexing and sparse.bmat
        make_mesh, kw = BITWISE_CONFIGS[name]
        spec = FormulationSpec(**kw)
        pen = build_pencil(make_mesh(), spec)
        K, M, blocks = _pencil_built_by_scipy(pen, spec.coeff)
        assert sorted(pen.blocks) == sorted(blocks)
        for label, got, want in [("K", pen.K, K), ("M", pen.M, M)] + [
                (k, pen.blocks[k], blocks[k]) for k in blocks]:
            assert got.format == "csr" and got.shape == want.shape, label
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (label, part)

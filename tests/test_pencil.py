import numpy as np
import pytest
import scipy.sparse as sparse

from lsmaxwell.formulations import (FormulationSpec, ls_maxwell_2d,
                                    ls_maxwell_3d_threefield)
from lsmaxwell.mesh import build_structured_cube, build_structured_square
from lsmaxwell.pencil import (BlockPencil, PencilError, SingularBlockError,
                              SingularMatrixError, coercivity_check, dense_qz,
                              factorize, filter_spectrum,
                              schur_reduce, shift_invert_eigs, spectrum_csv,
                              validate_pencil)


def toy_pencil(K, M):
    n = K.shape[0]
    return BlockPencil(sparse.csr_matrix(K), sparse.csr_matrix(M),
                       {"u": slice(0, 0), "p": slice(0, n)})


class TestFactorize:
    def test_identity(self):
        F = factorize(sparse.identity(5, format="csc"))
        b = np.arange(5.0)
        assert np.allclose(F.solve(b), b)

    def test_permutation(self):
        K = sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        F = factorize(K)
        assert np.allclose(F.solve(np.array([1.0, 2.0])), [2.0, 1.0])

    def test_spd_recovery(self):
        rng = np.random.default_rng(11)
        A = sparse.random(200, 200, density=0.03, random_state=11)
        K = (A @ A.T + 10 * sparse.identity(200)).tocsc()
        x = rng.standard_normal(200)
        b = K @ x
        assert np.linalg.norm(factorize(K).solve(b) - x) < 1e-10 * np.linalg.norm(x)

    def test_singular_raises(self):
        K = sparse.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            factorize(K)

    def test_rank_deficient_large(self):
        n = 50
        d = np.ones(n)
        d[-3:] = 0.0
        K = sparse.diags(d).tocsc()
        with pytest.raises(SingularMatrixError):
            factorize(K)

    def test_nonsquare_rejected(self):
        with pytest.raises(PencilError):
            factorize(sparse.csr_matrix(np.ones((2, 3))))


class TestShiftInvert:
    def test_diagonal_toy(self):
        pen = toy_pencil(np.diag([2.0, 3.0]), np.diag([1.0, 0.0]))
        sol = shift_invert_eigs(pen, sigma=0.0, nev=1)
        assert np.allclose(sol.eigenvalues, [2.0])
        assert sol.num_discarded >= 1
        assert any(r == "infinite" for r, _ in sol.discarded)

    def test_residual_contract(self):
        m = build_structured_square(6)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d"))
        sol = shift_invert_eigs(pen, nev=8, tol=1e-8)
        assert (sol.residuals <= 1e-8).all()
        assert (np.diff(sol.eigenvalues) >= 0).all()

    def test_determinism(self):
        m = build_structured_square(6)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d"))
        a = shift_invert_eigs(pen, nev=6, seed=3).eigenvalues
        b = shift_invert_eigs(pen, nev=6, seed=3).eigenvalues
        assert np.abs(a - b).max() < 1e-13

    def test_too_many_requested(self):
        pen = toy_pencil(np.diag([2.0, 3.0]), np.diag([1.0, 0.0]))
        with pytest.raises(PencilError):
            shift_invert_eigs(pen, nev=2)

    def test_conjugate_pair_gives_real_vectors(self):
        # at seed 0 Arnoldi returns the double eigenvalues of this cube as
        # conjugate pairs with complex vectors
        pen = ls_maxwell_3d_threefield(build_structured_cube(4), FormulationSpec(
            kind="ls3d_threefield", elements_q="ned0"))
        sol = shift_invert_eigs(pen, nev=5, seed=0)
        assert all(v.dtype == np.float64 for v in sol.vectors.values())
        assert np.allclose(sol.eigenvalues[:5],
                           [2.5036, 2.5443, 2.5443, 4.0752, 4.0752], atol=5e-5)
        Z = np.vstack([sol.vectors[k] for k in pen.ranges])
        R = pen.K @ Z - (pen.M @ Z) * sol.eigenvalues
        res = np.linalg.norm(R, axis=0) / ((np.abs(sol.eigenvalues) + 1)
                                           * np.linalg.norm(Z, axis=0))
        assert res.max() <= 1e-8


class TestDenseQZ:
    def test_identity_pair(self):
        spec = dense_qz(np.eye(2), np.eye(2))
        assert np.allclose(spec.finite, [1.0, 1.0])
        assert spec.num_infinite == 0

    def test_diagonal_toy(self):
        spec = dense_qz(np.diag([2.0, 3.0]), np.diag([1.0, 0.0]))
        assert np.allclose(spec.finite, [2.0])
        assert spec.num_infinite == 1

    def test_nodal_pencil_infinite_count(self):
        # oracle-derived structure on the n=2 square: every u-direction is
        # an infinite mode, plus the rank-deficient p-directions and the
        # multiplier row
        m = build_structured_square(2)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1"))
        spec = dense_qz(pen.K, pen.M)
        dim_u = pen.ranges["u"].stop
        assert spec.num_infinite >= dim_u
        assert spec.num_infinite == 11
        assert spec.num_degenerate == 0

    def test_size_limit(self):
        with pytest.raises(PencilError):
            dense_qz(sparse.identity(2100, format="csr"),
                     sparse.identity(2100, format="csr"))


class TestFilter:
    def test_empty(self):
        pen = toy_pencil(np.eye(2), np.eye(2))
        sol = filter_spectrum(pen, np.zeros(0), np.zeros((2, 0)))
        assert len(sol.eigenvalues) == 0
        assert sol.num_discarded == 0

    def test_p_zero_reason(self):
        K = np.diag([2.0, 1.0])
        M = np.diag([1.0, 1.0])
        n = 2
        pen = BlockPencil(sparse.csr_matrix(K), sparse.csr_matrix(M),
                          {"u": slice(0, 1), "p": slice(1, 2)})
        # vector supported only on the u block
        sol = filter_spectrum(pen, np.array([2.0]), np.array([[1.0], [0.0]]))
        assert len(sol.eigenvalues) == 0
        assert sol.discarded[0][0] == "p_zero"

    def test_degenerate_mode_never_reported(self):
        # dropping the mean constraint introduces the 0 = lambda*0 direction
        m = build_structured_square(2)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1",
                                               gauge="none"))
        spec = dense_qz(pen.K, pen.M)
        assert spec.num_degenerate == 1
        gauged = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1"))
        ref = dense_qz(gauged.K, gauged.M)
        k = min(len(spec.finite), len(ref.finite))
        assert np.abs(spec.finite[:k] - ref.finite[:k]).max() < 1e-8
        sol = shift_invert_eigs(pen, nev=4)
        # the constant-p direction must not appear among kept pairs
        p = sol.vectors["p"]
        for j in range(p.shape[1]):
            q = p[:, j] / np.linalg.norm(p[:, j])
            assert np.abs(q - q.mean()).max() > 1e-3

    def test_residual_reason(self):
        pen = toy_pencil(np.diag([2.0, 3.0]), np.eye(2))
        sol = filter_spectrum(pen, np.array([2.5]), np.array([[1.0], [1.0]]))
        assert sol.discarded[0][0] == "residual"


    def test_conjugate_pair_of_double_eigenvalue_kept_twice(self):
        # Arnoldi may return a double real eigenvalue as a conjugate pair
        # a +- ib whose real and imaginary parts are the two eigenvectors
        pen = toy_pencil(np.diag([2.0, 2.0, 5.0]), np.eye(3))
        z = np.array([1.0, 2.0j, 0.0])
        sol = filter_spectrum(pen, np.array([2.0 + 1e-16j, 2.0 - 1e-16j]),
                              np.column_stack([z, z.conj()]))
        assert list(sol.eigenvalues) == [2.0, 2.0]
        assert sol.num_discarded == 0

    def test_lone_complex_vector_split(self):
        pen = toy_pencil(np.diag([2.0, 2.0, 5.0]), np.eye(3))
        z = np.array([1.0, 2.0j, 0.0])
        sol = filter_spectrum(pen, np.array([2.0 + 1e-16j]), z[:, None])
        assert list(sol.eigenvalues) == [2.0, 2.0]
        assert sol.vectors["p"].dtype == np.float64
        assert np.allclose(sol.vectors["p"], [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])

    def test_parallel_copy_discarded(self):
        pen = toy_pencil(np.diag([2.0, 2.0, 5.0]), np.eye(3))
        z = np.array([1.0, 2.0, 0.0])
        sol = filter_spectrum(pen, np.array([2.0, 2.0]), np.column_stack([z, -3.0 * z]))
        assert list(sol.eigenvalues) == [2.0]
        assert sol.discarded == [("duplicate", 2.0)]


class TestSchur:
    def test_matches_dense_qz(self):
        m = build_structured_square(2)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1"))
        vals, R = schur_reduce(pen)
        asym = np.abs(R - R.T).max()
        assert asym <= 1e-12 * max(np.abs(R).max(), 1.0)
        spec = dense_qz(pen.K, pen.M)
        k = min(len(vals), len(spec.finite))
        assert np.abs(np.sort(vals)[:k] - spec.finite[:k]).max() < 1e-9
        assert (vals >= -1.0 + 1e-6).all()

    def test_singular_c_rejected(self):
        m = build_structured_square(2)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v="p1",
                                               gauge="none"))
        with pytest.raises(SingularBlockError):
            schur_reduce(pen)


class TestStructure:
    def test_validate_rejects_broken_identity(self):
        m = build_structured_square(2)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d"))
        bad = BlockPencil(pen.K, pen.M, pen.ranges,
                          blocks={"B": pen.blocks["B"], "D": -pen.blocks["D"]})
        with pytest.raises(PencilError):
            validate_pencil(bad)

    @pytest.mark.parametrize("name", ["A", "C"])
    def test_validate_rejects_asymmetric_diagonal_block(self, name):
        # K is formed from the blocks, so an asymmetric A or C is only
        # seen on the block itself
        pen = ls_maxwell_2d(build_structured_square(2), FormulationSpec(kind="ls2d"))
        S = pen.blocks[name].tolil()
        S[0, 1] += 1e-10 * np.abs(pen.K.data).max()
        bad = BlockPencil(pen.K, pen.M, pen.ranges,
                          blocks=dict(pen.blocks, **{name: S.tocsr()}))
        with pytest.raises(PencilError, match=f"{name} is not symmetric"):
            validate_pencil(bad)

    def test_validate_rejects_d_off_the_ranges(self):
        # D = -B^T still holds, but D no longer spans the (u, p) block
        pen = ls_maxwell_2d(build_structured_square(2), FormulationSpec(kind="ls2d"))
        B, D = pen.blocks["B"], pen.blocks["D"]
        bad = BlockPencil(pen.K, pen.M, pen.ranges,
                          blocks=dict(pen.blocks, B=B[:-1], D=D[:, :-1]))
        with pytest.raises(PencilError, match="D does not match"):
            validate_pencil(bad)

    def test_coercivity_2d_configs(self):
        m = build_structured_square(4)
        for ev in ("ned0", "p1"):
            pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d", elements_v=ev))
            assert coercivity_check(pen)

    def test_coercivity_rejects_multiplier_mean_row(self):
        # the three-field mean row borders the multiplier w, not p
        pen = ls_maxwell_3d_threefield(build_structured_cube(2), FormulationSpec(
            kind="ls3d_threefield", elements_q="ned0"))
        with pytest.raises(PencilError, match="mean row"):
            coercivity_check(pen)

    def test_orthogonality(self):
        m = build_structured_square(8)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d"))
        sol = shift_invert_eigs(pen, nev=8)
        C = pen.blocks["C"].toarray()
        A = pen.blocks["A"].toarray()
        p, u = sol.vectors["p"], sol.vectors["u"]
        lam = sol.eigenvalues
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                if abs(lam[i] - lam[j]) < 1e-6:
                    continue
                cij = abs(p[:, i] @ C @ p[:, j])
                ci = np.sqrt(p[:, i] @ C @ p[:, i])
                cj = np.sqrt(p[:, j] @ C @ p[:, j])
                assert cij <= 1e-8 * ci * cj
                aij = abs(u[:, i] @ A @ u[:, j])
                ai = np.sqrt(u[:, i] @ A @ u[:, i])
                aj = np.sqrt(u[:, j] @ A @ u[:, j])
                assert aij <= 1e-8 * ai * aj


class TestExports:
    def test_spectrum_csv(self):
        m = build_structured_square(4)
        pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d"))
        sol = shift_invert_eigs(pen, nev=4)
        csv = spectrum_csv(sol)
        assert csv.splitlines()[0] == "index,lambda,residual"
        assert len(csv.strip().splitlines()) == len(sol.eigenvalues) + 1

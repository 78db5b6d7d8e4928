"""The production block-pencil solver: the sparse/dense Schur-reduced
symmetric route (`schur_eigs`, reached through `bench.solve_spectrum`)
against the dense QZ and Schur oracles."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import splu

from lsmaxwell import pencil as pencilmod
from lsmaxwell.assembly import CoefficientField
from lsmaxwell.bench import solve_spectrum
from lsmaxwell.cli import main
from lsmaxwell.formulations import FormulationSpec, build_pencil, curlcurl_edge
from lsmaxwell.mesh import (build_slit, build_structured_cube,
                            build_structured_square, perturb_interior,
                            tag_subdomain)
from lsmaxwell.pencil import (PencilError, dense_qz, schur_eigs, schur_reduce,
                              solve_symmetric)

QUARTER = ((0.0, 0.0), (math.pi / 2, math.pi / 2))
EPS_JUMP = CoefficientField(eps={0: 100.0, 1: 1.0}, mu={0: 1.0, 1: 1.0})
META_KEYS = ("path", "rho", "refinement_steps", "size_A", "size_C",
             "lu_nnz_A", "lu_nnz_C", "op_applies", "lanczos_k", "lanczos_ncv")


def _cases():
    sq = build_structured_square(4)
    cube = build_structured_cube(2)
    return {
        # the four pencils of acceptance criterion c10
        "ls2d-edge": (sq, FormulationSpec(kind="ls2d"), 10),
        "ls2d-nodal": (sq, FormulationSpec(kind="ls2d", elements_v="p1"), 10),
        "ls3d-threefield": (cube, FormulationSpec(kind="ls3d_threefield",
                                                  elements_q="ned0"), 10),
        # the multiplier's mean row is mu-weighted with the pencil's own
        # coefficients, so tagged cells need no entry in the unit field
        "ls3d-threefield-tagged": (
            tag_subdomain(cube, ((0, 0, 0), (2, 2, 3.2)), 1),
            FormulationSpec(kind="ls3d_threefield", elements_q="ned0",
                            coeff=CoefficientField(eps={0: 1.0, 1: 2.0},
                                                   mu={0: 1.0, 1: 3.0})), 10),
        # at most dim(u) = 9 finite modes at n = 2
        "ls3d-twofield": (cube, FormulationSpec(
            kind="ls3d_twofield_nodal", elements_v="p1", elements_q="p1",
            gauge="none"), 8),
        "gauge-none-square": (sq, FormulationSpec(kind="ls2d", gauge="none"), 10),
        "mixed-slit": (build_slit(2), FormulationSpec(
            kind="ls2d", elements_v="p1", bc="mixed_slit", gauge="none"), 10),
        "eps-jump-square": (tag_subdomain(build_structured_square(4), QUARTER, 1),
                            FormulationSpec(kind="ls2d", elements_v="p1",
                                            coeff=EPS_JUMP), 10),
        "side-1e-3-square": (build_structured_square(4, 1e-3),
                             FormulationSpec(kind="ls2d"), 10),
        "side-1e3-square": (build_structured_square(4, 1e3),
                            FormulationSpec(kind="ls2d", elements_v="p1"), 10),
    }


CASES = _cases()


def _residuals(pen, sol, lam):
    Z = np.vstack([sol.vectors[name] for name in pen.ranges])[:, :len(lam)]
    R = pen.K @ Z - (pen.M @ Z) * lam
    return np.linalg.norm(R, axis=0) / ((np.abs(lam) + 1.0)
                                        * np.linalg.norm(Z, axis=0))


def _bordered(pen):
    """The blocks Bfull and Cfull (CSC) of K below and right of the u range."""
    nU = pen.ranges["u"].stop
    return pen.K[nU:, :nU], pen.K[nU:, nU:].tocsc()


def _agree(lam, ref):
    k = len(lam)
    assert len(ref) >= k
    return np.abs(lam - ref[:k]).max() <= 1e-9 * (1 + np.abs(ref[:k])).max()


@pytest.fixture(params=["dense", "sparse"])
def path(request, monkeypatch):
    limit = 10**9 if request.param == "dense" else 0
    monkeypatch.setattr(pencilmod, "_DENSE_SCHUR_LIMIT", limit)
    return request.param


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_dense_qz(name, path):
    mesh, spec, nev = CASES[name]
    lam, sol = solve_spectrum(mesh, spec, nev)
    pen = build_pencil(mesh, spec)
    if pen.blocks["A"].shape[0] > sol.meta["lanczos_k"] + 1:
        assert sol.meta["path"] == path
    assert len(lam) == nev
    assert _agree(lam, dense_qz(pen.K, pen.M).finite), name
    assert _residuals(pen, sol, lam).max() <= 1e-8, name
    z = np.vstack([sol.vectors[k] for k in pen.ranges])[:, :nev]
    assert z.dtype == np.float64
    if "w" in pen.ranges:
        w = np.vstack([sol.vectors["w"], sol.vectors["lm"]])[:, :nev]
        ratio = np.linalg.norm(w, axis=0) / np.linalg.norm(z, axis=0)
        assert ratio.max() <= 1e-8


@pytest.mark.parametrize("name", sorted(CASES))
def test_sparse_path_matches_dense_path(name, monkeypatch):
    # Lanczos runs on the shifted C factor without refinement; the
    # Rayleigh-Ritz step with the exact R puts its eigenvalues back on the
    # dense path's
    mesh, spec, nev = CASES[name]
    pen = build_pencil(mesh, spec)
    lam = {}
    for path, limit in (("dense", 10**9), ("sparse", 0)):
        monkeypatch.setattr(pencilmod, "_DENSE_SCHUR_LIMIT", limit)
        lam[path] = schur_eigs(pen, nev=nev).eigenvalues
    assert np.abs(lam["sparse"] - lam["dense"]).max() \
        <= 1e-12 * np.abs(lam["dense"]).max()


def test_one_c_solve_per_lanczos_step(monkeypatch):
    # every application of R in the Lanczos makes one solve on the C
    # factor; recovering the potentials makes two (solve and refinement)
    pen = build_pencil(build_structured_square(8), FormulationSpec(kind="ls2d"))
    c_solves = []
    real_factorize = pencilmod.factorize

    def factorize(K, **kw):
        handle = real_factorize(K, **kw)
        if K.shape == pen.blocks["C"].shape:
            solve = handle.solve
            handle.solve = lambda b: c_solves.append(b.shape) or solve(b)
        return handle
    monkeypatch.setattr(pencilmod, "factorize", factorize)
    monkeypatch.setattr(pencilmod, "_DENSE_SCHUR_LIMIT", 0)
    sol = schur_eigs(pen, nev=6)
    assert sol.meta["path"] == "sparse"
    assert len(c_solves) == sol.meta["op_applies"] + 2


def test_lanczos_takes_exactly_nev_pairs(monkeypatch):
    # modes 6-8 of this cube form a cluster at lambda = 6.66-6.69; a guard
    # pair past nev would sit inside it and slow the Lanczos (58
    # applications with k = nev + 2)
    mesh = perturb_interior(build_structured_cube(5), 0.2, 1)
    pen = build_pencil(mesh, FormulationSpec(
        kind="ls3d_twofield_nodal", elements_v="p1", elements_q="p1",
        gauge="none"))
    monkeypatch.setattr(pencilmod, "_DENSE_SCHUR_LIMIT", 0)
    sol = schur_eigs(pen, nev=5)
    assert sol.meta["path"] == "sparse"
    assert sol.meta["lanczos_k"] == 5
    assert sol.meta["op_applies"] <= 45


def test_lanczos_non_convergence_is_a_pencil_error(monkeypatch):
    # both Lanczos solvers go through one helper, which turns ARPACK's
    # failure into a PencilError
    calls = []

    def eigsh(op, k, **kw):
        calls.append((k, kw["ncv"]))
        raise spla.ArpackNoConvergence("no convergence", np.ones(1),
                                       np.ones((op.shape[0], 1)))
    monkeypatch.setattr(spla, "eigsh", eigsh)
    monkeypatch.setattr(pencilmod, "_DENSE_SCHUR_LIMIT", 0)
    pen = build_pencil(build_structured_square(8), FormulationSpec(kind="ls2d"))
    with pytest.raises(PencilError, match="1 of 5 Ritz pairs converged"):
        schur_eigs(pen, nev=5)
    sym = curlcurl_edge(build_structured_square(8))
    assert sym.size > pencilmod._DENSE_SOLVE_LIMIT
    with pytest.raises(PencilError, match="1 of 5 Ritz pairs converged"):
        solve_symmetric(sym, nev=5)
    assert calls == [(5, 20), (5, 20)]


@pytest.mark.parametrize("elements", ["ned0", "p1"])
def test_small_square_beyond_the_absolute_cutoff(elements, tmp_path):
    # every eigenvalue of the side-1e-3 square is about 1e7, past the
    # absolute FINITE_CUTOFF = 1e6 of the Arnoldi filter
    mesh = build_structured_square(8, 1e-3)
    spec = FormulationSpec(kind="ls2d", elements_v=elements)
    lam, sol = solve_spectrum(mesh, spec, 10)
    assert lam.min() > pencilmod.FINITE_CUTOFF
    pen = build_pencil(mesh, spec)
    assert _agree(lam, dense_qz(pen.K, pen.M).finite)
    assert _residuals(pen, sol, lam).max() <= 1e-8

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(f"domain = square\nn = 8\nside = 0.001\n"
                   f"elements_v = {elements}\n")
    out = str(tmp_path / "spec.csv")
    assert main(["solve", "--config", str(cfg), "--nev", "10", "--out", out]) == 0
    rows = open(out).read().strip().splitlines()[1:]
    assert len(rows) >= 10
    assert np.allclose([float(r.split(",")[1]) for r in rows[:10]], lam,
                       rtol=1e-12)


@pytest.mark.parametrize("elements", ["ned0", "p1"])
def test_tiny_square_sparse_path_matches_dense_path(elements, monkeypatch):
    # the SPD block A of the side-1e-5 square has a condition number near
    # 1e12 from units alone, which no relative test may reject; the sparse
    # path factors it
    mesh = build_structured_square(16, 1e-5)
    spec = FormulationSpec(kind="ls2d", elements_v=elements)
    lam, sol = solve_spectrum(mesh, spec, 5)
    assert sol.meta["path"] == "sparse"
    assert _residuals(build_pencil(mesh, spec), sol, lam).max() <= 1e-8
    monkeypatch.setattr(pencilmod, "_DENSE_SCHUR_LIMIT", 10**9)
    dense, dsol = solve_spectrum(mesh, spec, 5)
    assert dsol.meta["path"] == "dense"
    assert np.abs(lam - dense).max() <= 1e-12 * np.abs(dense).max()


def test_small_eps_matches_schur_reduce():
    # eps = 1e-6 moves every eigenvalue past 1e6.  Compared with the dense
    # Schur route: dense QZ drifts by about 5e-8 from both Schur routes here
    mesh = build_structured_square(8)
    spec = FormulationSpec(kind="ls2d", coeff=CoefficientField(eps={0: 1e-6}))
    lam, _ = solve_spectrum(mesh, spec, 10)
    vals, _ = schur_reduce(build_pencil(mesh, spec))
    assert lam.min() > pencilmod.FINITE_CUTOFF
    assert _agree(lam, np.sort(vals))


def test_meta_reports_the_solve(path):
    mesh = build_structured_square(8)
    pen = build_pencil(mesh, FormulationSpec(kind="ls2d"))
    sol = schur_eigs(pen, nev=6)
    for key in META_KEYS:
        assert key in sol.meta, key
    meta = sol.meta
    assert meta["path"] == path
    # the plain C block is factored; the mean row is not
    C = pen.blocks["C"]
    assert meta["rho"] == pytest.approx(1e-12 * np.abs(C.data).max(), rel=1e-15)
    assert meta["refinement_steps"] == 1
    assert (meta["size_A"], meta["size_C"]) == (pen.blocks["A"].shape[0], C.shape[0])
    assert meta["size_A"] + meta["size_C"] + 1 == pen.size
    assert meta["lu_nnz_A"] > 0 and meta["lu_nnz_C"] > 0
    assert meta["op_applies"] > 0
    assert meta["lanczos_k"] >= 6
    if path == "sparse":
        assert meta["lanczos_k"] < meta["lanczos_ncv"] <= meta["size_A"]


GAUGED = ("ls2d-edge", "ls3d-threefield", "ls3d-threefield-tagged")


@pytest.mark.parametrize("name", GAUGED)
def test_gauge_rows_leave_r_unchanged(name):
    # B^T annihilates ker(C) (gradients; constants in 2D), so bordering C
    # with the gauge rows changes neither R nor the spectrum
    mesh, spec, _ = CASES[name]
    pen = build_pencil(mesh, spec)
    B, C = pen.blocks["B"], pen.blocks["C"].tocsc()
    Bfull, Cfull = _bordered(pen)
    csolve, _, _ = pencilmod._refined_solver(C)
    full_lu = splu(Cfull)
    V = np.random.default_rng(1).standard_normal((B.shape[1], 3))
    R_plain = B.T @ csolve(B @ V)
    R_full = Bfull.T @ full_lu.solve(Bfull @ V)
    assert np.abs(R_plain - R_full).max() <= 1e-12 * np.abs(R_full).max()


@pytest.mark.parametrize("name", GAUGED)
def test_recovered_potentials_satisfy_the_gauge(name, path):
    mesh, spec, nev = CASES[name]
    pen = build_pencil(mesh, spec)
    sol = schur_eigs(pen, nev=nev)
    P = sol.vectors["p"]
    assert not sol.vectors["lm"].any()
    if "w" in pen.ranges:
        assert not sol.vectors["w"].any()
        GtP = pen.blocks["G"].T @ P
        assert (np.linalg.norm(GtP, axis=0)
                <= 1e-12 * np.linalg.norm(P, axis=0)).all()
    else:
        m = pen.blocks["mean_row"].toarray().ravel()
        assert (np.abs(m @ P)
                <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(P, axis=0)).all()


@pytest.mark.parametrize("mesh,spec", [
    (build_structured_cube(3), FormulationSpec(kind="ls3d_threefield",
                                               elements_q="ned0")),
    (build_structured_square(8), FormulationSpec(kind="ls2d"))])
def test_no_bordered_factor(mesh, spec, path):
    pen = build_pencil(mesh, spec)
    sol = schur_eigs(pen, nev=5)
    assert sol.meta["size_C"] == pen.blocks["C"].shape[0]
    _, bordered, _ = pencilmod._refined_solver(_bordered(pen)[1])
    assert sol.meta["lu_nnz_C"] < pencilmod._lu_nnz(bordered)


@pytest.mark.parametrize("const,value,reason", [
    ("RESIDUAL_TOL", 1e-30, ""), ("MU_INFINITE", 0.5, "infinite, ")])
def test_gate_names_every_rejected_pair(const, value, reason, path, monkeypatch):
    # the gate's error lists each rejected pair with its lambda, its reason
    # and its residual, not the residuals of the pairs it kept
    pen = build_pencil(build_structured_square(8), FormulationSpec(kind="ls2d"))
    sol = schur_eigs(pen, nev=6)
    assert sol.meta["path"] == path and sol.discarded == []
    mu = 1.0 / (1.0 + sol.eigenvalues)
    out = mu <= value * mu.max() if const == "MU_INFINITE" else np.ones(6, bool)
    assert out.any()
    monkeypatch.setattr(pencilmod, const, value)
    with pytest.raises(PencilError) as info:
        schur_eigs(pen, nev=6)
    msg = str(info.value)
    assert msg.startswith(f"{6 - out.sum()} of 6 Schur pairs passed")
    named = re.findall(r"lambda = (\S+): (infinite, )?residual (\S+?)(?:;|$)", msg)
    assert len(named) == out.sum()
    assert all(r == reason for _, r, _ in named)
    assert np.allclose([float(lam) for lam, _, _ in named],
                       sol.eigenvalues[out], rtol=1e-5)
    assert np.allclose([float(res) for _, _, res in named],
                       sol.residuals[out], rtol=1e-2)


def test_gauge_factors_no_bordered_matrix(monkeypatch):
    # the edge potential is gauged through the singular P1 Laplacian
    # G^T Gd itself, whose kernel (the constants) Gd annihilates; no
    # indefinite matrix bordered by the mean row is factored
    mesh, spec, _ = CASES["ls3d-threefield"]
    pen = build_pencil(mesh, spec)
    n_w = pen.blocks["G"].shape[1]
    factored = []
    real_factorize = pencilmod.factorize

    def factorize(K):
        factored.append((K.shape, K.diagonal().min()))
        return real_factorize(K)
    monkeypatch.setattr(pencilmod, "factorize", factorize)
    P = np.random.default_rng(0).standard_normal((pen.blocks["C"].shape[0], 3))
    Z = pencilmod._fix_gauge(pen, P)
    assert factored and all(shape == (n_w, n_w) and dmin > 0
                            for shape, dmin in factored)
    q = Z[:P.shape[0]]
    assert (np.linalg.norm(pen.blocks["G"].T @ q, axis=0)
            <= 1e-12 * np.linalg.norm(q, axis=0)).all()


def test_missing_blocks_rejected():
    pen = build_pencil(build_structured_square(2), FormulationSpec(kind="ls2d"))
    pen.blocks = {}
    with pytest.raises(pencilmod.PencilError):
        schur_eigs(pen, nev=1)


@pytest.mark.parametrize("gauge", ["multiplier", "none"])
def test_refined_c_solve(gauge):
    # the ungauged C is singular; b = Bfull u lies in its range either way
    pen = build_pencil(build_structured_square(8),
                       FormulationSpec(kind="ls2d", gauge=gauge))
    B, C = _bordered(pen)
    solve, _, rho = pencilmod._refined_solver(C)
    assert rho == 1e-12 * np.abs(C.data).max()
    b = B @ np.random.default_rng(0).standard_normal(B.shape[1])
    assert np.linalg.norm(C @ solve(b) - b) <= 1e-14 * np.linalg.norm(b)


@pytest.mark.parametrize("name", sorted(CASES))
def test_dense_basis_gives_the_whole_space_step(name, monkeypatch):
    # the dense Rayleigh-Ritz step runs on an A-orthonormal basis of
    # A^-1 range(B^T), min(nU, nC) columns, and finds the eigenvalues of the
    # step on the whole space, eigh(R, A)
    mesh, spec, nev = CASES[name]
    pen = build_pencil(mesh, spec)
    monkeypatch.setattr(pencilmod, "_DENSE_SCHUR_LIMIT", 10**9)
    sol = schur_eigs(pen, nev=nev)
    A, B, C = (pen.blocks[k] for k in "ABC")
    assert sol.meta["op_applies"] == min(A.shape[0], C.shape[0])
    csolve, _, _ = pencilmod._refined_solver(C.tocsc())
    S = B.toarray().T @ csolve(B.toarray())
    mu = scipy.linalg.eigh(0.5 * (S + S.T), A.toarray(), eigvals_only=True)[::-1]
    lam = 1.0 / mu[:nev] - 1.0
    assert np.abs(sol.eigenvalues - lam).max() <= 1e-13 * np.abs(lam).max()


def test_nev_beyond_the_reduced_size(path):
    # on the n = 1 mixed slit R has rank at most nC = 11 < nU = 15: both
    # paths reach the gate, which names the request, rather than failing
    # inside eigh on a basis of 11 columns
    pen = build_pencil(build_slit(1, "crisscross"), FormulationSpec(
        kind="ls2d", elements_v="p1", bc="mixed_slit", gauge="none"))
    assert (pen.blocks["A"].shape[0], pen.blocks["C"].shape[0]) == (15, 11)
    with pytest.raises(PencilError, match="^11 of 12 Schur pairs passed"):
        schur_eigs(pen, nev=12)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The optional heavy cube
run (n=16 for the three-field system) is enabled by setting
LSMAXWELL_HEAVY=1 in the environment.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.linalg

from lsmaxwell.assembly import CoefficientField
from lsmaxwell.bench import StudyConfig, run_study, solve_spectrum
from lsmaxwell.formulations import (FormulationSpec, build_pencil,
                                    curlcurl_edge, galerkin_laplace,
                                    ls_maxwell_2d, ls_maxwell_3d_threefield,
                                    ls_maxwell_3d_twofield_nodal)
from lsmaxwell.mesh import (build_slit, build_structured_cube,
                            build_structured_square, perturb_interior,
                            tag_subdomain)
from lsmaxwell.pencil import (SingularBlockError, coercivity_check, dense_qz,
                              schur_reduce, shift_invert_eigs, solve_symmetric)

QUARTER = ((0.0, 0.0), (math.pi / 2, math.pi / 2))
SQUARE_EXACT = np.array([1, 1, 2, 4, 4, 5, 5, 8, 9, 9], dtype=float)

# published per-mesh discretization errors of this benchmark family
# (edge and nodal least-squares on the uniform square, meshes 1/16..1/64)
EDGE_SQUARE_ERRORS = {
    16: [0.01090, 0.01268, 0.04063, 0.11271, 0.11276, 0.14696, 0.23986,
         0.49059, 0.49795, 0.51605],
    32: [0.00273, 0.00316, 0.01017, 0.02792, 0.02793, 0.03683, 0.05920,
         0.12382, 0.12178, 0.12582],
    64: [0.00068, 0.00079, 0.00254, 0.00696, 0.00697, 0.00922, 0.01476,
         0.03103, 0.03028, 0.03127],
}
NODAL_SQUARE_ERRORS = {
    16: [0.00961, 0.00963, 0.03841, 0.11637, 0.11642, 0.15263, 0.23639,
         0.49203, 0.56410, 0.56410],
    32: [0.00240, 0.00241, 0.00962, 0.02886, 0.02886, 0.03849, 0.05860,
         0.12453, 0.13748, 0.13752],
    64: [0.00060, 0.00060, 0.00241, 0.00721, 0.00721, 0.00966, 0.01464,
         0.03125, 0.03424, 0.03425],
}
LSHAPE_EXACT = np.array([1.47562, 3.53403, 9.86960, 9.86960, 11.38948])

HEAVY = os.environ.get("LSMAXWELL_HEAVY", "") == "1"


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_c01_square_sanity():
    t0 = time.perf_counter()
    for elements, published_errors in (("ned0", EDGE_SQUARE_ERRORS),
                                   ("p1", NODAL_SQUARE_ERRORS)):
        cfg = StudyConfig(domain="square", ns=(16, 32, 64),
                          spec=FormulationSpec(kind="ls2d", elements_v=elements))
        rep = run_study(cfg)
        for k, n in enumerate(rep.ns):
            for mode in range(10):
                err = rep.errors[k][mode]
                ref = published_errors[n][mode]
                assert ref / 2 <= err <= 2 * ref, (elements, n, mode, err, ref)
        for mode in range(10):
            for r in rep.rates[mode][1:]:
                assert 1.8 <= r <= 2.2, (elements, mode, r)
        assert np.abs(rep.eigenvalues[-1] - SQUARE_EXACT).max() < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"square sanity took {elapsed:.1f}s"
    _report("1 (square sanity, edge+nodal, rates 2.0 +/- 0.2)")


def test_c02_nonuniform_square():
    cfg = StudyConfig(domain="square", ns=(16, 32, 64),
                      spec=FormulationSpec(kind="ls2d", elements_v="p1"),
                      perturb_amplitude=0.2, perturb_seed=1)
    rep = run_study(cfg)
    for mode in range(10):
        for r in rep.rates[mode][1:]:
            assert 1.75 <= r <= 2.25, (mode, r)
    _report("2 (nonuniform square, rates 2.0 +/- 0.25)")


def test_c03_lshape():
    cfg = StudyConfig(domain="lshape", ns=(16, 32, 64),
                      spec=FormulationSpec(kind="ls2d", elements_v="p1"),
                      nev=5, diagonal="crisscross")
    rep = run_study(cfg)
    lam64 = rep.eigenvalues[-1]
    assert abs(lam64[0] - 1.47562) <= 0.02
    for r in rep.rates[0][1:]:
        assert 1.15 <= r <= 1.55, r
    for mode in range(1, 5):
        for r in rep.rates[mode][1:]:
            assert 1.8 <= r <= 2.2, (mode, r)
        assert abs(lam64[mode] - LSHAPE_EXACT[mode]) <= 0.005 * LSHAPE_EXACT[mode]
    _report("3 (L-shape: singular mode rate in [1.15,1.55], limits ok)")


def test_c04_slit():
    cfg = StudyConfig(domain="slit", ns=(16, 32, 64),
                      spec=FormulationSpec(kind="ls2d", elements_v="p1"),
                      nev=10, diagonal="crisscross")
    rep = run_study(cfg)
    for r in rep.rates[0][1:]:
        assert 0.85 <= r <= 1.25, r
    assert abs(rep.eigenvalues[-1][1] - 2.46740) <= 0.005
    _report("4 (slit: mode-1 rate in [0.85,1.25], mode-2 limit +/- 0.005)")


def test_c05_mixed_bc_slit():
    cfg = StudyConfig(
        domain="slit", ns=(16, 32, 64),
        spec=FormulationSpec(kind="ls2d", elements_v="p1", bc="mixed_slit",
                             gauge="none"),
        spec_b=FormulationSpec(kind="galerkin_laplace", bc="mixed_slit"),
        diagonal="crisscross")
    rep = run_study(cfg)
    for rank in range(10):
        assert rep.errors[0][rank] > rep.errors[1][rank] > rep.errors[2][rank], rank
    for rank in range(1, 5):
        for r in rep.rates[rank][1:]:
            assert 1.7 <= r <= 2.3, (rank, r)
    _report("5 (mixed-BC slit: pairwise differences decrease, smooth rates ok)")


@pytest.mark.parametrize("case,coeff", [
    ("eps", CoefficientField(eps={0: 100.0, 1: 1.0}, mu={0: 1.0, 1: 1.0})),
    ("mu", CoefficientField(eps={0: 1.0, 1: 1.0}, mu={0: 0.01, 1: 1.0})),
])
def test_c06_jumping_coefficients(case, coeff):
    base = dict(
        domain="square", ns=(32, 64, 128),
        spec=FormulationSpec(kind="ls2d", elements_v="p1", coeff=coeff),
        spec_b=FormulationSpec(kind="curlcurl_edge", coeff=coeff),
        material_box=QUARTER)
    rep = run_study(StudyConfig(**base))
    for rank in range(10):
        d = [rep.errors[k][rank] for k in range(3)]
        assert d[0] > d[1] > d[2], (case, "fitted", rank, d)
    rep_u = run_study(StudyConfig(**base, perturb_amplitude=0.2, perturb_seed=1))
    for rank in range(10):
        d = [rep_u.errors[k][rank] for k in range(3)]
        assert d[-1] < d[0], (case, "unfitted", rank, d)
    _report(f"6 ({case}-jump: fitted monotone, unfitted decreasing)")


def test_c07_cube_threefield():
    ns = (4, 8, 16) if HEAVY else (4, 8)
    spec = FormulationSpec(kind="ls3d_threefield", elements_q="ned0")
    lams = []
    for n in ns:
        t0 = time.perf_counter()
        m = build_structured_cube(n)
        pen = ls_maxwell_3d_threefield(m, spec)
        sol = shift_invert_eigs(pen, nev=5)
        elapsed = time.perf_counter() - t0
        if n == 8:
            assert elapsed <= 30.0, f"n=8 solve took {elapsed:.1f}s"
        if n == 16:
            assert elapsed <= 600.0
        lams.append(sol.eigenvalues[:5])
        for j in range(5):
            z = np.concatenate([sol.vectors[k][:, j] for k in sol.vectors])
            w = np.concatenate([sol.vectors["w"][:, j], sol.vectors["lm"][:, j]])
            assert np.linalg.norm(w) <= 1e-8 * np.linalg.norm(z)
    exact = np.array([2, 2, 2, 3, 3], dtype=float)
    errs = [np.abs(lam - exact) for lam in lams]
    assert (errs[-1] < errs[0]).all()
    assert 0.06 <= errs[1][0] <= 0.25  # lambda_1 band at n = 8
    for k in range(1, len(ns)):
        rates = np.log2(errs[k - 1] / errs[k])
        assert ((rates >= 1.7) & (rates <= 2.3)).all(), rates
    _report("7 (cube three-field: rates 2.0 +/- 0.3, multiplier vanishes)")


def test_c08_cube_twofield_nodal():
    spec = FormulationSpec(kind="ls3d_twofield_nodal", elements_v="p1",
                           elements_q="p1", gauge="none")
    exact = np.array([2, 2, 2, 3, 3], dtype=float)
    for perturb in (0.0, 0.2):
        cfg = StudyConfig(domain="cube", ns=(4, 8, 16), spec=spec,
                          nev=5,
                          perturb_amplitude=perturb, perturb_seed=1)
        rep = run_study(cfg)
        for mode in range(5):
            for r in rep.rates[mode][1:]:
                assert 1.7 <= r <= 2.3, (perturb, mode, r)
        for lam in rep.eigenvalues:
            assert lam.min() >= 1.5
        if perturb == 0.0:
            assert 0.06 <= abs(rep.eigenvalues[1][0] - 2.0) <= 0.25
    _report("8 (cube two-field nodal: rates ok, no spurious mode below 1.5)")


def _all_2d_pencils():
    jump = CoefficientField(eps={0: 100.0, 1: 1.0}, mu={0: 1.0, 1: 1.0})
    sq = build_structured_square(4)
    sq_mat = tag_subdomain(build_structured_square(4), QUARTER, 1)
    slit = build_slit(2)
    cases = [
        ("square-edge", ls_maxwell_2d(sq, FormulationSpec(kind="ls2d"))),
        ("square-nodal", ls_maxwell_2d(sq, FormulationSpec(kind="ls2d",
                                                           elements_v="p1"))),
        ("square-jump", ls_maxwell_2d(sq_mat, FormulationSpec(
            kind="ls2d", elements_v="p1", coeff=jump))),
        ("slit-edge", ls_maxwell_2d(slit, FormulationSpec(kind="ls2d"))),
        ("slit-nodal", ls_maxwell_2d(slit, FormulationSpec(kind="ls2d",
                                                           elements_v="p1"))),
        ("slit-mixed", ls_maxwell_2d(slit, FormulationSpec(
            kind="ls2d", elements_v="p1", bc="mixed_slit", gauge="none"))),
    ]
    return cases


def test_c09_structural_invariants():
    for name, pen in _all_2d_pencils():
        B, D = pen.blocks["B"], pen.blocks["D"]
        scale = max(np.abs(B.data).max(), 1.0)
        assert np.abs((D + B.T).toarray()).max() <= 1e-13 * scale, name
        kscale = np.abs(pen.K.data).max()
        # all diagonal blocks are symmetric and off-diagonal blocks come in
        # transposed pairs, so the off-diagonal-negated matrix is symmetric
        # exactly when K is
        assert np.abs((pen.K - pen.K.T).toarray()).max() <= 1e-14 * kscale, name
        assert coercivity_check(pen), name
    _report("9 (structural: D = -B^T, block symmetry, coercivity witnesses)")


def test_c10_oracle_equivalence():
    sq = build_structured_square(4)
    cube = build_structured_cube(2)
    cases = [
        ("ls2d-edge", ls_maxwell_2d(sq, FormulationSpec(kind="ls2d")), True, 10),
        ("ls2d-nodal", ls_maxwell_2d(sq, FormulationSpec(
            kind="ls2d", elements_v="p1")), True, 10),
        ("ls3d-threefield", ls_maxwell_3d_threefield(cube, FormulationSpec(
            kind="ls3d_threefield", elements_q="ned0")), True, 10),
        # the two-field pencil has at most dim(u) = 9 finite modes at n = 2
        ("ls3d-twofield", ls_maxwell_3d_twofield_nodal(cube, FormulationSpec(
            kind="ls3d_twofield_nodal", elements_v="p1", elements_q="p1",
            gauge="none")), False, 8),
    ]
    for name, pen, schur_ok, nev in cases:
        assert pen.size <= 2000
        sol = shift_invert_eigs(pen, nev=nev)
        qz = dense_qz(pen.K, pen.M)
        k = min(nev, len(sol.eigenvalues), len(qz.finite))
        diff = np.abs(sol.eigenvalues[:k] - qz.finite[:k])
        assert diff.max() <= 1e-9 * (1 + np.abs(qz.finite[:k])).max(), name
        if schur_ok:
            vals, _ = schur_reduce(pen)
            ks = min(k, len(vals))
            d2 = np.abs(np.sort(vals)[:ks] - qz.finite[:ks])
            assert d2.max() <= 1e-9 * (1 + np.abs(qz.finite[:ks])).max(), name
        else:
            with pytest.raises(SingularBlockError):
                schur_reduce(pen)
    # symmetric reference pencils against the dense solver
    m8 = build_structured_square(8)
    gal = galerkin_laplace(m8)
    lam = solve_symmetric(gal, nev=6).eigenvalues
    dense = np.sort(scipy.linalg.eigh(gal.K.toarray(), gal.M.toarray(),
                                      eigvals_only=True))
    dense = dense[np.abs(dense) > 1e-8]
    assert np.abs(lam[np.abs(lam) > 1e-8][:5] - dense[:5]).max() < 1e-9
    cc = curlcurl_edge(m8)
    lam_cc = solve_symmetric(cc, nev=5).eigenvalues
    dense_cc = np.sort(scipy.linalg.eigh(cc.K.toarray(), cc.M.toarray(),
                                         eigvals_only=True))
    dense_cc = dense_cc[dense_cc > 1e-8 * dense_cc.max()]
    assert np.abs(lam_cc[:5] - dense_cc[:5]).max() < 1e-9
    _report("10 (oracle equivalence: shift-invert = dense QZ = Schur route)")


def test_c11_property_suites():
    # basis duality and partition of unity live in the element test module;
    # re-assert the headline tolerances here on fresh points
    from lsmaxwell.elements import eval_lagrange, quadrature
    rng = np.random.default_rng(42)
    pts = []
    while len(pts) < 100:
        x = rng.random(2)
        if x.sum() <= 1:
            pts.append(x)
    pts = np.array(pts)
    vals, grads = eval_lagrange(2, 2, pts)
    assert np.abs(vals.sum(axis=1) - 1).max() < 1e-13
    assert np.abs(grads.sum(axis=1)).max() < 1e-13
    rule = quadrature(2, 4)
    assert abs((rule.weights * rule.cartesian[:, 0] ** 2
                * rule.cartesian[:, 1] ** 2).sum() - 1 / 180) < 1e-15

    # eigenvector orthogonality in the C- and A-inner products
    m = build_structured_square(8)
    pen = ls_maxwell_2d(m, FormulationSpec(kind="ls2d"))
    sol = shift_invert_eigs(pen, nev=8)
    C, A = pen.blocks["C"].toarray(), pen.blocks["A"].toarray()
    p, u = sol.vectors["p"], sol.vectors["u"]
    lam = sol.eigenvalues
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            if abs(lam[i] - lam[j]) <= 1e-6:
                continue
            assert abs(p[:, i] @ C @ p[:, j]) <= 1e-8 * math.sqrt(
                (p[:, i] @ C @ p[:, i]) * (p[:, j] @ C @ p[:, j]))
            assert abs(u[:, i] @ A @ u[:, j]) <= 1e-8 * math.sqrt(
                (u[:, i] @ A @ u[:, i]) * (u[:, j] @ A @ u[:, j]))

    # the 0 = lambda*0 direction of the mean-unconstrained pencil is never
    # reported
    m2 = build_structured_square(2)
    nog = ls_maxwell_2d(m2, FormulationSpec(kind="ls2d", elements_v="p1",
                                            gauge="none"))
    qz = dense_qz(nog.K, nog.M)
    assert qz.num_degenerate == 1
    gauged = dense_qz(ls_maxwell_2d(m2, FormulationSpec(
        kind="ls2d", elements_v="p1")).K,
        ls_maxwell_2d(m2, FormulationSpec(kind="ls2d", elements_v="p1")).M)
    k = min(len(qz.finite), len(gauged.finite))
    assert np.abs(qz.finite[:k] - gauged.finite[:k]).max() < 1e-8
    sol_ng = shift_invert_eigs(nog, nev=4)
    for j in range(len(sol_ng.eigenvalues)):
        q = sol_ng.vectors["p"][:, j]
        q = q / np.linalg.norm(q)
        assert np.abs(q - q.mean()).max() > 1e-3
    _report("11 (properties: duality, quadrature, orthogonality, degeneracy)")

"""Degenerate generalized eigenvalue pencils K z = lambda M z with singular M.

Sparse LU factorization; the production solvers, for least-squares block
pencils (the symmetric reduction A u = (lambda + 1) B^T C^+ B u) and for
symmetric pencils with a known kernel (deflated shift-invert Lanczos); and
the oracles the block solver is checked against: shift-invert Arnoldi on
(K, M) with filtering of infinite and degenerate modes, dense QZ, and the
dense Schur-complement reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

DENSE_LIMIT = 2000
FINITE_CUTOFF = 1e6
RESIDUAL_TOL = 1e-8
P_ZERO_TOL = 1e-10
_DENSE_SOLVE_LIMIT = 60
# shift of the symmetric pencils' Lanczos, below their nonnegative spectrum,
# for a domain of extent pi; it scales with the spectrum, as extent^-2
SYMMETRIC_SHIFT = -0.1
_REG_SCALE = 1e-12
# Schur route: mu = 1/(1 + lambda) at or below this times the largest mu is
# an infinite mode; blocks A up to this size are solved densely
MU_INFINITE = 1e-10
_DENSE_SCHUR_LIMIT = 250
# D + B^T beyond _BLOCK_TOL max(max|B|, 1) is not roundoff; the dense
# oracles deflate singular values up to _NULLSPACE_TOL times the largest and
# count QZ entries of M up to _QZ_INFINITE |M| as infinite
_BLOCK_TOL = 1e-13
_NULLSPACE_TOL = _QZ_INFINITE = 1e-12


class PencilError(RuntimeError):
    """Solver-level failure (non-convergence, size limits, misuse)."""


class SingularMatrixError(PencilError):
    """Structural or numerical singularity met during factorization."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class SingularBlockError(PencilError):
    """A block that must be invertible (e.g. C in the Schur reduction) is
    singular."""


@dataclass
class BlockPencil:
    """Assembled generalized eigenproblem with block structure.

    ``ranges`` maps block names to slices of the global vector in order,
    e.g. {'u': ..., 'p': ..., 'w': ..., 'lm': ...}.  M acts on the
    eigenvector through its 'p' block, which must not vanish for a pair to
    count as an eigensolution.  ``blocks`` optionally keeps the
    matrices K and M were formed from ('A', 'B', 'C', 'D', and the gauge
    blocks 'mean_row', 'G', 'Gd') for validation and the Schur reduction;
    the bordered blocks are the slices of K past ``ranges['u']``.
    """

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    ranges: dict
    blocks: dict = field(default_factory=dict)
    spaces: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.K.shape[0]

    def split(self, vec):
        return {name: vec[sl] for name, sl in self.ranges.items()}


@dataclass
class SymmetricPencil:
    """Plain symmetric pencil (K, M) with positive-semidefinite K and
    positive-definite M.

    ``kernel_basis``, when given, spans the whole kernel of K (discrete
    gradients for the curl-curl operator, the constants for the Neumann
    Laplacian); :func:`solve_symmetric` projects it out, so only nonzero
    eigenvalues are returned.  Without it K must be nonsingular.
    """

    K: sparse.csr_matrix
    M: sparse.csr_matrix
    kernel_basis: sparse.csr_matrix | None = None
    space: object = None
    flags: dict = field(default_factory=dict)

    @property
    def size(self):
        return self.K.shape[0]

    def split(self, vec):
        return {"u": vec}


@dataclass
class EigenSolution:
    """Finite eigenpairs of a block or a symmetric pencil.

    Eigenvalues ascend; every kept pair satisfies the residual bound
    ||K z - lambda M z|| / ((|lambda| + 1) ||z||) <= residual_tol.
    ``vectors`` maps each field of the pencil (its blocks; 'u' for a
    symmetric pencil) to the rows of the eigenvectors, one per column.
    ``discarded`` records (reason, lambda) for candidates the Arnoldi
    oracle filtered; the production solvers keep every pair they return
    or raise, so theirs is empty.
    """

    eigenvalues: np.ndarray
    vectors: dict
    residuals: np.ndarray
    discarded: list
    meta: dict = field(default_factory=dict)

    @property
    def num_discarded(self):
        return len(self.discarded)


def validate_pencil(pencil):
    """Construction-time structure checks on the blocks K and M are formed
    from, whose off-diagonal symmetry holds by construction.

    Verifies that D spans the (u-rows x p-columns) block, that D equals
    -B^T up to quadrature roundoff, and that A and C are symmetric to
    1e-14 max|K|.
    """
    blocks = pencil.blocks
    u, p = pencil.ranges["u"], pencil.ranges["p"]
    if "D" in blocks and blocks["D"].shape != (u.stop - u.start, p.stop - p.start):
        raise PencilError("D does not match the (u, p) block")
    if "B" in blocks and "D" in blocks:
        B, D = blocks["B"], blocks["D"]
        diff = (D + B.T).tocoo()
        dscale = max(np.abs(B.data).max() if B.nnz else 1.0, 1.0)
        if diff.nnz and np.abs(diff.data).max() > _BLOCK_TOL * dscale:
            raise PencilError("D != -B^T beyond roundoff")
    K = pencil.K
    scale = max(np.abs(K.data).max() if K.nnz else 1.0, 1.0)
    for name in ("A", "C"):
        if name in blocks:
            asym = (blocks[name] - blocks[name].T).tocoo()
            if asym.nnz and np.abs(asym.data).max() > 1e-14 * scale:
                raise PencilError(f"{name} is not symmetric")
    return pencil


# factorize: pivot ratios at or below the floor are singular
_PIVOT_FLOOR = 1e-13


class Factorization:
    """Sparse LU handle for K x = b solves."""

    def __init__(self, _lu):
        self._lu = _lu

    def solve(self, b):
        return self._lu.solve(b)


def factorize(K):
    """LU-factorize a square sparse matrix.

    Raises :class:`SingularMatrixError` (carrying the offending pivot
    location) on structural singularity, or on numerical singularity: a
    ratio of the smallest to the largest pivot of U at or below
    ``_PIVOT_FLOOR``.  The test is relative, so no factorization fails by
    the matrix's units alone.
    """
    K = sparse.csc_matrix(K)
    if K.shape[0] != K.shape[1]:
        raise PencilError("matrix must be square")
    try:
        lu = spla.splu(K)
    except RuntimeError as e:
        raise SingularMatrixError(f"sparse LU failed: {e}") from e
    du = np.abs(lu.U.diagonal())
    dmax = du.max() if len(du) else 1.0
    ratio = float(du.min() / dmax) if len(du) else 1.0
    if ratio <= _PIVOT_FLOOR:
        raise SingularMatrixError(
            f"numerically singular: pivot ratio {ratio:.2e}",
            pivot=int(np.argmin(du)))
    return Factorization(lu)


def _parallel(z0, z):
    return abs(np.vdot(z0, z)) > (1.0 - 1e-6) * np.linalg.norm(z0) * np.linalg.norm(z)


def _real_candidates(lambdas, vectors):
    """(lambda, z) candidates, real wherever the eigenvalue is real.

    Arnoldi may return a double real eigenvalue as a conjugate pair a +- ib
    with vectors z and conj(z); both span the same space as the real
    eigenvectors Re z and Im z, which replace the pair.  A part below 1e-8
    of the vector's norm is roundoff and is dropped.
    """
    cols = list(vectors.T)
    out, partners = [], set()
    for j, (lam, z) in enumerate(zip(lambdas, cols)):
        if j in partners:
            continue
        if np.isfinite(lam) and abs(lam.imag) <= 1e-8 * (1.0 + abs(lam.real)):
            lam = lam.real
        if not np.iscomplexobj(z) or isinstance(lam, complex):
            out.append((lam, z))
            continue
        partners.update(i for i in range(j + 1, len(cols))
                        if _parallel(z.conj(), cols[i]))
        nz = np.linalg.norm(z)
        out += [(lam, np.ascontiguousarray(part)) for part in (z.real, z.imag)
                if np.linalg.norm(part) > 1e-8 * nz]
    return out


def filter_spectrum(pencil, lambdas, vectors, residual_tol=RESIDUAL_TOL):
    """Genuine finite eigenpairs of a degenerate pencil, for the oracles.

    Discards (with recorded reason): eigenvalues beyond ``FINITE_CUTOFF``
    ('infinite'), pairs failing the residual bound ('residual'), vanishing
    'p' components ('p_zero'), directions annihilated by M
    ('degenerate'), and residually complex pairs ('complex').
    """
    K, M = pencil.K, pencil.M
    m_scale = np.abs(M.data).max() if M.nnz else 1.0
    kept = []
    discarded = []
    for lam, z in _real_candidates(lambdas, vectors):
        if not np.isfinite(lam):
            discarded.append(("infinite", lam))
            continue
        if isinstance(lam, complex):
            discarded.append(("complex", lam))
            continue
        if abs(lam) > FINITE_CUTOFF:
            discarded.append(("infinite", lam))
            continue
        nz = np.linalg.norm(z)
        zp = z[pencil.ranges["p"]]
        if nz == 0 or np.linalg.norm(zp) <= P_ZERO_TOL * nz:
            discarded.append(("p_zero", lam))
            continue
        Mz = M @ z
        if np.linalg.norm(Mz) <= P_ZERO_TOL * m_scale * nz:
            discarded.append(("degenerate", lam))
            continue
        res = np.linalg.norm(K @ z - lam * Mz) / ((abs(lam) + 1.0) * nz)
        if res > residual_tol:
            discarded.append(("residual", lam))
            continue
        kept.append((float(lam), z, float(res)))
    kept.sort(key=lambda t: t[0])
    deduped = []
    for lam, z, res in kept:
        dup = False
        for lam0, z0, _ in deduped:
            if abs(lam - lam0) <= 1e-8 * (1.0 + abs(lam)) and _parallel(z0, z):
                dup = True
                break
        if dup:
            discarded.append(("duplicate", lam))
        else:
            deduped.append((lam, z, res))
    lams = np.array([t[0] for t in deduped])
    res = np.array([t[2] for t in deduped])
    if deduped:
        Z = np.column_stack([t[1] for t in deduped])
    else:
        Z = np.zeros((pencil.size, 0))
    comps = {name: Z[sl] for name, sl in pencil.ranges.items()}
    return EigenSolution(lams, comps, res, discarded)


def shift_invert_eigs(pencil, sigma=0.0, nev=10, tol=RESIDUAL_TOL, seed=0):
    """Finite eigenpairs of the pencil nearest ``sigma``.

    Implicitly restarted Arnoldi on (K - sigma M)^{-1} M, solved through
    :func:`_refined_solver`, whose relative shift also factors an exactly
    singular pencil; eigenvalues are recovered as sigma + 1/theta and
    passed through :func:`filter_spectrum`.  At least ``nev`` kept pairs
    are returned (ascending) or a :class:`PencilError` is raised.
    """
    n = pencil.size
    if n <= max(_DENSE_SOLVE_LIMIT, nev + 2):
        return _dense_eigs(pencil, nev, sigma, tol)

    solve, _, _ = _refined_solver((pencil.K - sigma * pencil.M).tocsc())
    M = pencil.M.tocsr()
    op = spla.LinearOperator(
        (n, n), matvec=lambda v: solve(M @ v), dtype=float)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)

    k = min(nev + 8, n - 2)
    if k < nev:
        return _dense_eigs(pencil, nev, sigma, tol)
    attempts = 0
    while True:
        attempts += 1
        try:
            theta, vecs = spla.eigs(
                op, k=k, which="LM", v0=v0,
                ncv=min(n, max(2 * k + 10, 30)), tol=1e-10)
        except spla.ArpackNoConvergence as e:
            raise PencilError(
                f"Arnoldi did not converge within the iteration budget; "
                f"{len(e.eigenvalues)} of {k} Ritz pairs converged") from e
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = sigma + 1.0 / theta
        sol = filter_spectrum(pencil, lam, vecs, residual_tol=tol)
        if len(sol.eigenvalues) >= nev or attempts >= 2 or k >= n - 2:
            break
        k = min(n - 2, k + (nev - len(sol.eigenvalues)) + 10)
    if len(sol.eigenvalues) < nev:
        raise PencilError(
            f"only {len(sol.eigenvalues)} finite eigenpairs passed filtering "
            f"(requested {nev}); residuals: {sol.residuals}")
    sol.meta.update(sigma=sigma, arnoldi_dim=k)
    return sol


def _refined_solver(C):
    """Solve C x = b through the LU factor of C + rho I, rho = 1e-12 max|C|,
    and one step of iterative refinement against C itself.

    The relative shift keeps the factorization independent of scale and
    makes a singular C factorable; for b in range(C), which holds for
    every b = B u since range(B) is orthogonal to ker(C) (curl grad = 0,
    and in 2D the curl of a constant vanishes), the refinement removes the
    O(rho) error and the kernel component of x is left arbitrary, which
    R = B^T C^+ B does not see.  Returns the refined solve, which costs two
    solves on the factor, the factor's handle, whose ``solve`` is the
    unrefined (C + rho I)^{-1}, and rho.
    """
    rho = _REG_SCALE * float(np.abs(C.data).max() if C.nnz else 1.0)
    handle = factorize(C + rho * sparse.identity(C.shape[0], format="csc"))

    def solve(b):
        x = handle.solve(b)
        return x + handle.solve(b - C @ x)
    return solve, handle, rho


def _lu_nnz(handle):
    return int(handle._lu.L.nnz + handle._lu.U.nnz)


def _lanczos(op, k, dim, **kw):
    """``scipy.sparse.linalg.eigsh(op, k, **kw)`` from a random start vector
    of seed 0, with ncv = min(dim, max(2k + 1, 20)) basis vectors, where dim
    bounds the Krylov space; returns eigsh's result and ncv.

    Exactly the k wanted pairs are asked for: a guard pair beyond them
    would have to converge too, and when it sits in the next cluster it
    narrows the gap between the wanted and the unwanted Ritz values that
    sets the convergence rate.  Non-convergence raises
    :class:`PencilError`.
    """
    ncv = min(dim, max(2 * k + 1, 20))
    v0 = np.random.default_rng(0).standard_normal(op.shape[0])
    try:
        return spla.eigsh(op, k=k, v0=v0, ncv=ncv, **kw), ncv
    except spla.ArpackNoConvergence as e:
        raise PencilError(f"Lanczos did not converge; {len(e.eigenvalues)} "
                          f"of {k} Ritz pairs converged") from e


def _fix_gauge(pencil, P):
    """Potentials P (one per column), known up to ker(C), moved onto the
    gauge of the bordered pencil; returns them stacked over zero
    multiplier rows.

    An edge potential q gets G^T q = 0: q - Gd phi with the discrete
    gradient Gd and G^T Gd phi = G^T q, a mu-weighted P1 Laplacian whose
    kernel (the constants) Gd annihilates, so one :func:`_refined_solver`
    serves every column.  A scalar potential with a mean row m gets m.p = 0
    by subtracting the constant m.p / m.1.  The multipliers w and lm are
    zero.
    """
    blocks = pencil.blocks
    if "w" in pencil.ranges:
        G, Gd = blocks["G"], blocks["Gd"]
        solve, _, _ = _refined_solver(G.T @ Gd)
        P = P - Gd @ solve(G.T @ P)
    elif "lm" in pencil.ranges:
        m = blocks["mean_row"].toarray().ravel()
        P = P - (m @ P) / m.sum()
    extra = pencil.size - pencil.ranges["p"].stop
    return np.vstack([P, np.zeros((extra, P.shape[1]))])


def _gated_solution(pencil, lam, Z, nev, label, meta, finite=True):
    """The gate both production solvers end in: the :class:`EigenSolution`
    of the pairs (lam, columns of Z), or a :class:`PencilError`.

    One array pass computes the residuals ||K z - lambda M z|| / ((|lambda|
    + 1) ||z||).  A pair is rejected when ``finite`` is False for it
    ('infinite') or its residual exceeds ``RESIDUAL_TOL``; fewer than
    ``nev`` passing pairs raise an error that names each rejected lambda,
    reason and residual.  A returned solution keeps every pair and has
    ``discarded == []``.
    """
    finite = np.broadcast_to(finite, lam.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = np.linalg.norm(pencil.K @ Z - (pencil.M @ Z) * lam, axis=0) \
            / ((np.abs(lam) + 1.0) * np.linalg.norm(Z, axis=0))
    keep = finite & (res <= RESIDUAL_TOL)
    if keep.sum() < nev:
        raise PencilError(
            f"{keep.sum()} of {nev} {label} pairs passed ({len(lam)} computed, "
            f"residual bound {RESIDUAL_TOL:g})" + "".join(
                f"; lambda = {lam[j]:.6g}: {'' if finite[j] else 'infinite, '}"
                f"residual {res[j]:.2e}" for j in np.flatnonzero(~keep)))
    return EigenSolution(lam, pencil.split(Z), res, [], meta)


def schur_eigs(pencil, nev=10):
    """Smallest finite eigenpairs of an LS block pencil through the
    symmetric Schur reduction.

    Eliminating the potential block gives R u = mu A u with the SPD block A,
    R = B^T C^+ B and mu = 1/(1 + lambda).  The gauge rows bordered onto C
    (the mean row, the multiplier w) do not change R, since B^T annihilates
    ker(C), so only the plain C block is factored, through
    :func:`_refined_solver`.  The infinite modes sit at mu = 0, so exactly
    the ``nev`` largest mu are wanted, with no guard pairs.  Both paths end
    in one Rayleigh-Ritz step with the exact R, ``eigh(U^T R U, U^T A U)``.
    For small A, U is an A-orthonormal basis of A^-1 range(B^T), which
    holds every mode with mu > 0: r = min(nU, nC) columns from the dense
    Cholesky of A and a thin QR, so the step is a standard ``eigh`` of size
    r and at most r pairs are computed.  Else U holds the Ritz vectors of
    :func:`_lanczos` in the A inner product (``eigsh`` with M = A) on the
    semidefinite B^T (C + rho I)^{-1} B, one unrefined C solve per step.
    The potential is p = -C^+ B u, moved onto the gauge by
    :func:`_fix_gauge`.  The gate :func:`_gated_solution`, shared with
    :func:`solve_symmetric`, rejects a pair with mu <= MU_INFINITE * max mu
    ('infinite') or a residual on K and M above ``RESIDUAL_TOL``; fewer than
    ``nev`` passing pairs raise :class:`PencilError`, naming each rejected
    lambda, reason and residual.

    ``meta`` records ``path`` ('dense' or 'sparse'), the shift ``rho``,
    ``refinement_steps`` of the C solves in the Rayleigh-Ritz step (the
    Lanczos steps take none), the block sizes ``size_A`` and ``size_C``,
    the factor fill ``lu_nnz_A`` and ``lu_nnz_C`` (L + U; the dense
    Cholesky triangle for A on the dense path), ``op_applies`` (the Lanczos
    operator applied to one vector; the r columns of the basis on the dense
    path), and the Lanczos ``lanczos_k`` and ``lanczos_ncv`` (k = nev
    whenever the basis has that many columns, on both paths; ncv is None on
    the dense path).
    """
    try:
        A, B, C = (pencil.blocks[k] for k in ("A", "B", "C"))
    except KeyError:
        raise PencilError("pencil carries no Schur blocks") from None
    nU, nC = A.shape[0], C.shape[0]
    if pencil.ranges["u"] != slice(0, nU) or pencil.ranges["p"] != slice(nU, nU + nC):
        raise PencilError("Schur blocks do not match the pencil layout")
    A, B, C = A.tocsc(), B.tocsr(), C.tocsc()
    csolve, chandle, rho = _refined_solver(C)
    dense = nU <= max(_DENSE_SCHUR_LIMIT, nev + 1)
    # R has rank at most nC: the dense basis has r = min(nU, nC) columns
    k = min(nev, nU, nC) if dense else min(nev, nU)
    meta = {"path": "dense" if dense else "sparse",
            "rho": rho, "refinement_steps": 1, "size_A": nU, "size_C": nC,
            "lu_nnz_C": _lu_nnz(chandle), "lanczos_k": k, "lanczos_ncv": None}
    if dense:
        # A = L L^T and L^-1 B^T = Q F: U = L^-T Q is A-orthonormal and
        # spans A^-1 range(B^T), where every mode with mu > 0 lies; B U = F^T
        L = scipy.linalg.cholesky(A.toarray(), lower=True)
        Q, F = scipy.linalg.qr(scipy.linalg.solve_triangular(L, B.T.toarray(), lower=True),
                               mode="economic")
        BU, AU = F.T, None

        def basis(W):  # U W
            return scipy.linalg.solve_triangular(L, Q @ W, lower=True, trans="T")
        meta.update(lu_nnz_A=nU * (nU + 1) // 2, op_applies=len(F))
    else:
        ahandle = factorize(A)
        applies = [0]

        def r_matvec(v):
            applies[0] += 1
            return B.T @ chandle.solve(B @ v)
        R = spla.LinearOperator((nU, nU), matvec=r_matvec, dtype=float)
        Ainv = spla.LinearOperator((nU, nU), matvec=ahandle.solve, dtype=float)
        (_, U), ncv = _lanczos(R, k, nU, M=A, Minv=Ainv, which="LA",
                               tol=1e-10)
        BU, AU, basis = B @ U, U.T @ (A @ U), lambda W: U @ W
        meta.update(lu_nnz_A=_lu_nnz(ahandle), op_applies=applies[0],
                    lanczos_ncv=ncv)
    X = csolve(BU)
    S = BU.T @ X
    r = len(S)
    mu, W = scipy.linalg.eigh(0.5 * (S + S.T), AU, subset_by_index=[r - k, r - 1])
    mu, W = mu[::-1], W[:, ::-1]  # ascending lambda
    Z = np.vstack([basis(W), _fix_gauge(pencil, -(X @ W))])
    with np.errstate(divide="ignore"):
        lam = 1.0 / mu - 1.0
    return _gated_solution(pencil, lam, Z, nev, "Schur", meta,
                           finite=mu > MU_INFINITE * mu.max(initial=0.0))


def _common_nullspace_complement(Kd, Md):
    """Orthonormal basis of the complement of {z : Kz = 0 and Mz = 0}.

    For the pencils built here K is symmetric and M^T annihilates the same
    directions, so the pencil restricted to the complement carries exactly
    the regular and infinite spectrum.
    """
    S = np.vstack([Kd, Md])
    _, s, vt = np.linalg.svd(S, full_matrices=False)
    smax = s[0] if len(s) else 1.0
    k = int((s <= _NULLSPACE_TOL * smax).sum())
    if k == 0:
        return None, 0
    return vt[: len(s) - k].T, k


def _dense_eigs(pencil, nev, sigma, tol):
    if pencil.size > DENSE_LIMIT:
        raise PencilError("dense fallback refused beyond the size limit")
    Kd, Md = pencil.K.toarray(), pencil.M.toarray()
    Z, n_deg = _common_nullspace_complement(Kd, Md)
    if n_deg:
        lam, vec = scipy.linalg.eig(Z.T @ Kd @ Z, Z.T @ Md @ Z)
        vecs = Z @ vec
    else:
        lam, vecs = scipy.linalg.eig(Kd, Md)
    sol = filter_spectrum(pencil, lam, vecs, residual_tol=tol)
    if len(sol.eigenvalues) < nev:
        raise PencilError(
            f"only {len(sol.eigenvalues)} finite eigenpairs passed filtering "
            f"(requested {nev})")
    sol.meta.update(sigma=sigma, dense=True, deflated_nullspace=n_deg)
    return sol


@dataclass
class DenseSpectrum:
    """Classified full spectrum from the dense QZ oracle."""

    finite: np.ndarray
    num_infinite: int
    num_complex: int
    num_degenerate: int = 0


def dense_qz(K, M):
    """All generalized eigenvalues via dense QZ, classified finite/infinite.

    An eigenvalue counts as infinite when the M-side Schur diagonal entry
    is at most ``_QZ_INFINITE`` times the norm of M.  Directions in the
    common nullspace of K and M (a singular pencil's 0 = lambda*0 modes)
    are deflated first and reported separately.  Dense oracle only;
    refuses dimensions above ``DENSE_LIMIT``.
    """
    n = K.shape[0]
    if n > DENSE_LIMIT:
        raise PencilError(f"dense_qz limited to dimension {DENSE_LIMIT}")
    Kd = K.toarray() if sparse.issparse(K) else np.asarray(K, dtype=float)
    Md = M.toarray() if sparse.issparse(M) else np.asarray(M, dtype=float)
    Z, n_deg = _common_nullspace_complement(Kd, Md)
    if n_deg:
        Kd, Md = Z.T @ Kd @ Z, Z.T @ Md @ Z
    AA, BB, _, _ = scipy.linalg.qz(Kd, Md, output="complex")
    alpha = np.diag(AA)
    beta = np.diag(BB)
    m_norm = max(np.linalg.norm(Md, "fro"), 1e-300)
    infinite = np.abs(beta) <= _QZ_INFINITE * m_norm
    lam = alpha[~infinite] / beta[~infinite]
    real = np.abs(lam.imag) <= 1e-8 * (1.0 + np.abs(lam.real))
    return DenseSpectrum(np.sort(lam[real].real),
                         int(infinite.sum()), int((~real).sum()), n_deg)


def schur_reduce(pencil):
    """Finite spectrum via the symmetric reduction A x = (lambda+1) R x with
    R = B^T C^{-1} B, where B and C are the bordered blocks of K below and
    right of ``ranges['u']``.

    Returns (eigenvalues after the -1 shift, dense symmetric R).  Dense
    validation path; requires the bordered C block to be invertible.
    """
    if pencil.size > DENSE_LIMIT:
        raise PencilError(f"schur_reduce limited to dimension {DENSE_LIMIT}")
    nU, Kd = pencil.ranges["u"].stop, pencil.K.toarray()
    A, B, C = Kd[:nU, :nU], Kd[nU:, :nU], Kd[nU:, nU:]
    lu, piv = scipy.linalg.lu_factor(C)
    du = np.abs(np.diag(lu))
    if du.min() <= 1e-12 * max(du.max(), 1e-300):
        raise SingularBlockError(
            f"C block is singular (pivot ratio {du.min() / du.max():.2e})")
    R = B.T @ scipy.linalg.lu_solve((lu, piv), B)
    asym = np.abs(R - R.T).max()
    if asym > 1e-12 * max(np.abs(R).max(), 1e-300):
        raise PencilError("Schur complement lost symmetry")
    R = 0.5 * (R + R.T)
    w, _ = scipy.linalg.eig(A, R, right=True, homogeneous_eigvals=True)
    alpha, beta = w[0], w[1]
    m_norm = max(np.linalg.norm(R, "fro"), 1e-300)
    finite = np.abs(beta) > 1e-12 * m_norm
    nu = alpha[finite] / beta[finite]
    real = np.abs(nu.imag) <= 1e-8 * (1.0 + np.abs(nu.real))
    vals = np.sort(nu[real].real) - 1.0
    return vals, R


def coercivity_check(pencil):
    """Cholesky witness that [A, -B^T; -B, C] is positive definite on the
    mean-constrained subspace (dense validation path)."""
    if "A" not in pencil.blocks or "C" not in pencil.blocks:
        raise PencilError("pencil carries no coercivity blocks")
    A = pencil.blocks["A"].toarray()
    B = pencil.blocks["B"].toarray()
    C = pencil.blocks["C"].toarray()
    S = np.block([[A, -B.T], [-B, C]])
    if S.shape[0] > DENSE_LIMIT:
        raise PencilError("coercivity check limited to the dense size")
    if "mean_row" in pencil.blocks:
        m = np.asarray(pencil.blocks["mean_row"].todense()).ravel()
        nq = len(m)
        if nq != C.shape[0]:
            raise PencilError("the mean row borders a multiplier field, not "
                              "the p block; the coercivity check does not apply")
        j0 = int(np.argmax(np.abs(m)))
        N = np.zeros((nq, nq - 1))
        cols = [j for j in range(nq) if j != j0]
        for c, j in enumerate(cols):
            N[j, c] = 1.0
            N[j0, c] = -m[j] / m[j0]
        T = np.block([
            [np.eye(A.shape[0]), np.zeros((A.shape[0], nq - 1))],
            [np.zeros((nq, A.shape[0])), N]])
        S = T.T @ S @ T
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def solve_symmetric(sym, nev=10):
    """The ``nev`` smallest eigenpairs, ascending, of a symmetric pencil
    without its kernel ``range(kernel_basis)``, as a gated
    :class:`EigenSolution`.

    Shift-invert Lanczos (:func:`_lanczos`, k = ``nev``) on K - sigma M,
    factored once, with sigma = SYMMETRIC_SHIFT (pi / extent)^2 on the
    scale of the spectrum, where extent is the largest side of the mesh's
    bounding box; at extent pi sigma is -0.1.  The kernel basis G is
    deflated as in Arbenz and Geus (Appl. Numer. Math. 2005) by the
    M-orthogonal projection P x = x - G (G^T M G)^{-1} G^T M x: the operator
    is P (K - sigma M)^{-1} P^T, where P^T keeps kernel roundoff from being
    amplified, so the eigenvectors satisfy G^T M z = 0.  Small pencils go to
    dense ``eigh``, which skips exactly ``kernel_basis.shape[1]`` values.
    Both paths end in :func:`_gated_solution`, the gate of
    :func:`schur_eigs`: every pair's residual on K and M is at most
    ``RESIDUAL_TOL``, or :class:`PencilError` names the pairs that fail it.

    ``vectors`` is {'u': Z}.  ``meta`` records ``path`` ('dense' or
    'sparse'), ``kernel_dim`` (the columns of G) and, on the sparse path
    only (None on the dense one), the shift ``sigma``, the fill ``lu_nnz``
    (L + U) of K - sigma M, ``op_applies`` (the deflated solve applied to
    one vector) and the Lanczos ``lanczos_k`` and ``lanczos_ncv``.
    """
    G, K, M = sym.kernel_basis, sym.K, sym.M
    n, nker = sym.size, 0 if G is None else G.shape[1]
    if n - nker < nev:
        raise PencilError(f"only {n - nker} nonzero eigenvalues exist "
                          f"(requested {nev})")
    meta = {"path": "dense", "kernel_dim": nker} | dict.fromkeys(
        ("sigma", "lu_nnz", "op_applies", "lanczos_k", "lanczos_ncv"))
    if n <= max(_DENSE_SOLVE_LIMIT, nker + nev + 2):
        lam, Z = scipy.linalg.eigh(K.toarray(), M.toarray(),
                                   subset_by_index=[nker, nker + nev - 1])
        return _gated_solution(sym, lam, Z, nev, "symmetric", meta)
    extent = np.ptp(sym.space[0].mesh.vertices, axis=0).max()
    sigma = SYMMETRIC_SHIFT * (np.pi / extent) ** 2
    handle, applies = factorize(K - sigma * M), [0]
    if G is not None:
        MG = (M @ G).tocsc()
        gram = factorize(G.T @ MG)

    def solve(b):
        applies[0] += 1
        if G is None:
            return handle.solve(b)
        x = handle.solve(b - MG @ gram.solve(G.T @ b))
        return x - G @ gram.solve(MG.T @ x)
    (lam, Z), ncv = _lanczos(K, nev, n - nker, M=M, sigma=sigma,
                             OPinv=spla.LinearOperator((n, n), matvec=solve,
                                                       dtype=float))
    order = np.argsort(lam)
    meta.update(path="sparse", sigma=sigma, lu_nnz=_lu_nnz(handle),
                op_applies=applies[0], lanczos_k=nev, lanczos_ncv=ncv)
    return _gated_solution(sym, lam[order], Z[:, order], nev, "symmetric", meta)


def spectrum_csv(solution):
    """CSV export 'index,lambda,residual' of an :class:`EigenSolution`, one
    row per pair with its residual on K and M."""
    lines = ["index,lambda,residual"]
    for i, (lam, r) in enumerate(zip(solution.eigenvalues, solution.residuals)):
        lines.append(f"{i},{lam:.17g},{r:.3e}")
    return "\n".join(lines) + "\n"

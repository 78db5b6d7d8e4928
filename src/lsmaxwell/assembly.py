"""Global finite element spaces and sparse assembly of the bilinear forms.

Supported families: scalar Lagrange ('p1', 'p2'), vector Lagrange
('vector_p1', 'vector_p2') and lowest-order edge elements ('ned0').
Essential constraints are collected as dof sets and imposed by symmetric
row/column elimination, never by penalty.  On affine cells with
piecewise-constant coefficients every form is assembled through reference
tensors (Kirby & Logg, ACM TOMS 32(3), 2006): the quadrature is contracted
once per form on the reference cell, and each cell adds one small
contraction with its affine map.  The reference tables are computed once
per process, keyed by form, families and dimension; everything that depends
on a mesh is shared within one pencil build only.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import elements
from .elements import REF_EDGES
from .mesh import Mesh, _unique_rows

_CHUNK = 16384
_AXIS_TOL = 1e-9

FORMS = (
    "mass_scalar", "stiffness_laplace", "eps_mass", "mu_inv_rot_rot",
    "eps_inv_curl_curl", "curl_to_vector", "rot_pairing", "grad_pairing_3d",
    "mu_mean_row",
)


class AssemblyError(ValueError):
    """Incompatible spaces, unknown form or missing boundary tag."""


@dataclass(frozen=True)
class CoefficientField:
    """Piecewise-constant material coefficients keyed by cell tag."""

    eps: dict = field(default_factory=lambda: {0: 1.0})
    mu: dict = field(default_factory=lambda: {0: 1.0})

    def __post_init__(self):
        for name, d in (("eps", self.eps), ("mu", self.mu)):
            for tag, v in d.items():
                if not (0 < v < math.inf):
                    raise AssemblyError(f"{name}[{tag}] = {v} is not in (0, inf)")

    @classmethod
    def unit(cls):
        return cls()

    def _per_cell(self, table, mesh):
        tags, inv = np.unique(mesh.cell_tags, return_inverse=True)
        try:
            return np.array([table[int(t)] for t in tags])[inv]
        except KeyError as e:
            raise AssemblyError(f"no coefficient for cell tag {e}") from None

    def eps_on(self, mesh):
        return self._per_cell(self.eps, mesh)

    def mu_on(self, mesh):
        return self._per_cell(self.mu, mesh)


@dataclass
class FESpace:
    """A finite element space with its dof map and essential-constraint set.

    ``cell_dofs`` maps each cell to global dofs; ``cell_signs`` carries the
    edge orientation signs (+1 for nodal dofs).  ``constrained`` is the
    sorted set of dofs fixed to zero by the essential condition.
    """

    mesh: Mesh
    family: str
    num_dofs: int
    cell_dofs: np.ndarray
    cell_signs: np.ndarray
    constrained: np.ndarray
    edges: np.ndarray | None = None
    cell_edges: np.ndarray | None = None

    @property
    def kind(self):
        if self.family == "ned0":
            return "edge"
        return "vector" if self.family.startswith("vector_") else "scalar"

    @property
    def degree(self):
        if self.family == "ned0":
            return 0
        return int(self.family[-1])

    def free_dofs(self):
        return _cached(self.mesh, ("free", self.num_dofs, self.constrained.tobytes()),
                       lambda: np.setdiff1d(np.arange(self.num_dofs), self.constrained))


# (mesh, cache) of the pencil build in progress, see _per_build
_BUILD = ContextVar("_BUILD", default=None)


@contextmanager
def _per_build(mesh):
    """Share the per-mesh work of one pencil build among its build_space
    and assemble calls: cell geometry, the edge structure, unconstrained
    dof maps, per-cell quantity maps, free dofs and CSR scatter patterns.
    The cache is keyed by the mesh object and dropped on exit, so a later
    build, or a ``replace``d copy of the mesh, computes its own."""
    token = _BUILD.set((mesh, {}))
    try:
        yield
    finally:
        _BUILD.reset(token)


def _cached(mesh, key, make):
    """``make()``, computed once per key while a build on ``mesh`` is open."""
    build = _BUILD.get()
    if build is None or build[0] is not mesh:
        return make()
    cache = build[1]
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _edge_structure(mesh):
    loc = REF_EDGES[mesh.dim]
    pairs = np.concatenate(
        [np.sort(mesh.cells[:, [i, j]], axis=1) for (i, j) in loc], axis=0)
    edges, inv = _unique_rows(pairs, return_inverse=True)
    cell_edges = inv.reshape(len(loc), mesh.num_cells).T.copy()
    signs = np.concatenate(
        [np.where(mesh.cells[:, i] < mesh.cells[:, j], 1.0, -1.0) for (i, j) in loc])
    cell_signs = signs.reshape(len(loc), mesh.num_cells).T.copy()
    return edges, cell_edges, cell_signs


# vertex pairs of the edges of a boundary facet
_FACET_EDGES = {2: [[0, 1]], 3: [[0, 1], [0, 2], [1, 2]]}


def _facet_edges(edges, facets, nv):
    """(nf, edges per facet) global ids of the edges of each facet."""
    want = np.sort(facets[:, _FACET_EDGES[facets.shape[1]]], axis=2).reshape(-1, 2)
    keys = edges[:, 0].astype(np.int64) * nv + edges[:, 1]
    k = want[:, 0].astype(np.int64) * nv + want[:, 1]
    idx = np.searchsorted(keys, k)
    if (idx >= len(keys)).any() or (keys[np.minimum(idx, len(keys) - 1)] != k).any():
        raise AssemblyError("facet edge not found in mesh edge set")
    return idx.reshape(len(facets), -1)


def _facet_axes(mesh, facets):
    """Per facet, the axis it is orthogonal to (its varying axes span the
    tangent plane)."""
    pts = mesh.vertices[facets]
    span = pts.max(axis=1) - pts.min(axis=1)
    scale = np.maximum(span.max(axis=1), 1.0)
    flat = span < _AXIS_TOL * scale[:, None]
    if (flat.sum(axis=1) != 1).any():
        raise AssemblyError("tangential constraint supports axis-aligned facets only")
    return flat.argmax(axis=1)


def _dof_map(mesh, family):
    """Unconstrained dof map of a family: (num_dofs, cell_dofs, cell_signs,
    edges, cell_edges)."""
    nv, dim = mesh.num_vertices, mesh.dim
    if family in ("vector_p1", "vector_p2"):
        num, scalar, _, edges, cell_edges = _cached(
            mesh, ("dofs", family[-2:]), lambda: _dof_map(mesh, family[-2:]))
        # dof n*dim + c of a cell is component c of its scalar dof n
        cell_dofs = (dim * scalar[:, :, None] + np.arange(dim)).reshape(mesh.num_cells, -1)
        return dim * num, cell_dofs, np.ones(cell_dofs.shape), edges, cell_edges
    if family == "p1":
        cells = np.ascontiguousarray(mesh.cells)
        return nv, cells, np.ones(cells.shape), None, None
    if family not in ("p2", "ned0"):
        raise AssemblyError(f"unknown family {family!r}")
    edges, cell_edges, edge_signs = _cached(mesh, "edges", lambda: _edge_structure(mesh))
    if family == "ned0":
        return len(edges), cell_edges, edge_signs, edges, cell_edges
    cell_dofs = np.hstack([mesh.cells, nv + cell_edges])
    return nv + len(edges), cell_dofs, np.ones(cell_dofs.shape), edges, cell_edges


def build_space(mesh, family, constraint=None):
    """Build a finite element space on ``mesh``.

    ``constraint`` is None, ('tangential_zero', tags) for vector families,
    or ('scalar_zero', tags) for scalar families; tags must exist on the
    mesh boundary.
    """
    num_dofs, cell_dofs, cell_signs, edges, cell_edges = _cached(
        mesh, ("dofs", family), lambda: _dof_map(mesh, family))
    constrained = _constrained_dofs(mesh, family, constraint, edges)
    return FESpace(mesh, family, int(num_dofs), cell_dofs, cell_signs,
                   constrained, edges, cell_edges)


def _constrained_dofs(mesh, family, constraint, edges):
    if constraint is None:
        return np.zeros(0, dtype=np.int64)
    mode, tags = constraint
    tags = tuple(tags) if not isinstance(tags, str) else (tags,)
    present = set(np.unique(mesh.facet_tags))
    for t in tags:
        if t not in present:
            raise AssemblyError(f"boundary tag {t!r} not present on mesh")
    facets = mesh.facets_with_tags(tags)
    dim, nv = mesh.dim, mesh.num_vertices

    if mode == "scalar_zero":
        if family not in ("p1", "p2"):
            raise AssemblyError("scalar_zero requires a scalar family")
        dofs = [facets.ravel()]
        if family == "p2":
            dofs.append(nv + _facet_edges(edges, facets, nv).ravel())
    elif mode == "tangential_zero":
        if family == "ned0":
            dofs = [_facet_edges(edges, facets, nv).ravel()]
        elif family in ("vector_p1", "vector_p2"):
            # every component but the normal one, at each facet node
            nodes = [facets]
            if family == "vector_p2":
                nodes.append(nv + _facet_edges(edges, facets, nv))
            tangent = np.arange(dim) != _facet_axes(mesh, facets)[:, None]
            dofs = [(dim * nd[:, :, None] + np.arange(dim))[
                np.broadcast_to(tangent[:, None, :], nd.shape + (dim,))] for nd in nodes]
        else:
            raise AssemblyError("tangential_zero requires a vector or edge family")
    else:
        raise AssemblyError(f"unknown constraint mode {mode!r}")
    return np.unique(np.concatenate(dofs))


def _geometry(mesh):
    """(J, detJ, JinvT) of the affine map of every cell."""
    p = mesh.vertices[mesh.cells]
    J = np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)  # (nc, dim, dim)
    detJ = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    JinvT = np.swapaxes(Jinv, 1, 2)
    return J, detJ, JinvT


def _pattern(test_space, trial_space):
    """CSR sparsity of every (test dof, trial dof) pair that shares a cell:
    (indptr, indices, slot), where ``slot`` maps entry (c, n, m) of the cell
    matrices, in C order, to its place in ``indices``."""
    # one int64 key per entry; num_dofs**2 fits for any mesh that fits in memory
    ncols = trial_space.num_dofs
    keys = (test_space.cell_dofs[:, :, None].astype(np.int64) * ncols
            + trial_space.cell_dofs[:, None, :]).ravel()
    keys, slot = _unique_rows(keys[:, None], return_inverse=True)
    keys = keys[:, 0]
    indptr = np.zeros(test_space.num_dofs + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // ncols, minlength=test_space.num_dofs), out=indptr[1:])
    return indptr, (keys % ncols).astype(np.int32), slot.astype(np.int32)


# Levi-Civita tensors: rot u = _EPS2[j, c] d_j u_c in 2D and
# (curl u)_i = _EPS3[i, j, c] d_j u_c in 3D; _EPS2 @ grad p is also the
# 2D vector curl (d_y p, -d_x p) of a scalar
_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0


def _quantity(space, name, pts):
    """Reference tabulation of one basis quantity and its per-cell map.

    Returns ``(ref, cell_map)``: ``ref`` has shape (nq, nl, a) over the
    nl nodal or edge functions of the reference cell, and
    ``cell_map(J, detJ, JinvT)`` has shape (ncells, ncomp, d, a), where d
    is the number of components per node (dim for vector families, else
    1).  The physical quantity of dof n*d + x at point q of cell c is
    ``cell_map[c, :, x] @ ref[q, n]`` (before edge signs).  ``name`` is
    'val', 'grad' or 'curl' (rot in 2D, 2D vector curl for a scalar).
    """
    dim = space.mesh.dim
    if space.kind == "edge":
        vals, curls = (elements.eval_nedelec2d if dim == 2 else elements.eval_nedelec3d)(pts)
        if name == "val":
            return vals, lambda J, detJ, JinvT: JinvT[:, :, None, :]
        if name == "curl" and dim == 2:
            return curls[:, :, None], lambda J, detJ, JinvT: 1.0 / detJ[:, None, None, None]
        if name == "curl":
            return curls, lambda J, detJ, JinvT: (J / detJ[:, None, None])[:, :, None, :]
    vals, grads = elements.eval_lagrange(space.degree, dim, pts)
    if space.kind == "scalar":
        if name == "val":
            return vals[:, :, None], lambda J, detJ, JinvT: np.ones((len(detJ), 1, 1, 1))
        if name == "grad":
            return grads, lambda J, detJ, JinvT: JinvT[:, :, None, :]
        if name == "curl" and dim == 2:
            return grads, lambda J, detJ, JinvT: (_EPS2 @ JinvT)[:, :, None, :]
    elif space.kind == "vector":
        if name == "val":
            eye = np.eye(dim)[:, :, None]
            return vals[:, :, None], lambda J, detJ, JinvT: np.broadcast_to(
                eye, (len(detJ),) + eye.shape)
        if name == "curl":
            eps = _EPS2[None] if dim == 2 else _EPS3
            return grads, lambda J, detJ, JinvT: np.einsum("ijx,cja->cixa", eps, JinvT)
    raise AssemblyError(f"no {name} of a {space.kind} space in {dim}D")


@dataclass(frozen=True)
class _Form:
    coef: Callable  # (CoefficientField, Mesh) -> per-cell values or a constant
    test: str
    trial: str
    test_kinds: tuple
    trial_kinds: tuple


_VEC = ("vector", "edge")
_ANY = ("scalar", "vector", "edge")

# one row per bilinear form: coefficient, test and trial quantities and
# the space kinds each side accepts
_FORM_TABLE = {
    "mass_scalar": _Form(lambda c, m: 1.0, "val", "val", ("scalar",), ("scalar",)),
    "stiffness_laplace": _Form(lambda c, m: 1.0, "grad", "grad", ("scalar",), ("scalar",)),
    "eps_mass": _Form(lambda c, m: c.eps_on(m), "val", "val", _VEC, _VEC),
    "mu_inv_rot_rot": _Form(lambda c, m: 1.0 / c.mu_on(m), "curl", "curl", _VEC, _VEC),
    "eps_inv_curl_curl": _Form(lambda c, m: 1.0 / c.eps_on(m), "curl", "curl", _ANY, _ANY),
    "curl_to_vector": _Form(lambda c, m: -1.0, "curl", "val", _ANY, _VEC),
    "rot_pairing": _Form(lambda c, m: 1.0, "curl", "val", _VEC, _ANY),
    "grad_pairing_3d": _Form(lambda c, m: c.mu_on(m), "val", "grad", ("edge",), ("scalar",)),
}

# exact for every product of two bases of degree <= 2 on affine cells
_QUAD_DEGREE = 4


# reference tables keyed by the form, the families and the dimension, which
# is all they depend on; filled on first use and kept for the process, with
# read-only arrays, since every build shares them
_REF_TABLES = {}


def _reference(key, make):
    """``make()``, computed once per process for ``key``."""
    if key not in _REF_TABLES:
        _REF_TABLES[key] = make()
    return _REF_TABLES[key]


def _contract(spec, test_space, trial_space):
    """(R, test map, trial map) of a form: the quadrature contracted once,
    R[a, b, n, m] = sum_q w_q T[q, n, a] U[q, m, b], and the per-cell maps
    of :func:`_quantity`."""
    quad = elements.quadrature(test_space.mesh.dim, _QUAD_DEGREE)
    ref_t, map_t = _quantity(test_space, spec.test, quad.cartesian)
    ref_u, map_u = _quantity(trial_space, spec.trial, quad.cartesian)
    R = np.ascontiguousarray(np.einsum("q,qna,qmb->abnm", quad.weights, ref_t, ref_u))
    R.flags.writeable = False
    return R, map_t, map_u


def assemble(form, test_space, trial_space, coeff=None):
    """Assemble a global sparse matrix for one of the supported bilinear
    forms.

    Parameters
    ----------
    form : str
        One of ``FORMS``.
    test_space, trial_space : FESpace
        Spaces on the same mesh; the result has shape
        (test dofs, trial dofs).  ``mu_mean_row`` ignores ``test_space``
        and returns a single-row matrix.
    coeff : CoefficientField, optional
        Material coefficients; defaults to unit values.
    """
    coeff = coeff or CoefficientField.unit()
    mesh = trial_space.mesh
    if form == "mu_mean_row":
        return _assemble_mean_row(trial_space, coeff)
    if test_space.mesh is not trial_space.mesh:
        raise AssemblyError("test and trial spaces live on different meshes")
    spec = _FORM_TABLE.get(form)
    if spec is None:
        raise AssemblyError(f"unknown form {form!r}")
    for got, allowed in ((test_space.kind, spec.test_kinds),
                         (trial_space.kind, spec.trial_kinds)):
        if got not in allowed:
            raise AssemblyError(f"form {form!r} incompatible with {got} space")

    R, map_t, map_u = _reference((form, test_space.family, trial_space.family, mesh.dim),
                                 lambda: _contract(spec, test_space, trial_space))
    nt, nu = test_space.cell_dofs.shape[1], trial_space.cell_dofs.shape[1]
    coef_all = np.broadcast_to(spec.coef(coeff, mesh), (mesh.num_cells,))

    geometry = _cached(mesh, "geometry", lambda: _geometry(mesh))
    detJ = geometry[1]
    # the per-cell maps depend on the space kind and quantity only, so the
    # forms of a build share them
    tmaps = _cached(mesh, ("map", test_space.kind, spec.test), lambda: map_t(*geometry))
    umaps = _cached(mesh, ("map", trial_space.kind, spec.trial), lambda: map_u(*geometry))
    if tmaps.shape[1] != umaps.shape[1]:
        raise AssemblyError(
            f"form {form!r} pairs a {tmaps.shape[1]}-component {test_space.kind} "
            f"{spec.test} with a {umaps.shape[1]}-component {trial_space.kind} {spec.trial}")
    indptr, indices, slot = _cached(
        mesh, ("pattern", test_space.family, trial_space.family),
        lambda: _pattern(test_space, trial_space))
    data = np.zeros(len(indices))
    for start in range(0, mesh.num_cells, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.num_cells))
        # cells on the last, contiguous axis keep einsum's inner loops long
        G = np.einsum("c,cixa,ciyb->abxyc", coef_all[sl] * detJ[sl], tmaps[sl], umaps[sl])
        # einsum's loops rather than a BLAS product: on symmetric cells the
        # terms that cancel come out as exact zeros instead of roundoff
        # entries that widen the sparsity pattern
        E = np.einsum("abxyc,abnm->cnxmy", np.ascontiguousarray(G), R).reshape(-1, nt, nu)
        # orientation signs; those of nodal families are all +1
        if test_space.kind == "edge":
            E *= test_space.cell_signs[sl][:, :, None]
        if trial_space.kind == "edge":
            E *= trial_space.cell_signs[sl][:, None, :]
        data += np.bincount(slot[sl.start * nt * nu:sl.stop * nt * nu], weights=E.ravel(),
                            minlength=len(indices))
    # the pattern is shared by the forms of a build; eliminate_zeros
    # compacts indices and indptr in place, so the matrix owns copies
    mat = sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                            shape=(test_space.num_dofs, trial_space.num_dofs))
    mat.eliminate_zeros()
    return mat


def _assemble_mean_row(space, coeff):
    if space.kind != "scalar":
        raise AssemblyError("mu_mean_row requires a scalar space")
    mesh = space.mesh

    def integrals():
        quad = elements.quadrature(mesh.dim, _QUAD_DEGREE)
        vals, _ = elements.eval_lagrange(space.degree, mesh.dim, quad.cartesian)
        ref = quad.weights @ vals
        ref.flags.writeable = False
        return ref
    ref = _reference(("mu_mean_row", space.family, mesh.dim), integrals)
    _, detJ, _ = _cached(mesh, "geometry", lambda: _geometry(mesh))
    out = np.bincount(space.cell_dofs.ravel(), minlength=space.num_dofs,
                      weights=((coeff.mu_on(mesh) * detJ)[:, None] * ref).ravel())
    row = sparse.csr_matrix(out[None, :])
    row.eliminate_zeros()
    return row


def eliminate_constraints(matrix, test_space, trial_space):
    """Remove constrained rows and columns (homogeneous essential BCs).

    Returns (reduced matrix, free test dofs, free trial dofs); the dof
    arrays translate reduced indices back to the full numbering.  The
    reduced matrix is a new CSR matrix that keeps the stored order of the
    entries, as ``matrix.tocsr()[tf][:, uf]`` does.  A fully constrained
    space yields an empty (degenerate) block.
    """
    tf = test_space.free_dofs()
    uf = trial_space.free_dofs()
    if matrix.shape != (test_space.num_dofs, trial_space.num_dofs):
        raise AssemblyError("matrix shape does not match the spaces")
    mat = matrix.tocsr()
    # one pass over the entries, in their stored order, through the reduced
    # index of every trial dof (-1 if constrained) and the free test rows
    index = np.full(trial_space.num_dofs, -1, dtype=mat.indices.dtype)
    index[uf] = np.arange(len(uf))
    free_row = np.zeros(test_space.num_dofs, dtype=bool)
    free_row[tf] = True
    cols = index.take(mat.indices)
    keep = np.repeat(free_row, np.diff(mat.indptr)) & (cols >= 0)
    kept = np.flatnonzero(keep)
    # the kept entries before the end of each free row
    indptr = np.concatenate(([0], np.searchsorted(kept, mat.indptr[tf + 1])))
    red = sparse.csr_matrix((mat.data.take(kept), cols.take(kept), indptr),
                            shape=(len(tf), len(uf)))
    return red, tf, uf


def discrete_gradient(edge_space, scalar_space):
    """Edge-element interpolation of nodal gradients: G[e, v] with +1 at the
    higher-index endpoint of edge e and -1 at the lower one."""
    if edge_space.family != "ned0" or scalar_space.family != "p1":
        raise AssemblyError("discrete_gradient expects (ned0, p1)")
    edges = edge_space.edges
    ne = len(edges)
    rows = np.repeat(np.arange(ne), 2)
    cols = edges.ravel()
    vals = np.tile([-1.0, 1.0], ne)
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(ne, scalar_space.num_dofs))


"""Global finite element spaces and sparse assembly of the bilinear forms.

Supported families: scalar Lagrange ('p1', 'p2'), vector Lagrange
('vector_p1', 'vector_p2') and lowest-order edge elements ('ned0').
Essential constraints are collected as dof sets and imposed by symmetric
row/column elimination, never by penalty.  On affine cells with
piecewise-constant coefficients every form is assembled through reference
tensors (Kirby & Logg, ACM TOMS 32(3), 2006): the quadrature is contracted
once per form on the reference cell, and each cell adds one small
contraction with its affine map.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import elements
from .elements import REF_EDGES
from .mesh import Mesh

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
        try:
            return np.array([table[int(t)] for t in mesh.cell_tags])
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
    constraint: tuple | None
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
        return np.setdiff1d(np.arange(self.num_dofs), self.constrained)


def _edge_structure(mesh):
    nl = mesh.cells.shape[1]
    loc = REF_EDGES[mesh.dim]
    pairs = np.concatenate(
        [np.sort(mesh.cells[:, [i, j]], axis=1) for (i, j) in loc], axis=0)
    edges, inv = np.unique(pairs, axis=0, return_inverse=True)
    cell_edges = inv.reshape(len(loc), mesh.num_cells).T.copy()
    signs = np.concatenate(
        [np.where(mesh.cells[:, i] < mesh.cells[:, j], 1.0, -1.0) for (i, j) in loc])
    cell_signs = signs.reshape(len(loc), mesh.num_cells).T.copy()
    return edges, cell_edges, cell_signs


def _find_edges(keys, pairs, nv):
    want = np.sort(pairs, axis=1)
    k = want[:, 0].astype(np.int64) * nv + want[:, 1]
    idx = np.searchsorted(keys, k)
    if (idx >= len(keys)).any() or (keys[np.minimum(idx, len(keys) - 1)] != k).any():
        raise AssemblyError("facet edge not found in mesh edge set")
    return idx


def _facet_axis(mesh, facet):
    """Axis a facet is orthogonal to (its varying axes for the tangent)."""
    pts = mesh.vertices[facet]
    span = pts.max(axis=0) - pts.min(axis=0)
    scale = max(span.max(), 1.0)
    flat = span < _AXIS_TOL * scale
    if mesh.dim == 2:
        if flat[1] and not flat[0]:
            return 1  # horizontal facet, normal along y
        if flat[0] and not flat[1]:
            return 0
        raise AssemblyError("tangential constraint supports axis-aligned facets only")
    n_flat = np.flatnonzero(flat)
    if len(n_flat) != 1:
        raise AssemblyError("tangential constraint supports axis-aligned facets only")
    return int(n_flat[0])


def build_space(mesh, family, constraint=None):
    """Build a finite element space on ``mesh``.

    ``constraint`` is None, ('tangential_zero', tags) for vector families,
    or ('scalar_zero', tags) for scalar families; tags must exist on the
    mesh boundary.
    """
    dim = mesh.dim
    nv = mesh.num_vertices
    edges = cell_edges = None
    if family in ("p2", "vector_p2", "ned0"):
        edges, cell_edges, edge_signs = _edge_structure(mesh)

    if family == "ned0":
        num_dofs = len(edges)
        cell_dofs = cell_edges
        cell_signs = edge_signs
    elif family in ("p1", "p2"):
        if family == "p1":
            num_dofs = nv
            cell_dofs = mesh.cells
        else:
            num_dofs = nv + len(edges)
            cell_dofs = np.hstack([mesh.cells, nv + cell_edges])
        cell_signs = np.ones_like(cell_dofs, dtype=float)
    elif family in ("vector_p1", "vector_p2"):
        base = "p" + family[-1]
        scalar = build_space(mesh, base)
        num_dofs = dim * scalar.num_dofs
        nl = scalar.cell_dofs.shape[1]
        cell_dofs = np.empty((mesh.num_cells, nl * dim), dtype=np.int64)
        for n in range(nl):
            for c in range(dim):
                cell_dofs[:, n * dim + c] = dim * scalar.cell_dofs[:, n] + c
        cell_signs = np.ones_like(cell_dofs, dtype=float)
    else:
        raise AssemblyError(f"unknown family {family!r}")

    constrained = _constrained_dofs(mesh, family, constraint, edges, nv)
    space = FESpace(mesh, family, int(num_dofs), np.ascontiguousarray(cell_dofs),
                    cell_signs, constrained, constraint, edges, cell_edges)
    return space


def _constrained_dofs(mesh, family, constraint, edges, nv):
    if constraint is None:
        return np.zeros(0, dtype=np.int64)
    mode, tags = constraint
    tags = tuple(tags) if not isinstance(tags, str) else (tags,)
    present = set(np.unique(mesh.facet_tags))
    for t in tags:
        if t not in present:
            raise AssemblyError(f"boundary tag {t!r} not present on mesh")
    facets = mesh.facets_with_tags(tags)
    dim = mesh.dim
    dofs = set()

    edge_keys = edges[:, 0].astype(np.int64) * nv + edges[:, 1] if edges is not None else None

    if mode == "scalar_zero":
        if family not in ("p1", "p2"):
            raise AssemblyError("scalar_zero requires a scalar family")
        dofs.update(int(v) for v in np.unique(facets))
        if family == "p2":
            if dim == 2:
                eids = _find_edges(edge_keys, facets, nv)
            else:
                sub = np.vstack([facets[:, [0, 1]], facets[:, [0, 2]], facets[:, [1, 2]]])
                eids = _find_edges(edge_keys, sub, nv)
            dofs.update(int(nv + e) for e in np.unique(eids))
    elif mode == "tangential_zero":
        if family == "ned0":
            if dim == 2:
                eids = _find_edges(edge_keys, facets, nv)
            else:
                sub = np.vstack([facets[:, [0, 1]], facets[:, [0, 2]], facets[:, [1, 2]]])
                eids = _find_edges(edge_keys, sub, nv)
            dofs.update(int(e) for e in np.unique(eids))
        elif family in ("vector_p1", "vector_p2"):
            for facet in facets:
                normal_axis = _facet_axis(mesh, facet)
                comps = [c for c in range(dim) if c != normal_axis]
                for v in facet:
                    for c in comps:
                        dofs.add(dim * int(v) + c)
                if family == "vector_p2":
                    if dim == 2:
                        eids = _find_edges(edge_keys, facet[None, :], nv)
                    else:
                        sub = np.array([[facet[0], facet[1]], [facet[0], facet[2]],
                                        [facet[1], facet[2]]])
                        eids = _find_edges(edge_keys, sub, nv)
                    for e in eids:
                        for c in comps:
                            dofs.add(dim * int(nv + e) + c)
        else:
            raise AssemblyError("tangential_zero requires a vector or edge family")
    else:
        raise AssemblyError(f"unknown constraint mode {mode!r}")
    return np.array(sorted(dofs), dtype=np.int64)


def _geometry(mesh, cells_slice):
    p = mesh.vertices[mesh.cells[cells_slice]]
    J = np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)  # (nc, dim, dim)
    detJ = np.linalg.det(J)
    Jinv = np.linalg.inv(J)
    JinvT = np.swapaxes(Jinv, 1, 2)
    return J, detJ, JinvT


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

    # the quadrature is contracted once: R[a, b, n, m] = sum_q w_q T[q, n, a] U[q, m, b]
    quad = elements.quadrature(mesh.dim, _QUAD_DEGREE)
    ref_t, map_t = _quantity(test_space, spec.test, quad.cartesian)
    ref_u, map_u = _quantity(trial_space, spec.trial, quad.cartesian)
    R = np.ascontiguousarray(np.einsum("q,qna,qmb->abnm", quad.weights, ref_t, ref_u))
    nt, nu = test_space.cell_dofs.shape[1], trial_space.cell_dofs.shape[1]
    coef_all = np.broadcast_to(spec.coef(coeff, mesh), (mesh.num_cells,))

    rows, cols, data = [], [], []
    for start in range(0, mesh.num_cells, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.num_cells))
        J, detJ, JinvT = _geometry(mesh, sl)
        tmap, umap = map_t(J, detJ, JinvT), map_u(J, detJ, JinvT)
        if tmap.shape[1] != umap.shape[1]:
            raise AssemblyError(
                f"form {form!r} pairs a {tmap.shape[1]}-component {test_space.kind} "
                f"{spec.test} with a {umap.shape[1]}-component {trial_space.kind} {spec.trial}")
        # cells on the last, contiguous axis keep einsum's inner loops long
        G = np.einsum("c,cixa,ciyb->abxyc", coef_all[sl] * detJ, tmap, umap)
        # einsum's loops rather than a BLAS product: on symmetric cells the
        # terms that cancel come out as exact zeros instead of roundoff
        # entries that widen the sparsity pattern
        E = np.einsum("abxyc,abnm->cnxmy", np.ascontiguousarray(G), R).reshape(-1, nt, nu)
        E *= test_space.cell_signs[sl][:, :, None] * trial_space.cell_signs[sl][:, None, :]
        rows.append(np.repeat(test_space.cell_dofs[sl], nu, axis=1).ravel())
        cols.append(np.tile(trial_space.cell_dofs[sl], (1, nt)).ravel())
        data.append(E.ravel())
    mat = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(test_space.num_dofs, trial_space.num_dofs)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def _assemble_mean_row(space, coeff):
    if space.kind != "scalar":
        raise AssemblyError("mu_mean_row requires a scalar space")
    mesh = space.mesh
    quad = elements.quadrature(mesh.dim, _QUAD_DEGREE)
    vals, _ = elements.eval_lagrange(space.degree, mesh.dim, quad.cartesian)
    ref = quad.weights @ vals
    muc = coeff.mu_on(mesh)
    out = np.zeros(space.num_dofs)
    for start in range(0, mesh.num_cells, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.num_cells))
        _, detJ, _ = _geometry(mesh, sl)
        np.add.at(out, space.cell_dofs[sl], (muc[sl] * detJ)[:, None] * ref)
    row = sparse.csr_matrix(out[None, :])
    row.eliminate_zeros()
    return row


def eliminate_constraints(matrix, test_space, trial_space):
    """Remove constrained rows and columns (homogeneous essential BCs).

    Returns (reduced matrix, free test dofs, free trial dofs); the dof
    arrays translate reduced indices back to the full numbering.  A fully
    constrained space yields an empty (degenerate) block.
    """
    tf = test_space.free_dofs()
    uf = trial_space.free_dofs()
    if matrix.shape != (test_space.num_dofs, trial_space.num_dofs):
        raise AssemblyError("matrix shape does not match the spaces")
    red = matrix.tocsr()[tf][:, uf]
    return red, tf, uf


def expand_vector(values, free, size):
    """Scatter reduced dof values back into the full numbering with zeros on
    constrained dofs."""
    out = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
    out[free] = values
    return out


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


def write_matrix_text(mat):
    """Coordinate text export: 'nrows ncols nnz' header then 'i j value'."""
    coo = mat.tocoo()
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    order = np.lexsort((coo.col, coo.row))
    for i, j, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        lines.append(f"{i} {j} {v:.17g}")
    return "\n".join(lines) + "\n"

"""Builders turning a mesh, element choice, coefficients and boundary-condition
mode into an assembled eigenvalue pencil.

Least-squares first-order formulations of the Maxwell eigenproblem in 2D
(two fields plus an optional mean-value multiplier) and 3D (three fields
with a gradient multiplier, or the ungauged two-field nodal variant), plus
the two reference discretizations used for comparisons: the Galerkin
Laplacian and the curl-curl operator on edge elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import mesh as meshmod
from .assembly import (AssemblyError, CoefficientField, _per_build, assemble,
                       build_space, discrete_gradient, eliminate_constraints)
from .pencil import BlockPencil, SymmetricPencil, validate_pencil

KINDS = ("ls2d", "ls3d_threefield", "ls3d_twofield_nodal",
         "galerkin_laplace", "curlcurl_edge")


@dataclass(frozen=True)
class FormulationSpec:
    """Element pairing, gauge mode, boundary-condition mode and coefficients
    for one formulation.

    ``elements_v`` is 'ned0' or a nodal degree 'p1'/'p2' (vector-valued);
    ``elements_q`` is nodal in 2D and 'ned0' for the 3D three-field system.
    ``gauge`` selects the mean-value multiplier ('multiplier') or drops the
    constraint ('none'); the three-field system requires the multiplier.
    """

    kind: str = "ls2d"
    elements_v: str = "ned0"
    elements_q: str = "p1"
    gauge: str = "multiplier"
    bc: str = "standard"
    coeff: CoefficientField = field(default_factory=CoefficientField.unit)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise AssemblyError(f"unknown formulation kind {self.kind!r}")
        if self.kind == "ls3d_threefield" and self.gauge != "multiplier":
            raise AssemblyError("the three-field system requires gauge='multiplier'")
        if self.bc not in ("standard", "mixed_slit"):
            raise AssemblyError(f"unknown bc mode {self.bc!r}")


def _zeros(nr, nc):
    return sparse.csr_matrix((nr, nc))


def _vector_family(name):
    if name == "ned0":
        return "ned0"
    if name in ("p1", "p2"):
        return "vector_" + name
    raise AssemblyError(f"unsupported V element {name!r}")


def _all_tags(mesh):
    return tuple(sorted(set(mesh.facet_tags)))


def _slit_tags(mesh):
    tags = set(mesh.facet_tags)
    if not {meshmod.SLIT_TOP, meshmod.SLIT_BOTTOM} <= tags:
        raise AssemblyError("mixed_slit mode requires a slit mesh")
    return (meshmod.SLIT_TOP, meshmod.SLIT_BOTTOM)


def ls_maxwell_2d(mesh, spec):
    """Two-dimensional least-squares pencil.

    Left blocks {A, B^T; B, C} with A = (eps u, v) + (1/mu rot u, rot v),
    B = -(u, curl q), C = (1/eps curl p, curl q); right block D = (p, rot v).
    With ``gauge='multiplier'`` one bordered row enforces the zero mu-mean
    of p.  ``bc='mixed_slit'`` constrains V on the exterior only and p on
    the slit instead of the mean condition.
    """
    if mesh.dim != 2:
        raise AssemblyError("ls_maxwell_2d requires a 2D mesh")
    coeff = spec.coeff
    if spec.bc == "mixed_slit":
        v_tags = (meshmod.EXTERIOR,)
        q_constraint = ("scalar_zero", _slit_tags(mesh))
        use_multiplier = False
    else:
        v_tags = _all_tags(mesh)
        q_constraint = None
        use_multiplier = spec.gauge == "multiplier"
    V = build_space(mesh, _vector_family(spec.elements_v), ("tangential_zero", v_tags))
    Q = build_space(mesh, spec.elements_q, q_constraint)

    A = assemble("eps_mass", V, V, coeff) + assemble("mu_inv_rot_rot", V, V, coeff)
    B = assemble("curl_to_vector", Q, V, coeff)
    C = assemble("eps_inv_curl_curl", Q, Q, coeff)
    D = assemble("rot_pairing", V, Q, coeff)

    A, vf, _ = eliminate_constraints(A, V, V)
    B, qf, _ = eliminate_constraints(B, Q, V)
    C, _, _ = eliminate_constraints(C, Q, Q)
    D, _, _ = eliminate_constraints(D, V, Q)
    nU, nQ = A.shape[0], C.shape[0]

    blocks = {"A": A, "B": B, "C": C, "D": D}
    ranges = {"u": slice(0, nU), "p": slice(nU, nU + nQ)}
    if use_multiplier:
        m = assemble("mu_mean_row", None, Q, coeff)[:, qf]
        K = sparse.bmat([[A, B.T, _zeros(nU, 1)],
                         [B, C, m.T],
                         [_zeros(1, nU), m, None]], format="csr")
        M = sparse.bmat([[_zeros(nU, nU), D, _zeros(nU, 1)],
                         [_zeros(nQ, nU), _zeros(nQ, nQ), _zeros(nQ, 1)],
                         [_zeros(1, nU), _zeros(1, nQ), _zeros(1, 1)]],
                        format="csr")
        ranges["lm"] = slice(nU + nQ, nU + nQ + 1)
        blocks["mean_row"] = m
        blocks["Bfull"] = sparse.vstack([B, _zeros(1, nU)], format="csr")
        blocks["Cfull"] = sparse.bmat([[C, m.T], [m, None]], format="csr")
    else:
        K = sparse.bmat([[A, B.T], [B, C]], format="csr")
        M = sparse.bmat([[_zeros(nU, nU), D],
                         [_zeros(nQ, nU), _zeros(nQ, nQ)]], format="csr")
        blocks["Bfull"], blocks["Cfull"] = B, C
    pencil = BlockPencil(K, M, ranges, primary="p", blocks=blocks,
                         spaces={"u": (V, vf), "p": (Q, qf)},
                         flags={"kind": "ls2d", "bc": spec.bc,
                                "gauge": "multiplier" if use_multiplier else "none",
                                "singular": spec.bc == "standard" and not use_multiplier})
    return validate_pencil(pencil)


def ls_maxwell_3d_threefield(mesh, spec):
    """Three-dimensional three-field pencil: edge elements for both vector
    fields, a nodal multiplier field enforcing the weighted divergence
    gauge, and one scalar row fixing the multiplier's mean."""
    if mesh.dim != 3:
        raise AssemblyError("ls_maxwell_3d_threefield requires a 3D mesh")
    if spec.elements_v != "ned0" or spec.elements_q != "ned0":
        raise AssemblyError("the three-field system uses edge elements for V and Q")
    coeff = spec.coeff
    V = build_space(mesh, "ned0", ("tangential_zero", _all_tags(mesh)))
    Q = build_space(mesh, "ned0", None)
    W = build_space(mesh, "p1", None)

    A = assemble("eps_mass", V, V, coeff) + assemble("mu_inv_rot_rot", V, V, coeff)
    B = assemble("curl_to_vector", Q, V, coeff)
    C = assemble("eps_inv_curl_curl", Q, Q, coeff)
    D = assemble("rot_pairing", V, Q, coeff)
    Gw = assemble("grad_pairing_3d", Q, W, coeff)
    mw = assemble("mu_mean_row", None, W, CoefficientField.unit())

    A, vf, _ = eliminate_constraints(A, V, V)
    B, qf, _ = eliminate_constraints(B, Q, V)
    C, _, _ = eliminate_constraints(C, Q, Q)
    D, _, _ = eliminate_constraints(D, V, Q)
    Gw, _, _ = eliminate_constraints(Gw, Q, W)
    nU, nQ, nW = A.shape[0], C.shape[0], W.num_dofs

    K = sparse.bmat([
        [A, B.T, _zeros(nU, nW), _zeros(nU, 1)],
        [B, C, Gw, _zeros(nQ, 1)],
        [_zeros(nW, nU), Gw.T, _zeros(nW, nW), mw.T],
        [_zeros(1, nU), _zeros(1, nQ), mw, None]], format="csr")
    M = sparse.bmat([
        [_zeros(nU, nU), D, _zeros(nU, nW), _zeros(nU, 1)],
        [_zeros(nQ, nU), _zeros(nQ, nQ), _zeros(nQ, nW), _zeros(nQ, 1)],
        [_zeros(nW, nU), _zeros(nW, nQ), _zeros(nW, nW), _zeros(nW, 1)],
        [_zeros(1, nU), _zeros(1, nQ), _zeros(1, nW), _zeros(1, 1)]],
        format="csr")
    ranges = {"u": slice(0, nU), "p": slice(nU, nU + nQ),
              "w": slice(nU + nQ, nU + nQ + nW),
              "lm": slice(nU + nQ + nW, nU + nQ + nW + 1)}
    blocks = {
        "A": A, "B": B, "C": C, "D": D, "G": Gw, "mean_row": mw,
        "Bfull": sparse.vstack([B, _zeros(nW + 1, nU)], format="csr"),
        "Cfull": sparse.bmat([[C, Gw, _zeros(nQ, 1)],
                              [Gw.T, _zeros(nW, nW), mw.T],
                              [_zeros(1, nQ), mw, None]], format="csr"),
    }
    pencil = BlockPencil(K, M, ranges, primary="p", blocks=blocks,
                         spaces={"u": (V, vf), "p": (Q, qf), "w": (W, np.arange(nW))},
                         flags={"kind": "ls3d_threefield"})
    return validate_pencil(pencil)


def ls_maxwell_3d_twofield_nodal(mesh, spec):
    """Ungauged two-field nodal pencil in 3D.

    Both fields are continuous piecewise-linear vectors and no gauge
    condition is imposed, so the left-hand matrix is exactly singular on
    curl-free directions; the pencil is flagged as outside the covered
    theory and relies on the degenerate-mode filtering downstream.
    """
    if mesh.dim != 3:
        raise AssemblyError("ls_maxwell_3d_twofield_nodal requires a 3D mesh")
    coeff = spec.coeff
    V = build_space(mesh, "vector_p1", ("tangential_zero", _all_tags(mesh)))
    Q = build_space(mesh, "vector_p1", None)

    A = assemble("eps_mass", V, V, coeff) + assemble("mu_inv_rot_rot", V, V, coeff)
    B = assemble("curl_to_vector", Q, V, coeff)
    C = assemble("eps_inv_curl_curl", Q, Q, coeff)
    D = assemble("rot_pairing", V, Q, coeff)

    A, vf, _ = eliminate_constraints(A, V, V)
    B, qf, _ = eliminate_constraints(B, Q, V)
    C, _, _ = eliminate_constraints(C, Q, Q)
    D, _, _ = eliminate_constraints(D, V, Q)
    nU, nQ = A.shape[0], C.shape[0]

    K = sparse.bmat([[A, B.T], [B, C]], format="csr")
    M = sparse.bmat([[_zeros(nU, nU), D],
                     [_zeros(nQ, nU), _zeros(nQ, nQ)]], format="csr")
    ranges = {"u": slice(0, nU), "p": slice(nU, nU + nQ)}
    blocks = {"A": A, "B": B, "C": C, "D": D, "Bfull": B, "Cfull": C}
    pencil = BlockPencil(K, M, ranges, primary="p", blocks=blocks,
                         spaces={"u": (V, vf), "p": (Q, qf)},
                         flags={"kind": "ls3d_twofield_nodal",
                                "theory_covered": False, "singular": True})
    return validate_pencil(pencil)


def galerkin_laplace(mesh, bc="standard"):
    """Standard Galerkin pencil (stiffness, mass) for the Laplace
    eigenproblem on nodal P1.

    ``bc='standard'`` is the pure Neumann problem, whose zero eigenvalue
    (the constant) is marked for dropping downstream; ``bc='mixed_slit'``
    imposes the Dirichlet condition on the slit tags only.
    """
    if bc == "mixed_slit":
        constraint = ("scalar_zero", _slit_tags(mesh))
        drop = False
    else:
        constraint = None
        drop = True
    P = build_space(mesh, "p1", constraint)
    K = assemble("stiffness_laplace", P, P)
    Mm = assemble("mass_scalar", P, P)
    K, pf, _ = eliminate_constraints(K, P, P)
    Mm, _, _ = eliminate_constraints(Mm, P, P)
    return SymmetricPencil(K, Mm, drop_near_zero=drop, space=(P, pf),
                           flags={"kind": "galerkin_laplace", "bc": bc})


def curlcurl_edge(mesh, coeff=None):
    """Reference curl-curl pencil ((1/mu rot u, rot v), (eps u, v)) on edge
    elements with the tangential boundary condition.

    The discrete-gradient kernel basis is attached so solvers can deflate
    the zero modes; any near-zero eigenvalues that still appear are dropped
    by the study layer.
    """
    if mesh.dim != 2:
        raise AssemblyError("curlcurl_edge is used as a 2D reference")
    coeff = coeff or CoefficientField.unit()
    tags = _all_tags(mesh)
    V = build_space(mesh, "ned0", ("tangential_zero", tags))
    P = build_space(mesh, "p1", ("scalar_zero", tags))
    S = assemble("mu_inv_rot_rot", V, V, coeff)
    Mm = assemble("eps_mass", V, V, coeff)
    S, vf, _ = eliminate_constraints(S, V, V)
    Mm, _, _ = eliminate_constraints(Mm, V, V)
    G = discrete_gradient(V, P)
    Gred = G[vf][:, P.free_dofs()].tocsr()
    return SymmetricPencil(S, Mm, kernel_basis=Gred, drop_near_zero=True,
                           space=(V, vf), flags={"kind": "curlcurl_edge"})


def build_pencil(mesh, spec):
    """Dispatch a :class:`FormulationSpec` to its builder.

    The builder's spaces and forms share one set of per-mesh work (cell
    geometry, edges, dof maps, sparsity patterns), dropped on return."""
    with _per_build(mesh):
        if spec.kind == "ls2d":
            return ls_maxwell_2d(mesh, spec)
        if spec.kind == "ls3d_threefield":
            return ls_maxwell_3d_threefield(mesh, spec)
        if spec.kind == "ls3d_twofield_nodal":
            return ls_maxwell_3d_twofield_nodal(mesh, spec)
        if spec.kind == "galerkin_laplace":
            return galerkin_laplace(mesh, spec.bc)
        if spec.kind == "curlcurl_edge":
            return curlcurl_edge(mesh, spec.coeff)
    raise AssemblyError(f"unknown formulation kind {spec.kind!r}")

"""Builders turning a mesh, element choice, coefficients and boundary-condition
mode into an assembled eigenvalue pencil.

Least-squares first-order formulations of the Maxwell eigenproblem in 2D
(two fields plus an optional mean-value multiplier) and 3D (three fields
with a gradient multiplier, or the ungauged two-field nodal variant), plus
the two reference discretizations used for comparisons: the Galerkin
Laplacian and the curl-curl operator on edge elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sparse

from . import mesh as meshmod
from .assembly import (AssemblyError, CoefficientField, _per_build, assemble,
                       build_space, discrete_gradient, eliminate_constraints)
from .pencil import BlockPencil, SymmetricPencil, validate_pencil


@dataclass(frozen=True)
class FormulationSpec:
    """Element pairing, gauge mode, boundary-condition mode and coefficients
    for one formulation.

    ``elements_v`` is 'ned0' or a nodal degree 'p1'/'p2' (vector-valued);
    ``elements_q`` is nodal in 2D and 'ned0' for the 3D three-field system.
    ``gauge`` selects the mean-value multiplier ('multiplier') or drops the
    constraint ('none').  The 3D least-squares kinds and the reference kinds
    fix some fields (:data:`_KINDS`), and ``bc='mixed_slit'``, whose slit
    condition on p replaces the mean condition, fixes ``gauge='none'``; a
    spec leaves such a field at its default (for ``coeff``: all values 1)
    or gives it the fixed value, else it is rejected, and the spec then
    holds the fixed value.
    """

    kind: str = "ls2d"
    elements_v: str = "ned0"
    elements_q: str = "p1"
    gauge: str = "multiplier"
    bc: str = "standard"
    coeff: CoefficientField = field(default_factory=CoefficientField.unit)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AssemblyError(f"unknown formulation kind {self.kind!r}")
        rules = [(self.kind, _KINDS[self.kind][1])]
        if self.bc == "mixed_slit":
            rules.append(("bc = 'mixed_slit'", {"gauge": "none"}))
        for who, fixed in rules:
            for name, want in fixed.items():
                got = getattr(self, name)
                if name == "coeff":
                    ok = set(got.eps.values()) | set(got.mu.values()) == {1.0}
                else:
                    ok = got in (want, _SPEC_DEFAULTS[name])
                if not ok:
                    raise AssemblyError(f"{who} fixes {name} = {want!r}, got {got!r}")
                object.__setattr__(self, name, want)
        if self.kind == "ls2d" and self.elements_q not in ("p1", "p2"):
            raise AssemblyError(f"ls2d takes elements_q = 'p1' or 'p2', "
                                f"got {self.elements_q!r}")
        if self.bc not in ("standard", "mixed_slit"):
            raise AssemblyError(f"unknown bc mode {self.bc!r}")
        if self.gauge not in ("multiplier", "none"):
            raise AssemblyError(f"unknown gauge mode {self.gauge!r}")


_SPEC_DEFAULTS = {f.name: f.default for f in fields(FormulationSpec)}
# kind -> (mesh dimension, None for any; the spec fields the kind fixes).
# The reference kinds read only bc (Galerkin) or coeff (curl-curl).
_KINDS = {
    "ls2d": (2, {}),
    "ls3d_threefield": (3, dict(elements_v="ned0", elements_q="ned0",
                                gauge="multiplier", bc="standard")),
    "ls3d_twofield_nodal": (3, dict(elements_v="p1", elements_q="p1",
                                    gauge="none", bc="standard")),
    "galerkin_laplace": (None, dict(elements_v="p1", elements_q="p1",
                                    gauge="none", coeff=CoefficientField.unit())),
    "curlcurl_edge": (2, dict(elements_v="ned0", elements_q="p1",
                              gauge="none", bc="standard")),
}


def _vector_family(name):
    if name == "ned0":
        return "ned0"
    if name in ("p1", "p2"):
        return "vector_" + name
    raise AssemblyError(f"unsupported V element {name!r}")


def _check_dim(mesh, kind):
    dim = _KINDS[kind][0]
    if dim is not None and mesh.dim != dim:
        raise AssemblyError(f"{kind} requires a {dim}D mesh")


def _all_tags(mesh):
    return tuple(sorted(set(mesh.facet_tags)))


def _slit_tags(mesh):
    tags = set(mesh.facet_tags)
    if not {meshmod.SLIT_TOP, meshmod.SLIT_BOTTOM} <= tags:
        raise AssemblyError("mixed_slit mode requires a slit mesh")
    return (meshmod.SLIT_TOP, meshmod.SLIT_BOTTOM)


def _ls_pencil(mesh, spec):
    """Least-squares pencil of a spec of kind 'ls2d', 'ls3d_threefield' or
    'ls3d_twofield_nodal'.

    K = [[A, B^T], [B, C]] with A = (eps u, v) + (1/mu rot u, rot v), B =
    -(u, curl q), C = (1/eps curl p, curl q), bordered by the gauge rows;
    M holds only D = (p, rot v) = -B^T in the (u, p) block.  With
    ``gauge='multiplier'`` a scalar potential has its mu-mean fixed by one
    row; an edge potential is gauged by a nodal multiplier w through (q,
    grad w), and the mean of w is fixed instead; ``Gd``, the discrete
    gradient on the free dofs, maps w to gradients, which C and B^T
    annihilate.  ``bc='mixed_slit'`` constrains V on the exterior only and
    p on the slit instead of the mean condition.  K is formed once from
    one block of each symmetric pair, keyed by (row field, column field),
    and the transposes of the off-diagonal ones.
    """
    _check_dim(mesh, spec.kind)
    v_family = _vector_family(spec.elements_v)
    q_family = spec.elements_q if mesh.dim == 2 else _vector_family(spec.elements_q)
    gauge, bc, coeff = spec.gauge, spec.bc, spec.coeff
    v_tags, q_constraint = _all_tags(mesh), None
    if bc == "mixed_slit":
        v_tags, q_constraint = (meshmod.EXTERIOR,), ("scalar_zero", _slit_tags(mesh))
    with _per_build(mesh):
        V = build_space(mesh, v_family, ("tangential_zero", v_tags))
        Q = build_space(mesh, q_family, q_constraint)
        A = assemble("eps_mass", V, V, coeff) + assemble("mu_inv_rot_rot", V, V, coeff)
        B = assemble("curl_to_vector", Q, V, coeff)
        C = assemble("eps_inv_curl_curl", Q, Q, coeff)
        D = assemble("rot_pairing", V, Q, coeff)

        A, vf, _ = eliminate_constraints(A, V, V)
        B, qf, _ = eliminate_constraints(B, Q, V)
        C, _, _ = eliminate_constraints(C, Q, Q)
        D, _, _ = eliminate_constraints(D, V, Q)

        blocks = {"A": A, "B": B, "C": C, "D": D}
        spaces = {"u": (V, vf), "p": (Q, qf)}
        sizes = {"u": A.shape[0], "p": C.shape[0]}
        half = {("u", "u"): A, ("p", "u"): B, ("p", "p"): C}
        if gauge == "multiplier":
            if Q.kind == "edge":
                W = build_space(mesh, "p1", None)
                G = assemble("grad_pairing_3d", Q, W, coeff)
                G, _, wf = eliminate_constraints(G, Q, W)
                m = assemble("mu_mean_row", None, W, coeff)[:, wf]
                blocks["G"], spaces["w"], sizes["w"] = G, (W, wf), len(wf)
                blocks["Gd"], _, _ = eliminate_constraints(discrete_gradient(Q, W), Q, W)
                half[("p", "w")], half[("lm", "w")] = G, m
            else:
                m = assemble("mu_mean_row", None, Q, coeff)[:, qf]
                half[("lm", "p")] = m
            blocks["mean_row"], sizes["lm"] = m, 1
    ranges, start = {}, 0
    for name, size in sizes.items():
        ranges[name] = slice(start, start + size)
        start += size
    K = _from_blocks(ranges, half, symmetric=True)
    M = _from_blocks(ranges, {("u", "p"): D})
    pencil = BlockPencil(K, M, ranges, blocks=blocks, spaces=spaces,
                         flags={"kind": spec.kind, "bc": bc, "gauge": gauge,
                                "theory_covered": spec.kind != "ls3d_twofield_nodal"})
    return validate_pencil(pencil)


def _from_blocks(ranges, grid, symmetric=False):
    """The CSR matrix of the CSR blocks ``grid[(row field, column field)]``
    at the offsets of ``ranges``, with the transpose of each off-diagonal
    block mirrored when ``symmetric``; one COO-to-CSR pass over all
    entries."""
    parts = []
    for (r, c), S in grid.items():
        i = np.repeat(np.arange(ranges[r].start, ranges[r].stop), np.diff(S.indptr))
        j = S.indices + ranges[c].start
        parts.append((i, j, S.data))
        if symmetric and r != c:
            parts.append((j, i, S.data))
    i, j, data = (np.concatenate(x) for x in zip(*parts))
    n = max(sl.stop for sl in ranges.values())
    return sparse.csr_matrix((data, (i, j)), shape=(n, n))


def ls_maxwell_2d(mesh, spec):
    """Two-dimensional least-squares pencil: V edge or vector nodal, p
    nodal, with the mean-value multiplier unless ``spec.gauge='none'``."""
    return _ls_pencil(mesh, replace(spec, kind="ls2d"))


def ls_maxwell_3d_threefield(mesh, spec):
    """Three-dimensional three-field pencil: edge elements for both vector
    fields, a nodal multiplier field enforcing the weighted divergence
    gauge, and one scalar row fixing the multiplier's mean."""
    return _ls_pencil(mesh, replace(spec, kind="ls3d_threefield"))


def ls_maxwell_3d_twofield_nodal(mesh, spec):
    """Ungauged two-field nodal pencil in 3D.

    Both fields are continuous piecewise-linear vectors and no gauge
    condition is imposed, so the left-hand matrix is exactly singular on
    curl-free directions; the pencil is flagged as outside the covered
    theory.  :func:`~lsmaxwell.pencil.schur_eigs` solves it like the gauged
    pencils: its refined solve with the singular block C is only asked for
    right-hand sides B u, which lie in range(C), so no filter is needed.
    """
    return _ls_pencil(mesh, replace(spec, kind="ls3d_twofield_nodal"))


def galerkin_laplace(mesh, bc="standard"):
    """Standard Galerkin pencil (stiffness, mass) for the Laplace
    eigenproblem on nodal P1.

    ``bc='standard'`` is the pure Neumann problem, whose kernel (the
    constants) is attached as the kernel basis; ``bc='mixed_slit'``
    imposes the Dirichlet condition on the slit tags only.
    """
    constraint = ("scalar_zero", _slit_tags(mesh)) if bc == "mixed_slit" else None
    with _per_build(mesh):
        P = build_space(mesh, "p1", constraint)
        K, pf, _ = eliminate_constraints(assemble("stiffness_laplace", P, P), P, P)
        Mm, _, _ = eliminate_constraints(assemble("mass_scalar", P, P), P, P)
    ones = None if constraint else sparse.csr_matrix(np.ones((len(pf), 1)))
    return SymmetricPencil(K, Mm, kernel_basis=ones, space=(P, pf),
                           flags={"kind": "galerkin_laplace", "bc": bc})


def curlcurl_edge(mesh, coeff=None):
    """Reference curl-curl pencil ((1/mu rot u, rot v), (eps u, v)) on edge
    elements with the tangential boundary condition.

    The discrete gradients of the interior nodal functions span the
    kernel and are attached as the kernel basis, which the solver deflates.
    """
    _check_dim(mesh, "curlcurl_edge")
    coeff = coeff or CoefficientField.unit()
    tags = _all_tags(mesh)
    with _per_build(mesh):
        V = build_space(mesh, "ned0", ("tangential_zero", tags))
        P = build_space(mesh, "p1", ("scalar_zero", tags))
        S, vf, _ = eliminate_constraints(assemble("mu_inv_rot_rot", V, V, coeff), V, V)
        Mm, _, _ = eliminate_constraints(assemble("eps_mass", V, V, coeff), V, V)
        G, _, _ = eliminate_constraints(discrete_gradient(V, P), V, P)
    return SymmetricPencil(S, Mm, kernel_basis=G, space=(V, vf),
                           flags={"kind": "curlcurl_edge"})


def build_pencil(mesh, spec):
    """Dispatch a :class:`FormulationSpec` to its builder; the spec has
    already rejected an unknown kind."""
    if spec.kind == "galerkin_laplace":
        return galerkin_laplace(mesh, spec.bc)
    if spec.kind == "curlcurl_edge":
        return curlcurl_edge(mesh, spec.coeff)
    return _ls_pencil(mesh, spec)

"""Reference-element bases and simplex quadrature.

Lagrange bases of degree 1 and 2, lowest-order edge (Whitney) elements in
2D and 3D, and conical-product Gauss rules on the reference triangle and
tetrahedron.  The reference simplices are spanned by the origin and the
unit coordinate vectors; barycentric coordinates are ordered with the
origin function first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

# local edges (i, j) with i < j; ascending order fixes the reference
# orientation of each edge dof
REF_EDGES = {
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}

MAX_QUAD_DEGREE = 6


class ElementError(ValueError):
    """Unsupported degree, dimension or reference point."""


def _barycentric(points, dim):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam0 = 1.0 - pts.sum(axis=1)
    return np.column_stack([lam0, pts]), pts


def _bary_grads(dim):
    g = np.vstack([-np.ones(dim), np.eye(dim)])
    return g  # (dim+1, dim), gradient of each barycentric function


def eval_lagrange(k, dim, points):
    """Evaluate the degree-k Lagrange basis on the reference simplex.

    Returns (values, gradients) with shapes (npts, ndof) and
    (npts, ndof, dim).  Dof order: vertices, then one dof per edge in
    ``REF_EDGES`` order (k = 2).
    """
    if k not in (1, 2):
        raise ElementError(f"unsupported Lagrange degree {k}")
    if dim not in (2, 3):
        raise ElementError(f"unsupported dimension {dim}")
    lam, pts = _barycentric(points, dim)
    g = _bary_grads(dim)
    npts = len(lam)
    nv = dim + 1
    if k == 1:
        vals = lam
        grads = np.broadcast_to(g, (npts, nv, dim)).copy()
        return vals, grads
    edges = REF_EDGES[dim]
    nd = nv + len(edges)
    vals = np.empty((npts, nd))
    grads = np.empty((npts, nd, dim))
    for i in range(nv):
        vals[:, i] = lam[:, i] * (2 * lam[:, i] - 1)
        grads[:, i, :] = (4 * lam[:, i] - 1)[:, None] * g[i]
    for e, (i, j) in enumerate(edges):
        vals[:, nv + e] = 4 * lam[:, i] * lam[:, j]
        grads[:, nv + e, :] = 4 * (lam[:, i][:, None] * g[j] + lam[:, j][:, None] * g[i])
    return vals, grads


def eval_nedelec2d(points):
    """Whitney edge functions on the reference triangle.

    Returns (values, rots) with shapes (npts, 3, 2) and (npts, 3); one dof
    per edge in ``REF_EDGES[2]`` order, oriented by ascending vertex index.
    The rot of each basis function is constant.
    """
    lam, _ = _barycentric(points, 2)
    g = _bary_grads(2)
    npts = len(lam)
    vals = np.empty((npts, 3, 2))
    rots = np.empty((npts, 3))
    for e, (i, j) in enumerate(REF_EDGES[2]):
        vals[:, e, :] = lam[:, i][:, None] * g[j] - lam[:, j][:, None] * g[i]
        rots[:, e] = 2.0 * (g[i, 0] * g[j, 1] - g[i, 1] * g[j, 0])
    return vals, rots


def eval_nedelec3d(points):
    """Whitney edge functions on the reference tetrahedron.

    Returns (values, curls) with shapes (npts, 6, 3); curls are constant
    per basis function.
    """
    lam, _ = _barycentric(points, 3)
    g = _bary_grads(3)
    npts = len(lam)
    vals = np.empty((npts, 6, 3))
    curls = np.empty((npts, 6, 3))
    for e, (i, j) in enumerate(REF_EDGES[3]):
        vals[:, e, :] = lam[:, i][:, None] * g[j] - lam[:, j][:, None] * g[i]
        curls[:, e, :] = 2.0 * np.cross(g[i], g[j])
    return vals, curls


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference simplex.

    ``points`` are barycentric coordinates (nq, dim+1); ``weights`` sum to
    the reference volume (1/2 triangle, 1/6 tetrahedron).
    """

    dim: int
    degree: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def cartesian(self):
        return self.points[:, 1:]


def _gauss01(m):
    x, w = roots_legendre(m)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi01(m, alpha):
    # nodes/weights for int_0^1 (1-u)^alpha g(u) du
    x, w = roots_jacobi(m, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def quadrature(dim, degree):
    """Conical-product Gauss rule exact for total degree <= ``degree``."""
    if dim not in (2, 3):
        raise ElementError(f"unsupported dimension {dim}")
    if not (1 <= degree <= MAX_QUAD_DEGREE):
        raise ElementError(f"unsupported quadrature degree {degree}")
    m = (degree + 2) // 2
    if dim == 2:
        xi, wxi = _gauss01(m)
        eta, weta = _jacobi01(m, 1.0)
        x = np.outer(xi, 1.0 - eta).ravel()
        y = np.tile(eta, m)
        w = np.outer(wxi, weta).ravel()
        pts = np.column_stack([x, y])
    else:
        xi, wxi = _gauss01(m)
        eta, weta = _jacobi01(m, 1.0)
        zeta, wzeta = _jacobi01(m, 2.0)
        pts = []
        w = []
        for a, wa in zip(xi, wxi):
            for b, wb in zip(eta, weta):
                for c, wc in zip(zeta, wzeta):
                    pts.append((a * (1 - b) * (1 - c), b * (1 - c), c))
                    w.append(wa * wb * wc)
        pts = np.array(pts)
        w = np.array(w)
    lam0 = 1.0 - pts.sum(axis=1)
    bary = np.column_stack([lam0, pts])
    return QuadratureRule(dim, degree, bary, w)

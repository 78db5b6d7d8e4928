"""Reference-element bases and simplex quadrature.

One reference simplex in every dimension: it is spanned by the origin and
the unit coordinate vectors, and barycentric coordinates are ordered with
the origin function first.  On it live the Lagrange bases of degree 1 and 2,
the lowest-order edge (Whitney) functions with their rot (2D) or curl (3D)
through one Levi-Civita table, and conical-product Gauss rules, each a
single definition that takes the dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.special import roots_jacobi

# local edges (i, j) with i < j of the reference simplex of each dimension;
# ascending order fixes the reference orientation of each edge dof
REF_EDGES = {d: tuple(itertools.combinations(range(d + 1), 2)) for d in (1, 2, 3)}

MAX_QUAD_DEGREE = 6


def _levi_civita(dim):
    eps = np.zeros((dim,) * dim)
    for p in itertools.permutations(range(dim)):
        eps[p] = (-1.0) ** sum(a > b for a, b in itertools.combinations(p, 2))
    eps.flags.writeable = False
    return eps


# Levi-Civita tensors: rot u = LEVI_CIVITA[2][j, c] d_j u_c in 2D and
# (curl u)_i = LEVI_CIVITA[3][i, j, c] d_j u_c in 3D; LEVI_CIVITA[2] @ grad p
# is also the 2D vector curl (d_y p, -d_x p) of a scalar
LEVI_CIVITA = {d: _levi_civita(d) for d in (2, 3)}


class ElementError(ValueError):
    """Unsupported degree, dimension or reference point."""


def _check_dim(dim):
    if dim not in (2, 3):
        raise ElementError(f"unsupported dimension {dim}")


def _barycentric(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.column_stack([1.0 - pts.sum(axis=1), pts])


def _bary_grads(dim):
    # (dim+1, dim), gradient of each barycentric function
    return np.vstack([-np.ones(dim), np.eye(dim)])


def eval_lagrange(k, dim, points):
    """Evaluate the degree-k Lagrange basis on the reference simplex.

    Returns (values, gradients) with shapes (npts, ndof) and
    (npts, ndof, dim).  Dof order: vertices, then one dof per edge in
    ``REF_EDGES`` order (k = 2).
    """
    if k not in (1, 2):
        raise ElementError(f"unsupported Lagrange degree {k}")
    _check_dim(dim)
    lam = _barycentric(points)
    g = _bary_grads(dim)
    if k == 1:
        return lam, np.broadcast_to(g, (len(lam),) + g.shape).copy()
    i, j = np.array(REF_EDGES[dim]).T
    vals = np.hstack([lam * (2 * lam - 1), 4 * lam[:, i] * lam[:, j]])
    grads = np.hstack([(4 * lam - 1)[:, :, None] * g,
                       4 * (lam[:, i, None] * g[j] + lam[:, j, None] * g[i])])
    return vals, grads


def eval_nedelec(dim, points):
    """Whitney edge functions on the reference simplex.

    Returns (values, curls): values have shape (npts, nedges, dim), one dof
    per edge in ``REF_EDGES[dim]`` order, oriented by ascending vertex
    index.  The curl of each basis function is constant: a scalar rot of
    shape (npts, 3) in 2D, a vector of shape (npts, 6, 3) in 3D.
    """
    _check_dim(dim)
    lam = _barycentric(points)
    g = _bary_grads(dim)
    i, j = np.array(REF_EDGES[dim]).T
    # take, where fancy indexing would leave the values in Fortran order
    li, lj = (lam.take(k, axis=1)[:, :, None] for k in (i, j))
    vals = li * g[j] - lj * g[i]
    # curl(l_i grad l_j - l_j grad l_i) = 2 grad l_i x grad l_j
    curl = 2.0 * np.einsum("...ab,ea,eb->e...", LEVI_CIVITA[dim], g[i], g[j])
    return vals, np.broadcast_to(curl, (len(lam),) + curl.shape).copy()


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


def _jacobi01(m, alpha):
    # nodes/weights for int_0^1 (1-u)^alpha g(u) du
    x, w = roots_jacobi(m, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def quadrature(dim, degree):
    """Conical-product Gauss rule exact for total degree <= ``degree``.

    Coordinate k is ``u_k (1 - u_{k+1}) ... (1 - u_{dim-1})`` with ``u_k``
    on the m-point Gauss-Jacobi rule of weight (1 - u)^k; the points run
    over the tensor grid of the u_k in C order.
    """
    _check_dim(dim)
    if not (1 <= degree <= MAX_QUAD_DEGREE):
        raise ElementError(f"unsupported quadrature degree {degree}")
    m = (degree + 2) // 2
    nodes, weights = zip(*(_jacobi01(m, float(k)) for k in range(dim)))
    u = np.meshgrid(*nodes, indexing="ij")
    x = [reduce(lambda xk, ul: xk * (1 - ul), u[k + 1:], u[k]).ravel() for k in range(dim)]
    w = reduce(np.multiply, np.meshgrid(*weights, indexing="ij")).ravel()
    return QuadratureRule(dim, degree, _barycentric(np.column_stack(x)), w)

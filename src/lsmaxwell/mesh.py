"""Simplicial meshes for the benchmark domains.

Structured triangulations of squares, the L-shaped domain, the cracked
(slit) square, and structured tetrahedral cubes.  All constructors are
deterministic; meshes are treated as immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

EXTERIOR = "exterior"
SLIT_TOP = "slit_top"
SLIT_BOTTOM = "slit_bottom"

_SNAP = 1e-12


class MeshError(ValueError):
    """Invalid mesh parameters or a violated structural invariant."""


@dataclass
class Mesh:
    """A conforming simplicial mesh with tagged boundary facets.

    Attributes
    ----------
    dim : int
        Geometric dimension, 2 or 3.
    vertices : ndarray, shape (nv, dim)
        Vertex coordinates.
    cells : ndarray, shape (nc, dim+1)
        Vertex indices per cell, positively oriented.
    boundary_facets : ndarray, shape (nf, dim)
        Vertex indices of facets adjacent to exactly one cell, sorted.
    facet_tags : ndarray, shape (nf,)
        Symbolic tag per boundary facet.
    cell_tags : ndarray, shape (nc,)
        Integer subdomain label per cell (default 0).
    crack_pairs : ndarray, shape (k, 2)
        Pairs (bottom, top) of geometrically coincident but topologically
        distinct vertices along a slit.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    facet_tags: np.ndarray
    cell_tags: np.ndarray = None
    crack_pairs: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.cell_tags is None:
            self.cell_tags = np.zeros(len(self.cells), dtype=np.int64)
        if self.crack_pairs is None:
            self.crack_pairs = np.zeros((0, 2), dtype=np.int64)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_facets(self):
        return len(self.boundary_facets)

    def signed_volumes(self):
        return signed_volumes(self.vertices, self.cells, self.dim)

    def barycenters(self):
        return self.vertices[self.cells].mean(axis=1)

    def boundary_vertices(self):
        return np.unique(self.boundary_facets)

    def facets_with_tags(self, tags):
        mask = np.isin(self.facet_tags, list(tags))
        return self.boundary_facets[mask]


def signed_volumes(vertices, cells, dim):
    p = vertices[cells]
    e = p[:, 1:, :] - p[:, :1, :]
    if dim == 2:
        return 0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
    return np.linalg.det(e) / 6.0


def _unique_rows(rows, return_inverse=False, return_counts=False):
    """``np.unique(rows, axis=0)`` for an integer array, by one lexsort and
    an adjacent-difference mask.  Rows are compared column by column, never
    packed into one integer key, so no vertex count overflows."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    new = np.ones(len(srt), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    out = (srt[new],)
    if return_inverse:
        inv = np.empty(len(rows), dtype=np.intp)
        inv[order] = np.cumsum(new) - 1
        out += (inv,)
    if return_counts:
        out += (np.diff(np.append(np.flatnonzero(new), len(srt))),)
    return out if len(out) > 1 else out[0]


def unique_edges(cells):
    """All distinct vertex pairs appearing in a cell, as sorted rows in
    lexicographic order."""
    nl = cells.shape[1]
    pairs = [np.sort(cells[:, [i, j]], axis=1)
             for i in range(nl) for j in range(i + 1, nl)]
    return _unique_rows(np.vstack(pairs))


def _orient_positive(vertices, cells, dim):
    vol = signed_volumes(vertices, cells, dim)
    flip = vol < 0
    if flip.any():
        cells = cells.copy()
        cells[flip, -2], cells[flip, -1] = cells[flip, -1].copy(), cells[flip, -2].copy()
    return cells


def _facets_of_cells(cells, dim):
    """(facet, cell) incidence: each row a sorted facet vertex tuple."""
    nc, nl = cells.shape
    idx = [[j for j in range(nl) if j != i] for i in range(nl)]
    facets = np.concatenate([cells[:, k] for k in idx], axis=0)
    facets.sort(axis=1)
    return facets


def boundary_facets_of(cells, dim):
    """Facets adjacent to exactly one cell, lexicographically sorted."""
    facets = _facets_of_cells(cells, dim)
    uniq, counts = _unique_rows(facets, return_counts=True)
    if counts.max() > 2:
        raise MeshError("non-manifold facet encountered")
    return uniq[counts == 1]


def validate(mesh):
    """Check orientation, facet conformity and crack-pair invariants."""
    vol = mesh.signed_volumes()
    if not (vol > 0).all():
        raise MeshError("mesh has non-positively oriented cells")
    bd = boundary_facets_of(mesh.cells, mesh.dim)
    got = _unique_rows(mesh.boundary_facets)
    if bd.shape != got.shape or not (bd == got).all():
        raise MeshError("boundary facet set does not match cell adjacency")
    pairs = mesh.crack_pairs
    if not len(pairs):
        return mesh
    if not np.allclose(mesh.vertices[pairs[:, 0]], mesh.vertices[pairs[:, 1]]):
        raise MeshError("crack pair vertices are not coincident")
    # a cell holds both vertices of a pair iff the sorted pair is one of its
    # sorted vertex pairs; i == j catches a pair (a, a) as well
    nl = mesh.cells.shape[1]
    held = np.vstack([np.sort(mesh.cells[:, [i, j]], axis=1)
                      for i in range(nl) for j in range(i, nl)])
    rows = np.vstack([_unique_rows(held), _unique_rows(np.sort(pairs, axis=1))])
    if _unique_rows(rows, return_counts=True)[1].max() > 1:
        raise MeshError("a cell references both sides of a crack pair")
    return mesh


# corner triples per quad split, indexing the quad's (v00, v10, v01, v11,
# centre); every triangle is positively oriented
_SPLITS = {
    "right": [(0, 1, 3), (0, 3, 2)],
    "left": [(0, 1, 2), (1, 3, 2)],
    "crisscross": [(0, 1, 4), (1, 3, 4), (3, 2, 4), (2, 0, 4)],
}


def _grid_mesh(xs, ys, cxs, cys, keep, diagonal):
    """Triangulation of the quads ``keep[iy, ix]`` of the tensor grid
    ``xs`` x ``ys``, each split by ``diagonal`` through :data:`_SPLITS`.

    The grid vertices that a kept quad touches are numbered row by row (x
    fastest); a 'crisscross' split appends one centre (cxs[ix], cys[iy])
    per kept quad, in the same order.  Returns the validated mesh, every
    boundary facet tagged :data:`EXTERIOR`.
    """
    if diagonal not in _SPLITS:
        raise MeshError(f"unknown diagonal {diagonal!r}")
    used = np.zeros((len(ys), len(xs)), dtype=bool)
    for dy in (0, 1):
        for dx in (0, 1):
            used[dy:len(ys) - 1 + dy, dx:len(xs) - 1 + dx] |= keep
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X[used], Y[used]])
    vid = np.cumsum(used).reshape(used.shape) - 1
    iy, ix = np.nonzero(keep)
    corners = [vid[iy, ix], vid[iy, ix + 1], vid[iy + 1, ix], vid[iy + 1, ix + 1]]
    if diagonal == "crisscross":
        corners.append(len(verts) + np.arange(len(ix)))
        verts = np.vstack([verts, np.column_stack([cxs[ix], cys[iy]])])
    cells = np.stack(corners, axis=1)[:, _SPLITS[diagonal]].reshape(-1, 3)
    cells = _orient_positive(verts, cells, 2)
    bf = boundary_facets_of(cells, 2)
    tags = np.array([EXTERIOR] * len(bf), dtype=object)
    return validate(Mesh(2, verts, cells, bf, tags))


def build_structured_square(n, side=math.pi, diagonal="right"):
    """Uniform triangulation of the square (0, side)^2 with n subdivisions
    per side: :func:`_grid_mesh` keeping every quad.

    ``diagonal`` selects how each grid quad is split: 'right' (lower-left to
    upper-right), 'left', or 'crisscross' (extra center vertex, 4 triangles).
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    if side <= 0:
        raise MeshError("side must be positive")
    xs = side * np.arange(n + 1) / n
    cs = (np.arange(n) + 0.5) * (side / n)
    return _grid_mesh(xs, xs, cs, cs, np.ones((n, n), dtype=bool), diagonal)


def build_lshape(n, diagonal="right"):
    """Triangulation of the L-shaped domain (-1,1)^2 minus the closed upper
    right unit square, with n subdivisions per unit length:
    :func:`_grid_mesh` on the 2n x 2n grid of (-1,1)^2, keeping every quad
    whose centre lies outside the open upper right quadrant.

    The 'crisscross' split is symmetric around the re-entrant corner, which
    nodal discretizations of singular fields need to converge at the full
    rate; single-diagonal splits are kept as the default for the documented
    vertex/cell counts.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = -1.0 + np.arange(2 * n + 1) / n
    cs = xs[:-1] + 0.5 / n
    keep = ~((cs[:, None] > 0) & (cs[None, :] > 0))
    return _grid_mesh(xs, xs, cs, cs, keep, diagonal)


def build_slit(n, diagonal="right"):
    """Triangulation of the square (-1,1)^2 with the segment (0,1)x{0}
    removed as an open crack: the square of side 2 with 2n subdivisions,
    shifted by -1.

    Vertices on the open slit are duplicated, the top copies appended in
    order of x; cells above the slit are relabelled onto the top copies,
    cells below keep the originals.  The tip (0,0) stays single.  Slit
    facets whose vertices are all top copies (or the tip) are tagged
    :data:`SLIT_TOP`, those on the originals :data:`SLIT_BOTTOM`.  As for
    :func:`build_lshape`, the 'crisscross' split restores the full nodal
    convergence rate of the tip-singular modes.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    base = build_structured_square(2 * n, 2.0, diagonal)
    verts = base.vertices - 1.0
    x, y = verts.T
    bottom = np.flatnonzero((np.abs(y) < _SNAP) & (x > _SNAP) & (x <= 1.0 + _SNAP))
    tip = np.flatnonzero((np.abs(y) < _SNAP) & (np.abs(x) < _SNAP))[:1]
    top = len(verts) + np.arange(len(bottom))
    relabel = np.arange(len(verts) + len(bottom))
    relabel[bottom] = top
    above = base.barycenters()[:, 1] > 1.0
    cells = np.where(above[:, None], relabel[base.cells], base.cells)
    verts = np.vstack([verts, verts[bottom]])
    bf = boundary_facets_of(cells, 2)
    tags = np.array([EXTERIOR] * len(bf), dtype=object)
    tags[np.isin(bf, np.append(top, tip)).all(axis=1)] = SLIT_TOP
    tags[np.isin(bf, np.append(bottom, tip)).all(axis=1)] = SLIT_BOTTOM
    crack_pairs = np.column_stack([bottom, top]).astype(np.int64)
    return validate(Mesh(2, verts, cells, bf, tags, crack_pairs=crack_pairs))


_KUHN_PERMS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]
# (6, 4, 3) corner offsets of the Kuhn tetrahedra: each walks from corner
# (0, 0, 0) to (1, 1, 1) one axis at a time, in the order of its permutation
_KUHN_PATHS = np.concatenate(
    [np.zeros((6, 1, 3), dtype=np.int64),
     np.cumsum(np.eye(3, dtype=np.int64)[np.array(_KUHN_PERMS)], axis=1)], axis=1)


def build_structured_cube(n, side=math.pi):
    """Uniform tetrahedral mesh of the cube (0, side)^3: each of the n^3
    subcubes is split into 6 tetrahedra sharing the main diagonal."""
    if n < 1:
        raise MeshError("n must be >= 1")
    if side <= 0:
        raise MeshError("side must be positive")
    xs = side * np.arange(n + 1) / n
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    # index (ix, iy, iz) -> flat with iz fastest
    verts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    # subcubes (ix, iy, iz) with iz fastest, six tetrahedra each
    r = np.arange(n)
    sub = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 1, 1, 3)
    corner = sub + _KUHN_PATHS
    cells = ((corner[..., 0] * (n + 1) + corner[..., 1]) * (n + 1)
             + corner[..., 2]).reshape(-1, 4)
    cells = _orient_positive(verts, cells, 3)
    bf = boundary_facets_of(cells, 3)
    tags = np.array([EXTERIOR] * len(bf), dtype=object)
    return validate(Mesh(3, verts, cells, bf, tags))


def perturb_interior(mesh, amplitude, seed):
    """Displace interior vertices by deterministic pseudo-random offsets of
    size at most ``amplitude`` times the local edge length.

    Boundary and crack vertices stay fixed; each move is redrawn until every
    incident cell keeps positive volume (bounded retries).
    """
    if not (0 <= amplitude < 0.5):
        raise MeshError("amplitude must be in [0, 0.5)")
    if amplitude == 0:
        return replace(mesh, vertices=mesh.vertices.copy())

    verts = mesh.vertices.copy()
    fixed = set(int(v) for v in mesh.boundary_vertices())
    fixed |= set(int(v) for v in mesh.crack_pairs.ravel())

    edges = unique_edges(mesh.cells)
    elen = np.sqrt(((verts[edges[:, 1]] - verts[edges[:, 0]]) ** 2).sum(axis=1))
    h_local = np.full(len(verts), np.inf)
    np.minimum.at(h_local, edges[:, 0], elen)
    np.minimum.at(h_local, edges[:, 1], elen)

    # cells incident to vertex v, ascending: incident[start[v]:start[v + 1]]
    flat = mesh.cells.ravel()
    order = np.argsort(flat, kind="stable")
    incident = order // mesh.cells.shape[1]
    start = np.searchsorted(flat[order], np.arange(len(verts) + 1))

    rng = np.random.default_rng(seed)
    for v in range(len(verts)):
        if v in fixed:
            continue
        old = verts[v].copy()
        cells_v = mesh.cells[incident[start[v]:start[v + 1]]]
        for _ in range(100):
            step = amplitude * h_local[v] * rng.uniform(-1.0, 1.0, size=mesh.dim)
            verts[v] = old + step
            if (signed_volumes(verts, cells_v, mesh.dim) > 0).all():
                break
        else:
            raise MeshError(f"could not keep orientation at vertex {v}")

    out = replace(mesh, vertices=verts)
    return validate(out)


def tag_subdomain(mesh, region, tag):
    """Tag all cells whose barycenter lies in the axis-aligned box ``region``
    given as (lower corner, upper corner); other cells keep their tag."""
    lo = np.asarray(region[0], dtype=float)
    hi = np.asarray(region[1], dtype=float)
    bary = mesh.barycenters()
    inside = ((bary >= lo) & (bary <= hi)).all(axis=1)
    cell_tags = mesh.cell_tags.copy()
    cell_tags[inside] = tag
    return replace(mesh, cell_tags=cell_tags)


def write_mesh_text(mesh):
    """Plain-text export: header 'dim nv nc nf', vertex coordinates, cell
    connectivity, then tagged boundary facets.  Nonzero cell tags follow as
    a 'cell_tags' line and one tag per cell, crack pairs as a
    'crack_pairs k' line and k 'bottom top' rows; a mesh with neither ends
    after its facets."""
    lines = [f"{mesh.dim} {mesh.num_vertices} {mesh.num_cells} {mesh.num_facets}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for c in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in c))
    for f, t in zip(mesh.boundary_facets, mesh.facet_tags):
        lines.append(" ".join(str(int(i)) for i in f) + f" {t}")
    if mesh.cell_tags.any():
        lines.append("cell_tags")
        lines += [str(int(t)) for t in mesh.cell_tags]
    if len(mesh.crack_pairs):
        lines.append(f"crack_pairs {len(mesh.crack_pairs)}")
        lines += [f"{int(a)} {int(b)}" for a, b in mesh.crack_pairs]
    return "\n".join(lines) + "\n"


def read_mesh_text(text):
    """Inverse of :func:`write_mesh_text`.  Malformed text (a header other
    than 'dim nv nc nf', a missing, short or non-numeric row, a vertex
    index outside 0..nv-1, or lines past the last section) raises
    :class:`MeshError`, and so does a mesh that :func:`validate` rejects,
    such as one with a misoriented cell or a facet list that does not match
    the cells."""
    rows = [r.split() for r in text.strip().splitlines()]
    pos = 1

    def table(count, width, dtype):
        nonlocal pos
        block, pos = rows[pos:pos + count], pos + count
        if count < 0 or len(block) < count or any(len(r) != width for r in block):
            raise MeshError(f"expected {count} rows of {width} entries "
                            f"from line {pos - count + 1}")
        return np.array(block, dtype=dtype).reshape(count, width)

    try:
        dim, nv, nc, nf = (int(t) for t in rows[0])
        if dim not in (2, 3) or min(nv, nc) < 1 or nf < 0:
            raise MeshError(f"bad header {' '.join(rows[0])!r}")
        verts = table(nv, dim, float)
        cells = table(nc, dim + 1, np.int64)
        facets = table(nf, dim + 1, object)
        tags, facets = facets[:, dim], facets[:, :dim].astype(np.int64)
        cell_tags = crack_pairs = None
        if pos < len(rows) and rows[pos] == ["cell_tags"]:
            pos += 1
            cell_tags = table(nc, 1, np.int64).ravel()
        if pos < len(rows) and rows[pos][0] == "crack_pairs":
            pos += 1
            crack_pairs = table(int(rows[pos - 1][1]), 2, np.int64)
    except (ValueError, IndexError) as e:
        raise MeshError(f"malformed mesh text: {e}") from e
    if pos < len(rows):
        raise MeshError(f"unexpected text at line {pos + 1}")
    for idx in (cells, facets, crack_pairs):
        if idx is not None and len(idx) and not (0 <= idx.min() and idx.max() < nv):
            raise MeshError("vertex index out of range")
    return validate(Mesh(dim, verts, cells, facets, tags, cell_tags, crack_pairs))

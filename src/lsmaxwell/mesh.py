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
    for a, b in mesh.crack_pairs:
        if not np.allclose(mesh.vertices[a], mesh.vertices[b]):
            raise MeshError("crack pair vertices are not coincident")
        both = np.isin(mesh.cells, a).any(axis=1) & np.isin(mesh.cells, b).any(axis=1)
        if both.any():
            raise MeshError("a cell references both sides of a crack pair")
    return mesh


def _grid_square(n, side, x0=0.0, y0=0.0):
    xs = x0 + side * np.arange(n + 1) / n
    ys = y0 + side * np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()])


def _quad_triangles(v00, v10, v01, v11, diagonal):
    if diagonal == "right":
        return [(v00, v10, v11), (v00, v11, v01)]
    if diagonal == "left":
        return [(v00, v10, v01), (v10, v11, v01)]
    raise MeshError(f"unknown diagonal {diagonal!r}")


def build_structured_square(n, side=math.pi, diagonal="right"):
    """Uniform triangulation of the square (0, side)^2 with n subdivisions
    per side.

    ``diagonal`` selects how each grid quad is split: 'right' (lower-left to
    upper-right), 'left', or 'crisscross' (extra center vertex, 4 triangles).
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    if side <= 0:
        raise MeshError("side must be positive")
    if diagonal not in ("right", "left", "crisscross"):
        raise MeshError(f"unknown diagonal {diagonal!r}")
    verts = _grid_square(n, side)
    vid = lambda ix, iy: iy * (n + 1) + ix
    cells = []
    if diagonal == "crisscross":
        centers = []
        h = side / n
        for iy in range(n):
            for ix in range(n):
                c = len(verts) + len(centers)
                centers.append([(ix + 0.5) * h, (iy + 0.5) * h])
                v00, v10 = vid(ix, iy), vid(ix + 1, iy)
                v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
                cells += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
        verts = np.vstack([verts, np.array(centers)])
    else:
        for iy in range(n):
            for ix in range(n):
                v00, v10 = vid(ix, iy), vid(ix + 1, iy)
                v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
                cells += _quad_triangles(v00, v10, v01, v11, diagonal)
    cells = _orient_positive(verts, np.array(cells, dtype=np.int64), 2)
    bf = boundary_facets_of(cells, 2)
    tags = np.array([EXTERIOR] * len(bf), dtype=object)
    return validate(Mesh(2, verts, cells, bf, tags))


def build_lshape(n, diagonal="right"):
    """Triangulation of the L-shaped domain (-1,1)^2 minus the closed upper
    right unit square, with n subdivisions per unit length.

    The 'crisscross' split is symmetric around the re-entrant corner, which
    nodal discretizations of singular fields need to converge at the full
    rate; single-diagonal splits are kept as the default for the documented
    vertex/cell counts.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    m = 2 * n
    coords = -1.0 + np.arange(m + 1) / n
    keep = {}
    verts = []
    for iy in range(m + 1):
        for ix in range(m + 1):
            x, y = coords[ix], coords[iy]
            if x > _SNAP and y > _SNAP:
                continue
            keep[(ix, iy)] = len(verts)
            verts.append([x, y])
    verts = np.array(verts)
    cells = []
    centers = []
    nv_grid = len(verts)
    for iy in range(m):
        for ix in range(m):
            cx = coords[ix] + 0.5 / n
            cy = coords[iy] + 0.5 / n
            if cx > 0 and cy > 0:
                continue
            v00, v10 = keep[(ix, iy)], keep[(ix + 1, iy)]
            v01, v11 = keep[(ix, iy + 1)], keep[(ix + 1, iy + 1)]
            if diagonal == "crisscross":
                c = nv_grid + len(centers)
                centers.append([cx, cy])
                cells += [(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)]
            else:
                cells += _quad_triangles(v00, v10, v01, v11, diagonal)
    if centers:
        verts = np.vstack([verts, np.array(centers)])
    cells = _orient_positive(verts, np.array(cells, dtype=np.int64), 2)
    bf = boundary_facets_of(cells, 2)
    tags = np.array([EXTERIOR] * len(bf), dtype=object)
    return validate(Mesh(2, verts, cells, bf, tags))


def build_slit(n, diagonal="right"):
    """Triangulation of the square (-1,1)^2 with the segment (0,1)x{0}
    removed as an open crack.

    Vertices on the open slit are duplicated; cells above the slit reference
    the top copies, cells below the originals.  The tip (0,0) stays single.
    As for :func:`build_lshape`, the 'crisscross' split restores the full
    nodal convergence rate of the tip-singular modes.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    m = 2 * n
    base = build_structured_square(m, 2.0, diagonal)
    verts = base.vertices - 1.0
    cells = base.cells.copy()

    on_slit = (np.abs(verts[:, 1]) < _SNAP) & (verts[:, 0] > _SNAP) & (verts[:, 0] <= 1.0 + _SNAP)
    slit_orig = np.flatnonzero(on_slit)
    slit_orig = slit_orig[np.argsort(verts[slit_orig, 0])]
    top_copy = {}
    new_verts = [verts]
    for k, v in enumerate(slit_orig):
        top_copy[v] = len(verts) + k
        new_verts.append(verts[v][None, :])
    verts = np.vstack(new_verts)

    bary_y = base.vertices[base.cells][:, :, 1].mean(axis=1) - 1.0
    above = bary_y > 0
    for v, t in top_copy.items():
        hit = above & (cells == v).any(axis=1)
        rows = np.flatnonzero(hit)
        for r in rows:
            cells[r, cells[r] == v] = t

    crack_pairs = np.array([[v, top_copy[v]] for v in slit_orig], dtype=np.int64)
    bf = boundary_facets_of(cells, 2)

    tip_candidates = np.flatnonzero(
        (np.abs(verts[:, 1]) < _SNAP) & (np.abs(verts[:, 0]) < _SNAP)
    )
    tip = int(tip_candidates[0])
    tops = set(int(t) for t in crack_pairs[:, 1]) | {tip}
    bottoms = set(int(b) for b in crack_pairs[:, 0]) | {tip}

    def slit_tag(facet):
        pts = verts[facet]
        if not (np.abs(pts[:, 1]) < _SNAP).all():
            return EXTERIOR
        if not ((pts[:, 0] > -_SNAP) & (pts[:, 0] <= 1.0 + _SNAP)).all():
            return EXTERIOR
        if all(int(v) in tops for v in facet):
            return SLIT_TOP
        if all(int(v) in bottoms for v in facet):
            return SLIT_BOTTOM
        return EXTERIOR

    tags = np.array([slit_tag(f) for f in bf], dtype=object)
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
    """Inverse of :func:`write_mesh_text`; the mesh read is checked by
    :func:`validate`, so a file with a misoriented cell or a facet list
    that does not match the cells raises :class:`MeshError`."""
    rows = text.strip().splitlines()
    dim, nv, nc, nf = (int(t) for t in rows[0].split())
    verts = np.array([[float(t) for t in r.split()] for r in rows[1:1 + nv]])
    cells = np.array([[int(t) for t in r.split()] for r in rows[1 + nv:1 + nv + nc]],
                     dtype=np.int64)
    facets, tags = [], []
    for r in rows[1 + nv + nc:1 + nv + nc + nf]:
        toks = r.split()
        facets.append([int(t) for t in toks[:dim]])
        tags.append(toks[dim])
    rest = rows[1 + nv + nc + nf:]
    cell_tags = crack_pairs = None
    if rest and rest[0] == "cell_tags":
        cell_tags = np.array([int(r) for r in rest[1:1 + nc]], dtype=np.int64)
        rest = rest[1 + nc:]
    if rest and rest[0].startswith("crack_pairs"):
        k = int(rest[0].split()[1])
        crack_pairs = np.array([[int(t) for t in r.split()] for r in rest[1:1 + k]],
                               dtype=np.int64).reshape(k, 2)
    return validate(Mesh(dim, verts, cells, np.array(facets, dtype=np.int64),
                         np.array(tags, dtype=object), cell_tags, crack_pairs))

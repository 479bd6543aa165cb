"""Oriented triangle meshes with intrinsic per-edge metrics.

The mesh is the discrete stand-in for a compact bordered orientable
surface.  Geometry is carried by positive edge lengths, either given or
derived from vertex positions (as the embedded generators do), so
metrics without a supplied isometric embedding -- conformally scaled
discs, the pulled-back branched metric -- are first-class citizens.

Edge lengths are an (E,) array aligned to `SurfaceMesh.edges`, the
unique undirected edges (i < j) in lexicographic order.  Everything
from construction to the JSON file and back works on arrays.
"""

from __future__ import annotations

import functools
import gc
import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

PROPER_TOL = 1e-6    # largest | |f| - 1 | on the boundary of a proper map


class MeshError(ValueError):
    """A mesh violates a structural invariant (manifoldness, orientation,
    triangle inequality, connectivity)."""


@dataclass(frozen=True)
class Topology:
    """Topological invariants of a bordered surface: genus, number of
    boundary contours, and Euler characteristic (chi = 2 - 2p - r)."""

    genus_p: int
    contours_r: int
    euler_characteristic: int


def positive_int(value, name: str) -> int:
    """`value` as an int >= 1, the one rule for a degree, a ring count and a
    resolution.  Anything that is not an integer (a float, a bool, a string)
    raises MeshError naming `name`: it is never truncated or parsed."""
    try:
        number = operator.index(value)
    except TypeError:
        number = 0
    if isinstance(value, bool) or number < 1:
        raise MeshError(f"{name} must be a positive integer, got {value!r}")
    return number


@dataclass(frozen=True)
class MapSample:
    """Per-vertex samples of a proper map to the closed unit disc.

    Attributes
    ----------
    values : np.ndarray
        Finite complex array of shape (V,); |values| <= 1 up to rounding, with
        boundary vertices on the unit circle.
    degree : int
        Stated covering degree (1 for injective maps), checked by
        `positive_int` and, in a verdict, against `compute_degree`.
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex, order="C")     # a copy
        if vals.ndim != 1:
            raise MeshError(f"map samples must be a 1-D array, got shape "
                            f"{vals.shape}")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise MeshError(f"map sample at vertex {bad[0]} is not finite: "
                            f"{vals[bad[0]]}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "degree", positive_int(self.degree, "degree"))

    def __reduce__(self):
        # a copy or an unpickled sample is built, and checked, anew
        return MapSample, (self.values, self.degree)

    def check_count(self, mesh: "SurfaceMesh") -> None:
        """Raise MeshError unless there is one sample per vertex of `mesh`."""
        if self.values.size != mesh.vertex_count:
            raise MeshError(f"map has {self.values.size} samples for "
                            f"{mesh.vertex_count} vertices")

    def check_proper(self, mesh: "SurfaceMesh") -> None:
        """Raise if the samples do not match the vertices (`check_count`),
        if the mesh has no boundary (`require_boundary`), if boundary
        vertices sit farther than PROPER_TOL from the unit circle, or if
        any vertex maps farther than PROPER_TOL outside the closed disc."""
        self.check_count(mesh)
        r = np.abs(self.values)
        worst = float(np.max(np.abs(1.0 - r[mesh.require_boundary()])))
        if not worst <= PROPER_TOL:     # written so that NaN fails it
            raise ValueError(
                f"map is not proper: boundary modulus deviates from 1 by {worst:.3g}"
            )
        v = int(np.argmax(r))
        if r[v] > 1.0 + PROPER_TOL:
            raise ValueError(f"map is not proper: vertex {v} maps to modulus "
                             f"{r[v]:.6g}, outside the closed unit disc")


def _heron_areas(lengths: np.ndarray) -> np.ndarray:
    """Areas from the three side lengths (rows of `lengths`), rejecting
    any triangle that violates the strict triangle inequality or whose
    Heron product is not a finite normal float."""
    a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    with np.errstate(all="ignore"):     # a product out of range is named below
        f1 = a + b + c
        f2 = -a + b + c
        f3 = a - b + c
        f4 = a + b - c
        product = f1 * f2 * f3 * f4
    bad = np.flatnonzero((f2 <= 0) | (f3 <= 0) | (f4 <= 0))
    if bad.size:
        t = int(bad[0])
        raise MeshError(
            f"triangle {t} violates the strict triangle inequality: "
            f"sides {lengths[t].tolist()}"
        )
    bad = np.flatnonzero(~((product >= np.finfo(float).tiny)
                           & (product < np.inf)))
    if bad.size:
        t = int(bad[0])
        raise MeshError(f"triangle {t} with sides {lengths[t].tolist()} has "
                        "an area outside float64's range")
    return 0.25 * np.sqrt(product)


def _half_edges(tri: np.ndarray) -> np.ndarray:
    """(3F, 2) half-edges: row 3f + c runs from corner c + 1 to corner
    c + 2 of triangle f, and is the edge opposite corner c."""
    return tri[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)


def _edge_structure(tri: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Unique undirected edges (i < j, lexicographic) of a triangle array
    on `n` vertices, the (F, 3) index of the edge opposite each corner and
    the half-edges in edge order, all from one stable sort of the 1-D keys
    i * n + j, which sort exactly like the pairs (i, j)."""
    opp = _half_edges(tri)
    keys = np.minimum(opp[:, 0], opp[:, 1]) * n + np.maximum(opp[:, 0], opp[:, 1])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.r_[True, keys[1:] != keys[:-1]]        # an edge's first half-edge
    corner_edges = np.empty_like(order)
    corner_edges[order] = np.cumsum(new) - 1
    edges = np.column_stack([keys[new] // n, keys[new] % n])
    return edges, corner_edges.reshape(-1, 3), order


def _read_only(*arrays) -> tuple:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class CsrPattern(NamedTuple):
    """Symmetric CSR pattern in canonical order (sorted, unique columns per
    row) whose data entry k is entry `take[k]` of an array of values."""

    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray

    def fill(self, values: np.ndarray) -> csr_matrix:
        """The matrix whose data entry k is `values[take[k]]`."""
        n = self.indptr.size - 1
        return csr_matrix((values[self.take], self.indices, self.indptr),
                          shape=(n, n))


def _csr_pattern(edges: np.ndarray, n: int) -> CsrPattern:
    """The diagonal plus both orientations of every edge on `n` vertices,
    taking from the natural layout: (v, v) per vertex, then (i, j) and
    then (j, i) per edge (i, j) of `edges`."""
    v = np.arange(n)
    rows = np.concatenate([v, edges[:, 0], edges[:, 1]])
    cols = np.concatenate([v, edges[:, 1], edges[:, 0]])
    a = coo_matrix((np.arange(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    return CsrPattern(*_read_only(a.indptr, a.indices, a.data))


def _vertex_indices(rows: np.ndarray, width: int, what: str) -> np.ndarray:
    """The first `width` columns of integer or float `rows` as int64 vertex
    indices.  An index the cast would change (a float that is not an
    integer in int64's range, an unsigned one of 2**63 or more) is a
    MeshError naming its `what` row, with no warning from the cast."""
    idx = rows[:, :width]
    with np.errstate(invalid="ignore"):     # a changed index is named below
        ints = np.ascontiguousarray(idx, dtype=np.int64)
    bad = ints != idx
    if bad.any():
        r = int(np.argmax(bad)) // width
        why = ("a non-integer vertex index" if rows.dtype.kind == "f"
               else "a vertex index of 2**63 or more")
        raise MeshError(f"{what} {r} has {why}: {rows[r].tolist()}")
    return ints


def _match_lengths(edges: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """Lengths aligned to `edges` from [i, j, length] rows in any order
    and orientation.  A row whose i or j is no vertex index
    (`_vertex_indices`), that names no edge (or a vertex outside [0, n)),
    an edge with two rows of different lengths or with no row raises
    MeshError; a repeated row of the same length is harmless."""
    pairs, values = _vertex_indices(rows, 2, "edge length row"), rows[:, 2]
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    # a row outside [0, n) could form an edge's key; it gets -1, no edge's
    keys = np.where((lo >= 0) & (hi < n), lo * n + hi, -1)
    want = edges[:, 0] * n + edges[:, 1]
    at = np.minimum(np.searchsorted(want, keys), want.size - 1)
    stray = np.flatnonzero(want[at] != keys)
    if stray.size:
        r = int(stray[0])
        names = f"a vertex outside [0, {n})" if keys[r] < 0 else "no edge"
        raise MeshError(f"edge length row {r} [{pairs[r, 0]}, {pairs[r, 1]}, "
                        f"{float(values[r])!r}] names {names}")
    order = np.argsort(at, kind="stable")
    at, lens = at[order], values[order]
    clash = np.flatnonzero((at[1:] == at[:-1]) & (lens[1:] != lens[:-1]))
    if clash.size:
        t = int(clash[0])
        i, j = edges[at[t]]
        raise MeshError(f"edge ({i}, {j}) is given two lengths, "
                        f"{float(lens[t])!r} and {float(lens[t + 1])!r}")
    found = np.bincount(at, minlength=want.size) > 0
    if not found.all():
        i, j = edges[np.argmin(found)]
        raise MeshError(f"missing edge length for edge ({int(i)}, {int(j)})")
    return lens[np.r_[True, at[1:] != at[:-1]]]     # each edge's first row


class Triangulation:
    """The topology of a mesh: read-only (F, 3) vertex-index triples on
    `vertex_count` vertices, one more than the largest index, their edges
    and the edge opposite each corner.  They are checked once, here, to
    form one surface: edge- and vertex-manifold (each edge in one or two
    triangles, the triangles at each vertex one fan across shared edges),
    consistently oriented and connected.  Each derived fact is one
    read-only attribute: the boundary masks and interior indices are set
    here, and `boundary_loops`, `topology` and both CSR patterns are cached
    properties (one that raises keeps nothing).  On Python 3.10 and 3.11
    their first builds wait on one lock; from 3.12 on, threads may build
    one twice, which is harmless: the package starts no threads, and
    `fem.forked_map` forks only when no other thread runs.  Meshes with
    different metrics on the same triangles share one triangulation.
    """

    def __init__(self, triangles):
        tri = np.array(triangles)       # a copy, so the caller's stays writable
        if (tri.ndim != 2 or tri.shape[1] != 3 or tri.shape[0] < 1
                or tri.dtype.kind not in "iuf"):
            raise MeshError("triangles must be a non-empty (F, 3) index array")
        tri = _vertex_indices(tri, 3, "triangle")
        if tri.min() < 0:
            raise MeshError("negative vertex index")
        n = int(tri.max()) + 1
        # F triangles use at most 3F vertices, so a stray large index sizes
        # nothing: vertices past the first 3F + 5 are not looked at
        used = np.zeros(min(n, tri.size + 5), dtype=bool)
        used[tri[tri < used.size]] = True
        if not used.all():
            raise MeshError(f"unreferenced vertices: {np.flatnonzero(~used)[:5]}")
        self.triangles, self.vertex_count = tri, n
        # corner_edges[f, c] is the edge opposite corner c of triangle f
        self.edges, self.corner_edges, order = _edge_structure(tri, n)
        self.edge_count = self.edges.shape[0]
        self._validate(order)
        # every edge is opposite some corner, so the count has E entries
        self.boundary_edge_mask = np.bincount(self.corner_edges.ravel()) == 1
        self.boundary_vertex_mask = np.zeros(n, dtype=bool)
        self.boundary_vertex_mask[self.edges[self.boundary_edge_mask]] = True
        self.interior_vertex_indices = np.flatnonzero(~self.boundary_vertex_mask)
        _read_only(self.triangles, self.edges, self.corner_edges,
                   self.boundary_edge_mask, self.boundary_vertex_mask,
                   self.interior_vertex_indices)

    def __reduce__(self):
        # a copy or an unpickled triangulation runs the checks again
        return Triangulation, (self.triangles,)

    def _validate(self, order):
        tri = self.triangles
        if np.any((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2])
                  | (tri[:, 0] == tri[:, 2])):
            raise MeshError("triangle with repeated vertex")

        edge_of = self.corner_edges.ravel()     # the edge of each half-edge
        if np.bincount(edge_of).max() > 2:
            raise MeshError("non-manifold edge shared by more than two triangles")

        # the half-edges a[k] and b[k] of each interior edge sit side by side
        # in `order`, which lists the half-edges in edge order; across the
        # edge, the corner at the first end of each (`_half_edges` of the
        # corner numbers) meets the last of the other
        pair = np.diff(edge_of[order]) == 0
        a, b = order[:-1][pair], order[1:][pair]
        first, last = _half_edges(np.arange(tri.size).reshape(-1, 3)).T
        u, w = np.r_[first[a], first[b]], np.r_[last[b], last[a]]
        at = tri.ravel()        # the vertex of each corner
        # consistent orientation: an edge's two half-edges run opposite ways,
        # so that corners that meet sit at one vertex
        if np.any(at[u] != at[w]):
            raise MeshError("inconsistent orientation: repeated directed half-edge")

        # the corners at a vertex that meet form its fans: a surface has one
        # fan per vertex, a pinched vertex two or more
        nfans, fan = connected_components(
            csr_matrix((np.ones(u.size), (u, w)), shape=(tri.size, tri.size)),
            directed=False)
        if nfans > self.vertex_count:
            fans = np.bincount(at[np.unique(fan, return_index=True)[1]])
            v = int(np.argmax(fans > 1))
            raise MeshError(f"pinched vertex {v}: its triangles form {fans[v]} fans")

        # with one fan per vertex, the edge graph has the triangle adjacency
        # graph's components
        n, (i, j) = self.vertex_count, self.edges.T
        ncomp, _ = connected_components(
            csr_matrix((np.ones(i.size), (i, j)), shape=(n, n)), directed=False)
        if ncomp != 1:
            raise MeshError(f"triangle adjacency graph has {ncomp} components")

    @functools.cached_property
    def csr_pattern(self) -> CsrPattern:
        """The read-only symmetric CSR pattern that the stiffness and mass
        matrices share."""
        return _csr_pattern(self.edges, self.vertex_count)

    @functools.cached_property
    def interior_pattern(self) -> CsrPattern:
        """The read-only interior-vertex block of `csr_pattern`, which the
        Dirichlet matrices share; it takes from the full pattern's data."""
        full, inside = self.csr_pattern, self.interior_vertex_indices
        numbers = csr_matrix((np.arange(full.indices.size), full.indices,
                              full.indptr))[inside][:, inside]
        return CsrPattern(*_read_only(numbers.indptr, numbers.indices,
                                      numbers.data))

    def require_boundary(self) -> np.ndarray:
        """The boundary vertex mask; raises MeshError on a closed mesh, which
        has no boundary loop, Dirichlet problem or proper map to the disc."""
        if not self.boundary_vertex_mask.any():
            raise MeshError(f"mesh has no boundary: none of its "
                            f"{self.vertex_count} vertices is a boundary vertex")
        return self.boundary_vertex_mask

    @functools.cached_property
    def boundary_loops(self) -> tuple:
        """Boundary components as read-only int64 arrays of vertex cycles,
        oriented with the surface on the left, each from its smallest
        vertex.  Raises MeshError on a closed mesh (`require_boundary`)."""
        self.require_boundary()
        # the directed boundary edges, as their triangles orient them; each
        # boundary vertex, having one fan, starts one and ends one
        u, v = _half_edges(self.triangles)[
            self.boundary_edge_mask[self.corner_edges.ravel()]].T
        nxt = dict(zip(u.tolist(), v.tolist()))
        loops = []
        while nxt:
            loop = [min(nxt)]
            while (w := nxt.pop(loop[-1])) != loop[0]:
                loop.append(w)
            loops.append(np.array(loop, dtype=np.int64))
        return _read_only(*loops)

    @functools.cached_property
    def topology(self) -> Topology:
        """Genus p, contours r and Euler characteristic chi = 2 - 2p - r.
        Raises MeshError on a closed mesh (`require_boundary`)."""
        chi = self.vertex_count - self.edge_count + self.triangles.shape[0]
        r = len(self.boundary_loops)
        return Topology(genus_p=(2 - chi - r) // 2, contours_r=r,
                        euler_characteristic=chi)


class SurfaceMesh:
    """Oriented triangle mesh with an intrinsic metric: a `Triangulation`,
    which other meshes may share, and this mesh's edge lengths, given as
    exactly one of `positions` and `edge_lengths`.  The triangulation's
    attributes (`edges`, `boundary_loops`, `csr_pattern`, ...) and
    `require_boundary()` are the mesh's own.  `fem.assemble_stiffness` and
    `fem.assemble_mass` build each matrix on the mesh's first request and
    keep it, with read-only data, on the mesh for its lifetime: V + 2E
    values per matrix, about 2.8 MB at 49,537 vertices.

    Parameters
    ----------
    triangles : array_like, shape (F, 3), or Triangulation
        Vertex-index triples with globally consistent orientation, or a
        triangulation built before, whose checks are not run again.
    positions : array_like, shape (V, 3), optional
        Embedded vertex coordinates, one row per vertex of the
        triangulation, from which the edge lengths are derived.
    edge_lengths : array_like, optional
        Positive lengths as an (E,) array aligned to `edges`; or (R, 3)
        rows [i, j, length] in any order and orientation that cover every
        edge and name nothing else (`_match_lengths`).
    """

    def __init__(self, triangles, positions=None, edge_lengths=None):
        if (positions is None) == (edge_lengths is None):
            raise MeshError("a mesh takes exactly one metric: positions (a "
                            "mesh file's 'vertices') or edge_lengths")
        pos = None if positions is None else _floats(
            positions, "positions must be a (V, 3) array of numbers", 3)
        t = (triangles if isinstance(triangles, Triangulation)
             else Triangulation(triangles))
        self.triangulation, self.positions = t, pos

        if pos is not None:
            if len(pos) != t.vertex_count:
                raise MeshError(f"positions must have {t.vertex_count} rows")
            d = pos[self.edges[:, 0]] - pos[self.edges[:, 1]]
            lens = np.linalg.norm(d, axis=1)
        else:
            lens = _floats(edge_lengths, "edge lengths must be an (E,) array "
                           "aligned to edges or (R, 3) rows [i, j, length]")
            if lens.ndim == 2 and lens.shape[1] == 3:
                lens = _match_lengths(self.edges, self.vertex_count, lens)
            elif lens.shape != (self.edge_count,):
                raise MeshError(f"expected {self.edge_count} edge lengths "
                                f"aligned to edges, got shape {lens.shape}")
        bad = np.flatnonzero(~((lens > 0) & (lens < np.inf)))    # NaN too
        if bad.size:
            (i, j), length = self.edges[bad[0]], float(lens[bad[0]])
            raise MeshError(f"edge ({i}, {j}) has length {length!r}: edge "
                            "lengths must be positive finite reals")
        self.lengths = lens
        # areas double as the triangle-inequality check
        self.triangle_areas = _heron_areas(self.tri_lengths())
        _read_only(self.lengths, self.triangle_areas,
                   *(() if pos is None else (pos,)))

    def __getattr__(self, name):
        # reached only for names the mesh lacks, which are the topology's;
        # `triangulation` is unset only before `__init__` sets it, where
        # looking it up here would recurse without end
        if name == "triangulation":
            raise AttributeError(name)
        return getattr(self.triangulation, name)

    def __reduce__(self):
        # a copy or an unpickled mesh is built anew, so its arrays are
        # read-only and it builds its own matrices on first request
        if self.positions is None:
            return SurfaceMesh, (self.triangulation, None, self.lengths)
        return SurfaceMesh, (self.triangulation, self.positions)

    def tri_lengths(self) -> np.ndarray:
        """(F, 3) side lengths; column c is the edge opposite corner c."""
        return self.lengths[self.corner_edges]

    def total_area(self) -> float:
        """Surface area: sum of Heron-formula triangle areas."""
        return float(self.triangle_areas.sum())

    def scaled(self, c: float) -> "SurfaceMesh":
        """Intrinsic copy (no positions), every edge length times c, which
        must be a positive finite real."""
        if not 0 < c < np.inf:      # written so that NaN fails it
            raise ValueError(f"scale factor must be a positive finite real, "
                             f"got {c!r}")
        return SurfaceMesh(self.triangulation, edge_lengths=self.lengths * c)

    def descriptor(self) -> str:
        return f"V{self.vertex_count}F{self.triangles.shape[0]}"

    def __repr__(self) -> str:
        return f"SurfaceMesh(n={self.vertex_count}, faces={len(self.triangles)})"


# -- generators -------------------------------------------------------------

# the disc, cap, conformal and branched meshes of one resolution share one
# triangulation; 4 resolutions stay, as the battery and `batch` use 2 or 3.
# Typed, so that True or 2.0 is no hit on 1 or 2 and reaches the check
@functools.lru_cache(maxsize=4, typed=True)
def _disc_structure(rings: int) -> tuple[np.ndarray, Triangulation]:
    """Concentric-ring triangulation of the unit disc.

    Ring k (1 <= k <= rings) sits at radius k/rings and carries 6k
    vertices; adjacent rings are stitched by an angular zipper.  Returns
    the read-only vertex coordinates as complex numbers and the
    `Triangulation`, all triangles counterclockwise.
    """
    rings = positive_int(rings, "rings")
    z = [np.zeros(1, dtype=complex)]
    for k in range(1, rings + 1):
        n = 6 * k
        ang = 2.0 * np.pi * np.arange(n) / n
        z.append((k / rings) * np.exp(1j * ang))
    z = np.concatenate(z)

    m = np.arange(6)
    tris = [np.column_stack([np.zeros(6, dtype=np.int64), 1 + m, 1 + (m + 1) % 6])]
    for k in range(2, rings + 1):
        n_in, n_out = 6 * (k - 1), 6 * k
        si, so = 1 + 3 * (k - 1) * (k - 2), 1 + 3 * k * (k - 1)
        # The zipper steps along whichever ring has the smaller next angle,
        # the outer one on ties: a stable merge of the outer steps' angles
        # (j+1)/n_out and the inner steps' (i+1)/n_in, cross-multiplied
        # to stay exact.
        keys = np.concatenate([np.arange(1, n_out + 1) * n_in,
                               np.arange(1, n_in + 1) * n_out])
        outer = np.argsort(keys, kind="stable") < n_out
        j = np.cumsum(outer) - outer        # outer steps taken before
        i = np.cumsum(~outer) - ~outer      # inner steps taken before
        tris.append(np.column_stack([
            si + i % n_in, so + j % n_out,
            np.where(outer, so + (j + 1) % n_out, si + (i + 1) % n_in)]))
    z.flags.writeable = False
    return z, Triangulation(np.concatenate(tris).astype(np.int64, copy=False))


def generate_disc(rings: int) -> SurfaceMesh:
    """Flat triangulation of the closed unit disc."""
    z, tri = _disc_structure(rings)
    pos = np.column_stack([z.real, z.imag, np.zeros(z.size)])
    return SurfaceMesh(tri, positions=pos)


def generate_spherical_cap(colatitude: float, resolution: int) -> SurfaceMesh:
    """Geodesic cap {polar angle <= colatitude} of the unit sphere.

    colatitude = pi/2 gives the northern hemisphere.
    """
    if not 0.0 < colatitude < np.pi:
        raise ValueError(f"colatitude must lie in (0, pi), got {colatitude}")
    z, tri = _disc_structure(positive_int(resolution, "resolution"))
    theta = np.abs(z) * colatitude
    phi = np.angle(z)
    pos = np.column_stack([np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi),
                           np.cos(theta)])
    return SurfaceMesh(tri, positions=pos)


def generate_annulus(inner_radius: float, resolution: int) -> SurfaceMesh:
    """Flat annulus {inner_radius <= |z| <= 1} (two boundary contours)."""
    if not 0.0 < inner_radius < 1.0:
        raise ValueError(f"inner_radius must lie in (0, 1), got {inner_radius}")
    resolution = positive_int(resolution, "resolution")
    h = (1.0 - inner_radius) / resolution
    n = max(8, int(np.ceil(2.0 * np.pi / h)))
    ang = 2.0 * np.pi * np.arange(n) / n
    pts = []
    for k in range(resolution + 1):
        r = inner_radius + (1.0 - inner_radius) * k / resolution
        pts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                    np.zeros(n)]))
    pos = np.vstack(pts)
    # two triangles per cell (ring k, sector m), in (k, m) order
    a = n * np.arange(resolution)[:, None]
    m = np.arange(n)[None, :]
    m1 = (m + 1) % n
    b = a + n
    tris = np.stack([np.stack(np.broadcast_arrays(a + m, b + m, b + m1), -1),
                     np.stack(np.broadcast_arrays(a + m, b + m1, a + m1), -1)],
                    axis=2)
    return SurfaceMesh(tris.reshape(-1, 3), positions=pos)


def generate_branched_double_disc(rings: int) -> tuple[SurfaceMesh, MapSample]:
    """Unit disc carrying the metric pulled back through w = z**2.

    Edge lengths are the straight-chord lengths |u**2 - v**2| of the
    image segments, so each mesh triangle is isometric to its image in
    the doubly-covered target disc; the origin is a cone point of total
    angle 4*pi.  Returned with the map f(z) = z**2 of degree 2.
    """
    if positive_int(rings, "rings") < 2:
        raise ValueError(f"rings must be >= 2, got {rings}")
    z, tri = _disc_structure(rings)
    w = z * z
    i, j = tri.edges.T
    d = w[i] - w[j]
    mesh = SurfaceMesh(tri, edge_lengths=np.hypot(d.real, d.imag))
    return mesh, MapSample(w, 2)


def generate_conformal_disc(rings: int, log_factor) -> tuple[SurfaceMesh, MapSample]:
    """Disc with the conformally scaled metric e^{2 phi} |dz|^2.

    `log_factor` is a callable that returns phi at an array of vertex
    complex coordinates.  Edge lengths get the endpoint-averaged factor
    e^{(phi(u) + phi(v)) / 2}.  The map sample is the identity, degree 1.
    """
    z, tri = _disc_structure(rings)
    phi = np.asarray(log_factor(z), dtype=float)
    if phi.shape != z.shape:
        raise ValueError(f"expected {z.size} log-factor samples, got {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise ValueError("log-factor samples must be finite")
    i, j = tri.edges.T
    d = z[i] - z[j]
    with np.errstate(over="ignore"):    # SurfaceMesh names an infinite length
        lens = np.hypot(d.real, d.imag) * np.exp(0.5 * (phi[i] + phi[j]))
    mesh = SurfaceMesh(tri, edge_lengths=lens)
    return mesh, MapSample(z, 1)


# -- JSON interchange --------------------------------------------------------

def mesh_to_json_dict(mesh: SurfaceMesh, map_sample: MapSample | None = None) -> dict:
    """The mesh JSON document of `mesh` and `map_sample`, which must have
    one sample per vertex (`MapSample.check_count`); `edge_lengths` is
    the (E,) list aligned to `edges`."""
    if map_sample is not None:
        map_sample.check_count(mesh)
    doc: dict = {"triangles": mesh.triangles.tolist()}
    if mesh.positions is not None:
        doc["vertices"] = mesh.positions.tolist()
    else:
        doc["edge_lengths"] = mesh.lengths.tolist()
    if map_sample is not None:
        vals = map_sample.values
        doc["map"] = np.column_stack([vals.real, vals.imag]).tolist()
        doc["degree"] = map_sample.degree
    return doc


def mesh_from_json_dict(doc: dict) -> tuple[SurfaceMesh, MapSample | None]:
    """Inverse of `mesh_to_json_dict`, which also reads `edge_lengths` as
    [i, j, length] rows in any order and orientation; a map with no
    `degree` states degree 1, and a `degree` with no map is a MeshError."""
    if not isinstance(doc, dict):
        raise MeshError("mesh JSON must be an object")
    if "triangles" not in doc:
        raise MeshError("mesh JSON lacks 'triangles'")
    mesh = SurfaceMesh(doc["triangles"],
                       positions=_json_array(doc, "vertices", 3),
                       edge_lengths=_json_array(doc, "edge_lengths"))
    vals, ms = _json_array(doc, "map", 2), None
    if vals is not None:
        ms = MapSample(vals.view(complex).ravel(), doc.get("degree", 1))
        ms.check_count(mesh)
    elif "degree" in doc:
        raise MeshError("mesh JSON has a 'degree' but no 'map'")
    return mesh, ms


def _floats(values, message: str, width: int = 0) -> np.ndarray:
    """`values` as a new float array, of (R, width) rows for a width > 0;
    MeshError(message) when they are not such numbers."""
    try:
        arr = np.array(values, dtype=float, order="C")
    except (TypeError, ValueError):
        arr = None
    if arr is None or width and (arr.ndim != 2 or arr.shape[1] != width):
        raise MeshError(message)
    return arr


def _json_array(doc: dict, name: str, width: int = 0) -> np.ndarray | None:
    """`doc[name]` as floats, (R, width) rows for a width; None if absent."""
    rows = f"rows of {width} numbers" if width else "numbers or of [i, j, length] rows"
    return None if name not in doc else _floats(
        doc[name], f"mesh JSON '{name}' must be a list of {rows}", width)


def dumps(doc, indent: bool = False) -> bytes:
    """The package's one JSON encoder: sorted keys, NumPy scalars and
    arrays accepted, a trailing newline, and with `indent` two-space
    indentation.  NaN is written as null, so callers must reject it first.
    """
    import orjson      # on first use, so `import membrane_spectra` skips it

    option = (orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
              | orjson.OPT_APPEND_NEWLINE)
    if indent:
        option |= orjson.OPT_INDENT_2
    return orjson.dumps(doc, option=option)


def loads(data):
    """The package's one JSON decoder.  Malformed input, and the NaN and
    Infinity tokens, raise `orjson.JSONDecodeError`, a `ValueError`."""
    import orjson

    return orjson.loads(data)


@contextmanager
def _gc_paused():
    """Pause the cyclic collector while a mesh document of about a million
    acyclic lists is built or parsed; its collections would find nothing.
    The prior state is restored, so nesting and failures leave it as found.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def save_mesh(path, mesh: SurfaceMesh, map_sample: MapSample | None = None) -> None:
    """Write compact JSON through `dumps`; path '-' means stdout."""
    with _gc_paused():
        data = dumps(mesh_to_json_dict(mesh, map_sample))
    if path == "-":
        sys.stdout.write(data.decode())
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def load_mesh(path) -> tuple[SurfaceMesh, MapSample | None]:
    with open(path, "rb") as fh:
        data = fh.read()
    with _gc_paused():
        return mesh_from_json_dict(loads(data))

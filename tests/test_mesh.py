import copy
import gc
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import membrane_spectra as ms
from membrane_spectra import fixtures
from membrane_spectra.mesh import MeshError

from conftest import BAD_ROWS, octahedron, resized_map, square_mesh


def polygon_area(n):
    # area of the regular n-gon inscribed in the unit circle
    return 0.5 * n * np.sin(2 * np.pi / n)


def cap_area(colatitude):
    return 2 * np.pi * (1 - np.cos(colatitude))


class TestGenerateDisc:
    def test_single_ring_polygon_deficit(self):
        m = ms.generate_disc(1)
        assert m.vertex_count == 7
        assert m.total_area() < np.pi
        assert m.total_area() == pytest.approx(polygon_area(6), rel=1e-12)

    def test_fine_disc_area(self):
        m = ms.generate_disc(64)
        assert m.total_area() == pytest.approx(np.pi, rel=1e-3)
        # inscribed polygons stay below pi
        assert m.total_area() < np.pi

    @pytest.mark.parametrize("rings", [1, 3, 8])
    def test_topology(self, rings):
        t = ms.generate_disc(rings).topology
        assert t == ms.Topology(genus_p=0, contours_r=1, euler_characteristic=1)

    def test_rejects_bad_rings(self):
        with pytest.raises(ValueError):
            ms.generate_disc(0)


class TestGenerateSphericalCap:
    def test_hemisphere_area(self):
        m = ms.generate_spherical_cap(np.pi / 2, 48)
        assert m.total_area() == pytest.approx(2 * np.pi, rel=1e-3)

    def test_cap_area_formula(self):
        m = ms.generate_spherical_cap(np.pi / 3, 48)
        assert m.total_area() == pytest.approx(cap_area(np.pi / 3), rel=1e-3)
        assert cap_area(np.pi / 3) == pytest.approx(np.pi)

    def test_topology(self, hemisphere16):
        assert hemisphere16.topology == ms.Topology(0, 1, 1)

    @pytest.mark.parametrize("bad", [0.0, np.pi, -1.0, 4.0])
    def test_rejects_colatitude(self, bad):
        with pytest.raises(ValueError):
            ms.generate_spherical_cap(bad, 8)


class TestGenerateAnnulus:
    def test_area(self):
        m = ms.generate_annulus(0.5, 16)
        assert m.total_area() == pytest.approx(np.pi * 0.75, rel=1e-3)

    def test_topology_two_contours(self):
        m = ms.generate_annulus(0.5, 4)
        assert m.topology == ms.Topology(0, 2, 0)
        assert len(m.boundary_loops) == 2

    def test_second_order_area_convergence(self):
        exact = np.pi * 0.75
        e1 = abs(ms.generate_annulus(0.5, 8).total_area() - exact)
        e2 = abs(ms.generate_annulus(0.5, 16).total_area() - exact)
        assert e1 / e2 >= 2.0  # empirically ~4x

    def test_rejects_inner_radius(self):
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                ms.generate_annulus(bad, 8)


class TestBranchedDoubleDisc:
    def test_pulled_back_area(self):
        # oracle: integral over the disc of |2z|^2 in polar coordinates,
        # int_0^{2pi} int_0^1 4 r^2 * r dr dtheta = 2 pi
        mesh, _ = ms.generate_branched_double_disc(32)
        assert mesh.total_area() == pytest.approx(2 * np.pi, rel=2e-3)

    def test_degree(self, branched12):
        mesh, f = branched12
        assert f.degree == 2
        assert ms.compute_degree(mesh, f) == 2

    def test_topology_still_a_disc(self, branched12):
        assert branched12[0].topology == ms.Topology(0, 1, 1)

    def test_cone_angle_at_origin(self):
        # angles of triangles incident to the center vertex sum to ~4 pi
        mesh, _ = ms.generate_branched_double_disc(16)
        total = 0.0
        L = mesh.tri_lengths()
        for t, tri in enumerate(mesh.triangles):
            for c in range(3):
                if tri[c] == 0:
                    a, b, cc = L[t, c], L[t, (c + 1) % 3], L[t, (c + 2) % 3]
                    total += np.arccos((b * b + cc * cc - a * a) / (2 * b * cc))
        assert total == pytest.approx(4 * np.pi, rel=1e-6)

    def test_rejects_rings(self):
        with pytest.raises(ValueError):
            ms.generate_branched_double_disc(1)


def _scalar_lengths(values, edges, phi=None):
    # one scalar abs (and exp) per edge, as the generators once computed them
    out = []
    for i, j in edges:
        length = abs(values[i] - values[j])
        if phi is not None:
            length = length * np.exp(0.5 * (phi[i] + phi[j]))
        out.append(length)
    return np.array(out)


class TestGeneratorLengths:
    @pytest.mark.parametrize("rings", [3, 16])
    def test_conformal_matches_scalar_formula(self, rings):
        phi = ms.fixtures.random_log_factor(4, amplitude=2.0)
        mesh, f = ms.generate_conformal_disc(rings, phi)
        expect = _scalar_lengths(f.values, mesh.edges, phi(f.values))
        assert np.array_equal(mesh.lengths, expect)

    @pytest.mark.parametrize("rings", [3, 16])
    def test_branched_matches_scalar_formula(self, rings):
        mesh, f = ms.generate_branched_double_disc(rings)
        assert np.array_equal(mesh.lengths, _scalar_lengths(f.values, mesh.edges))


class TestConformalDisc:
    def test_zero_factor_matches_flat_disc(self):
        flat = ms.generate_disc(6)
        conf, f = ms.generate_conformal_disc(6, lambda z: np.zeros(z.shape))
        assert f.degree == 1
        np.testing.assert_allclose(conf.lengths, flat.lengths, rtol=1e-14)

    def test_constant_factor_scales_area(self):
        flat = ms.generate_disc(6)
        conf, _ = ms.generate_conformal_disc(6, lambda z: 0.3 * np.ones(z.shape))
        assert conf.total_area() == pytest.approx(
            np.exp(0.6) * flat.total_area(), rel=1e-12)

    def test_hemisphere_metric_area(self):
        # curvature +1 metric 4 / (1 + r^2)^2 |dz|^2; its area is
        # int_0^{2pi} int_0^1 4 r / (1 + r^2)^2 dr dtheta = 2 pi
        conf, _ = ms.generate_conformal_disc(
            32, lambda z: np.log(2.0) - np.log1p(np.abs(z) ** 2))
        assert conf.total_area() == pytest.approx(2 * np.pi, rel=2e-3)

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValueError):
            ms.generate_conformal_disc(4, lambda z: np.where(
                np.abs(z) > 0.5, np.nan, 0.0))

    def test_rejects_a_log_factor_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=re.escape(
                "expected 61 log-factor samples, got (60,)")):
            ms.generate_conformal_disc(4, lambda z: np.zeros(z.size - 1))


def _loop_disc_structure(rings):
    # the scalar ring zipper the vectorized `_disc_structure` replaces
    ring_start = [0, 1]
    for k in range(1, rings + 1):
        ring_start.append(ring_start[-1] + 6 * k)
    tris = [(0, 1 + m, 1 + (m + 1) % 6) for m in range(6)]
    for k in range(2, rings + 1):
        n_in, n_out = 6 * (k - 1), 6 * k
        si, so = ring_start[k - 1], ring_start[k]
        i = j = 0
        while i < n_in or j < n_out:
            if j < n_out and (i == n_in or (j + 1) * n_in <= (i + 1) * n_out):
                tris.append((si + i % n_in, so + j % n_out, so + (j + 1) % n_out))
                j += 1
            else:
                tris.append((si + i % n_in, so + j % n_out, si + (i + 1) % n_in))
                i += 1
    return np.array(tris, dtype=np.int64)


def _walk_boundary_loops(mesh):
    # the per-triangle walk the vectorized `boundary_loops` replaces
    counts = np.bincount(mesh.corner_edges.ravel(), minlength=mesh.edge_count)
    boundary = {(int(a), int(b)) for a, b in mesh.edges[counts == 1]}
    nxt = {}
    for tri in mesh.triangles:
        for c in range(3):
            u, v = int(tri[(c + 1) % 3]), int(tri[(c + 2) % 3])
            if (min(u, v), max(u, v)) in boundary:
                nxt[u] = v
    loops, remaining = [], set(nxt)
    while remaining:
        loop = [min(remaining)]
        while nxt[loop[-1]] != loop[0]:
            loop.append(nxt[loop[-1]])
        remaining -= set(loop)
        loops.append(loop)
    return loops


@pytest.mark.parametrize("make, name", [
    (ms.mesh._disc_structure, "rings"), (ms.generate_disc, "rings"),
    (lambda resolution: ms.generate_spherical_cap(np.pi / 3, resolution),
     "resolution"),
    (lambda rings: ms.generate_conformal_disc(rings, np.real), "rings")],
    ids=["structure", "disc", "cap", "conformal"])
def test_one_ring_count_rule(make, name):
    before = ms.mesh._disc_structure.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a positive integer, got 0$"):
            make(0)
    # both calls missed: the failed one was not cached
    assert ms.mesh._disc_structure.cache_info().hits == before.hits


@pytest.mark.parametrize("make, name", [
    (ms.generate_disc, "rings"),
    (lambda resolution: ms.generate_spherical_cap(1.0, resolution),
     "resolution"),
    (lambda rings: ms.generate_conformal_disc(rings, np.real), "rings"),
    (ms.generate_branched_double_disc, "rings"),
    (lambda resolution: ms.generate_annulus(0.5, resolution), "resolution")],
    ids=["disc", "cap", "conformal", "branched", "annulus"])
@pytest.mark.parametrize("count", [2.5, True, "3", 2.0])
def test_one_positive_integer_rule(make, name, count):
    for rings in (1, 2):    # cached, yet no answer to True or 2.0
        ms.mesh._disc_structure(rings)
    with pytest.raises(MeshError, match=re.escape(
            f"{name} must be a positive integer, got {count!r}")):
        make(count)


@pytest.mark.parametrize("name", ["conformal-1-2", "conformal-01",
                                  "conformal-x", "conformal-", "conformal-+1",
                                  "conformal-1 ", "conformal-\u0661"])
def test_conformal_fixture_needs_the_decimal_form_of_a_seed(name):
    with pytest.raises(ValueError, match=re.escape(f"unknown fixture {name!r}")):
        fixtures.instance(name, 4)


def test_build_rejects_an_unknown_shape():
    with pytest.raises(ValueError, match=re.escape("unknown shape 'torus'")):
        fixtures.build("torus", 4)


@pytest.mark.parametrize("rings", [1, 2, 5, 13])
def test_ring_zipper_matches_scalar_loop(rings):
    tris = ms.mesh._disc_structure(rings)[1].triangles
    assert tris.dtype == np.int64
    assert np.array_equal(tris, _loop_disc_structure(rings))


def test_edges_are_lexicographic_unique_pairs(bump_disc12):
    mesh, _ = bump_disc12
    und = np.sort(mesh.triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
    edges, inverse = np.unique(und, axis=0, return_inverse=True)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.corner_edges, inverse.reshape(-1, 3))


class TestBoundaryLoops:
    def test_matches_triangle_walk(self, hemisphere16):
        rng = np.random.default_rng(3)
        annulus = ms.generate_annulus(0.4, 5)
        # reversing the triangle order moves where each walk would start
        shuffled = ms.SurfaceMesh(annulus.triangles[::-1], positions=annulus.positions)
        relabel = rng.permutation(annulus.vertex_count)
        relabelled = ms.SurfaceMesh(relabel[annulus.triangles],
                                    positions=annulus.positions[np.argsort(relabel)])
        for m in (hemisphere16, annulus, shuffled, relabelled,
                  ms.generate_branched_double_disc(7)[0]):
            assert ([loop.tolist() for loop in m.boundary_loops]
                    == _walk_boundary_loops(m))

    def test_loop_indices_are_walked_once_and_read_only(self):
        annulus = ms.generate_annulus(0.4, 5)
        loops = annulus.boundary_loops
        # kept on the triangulation, which a rescaled mesh shares
        assert annulus.scaled(2.0).boundary_loops is loops
        assert all(loop.dtype == np.int64 and not loop.flags.writeable
                   for loop in loops)
        with pytest.raises(ValueError, match="read-only"):
            loops[0][0] = 1     # a caller cannot change the kept loops

    def test_pinched_boundary_rejected(self):
        # two triangles sharing only vertex 0: no walk ever sees them
        pos = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
        with pytest.raises(MeshError, match="^pinched vertex 0: its "
                           "triangles form 2 fans$"):
            ms.SurfaceMesh([[0, 1, 2], [0, 3, 4]], positions=pos)

    def test_disc_one_loop(self):
        loops = ms.generate_disc(4).boundary_loops
        assert len(loops) == 1
        assert len(loops[0]) == 24

    def test_two_triangle_square(self):
        pos = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        m = ms.SurfaceMesh([[0, 1, 2], [0, 2, 3]], positions=pos)
        (loop,) = m.boundary_loops
        assert sorted(loop) == [0, 1, 2, 3]

    def test_boundary_edges_partitioned(self, disc8):
        loops = [loop.tolist() for loop in disc8.boundary_loops]
        loop_edges = set()
        for loop in loops:
            for u, v in zip(loop, loop[1:] + loop[:1]):
                loop_edges.add((min(u, v), max(u, v)))
        counts = np.bincount(disc8.corner_edges.ravel(),
                             minlength=disc8.edge_count)
        single = {(int(i), int(j)) for i, j in disc8.edges[counts == 1]}
        assert loop_edges == single

    def test_closed_mesh_rejected(self):
        # regular tetrahedron boundary: closed, no contours
        pos = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        tris = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
        m = ms.SurfaceMesh(tris, positions=pos)
        with pytest.raises(MeshError, match="mesh has no boundary: none of "
                           "its 4 vertices is a boundary vertex$"):
            m.boundary_loops

    def test_failed_walk_raises_on_every_access(self):
        tetrahedron = ms.SurfaceMesh(
            [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]],
            positions=[[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        for _ in range(2):
            with pytest.raises(MeshError, match="mesh has no boundary"):
                tetrahedron.boundary_loops
            with pytest.raises(MeshError, match="mesh has no boundary"):
                tetrahedron.topology
            # a pinched mesh is refused on every attempt to build it
            with pytest.raises(MeshError, match="pinched vertex 0"):
                ms.mesh.Triangulation([[0, 1, 2], [0, 3, 4]])

    def test_closed_mesh_fails_in_one_place(self):
        m = octahedron()
        f = ms.MapSample(m.positions[:, 0] + 1j * m.positions[:, 1], 1)
        for check in (m.require_boundary, lambda: m.boundary_loops,
                      lambda: m.topology, lambda: ms.solve_dirichlet(m, 1),
                      lambda: f.check_proper(m),
                      lambda: ms.center_of_gravity(m, f),
                      lambda: ms.balance_center_of_mass(m, f)):
            with pytest.raises(MeshError, match="^mesh has no boundary: none "
                               "of its 6 vertices is a boundary vertex$"):
                check()

    def test_boundary_edge_mask_marks_edges_of_one_triangle(self, disc8):
        counts = np.bincount(disc8.corner_edges.ravel(),
                             minlength=disc8.edge_count)
        assert np.array_equal(disc8.boundary_edge_mask, counts == 1)
        assert not disc8.boundary_edge_mask.flags.writeable


class TestTotalArea:
    def test_unit_right_triangle(self):
        m = ms.SurfaceMesh([[0, 1, 2]],
                           edge_lengths=[[0, 1, 1.0], [0, 2, 1.0],
                                         [1, 2, np.sqrt(2.0)]])
        assert m.total_area() == pytest.approx(0.5, rel=1e-14)

    def test_reindexing_invariance(self, disc8):
        rng = np.random.default_rng(7)
        tris = disc8.triangles[rng.permutation(disc8.triangles.shape[0])]
        perm = rng.permutation(disc8.vertex_count)
        m2 = ms.SurfaceMesh(perm[tris], positions=None,
                            edge_lengths=np.column_stack([perm[disc8.edges],
                                                          disc8.lengths]))
        assert m2.total_area() == pytest.approx(disc8.total_area(), rel=1e-13)

    def test_refinement_halves_area_error(self):
        e = [abs(ms.generate_disc(r).total_area() - np.pi) for r in (8, 16)]
        assert e[0] / e[1] >= 2.0


class TestTopologyOp:
    def test_euler_identity_all_generators(self, disc8, hemisphere16):
        annulus = ms.generate_annulus(0.4, 6)
        branched, _ = ms.generate_branched_double_disc(6)
        for m in (disc8, hemisphere16, annulus, branched):
            t = m.topology
            V, E, F = m.vertex_count, m.edge_count, m.triangles.shape[0]
            assert t.euler_characteristic == V - E + F
            assert t.euler_characteristic == 2 - 2 * t.genus_p - t.contours_r

    def test_genus_one_fixture(self):
        # 4x4 flat torus grid with one triangle removed: V=16, E=48, F=31,
        # chi = -1, so (p, r) = (1, 1)
        n = 4
        tris = []
        for i in range(n):
            for j in range(n):
                v00 = i * n + j
                v10 = ((i + 1) % n) * n + j
                v01 = i * n + (j + 1) % n
                v11 = ((i + 1) % n) * n + (j + 1) % n
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
        tris = tris[:-1]
        lens = {}
        for tri in tris:
            for c in range(3):
                u, v = tri[(c + 1) % 3], tri[(c + 2) % 3]
                lens[(min(u, v), max(u, v))] = 1.0
        # the diagonal edge of each cell is longer
        for i in range(n):
            for j in range(n):
                u = i * n + j
                v = ((i + 1) % n) * n + (j + 1) % n
                lens[(min(u, v), max(u, v))] = np.sqrt(2.0)
        m = ms.SurfaceMesh(np.array(tris),
                           edge_lengths=[[u, v, l] for (u, v), l in lens.items()])
        t = m.topology
        assert t == ms.Topology(genus_p=1, contours_r=1,
                                euler_characteristic=-1)

    def test_merged_vertices_give_a_non_integral_genus(self):
        # interior vertices 42 and 147 of the annulus made one: chi = -1
        # with the annulus's two contours would give 2p = 1, so the pinched
        # vertex is refused before any topology is read
        tri = _merged(ms.generate_annulus(0.4, 4).triangles, 42, 147)
        edges = np.unique(np.sort(tri[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2),
                                  axis=1), axis=0)
        assert tri.max() + 1 - len(edges) + len(tri) == -1
        with pytest.raises(MeshError, match="^pinched vertex 42: its "
                           "triangles form 2 fans$"):
            ms.mesh.Triangulation(tri)


def _merged(triangles, keep, gone):
    """`triangles` with vertex `gone` made `keep`, later indices shifted."""
    tri = np.array(triangles)
    tri[tri == gone] = keep
    tri[tri > gone] -= 1
    return tri


@pytest.mark.parametrize("make, keep, gone, on_boundary", [
    (lambda: ms.generate_disc(8), 10, 40, [False, False]),
    (lambda: ms.generate_disc(8), 10, 190, [False, True]),
    (lambda: ms.generate_disc(8), 169, 193, [True, True]),
    (lambda: ms.generate_annulus(0.4, 4), 42, 147, [False, False])],
    ids=["interior-interior", "interior-boundary", "boundary-boundary",
         "annulus"])
def test_pinched_vertex_is_refused_when_built(make, keep, gone, on_boundary):
    mesh = make()
    assert mesh.boundary_vertex_mask[[keep, gone]].tolist() == on_boundary
    with pytest.raises(MeshError, match=f"^pinched vertex {keep}: its "
                       "triangles form 2 fans$"):
        ms.mesh.Triangulation(_merged(mesh.triangles, keep, gone))


class TestValidation:
    def test_triangle_inequality_violation(self):
        with pytest.raises(MeshError, match="triangle inequality"):
            ms.SurfaceMesh([[0, 1, 2]],
                           edge_lengths=[[0, 1, 1.0], [0, 2, 1.0], [1, 2, 2.5]])

    def test_inconsistent_orientation(self):
        pos = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        with pytest.raises(MeshError, match="orientation"):
            ms.SurfaceMesh([[0, 1, 2], [0, 3, 2]], positions=pos)

    def test_nonmanifold_edge(self):
        pos = [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0]]
        with pytest.raises(MeshError, match="non-manifold"):
            ms.SurfaceMesh([[0, 1, 2], [1, 0, 3], [3, 0, 1]], positions=pos)

    def test_disconnected(self):
        pos = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                        [5, 5, 0], [6, 5, 0], [5, 6, 0]], dtype=float)
        with pytest.raises(MeshError, match="components"):
            ms.SurfaceMesh([[0, 1, 2], [3, 4, 5]], positions=pos)

    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
    def test_bad_edge_length_is_named(self, disc8, length):
        lengths = disc8.lengths.copy()
        lengths[[5, 9]] = length
        i, j = disc8.edges[5]
        with pytest.raises(MeshError, match=re.escape(
                f"edge ({i}, {j}) has length {length!r}: edge lengths must "
                "be positive finite reals")):
            ms.SurfaceMesh(disc8.triangulation, edge_lengths=lengths)

    @pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
    def test_exactly_one_metric(self, disc8, both):
        kwargs = ({"positions": disc8.positions, "edge_lengths": disc8.lengths}
                  if both else {})
        for triangles in (disc8.triangulation, disc8.triangles):
            with pytest.raises(MeshError, match="exactly one metric"):
                ms.SurfaceMesh(triangles, **kwargs)

    def test_scaled(self, disc8):
        m = disc8.scaled(3.0)
        assert m.positions is None      # a scaled copy is intrinsic
        assert np.array_equal(m.lengths, disc8.lengths * 3.0)
        assert m.total_area() == pytest.approx(9.0 * disc8.total_area(),
                                               rel=1e-13)

    def test_scaled_intrinsic(self, branched12):
        mesh, _ = branched12
        m = mesh.scaled(0.25)
        assert m.positions is None
        assert np.array_equal(m.edges, mesh.edges)
        assert np.array_equal(m.lengths, mesh.lengths * 0.25)
        assert m.total_area() == pytest.approx(mesh.total_area() / 16, rel=1e-13)
        with pytest.raises(ValueError):
            mesh.scaled(0.0)

    @pytest.mark.parametrize("c", [0.0, -0.0, -1.0, float("nan"),
                                   float("inf"), -float("inf")])
    def test_scale_factor_must_be_a_positive_finite_real(self, disc8, c):
        with pytest.raises(ValueError, match=re.escape(
                f"scale factor must be a positive finite real, got {c!r}")):
            disc8.scaled(c)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-80, 1e80])
    def test_area_outside_the_float_range_is_a_mesh_error(self, c):
        mesh = ms.generate_disc(12)
        sides = (mesh.tri_lengths()[0] * c).tolist()
        with pytest.raises(MeshError, match=re.escape(
                f"triangle 0 with sides {sides} has an area outside "
                "float64's range")):
            mesh.scaled(c)

    def test_lengths_array_must_align_with_edges(self):
        with pytest.raises(MeshError, match="expected 3 edge lengths"):
            ms.SurfaceMesh([[0, 1, 2]], edge_lengths=[1.0, 1.0])

    @pytest.mark.parametrize("kwargs, message", [
        ({"edge_lengths": {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}},
         r"edge lengths must be an \(E,\) array aligned to edges or "
         r"\(R, 3\) rows \[i, j, length\]"),
        ({"edge_lengths": [[0, 1, 1.0], [0, 2], [1, 2, 1.0]]},
         r"edge lengths must be an \(E,\) array"),
        ({"edge_lengths": ["one", "one", "one"]},
         r"edge lengths must be an \(E,\) array"),
        ({"positions": {0: [0, 0, 0], 1: [1, 0, 0], 2: [0, 1, 0]}},
         r"positions must be a \(V, 3\) array of numbers"),
        ({"positions": [[0, 0, 0], [1, 0], [0, 1, 0]]},
         r"positions must be a \(V, 3\) array of numbers"),
        ({"positions": [[0, 0], [1, 0], [0, 1]]},
         r"positions must be a \(V, 3\) array of numbers")],
        ids=["lengths-mapping", "lengths-ragged", "lengths-strings",
             "positions-mapping", "positions-ragged", "positions-2d"])
    def test_non_numeric_metric_is_a_mesh_error(self, kwargs, message):
        with pytest.raises(MeshError, match=message):
            ms.SurfaceMesh([[0, 1, 2]], **kwargs)

    def test_metric_arrays_are_copied(self):
        pos = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float,
                       order="F")
        lens = np.array([3.0, 4.0, 5.0])
        m = ms.SurfaceMesh([[0, 1, 2]], positions=pos)
        n = ms.SurfaceMesh([[0, 1, 2]], edge_lengths=lens)
        assert pos.flags.writeable and lens.flags.writeable
        assert m.positions.flags.c_contiguous and not m.positions.flags.writeable
        assert np.array_equal(m.positions, pos)
        assert np.array_equal(n.lengths, lens)

    def test_triangles_and_map_samples_are_copied(self):
        tri = np.array([[0, 1, 2]], dtype=np.int64)
        z = np.array([1, 1j, -1], dtype=complex)
        ms.SurfaceMesh(tri, positions=[[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        ms.MapSample(z, 1)
        assert tri.flags.writeable and z.flags.writeable

    def test_far_vertex_index_sizes_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(MeshError, match=r"unreferenced vertices: "
                                                r"\[3 4 5 6 7\]"):
                ms.mesh.Triangulation([[0, 1, 2], [2, 1, 10 ** 7]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("index", [1e300, -1e300, 2.0 ** 63])
    def test_float_index_past_int64_is_rejected_without_a_warning(self,
                                                                  index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="triangle 1 has a "
                                                "non-integer vertex index"):
                ms.mesh.Triangulation([[0, 1, 2], [2, 1, index]])

    def test_unsigned_index_past_int64_is_rejected(self):
        # as an int64, 2**63 would wrap to a negative index
        tri = np.array([[0, 1, 2], [2, 1, 2 ** 63]], dtype=np.uint64)
        with pytest.raises(MeshError, match=re.escape(
                "triangle 1 has a vertex index of 2**63 or more: "
                "[2, 1, 9223372036854775808]")):
            ms.mesh.Triangulation(tri)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_largest_int64_index_is_in_range(self, dtype):
        tri = np.array([[0, 1, 2], [2, 1, 2 ** 63 - 1]], dtype=dtype)
        with pytest.raises(MeshError, match=r"unreferenced vertices: "
                                            r"\[3 4 5 6 7\]"):
            ms.mesh.Triangulation(tri)

    @pytest.mark.parametrize("triangles, row", [
        ([[0, 1, 2.7]], "triangle 0 has a non-integer vertex index: "
                        r"\[0.0, 1.0, 2.7\]"),
        ([[0, 1, 2], [0, 2, float("nan")]], "triangle 1 "),
        ([[0, 1, 2], [0, 2, float("inf")]], "triangle 1 ")])
    def test_non_integer_triangle_index_rejected(self, triangles, row):
        pos = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        with pytest.raises(MeshError, match=row):
            ms.SurfaceMesh(triangles, positions=pos)

    def test_integral_float_triangle_index_accepted(self):
        pos = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        m = ms.SurfaceMesh([[0.0, 1.0, 2.0]], positions=pos)
        assert m.triangles.dtype == np.int64
        assert m.triangles.tolist() == [[0, 1, 2]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("index", [1e300, -1e300, np.inf, np.nan, 2.5])
    def test_non_integer_row_index_is_named_without_a_warning(self, index):
        rows = [[0, 1, 3.0], [1, 2, 5.0], [index, 2, 4.0]]
        with pytest.raises(MeshError, match=re.escape(
                "edge length row 2 has a non-integer vertex index: "
                f"{[float(index), 2.0, 4.0]}")):
            ms.SurfaceMesh([[0, 1, 2]], edge_lengths=rows)

    def test_length_rows_accept_either_orientation(self):
        m = ms.SurfaceMesh([[0, 1, 2]],
                           edge_lengths=[[1, 0, 3.0], [0, 2, 4.0], [2, 1, 5.0]])
        assert np.array_equal(m.lengths, [3.0, 4.0, 5.0])


def _sorted_key_verdict(tri):
    """The message of the first check of `Triangulation._validate` that
    `tri` fails, or None, with orientation checked by the sorted-key rule
    the half-edge pairs replaced: no directed key i * n + j twice.  No
    array `_edited_triangulations` makes has a pinched vertex, so the fan
    rule is left out."""
    tri = np.asarray(tri, dtype=np.int64)
    if np.any((tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2])
              | (tri[:, 0] == tri[:, 2])):
        return "triangle with repeated vertex"
    he = tri[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)
    edges, edge_of = np.unique(np.sort(he, axis=1), axis=0,
                               return_inverse=True)
    if np.bincount(edge_of.ravel()).max() > 2:
        return "non-manifold edge shared by more than two triangles"
    keys = np.sort(he[:, 0] * (int(tri.max()) + 1) + he[:, 1])
    if np.any(keys[1:] == keys[:-1]):
        return "inconsistent orientation: repeated directed half-edge"
    nf, ne = len(tri), len(edges)
    adj = coo_matrix((np.ones(3 * nf), (np.repeat(np.arange(nf), 3),
                                        nf + edge_of.ravel())),
                     shape=(nf + ne, nf + ne))
    ncomp = connected_components(adj, directed=False)[0]
    if ncomp != 1:
        return f"triangle adjacency graph has {ncomp} components"
    return None


def _edited_triangulations():
    """Valid triangle arrays and each with one triangle flipped, a third
    triangle on one of its edges (either way round), a triangle repeated
    (either way round) or a separate triangle added."""
    # a closed 4-by-4 torus grid, two triangles per cell
    cell = [(4 * i + j, 4 * ((i + 1) % 4) + j, 4 * ((i + 1) % 4) + (j + 1) % 4)
            for i in range(4) for j in range(4)]
    torus = cell + [(a, c, a - a % 4 + (a + 1) % 4) for a, _, c in cell]
    bases = [ms.generate_disc(3).triangles,
             ms.generate_annulus(0.4, 2).triangles, square_mesh(3).triangles,
             octahedron().triangles, np.array(torus), np.array([[0, 1, 2]]),
             np.array([[0, 1, 2], [0, 2, 1]]),
             np.array([[0, 1, 2], [0, 2, 3]])]
    for base in bases:
        base = np.array(base, dtype=np.int64)
        n = int(base.max()) + 1
        yield base
        for t in {0, len(base) // 2}:
            flipped = base.copy()
            flipped[t] = flipped[t, [0, 2, 1]]
            a, b, _ = base[t]
            yield flipped
            yield np.vstack([base, [a, b, n]])
            yield np.vstack([base, [b, a, n]])
            yield np.vstack([base, base[t]])
            yield np.vstack([base, base[t, ::-1]])
        yield np.vstack([base, [n, n + 1, n + 2]])


def test_orientation_count_agrees_with_sorted_keys():
    verdicts = set()
    for tri in _edited_triangulations():
        try:
            ms.mesh.Triangulation(tri)
            verdict = None
        except MeshError as exc:
            verdict = str(exc)
        assert verdict == _sorted_key_verdict(tri), tri.tolist()
        verdicts.add(verdict)
    assert verdicts == {
        None, "non-manifold edge shared by more than two triangles",
        "inconsistent orientation: repeated directed half-edge",
        "triangle adjacency graph has 2 components"}


def _fan_counts(tri):
    """Per vertex, the number of groups its triangles form when two that
    share an edge at the vertex are joined: a union-find walk per vertex."""
    counts = {}
    for v in np.unique(tri).tolist():
        around = [set(t) for t in tri.tolist() if v in t]
        root = list(range(len(around)))

        def find(f):
            while root[f] != f:
                f = root[f]
            return f

        for f in range(len(around)):
            for g in range(f):
                if len(around[f] & around[g]) >= 2:     # v and one more
                    root[find(f)] = find(g)
        counts[v] = len({find(f) for f in range(len(around))})
    return counts


@pytest.mark.parametrize("base", [ms.generate_disc(2).triangles,
                                  ms.generate_annulus(0.4, 1).triangles],
                         ids=["disc", "annulus"])
def test_fan_rule_agrees_with_a_walk_per_vertex(base):
    # every mesh made by merging two vertices of `base`: the verdict after
    # the first three checks is the walk's first pinched vertex, if any
    verdicts = set()
    n = int(base.max()) + 1
    for keep in range(n):
        for gone in range(keep + 1, n):
            tri = _merged(base, keep, gone)
            expected = _sorted_key_verdict(tri)
            pinched = [(v, c) for v, c in sorted(_fan_counts(tri).items())
                       if c > 1]
            if pinched and (expected is None or "components" in expected):
                expected = "pinched vertex {}: its triangles form {} fans" \
                    .format(*pinched[0])
            try:
                ms.mesh.Triangulation(tri)
                verdict = None
            except MeshError as exc:
                verdict = str(exc)
            assert verdict == expected, (keep, gone)
            verdicts.add(verdict and verdict.split(" ")[0])
    assert verdicts >= {None, "triangle", "non-manifold", "pinched"}


class TestTriangulation:
    @pytest.mark.parametrize("rings", [12, 24])
    def test_battery_shares_one_read_only_triangulation(self, rings):
        meshes = [fixtures.instance(name, rings)[0] for name in fixtures.BATTERY]
        z, tri = ms.mesh._disc_structure(rings)
        assert all(m.triangulation is tri for m in meshes)
        assert all(m.csr_pattern is tri.csr_pattern for m in meshes)
        arrays = [z, tri.triangles, tri.edges, tri.corner_edges,
                  tri.boundary_vertex_mask, tri.interior_vertex_indices,
                  *tri.csr_pattern, *tri.interior_pattern]
        for arr in arrays:
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            meshes[0].triangles[0, 0] = 1

    def test_scaled_shares_the_triangulation(self, disc8, branched12):
        for mesh in (disc8, branched12[0]):
            assert mesh.scaled(2.0).triangulation is mesh.triangulation

    def test_file_and_user_arrays_build_their_own(self, tmp_path, disc8):
        before = ms.mesh._disc_structure.cache_info()
        ms.save_mesh(tmp_path / "disc.json", disc8)
        loaded, _ = ms.load_mesh(tmp_path / "disc.json")
        own = ms.SurfaceMesh(disc8.triangles, positions=disc8.positions)
        assert ms.mesh._disc_structure.cache_info() == before
        for m in (loaded, own):
            assert m.triangulation is not disc8.triangulation
            assert np.array_equal(m.triangles, disc8.triangles)

    def test_size_comes_from_the_triangles(self):
        params = inspect.signature(ms.mesh.Triangulation).parameters
        assert list(params) == ["triangles"]
        assert ms.mesh.Triangulation([[0, 1, 2], [0, 2, 3]]).vertex_count == 4

    def test_positions_must_match_a_given_triangulation(self, disc8):
        with pytest.raises(MeshError, match="positions must have 217 rows"):
            ms.SurfaceMesh(disc8.triangulation, positions=disc8.positions[:-1])

    @pytest.mark.parametrize("triangles, positions, message", [
        ([[0, 1, 2], [0, 2, 2]], None, "repeated vertex"),
        ([[0, 1, 3]], None, "unreferenced vertices"),
        ([[0, 1, 2], [1, 0, 3], [3, 0, 1]], None, "non-manifold"),
        ([[0, 1, 2], [0, 3, 2]], None, "orientation"),
        ([[0, 1, 2], [3, 4, 5]], None, "2 components"),
        ([[0, 1, -2]], None, "negative vertex index"),
        ([[0, 1, 2]], np.eye(4, 3), "positions must have 3 rows"),
        ([[0, 1, 2.5]], None, "non-integer vertex index")])
    def test_invalid_triangles_raise(self, triangles, positions, message):
        with pytest.raises(MeshError, match=message):
            if positions is None:
                ms.mesh.Triangulation(triangles)
            else:
                ms.SurfaceMesh(triangles, positions=positions)


class TestJsonInterchange:
    def test_roundtrip_embedded(self, tmp_path, disc8):
        path = tmp_path / "disc.json"
        ms.save_mesh(path, disc8)
        m2, f = ms.load_mesh(path)
        assert f is None
        assert m2.total_area() == pytest.approx(disc8.total_area(), rel=1e-15)
        assert m2.topology == disc8.topology

    def test_roundtrip_intrinsic_with_map(self, tmp_path, branched12):
        mesh, f = branched12
        path = tmp_path / "branched.json"
        ms.save_mesh(path, mesh, f)
        m2, f2 = ms.load_mesh(path)
        assert m2.positions is None
        assert f2.degree == 2
        np.testing.assert_allclose(f2.values, f.values, rtol=0, atol=1e-15)
        assert m2.total_area() == pytest.approx(mesh.total_area(), rel=1e-15)

    @pytest.mark.parametrize("count", [5, 38])
    def test_save_rejects_a_map_of_another_length(self, tmp_path, count):
        mesh = ms.generate_disc(3)      # 37 vertices
        with pytest.raises(MeshError,
                           match=f"map has {count} samples for 37 vertices"):
            ms.save_mesh(tmp_path / "m.json", mesh, resized_map(mesh, count))
        assert os.listdir(tmp_path) == []

    def test_degree_without_a_map_rejected(self, disc8):
        doc = dict(ms.mesh.mesh_to_json_dict(disc8), degree=2)
        with pytest.raises(MeshError, match="'degree' but no 'map'"):
            ms.mesh.mesh_from_json_dict(doc)

    def test_exactly_one_metric_source(self, tmp_path, disc8):
        doc = ms.mesh.mesh_to_json_dict(disc8)
        doc["edge_lengths"] = [[0, 1, 1.0]]
        with pytest.raises(MeshError, match="exactly one"):
            ms.mesh.mesh_from_json_dict(doc)
        del doc["edge_lengths"], doc["vertices"]
        with pytest.raises(MeshError, match="exactly one"):
            ms.mesh.mesh_from_json_dict(doc)

    @pytest.mark.parametrize("name", [*fixtures.BATTERY, "scaled-disc"])
    def test_roundtrip_keeps_the_metric_bit_for_bit(self, name):
        mesh = (ms.generate_disc(8).scaled(3.0) if name == "scaled-disc"
                else fixtures.instance(name, 6)[0])
        doc = ms.mesh.mesh_to_json_dict(mesh)
        for again in (doc, ms.mesh.loads(ms.mesh.dumps(doc))):
            m2, _ = ms.mesh.mesh_from_json_dict(again)
            assert m2.lengths.tobytes() == mesh.lengths.tobytes()
            assert m2.total_area() == mesh.total_area()

    def test_rows_in_any_order_and_orientation(self, branched12):
        mesh, f = branched12
        doc = ms.mesh.mesh_to_json_dict(mesh, f)
        rows = doc["edge_lengths"]
        rng = np.random.default_rng(11)
        shuffled = [rows[k] for k in rng.permutation(len(rows))]
        flipped = [[j, i, l] if k % 2 else [i, j, l]
                   for k, (i, j, l) in enumerate(shuffled)]
        m2, f2 = ms.mesh.mesh_from_json_dict(dict(doc, edge_lengths=flipped))
        assert np.array_equal(m2.lengths, mesh.lengths)
        assert np.array_equal(f2.values, f.values)

    def test_missing_edge_named(self, branched12):
        mesh, _ = branched12
        doc = ms.mesh.mesh_to_json_dict(mesh)
        i, j, _ = doc["edge_lengths"].pop(17)
        with pytest.raises(MeshError, match=rf"missing edge length for edge \({i}, {j}\)"):
            ms.mesh.mesh_from_json_dict(doc)

    def test_conflicting_rows_rejected(self, branched12):
        mesh, _ = branched12
        doc = ms.mesh.mesh_to_json_dict(mesh)
        i, j, length = doc["edge_lengths"][5]
        # a repeated row with the same length is harmless
        same = dict(doc, edge_lengths=doc["edge_lengths"] + [[j, i, length]])
        assert np.array_equal(ms.mesh.mesh_from_json_dict(same)[0].lengths,
                              mesh.lengths)
        doc["edge_lengths"].append([j, i, 2.0 * length])
        with pytest.raises(MeshError, match=rf"edge \({i}, {j}\) is given two "
                                            rf"lengths, {length} and {2.0 * length}$"):
            ms.mesh.mesh_from_json_dict(doc)

    @pytest.mark.parametrize("bad, message", BAD_ROWS)
    def test_row_naming_no_edge_rejected(self, bad, message):
        mesh, _ = ms.generate_branched_double_disc(3)      # 37 vertices
        rows = ms.mesh.mesh_to_json_dict(mesh)["edge_lengths"]
        with pytest.raises(MeshError, match=rf"row {len(rows)} {message}"):
            ms.SurfaceMesh(mesh.triangles, edge_lengths=rows + [bad])

    def test_out_of_range_row_is_not_matched_to_an_edge(self):
        mesh, _ = ms.generate_branched_double_disc(3)
        doc = ms.mesh.mesh_to_json_dict(mesh)
        n = mesh.vertex_count
        # (i - 1) * n + (j + n) is edge (i, j)'s key i * n + j
        i, j, length = doc["edge_lengths"].pop(-1)
        doc["edge_lengths"].append([i - 1, j + n, length])
        with pytest.raises(MeshError, match=rf"\[{i - 1}, {j + n}, "
                                            rf"{length}\] names a vertex outside"):
            ms.mesh.mesh_from_json_dict(doc)

    def test_map_length_must_match_vertices(self, branched12):
        mesh, f = branched12
        doc = ms.mesh.mesh_to_json_dict(mesh, f)
        doc["map"] = doc["map"][:-3]
        V = mesh.vertex_count
        with pytest.raises(MeshError, match=f"map has {V - 3} samples for {V} vertices"):
            ms.mesh.mesh_from_json_dict(doc)

    @pytest.mark.parametrize("key, bad", [("map", [[0.0, 1.0, 2.0]]),
                                          ("edge_lengths", [[0, 1]]),
                                          ("edge_lengths", [[0, 1.5, 1.0]]),
                                          ("degree", 2.9), ("degree", True),
                                          ("degree", "2"), ("degree", 0),
                                          ("triangles", [[0, 1, 2.9]]),
                                          ("triangles", {"a": 1})])
    def test_malformed_rows_rejected(self, branched12, key, bad):
        doc = ms.mesh.mesh_to_json_dict(*branched12)
        doc[key] = bad
        with pytest.raises(MeshError):
            ms.mesh.mesh_from_json_dict(doc)

    def test_non_integer_triangle_index_in_a_file(self):
        doc = {"triangles": [[0, 1, 2.9], [0, 2, 3]],
               "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]}
        with pytest.raises(MeshError, match="triangle 0 has a non-integer"):
            ms.mesh.mesh_from_json_dict(doc)

    @pytest.mark.parametrize("doc", [5, [1, 2], "mesh", None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(MeshError, match="mesh JSON must be an object"):
            ms.mesh.mesh_from_json_dict(doc)

    @pytest.mark.parametrize("vertices", [{"a": 1}, 5, [[0, 0, "x"]],
                                          [[0, 0], [1, 0], [0, 1]]])
    def test_vertices_must_be_rows_of_three_numbers(self, vertices):
        doc = {"triangles": [[0, 1, 2]], "vertices": vertices}
        with pytest.raises(MeshError, match="'vertices' must be a list of "
                                            "rows of 3 numbers"):
            ms.mesh.mesh_from_json_dict(doc)

    def test_indented_file_loads_the_same(self, tmp_path, bump_disc12):
        # files written with indent=2 (the earlier `gen` format) still load
        mesh, f = bump_disc12
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(ms.mesh.mesh_to_json_dict(mesh, f),
                                   sort_keys=True, indent=2))
        m2, f2 = ms.load_mesh(path)
        assert np.array_equal(m2.triangles, mesh.triangles)
        assert np.array_equal(m2.lengths, mesh.lengths)
        assert np.array_equal(f2.values, f.values)

    def test_deterministic_serialization(self, disc8):
        a = json.dumps(ms.mesh.mesh_to_json_dict(disc8), sort_keys=True)
        b = json.dumps(ms.mesh.mesh_to_json_dict(ms.generate_disc(8)),
                       sort_keys=True)
        assert a == b


COPIERS = [pytest.param(copy.copy, id="copy"),
           pytest.param(copy.deepcopy, id="deepcopy"),
           pytest.param(lambda x: pickle.loads(pickle.dumps(x)), id="pickle")]


@pytest.mark.parametrize("duplicate", COPIERS)
class TestCopies:
    """Copies and pickles are built by the constructors, so they are
    checked, read-only and build their own matrices."""

    def test_triangulation(self, duplicate):
        tri = ms.generate_annulus(0.4, 3).triangulation
        dup = duplicate(tri)
        assert type(dup) is ms.mesh.Triangulation and dup is not tri
        for name in ("triangles", "edges", "corner_edges",
                     "boundary_edge_mask", "boundary_vertex_mask",
                     "interior_vertex_indices"):
            arr = getattr(dup, name)
            assert np.array_equal(arr, getattr(tri, name))
            assert not arr.flags.writeable
        assert [loop.tolist() for loop in dup.boundary_loops] == \
            [loop.tolist() for loop in tri.boundary_loops]
        with pytest.raises(ValueError, match="read-only"):
            dup.triangles[0, 0] = 1

    @pytest.mark.parametrize("shape, rings", [
        ("disc", 3), ("conformal-disc", 6), ("branched-disc", 4)])
    def test_mesh_and_map(self, duplicate, shape, rings):
        mesh, f = fixtures.build(shape, rings)
        before = ms.mesh.dumps(ms.verify_inequality(mesh, f).to_json_dict())
        K, M = ms.assemble_stiffness(mesh), ms.assemble_mass(mesh)
        dup, g = duplicate(mesh), duplicate(f)
        assert "_stiffness" not in vars(dup) and "_mass" not in vars(dup)
        arrays = [(dup.lengths, mesh.lengths), (g.values, f.values),
                  (dup.triangle_areas, mesh.triangle_areas)]
        if mesh.positions is not None:
            arrays.append((dup.positions, mesh.positions))
        else:
            assert dup.positions is None
        for new, old in arrays:
            assert np.array_equal(new, old) and not new.flags.writeable
        assert g.degree == f.degree
        dK, dM = ms.assemble_stiffness(dup), ms.assemble_mass(dup)
        assert dK is not K and dM is not M
        assert np.array_equal(dK.data, K.data)
        assert np.array_equal(dM.data, M.data)
        for arr in (dup.lengths, g.values, dK.data, dM.data):
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2
        after = ms.mesh.dumps(ms.verify_inequality(dup, g).to_json_dict())
        assert after == before


class TestMapSample:
    @pytest.mark.parametrize("shape", [(127, 1), (1, 127), ()],
                             ids=["column", "row", "0-d"])
    def test_samples_must_be_one_dimensional(self, shape):
        mesh, f = fixtures.instance("conformal-0", 6)
        values = f.values.reshape(shape) if shape else f.values[0]
        with pytest.raises(MeshError, match=re.escape(
                f"map samples must be a 1-D array, got shape {shape}")):
            ms.MapSample(values, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_non_finite_sample_rejected(self, bad):
        vals = np.zeros(6, dtype=complex)
        vals[[3, 5]] = bad
        with pytest.raises(MeshError, match="vertex 3 is not finite"):
            ms.MapSample(vals, 1)

    @pytest.mark.parametrize("degree", [1.5, 2.0, True, "1", 0, -2])
    def test_degree_must_be_a_positive_integer(self, degree):
        with pytest.raises(MeshError, match="degree must be a positive integer"):
            ms.MapSample(np.zeros(3), degree)

    def test_numpy_integer_degree_becomes_int(self):
        f = ms.MapSample(np.zeros(3), np.int64(2))
        assert f.degree == 2 and type(f.degree) is int

    def test_null_sample_in_file_rejected(self, tmp_path, bump_disc12):
        # the codec writes NaN as null, which reads back as NaN
        doc = ms.mesh.mesh_to_json_dict(*bump_disc12)
        doc["map"][7] = [None, 0.0]
        path = tmp_path / "null.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MeshError, match=r"vertex 7 is not finite: \(nan\+0j\)"):
            ms.load_mesh(path)

    def test_check_proper_rejects_closed_mesh(self):
        m = octahedron()
        f = ms.MapSample(m.positions[:, 0] + 1j * m.positions[:, 1], 1)
        with pytest.raises(ValueError,
                           match="mesh has no boundary: none of its 6 vertices"):
            f.check_proper(m)


class TestCodec:
    @pytest.mark.parametrize("writer", ["codec", "stdlib", "stdlib-indent"])
    @pytest.mark.parametrize("shape", fixtures.SHAPES)
    def test_every_shape_roundtrips_exactly(self, tmp_path, shape, writer):
        mesh, f = fixtures.build(shape, 6)
        doc = ms.mesh.mesh_to_json_dict(mesh, f)
        path = tmp_path / "mesh.json"
        if writer == "codec":
            ms.save_mesh(path, mesh, f)
            # same schema and values, whatever the number spelling
            assert json.loads(path.read_text()) == doc
        else:
            # the compact and indented files of the earlier stdlib writer
            indent = 2 if writer == "stdlib-indent" else None
            path.write_text(json.dumps(doc, sort_keys=True, indent=indent) + "\n")
        m2, f2 = ms.load_mesh(path)
        assert np.array_equal(m2.triangles, mesh.triangles)
        assert np.array_equal(m2.edges, mesh.edges)
        assert np.array_equal(m2.lengths, mesh.lengths)
        if mesh.positions is None:
            assert m2.positions is None
        else:
            assert np.array_equal(m2.positions, mesh.positions)
        if f is None:
            assert f2 is None
        else:
            assert np.array_equal(f2.values, f.values)
            assert f2.degree == f.degree

    def test_dumps_options(self):
        doc = {"b": np.float64(1e-5), "a": [np.int64(3), 2.5]}
        assert ms.mesh.dumps(doc) == b'{"a":[3,2.5],"b":0.00001}\n'
        assert ms.mesh.dumps(doc, indent=True).startswith(b'{\n  "a": [\n')
        assert json.loads(ms.mesh.dumps(doc, indent=True)) == \
            {"a": [3, 2.5], "b": 1e-5}

    @pytest.mark.parametrize("text", ['{"triangles": [[0, 1, NaN]]}',
                                      '{"triangles": Infinity}',
                                      '{"triangles": [[0, 1, 2]'])
    def test_malformed_file_is_a_value_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            ms.load_mesh(path)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, tmp_path, branched12, enabled):
        path, bad = tmp_path / "mesh.json", tmp_path / "bad.json"
        bad.write_text('{"vertices": []}')
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            ms.save_mesh(path, *branched12)
            assert gc.isenabled() is enabled
            ms.load_mesh(path)
            assert gc.isenabled() is enabled
            with pytest.raises(MeshError, match="lacks 'triangles'"):
                ms.load_mesh(bad)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_gc_paused_while_documents_are_built_and_parsed(
            self, tmp_path, monkeypatch, disc8):
        seen = []

        def spy(fn):
            def wrapper(*args):
                seen.append(gc.isenabled())
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ms.mesh, "mesh_to_json_dict",
                            spy(ms.mesh.mesh_to_json_dict))
        monkeypatch.setattr(ms.mesh, "mesh_from_json_dict",
                            spy(ms.mesh.mesh_from_json_dict))
        path = tmp_path / "disc.json"
        ms.save_mesh(path, disc8)
        ms.load_mesh(path)
        assert seen == [False, False]
        assert gc.isenabled()

    def test_package_import_does_not_load_the_codec(self):
        # the codec library is imported on first use, not with the package,
        # and multiprocessing, which forked_map does without, not at all
        code = ("import sys, membrane_spectra as ms; "
                "ms.solve_neumann(ms.generate_disc(4), 2); "
                "print('orjson' in sys.modules, "
                "'multiprocessing' in sys.modules)")
        src = os.path.dirname(os.path.dirname(ms.__file__))
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.strip() == "False False"


def test_square_fixture_valid():
    m = square_mesh(4)
    assert m.total_area() == pytest.approx(1.0, rel=1e-14)
    assert m.topology == ms.Topology(0, 1, 1)

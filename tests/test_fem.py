import inspect
import os
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import ArpackNoConvergence

import membrane_spectra as ms
from membrane_spectra import fem, fixtures
from membrane_spectra.fem import EigenSolveError
from membrane_spectra.mesh import MeshError

from conftest import (J0_ZERO, J1P_ZERO, assert_no_child_left, octahedron,
                      square_mesh)


def single_triangle_mesh(p0, p1, p2):
    pos = np.array([list(p0) + [0.0], list(p1) + [0.0], list(p2) + [0.0]])
    return ms.SurfaceMesh([[0, 1, 2]], positions=pos)


def quadrature_stiffness(p0, p1, p2):
    """Independent oracle: integrate P1 gradient products numerically."""
    pts = np.array([p0, p1, p2], dtype=float)
    e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    A = np.column_stack([e1, e2])
    Ainv = np.linalg.inv(A)
    # barycentric gradients: lam1, lam2 are the reference coordinates
    g = np.vstack([-Ainv.sum(axis=0), Ainv])
    K = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            val, _ = dblquad(lambda y, x: g[i] @ g[j], 0, 1,
                             0, lambda x: 1 - x)
            K[i, j] = val * jac
    return K


def quadrature_mass(p0, p1, p2):
    pts = np.array([p0, p1, p2], dtype=float)
    e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    bary = [lambda x, y: 1 - x - y, lambda x, y: x, lambda x, y: y]
    M = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            val, _ = dblquad(lambda y, x: bary[i](x, y) * bary[j](x, y),
                             0, 1, 0, lambda x: 1 - x, epsabs=1e-14)
            M[i, j] = val * jac
    return M


def _coo_stiffness(mesh):
    # the COO triplet assembly that the pattern fill replaces
    tri = mesh.triangles
    l2 = mesh.tri_lengths() ** 2
    area = mesh.triangle_areas
    w = np.empty_like(l2)
    for c in range(3):
        a2 = l2[:, c]
        b2 = l2[:, (c + 1) % 3]
        c2 = l2[:, (c + 2) % 3]
        w[:, c] = (b2 + c2 - a2) / (8.0 * area)
    n = mesh.vertex_count
    rows, cols, vals = [], [], []
    for c in range(3):
        i = tri[:, (c + 1) % 3]
        j = tri[:, (c + 2) % 3]
        wc = w[:, c]
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-wc, -wc, wc, wc]
    K = coo_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n, n)).tocsr()
    K.sum_duplicates()
    return K


def _coo_mass(mesh):
    # the COO triplet assembly that the pattern fill replaces
    tri = mesh.triangles
    area = mesh.triangle_areas
    n = mesh.vertex_count
    rows, cols, vals = [], [], []
    for a in range(3):
        for b in range(3):
            rows.append(tri[:, a])
            cols.append(tri[:, b])
            vals.append(area * ((2.0 if a == b else 1.0) / 12.0))
    M = coo_matrix((np.concatenate(vals),
                    (np.concatenate(rows), np.concatenate(cols))),
                   shape=(n, n)).tocsr()
    M.sum_duplicates()
    return M


def _relabelled_intrinsic(rings=9):
    # a conformal disc with its vertices permuted and no positions, so the
    # pattern's rows are not the generator's ring order
    mesh, _ = fixtures.instance("conformal-1", rings)
    perm = np.random.default_rng(11).permutation(mesh.vertex_count)
    rows = np.column_stack([perm[mesh.edges], mesh.lengths])
    return ms.SurfaceMesh(perm[mesh.triangles], edge_lengths=rows)


class TestPatternAssembly:
    @pytest.mark.parametrize("name", fixtures.BATTERY + ["relabelled"])
    def test_matches_coo_reference(self, name):
        mesh = (_relabelled_intrinsic() if name == "relabelled"
                else fixtures.instance(name, 12)[0])
        for new, ref in ((ms.assemble_stiffness(mesh), _coo_stiffness(mesh)),
                         (ms.assemble_mass(mesh), _coo_mass(mesh))):
            assert np.array_equal(new.indptr, ref.indptr)
            assert np.array_equal(new.indices, ref.indices)
            assert new.indices.dtype == ref.indices.dtype
            scale = np.max(np.abs(ref.data))
            np.testing.assert_allclose(new.data, ref.data, rtol=0,
                                       atol=1e-14 * scale)

    def test_pattern_is_canonical_shared_and_read_only(self, bump_disc12):
        mesh, _ = bump_disc12
        pattern = mesh.csr_pattern
        assert mesh.csr_pattern is pattern
        n, e = mesh.vertex_count, mesh.edge_count
        assert pattern.indptr[-1] == pattern.indices.size == n + 2 * e
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        keys = rows * n + pattern.indices
        assert np.all(keys[1:] > keys[:-1])        # sorted, no duplicates
        # the natural layout: the diagonal, then (i, j), then (j, i) per edge
        v, (i, j) = np.arange(n), mesh.edges.T
        assert np.array_equal(rows, np.concatenate([v, i, j])[pattern.take])
        assert np.array_equal(pattern.indices,
                              np.concatenate([v, j, i])[pattern.take])
        for arr in pattern:
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pattern.indices[0] = 0
        K, M = ms.assemble_stiffness(mesh), ms.assemble_mass(mesh)
        for A in (K, M):
            assert A.has_canonical_format
            assert np.shares_memory(A.indices, pattern.indices)
            assert np.shares_memory(A.indptr, pattern.indptr)
            np.testing.assert_array_equal(A.toarray(), A.toarray().T)

    def test_pattern_built_once_per_triangulation(self, monkeypatch):
        built = []
        real = ms.mesh._csr_pattern

        def counted(*args):
            built.append(args[1])
            return real(*args)

        monkeypatch.setattr(ms.mesh, "_csr_pattern", counted)
        ms.mesh._disc_structure.cache_clear()
        # a second verdict at the same resolution, of the same fixture or
        # another, builds none
        for name in ("conformal-0", "conformal-0", "disc"):
            mesh, f = fixtures.instance(name, 6)
            ms.verify_inequality(mesh, f)
        assert built == [mesh.vertex_count]

    @pytest.mark.parametrize("name", fixtures.BATTERY + ["relabelled"])
    def test_interior_pattern_matches_fancy_index(self, name):
        mesh = (_relabelled_intrinsic() if name == "relabelled"
                else fixtures.instance(name, 12)[0])
        interior = mesh.interior_vertex_indices
        sub = mesh.interior_pattern
        K, M = ms.assemble_stiffness(mesh), ms.assemble_mass(mesh)
        blocks = []
        for A in (K, M):
            ref = A[np.ix_(interior, interior)].tocsr()
            assert np.array_equal(sub.indptr, ref.indptr)
            assert np.array_equal(sub.indices, ref.indices)
            assert np.array_equal(A.data[sub.take], ref.data)
            blocks.append(ref)
        # the shift-invert factor reads the CSR arrays of K - sigma M/area
        # as its CSC arrays, which holds as both patterns are symmetric
        for A, B in ((K, M), blocks):
            sigma, Ma = -0.1, B / B.sum()
            ref = (A - sigma * Ma).tocsc()
            assert np.array_equal(ref.indptr, A.indptr)
            assert np.array_equal(ref.indices, A.indices)
            assert np.array_equal(ref.data, A.data - sigma * Ma.data)


class TestKeptMatrices:
    """Each mesh's K and M are built on the first request and kept."""

    @pytest.mark.parametrize("rings", [6, 26])
    def test_one_verdict_builds_each_matrix_once(self, monkeypatch, cpus,
                                                 rings):
        # rings 26 goes through forked_map, which runs both of its calls
        # in this process on one CPU
        forks = cpus(1)
        built = []
        for name in ("_stiffness", "_mass"):
            def counted(mesh, name=name, build=getattr(fem, name)):
                built.append(name)
                return build(mesh)
            monkeypatch.setattr(fem, name, counted)
        mesh, f = fixtures.instance("conformal-0", rings)
        assert (mesh.vertex_count >= ms.verify.SPLIT_MIN_VERTICES) == (rings > 6)
        ms.verify_inequality(mesh, f)
        assert sorted(built) == ["_mass", "_stiffness"]
        assert forks == []

    def test_kept_matrix_is_returned_again_and_read_only(self):
        mesh = ms.generate_disc(4)
        for assemble in (ms.assemble_stiffness, ms.assemble_mass):
            A = assemble(mesh)
            before = A.data.copy()
            assert assemble(mesh) is A
            with pytest.raises(ValueError, match="read-only"):
                A.data[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                A *= 2.0
            assert np.array_equal(assemble(mesh).data, before)
        # a scaled copy shares the triangulation but keeps its own matrices
        scaled = mesh.scaled(2.0)
        assert ms.assemble_mass(scaled) is not ms.assemble_mass(mesh)
        np.testing.assert_allclose(ms.assemble_mass(scaled).data,
                                   4.0 * ms.assemble_mass(mesh).data,
                                   rtol=1e-14)

    def test_threads_that_race_to_build_get_one_matrix(self):
        # four threads ask a fresh mesh at once, switching every microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                mesh, got = ms.generate_disc(12), []
                start = threading.Barrier(4)

                def ask():
                    start.wait()
                    got.append((ms.assemble_stiffness(mesh),
                                ms.assemble_mass(mesh)))

                threads = [threading.Thread(target=ask) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert len(got) == 4
                assert all(K is got[0][0] and M is got[0][1] for K, M in got)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name", fixtures.BATTERY)
    def test_matrices_requested_before_a_verdict_change_no_byte(self, name):
        fresh, f = fixtures.instance(name, 12)
        warm, g = fixtures.instance(name, 12)
        ms.assemble_mass(warm)
        ms.assemble_stiffness(warm)
        assert (ms.mesh.dumps(ms.verify_inequality(warm, g).to_json_dict())
                == ms.mesh.dumps(ms.verify_inequality(fresh, f).to_json_dict()))


class TestAssembleStiffness:
    def test_right_isoceles_triangle(self):
        # right-angle vertex first, legs 1
        m = single_triangle_mesh((0, 0), (1, 0), (0, 1))
        K = ms.assemble_stiffness(m).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                                   [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(K, expected, atol=1e-14)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(3, 2))
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            if abs(e1[0] * e2[1] - e1[1] * e2[0]) < 0.05:
                continue
            if e1[0] * e2[1] - e1[1] * e2[0] < 0:
                pts = pts[[0, 2, 1]]
            m = single_triangle_mesh(*pts)
            K = ms.assemble_stiffness(m).toarray()
            np.testing.assert_allclose(K, quadrature_stiffness(*pts),
                                       atol=1e-12)

    def test_constants_in_kernel(self, disc8):
        K = ms.assemble_stiffness(disc8)
        assert np.max(np.abs(K @ np.ones(disc8.vertex_count))) < 1e-12

    def test_rigid_motion_invariance(self):
        pts = np.array([(0.1, 0.2), (0.9, 0.15), (0.4, 0.8)])
        K1 = ms.assemble_stiffness(single_triangle_mesh(*pts)).toarray()
        th = 0.83
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        K2 = ms.assemble_stiffness(
            single_triangle_mesh(*(pts @ R.T + [3.0, -1.0]))).toarray()
        np.testing.assert_allclose(K1, K2, atol=1e-12)

    def test_symmetric_psd(self, disc8):
        K = ms.assemble_stiffness(disc8).toarray()
        np.testing.assert_allclose(K, K.T, atol=0)
        assert np.linalg.eigvalsh(K).min() > -1e-10


class TestAssembleMass:
    def test_local_block(self):
        m = single_triangle_mesh((0, 0), (1, 0), (0, 1))
        M = ms.assemble_mass(m).toarray()
        np.testing.assert_allclose(M, (0.5 / 12) * np.array(
            [[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float), atol=1e-15)

    def test_against_quadrature_oracle(self):
        pts = [(0.1, -0.3), (1.2, 0.1), (0.3, 0.9)]
        M = ms.assemble_mass(single_triangle_mesh(*pts)).toarray()
        np.testing.assert_allclose(M, quadrature_mass(*pts), atol=1e-12)

    def test_partition_of_unity(self, disc8):
        M = ms.assemble_mass(disc8)
        one = np.ones(disc8.vertex_count)
        assert one @ (M @ one) == pytest.approx(disc8.total_area(), rel=1e-14)

    def test_disc_mass_area(self):
        m = ms.generate_disc(64)
        M = ms.assemble_mass(m)
        one = np.ones(m.vertex_count)
        assert one @ (M @ one) == pytest.approx(np.pi, rel=1e-3)



class TestSolveDirichlet:
    def test_disc_bessel_eigenvalue(self, disc32):
        res = ms.solve_dirichlet(disc32, 1)
        assert res.eigenvalues[0] == pytest.approx(J0_ZERO ** 2, rel=5e-3)
        assert np.max(res.residuals) <= 1e-8

    def test_hemisphere(self, hemisphere32):
        res = ms.solve_dirichlet(hemisphere32, 1)
        assert res.eigenvalues[0] == pytest.approx(2.0, rel=5e-3)

    def test_unit_square_separation_of_variables(self):
        res = ms.solve_dirichlet(square_mesh(24), 1)
        assert res.eigenvalues[0] == pytest.approx(2 * np.pi ** 2, rel=1e-2)

    def test_boundary_zeros_and_normalization(self, disc8):
        res = ms.solve_dirichlet(disc8, 2)
        b = disc8.boundary_vertex_mask
        assert np.all(res.eigenfunctions[b] == 0.0)
        M = ms.assemble_mass(disc8)
        for u in res.eigenfunctions.T:
            assert u @ (M @ u) == pytest.approx(1.0, rel=1e-10)

    def test_closed_mesh_is_rejected(self):
        with pytest.raises(MeshError, match="mesh has no boundary: none of "
                           "its 6 vertices is a boundary vertex$"):
            ms.solve_dirichlet(octahedron(), 1)

    def test_too_many_eigenpairs(self):
        m = ms.generate_disc(1)  # one interior vertex
        with pytest.raises(EigenSolveError, match="interior"):
            ms.solve_dirichlet(m, 2)


class TestSolveNeumann:
    def test_disc_bessel_derivative_zero(self, disc32):
        res = ms.solve_neumann(disc32, 2)
        assert res.eigenvalues[0] == pytest.approx(J1P_ZERO ** 2, rel=5e-3)
        assert res.eigenvalues[1] / res.eigenvalues[0] == pytest.approx(
            1.0, rel=1e-2)  # double eigenvalue

    def test_hemisphere_mu_equals_two(self, hemisphere32):
        res = ms.solve_neumann(hemisphere32, 2)
        np.testing.assert_allclose(res.eigenvalues, [2.0, 2.0], rtol=5e-3)

    def test_k_is_at_most_one_less_than_the_dofs(self):
        mesh = ms.generate_disc(3)      # 37 vertices
        res = ms.solve_neumann(mesh, 36)
        assert res.eigenvalues.shape == (36,) and res.eigenvalues[0] > 0
        with pytest.raises(EigenSolveError, match=re.escape(
                "k=37 is not in [1, 36]: 37 dofs less the zero mode")):
            ms.solve_neumann(mesh, 37)

    def test_zero_mode_excluded_and_zero_mean(self, disc8):
        res = ms.solve_neumann(disc8, 3)
        assert res.zero_mode_gap is not None and res.zero_mode_gap > 0
        assert np.all(res.eigenvalues > 1e-8)
        M = ms.assemble_mass(disc8)
        one = np.ones(disc8.vertex_count)
        for u in res.eigenfunctions.T:
            assert abs(one @ (M @ u)) < 1e-12

    def test_disconnected_reports_extra_zero_modes(self, unvalidated):
        pos = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                        [5, 5, 0], [6, 5, 0], [5, 6, 0]], dtype=float)
        m = ms.SurfaceMesh([[0, 1, 2], [3, 4, 5]], positions=pos)
        with pytest.raises(EigenSolveError, match="disconnected"):
            ms.solve_neumann(m, 1)

    @pytest.mark.parametrize("k, message", [
        (1, "no eigenvalue above the zero-mode floor among the 2 smallest"),
        (3, "3 numerically zero Neumann modes")])
    def test_three_components_are_disconnected(self, unvalidated, k,
                                               message):
        tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        pos = np.vstack([tri + [5.0 * c, 0, 0] for c in range(3)])
        m = ms.SurfaceMesh(np.arange(9).reshape(3, 3), positions=pos)
        with pytest.raises(EigenSolveError,
                           match=f"{message}.*mesh is disconnected"):
            ms.solve_neumann(m, k)


class TestRayleighQuotient:
    def test_eigenpair(self, disc8):
        res = ms.solve_dirichlet(disc8, 1)
        q = ms.rayleigh_quotient(res.eigenfunctions[:, 0],
                                 ms.assemble_stiffness(disc8),
                                 ms.assemble_mass(disc8))
        assert q == pytest.approx(res.eigenvalues[0], rel=1e-10)

    def test_constant_is_zero(self, disc8):
        assert ms.rayleigh_quotient(np.ones(disc8.vertex_count),
                                    ms.assemble_stiffness(disc8),
                                    ms.assemble_mass(disc8)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_x3_on_hemisphere(self, hemisphere32):
        # continuum value 2 = (4 pi / 3) / (2 pi / 3): the numerator is the
        # energy of x3 on the hemisphere, the denominator half the
        # symmetric sphere integral of x3^2 (which is 4 pi / 3)
        q = ms.rayleigh_quotient(hemisphere32.positions[:, 2],
                                 ms.assemble_stiffness(hemisphere32),
                                 ms.assemble_mass(hemisphere32))
        assert q == pytest.approx(2.0, rel=5e-3)

    def test_zero_function_rejected(self, disc8):
        with pytest.raises(ValueError):
            ms.rayleigh_quotient(np.zeros(disc8.vertex_count),
                                 ms.assemble_stiffness(disc8),
                                 ms.assemble_mass(disc8))

    def test_nan_function_rejected(self):
        m = ms.generate_disc(4)
        with pytest.raises(ValueError, match="u\\^T M u > 0, got nan"):
            ms.rayleigh_quotient(np.full(m.vertex_count, np.nan),
                                 ms.assemble_stiffness(m), ms.assemble_mass(m))


class TestVariationalProperties:
    def test_minmax_dirichlet_and_neumann(self, disc8):
        K = ms.assemble_stiffness(disc8)
        M = ms.assemble_mass(disc8)
        lam1 = ms.solve_dirichlet(disc8, 1).eigenvalues[0]
        mu1 = ms.solve_neumann(disc8, 1).eigenvalues[0]
        b = disc8.boundary_vertex_mask
        one = np.ones(disc8.vertex_count)
        m1 = M @ one
        area = m1.sum()
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = rng.standard_normal(disc8.vertex_count)
            ud = np.where(b, 0.0, u)
            assert ms.rayleigh_quotient(ud, K, M) >= lam1 * (1 - 1e-12)
            un = u - (m1 @ u) / area
            assert ms.rayleigh_quotient(un, K, M) >= mu1 * (1 - 1e-12)

    def test_monotone_refinement(self):
        lams = [ms.solve_dirichlet(ms.generate_disc(r), 1).eigenvalues[0]
                for r in (8, 16, 32)]
        assert lams[0] > lams[1] > lams[2] > J0_ZERO ** 2

    def test_mu1_le_mu2(self, disc8, hemisphere16):
        for m in (disc8, hemisphere16):
            res = ms.solve_neumann(m, 2)
            assert res.eigenvalues[0] <= res.eigenvalues[1]

    def test_metric_scaling(self, disc8):
        c = 2.5
        scaled = disc8.scaled(c)
        for solve in (ms.solve_dirichlet, ms.solve_neumann):
            v1 = solve(disc8, 2).eigenvalues
            v2 = solve(scaled, 2).eigenvalues
            np.testing.assert_allclose(v2 * c ** 2, v1, rtol=1e-10)
        assert scaled.total_area() == pytest.approx(c ** 2 * disc8.total_area(),
                                                    rel=1e-12)

    @pytest.mark.parametrize("path", ["dense", "sparse"])
    @pytest.mark.parametrize("c", [1e-60, 1e-8, 1e-4, 1e-2, 1e2, 1e4, 1e8,
                                   1e60])
    def test_metric_scaling_extremes(self, disc16, solver_path, c, path):
        # the residual check is relative to lambda, so it neither rejects
        # small metrics nor passes vacuously on large ones
        solver_path(path)
        scaled = disc16.scaled(c)
        for solve in (ms.solve_dirichlet, ms.solve_neumann):
            r1 = solve(disc16, 2)
            r2 = solve(scaled, 2)
            np.testing.assert_allclose(r2.eigenvalues * c ** 2, r1.eigenvalues,
                                       rtol=1e-10)
            ratio = np.max(r2.residuals) / np.max(r1.residuals)
            assert 0.1 < ratio < 10.0


class TestSolverAgreement:
    def test_dense_vs_sparse(self, solver_path):
        m = ms.generate_disc(18)  # 1027 vertices
        solves = (ms.solve_dirichlet, ms.solve_neumann)
        solver_path("dense")
        dense = [solve(m, 3).eigenvalues for solve in solves]
        solver_path("sparse")
        sparse = [solve(m, 3).eigenvalues for solve in solves]
        for s, d in zip(sparse, dense):
            np.testing.assert_allclose(s, d, rtol=1e-7)

    def test_dense_answer_does_not_depend_on_k(self, branched12, solver_path):
        mesh, _ = branched12
        solver_path("dense")
        four = ms.solve_neumann(mesh, 4).eigenvalues
        five = ms.solve_neumann(mesh, 5).eigenvalues
        assert np.array_equal(five[:4], four)

    @pytest.mark.parametrize("solve, rings, extra", [
        (ms.solve_dirichlet, 11, 0),     # 331 interior dofs
        (ms.solve_neumann, 10, 1)])      # 331 vertices, k + 1 pairs
    @pytest.mark.parametrize("gap, path", [
        (2, "eigsh"), (1, "eigh"), (0, "eigh")])
    def test_auto_near_the_full_spectrum(self, monkeypatch, solver_path,
                                         solve, rings, extra, gap, path):
        # k = n - 2 takes shift-invert with the Lanczos basis capped at n;
        # k >= n - 1 is left to the dense solver
        mesh = ms.generate_disc(rings)
        n = (mesh.vertex_count if extra else
             mesh.interior_vertex_indices.size)
        assert n > fem.DENSE_CUTOFF
        calls = []
        for name in ("eigh", "eigsh"):
            original = getattr(fem, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(fem, name, counted)
        res = solve(mesh, n - gap - extra)
        assert calls == [path]
        assert np.max(res.residuals) <= fem.RESIDUAL_TOL
        if path == "eigsh":
            monkeypatch.undo()
            solver_path("dense")
            dense = solve(mesh, n - gap - extra)
            np.testing.assert_allclose(res.eigenvalues, dense.eigenvalues,
                                       rtol=1e-9)

    @pytest.mark.parametrize("name, dirichlet, neumann", [
        ("conformal-0", 13, 16), ("disc", 13, 26)])
    def test_lanczos_basis_is_sized_to_the_request(self, monkeypatch, name,
                                                   dirichlet, neumann):
        # OPinv applications per solve; the default 20-vector basis run to
        # machine precision makes 21 and 21 (conformal-0) or 21 and 37 (disc)
        factors = []
        real = fem.splu

        class Counted:
            def __init__(self, lu):
                self.lu, self.calls = lu, 0

            def solve(self, b):
                self.calls += 1
                return self.lu.solve(b)

        def counted(*args, **kwargs):
            factors.append(Counted(real(*args, **kwargs)))
            return factors[-1]

        monkeypatch.setattr(fem, "splu", counted)
        report = ms.verify_inequality(*fixtures.instance(name, 24))
        calls = [f.calls for f in factors]
        assert len(calls) == 2
        assert calls[0] <= dirichlet and calls[1] <= neumann, calls
        assert max(report.dirichlet_residuals
                   + report.neumann_residuals) <= fem.RESIDUAL_TOL

    def test_sparse_is_deterministic(self, solver_path):
        m = ms.generate_disc(24)
        solver_path("sparse")
        a = ms.solve_neumann(m, 2)
        b = ms.solve_neumann(m, 2)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenfunctions, b.eigenfunctions)

    @pytest.mark.parametrize("error", [
        ArpackNoConvergence("ARPACK error -1: No convergence",
                            np.empty(0), np.empty((0, 0))),
        RuntimeError("Factor is exactly singular"),
    ])
    def test_sparse_failure_is_typed(self, disc8, monkeypatch, solver_path,
                                     error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(fem, "eigsh", fail)
        solver_path("sparse")
        n = disc8.interior_vertex_indices.size
        with pytest.raises(EigenSolveError,
                           match=rf"n={n} dofs, k=1, sigma=-\S+: "):
            ms.solve_dirichlet(disc8, 1)

    def test_singular_factor_is_typed(self, disc8, monkeypatch, solver_path):
        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(fem, "splu", fail)
        solver_path("sparse")
        with pytest.raises(EigenSolveError, match="Factor is exactly singular"):
            ms.solve_neumann(disc8, 2)

    def test_nan_residual_is_rejected(self, disc8, monkeypatch, solver_path):
        real = fem.eigsh

        def nan_row(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            vecs[0] = np.nan
            return vals, vecs

        monkeypatch.setattr(fem, "eigsh", nan_row)
        solver_path("sparse")
        with pytest.raises(EigenSolveError, match="residuals too large: max nan"):
            ms.solve_dirichlet(disc8, 1)

    def test_other_runtime_errors_propagate(self, disc8, monkeypatch,
                                            solver_path):
        def fail(*args, **kwargs):
            raise RuntimeError("unrelated")

        monkeypatch.setattr(fem, "eigsh", fail)
        solver_path("sparse")
        with pytest.raises(RuntimeError, match="unrelated") as info:
            ms.solve_dirichlet(disc8, 1)
        assert not isinstance(info.value, EigenSolveError)

    @staticmethod
    def _verdict_solves(monkeypatch, rings):
        """`eigh` and `eigsh` calls of one verdict on the `rings` disc."""
        calls = {"eigh": 0, "eigsh": 0}
        for name in calls:
            original = getattr(fem, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(fem, name, counted)
        ms.verify_inequality(*fixtures.instance("disc", rings))
        return calls

    @pytest.mark.parametrize("rings, dense, sparse", [(4, 2, 0), (12, 0, 2)])
    def test_solver_path(self, monkeypatch, rings, dense, sparse):
        calls = self._verdict_solves(monkeypatch, rings)
        assert calls == {"eigh": dense, "eigsh": sparse}

    @pytest.mark.parametrize("rings, path, dense, sparse", [
        (4, "sparse", 0, 2), (12, "dense", 2, 0)])
    def test_solver_path_fixture_forces_the_path(self, monkeypatch,
                                                 solver_path, rings, path,
                                                 dense, sparse):
        # each size takes the other path by default (test_solver_path)
        solver_path(path)
        calls = self._verdict_solves(monkeypatch, rings)
        assert calls == {"eigh": dense, "eigsh": sparse}

    def test_no_caller_chooses_the_path_or_skips_checks(self):
        for fn in (fem.solve_dirichlet, fem.solve_neumann, fem._solve_gevp,
                   ms.mesh.Triangulation, ms.SurfaceMesh):
            params = inspect.signature(fn).parameters
            assert not {"method", "validate"} & set(params), fn

    @pytest.mark.parametrize("name", fixtures.BATTERY)
    def test_auto_matches_dense_on_battery(self, name, solver_path):
        m, _ = fixtures.instance(name, 12)
        solves = ((ms.solve_dirichlet, 1), (ms.solve_neumann, 2))
        auto = [solve(m, k).eigenvalues for solve, k in solves]
        solver_path("dense")
        for (solve, k), values in zip(solves, auto):
            np.testing.assert_allclose(values, solve(m, k).eigenvalues,
                                       rtol=1e-9)


    def test_dense_results_do_not_depend_on_blas_threads(self, blas_libs):
        # 217 vertices: both problems take the dense path
        m, _ = fixtures.build("conformal-disc", 8)
        results = []
        for threads in (1, 2):
            for _, set_ in blas_libs:
                set_(threads)
            results.append([ms.solve_dirichlet(m, 1), ms.solve_neumann(m, 2)])
        for one, two in zip(*results):
            for name in ("eigenvalues", "eigenfunctions", "residuals"):
                assert np.array_equal(getattr(one, name), getattr(two, name))

    def test_sparse_results_do_not_depend_on_blas_threads(self, blas_libs):
        # 12,481 vertices: the factor, Lanczos run and residuals of the
        # shift-invert path, outside forked_map
        m, _ = fixtures.build("conformal-disc", 64)
        results = []
        for threads in (1, 2):
            for _, set_ in blas_libs:
                set_(threads)
            results.append(ms.solve_neumann(m, 4))
        for name in ("eigenvalues", "eigenfunctions", "residuals"):
            assert np.array_equal(getattr(results[0], name),
                                  getattr(results[1], name))

    def test_nested_blas_caps_restore_once(self, blas_libs):
        for _, set_ in blas_libs:
            set_(2)
        with fem.single_threaded_blas():
            with fem.single_threaded_blas():
                pass
            assert [get() for get, _ in blas_libs] == [1] * len(blas_libs)
        assert [get() for get, _ in blas_libs] == [2] * len(blas_libs)

    def test_json_export(self, disc8):
        doc = ms.solve_neumann(disc8, 2).to_json_dict()
        assert doc["bc"] == "neumann"
        assert len(doc["eigenvalues"]) == 2
        assert "zero_mode_gap" in doc


def _fail(message):
    raise ValueError(message)


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _blas_threads():
    return [get() for get, _ in fem._openblas_libraries()]


def _megabyte(i):
    return np.full(2 ** 17, float(i))


def _lock():
    return threading.Lock()


def _interrupt(*signal_handler_args):
    raise KeyboardInterrupt


class TestForkedMap:
    """`fem.forked_map` against the list comprehension it stands for."""

    def test_results_in_call_order(self, cpus):
        calls = [(pow, (2, i)) for i in range(5)]
        for n in (1, 3):
            forks = cpus(n)
            assert fem.forked_map(calls) == [2 ** i for i in range(5)]
        assert len(forks) == 3          # three workers, this process idle

    def test_this_process_runs_the_last_call(self, cpus):
        forks = cpus(2)
        first, last = fem.forked_map([(os.getpid, ()), (os.getpid, ())])
        assert len(forks) == 1 and first != last == os.getpid()

    def test_serial_on_one_cpu_or_beside_another_thread(self, cpus):
        forks = cpus(1)
        assert fem.forked_map([(os.getpid, ())] * 2) == [os.getpid()] * 2
        cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert fem.forked_map([(os.getpid, ())] * 2) == [os.getpid()] * 2
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive() and not forks

    def test_a_worker_never_forks_again(self, cpus):
        forks = cpus(3)
        nested = (fem.forked_map, ([(os.getpid, ())] * 2,))
        inner = fem.forked_map([nested] * 2)
        assert len(forks) == 1
        assert [len(set(pids)) for pids in inner] == [1, 1]
        assert inner[0][0] != inner[1][0] == os.getpid()

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_error_in_call_order(self, cpus, n):
        cpus(n)
        with pytest.raises(ValueError, match="^first$"):
            fem.forked_map([(_fail, ("first",)), (_fail, ("last",))])
        with pytest.raises(ValueError, match="^last$"):
            fem.forked_map([(int, ()), (_fail, ("last",))])

    # in the other cases every call runs in a worker: once one has died
    # the other finishes its call and takes no more, so the minute-long
    # sleep never starts, and only the dead one's status shows
    @pytest.mark.parametrize("calls", [[(_die, ()), (int, ())],
                                       [(_die, ()), (time.sleep, (0.5,)),
                                        (int, ())],
                                       [(_die, ()), (time.sleep, (0.5,)),
                                        (time.sleep, (60,)), (int, ())]])
    def test_dead_worker_is_a_typed_error(self, cpus, calls):
        cpus(2)
        start = time.monotonic()
        with pytest.raises(EigenSolveError, match=re.escape(
                "_die() did not return: its forked worker process died "
                "(exit status -9)")):
            fem.forked_map(calls)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_results_larger_than_a_pipe_come_back_whole(self, cpus):
        # both workers write 1 MB results at once, so each waits until
        # this process drains its pipe
        forks = cpus(2)
        results = fem.forked_map([(_megabyte, (i,)) for i in range(4)])
        assert len(forks) == 2
        for i, result in enumerate(results):
            assert np.array_equal(result, _megabyte(i))
        assert_no_child_left()

    def test_queue_longer_than_one_pipe_write(self, cpus):
        # 3,000 call numbers take 12,000 bytes, more than one whole write,
        # and 4 workers share them, more than this host may have CPUs
        forks = cpus(4)
        calls = [(int, (i,)) for i in range(3000)]
        assert fem.forked_map(calls) == list(range(3000))
        assert len(forks) == 4

    def test_no_thread_runs_beside_this_process_s_own_call(self, cpus):
        forks = cpus(2)
        assert fem.forked_map([(int, ()), (threading.active_count, ())]) == [0, 1]
        assert len(forks) == 1

    @pytest.mark.parametrize("where", ["own call", "wait"])
    def test_interrupt_leaves_no_child(self, cpus, where):
        # the workers sleep for a minute, so the interrupt must kill them
        cpus(2)
        sleep = (time.sleep, (60,))
        calls = [sleep, (_interrupt, ())] if where == "own call" else [sleep] * 3
        handler = signal.signal(signal.SIGALRM, _interrupt)
        start = time.monotonic()
        try:
            if where == "wait":
                signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(KeyboardInterrupt):
                fem.forked_map(calls)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_unpicklable_result_is_a_typed_error(self, cpus):
        cpus(2)
        with pytest.raises(EigenSolveError, match=re.escape(
                "_lock() gave its forked worker process a result it cannot "
                "pickle: TypeError(")):
            fem.forked_map([(_lock, ()), (int, ())])
        assert_no_child_left()

    def test_every_call_runs_on_one_blas_thread(self, cpus, blas_libs):
        for (_, set_), n in zip(blas_libs, (2, 3)):
            set_(n)
        before = _blas_threads()
        for n in (1, 2):
            cpus(n)
            assert (fem.forked_map([(_blas_threads, ())] * 2)
                    == [[1] * len(blas_libs)] * 2)
        assert _blas_threads() == before

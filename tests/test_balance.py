import numpy as np
import pytest

import membrane_spectra as ms
from membrane_spectra import balance, fixtures
from membrane_spectra.balance import BalanceError
from membrane_spectra.transplant import (disc_map_from_positions,
                                         identity_map_from_positions)

from conftest import grid_search_balance, octahedron, resized_map, rotated

GRID_SPACING = 2 * 0.99 / 100  # 101-point grid over [-0.99, 0.99]


class TestCenterOfGravity:
    def test_symmetric_disc(self, disc8):
        f = identity_map_from_positions(disc8)
        g1, g2 = ms.center_of_gravity(disc8, f, 0.0)
        assert np.hypot(g1, g2) <= 1e-12 * disc8.total_area()

    def test_hemisphere(self, hemisphere16):
        f = disc_map_from_positions(hemisphere16)
        g1, g2 = ms.center_of_gravity(hemisphere16, f, 0.0)
        assert np.hypot(g1, g2) <= 1e-12 * hemisphere16.total_area()

    def test_offset_parameter_pushes_mass(self, disc8):
        # T_{0.5} moves the disc's mass toward the x1 < 0 side
        f = identity_map_from_positions(disc8)
        g1, g2 = ms.center_of_gravity(disc8, f, 0.5)
        assert g1 < 0.0
        assert abs(g2) < 0.1 * abs(g1)  # zipper breaks exact mirror symmetry


    def test_closed_mesh_rejected(self):
        m = octahedron()
        f = ms.MapSample(m.positions[:, 0] + 1j * m.positions[:, 1], 1)
        with pytest.raises(ValueError,
                           match="mesh has no boundary: none of its 6 vertices"):
            ms.center_of_gravity(m, f)


class TestJacobian:
    @pytest.mark.parametrize("a", [0.0, 0.3 + 0.4j, -0.8j])
    @pytest.mark.parametrize("name", ["bump_disc12", "branched12"])
    def test_closed_form_matches_central_differences(self, request, name, a):
        mesh, f = request.getfixturevalue(name)
        m1 = ms.assemble_mass(mesh) @ np.ones(mesh.vertex_count)
        _, sf = balance._moments(mesh, f, a, m1)
        J = balance._jacobian(mesh, f, a, sf, m1)
        h = 1e-6
        fd = np.empty((2, 2))
        for col, da in enumerate((h, 1j * h)):
            gp, _ = balance._moments(mesh, f, a + da, m1)
            gm, _ = balance._moments(mesh, f, a - da, m1)
            fd[:, col] = (gp - gm) / (2 * h)
        assert np.linalg.norm(J - fd) <= 1e-6 * np.linalg.norm(fd)


class TestBalance:
    def test_symmetric_disc_immediate(self, disc8):
        f = identity_map_from_positions(disc8)
        res = ms.balance_center_of_mass(disc8, f)
        assert abs(res.a) <= 1e-8
        assert res.iterations <= 2
        assert res.residual <= 1e-10 * disc8.total_area()

    def test_gaussian_bump_disc(self, bump_disc12):
        mesh, f = bump_disc12
        res = ms.balance_center_of_mass(mesh, f)
        assert res.residual <= 1e-10 * mesh.total_area()
        assert res.a.real > 0.0  # automorphism pulls the bump back to center
        a_grid, _ = grid_search_balance(mesh, f)
        assert abs(res.a - a_grid) <= 2 * GRID_SPACING

    def test_branched_disc(self, branched12):
        mesh, f = branched12
        res = ms.balance_center_of_mass(mesh, f)
        assert res.residual <= 1e-10 * mesh.total_area()
        a_grid, _ = grid_search_balance(mesh, f)
        assert abs(res.a - a_grid) <= 2 * GRID_SPACING

    def test_random_conformal_disc_grid_agreement(self):
        mesh, f = fixtures.instance("conformal-5", 10)
        res = ms.balance_center_of_mass(mesh, f)
        assert res.residual <= 1e-10 * mesh.total_area()
        a_grid, _ = grid_search_balance(mesh, f)
        assert abs(res.a - a_grid) <= 2 * GRID_SPACING

    def test_rotation_equivariance(self, bump_disc12):
        mesh, f = bump_disc12
        a0 = ms.balance_center_of_mass(mesh, f).a
        a1 = ms.balance_center_of_mass(mesh, rotated(f, np.pi / 2)).a
        assert abs(a1 - 1j * a0) <= 1e-8

    def test_balanced_moments_vanish(self, bump_disc12):
        mesh, f = bump_disc12
        res = ms.balance_center_of_mass(mesh, f)
        g1, g2 = ms.center_of_gravity(mesh, f, res.a)
        assert np.hypot(g1, g2) <= 1e-10 * mesh.total_area()

    def test_json_dict(self, disc8):
        f = identity_map_from_positions(disc8)
        doc = ms.balance_center_of_mass(disc8, f).to_json_dict()
        assert set(doc) == {"a", "residual", "iterations"}

    def test_nonconvergence_reports_best_residual(self, bump_disc12,
                                                  monkeypatch):
        mesh, f = bump_disc12
        monkeypatch.setattr(balance, "BALANCE_REL_TOL", 1e-30)
        monkeypatch.setattr(balance, "MAX_NEWTON_STEPS", 2)
        with pytest.raises(BalanceError, match="residual"):
            ms.balance_center_of_mass(mesh, f)

    def test_closed_mesh_rejected(self):
        m = octahedron()
        f = ms.MapSample(m.positions[:, 0] + 1j * m.positions[:, 1], 1)
        with pytest.raises(ValueError,
                           match="mesh has no boundary: none of its 6 vertices"):
            ms.balance_center_of_mass(m, f)

    @pytest.mark.parametrize("count", [60, 62])
    def test_sample_count_must_match_vertices(self, count):
        mesh = ms.generate_disc(4)      # 61 vertices
        with pytest.raises(ValueError,
                           match=f"map has {count} samples for 61 vertices"):
            ms.balance_center_of_mass(mesh, resized_map(mesh, count))

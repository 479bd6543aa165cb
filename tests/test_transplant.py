import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import membrane_spectra as ms
from membrane_spectra.transplant import (disc_map_from_positions,
                                         identity_map_from_positions)

from conftest import octahedron, resized_map

FOUR_PI_3 = 4 * np.pi / 3


def unit_disc_points():
    return st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                              allow_infinity=False)


class TestLift:
    def test_north_pole(self):
        assert ms.lift_to_hemisphere(0j) == (0.0, 0.0, 1.0)

    def test_equator(self):
        x1, x2, x3 = ms.lift_to_hemisphere(1.0 + 0j)
        assert (x1, x2, x3) == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_specific_point(self):
        x1, x2, x3 = ms.lift_to_hemisphere(1j / np.sqrt(3))
        assert x1 == pytest.approx(0.0, abs=1e-15)
        assert x2 == pytest.approx(np.sqrt(3) / 2, rel=1e-14)
        assert x3 == pytest.approx(0.5, rel=1e-14)

    def test_rejects_outside_disc(self):
        with pytest.raises(ValueError):
            ms.lift_to_hemisphere(1.1 + 0j)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [complex("nan"), complex(0.5, float("nan")),
                                   np.array([0.5, complex("nan")])])
    def test_rejects_nan(self, z):
        with pytest.raises(ValueError, match=re.escape("needs |z| <= 1")):
            ms.lift_to_hemisphere(z)

    @given(unit_disc_points())
    @settings(max_examples=200)
    def test_lands_on_northern_hemisphere(self, z):
        x1, x2, x3 = ms.lift_to_hemisphere(z)
        assert x1 * x1 + x2 * x2 + x3 * x3 == pytest.approx(1.0, abs=1e-14)
        assert x3 >= -1e-15


class TestMobius:
    def test_identity_at_zero(self):
        z = np.exp(1j * np.linspace(0, 2, 17))
        np.testing.assert_allclose(ms.mobius(0.0, 0.5 * z), 0.5 * z, atol=0)

    def test_sends_a_to_zero(self):
        assert abs(ms.mobius(0.3 + 0.4j, 0.3 + 0.4j)) == 0.0

    def test_circle_to_circle(self):
        z = np.exp(1j * np.linspace(0, 2 * np.pi, 100, endpoint=False))
        np.testing.assert_allclose(np.abs(ms.mobius(0.5, z)), 1.0, atol=1e-12)

    def test_rejects_large_parameter(self):
        with pytest.raises(ValueError):
            ms.mobius(1.0, 0j)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [complex("nan"), complex(0.1, float("nan"))])
    def test_rejects_nan_parameter(self, disc8, a):
        f = identity_map_from_positions(disc8)
        for call in (lambda: ms.mobius(a, 0.5),
                     lambda: ms.center_of_gravity(disc8, f, a),
                     lambda: ms.transplant_coords(disc8, f, a)):
            with pytest.raises(ValueError, match="got \\|a\\|=nan"):
                call()

    @given(st.complex_numbers(max_magnitude=0.95, allow_nan=False),
           unit_disc_points())
    @settings(max_examples=200)
    def test_stays_in_disc(self, a, z):
        assert abs(ms.mobius(a, z)) <= 1.0 + 1e-9


class TestTransplantCoords:
    def test_hemisphere_roundtrip(self, hemisphere16):
        f = disc_map_from_positions(hemisphere16)
        sf = ms.transplant_coords(hemisphere16, f, 0.0)
        np.testing.assert_allclose(sf.x1, hemisphere16.positions[:, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(sf.x2, hemisphere16.positions[:, 1],
                                   atol=1e-12)
        np.testing.assert_allclose(sf.x3, hemisphere16.positions[:, 2],
                                   atol=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.3 + 0.4j, -0.7j, 0.9])
    def test_pointwise_norm_identity(self, disc8, a):
        f = identity_map_from_positions(disc8)
        sf = ms.transplant_coords(disc8, f, a)
        np.testing.assert_allclose(sf.x1 ** 2 + sf.x2 ** 2 + sf.x3 ** 2,
                                   1.0, atol=5e-15)

    def test_boundary_clamped_exactly(self, disc8):
        f = identity_map_from_positions(disc8)
        sf = ms.transplant_coords(disc8, f, 0.2 + 0.1j)
        b = disc8.boundary_vertex_mask
        assert np.all(sf.x3[b] == 0.0)
        assert np.all(sf.x3[~b] > 0.0)

    def test_disc_center(self, disc8):
        f = identity_map_from_positions(disc8)
        sf = ms.transplant_coords(disc8, f, 0.0)
        assert sf.x3[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("count", [60, 62])
    def test_sample_count_must_match_vertices(self, count):
        mesh = ms.generate_disc(4)      # 61 vertices
        with pytest.raises(ValueError,
                           match=f"map has {count} samples for 61 vertices"):
            ms.transplant_coords(mesh, resized_map(mesh, count))

    def test_boundary_vertex_at_the_disc_center_rejected(self, disc8):
        z = identity_map_from_positions(disc8).values.copy()
        z[np.flatnonzero(disc8.boundary_vertex_mask)[3]] = 0.0
        with pytest.raises(ValueError,
                           match="boundary vertex mapped to the disc center"):
            ms.transplant_coords(disc8, ms.MapSample(z, 1))


class TestDirichletEnergy:
    def test_constant_is_zero(self, disc8):
        assert ms.dirichlet_energy(disc8, np.ones(disc8.vertex_count)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_hemisphere_coordinate_energy(self, hemisphere32):
        e = ms.dirichlet_energy(hemisphere32, hemisphere32.positions[:, 0])
        assert e == pytest.approx(FOUR_PI_3, rel=5e-3)

    def test_branched_transplant_energy(self):
        mesh, f = ms.generate_branched_double_disc(24)
        sf = ms.transplant_coords(mesh, f, 0.0)
        e = ms.dirichlet_energy(mesh, sf.x3)
        assert e == pytest.approx(2 * FOUR_PI_3, rel=5e-3)

    def test_energy_additivity_refines(self):
        # sum of the three transplanted energies tends to d * 4 pi
        errs = []
        for rings in (8, 16):
            mesh = ms.generate_disc(rings)
            f = identity_map_from_positions(mesh)
            sf = ms.transplant_coords(mesh, f, 0.0)
            tot = sum(ms.dirichlet_energy(mesh, u)
                      for u in (sf.x1, sf.x2, sf.x3))
            errs.append(abs(tot - 4 * np.pi))
        assert errs[1] < 0.5 * errs[0]

    def test_mobius_invariance_of_total_energy(self, disc16):
        f = identity_map_from_positions(disc16)
        totals = []
        for a in (0.0, 0.3, 0.5j, -0.2 + 0.4j):
            sf = ms.transplant_coords(disc16, f, a)
            totals.append(sum(ms.dirichlet_energy(disc16, u)
                              for u in (sf.x1, sf.x2, sf.x3)))
        # conformal invariance up to O(h)
        assert np.ptp(totals) < 0.05 * 4 * np.pi

    def test_mass_identity(self, disc16):
        f = identity_map_from_positions(disc16)
        sf = ms.transplant_coords(disc16, f, 0.4j)
        M = ms.assemble_mass(disc16)
        total = sum(u @ (M @ u) for u in (sf.x1, sf.x2, sf.x3))
        # P1 interpolation of the unit-norm triple underestimates by O(h^2)
        assert total == pytest.approx(disc16.total_area(), rel=1e-2)
        assert total <= disc16.total_area()


class TestComputeDegree:
    def test_identity(self, disc16):
        f = identity_map_from_positions(disc16)
        assert ms.compute_degree(disc16, f) == 1

    def test_squaring_map(self, branched12):
        mesh, f = branched12
        assert ms.compute_degree(mesh, f) == 2

    def test_annulus_identity_not_proper(self):
        m = ms.generate_annulus(0.5, 8)
        f = identity_map_from_positions(m)
        with pytest.raises(ValueError, match="proper"):
            ms.compute_degree(m, f)

    def test_closed_mesh_is_rejected(self):
        m = octahedron()
        with pytest.raises(ValueError,
                           match="mesh has no boundary: none of its 6 vertices"):
            ms.compute_degree(
                m, ms.MapSample(m.positions[:, 0] + 1j * m.positions[:, 1], 1))

    def test_rejects_non_integral_estimate(self, disc16):
        # boundary on the unit circle but turning 1.5 times, so one
        # boundary step jumps by about pi: the map is under-resolved there
        z = identity_map_from_positions(disc16).values
        vals = np.abs(z) * np.exp(1.5j * np.angle(z))
        with pytest.raises(ValueError, match="under-resolved") as err:
            ms.compute_degree(disc16, ms.MapSample(vals, 1))
        u, v, turn = re.search(r"from vertex (\d+) to vertex (\d+) turns "
                               r"by (\S+) rad", str(err.value)).groups()
        (loop,) = [loop.tolist() for loop in disc16.boundary_loops]
        k = loop.index(int(u))
        assert loop[(k + 1) % len(loop)] == int(v)
        step = np.angle(vals[int(v)] / vals[int(u)])
        assert abs(step) >= np.pi / 2
        assert float(turn) == pytest.approx(step, abs=1e-4)

    @pytest.mark.parametrize("turns", [2, 3])
    def test_degree_is_the_boundary_winding_number(self, disc16, turns):
        # |z| e^{i turns arg z} winds `turns` times along the boundary
        z = identity_map_from_positions(disc16).values
        vals = np.abs(z) * np.exp(1j * turns * np.angle(z))
        assert ms.compute_degree(disc16, ms.MapSample(vals, turns)) == turns


class TestDiscMapFromPositions:
    def test_small_cap_boundary_on_circle(self):
        cap = ms.generate_spherical_cap(np.pi / 6, 12)
        f = disc_map_from_positions(cap)
        r = np.abs(f.values[cap.boundary_vertex_mask])
        assert np.max(np.abs(1.0 - r)) <= 1e-9
        f.check_proper(cap)
        assert ms.compute_degree(cap, f) == 1

    def test_needs_positions(self, branched12):
        with pytest.raises(ValueError):
            disc_map_from_positions(branched12[0])

    def test_south_pole_on_the_mesh_rejected(self):
        mesh = ms.SurfaceMesh([[0, 1, 2]],
                              positions=[[0, 0, -1], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError, match="south pole lies on the mesh"):
            disc_map_from_positions(mesh)


def test_identity_map_needs_positions(branched12):
    with pytest.raises(ValueError, match="mesh carries no positions"):
        identity_map_from_positions(branched12[0])

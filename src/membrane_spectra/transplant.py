"""Hemisphere lifts, disc automorphisms, and transplanted trial functions.

Trial functions on the hemisphere (the ambient coordinates x1, x2, x3)
are pulled back to the surface through a proper map to the disc: compose
with a Mobius automorphism, lift through inverse stereographic
projection, and sample per vertex.  Dirichlet energies of the pullbacks
are conformally invariant, so they accumulate the map's covering degree,
which is the winding number of the map along the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import assemble_stiffness
from .mesh import MapSample, SurfaceMesh

_DISC_TOL = 1e-9


@dataclass(frozen=True)
class SphereFunctions:
    """Per-vertex samples of the three transplanted coordinate functions.

    Pointwise x1^2 + x2^2 + x3^2 = 1; x3 = 0 exactly on boundary
    vertices (the Dirichlet trial function), x3 >= 0 elsewhere.
    """

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray


def lift_to_hemisphere(z):
    """Inverse stereographic projection (from the south pole) of the
    closed unit disc onto the closed northern hemisphere.

    Maps 0 to the north pole and the unit circle to the equator.
    Accepts a complex scalar or array; returns the (x1, x2, x3) triple.
    """
    z = np.asarray(z, dtype=complex)
    r2 = (z * z.conj()).real
    if np.any(r2 > (1.0 + _DISC_TOL) ** 2):
        raise ValueError("lift_to_hemisphere needs |z| <= 1")
    denom = 1.0 + r2
    x1 = 2.0 * z.real / denom
    x2 = 2.0 * z.imag / denom
    x3 = (1.0 - r2) / denom
    return x1, x2, x3


def mobius(a: complex, z):
    """Disc automorphism T_a(z) = (z - a) / (1 - conj(a) z); T_a(a) = 0."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise ValueError(f"Mobius parameter must satisfy |a| < 1, got |a|={abs(a)}")
    z = np.asarray(z, dtype=complex)
    return (z - a) / (1.0 - np.conj(a) * z)


def transplant_coords(mesh: SurfaceMesh, f: MapSample, a: complex = 0.0,
                      ) -> SphereFunctions:
    """Pull back the hemisphere coordinates through T_a after f.

    Boundary vertices are projected radially onto the unit circle before
    lifting, so x3 vanishes there exactly and x3 is admissible as a
    discrete Dirichlet trial function.
    """
    w = mobius(a, f.values)
    boundary = mesh.boundary_vertex_mask()
    wb = w[boundary]
    rb = np.abs(wb)
    if np.any(rb == 0.0):
        raise ValueError("boundary vertex mapped to the disc center")
    r = np.abs(w)
    w = np.divide(w, r, out=w.copy(), where=r > 1.0)
    x1, x2, x3 = lift_to_hemisphere(w)
    wb = wb / rb
    x1[boundary] = wb.real
    x2[boundary] = wb.imag
    x3[boundary] = 0.0
    return SphereFunctions(x1, x2, x3)


def dirichlet_energy(mesh: SurfaceMesh, u: np.ndarray) -> float:
    """u^T K u with the cotangent stiffness K (conformally invariant)."""
    u = np.asarray(u, dtype=float)
    return float(u @ (assemble_stiffness(mesh) @ u))


def compute_degree(mesh: SurfaceMesh, f: MapSample) -> int:
    """Covering degree of a proper map to the disc: the winding number of
    f along the boundary, which by the argument principle is exact.

    Sums angle(f[v_{k+1}] / f[v_k]) over the steps of every boundary loop
    (surface on the left) and divides by 2 pi.  Raises ValueError when
    the map is not proper (`MapSample.check_proper`), when a step turns by
    pi/2 or more (the map is under-resolved there) and when the degree is
    below 1 (the map reverses orientation).
    """
    f.check_proper(mesh)
    winding = 0.0
    for loop in mesh.boundary_loop_indices():
        w = f.values[loop]
        turn = np.angle(np.roll(w, -1) / w)
        k = int(np.argmax(np.abs(turn)))
        if abs(turn[k]) >= np.pi / 2:
            raise ValueError(
                f"map is under-resolved on the boundary: the step from "
                f"vertex {loop[k]} to vertex {loop[(k + 1) % loop.size]} "
                f"turns by {turn[k]:.4f} rad, not less than pi/2")
        winding += float(turn.sum())
    degree = round(winding / (2.0 * np.pi))
    if degree < 1:
        raise ValueError(f"computed degree {degree} is not positive: "
                         "the map reverses orientation")
    return degree


def identity_map_from_positions(mesh: SurfaceMesh) -> MapSample:
    """Identity map z = x + i y of a flat mesh embedded in the unit disc."""
    if mesh.positions is None:
        raise ValueError("mesh carries no positions")
    return MapSample(mesh.positions[:, 0] + 1j * mesh.positions[:, 1], 1)


def disc_map_from_positions(mesh: SurfaceMesh) -> MapSample:
    """Stereographic projection of an embedded spherical-cap mesh onto
    the unit disc, degree 1.

    Projects from the south pole and rescales so the boundary lands
    exactly on the unit circle (caps smaller than the hemisphere project
    into a smaller disc otherwise).
    """
    if mesh.positions is None:
        raise ValueError("mesh carries no positions to project")
    x, y, z3 = mesh.positions.T
    if np.any(z3 <= -1.0 + 1e-12):
        raise ValueError("south pole lies on the mesh; projection undefined")
    w = (x + 1j * y) / (1.0 + z3)
    rb = np.abs(w[mesh.boundary_vertex_mask()])
    w = w / rb.max()
    return MapSample(w, 1)

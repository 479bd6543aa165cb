"""Center-of-gravity balancing of transplanted coordinates.

After pulling the hemisphere coordinates back through the map, the two
equatorial coordinates must have zero mean before they qualify as
Neumann trial functions.  A two-parameter family of disc automorphisms
T_a suffices; this module finds the parameter a that nulls both first
moments with a damped Newton iteration on the closed-form Jacobian of the
moment map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import assemble_mass
from .mesh import MapSample, SurfaceMesh
from .transplant import mobius, transplant_coords

BALANCE_REL_TOL = 1e-10      # residual tolerance relative to total area
MAX_NEWTON_STEPS = 50        # before BalanceError reports the best residual
MAX_ABS_A = 0.999999


class BalanceError(RuntimeError):
    """Balancing did not converge (a numerical failure: existence of a
    balancing parameter is guaranteed)."""


@dataclass(frozen=True)
class BalanceResult:
    """Mobius parameter nulling the center of gravity."""

    a: complex
    residual: float
    iterations: int

    def to_json_dict(self) -> dict:
        return {"a": [float(self.a.real), float(self.a.imag)],
                "residual": float(self.residual),
                "iterations": int(self.iterations)}


def _moments(mesh, f, a, m1):
    sf = transplant_coords(mesh, f, a)
    return np.array([m1 @ sf.x1, m1 @ sf.x2]), sf


def _jacobian(mesh, f, a, sf, m1):
    """d(first moments)/d(Re a, Im a) at a, from the transplant sf there.

    With w = T_a(z): dw/da = -1/(1 - conj(a) z), dw/d(conj a) = w z /
    (1 - conj(a) z).  For X = x1 + i x2 an interior vertex moves by
    dX = (1 + x3)(dw - X Re(conj(w) dw)), a boundary vertex (held on the
    circle) by dX = i X Im(dw / w).
    """
    z = f.values
    w = mobius(a, z)
    q = 1.0 / (1.0 - np.conj(a) * z)
    dw_da, dw_dabar = -q, w * z * q
    X = sf.x1 + 1j * sf.x2
    boundary = mesh.boundary_vertex_mask
    J = np.empty((2, 2))
    for col, dw in enumerate((dw_da + dw_dabar, 1j * (dw_da - dw_dabar))):
        dX = (1.0 + sf.x3) * (dw - X * (w.conj() * dw).real)
        dX[boundary] = 1j * X[boundary] * (dw[boundary] / w[boundary]).imag
        J[:, col] = m1 @ dX.real, m1 @ dX.imag
    return J


def center_of_gravity(mesh: SurfaceMesh, f: MapSample, a: complex = 0.0,
                      ) -> tuple[float, float]:
    """First moments (integral of x1, integral of x2) of the transplant,
    under consistent-mass quadrature.  Raises ValueError on a closed mesh."""
    mesh.require_boundary()
    m1 = assemble_mass(mesh) @ np.ones(mesh.vertex_count)
    g, _ = _moments(mesh, f, complex(a), m1)
    return float(g[0]), float(g[1])


def balance_center_of_mass(mesh: SurfaceMesh, f: MapSample) -> BalanceResult:
    """Find a with ||G(a)|| <= BALANCE_REL_TOL * area, starting from a = 0.

    Damped Newton on the moment map G with its closed-form Jacobian, for
    at most MAX_NEWTON_STEPS steps; steps are halved to stay inside the
    disc and to force a residual decrease.  Raises BalanceError with the
    best residual if Newton stalls, and ValueError on a closed mesh.
    """
    mesh.require_boundary()
    m1 = assemble_mass(mesh) @ np.ones(mesh.vertex_count)
    area = float(m1.sum())
    tol = BALANCE_REL_TOL * area

    a = 0.0 + 0.0j
    g, sf = _moments(mesh, f, a, m1)
    gnorm = np.linalg.norm(g)
    iterations = 0
    while gnorm > tol and iterations < MAX_NEWTON_STEPS:
        try:
            step = np.linalg.solve(_jacobian(mesh, f, a, sf, m1), -g)
        except np.linalg.LinAlgError:
            break
        for _halving in range(40):
            cand = a + complex(*step)
            if abs(cand) <= MAX_ABS_A:
                gc, sfc = _moments(mesh, f, cand, m1)
                if np.linalg.norm(gc) < gnorm:
                    break
            step = 0.5 * step
        else:
            break               # no decrease along the Newton direction
        a, g, sf = cand, gc, sfc
        gnorm = np.linalg.norm(g)
        iterations += 1
    if gnorm <= tol:
        return BalanceResult(a, float(gnorm), iterations)
    raise BalanceError(
        f"balancing did not converge: best residual {gnorm:.3e} "
        f"(target {tol:.3e}) at a = {a}")

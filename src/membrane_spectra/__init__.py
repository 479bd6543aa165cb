"""Laplace-Beltrami spectra of bordered surfaces and the conformal
transplantation bounds relating Dirichlet and Neumann eigenvalues."""

from .balance import (BalanceError, BalanceResult, balance_center_of_mass,
                      center_of_gravity)
from .fem import (EigenSolveError, SpectralResult, assemble_mass,
                  assemble_stiffness, rayleigh_quotient, solve_dirichlet,
                  solve_neumann)
from .mesh import (MapSample, MeshError, SurfaceMesh, Topology,
                   generate_annulus, generate_branched_double_disc,
                   generate_conformal_disc, generate_disc,
                   generate_spherical_cap, load_mesh, save_mesh)
from .transplant import (SphereFunctions, compute_degree,
                         dirichlet_energy, disc_map_from_positions,
                         lift_to_hemisphere, mobius, transplant_coords)
from .verify import (VerificationReport, check_eq3_implication,
                     trial_bound_sum, verify_inequality,
                     verify_levels)

__all__ = [
    "BalanceError", "BalanceResult", "EigenSolveError", "MapSample",
    "MeshError", "SpectralResult", "SphereFunctions", "SurfaceMesh",
    "Topology", "VerificationReport", "assemble_mass", "assemble_stiffness",
    "balance_center_of_mass", "center_of_gravity",
    "check_eq3_implication", "compute_degree", "dirichlet_energy",
    "disc_map_from_positions", "generate_annulus",
    "generate_branched_double_disc", "generate_conformal_disc",
    "generate_disc", "generate_spherical_cap",
    "lift_to_hemisphere", "load_mesh", "mobius", "rayleigh_quotient",
    "save_mesh", "solve_dirichlet", "solve_neumann",
    "transplant_coords", "trial_bound_sum",
    "verify_inequality", "verify_levels",
]

__version__ = "0.1.0"

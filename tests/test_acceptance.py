"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Runs the full pipeline on the fixture battery at the resolutions stated in
each test.  Expensive artifacts (the fine disc spectra and the budgeted
verification reports) are shared through module-scoped fixtures.
"""

import time
from functools import partial

import numpy as np
import pytest

import membrane_spectra as ms
from membrane_spectra import fixtures

from conftest import J0_ZERO, J1P_ZERO, grid_search_balance

FOUR_PI_3 = 4 * np.pi / 3
FINE_RINGS = 64          # 12481 vertices
BUDGET_RINGS = [12, 24]  # budgeted runs: the finer level, with its budget
N_RANDOM_DISCS = 20


@pytest.fixture
def _criterion(request):
    """Print one PASS/FAIL line per criterion past pytest's capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def report(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"[acceptance] {num:02d} {name}: {status}"
        if detail:
            line += f"  ({detail})"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok, line

    return report


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def fine_disc_spectra():
    mesh = ms.generate_disc(FINE_RINGS)
    t0 = time.perf_counter()
    dirichlet = ms.solve_dirichlet(mesh, 1)
    neumann = ms.solve_neumann(mesh, 2)
    elapsed = time.perf_counter() - t0
    return mesh, dirichlet, neumann, elapsed


def _fixture_factories():
    """label -> callable(resolution) -> (mesh, map) for the fixture battery."""
    names = {"disc": "disc", "branched": "branched", "cap-pi6": "cap-pi6",
             "cap-pi3": "cap-pi3", "cap-pi2": "hemisphere"}
    names.update({f"conformal-{seed:02d}": f"conformal-{seed}"
                  for seed in range(N_RANDOM_DISCS)})
    return {label: partial(fixtures.instance, name)
            for label, name in names.items()}


@pytest.fixture(scope="module")
def budget_reports():
    """label -> the budgeted report at the finer of BUDGET_RINGS."""
    factories = _fixture_factories()
    reports = ms.verify_levels(factories, BUDGET_RINGS)
    return {label: reports[f"{label}:1"] for label in factories}


# ---------------------------------------------------------------------------
# criteria


def test_01_disc_dirichlet(fine_disc_spectra, _criterion):
    mesh, dirichlet, _, elapsed = fine_disc_spectra
    target = J0_ZERO ** 2 * np.pi
    value = dirichlet.eigenvalues[0] * mesh.total_area()
    rel = abs(value - target) / target
    _criterion(1, "disc Dirichlet lambda1*A",
               rel <= 5e-3 and elapsed < 60.0,
               f"lambda1*A={value:.6f} target={target:.6f} rel={rel:.2e} "
               f"solve={elapsed:.1f}s")


def test_02_disc_neumann(fine_disc_spectra, _criterion):
    mesh, _, neumann, _ = fine_disc_spectra
    target = J1P_ZERO ** 2 * np.pi
    mu1, mu2 = neumann.eigenvalues[:2]
    value = mu1 * mesh.total_area()
    rel = abs(value - target) / target
    split = abs(mu2 / mu1 - 1.0)
    _criterion(2, "disc Neumann mu1*A and mu2/mu1",
               rel <= 5e-3 and split <= 1e-2,
               f"mu1*A={value:.6f} rel={rel:.2e} mu2/mu1-1={split:.2e}")


def test_03_hemisphere_eigenvalues(_criterion):
    mesh = ms.generate_spherical_cap(np.pi / 2, 48)
    lam1 = ms.solve_dirichlet(mesh, 1).eigenvalues[0]
    mu1, mu2 = ms.solve_neumann(mesh, 2).eigenvalues[:2]
    rels = [abs(v / 2.0 - 1.0) for v in (lam1, mu1, mu2)]
    la = lam1 * mesh.total_area()
    rel_la = abs(la / (4 * np.pi) - 1.0)
    _criterion(3, "hemisphere eigenvalues = 2 and lambda1*A = 4pi",
               max(rels) <= 5e-3 and rel_la <= 1e-2,
               f"(l1,m1,m2)=({lam1:.5f},{mu1:.5f},{mu2:.5f}) "
               f"l1*A/4pi-1={rel_la:.2e}")


def test_04_hemisphere_equality_case(_criterion):
    slacks = []
    for res in (12, 24, 48):
        rep = ms.verify_inequality(*fixtures.instance("hemisphere", res))
        slacks.append(abs(rep.slack2) / rep.rhs2)
    decreasing = all(b < a for a, b in zip(slacks, slacks[1:]))
    _criterion(4, "hemisphere slack2 -> 0 under refinement",
               slacks[-1] <= 1e-2 and decreasing,
               "|slack2|/rhs2 = " + ", ".join(f"{s:.2e}" for s in slacks))


def test_05_inequality2_on_battery(budget_reports, _criterion):
    worst_name, worst = None, np.inf
    for name, rep in budget_reports.items():
        margin = rep.slack2 + rep.eps_fem["slack2"]
        if margin < worst:
            worst_name, worst = name, margin
    _criterion(5, "slack2 >= -eps_fem on all fixtures", worst >= 0.0,
               f"{len(budget_reports)} fixtures, worst budgeted slack2 = "
               f"{worst:.3e} ({worst_name})")


def test_06_inequality3_on_battery(budget_reports, _criterion):
    worst_name, worst = None, np.inf
    for name, rep in budget_reports.items():
        ms.check_eq3_implication(rep)  # symbolic implication on every report
        margin = rep.slack3 + rep.eps_fem["slack3"]
        if margin < worst:
            worst_name, worst = name, margin
    _criterion(6, "slack3 >= -eps_fem and implication from (2)", worst >= 0.0,
               f"worst budgeted slack3 = {worst:.3e} ({worst_name})")


def test_07_conformal_invariance_of_energies(_criterion):
    ok = True
    details = []
    for label, degree in (("disc", 1), ("branched", 2)):
        errs = []
        for rings in (8, 16, 32):
            mesh, f = fixtures.instance(label, rings)
            sf = ms.transplant_coords(mesh, f, 0.0)
            errs.append(max(
                abs(ms.dirichlet_energy(mesh, u) - degree * FOUR_PI_3)
                for u in (sf.x1, sf.x2, sf.x3)))
        halving = all(b <= 0.5 * a for a, b in zip(errs, errs[1:]))
        ok = ok and halving
        details.append(label + ": " + ", ".join(f"{e:.2e}" for e in errs))
    _criterion(7, "transplant energies -> d*4pi/3, error halving", ok,
               "; ".join(details))


def test_08_pointwise_norm_identity(_criterion):
    worst = 0.0
    for name in ("disc", "cap-pi3", "branched", "conformal-1"):
        mesh, f = fixtures.instance(name, 12)
        for a in (0.0, 0.3 + 0.4j, -0.6j, 0.9):
            sf = ms.transplant_coords(mesh, f, a)
            worst = max(worst, float(np.max(np.abs(
                sf.x1 ** 2 + sf.x2 ** 2 + sf.x3 ** 2 - 1.0))))
    _criterion(8, "sum of squared coordinates = 1 pointwise", worst <= 5e-14,
               f"max deviation {worst:.2e} over 4 fixtures x 4 parameters")


def test_09_balancing(budget_reports, _criterion):
    worst_rel = max(rep.balance.residual / rep.area
                    for rep in budget_reports.values())

    # grid-search oracle on representative asymmetric fixtures
    spacing = 2 * 0.99 / 100
    grid_ok, grid_detail = True, []
    for name in ("branched", "conformal-00", "conformal-07"):
        make = _fixture_factories()[name]
        mesh, f = make(12)
        a = ms.balance_center_of_mass(mesh, f).a
        a_grid, _ = grid_search_balance(mesh, f)
        dist = abs(a - a_grid)
        grid_ok = grid_ok and dist <= 2 * spacing
        grid_detail.append(f"{name}:{dist:.3f}")

    # symmetric fixtures must balance at the origin
    sym = []
    for make in (_fixture_factories()["disc"], _fixture_factories()["cap-pi2"]):
        mesh, f = make(12)
        sym.append(abs(ms.balance_center_of_mass(mesh, f).a))
    _criterion(9, "balancing residuals, grid oracle, symmetry",
               worst_rel <= 1e-10 and grid_ok and max(sym) <= 1e-8,
               f"worst residual/A={worst_rel:.1e}, grid dist "
               f"{' '.join(grid_detail)}, |a|_sym={max(sym):.1e}")


def test_10_proof_sandwich(budget_reports, _criterion):
    worst_lo = min(rep.margin_lower + rep.eps_fem["lower"]
                   for rep in budget_reports.values())
    worst_up = min(rep.margin_upper + rep.eps_fem["upper"]
                   for rep in budget_reports.values())
    _criterion(10, "trial sum sandwiched between proof bounds",
               worst_lo >= 0.0 and worst_up >= 0.0,
               f"worst budgeted lower={worst_lo:.3e} upper={worst_up:.3e}")


def test_11_oracle_equivalence(_criterion, solver_path):
    # single right triangle: frozen analytic cotangent/consistent-mass blocks
    tri = np.array([[0, 1, 2]])
    right = ms.SurfaceMesh(tri, positions=[[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    k_right = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], float)
    m_right = (0.5 / 12) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], float)
    err = max(
        np.max(np.abs(ms.assemble_stiffness(right).toarray() - k_right)),
        np.max(np.abs(ms.assemble_mass(right).toarray() - m_right)))

    # equilateral triangle through the intrinsic (edge-length) path
    lens = [[0, 1, 2.0], [0, 2, 2.0], [1, 2, 2.0]]
    equi = ms.SurfaceMesh(tri, edge_lengths=lens)
    c = 1.0 / (2.0 * np.sqrt(3.0))
    k_equi = np.array([[2 * c, -c, -c], [-c, 2 * c, -c], [-c, -c, 2 * c]])
    m_equi = (np.sqrt(3.0) / 12) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    err = max(err,
              np.max(np.abs(ms.assemble_stiffness(equi).toarray() - k_equi)),
              np.max(np.abs(ms.assemble_mass(equi).toarray() - m_equi)))

    # dense vs shift-invert agreement on a ~1000-vertex disc
    mesh = ms.generate_disc(18)
    solvers = (ms.solve_dirichlet, ms.solve_neumann)
    solver_path("dense")
    dense = [solver(mesh, 2).eigenvalues for solver in solvers]
    solver_path("sparse")
    sparse = [solver(mesh, 2).eigenvalues for solver in solvers]
    rels = [float(np.max(np.abs(s / d - 1.0))) for s, d in zip(sparse, dense)]
    _criterion(11, "analytic element oracles and solver agreement",
               err <= 1e-12 and max(rels) <= 1e-7,
               f"element err={err:.1e}, dense/sparse rel={max(rels):.1e} "
               f"on {mesh.vertex_count} vertices")


def test_12_scale_invariance(_criterion):
    mesh, f = fixtures.instance("conformal-4", 12)
    base = ms.verify_inequality(mesh, f)
    worst = 0.0
    for c in (0.1, 3.0):
        rep = ms.verify_inequality(mesh.scaled(c), f)
        worst = max(worst,
                    abs(rep.lhs2 / base.lhs2 - 1.0),
                    abs(rep.slack2 / base.slack2 - 1.0))
    _criterion(12, "metric scale invariance of lhs2 and slack2",
               worst <= 1e-9, f"worst relative change {worst:.2e}")

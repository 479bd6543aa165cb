"""End-to-end evaluation of the two eigenvalue inequalities.

For a surface-plus-map instance this module computes the first Dirichlet
eigenvalue, the first two nonzero Neumann eigenvalues, the area and the
covering degree, then checks

    (1/lambda1 + 1/mu1 + 1/mu2) / A  >=  3 / (4 pi d)          (reciprocal form)
    lambda1 * mu1 * A  <=  d * (4 pi / 3) * (2 lambda1 + mu1)  (product form)

and replays the underlying trial-function argument: the balanced
transplants give a sum of reciprocal Rayleigh quotients sandwiched
between A / (d * 4 pi / 3) and the true reciprocal sum.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .balance import BalanceResult, balance_center_of_mass, center_of_gravity
from .mesh import MapSample, SurfaceMesh
from .transplant import compute_degree, transplant_coords

FOUR_PI_3 = 4.0 * np.pi / 3.0
SAFETY = 2.0     # Richardson budget: this many times the two-level change
# meshes of at least this many vertices may solve the Dirichlet problem in
# a forked process while this one solves the Neumann problem (forked_map):
# on a 2-vCPU host the fork lost 0-13% at 1,519 vertices, tied at 1,801 and
# saved 11-12% at 2,107, 1% at 2,437, 10-17% at 2,791-3,169, 22% at 3,997
# and 36-39% at 12,481 (conformal discs, medians of 7-15 verdicts)
SPLIT_MIN_VERTICES = 2000

# the report's scalars in CSV column order, and the margins that carry a
# Richardson budget; the JSON document, the CSV row and the budget are
# all built from these two tuples
SCALARS = ("mesh_resolution", "area", "degree", "lambda1", "mu1", "mu2",
           "lhs2", "rhs2", "slack2", "lhs3", "rhs3", "slack3", "trial_sum")
MARGINS = ("slack2", "slack3", "upper", "lower")
CSV_FIELDS = ["fixture", "level", *SCALARS,
              "balance_residual", "balance_iterations",
              *(f"eps_{name}" for name in MARGINS)]


@dataclass
class VerificationReport:
    """What one verdict measured, and read-only properties derived from it."""

    lambda1: float
    mu1: float
    mu2: float
    area: float
    degree: int
    trial_sum: float
    mesh_resolution: str
    balance: BalanceResult | None = None
    dirichlet_residuals: list = field(default_factory=list)
    neumann_residuals: list = field(default_factory=list)
    eps_fem: dict | None = None       # two-level Richardson budget per margin

    @property
    def lhs2(self) -> float:
        return (1.0 / self.lambda1 + 1.0 / self.mu1 + 1.0 / self.mu2) / self.area

    @property
    def rhs2(self) -> float:
        return 3.0 / (4.0 * np.pi * self.degree)

    @property
    def slack2(self) -> float:
        return self.lhs2 - self.rhs2

    @property
    def lhs3(self) -> float:
        return self.lambda1 * self.mu1 * self.area

    @property
    def rhs3(self) -> float:
        return self.degree * FOUR_PI_3 * (2.0 * self.lambda1 + self.mu1)

    @property
    def slack3(self) -> float:
        return self.rhs3 - self.lhs3

    # margins that must be nonnegative up to the discretization budget
    @property
    def margin_upper(self) -> float:
        """Reciprocal-sum optimum minus the trial sum (Hersch's principle)."""
        return 1.0 / self.lambda1 + 1.0 / self.mu1 + 1.0 / self.mu2 - self.trial_sum

    @property
    def margin_lower(self) -> float:
        """Trial sum minus A / (d * 4 pi / 3) (the proof's energy/mass chain)."""
        return self.trial_sum - self.area / (self.degree * FOUR_PI_3)

    def _margins(self) -> tuple:
        """The values of MARGINS, in that order."""
        return self.slack2, self.slack3, self.margin_upper, self.margin_lower

    @property
    def budgeted_slack2(self) -> float:
        return self.slack2 + (self.eps_fem or {}).get("slack2", 0.0)

    @property
    def budgeted_slack3(self) -> float:
        return self.slack3 + (self.eps_fem or {}).get("slack3", 0.0)

    def to_json_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in SCALARS}
        doc["dirichlet_residuals"] = list(self.dirichlet_residuals)
        doc["neumann_residuals"] = list(self.neumann_residuals)
        if self.balance is not None:
            doc["balance"] = self.balance.to_json_dict()
        if self.eps_fem is not None:
            doc["eps_fem"] = dict(self.eps_fem)
            doc["budgeted_slack2"] = self.budgeted_slack2
            doc["budgeted_slack3"] = self.budgeted_slack3
        return doc


@fem.single_threaded_blas()
def trial_bound_sum(mesh: SurfaceMesh, f: MapSample, a: complex) -> float:
    """Sum of reciprocal Rayleigh quotients of the balanced transplants.

    The parameter a must already balance the center of gravity to 1e-8
    times the area (checked, since unbalanced equatorial coordinates are
    inadmissible Neumann trials).  The two Neumann trials are projected to exact zero M-mean
    and rotated into an M-orthogonal pair, so the discrete reciprocal-sum
    bound applies verbatim.  Runs on one OpenBLAS thread, as balancing does.
    """
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    m1 = M @ np.ones(mesh.vertex_count)
    area = float(m1.sum())

    g1, g2 = center_of_gravity(mesh, f, a)
    residual = float(np.hypot(g1, g2))
    if not residual <= 1e-8 * area:     # a NaN residual fails too
        raise ValueError(
            f"parameter a={a} is not balanced: center-of-gravity residual "
            f"{residual:.3e} exceeds 1e-08 * area")

    sf = transplant_coords(mesh, f, a)
    v1 = sf.x1 - (m1 @ sf.x1) / area
    v2 = sf.x2 - (m1 @ sf.x2) / area
    # rotate the equatorial pair to kill the M-cross term
    g12 = float(v1 @ (M @ v2))
    g11 = float(v1 @ (M @ v1))
    g22 = float(v2 @ (M @ v2))
    theta = 0.5 * np.arctan2(2.0 * g12, g11 - g22)
    c, s = np.cos(theta), np.sin(theta)
    w1 = c * v1 + s * v2
    w2 = -s * v1 + c * v2

    return sum(1.0 / fem.rayleigh_quotient(u, K, M) for u in (sf.x3, w1, w2))


def check_eq3_implication(report: VerificationReport) -> None:
    """Assert that the product inequality follows from the reciprocal one:
    slack3 - lambda1 mu1 d (4 pi / 3) A slack2 = d (4 pi / 3) lambda1
    (1 - mu1 / mu2), which is nonnegative when mu1 <= mu2 and lambda1 > 0,
    the two facts checked here (a NaN fails them)."""
    if not report.mu1 <= report.mu2:
        raise AssertionError(f"mu1={report.mu1:.6g} > mu2={report.mu2:.6g}: "
                             "eigenvalues out of order")
    if not report.lambda1 > 0:
        raise AssertionError(f"lambda1={report.lambda1:.6g} is not positive, "
                             f"so slack3={report.slack3:.6g} is not implied")


def verify_inequality(mesh: SurfaceMesh, f: MapSample) -> VerificationReport:
    """Run the full pipeline and fill a VerificationReport.

    The report's degree d is the map's boundary winding number
    (`compute_degree`, which also checks that the map is proper), and the
    map's stated `f.degree` must equal it.

    On a mesh of at least `SPLIT_MIN_VERTICES` vertices the Dirichlet
    solve and the later stages go to `fem.forked_map`, which may run the
    Dirichlet solve in a forked process, with the same report either way.
    """
    d = compute_degree(mesh, f)
    if f.degree != d:
        raise ValueError(f"map states degree {f.degree}, but its boundary "
                         f"winding number is {d}")

    calls = [(fem.solve_dirichlet, (mesh, 1)), (_neumann_stages, (mesh, f))]
    dirichlet, (neumann, bal, trial) = (
        fem.forked_map(calls) if mesh.vertex_count >= SPLIT_MIN_VERTICES
        else [fn(*args) for fn, args in calls])
    mu1, mu2 = (float(mu) for mu in neumann.eigenvalues[:2])
    report = VerificationReport(
        lambda1=float(dirichlet.eigenvalues[0]), mu1=mu1, mu2=mu2,
        area=mesh.total_area(), degree=d, trial_sum=trial,
        mesh_resolution=mesh.descriptor(), balance=bal,
        dirichlet_residuals=[float(r) for r in dirichlet.residuals],
        neumann_residuals=[float(r) for r in neumann.residuals])
    check_eq3_implication(report)
    return report


def _neumann_stages(mesh: SurfaceMesh, f: MapSample):
    """The verdict's stages after the Dirichlet solve: the Neumann pairs,
    the balancing and the trial sum."""
    neumann = fem.solve_neumann(mesh, 2)
    bal = balance_center_of_mass(mesh, f)
    return neumann, bal, trial_bound_sum(mesh, f, bal.a)


def richardson_budget(fine: VerificationReport,
                      coarse: VerificationReport) -> dict:
    """Two-level Richardson budget of each inequality margin: SAFETY times
    the change of that margin between the coarse and the fine report."""
    if fine.mesh_resolution == coarse.mesh_resolution:
        raise ValueError(
            f"Richardson budget needs two distinct levels: fine level "
            f"{fine.mesh_resolution} equals coarse level "
            f"{coarse.mesh_resolution}")
    budget = {name: SAFETY * abs(new - old) for name, new, old in
              zip(MARGINS, fine._margins(), coarse._margins(), strict=True)}
    budget["coarse_resolution"] = coarse.mesh_resolution
    return budget


def verify_levels(instances: dict, resolutions) -> dict:
    """`{"<label>:<level>": report}` of `instances[label](resolution)`, a
    (mesh, map) pair, at every level of the increasing `resolutions`, in
    label-then-level order; a level after the first carries in eps_fem its
    Richardson budget against the level before.  Each verdict takes the
    degree its map winds (`verify_inequality`) and goes to
    `fem.forked_map` finest level first, so that no long verdict starts
    last; the first failure there is raised."""
    resolutions = list(resolutions)
    if sorted(set(resolutions)) != resolutions or min(resolutions or [0]) < 1:
        raise ValueError(f"resolutions must be an increasing list of "
                         f"positive integers, got {resolutions}")

    def _verdict(label, resolution):
        # named by label and resolution in a dead worker's error
        m, f = instances[label](resolution)
        return verify_inequality(m, f)

    levels = range(len(resolutions))
    jobs = [(label, level) for level in reversed(levels) for label in instances]
    done = dict(zip(jobs, fem.forked_map(
        [(_verdict, (label, resolutions[level])) for label, level in jobs])))
    for (label, level), report in done.items():
        if level:
            report.eps_fem = richardson_budget(report, done[label, level - 1])
    return {f"{label}:{level}": done[label, level] for label in instances
            for level in levels}


def reports_to_csv(reports: dict) -> str:
    """CSV text, one row per report of `{"<fixture>:<level>": report}`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for key, report in reports.items():
        eps, bal = report.eps_fem or {}, report.balance
        writer.writerow([    # the fixture and the level, then the report
            *key.rsplit(":", 1), *(getattr(report, name) for name in SCALARS),
            bal.residual if bal else "", bal.iterations if bal else "",
            *(eps.get(name, "") for name in MARGINS)])
    return buf.getvalue()

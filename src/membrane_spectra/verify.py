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
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .balance import BalanceResult, balance_center_of_mass, center_of_gravity
from .mesh import MapSample, SurfaceMesh, positive_degree
from .transplant import compute_degree, transplant_coords

FOUR_PI_3 = 4.0 * np.pi / 3.0
SAFETY = 2.0     # Richardson budget: this many times the two-level change
# meshes of at least this many vertices solve the Dirichlet problem in a
# forked process while this one solves the Neumann problem (see _split_pays):
# on a 2-vCPU host the fork lost 19% at 1,801 vertices, tied at 2,437 and
# saved 0-8% at 3,169, 13% at 3,997 and 47% at 12,481
SPLIT_MIN_VERTICES = 3000

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
    """Eigenvalues, inequality sides, and slacks for one instance."""

    lambda1: float
    mu1: float
    mu2: float
    area: float
    degree: int
    lhs2: float
    rhs2: float
    slack2: float
    lhs3: float
    rhs3: float
    slack3: float
    trial_sum: float
    mesh_resolution: str
    balance: BalanceResult | None = None
    dirichlet_residuals: list = field(default_factory=list)
    neumann_residuals: list = field(default_factory=list)
    eps_fem: dict | None = None       # two-level Richardson budget per margin

    # margins that must be nonnegative up to the discretization budget
    def margin_upper(self) -> float:
        """Reciprocal-sum optimum minus the trial sum (Hersch's principle)."""
        return 1.0 / self.lambda1 + 1.0 / self.mu1 + 1.0 / self.mu2 - self.trial_sum

    def margin_lower(self) -> float:
        """Trial sum minus A / (d * 4 pi / 3) (the proof's energy/mass chain)."""
        return self.trial_sum - self.area / (self.degree * FOUR_PI_3)

    def _margins(self) -> tuple:
        """The values of MARGINS, in that order."""
        return self.slack2, self.slack3, self.margin_upper(), self.margin_lower()

    def budgeted_slack2(self) -> float:
        return self.slack2 + (self.eps_fem or {}).get("slack2", 0.0)

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
            doc["budgeted_slack2"] = self.budgeted_slack2()
            doc["budgeted_slack3"] = self.budgeted_slack3()
        return doc

    def csv_row(self, fixture: str = "", level: int = 0) -> dict:
        eps = self.eps_fem or {}
        bal = self.balance
        return dict(zip(CSV_FIELDS, (
            fixture, level, *(getattr(self, name) for name in SCALARS),
            bal.residual if bal else "", bal.iterations if bal else "",
            *(eps.get(name, "") for name in MARGINS)), strict=True))


def trial_bound_sum(mesh: SurfaceMesh, f: MapSample, a: complex) -> float:
    """Sum of reciprocal Rayleigh quotients of the balanced transplants.

    The parameter a must already balance the center of gravity to 1e-8
    times the area (checked, since unbalanced equatorial coordinates are
    inadmissible Neumann trials).  The two Neumann trials are projected to exact zero M-mean
    and rotated into an M-orthogonal pair, so the discrete reciprocal-sum
    bound applies verbatim.
    """
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    ones = np.ones(mesh.vertex_count)
    m1 = M @ ones
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

    total = 0.0
    for u in (sf.x3, w1, w2):
        total += 1.0 / fem.rayleigh_quotient(u, K, M)
    return total


def verify_eq3(report: VerificationReport) -> tuple[float, float, float]:
    """Sides and slack of the product-form inequality, pure arithmetic."""
    lhs3 = report.lambda1 * report.mu1 * report.area
    rhs3 = report.degree * FOUR_PI_3 * (2.0 * report.lambda1 + report.mu1)
    return lhs3, rhs3, rhs3 - lhs3


def check_eq3_implication(report: VerificationReport) -> None:
    """Assert algebraically that the product inequality follows from the
    reciprocal one when mu1 <= mu2:

        slack3 >= lambda1 * mu1 * d * (4 pi / 3) * A * slack2.

    Raises AssertionError if the identity chain fails beyond rounding,
    1e-12 of |rhs3| + |lhs3|.
    """
    # both checks are written so that NaN fails them
    if not report.mu1 <= report.mu2:
        raise AssertionError(f"mu1={report.mu1:.6g} > mu2={report.mu2:.6g}: "
                             "eigenvalues out of order")
    bound = (report.lambda1 * report.mu1 * report.degree * FOUR_PI_3
             * report.area * report.slack2)
    scale = abs(report.rhs3) + abs(report.lhs3)
    if not report.slack3 >= bound - 1e-12 * scale:
        raise AssertionError(
            f"slack3={report.slack3:.6g} below the implied bound {bound:.6g}")


def verify_inequality(mesh: SurfaceMesh, f: MapSample,
                      degree: int | str = "auto") -> VerificationReport:
    """Run the full pipeline and fill a VerificationReport.

    degree="auto" estimates the covering degree from the map's Jacobian
    integral; pass an integer to override for coarsely sampled maps (see
    `mesh.positive_degree`: a float or bool raises, it is not truncated).
    Either way the map must be proper (`MapSample.check_proper`).

    On a mesh of at least `SPLIT_MIN_VERTICES` vertices the Dirichlet
    solve may run in a forked process (`_split_pays` says when), with the
    report of a serial run under `fem.single_threaded_blas`.
    """
    area = mesh.total_area()
    if degree == "auto":
        d = compute_degree(mesh, f)
    else:
        d = positive_degree(degree)
        f.check_proper(mesh)

    if _split_pays(mesh):
        dirichlet, (neumann, bal, trial) = _split_stages(mesh, f)
    else:
        dirichlet = fem.solve_dirichlet(mesh, 1)
        neumann, bal, trial = _neumann_stages(mesh, f)
    lam1 = float(dirichlet.eigenvalues[0])
    mu1, mu2 = float(neumann.eigenvalues[0]), float(neumann.eigenvalues[1])

    lhs2 = (1.0 / lam1 + 1.0 / mu1 + 1.0 / mu2) / area
    rhs2 = 3.0 / (4.0 * np.pi * d)
    report = VerificationReport(
        lambda1=lam1, mu1=mu1, mu2=mu2, area=area, degree=d,
        lhs2=lhs2, rhs2=rhs2, slack2=lhs2 - rhs2,
        lhs3=0.0, rhs3=0.0, slack3=0.0,
        trial_sum=trial, mesh_resolution=mesh.descriptor(),
        balance=bal,
        dirichlet_residuals=[float(r) for r in dirichlet.residuals],
        neumann_residuals=[float(r) for r in neumann.residuals],
    )
    report.lhs3, report.rhs3, report.slack3 = verify_eq3(report)
    check_eq3_implication(report)
    return report


def _neumann_stages(mesh: SurfaceMesh, f: MapSample):
    """The verdict's stages after the Dirichlet solve: the Neumann pairs,
    the balancing and the trial sum."""
    neumann = fem.solve_neumann(mesh, 2)
    bal = balance_center_of_mass(mesh, f)
    return neumann, bal, trial_bound_sum(mesh, f, bal.a)


def _split_pays(mesh: SurfaceMesh) -> bool:
    """Whether to solve the Dirichlet problem in a forked process: only for
    a mesh large enough that the fork pays, on a POSIX host with a second
    CPU for it, from a caller with one Python thread (a fork copies no
    other thread), and not inside a worker process (so `batch` workers
    never fork again)."""
    if mesh.vertex_count < SPLIT_MIN_VERTICES or not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2 or threading.active_count() > 1:
        return False
    import multiprocessing
    return multiprocessing.parent_process() is None


_forked_mesh: SurfaceMesh | None = None     # set in the forked process only


def _hold_mesh(mesh: SurfaceMesh) -> None:
    global _forked_mesh
    _forked_mesh = mesh


def _forked_dirichlet() -> fem.SpectralResult:
    return fem.solve_dirichlet(_forked_mesh, 1)


def _split_stages(mesh: SurfaceMesh, f: MapSample):
    """The Dirichlet pair from one forked process while this one runs
    `_neumann_stages`, every OpenBLAS capped at one thread in both.

    The results equal a serial run under `fem.single_threaded_blas` bit
    for bit, and errors come in the serial order: a Dirichlet error is
    raised before any error of the later stages.  The mesh reaches the
    child through the fork, not through a pipe.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with fem.single_threaded_blas(), ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork"),
            initializer=_hold_mesh, initargs=(mesh,)) as pool:
        future = pool.submit(_forked_dirichlet)
        # submit forked the child; kept to read its exit status if it dies
        children = list(pool._processes.values())
        try:
            rest = _neumann_stages(mesh, f)
        except Exception:
            _forked_result(future, children, mesh)     # raised first
            raise
        return _forked_result(future, children, mesh), rest


def _forked_result(future, children, mesh: SurfaceMesh) -> fem.SpectralResult:
    """The child's result or error; a child that died is an EigenSolveError."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        return future.result()
    except BrokenProcessPool as exc:
        for child in children:
            child.join()
        status = ", ".join(str(child.exitcode) for child in children)
        raise fem.EigenSolveError(
            f"the Dirichlet solve on n={mesh.vertex_count} vertices died in "
            f"its forked process (exit status {status})") from exc


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


def verify_with_budget(make_instance, resolution: int) -> VerificationReport:
    """Verify at `resolution` and at `resolution // 2`, and return the fine
    report with its Richardson budget in eps_fem.

    `make_instance(resolution)` must return a (mesh, map) pair.
    """
    if resolution < 2:
        raise ValueError(
            f"Richardson budget needs resolution >= 2: fine level "
            f"{resolution} has coarse level {resolution // 2}")
    fine = verify_inequality(*make_instance(resolution))
    coarse = verify_inequality(*make_instance(resolution // 2))
    fine.eps_fem = richardson_budget(fine, coarse)
    return fine


def reports_to_csv(rows: list[dict]) -> str:
    """Render csv_row() dictionaries as CSV text with a fixed header."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()

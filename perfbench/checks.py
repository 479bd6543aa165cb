"""Output checks on verification reports.

A report is checked as the JSON document `VerificationReport.to_json_dict`
gives, which is also what the command line writes.  Every report must satisfy
the invariants below; a report whose instance has a stored reference must
also match it.  `python3 perfbench/checks.py` regenerates the references from
the default seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("references.json")

FIELDS = ("lambda1", "mu1", "mu2", "area", "trial_sum", "slack2", "slack3")
# Wide enough for dense-vs-shift-invert agreement (about 1e-7 on the
# acceptance disc) and BLAS thread-count rounding; any change of the
# discretization moves these values by 1e-4 or more at these resolutions.
REL_TOL = 1e-6
# margin_upper() >= 0 holds exactly for the discrete problem; allow rounding.
MARGIN_ROUNDING = 1e-9
BUDGET_SAFETY = 2.0           # as in `membrane-spectra batch`

# Closed forms: the unit disc has lambda1 * A = j01^2 pi and mu1 * A =
# j'11^2 pi; the unit hemisphere has lambda1 = mu1 = mu2 = 2.
J01 = 2.404825557695773
JP11 = 1.841183781340659


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _scale(doc: dict, name: str) -> float:
    """Magnitude against which a field's relative tolerance is taken.

    A slack is a difference of two sides that nearly cancel on the
    hemisphere, so its tolerance is taken against the sides.
    """
    if name in ("slack2", "slack3"):
        k = name[-1]
        return abs(doc[f"lhs{k}"]) + abs(doc[f"rhs{k}"])
    return abs(doc[name])


def margin_upper(doc: dict) -> float:
    return 1.0 / doc["lambda1"] + 1.0 / doc["mu1"] + 1.0 / doc["mu2"] - doc["trial_sum"]


def check_report(doc: dict, reference: dict | None, residual_tol: float) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    problems = []
    if not doc["mu1"] <= doc["mu2"]:
        problems.append(f"mu1={doc['mu1']!r} > mu2={doc['mu2']!r}")
    worst = max(doc["dirichlet_residuals"] + doc["neumann_residuals"])
    if not worst <= residual_tol:
        problems.append(f"residual {worst:.3e} above {residual_tol:.0e}")
    recip = 1.0 / doc["lambda1"] + 1.0 / doc["mu1"] + 1.0 / doc["mu2"]
    if not margin_upper(doc) >= -MARGIN_ROUNDING * recip:
        problems.append(f"margin_upper {margin_upper(doc):.3e} < 0")
    if reference is not None:
        if doc["degree"] != reference["degree"]:
            problems.append(f"degree {doc['degree']} != {reference['degree']}")
        for name in FIELDS:
            err = abs(doc[name] - reference[name])
            if not err <= REL_TOL * _scale(doc, name):
                problems.append(f"{name}={doc[name]!r} differs from the "
                                f"reference {reference[name]!r}")
    return problems


def check_budget(fine: dict, coarse: dict) -> list[str]:
    """Slacks of the finer level plus the two-level Richardson budget,
    2 * |fine - coarse|, must be nonnegative."""
    problems = []
    for s in ("slack2", "slack3"):
        value = fine[s] + BUDGET_SAFETY * abs(fine[s] - coarse[s])
        if not value >= 0.0:
            problems.append(f"budgeted {s}={value:.3e} < 0")
    return problems


def closed_form_errors(fixture: str, doc: dict) -> list[float]:
    """Relative errors against closed forms, for the fixtures that have them."""
    if fixture == "disc":
        return [abs(doc["lambda1"] * doc["area"] / (J01 ** 2 * math.pi) - 1.0),
                abs(doc["mu1"] * doc["area"] / (JP11 ** 2 * math.pi) - 1.0)]
    if fixture == "hemisphere":
        return [abs(doc[k] / 2.0 - 1.0) for k in ("lambda1", "mu1", "mu2")]
    return []


def write_references(workdir) -> None:
    """Store the default-seed battery and large-file outputs as references."""
    import workloads

    refs = {}
    ctx = workloads.Context(workloads.DEFAULT_SEED, workdir)
    for pass_fn in (workloads.battery_pass, workloads.large_file_pass):
        for v in pass_fn(ctx):
            if v.doc is None:
                raise RuntimeError(f"{v.key}: {v.error}")
            refs[v.key] = {k: v.doc[k] for k in FIELDS + ("degree",)}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import run

    run.import_program()
    run.WORKDIR.mkdir(exist_ok=True)
    write_references(run.WORKDIR)

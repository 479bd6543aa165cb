"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a checkout of the repository: the program is
imported from the checkout's `src/`, never from an installed copy.  With
`--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a run whose passes alternate between untraced and
traced.  Every verdict's output is checked.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 1 when a verdict failed.  Scratch files and one result file
per run go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "membrane_spectra" / "__init__.py"
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("battery", "large-file", "batch-threads")

SETUP_PROBES_PER_PASS = 3
# A fresh interpreter imports the package and returns its first small solve.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import membrane_spectra as ms; "
               "ms.solve_neumann(ms.generate_disc(4), 2); "
               "print(ms.__file__, flush=True)")
P90_MIN_SAMPLES = 100        # ten samples beyond the 90th percentile

END_TO_END_UNITS = {"setup_s": "s", "verdicts_per_s": "1/s",
                    "verdict_s.p50": "s", "peak_rss_mb": "MB"}


def import_program():
    """Put the checkout's `src/` first on the path and import the package."""
    if not PACKAGE_INIT.is_file():
        sys.exit(f"perfbench: {PACKAGE_INIT.relative_to(ROOT)} not found; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import membrane_spectra
    if Path(membrane_spectra.__file__).resolve() != PACKAGE_INIT:
        sys.exit(f"perfbench: imported {membrane_spectra.__file__}, "
                 f"not {PACKAGE_INIT}")
    return membrane_spectra


def setup_probe() -> float:
    """Time from starting a fresh interpreter to its first small solve."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or Path(line.strip()).resolve() != PACKAGE_INIT:
        raise RuntimeError(f"set-up probe failed: exit {proc.returncode}, "
                           f"output {line!r}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")
                        or k == "MEMBRANE_SPECTRA_THREADS"},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mesh_sizes(doc: dict) -> tuple[int, int]:
    """Vertex and edge counts from the report's mesh descriptor.  Every
    benchmark mesh is a topological disc, so E = V + F - 1."""
    m = re.fullmatch(r"V(\d+)F(\d+)", doc.get("mesh_resolution", ""))
    if m is None:
        return 0, 0
    v, f = int(m.group(1)), int(m.group(2))
    return v, v + f - 1


def check_pass(verdicts, references, residual_tol) -> list[str]:
    """Check every verdict of a pass; return one line per failed verdict."""
    failures = []
    docs = {v.key: v.doc for v in verdicts}
    for v in verdicts:
        if v.doc is None:
            failures.append(f"{v.key}: {v.error}")
            continue
        problems = checks.check_report(v.doc, references.get(v.key), residual_tol)
        coarse = docs.get(f"{v.fixture}:0")
        if v.level == 1 and coarse is not None:
            problems += checks.check_budget(v.doc, coarse)
        if problems:
            failures.append(f"{v.key}: " + "; ".join(problems))
    return failures


def verdict_p50(passes) -> float:
    """Median over a pass's verdicts of each verdict's median latency
    across the run's passes.

    Taking each verdict's median first leaves out single slow passes.  On
    `battery` half the verdicts are 12-ring and half 24-ring, so the result
    is the mean of two instances' medians: the slowest 12-ring verdict's and
    the fastest 24-ring verdict's.
    """
    by_key: dict[str, list[float]] = {}
    for _, _, verdicts in passes:
        for v in verdicts:
            by_key.setdefault(v.key, []).append(v.seconds)
    return statistics.median(statistics.median(t) for t in by_key.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads    # imports the program, so only after import_program()
    from membrane_spectra import fem

    WORKDIR.mkdir(exist_ok=True)
    pass_fn, workers = workloads.WORKLOADS[name]
    ctx = workloads.Context(seed, WORKDIR)
    references = checks.load_references()
    # On the program's own worker threads a verdict starts with its mesh build.
    recorder = tracing.Recorder(
        verdict_starts=tracing.BUILD_SPANS if workers > 1 else ())

    workloads.warm_up(ctx)
    if not trace:
        setup_probe()        # untimed: writes the bytecode cache

    passes = []              # (traced, wall seconds, verdicts)
    probes = []              # set-up times
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        ctx.recorder = recorder if traced else None
        gc.collect()
        with (tracing.instrument(recorder) if traced else nullcontext()):
            t0 = time.perf_counter()
            verdicts = pass_fn(ctx)
            wall = time.perf_counter() - t0
        passes.append((traced, wall, verdicts))
        # A few probes after every pass, so that their median samples the
        # host over the whole run rather than in one burst.
        if not trace:
            probes += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        if time.perf_counter() >= deadline and (not trace or len(passes) >= 3):
            break

    failures = []
    for _, _, verdicts in passes:
        failures += check_pass(verdicts, references, fem.RESIDUAL_TOL)
    every = [v for _, _, verdicts in passes for v in verdicts]
    attempted, failed = len(every), len(failures)
    latencies = [v.seconds for v in every]
    closed = [e for v in every if v.doc is not None
              for e in checks.closed_form_errors(v.fixture, v.doc)]

    extras = {
        "failed_frac": (failed / attempted, "ratio"),
        "ref_relerr_max": (max(closed) if closed else None, "ratio"),
        "verdict_s.p90": (statistics.quantiles(latencies, n=10)[-1]
                          if len(latencies) >= P90_MIN_SAMPLES else None, "s"),
        "passes": (len(passes), "count"),
        "verdicts": (attempted, "count"),
    }
    if trace:
        metrics = per_layer(recorder, passes, workers)
    else:
        metrics = {
            "setup_s": statistics.median(probes),
            "verdicts_per_s": statistics.median(
                len(v) / wall for _, wall, v in passes),
            "verdict_s.p50": verdict_p50(passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    env = environment(seed)
    print(f"workload {name}, seed {seed}, trace {int(trace)}: "
          f"{len(passes)} passes, {attempted} verdicts")
    print("env " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in {**metrics, **extras}.items():
        shown = "not reported" if value is None else f"{value:.6g} {unit}"
        print(f"  {key:28s} {shown}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    record = {"workload": name, "env": env, "failures": failures,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extras}.items()}}
    if trace:
        record["spans"] = recorder.to_json()
    result_file = WORKDIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_file.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def per_layer(recorder, passes, workers: int) -> dict:
    """Per-verdict layer metrics of the traced passes."""
    traced = [(wall, verdicts) for t, wall, verdicts in passes if t]
    # The first pass allocates the process's memory and runs slower than
    # later ones, so the overhead compares traced passes with later
    # untraced passes only.
    untraced = [wall for t, wall, _ in passes[1:] if not t]
    verdicts = [v for _, vs in traced for v in vs]
    docs = [v.doc for v in verdicts if v.doc is not None]
    n = max(len(verdicts), 1)
    iterations = sum(d["balance"]["iterations"] for d in docs if "balance" in d)
    out = tracing.layer_metrics(recorder.spans, len(verdicts), iterations)
    busy = tracing.verdict_busy(recorder.spans)
    sizes = [mesh_sizes(d) for d in docs]
    out.update({
        "mesh.vertices": sum(s[0] for s in sizes) / n,
        "mesh.edges": sum(s[1] for s in sizes) / n,
        "mesh.json_bytes": sum(v.json_bytes for v in verdicts) / n,
        "fem.residual_max": max((max(d["dirichlet_residuals"] + d["neumann_residuals"])
                                 for d in docs), default=0.0),
        "balance.iterations": iterations / n,
        "cli.pool_busy_frac": sum(busy.values()) / (
            workers * sum(wall for wall, _ in traced)),
        "trace.verdict_s": sum(busy.values()) / n,
        "trace.overhead_frac": (statistics.median(w for w, _ in traced)
                                / statistics.median(untraced) - 1.0),
    })
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in sorted(out.items())}


PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in
       ("mesh", "fem", "transplant", "balance", "verify", "cli", "bench")},
    "mesh.build_s": "s", "mesh.load_s": "s", "mesh.save_s": "s",
    "mesh.vertices": "count", "mesh.edges": "count", "mesh.json_bytes": "B",
    "fem.dense_solves": "count", "fem.dense_s": "s",
    "fem.sparse_solves": "count", "fem.sparse_s": "s",
    "fem.dirichlet_s": "s", "fem.neumann_s": "s", "fem.dofs_max": "count",
    "fem.residual_max": "ratio", "fem.stiffness_assemblies": "count",
    "fem.mass_assemblies": "count", "fem.assemble_s": "s",
    "transplant.coords_calls": "count", "transplant.coords_s": "s",
    "transplant.degree_s": "s",
    "balance.s": "s", "balance.iterations": "count",
    "balance.evals_per_iteration": "ratio",
    "verify.trial_s": "s",
    "cli.pool_busy_frac": "ratio",
    "trace.verdict_s": "s", "trace.spans_per_verdict": "count",
    "trace.overhead_frac": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)
    import_program()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

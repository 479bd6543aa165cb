"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/spread.py --workload large-file --seeds 5
    python3 perfbench/spread.py --workload all --seeds 10 --out summary.json

For every workload and metric this prints the median, the first and third
quartiles of the per-run values (`statistics.quantiles(values, n=4)`) and the
spread, (q3 - q1) / median, beside the metric's bound in BENCHMARK.json.
Seeds run in order from 0; each run is untraced and lasts `run_seconds`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def run_seeds(workload: str, seeds: range, seconds: int) -> dict:
    per_metric: dict[str, list[float]] = {}
    failed = 0
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise RuntimeError(f"{workload} seed {seed}: no result line, exit "
                               f"{proc.returncode}\n{proc.stderr}") from None
        failed += result["failed"]
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return {"failed": failed,
            "metrics": {k: summarize(v) for k, v in per_metric.items()}}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.seeds)
    summary = {}
    for name in names if args.workload == "all" else [args.workload]:
        summary[name] = run_seeds(name, seeds, bench["run_seconds"])
        print(f"{name}: {len(seeds)} runs, {summary[name]['failed']} failed")
        for metric, s in summary[name]["metrics"].items():
            bound = bounds.get(metric)
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {spread}"
                  + ("" if bound is None else f"  bound {bound}"))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

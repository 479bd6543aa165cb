"""The benchmark's workloads: inputs made from the seed, and one pass of each.

Every workload is a closed loop in one process: the next verdict is asked
for only when the previous one has been delivered.  A pass returns one
`Verdict` per verdict it asked for, with the wall time from the request to
the verdict being in hand.

- battery: the seven `membrane-spectra batch` fixture shapes at rings 12
  and 24 through the Python API, one verdict at a time, each instance built
  by the command's own `cli._batch_instance`.  Every eigensolve
  takes the dense path.
- large-file: `membrane-spectra gen` of a 128-ring conformal disc (49,537
  vertices) to a file, then `membrane-spectra verify` of that file.  Mesh
  write and read and the shift-invert path dominate.
- batch-threads: `membrane-spectra batch` at rings 12 and 24 with two worker
  threads.  Its verdicts are delivered when the command exits, so each one's
  latency is the command's wall time.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from membrane_spectra import cli, verify

DEFAULT_SEED = 0
LEVELS = (12, 24)            # rings of the coarse and fine battery levels
LARGE_RINGS = 128
BATCH_THREADS = 2


@dataclass
class Verdict:
    key: str                 # "<fixture>:<level>", the reference key
    seconds: float
    doc: dict | None         # the report as JSON, None if the verdict failed
    error: str | None = None
    json_bytes: int = 0      # size of the mesh file the verdict read

    @property
    def fixture(self) -> str:
        return self.key.rsplit(":", 1)[0]

    @property
    def level(self) -> int:
        return int(self.key.rsplit(":", 1)[1])


@dataclass
class Context:
    seed: int
    workdir: Path | None = None
    recorder: object | None = None     # tracing.Recorder in traced passes

    def verdict(self):
        return self.recorder.verdict() if self.recorder else nullcontext()

    def span(self, name: str, layer: str):
        return self.recorder.span(name, layer) if self.recorder else nullcontext()


def battery_fixtures(seed: int) -> list[str]:
    """Fixture names of one battery pass; seed 0 gives the `batch` set.
    `cli._batch_instance` builds any of them, `conformal-<n>` for every n."""
    return ["disc", "hemisphere", "cap-pi6", "cap-pi3",
            f"conformal-{seed}", f"conformal-{seed + 1}", "branched"]


class CommandFailed(RuntimeError):
    pass


def cli_call(args: list[str]) -> None:
    """Run one `membrane-spectra` command in this process."""
    try:
        cli.main.main(args=args, prog_name="membrane-spectra",
                      standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise CommandFailed(f"{args[0]} exited with {exc.code}") from None


def battery_pass(ctx: Context) -> list[Verdict]:
    out = []
    for fixture in battery_fixtures(ctx.seed):
        for level, rings in enumerate(LEVELS):
            key = f"{fixture}:{level}"
            t0 = time.perf_counter()
            try:
                with ctx.verdict():
                    report = verify.verify_inequality(
                        *cli._batch_instance(fixture, rings))
                out.append(Verdict(key, time.perf_counter() - t0,
                                   report.to_json_dict()))
            except Exception as exc:    # counted as a failed verdict
                out.append(Verdict(key, time.perf_counter() - t0, None, repr(exc)))
    return out


def large_file_pass(ctx: Context) -> list[Verdict]:
    path = ctx.workdir / "large-file.json"
    report_path = ctx.workdir / "large-file-report.json"
    key = f"large-file-{ctx.seed}:0"
    t0 = time.perf_counter()
    try:
        with ctx.verdict():
            with ctx.span("cli.gen", "cli"):
                cli_call(["gen", "--shape", "conformal-disc",
                          "--resolution", str(LARGE_RINGS),
                          "--seed", str(ctx.seed), "--out", str(path)])
            with ctx.span("cli.verify", "cli"):
                cli_call(["verify", str(path), "--out", str(report_path)])
        seconds = time.perf_counter() - t0
        return [Verdict(key, seconds, json.loads(report_path.read_text()),
                        json_bytes=path.stat().st_size)]
    except Exception as exc:            # counted as a failed verdict
        return [Verdict(key, time.perf_counter() - t0, None, repr(exc))]
    finally:
        path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)


def batch_pass(ctx: Context) -> list[Verdict]:
    csv_path = ctx.workdir / "batch.csv"
    out_path = ctx.workdir / "batch.json"
    keys = [f"{fixture}:{level}" for fixture in battery_fixtures(DEFAULT_SEED)
            for level in range(len(LEVELS))]
    saved = os.environ.get("MEMBRANE_SPECTRA_THREADS")
    os.environ["MEMBRANE_SPECTRA_THREADS"] = str(BATCH_THREADS)
    t0 = time.perf_counter()
    try:
        with ctx.span("cli.batch", "cli"):
            cli_call(["batch", "--base-resolution", str(LEVELS[0]),
                      "--refine-levels", str(len(LEVELS)),
                      "--csv", str(csv_path), "--out", str(out_path)])
        seconds = time.perf_counter() - t0
        docs = json.loads(out_path.read_text())
        return [Verdict(k, seconds, docs.get(k),
                        None if k in docs else "missing from the output")
                for k in keys]
    except Exception as exc:            # every verdict of the command failed
        return [Verdict(k, time.perf_counter() - t0, None, repr(exc))
                for k in keys]
    finally:
        if saved is None:
            os.environ.pop("MEMBRANE_SPECTRA_THREADS", None)
        else:
            os.environ["MEMBRANE_SPECTRA_THREADS"] = saved
        csv_path.unlink(missing_ok=True)
        out_path.unlink(missing_ok=True)


def warm_up(ctx: Context) -> None:
    """One small untimed verdict through the command line, so that lazy
    imports and first-call library set-up are done before timing."""
    path = ctx.workdir / "warm-up.json"
    try:
        cli_call(["gen", "--shape", "conformal-disc", "--resolution",
                  str(LEVELS[0]), "--out", str(path)])
        cli_call(["verify", str(path), "--out", os.devnull])
    finally:
        path.unlink(missing_ok=True)


WORKLOADS = {
    "battery": (battery_pass, 1),
    "large-file": (large_file_pass, 1),
    "batch-threads": (batch_pass, BATCH_THREADS),
}

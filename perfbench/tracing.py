"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `instrument` replaces each
public function at the module attribute its caller resolves with a wrapper
that records a span, so the traced run executes the same program code as the
untraced one.  Spans stay in memory until the run ends.

A layer's self time is the duration of its spans minus the part of each
span's interval that the span's own children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("mesh", "fem", "transplant", "balance", "verify", "cli")

# (module of the caller, attribute the caller resolves, layer of the callee).
# A function imported by name into several modules is wrapped at each of
# them, because each caller looks it up in its own module.
TARGETS = (
    ("fem", "solve_dirichlet", "fem"),
    ("fem", "solve_neumann", "fem"),
    ("fem", "assemble_stiffness", "fem"),
    ("fem", "assemble_mass", "fem"),
    ("fem", "eigh", "fem"),
    ("fem", "eigsh", "fem"),
    ("fem", "rayleigh_quotient", "fem"),
    ("verify", "verify_inequality", "verify"),
    ("verify", "trial_bound_sum", "verify"),
    ("verify", "balance_center_of_mass", "balance"),
    ("verify", "center_of_gravity", "balance"),
    ("verify", "transplant_coords", "transplant"),
    ("verify", "compute_degree", "transplant"),
    ("balance", "transplant_coords", "transplant"),
    ("balance", "assemble_mass", "fem"),
    ("transplant", "assemble_stiffness", "fem"),
    ("cli", "identity_map_from_positions", "transplant"),
    ("cli", "disc_map_from_positions", "transplant"),
    ("mesh", "generate_disc", "mesh"),
    ("mesh", "generate_spherical_cap", "mesh"),
    ("mesh", "generate_conformal_disc", "mesh"),
    ("mesh", "generate_branched_double_disc", "mesh"),
    ("mesh", "load_mesh", "mesh"),
    ("mesh", "mesh_from_json_dict", "mesh"),
    ("mesh", "save_mesh", "mesh"),
    ("mesh", "mesh_to_json_dict", "mesh"),
)

# Spans that carry the size of the eigenproblem in their first argument.
SIZED = frozenset({"fem.eigh", "fem.eigsh"})

BUILD_SPANS = frozenset({"mesh.generate_disc", "mesh.generate_spherical_cap",
                         "mesh.generate_conformal_disc",
                         "mesh.generate_branched_double_disc"})

# Inclusive stage times: outermost spans of each set, per verdict.
STAGES = {
    "mesh.build_s": BUILD_SPANS,
    "mesh.load_s": {"mesh.load_mesh", "mesh.mesh_from_json_dict"},
    "mesh.save_s": {"mesh.save_mesh", "mesh.mesh_to_json_dict"},
    "fem.dirichlet_s": {"fem.solve_dirichlet"},
    "fem.neumann_s": {"fem.solve_neumann"},
    "fem.assemble_s": {"fem.assemble_stiffness", "fem.assemble_mass"},
    "fem.dense_s": {"fem.eigh"},
    "fem.sparse_s": {"fem.eigsh"},
    "transplant.coords_s": {"transplant.transplant_coords"},
    "transplant.degree_s": {"transplant.compute_degree"},
    "balance.s": {"balance.balance_center_of_mass"},
    "verify.trial_s": {"verify.trial_bound_sum"},
}

# Call counts, per verdict.
COUNTS = {
    "fem.dense_solves": "fem.eigh",
    "fem.sparse_solves": "fem.eigsh",
    "fem.stiffness_assemblies": "fem.assemble_stiffness",
    "fem.mass_assemblies": "fem.assemble_mass",
    "transplant.coords_calls": "transplant.transplant_coords",
}


@dataclass(eq=False)
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    verdict: int | None = None
    size: int | None = None
    children: list = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from the main thread and from worker threads.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost open span of the main thread as its parent.  Spans named in
    `verdict_starts` that open on an empty thread stack begin a new verdict
    on that thread; elsewhere the benchmark sets the verdict with `verdict`.
    """

    def __init__(self, verdict_starts=frozenset()):
        self.spans: list[Span] = []
        self.verdict_starts = frozenset(verdict_starts)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._verdict_ids = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.verdict = None
        return stack

    def new_verdict(self) -> int:
        self._local.verdict = next(self._verdict_ids)
        return self._local.verdict

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
            if name in self.verdict_starts:
                self.new_verdict()
        span = Span(name, layer, time.perf_counter(), parent=parent,
                    verdict=self._local.verdict)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, layer: str):
        s = self.begin(name, layer)
        try:
            yield s
        finally:
            self.end(s)

    @contextmanager
    def verdict(self):
        """Open a benchmark span around one verdict, under a new verdict id."""
        self.new_verdict()
        try:
            with self.span("bench.verdict", "bench") as s:
                yield s
        finally:
            self._local.verdict = None

    def wrap(self, fn, name: str, layer: str):
        rec = self
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rec.begin(name, layer)
            if sized:
                span.size = int(args[0].shape[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(span)

        return traced

    def to_json(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{"id": index[id(s)], "name": s.name, "layer": s.layer,
                 "start": s.start, "end": s.end,
                 "parent": None if s.parent is None else index[id(s.parent)],
                 "verdict": s.verdict}
                for s in self.spans]


@contextmanager
def instrument(recorder: Recorder):
    """Install span wrappers at every target attribute; restore on exit."""
    saved = []
    try:
        for modname, attr, layer in TARGETS:
            module = importlib.import_module(f"membrane_spectra.{modname}")
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(fn, f"{layer}.{attr}", layer))
        yield recorder
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by id(span)."""
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent is not None:
            s.parent.children.append(s)
    return {id(s): s.duration - covered([(c.start, c.end) for c in s.children],
                                        s.start, s.end)
            for s in spans}


def _has_ancestor_in(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def layer_metrics(spans: list[Span], verdicts: int,
                  iterations: int) -> dict[str, float]:
    """Per-verdict self time of every layer, stage times and call counts.

    `iterations` is the number of Newton steps the verdicts' balancing
    reports, so that moment-map evaluations per step can be given; the
    evaluation at the starting point of each balancing is not a step's.
    """
    per = 1.0 / max(verdicts, 1)
    selfs = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
    for s in spans:
        out[f"{s.layer}.self_s"] += selfs[id(s)] * per
    for metric, names in STAGES.items():
        out[metric] = per * sum(s.duration for s in spans if s.name in names
                                and not _has_ancestor_in(s, names))
    for metric, name in COUNTS.items():
        out[metric] = per * sum(1 for s in spans if s.name == name)
    sizes = [s.size for s in spans if s.size is not None]
    out["fem.dofs_max"] = float(max(sizes, default=0))
    balancing = [s for s in spans if s.name == "balance.balance_center_of_mass"]
    evals = sum(sum(1 for c in b.children
                    if c.name == "transplant.transplant_coords")
                for b in balancing)
    out["balance.evals_per_iteration"] = (
        (evals - len(balancing)) / iterations if iterations else 0.0)
    out["trace.spans_per_verdict"] = per * len(spans)
    return out


def verdict_busy(spans: list[Span]) -> dict[int, float]:
    """Wall time from the first to the last span of each verdict."""
    first, last = {}, {}
    for s in spans:
        if s.verdict is None:
            continue
        first[s.verdict] = min(first.get(s.verdict, s.start), s.start)
        last[s.verdict] = max(last.get(s.verdict, s.end), s.end)
    return {v: last[v] - first[v] for v in first}

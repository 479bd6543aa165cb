"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from membrane_spectra import cli, fem, verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _inputs(seed, rings=6):
    out = []
    for fixture in workloads.battery_fixtures(seed):
        m, f = cli._batch_instance(fixture, rings)
        out.append((m.triangles, m.lengths, f.values, f.degree))
    return out


def _same(a, b):
    return all(np.array_equal(x, y) for pa, pb in zip(a, b) for x, y in zip(pa, pb))


def test_same_seed_gives_identical_inputs():
    assert _same(_inputs(5), _inputs(5))
    assert not _same(_inputs(5), _inputs(6))
    # batch-threads is checked against the default-seed battery references.
    assert (workloads.battery_fixtures(workloads.DEFAULT_SEED)
            == list(cli.BATCH_FIXTURES))


def test_same_seed_gives_identical_mesh_file():
    run.WORKDIR.mkdir(exist_ok=True)
    texts = []
    for seed in (3, 3, 4):
        path = run.WORKDIR / "test-gen.json"
        workloads.cli_call(["gen", "--shape", "conformal-disc", "--resolution",
                            "6", "--seed", str(seed), "--out", str(path)])
        texts.append(path.read_text())
        path.unlink()
    assert texts[0] == texts[1] != texts[2]


def _span(name, start, end, parent=None, verdict=0):
    return tracing.Span(name, name.split(".")[0], start, end, parent, verdict)


def test_self_time_on_a_synthetic_span_tree():
    root = _span("cli.batch", 0.0, 10.0)
    a = _span("verify.verify_inequality", 1.0, 4.0, root)
    b = _span("mesh.load_mesh", 3.0, 6.0, root, verdict=1)   # overlaps a
    inner = _span("mesh.mesh_from_json_dict", 4.5, 5.5, b, verdict=1)
    leaf = _span("fem.eigh", 2.0, 3.0, a)
    late = _span("fem.eigsh", 9.5, 11.0, root, verdict=1)    # ends after root
    spans = [root, a, b, inner, leaf, late]
    selfs = tracing.self_times(spans)
    assert selfs[id(root)] == pytest.approx(10.0 - 5.0 - 0.5)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(b)] == pytest.approx(2.0)
    assert selfs[id(leaf)] == pytest.approx(1.0)
    assert sum(selfs.values()) == pytest.approx(
        10.0 + 1.0 + 1.0)   # root's interval, plus the overlap and the overrun

    m = tracing.layer_metrics(spans, verdicts=2, iterations=0)
    assert m["mesh.load_s"] == pytest.approx(3.0 / 2)    # outermost span only
    assert m["mesh.self_s"] == pytest.approx(3.0 / 2)
    assert m["cli.self_s"] == pytest.approx(4.5 / 2)
    assert m["fem.dense_solves"] == pytest.approx(0.5)
    assert tracing.verdict_busy(spans) == {0: 10.0, 1: 8.0}


def test_recorder_parents_worker_spans_to_the_open_main_span():
    rec = tracing.Recorder(verdict_starts={"mesh.generate_disc"})

    def work():
        with rec.span("mesh.generate_disc", "mesh"):
            with rec.span("fem.eigh", "fem"):
                pass

    with rec.span("cli.batch", "cli") as top:
        workers = [threading.Thread(target=work) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in workers)
    gens = [s for s in rec.spans if s.name == "mesh.generate_disc"]
    assert all(s.parent is top for s in gens)
    assert sorted(s.verdict for s in gens) == [0, 1]
    assert top.verdict is None
    assert all(s.verdict == s.parent.verdict for s in rec.spans
               if s.name == "fem.eigh")


def test_instrument_wraps_and_restores():
    original = fem.eigh
    rec = tracing.Recorder()
    with tracing.instrument(rec):
        with rec.verdict():
            report = verify.verify_inequality(*cli._batch_instance("disc", 4))
    assert fem.eigh is original
    names = [s.name for s in rec.spans]
    assert names.count("fem.eigh") == 2
    assert names.count("fem.assemble_stiffness") == 3
    assert names.count("fem.assemble_mass") == 5
    assert report.mu1 <= report.mu2


@pytest.fixture(scope="module")
def coarse_reports():
    return {f"{name}:0": verify.verify_inequality(
                *cli._batch_instance(name, workloads.LEVELS[0])).to_json_dict()
            for name in workloads.battery_fixtures(workloads.DEFAULT_SEED)}


def test_references_are_the_programs_output(coarse_reports):
    refs = checks.load_references()
    for key, doc in coarse_reports.items():
        assert checks.check_report(doc, refs[key], fem.RESIDUAL_TOL) == []


def test_checker_flags_a_perturbed_report(coarse_reports):
    refs = checks.load_references()
    doc = coarse_reports["conformal-0:0"]
    ref = refs["conformal-0:0"]
    for field, factor in (("lambda1", 1 + 1e-5), ("trial_sum", 1 - 1e-5),
                          ("slack2", 1.001), ("area", 1 + 1e-5)):
        bad = dict(doc, **{field: doc[field] * factor})
        assert checks.check_report(bad, ref, fem.RESIDUAL_TOL), field
    swapped = dict(doc, mu1=doc["mu2"] * 1.01)
    assert checks.check_report(swapped, None, fem.RESIDUAL_TOL)
    noisy = dict(doc, neumann_residuals=[1e-12, 10 * fem.RESIDUAL_TOL])
    assert checks.check_report(noisy, None, fem.RESIDUAL_TOL)
    over = dict(doc, trial_sum=doc["trial_sum"] + 2 * checks.margin_upper(doc) + 1e-3)
    assert checks.check_report(over, None, fem.RESIDUAL_TOL)
    fine = dict(doc, slack2=-1e-3, slack3=-1e-3)
    coarse = dict(doc, slack2=-1e-3 + 1e-5, slack3=-1e-3 + 1e-5)
    assert checks.check_budget(fine, coarse)
    assert checks.check_budget(doc, doc) == []


def test_names_and_units(coarse_reports):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.PER_LAYER_UNITS
    for name in names + list(e2e) + list(layer):
        assert NAME.fullmatch(name), name

    rec = tracing.Recorder()
    with rec.verdict():
        pass
    verdict = workloads.Verdict("disc:0", 1.0, coarse_reports["disc:0"])
    passes = [(False, 1.0, [verdict]), (True, 1.0, [verdict]), (False, 1.0, [verdict])]
    produced = run.per_layer(rec, passes, 1)
    assert {k: u for k, (_, u) in produced.items()} == layer


def test_refuses_to_run_without_the_program():
    bare = run.WORKDIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "battery",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

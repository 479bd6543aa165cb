import csv
import json
import os
import re
from functools import partial

import pytest
from click.testing import CliRunner

import membrane_spectra as ms
from membrane_spectra import fem, fixtures, save_mesh
from membrane_spectra import verify as verify_module
from membrane_spectra.cli import main

from conftest import BAD_ROWS, assert_no_child_left, octahedron, rows_document


@pytest.fixture()
def runner():
    return CliRunner()


def test_gen_disc_topology(tmp_path, runner):
    out = tmp_path / "disc.json"
    result = runner.invoke(main, ["gen", "--shape", "disc",
                                  "--resolution", "8", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert "vertices" in doc and "triangles" in doc and "map" in doc
    import membrane_spectra as ms
    mesh, f = ms.mesh.mesh_from_json_dict(doc)
    assert mesh.topology == ms.Topology(0, 1, 1)
    assert f.degree == 1


def test_gen_deterministic(tmp_path, runner):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        result = runner.invoke(main, ["gen", "--shape", "conformal-disc",
                                      "--resolution", "6", "--seed", "3",
                                      "--out", str(out)])
        assert result.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("shape, args, kwargs", [
    ("disc", [], {}),
    ("cap", ["--colatitude", "0.7"], {"colatitude": 0.7}),
    ("annulus", ["--inner-radius", "0.3"], {"inner_radius": 0.3}),
    ("branched-disc", [], {}),
    ("conformal-disc", ["--seed", "5", "--amplitude", "1.5"],
     {"seed": 5, "amplitude": 1.5})])
def test_gen_writes_save_mesh_output(tmp_path, runner, shape, args, kwargs):
    out, ref = tmp_path / "gen.json", tmp_path / "ref.json"
    result = runner.invoke(main, ["gen", "--shape", shape, "--resolution", "5",
                                  "--out", str(out)] + args)
    assert result.exit_code == 0, result.output
    save_mesh(ref, *fixtures.build(shape, 5, **kwargs))
    assert out.read_bytes() == ref.read_bytes()
    # compact: one line, no indentation
    assert out.read_text().count("\n") == 1
    stdout = runner.invoke(main, ["gen", "--shape", shape, "--resolution", "5",
                                  "--out", "-"] + args)
    assert stdout.exit_code == 0
    assert stdout.stdout == ref.read_text()


def test_gen_rejects_bad_params(tmp_path, runner):
    result = runner.invoke(main, ["gen", "--shape", "cap", "--resolution",
                                  "4", "--colatitude", "7.0",
                                  "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "--colatitude" in result.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("shape, flag, value", [
    ("annulus", "--inner-radius", "1.5"), ("annulus", "--inner-radius", "0"),
    ("cap", "--colatitude", "4"), ("cap", "--colatitude", "0"),
    ("annulus", "--inner-radius", "nan"), ("cap", "--colatitude", "nan"),
    ("conformal-disc", "--amplitude", "nan"),
    ("conformal-disc", "--amplitude", "inf"),
    ("conformal-disc", "--amplitude", "-inf")])
def test_gen_rejects_an_out_of_range_float_as_a_bad_flag(tmp_path, runner,
                                                         shape, flag, value):
    result = runner.invoke(main, ["gen", "--shape", shape, "--resolution",
                                  "4", flag, value,
                                  "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 2
    assert flag in result.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.filterwarnings("error")
def test_gen_overflowing_amplitude_names_the_bad_edge(tmp_path, runner):
    for amplitude, length in (("1e308", "inf"), ("-1e308", "0.0")):
        result = runner.invoke(main, ["gen", "--shape", "conformal-disc",
                                      "--resolution", "4", "--amplitude",
                                      amplitude,
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == (
            f"edge (0, 1) has length {length}: edge lengths must be positive "
            "finite reals")
        assert os.listdir(tmp_path) == []


def test_gen_rejects_a_negative_seed_as_a_bad_flag(tmp_path, runner):
    result = runner.invoke(main, ["gen", "--shape", "conformal-disc",
                                  "--resolution", "4", "--seed", "-1",
                                  "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 2
    assert "--seed" in result.stderr
    assert os.listdir(tmp_path) == []


def test_spectrum_neumann_zero_mode_gap(tmp_path, runner):
    mesh_file = tmp_path / "disc.json"
    runner.invoke(main, ["gen", "--shape", "disc", "--resolution", "8",
                         "--out", str(mesh_file)])
    out = tmp_path / "spectrum.json"
    result = runner.invoke(main, ["spectrum", str(mesh_file), "--bc",
                                  "neumann", "--k", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["bc"] == "neumann"
    assert len(doc["eigenvalues"]) == 3
    assert all(v > 1e-8 for v in doc["eigenvalues"])
    assert doc["zero_mode_gap"] > 0


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_spectrum_rejects_k_below_one_as_a_bad_flag(tmp_path, runner, bc, k):
    mesh_file = tmp_path / "disc.json"
    runner.invoke(main, ["gen", "--shape", "disc", "--resolution", "4",
                         "--out", str(mesh_file)])
    result = runner.invoke(main, ["spectrum", str(mesh_file), "--bc", bc,
                                  "--k", k])
    assert result.exit_code == 2
    assert "--k" in result.stderr


def test_spectrum_neumann_k_names_the_pairs_a_mesh_has(tmp_path, runner):
    mesh_file = tmp_path / "disc.json"
    runner.invoke(main, ["gen", "--shape", "disc", "--resolution", "3",
                         "--out", str(mesh_file)])
    ok = runner.invoke(main, ["spectrum", str(mesh_file), "--bc", "neumann",
                              "--k", "36"])
    assert ok.exit_code == 0, ok.output
    result = runner.invoke(main, ["spectrum", str(mesh_file), "--bc",
                                  "neumann", "--k", "37"])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {
        "error": "k=37 is not in [1, 36]: 37 dofs less the zero mode"}


def test_spectrum_deterministic(tmp_path, runner):
    mesh_file = tmp_path / "disc.json"
    runner.invoke(main, ["gen", "--shape", "disc", "--resolution", "6",
                         "--out", str(mesh_file)])
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        result = runner.invoke(main, ["spectrum", str(mesh_file),
                                      "--out", str(out)])
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_disc_slack(tmp_path, runner):
    mesh_file = tmp_path / "disc.json"
    runner.invoke(main, ["gen", "--shape", "disc", "--resolution", "16",
                         "--out", str(mesh_file)])
    out = tmp_path / "report.json"
    csv_file = tmp_path / "rows.csv"
    result = runner.invoke(main, ["verify", str(mesh_file), "--map", "id",
                                  "--out", str(out),
                                  "--csv", str(csv_file)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["degree"] == 1
    # continuum slack2 is ~+0.0041; coarse meshes land below it
    assert 0.0 < doc["slack2"] < 0.006
    assert csv_file.read_text().count("\n") == 2


@pytest.mark.parametrize("existing", [None, "", "fixture,level\n"])
def test_verify_csv_header_only_on_a_new_or_empty_file(tmp_path, runner,
                                                       existing):
    mesh_file = tmp_path / "disc.json"
    runner.invoke(main, ["gen", "--shape", "disc", "--resolution", "4",
                         "--out", str(mesh_file)])
    csv_file = tmp_path / "rows.csv"
    if existing is not None:
        csv_file.write_text(existing)
    result = runner.invoke(main, ["verify", str(mesh_file), "--map", "id",
                                  "--out", os.devnull, "--csv", str(csv_file)])
    assert result.exit_code == 0, result.output
    lines = csv_file.read_text().splitlines()
    header = ",".join(verify_module.CSV_FIELDS)
    # a non-empty file keeps its own first line and gets no second header
    assert lines[0] == (header if not existing else "fixture,level")
    assert len(lines) == 2 and lines[1].startswith("disc.json,0,")


def test_verify_stereo_map_of_a_cap_is_the_file_s_map(tmp_path, runner):
    mesh_file = tmp_path / "cap.json"
    runner.invoke(main, ["gen", "--shape", "cap", "--resolution", "6",
                         "--colatitude", "1.0", "--out", str(mesh_file)])
    reports = []
    for i, args in enumerate([[], ["--map", "stereo"]]):
        out = tmp_path / f"report-{i}.json"
        result = runner.invoke(main, ["verify", str(mesh_file), *args,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_branched_from_file_map(tmp_path, runner):
    mesh_file = tmp_path / "branched.json"
    runner.invoke(main, ["gen", "--shape", "branched-disc",
                         "--resolution", "10", "--out", str(mesh_file)])
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["degree"] == 2
    assert doc["slack2"] > 0


def test_verify_missing_map_fails_cleanly(tmp_path, runner):
    mesh_file = tmp_path / "annulus.json"
    runner.invoke(main, ["gen", "--shape", "annulus", "--resolution", "4",
                         "--out", str(mesh_file)])
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 1


def test_verify_short_map_fails_cleanly(tmp_path, runner):
    mesh_file = tmp_path / "conformal.json"
    runner.invoke(main, ["gen", "--shape", "conformal-disc", "--resolution",
                         "6", "--out", str(mesh_file)])
    doc = json.loads(mesh_file.read_text())
    vertices = len(doc["map"])
    doc["map"] = doc["map"][:-3]
    mesh_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 1
    error = json.loads(result.stderr)["error"]
    assert f"map has {vertices - 3} samples for {vertices} vertices" in error


def test_verify_coarse_branched_disc_takes_its_winding_number(tmp_path,
                                                              runner):
    mesh_file = tmp_path / "branched.json"
    runner.invoke(main, ["gen", "--shape", "branched-disc",
                         "--resolution", "2", "--out", str(mesh_file)])
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["degree"] == 2
    assert doc == ms.verify_inequality(*ms.load_mesh(mesh_file)).to_json_dict()


def test_verify_checks_the_files_stated_degree(tmp_path, runner):
    # a file with no "degree" states degree 1, which a map winding twice
    # contradicts
    mesh_file = tmp_path / "branched.json"
    runner.invoke(main, ["gen", "--shape", "branched-disc",
                         "--resolution", "4", "--out", str(mesh_file)])
    doc = json.loads(mesh_file.read_text())
    del doc["degree"]
    mesh_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == (
        "map states degree 1, but its boundary winding number is 2")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_gen_rejects_a_resolution_below_one_as_a_bad_flag(tmp_path, runner,
                                                          value):
    result = runner.invoke(main, ["gen", "--shape", "disc", "--resolution",
                                  value, "--out", str(tmp_path / "m.json")])
    assert result.exit_code == 2
    assert "--resolution" in result.stderr
    assert os.listdir(tmp_path) == []


def test_verify_closed_mesh_fails_cleanly(tmp_path, runner):
    m = octahedron()
    mesh_file = tmp_path / "octahedron.json"
    save_mesh(mesh_file, m,
              ms.MapSample(m.positions[:, 0] + 1j * m.positions[:, 1], 1))
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 1
    assert "mesh has no boundary" in json.loads(result.stderr)["error"]


def test_config_parse_error_exit_code(runner):
    result = runner.invoke(main, ["gen", "--shape", "dodecahedron",
                                  "--resolution", "4", "--out", "x.json"])
    assert result.exit_code == 2


def test_batch_slack_table(tmp_path, runner):
    csv_file = tmp_path / "slack.csv"
    result = runner.invoke(main, ["batch", "--refine-levels", "2",
                                  "--base-resolution", "6",
                                  "--csv", str(csv_file)])
    assert result.exit_code == 0, result.output
    lines = csv_file.read_text().strip().split("\n")
    # 7 built-in fixtures x 2 levels + header
    assert len(lines) == 15
    header = lines[0].split(",")
    icols = {name: header.index(name) for name in
             ("fixture", "level", "slack2", "eps_slack2")}
    for line in lines[1:]:
        cells = line.split(",")
        slack2 = float(cells[icols["slack2"]])
        eps = cells[icols["eps_slack2"]]
        if cells[icols["level"]] == "1":
            assert eps != ""
            assert slack2 >= -float(eps)


def test_batch_out_is_verify_levels_over_the_battery(tmp_path, runner):
    out, csv_file = tmp_path / "reports.json", tmp_path / "slack.csv"
    result = runner.invoke(main, ["batch", "--refine-levels", "3",
                                  "--base-resolution", "4",
                                  "--csv", str(csv_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    reports = ms.verify_levels({name: partial(fixtures.instance, name)
                                for name in fixtures.BATTERY}, [4, 8, 16])
    docs = json.loads(out.read_text())
    assert sorted(docs) == sorted(reports)
    for key, report in reports.items():
        assert docs[key] == json.loads(ms.mesh.dumps(report.to_json_dict()))
    assert csv_file.read_text() == verify_module.reports_to_csv(reports)


def _disc_file(tmp_path):
    mesh_file = tmp_path / "disc.json"
    save_mesh(mesh_file, *fixtures.build("disc", 4))
    return mesh_file


# each output option, and the file that the same command writes with the
# option given a file path instead of '-'
@pytest.mark.parametrize("command", [
    "gen --out", "spectrum --out", "verify --out", "verify --csv",
    "batch --csv", "batch --out"])
def test_dash_is_standard_output_for_every_output_option(tmp_path, runner,
                                                         monkeypatch, command):
    name, option = command.split()
    mesh_file = _disc_file(tmp_path)
    args = {"gen": ["gen", "--shape", "disc", "--resolution", "4"],
            "spectrum": ["spectrum", str(mesh_file)],
            "verify": ["verify", str(mesh_file), "--map", "id"],
            "batch": ["batch", "--base-resolution", "4",
                      "--refine-levels", "1"]}[name]
    other = {"verify --out": [], "verify --csv": ["--out", os.devnull],
             "batch --csv": ["--out", os.devnull],
             "batch --out": ["--csv", os.devnull]}.get(command, [])
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args + other + [option, "-"])
    assert result.exit_code == 0, result.output
    assert not os.path.exists("-")
    ref = tmp_path / "ref"
    runner.invoke(main, args + other + [option, str(ref)])
    assert result.stdout == ref.read_text()


@pytest.mark.parametrize("args", [
    ["batch", "--base-resolution", "4", "--csv", "-", "--out", "-"],
    ["verify", "DISC", "--csv", "-"],
    ["verify", "DISC", "--out", "-", "--csv", "-"]],
    ids=["batch", "verify-default-out", "verify"])
def test_two_outputs_to_standard_output_exit_2_before_any_work(
        tmp_path, runner, cpus, monkeypatch, args):
    mesh_file = _disc_file(tmp_path)
    monkeypatch.setattr(verify_module, "verify_inequality", None)
    forks = cpus(2)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [str(mesh_file) if a == "DISC" else a
                                  for a in args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "both write to standard output" in json.loads(
        result.stderr)["error"]
    assert forks == []
    assert os.listdir(tmp_path) == ["disc.json"]


@pytest.mark.parametrize("args", [
    ["verify", "DISC", "--map", "id", "--out", "r.txt", "--csv", "r.txt"],
    ["verify", "DISC", "--map", "id", "--out", "./kept.txt",
     "--csv", "kept.txt"],
    ["batch", "--base-resolution", "4", "--refine-levels", "1",
     "--csv", "b.txt", "--out", "b.txt"]],
    ids=["verify", "verify-existing-file", "batch"])
def test_two_outputs_to_one_file_exit_2_before_any_work(
        tmp_path, runner, cpus, monkeypatch, args):
    mesh_file = _disc_file(tmp_path)
    (tmp_path / "kept.txt").write_text("kept\n")
    monkeypatch.setattr(verify_module, "verify_inequality", None)
    forks = cpus(2)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [str(mesh_file) if a == "DISC" else a
                                  for a in args])
    assert result.exit_code == 2
    assert "both write to the file" in json.loads(result.stderr)["error"]
    assert forks == []
    assert sorted(os.listdir(tmp_path)) == ["disc.json", "kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


def test_several_outputs_may_name_the_null_device(tmp_path, runner):
    result = runner.invoke(main, ["verify", str(_disc_file(tmp_path)),
                                  "--map", "id", "--out", os.devnull,
                                  "--csv", os.devnull])
    assert result.exit_code == 0, result.output


def test_batch_takes_each_fixtures_exact_degree(tmp_path, runner):
    # at rings 4 the branched map's Jacobian estimate is 1.91, not 2
    csv_file = tmp_path / "slack.csv"
    result = runner.invoke(main, ["batch", "--refine-levels", "2",
                                  "--base-resolution", "4",
                                  "--csv", str(csv_file)])
    assert result.exit_code == 0, result.output
    with open(csv_file) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["degree"] for r in rows if r["fixture"] == "branched"] == ["2", "2"]


@pytest.mark.parametrize("command", ["gen", "verify", "batch"])
def test_unwritable_output_is_a_json_error(tmp_path, runner, command):
    mesh_file, missing = tmp_path / "disc.json", tmp_path / "missing" / "out"
    save_mesh(mesh_file, *fixtures.build("disc", 4))
    args = {"gen": ["gen", "--shape", "disc", "--resolution", "4",
                    "--out", str(missing)],
            "verify": ["verify", str(mesh_file), "--out", str(tmp_path)],
            "batch": ["batch", "--refine-levels", "1", "--base-resolution",
                      "6", "--csv", str(missing)]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    path = tmp_path if command == "verify" else missing
    assert str(path) in json.loads(result.stderr)["error"]


@pytest.mark.parametrize("flag", ["--csv", "--out", "--out-existing-csv"])
def test_batch_unwritable_output_fails_before_any_verdict(tmp_path, runner,
                                                         cpus, flag):
    csv_file, out = tmp_path / "s.csv", tmp_path / "r.json"
    missing = tmp_path / "missing" / "out"
    if flag == "--out-existing-csv":
        csv_file.write_text("kept\n")
    forks = cpus(2)
    result = runner.invoke(main, [
        "batch", "--base-resolution", "6",
        "--csv", str(missing if flag == "--csv" else csv_file),
        "--out", str(out if flag == "--csv" else missing)])
    assert result.exit_code == 1
    assert str(missing) in json.loads(result.stderr)["error"]
    assert forks == []
    # no file this batch created is left, and none it found is changed
    assert sorted(os.listdir(tmp_path)) == (
        ["s.csv"] if flag == "--out-existing-csv" else [])
    if flag == "--out-existing-csv":
        assert csv_file.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["gen", "spectrum", "verify",
                                     "verify --csv"])
def test_unwritable_output_fails_before_any_work(tmp_path, runner,
                                                 monkeypatch, command):
    mesh_file, missing = _disc_file(tmp_path), tmp_path / "missing" / "out"
    work = []
    for module, name in [(fixtures, "build"), (ms.mesh, "load_mesh")]:
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: work.append(args))
    args = {"gen": ["gen", "--shape", "disc", "--resolution", "4",
                    "--out", str(missing)],
            "spectrum": ["spectrum", str(mesh_file), "--out", str(missing)],
            "verify": ["verify", str(mesh_file), "--out", str(missing)],
            # the --out file is created, then removed when --csv fails
            "verify --csv": ["verify", str(mesh_file),
                             "--out", str(tmp_path / "r.json"),
                             "--csv", str(missing)]}[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert str(missing) in json.loads(result.stderr)["error"]
    assert work == []
    assert os.listdir(tmp_path) == ["disc.json"]


@pytest.mark.parametrize("flag", ["--refine-levels", "--base-resolution"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_batch_rejects_a_count_below_one_as_a_bad_flag(tmp_path, runner, cpus,
                                                       flag, value):
    forks = cpus(2)
    result = runner.invoke(main, ["batch", flag, value,
                                  "--csv", str(tmp_path / "s.csv")])
    assert result.exit_code == 2
    assert flag in result.stderr
    assert forks == []
    assert os.listdir(tmp_path) == []


def test_batch_rejects_a_base_resolution_below_two_as_a_bad_flag(
        tmp_path, runner, cpus):
    # the branched fixture needs 2 rings; 1 used to fail after the forks
    forks = cpus(2)
    result = runner.invoke(main, ["batch", "--base-resolution", "1",
                                  "--csv", str(tmp_path / "s.csv")])
    assert result.exit_code == 2
    assert "--base-resolution" in result.stderr
    assert forks == []
    assert os.listdir(tmp_path) == []


def _blas_threads():
    return [get() for get, _ in fem._openblas_libraries()]


def _batch_files(tmp_path, runner, cpus, base, n):
    """CSV and --out bytes of a batch run on n CPUs, and its fork count."""
    csv_file = tmp_path / f"slack-{n}.csv"
    out = tmp_path / f"reports-{n}.json"
    forks = cpus(n)
    before = (len(forks), _blas_threads())
    result = runner.invoke(main, ["batch", "--base-resolution", base,
                                  "--refine-levels", "2",
                                  "--csv", str(csv_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _blas_threads() == before[1]
    return csv_file.read_bytes(), out.read_bytes(), len(forks) - before[0]


# 8 rings is where the dense eigensolver's last digits moved with the BLAS
# thread count before it capped itself at one thread; with the split
# forced, every verdict goes through forked_map, which runs serially in
# the worker processes and on one CPU
@pytest.mark.parametrize("base, split", [("6", False), ("8", False),
                                         ("6", True)],
                         ids=["6", "8", "6-split"])
def test_batch_worker_processes_match_one_process(tmp_path, runner, cpus,
                                                  monkeypatch, base, split):
    if split:
        monkeypatch.setattr(verify_module, "SPLIT_MIN_VERTICES", 0)
    *serial, serial_forks = _batch_files(tmp_path, runner, cpus, base, 1)
    *forked, forks = _batch_files(tmp_path, runner, cpus, base, 2)
    assert (serial_forks, forks) == (0, 2)
    assert forked == serial


def _failing_instance(monkeypatch, fail):
    """Make fixtures.instance call `fail(name, resolution)` first."""
    instance = fixtures.instance

    def failing(name, resolution):
        fail(name, resolution)
        return instance(name, resolution)

    monkeypatch.setattr(fixtures, "instance", failing)


def test_batch_worker_error_matches_one_process(tmp_path, runner, cpus,
                                                monkeypatch):
    def fail(name, resolution):
        # two failures: the finest level is called first, so the one
        # reported at any CPU count is the one at resolution 12
        if (name, resolution) in (("cap-pi6", 6), ("branched", 12)):
            raise ms.EigenSolveError(f"injected failure on {name} "
                                     f"at resolution {resolution}")

    _failing_instance(monkeypatch, fail)
    errors = []
    for n in (1, 2):
        forks = cpus(n)
        result = runner.invoke(main, ["batch", "--base-resolution", "6",
                                      "--csv", str(tmp_path / "s.csv")])
        assert result.exit_code == 1
        errors.append(result.stderr)
    assert len(forks) == 2
    assert errors[0] == errors[1]
    assert json.loads(errors[0]) == {
        "error": "injected failure on branched at resolution 12"}
    assert not (tmp_path / "s.csv").exists()


def test_batch_dead_worker_is_a_typed_error(tmp_path, runner, cpus,
                                            monkeypatch):
    import signal

    caller = os.getpid()

    def fail(name, resolution):
        # the first call in submission order, so no call before it is
        # left running when its worker dies
        if (name, resolution) == ("disc", 12):
            assert os.getpid() != caller
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_instance(monkeypatch, fail)
    cpus(2)
    result = runner.invoke(main, ["batch", "--base-resolution", "6",
                                  "--csv", str(tmp_path / "s.csv")])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {
        "error": "_verdict('disc', 12) did not return: its forked worker "
                 "process died (exit status -9)"}
    assert not (tmp_path / "s.csv").exists()
    assert_no_child_left()


def test_blas_cap_is_one_thread_and_restores_each_count(blas_libs):
    for (_, set_), n in zip(blas_libs, (2, 3)):
        set_(n)
    expected = _blas_threads()
    with fem.single_threaded_blas():
        assert _blas_threads() == [1] * len(blas_libs)
    assert _blas_threads() == expected


def test_command_output_is_indented_json_of_the_object(tmp_path, runner):
    mesh_file = tmp_path / "branched.json"
    runner.invoke(main, ["gen", "--shape", "branched-disc", "--resolution",
                         "8", "--out", str(mesh_file)])
    mesh, f = ms.load_mesh(mesh_file)
    spectrum, report = tmp_path / "spectrum.json", tmp_path / "report.json"
    result = runner.invoke(main, ["spectrum", str(mesh_file), "--bc",
                                  "neumann", "--k", "3", "--eigenfunctions",
                                  "--out", str(spectrum)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["verify", str(mesh_file),
                                  "--out", str(report)])
    assert result.exit_code == 0, result.output
    assert json.loads(spectrum.read_text()) == ms.solve_neumann(
        mesh, 3).to_json_dict(include_eigenfunctions=True)
    assert json.loads(report.read_text()) == \
        ms.verify_inequality(mesh, f).to_json_dict()
    for out in (spectrum, report):
        text = out.read_text()
        assert text.startswith('{\n  "') and text.endswith("}\n")


@pytest.mark.parametrize("value, token", [(float("nan"), "NaN"),
                                          (float("inf"), "Infinity")])
def test_verify_non_finite_token_fails_cleanly(tmp_path, runner, value, token):
    mesh_file = tmp_path / "conformal.json"
    runner.invoke(main, ["gen", "--shape", "conformal-disc", "--resolution",
                         "4", "--out", str(mesh_file)])
    doc = json.loads(mesh_file.read_text())
    doc["map"][0][0] = value
    mesh_file.write_text(json.dumps(doc))    # the stdlib writes the token
    assert token in mesh_file.read_text()
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 1
    assert "error" in json.loads(result.stderr)


@pytest.mark.parametrize("bad, message", BAD_ROWS)
def test_row_naming_no_edge_is_a_json_error(tmp_path, runner, bad, message):
    mesh_file = tmp_path / "branched.json"
    doc = rows_document(*fixtures.build("branched-disc", 3))
    doc["edge_lengths"].append(bad)
    mesh_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert re.search(message, json.loads(result.stderr)["error"])


@pytest.mark.parametrize("doc", [5, {"triangles": [[0, 1, 2]],
                                     "vertices": {"a": 1}}],
                         ids=["top-level-number", "vertices-object"])
@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_malformed_mesh_file_is_a_json_error(tmp_path, runner, doc, command):
    mesh_file = tmp_path / "bad.json"
    mesh_file.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(mesh_file)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "mesh JSON" in json.loads(result.stderr)["error"]


@pytest.mark.filterwarnings("error")
def test_far_row_index_is_only_a_json_error(tmp_path, runner):
    mesh_file = tmp_path / "branched.json"
    doc = rows_document(*fixtures.build("branched-disc", 3))
    doc["edge_lengths"][2] = [1e300, 2, 1.0]
    mesh_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["spectrum", str(mesh_file)])
    assert result.exit_code == 1
    assert result.stderr == ('{"error":"edge length row 2 has a non-integer '
                             'vertex index: [1e+300, 2.0, 1.0]"}\n')


@pytest.mark.parametrize("shape", fixtures.SHAPES)
def test_rows_and_aligned_files_give_one_verdict(tmp_path, runner, shape):
    aligned, rows = tmp_path / "aligned.json", tmp_path / "rows.json"
    result = runner.invoke(main, ["gen", "--shape", shape, "--resolution", "4",
                                  "--out", str(aligned)])
    assert result.exit_code == 0, result.output
    rows.write_bytes(ms.mesh.dumps(rows_document(*fixtures.build(shape, 4))))
    if shape in ("disc", "cap", "annulus"):
        # an embedded mesh's file has no edge lengths to change
        assert aligned.read_bytes() == rows.read_bytes()
    a, b = ms.load_mesh(aligned)[0], ms.load_mesh(rows)[0]
    assert a.edges.tobytes() == b.edges.tobytes()
    assert a.lengths.tobytes() == b.lengths.tobytes()
    for command in (["verify"], ["spectrum", "--bc", "neumann", "--k", "3"]):
        first, second = (runner.invoke(main, command + [str(path)])
                         for path in (aligned, rows))
        assert (second.exit_code, second.stdout, second.stderr) == \
            (first.exit_code, first.stdout, first.stderr)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit, message", [
    (lambda lens: lens[:-1], "expected 90 edge lengths aligned to edges, "
                             "got shape (89,)"),
    (lambda lens: lens + [1.0], "expected 90 edge lengths aligned to edges, "
                                "got shape (91,)"),
    (lambda lens: lens[:2] + [[0, 1, 1.0]] + lens[2:],
     "mesh JSON 'edge_lengths' must be a list of numbers or of [i, j, "
     "length] rows"),
    (lambda lens: {"0": lens[0]},
     "mesh JSON 'edge_lengths' must be a list of numbers or of [i, j, "
     "length] rows")], ids=["one-short", "one-over", "ragged", "mapping"])
def test_wrong_aligned_lengths_are_only_a_json_error(tmp_path, runner, edit,
                                                     message):
    mesh_file = tmp_path / "branched.json"
    save_mesh(mesh_file, *fixtures.build("branched-disc", 3))    # 90 edges
    doc = json.loads(mesh_file.read_text())
    doc["edge_lengths"] = edit(doc["edge_lengths"])
    mesh_file.write_text(json.dumps(doc))
    result = runner.invoke(main, ["verify", str(mesh_file)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == json.dumps({"error": message},
                                       separators=(",", ":")) + "\n"


def test_far_vertex_index_is_a_json_error(tmp_path, runner):
    mesh_file = tmp_path / "far.json"
    mesh_file.write_text(json.dumps({
        "triangles": [[0, 1, 2], [2, 1, 10 ** 12]],
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    result = runner.invoke(main, ["spectrum", str(mesh_file)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert json.loads(result.stderr) == {
        "error": "unreferenced vertices: [3 4 5 6 7]"}

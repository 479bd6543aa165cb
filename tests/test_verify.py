import csv
import dataclasses
import io
import re
from functools import partial

import numpy as np
import pytest

import membrane_spectra as ms
from membrane_spectra import fixtures, verify as verify_module
from membrane_spectra.transplant import (disc_map_from_positions,
                                         identity_map_from_positions, mobius)
from membrane_spectra.verify import (FOUR_PI_3, VerificationReport,
                                     check_eq3_implication, reports_to_csv,
                                     richardson_budget)

from conftest import (J0_ZERO, J1P_ZERO, assert_no_child_left, octahedron,
                      resized_map)

LAMBDA1_DISC = J0_ZERO ** 2
MU1_DISC = J1P_ZERO ** 2


def analytic_disc_report():
    """Report of the exact flat-disc constants (d = 1)."""
    return VerificationReport(
        lambda1=LAMBDA1_DISC, mu1=MU1_DISC, mu2=MU1_DISC, area=np.pi,
        degree=1, trial_sum=0.75, mesh_resolution="analytic")


class TestVerifyEq3:
    def test_hemisphere_equality(self):
        rep = VerificationReport(
            lambda1=2.0, mu1=2.0, mu2=2.0, area=2 * np.pi, degree=1,
            trial_sum=1.5, mesh_resolution="analytic")
        assert rep.lhs3 == pytest.approx(8 * np.pi, rel=1e-14)
        assert rep.rhs3 == pytest.approx(8 * np.pi, rel=1e-14)
        assert rep.slack3 == pytest.approx(0.0, abs=1e-12)

    def test_flat_disc_constants(self):
        rep = analytic_disc_report()
        assert rep.lhs2 == pytest.approx(
            (1 / LAMBDA1_DISC + 2 / MU1_DISC) / np.pi, rel=1e-14)
        assert rep.rhs2 == pytest.approx(3 / (4 * np.pi), rel=1e-14)
        assert rep.lhs3 == pytest.approx(61.59, abs=0.01)
        assert rep.rhs3 == pytest.approx(62.65, abs=0.01)
        assert rep.slack3 == pytest.approx(1.06, abs=0.01)

    @pytest.mark.parametrize("lambda1, mu1, mu2, area, degree", [
        (LAMBDA1_DISC, MU1_DISC, MU1_DISC, np.pi, 1),
        (2.0, 2.0, 2.0, 2 * np.pi, 1), (5.8, 0.9, 3.4, 4.2, 2),
        (1e-3, 7e2, 9e2, 3e-5, 3)])
    def test_implication_identity(self, lambda1, mu1, mu2, area, degree):
        # the identity check_eq3_implication rests on, with slack2 and
        # slack3 as the report derives them
        rep = VerificationReport(lambda1=lambda1, mu1=mu1, mu2=mu2, area=area,
                                 degree=degree, trial_sum=0.0,
                                 mesh_resolution="analytic")
        c = degree * FOUR_PI_3
        gap = rep.slack3 - lambda1 * mu1 * c * area * rep.slack2
        assert gap == pytest.approx(c * lambda1 * (1 - mu1 / mu2), rel=1e-12,
                                    abs=1e-12 * (abs(rep.rhs3) + abs(rep.lhs3)))

    def test_implication_from_eq2(self):
        rep = analytic_disc_report()
        check_eq3_implication(rep)  # must not raise
        rep.mu2 = rep.mu1 - 1.0
        with pytest.raises(AssertionError, match="out of order"):
            check_eq3_implication(rep)

    @pytest.mark.parametrize("field, message", [("slack3", "slack3=nan"),
                                                ("mu2", "mu2=nan")])
    def test_implication_rejects_nan(self, field, message):
        rep = analytic_disc_report()
        # slack3 is derived: a NaN lambda1 makes it NaN
        setattr(rep, {"slack3": "lambda1"}.get(field, field), float("nan"))
        with pytest.raises(AssertionError, match=message):
            check_eq3_implication(rep)


class TestTrialBoundSum:
    def test_hemisphere_transplants_are_eigenfunctions(self, hemisphere32):
        f = disc_map_from_positions(hemisphere32)
        s = ms.trial_bound_sum(hemisphere32, f, 0.0)
        assert s == pytest.approx(1.5, rel=5e-3)

    def test_flat_disc_window(self, disc32):
        # between A / (4 pi / 3) = 0.75 and the reciprocal optimum ~0.763
        f = identity_map_from_positions(disc32)
        s = ms.trial_bound_sum(disc32, f, 0.0)
        assert 0.75 - 5e-3 <= s <= 0.763 + 5e-3

    def test_branched_disc_lower_bound(self, branched12):
        mesh, f = branched12
        s = ms.trial_bound_sum(mesh, f, 0.0)
        # proof chain: >= A / (d * 4 pi / 3) = 0.75 up to mesh error
        assert s >= mesh.total_area() / (2 * FOUR_PI_3) - 1e-2

    def test_unbalanced_parameter_rejected(self, disc16):
        f = identity_map_from_positions(disc16)
        with pytest.raises(ValueError, match="not balanced"):
            ms.trial_bound_sum(disc16, f, 0.5)

    def test_nan_balance_residual_rejected(self, disc16, monkeypatch):
        monkeypatch.setattr(verify_module, "center_of_gravity",
                            lambda mesh, f, a: (np.nan, 0.0))
        f = identity_map_from_positions(disc16)
        with pytest.raises(ValueError, match="residual nan exceeds"):
            ms.trial_bound_sum(disc16, f, 0.0)


class TestVerifyInequality:
    def test_hemisphere_near_equality(self, hemisphere32):
        f = disc_map_from_positions(hemisphere32)
        rep = ms.verify_inequality(hemisphere32, f)
        assert rep.lambda1 == pytest.approx(2.0, rel=5e-3)
        assert rep.mu1 == pytest.approx(2.0, rel=5e-3)
        assert rep.mu2 == pytest.approx(2.0, rel=5e-3)
        assert rep.rhs2 == pytest.approx(3 / (4 * np.pi), rel=1e-14)
        assert abs(rep.slack2) / rep.rhs2 < 5e-3
        assert rep.trial_sum == pytest.approx(1.5, rel=5e-3)

    def test_flat_disc(self, disc32):
        f = identity_map_from_positions(disc32)
        rep = ms.verify_inequality(disc32, f)
        assert rep.degree == 1
        assert rep.lhs2 == pytest.approx(0.24283, abs=5e-4)
        assert rep.slack2 > 0
        assert rep.slack3 > 0

    def test_branched_disc_degree_two(self, branched12):
        mesh, f = branched12
        rep = ms.verify_inequality(mesh, f)
        assert rep.degree == 2
        assert rep.rhs2 == pytest.approx(3 / (8 * np.pi), rel=1e-14)
        assert rep.slack2 > 0

    @pytest.mark.parametrize("rings", [2, 3, 4])
    def test_branched_degree_is_its_winding_number(self, rings):
        rep = ms.verify_inequality(*fixtures.instance("branched", rings))
        assert rep.degree == 2
        assert rep.rhs2 == pytest.approx(3 / (8 * np.pi), rel=1e-14)

    def test_orientation_reversing_map_is_rejected(self, disc16):
        z = identity_map_from_positions(disc16).values
        with pytest.raises(ValueError, match="computed degree -1 is not "
                           "positive: the map reverses orientation"):
            ms.verify_inequality(disc16, ms.MapSample(z.conj(), 1))

    def test_stated_degree_must_be_the_winding_number(self, disc16):
        z = identity_map_from_positions(disc16).values
        with pytest.raises(ValueError, match="map states degree 2, but its "
                           "boundary winding number is 1"):
            ms.verify_inequality(disc16, ms.MapSample(z, 2))

    @pytest.mark.parametrize("degree", [1, "auto"])
    def test_improper_map_is_rejected_at_any_degree(self, disc16, degree):
        # the annulus' inner circle, and a disc shrunk by 0.9, leave the
        # boundary off the unit circle; z (1 + 1.5 (1 - |z|^2)) keeps the
        # boundary there and winds once, but leaves the disc inside it.  1
        # runs the verdict on a map that states degree 1, "auto" runs the
        # winding-number degree rule alone
        annulus = ms.generate_annulus(0.5, 8)
        shrunk = identity_map_from_positions(disc16)
        disc12 = ms.generate_disc(12)
        z = identity_map_from_positions(disc12).values
        check = ms.verify_inequality if degree == 1 else ms.compute_degree
        for mesh, f, message in (
                (annulus, identity_map_from_positions(annulus),
                 "boundary modulus deviates from 1 by 0.5"),
                (disc16, ms.MapSample(0.9 * shrunk.values, 1),
                 "boundary modulus deviates from 1 by 0.1"),
                (disc12, ms.MapSample(z * (1 + 1.5 * (1 - np.abs(z) ** 2)), 1),
                 "vertex 234 maps to modulus 1.24219, outside the closed "
                 "unit disc")):
            with pytest.raises(ValueError,
                               match=f"^map is not proper: {message}$"):
                check(mesh, f)

    def test_closed_mesh_is_rejected(self):
        m = octahedron()
        f = ms.MapSample(m.positions[:, 0] + 1j * m.positions[:, 1], 1)
        with pytest.raises(ValueError, match="mesh has no boundary"):
            ms.verify_inequality(m, f)

    @pytest.mark.parametrize("count", [60, 62])
    def test_sample_count_must_match_vertices(self, count):
        mesh = ms.generate_disc(4)      # 61 vertices
        with pytest.raises(ValueError,
                           match=f"map has {count} samples for 61 vertices"):
            ms.verify_inequality(mesh, resized_map(mesh, count))

    def test_scale_invariance(self, disc16):
        f = identity_map_from_positions(disc16)
        base = ms.verify_inequality(disc16, f)
        for c in (1e-60, 1e-8, 0.1, 3.0, 1e8, 1e60):
            rep = ms.verify_inequality(disc16.scaled(c), f)
            assert rep.lhs2 == pytest.approx(base.lhs2, rel=1e-9)
            assert rep.slack2 == pytest.approx(base.slack2, rel=1e-9)

    def test_report_json(self):
        rep = ms.verify_levels({"disc": partial(fixtures.instance, "disc")},
                               [4, 8])["disc:1"]
        doc = rep.to_json_dict()
        assert set(doc) == {
            "mesh_resolution", "area", "degree", "lambda1", "mu1", "mu2",
            "lhs2", "rhs2", "slack2", "lhs3", "rhs3", "slack3", "trial_sum",
            "balance", "dirichlet_residuals", "neumann_residuals",
            "eps_fem", "budgeted_slack2", "budgeted_slack3"}
        assert set(doc["eps_fem"]) == {"slack2", "slack3", "upper", "lower",
                                       "coarse_resolution"}
        assert set(doc["balance"]) == {"a", "residual", "iterations"}

    def test_report_stores_only_what_was_measured(self):
        rep = ms.verify_levels({"disc": partial(fixtures.instance, "disc")},
                               [4, 8])["disc:1"]
        measured = {f.name: getattr(rep, f.name)
                    for f in dataclasses.fields(VerificationReport)}
        assert list(measured)[:7] == ["lambda1", "mu1", "mu2", "area",
                                      "degree", "trial_sum", "mesh_resolution"]
        rebuilt = VerificationReport(**measured)
        assert ms.mesh.dumps(rebuilt.to_json_dict()) == \
            ms.mesh.dumps(rep.to_json_dict())
        for name in ("lhs2", "rhs2", "slack2", "lhs3", "rhs3", "slack3",
                     "margin_upper", "margin_lower",
                     "budgeted_slack2", "budgeted_slack3"):
            assert name not in measured
            with pytest.raises(AttributeError):
                setattr(rep, name, 0.0)
        with pytest.raises(TypeError, match="slack2"):
            VerificationReport(**measured, slack2=0.0)


class TestSplit:
    """The Dirichlet solve in a forked process, forced on 12-ring fixtures
    by lowering the vertex count from which `fem.forked_map` is used."""

    @pytest.fixture()
    def split(self, monkeypatch, cpus):
        """Route every verdict through forked_map on two CPUs; returns the
        forks made."""
        monkeypatch.setattr(verify_module, "SPLIT_MIN_VERTICES", 0)
        return cpus(2)

    @pytest.fixture()
    def fails(self, monkeypatch):
        """Make a solver raise an EigenSolveError naming its stage."""
        def fail(name):
            def failing(mesh, k):
                raise ms.EigenSolveError(
                    f"injected {name} failure on n={mesh.vertex_count}")
            monkeypatch.setattr(ms.fem, f"solve_{name}", failing)
        return fail

    @staticmethod
    def _no_child_left():
        import threading
        assert_no_child_left()
        assert threading.active_count() == 1

    @pytest.mark.parametrize("name", ["conformal-0", "branched"])
    def test_report_equals_one_thread_serial_run(self, monkeypatch, cpus,
                                                 name):
        monkeypatch.setattr(verify_module, "SPLIT_MIN_VERTICES", 0)
        m, f = fixtures.instance(name, 12)
        forks = cpus(1)
        serial = ms.verify_inequality(m, f).to_json_dict()
        assert not forks
        cpus(2)
        assert ms.verify_inequality(m, f).to_json_dict() == serial
        assert len(forks) == 1
        self._no_child_left()

    def test_child_error_reaches_the_caller(self, split, fails):
        fails("dirichlet")
        with pytest.raises(ms.EigenSolveError) as info:
            ms.verify_inequality(*fixtures.instance("conformal-0", 12))
        assert type(info.value) is ms.EigenSolveError
        assert str(info.value) == "injected dirichlet failure on n=469"
        assert len(split) == 1
        self._no_child_left()

    @pytest.mark.parametrize("forced", [False, True])
    def test_dirichlet_error_comes_first(self, request, fails, forced):
        # as in the serial order, whichever process solves it
        if forced:
            request.getfixturevalue("split")
        fails("dirichlet")
        fails("neumann")
        with pytest.raises(ms.EigenSolveError,
                           match="^injected dirichlet failure on n=469$"):
            ms.verify_inequality(*fixtures.instance("conformal-0", 12))

    def test_neumann_error_after_a_good_child(self, split, fails):
        fails("neumann")
        with pytest.raises(ms.EigenSolveError,
                           match="^injected neumann failure on n=469$"):
            ms.verify_inequality(*fixtures.instance("conformal-0", 12))
        self._no_child_left()

    def test_dead_child_is_a_typed_error(self, split, monkeypatch):
        import os
        import signal

        def killed(mesh, k):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(ms.fem, "solve_dirichlet", killed)
        with pytest.raises(ms.EigenSolveError) as info:
            ms.verify_inequality(*fixtures.instance("conformal-0", 12))
        message = str(info.value)
        assert "n=469" in message and "exit status -9" in message
        self._no_child_left()

    def test_blas_thread_counts_are_restored(self, split, blas_libs):
        for (_, set_), n in zip(blas_libs, (2, 3)):
            set_(n)
        expected = [get() for get, _ in blas_libs]
        ms.verify_inequality(*fixtures.instance("branched", 12))
        assert len(split) == 1
        assert [get() for get, _ in blas_libs] == expected


class TestRichardsonBudget:
    def test_budget_covers_margins(self):
        def make(res):
            m = ms.generate_disc(res)
            return m, identity_map_from_positions(m)

        rep = ms.verify_levels({"disc": make}, [8, 16])["disc:1"]
        eps = rep.eps_fem
        assert set(eps) >= {"slack2", "slack3", "upper", "lower"}
        assert rep.slack2 >= -eps["slack2"]
        assert rep.slack3 >= -eps["slack3"]
        assert rep.margin_upper >= -eps["upper"]
        assert rep.margin_lower >= -eps["lower"]
        assert rep.budgeted_slack2 >= 0

    def test_csv_round_trip(self):
        def make(res):
            m = ms.generate_spherical_cap(np.pi / 3, res)
            return m, disc_map_from_positions(m)

        reports = ms.verify_levels({"cap-pi3": make}, [4, 8])
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        assert lines[0] == (
            "fixture,level,mesh_resolution,area,degree,lambda1,mu1,mu2,"
            "lhs2,rhs2,slack2,lhs3,rhs3,slack3,trial_sum,"
            "balance_residual,balance_iterations,"
            "eps_slack2,eps_slack3,eps_upper,eps_lower")
        assert lines[1].startswith("cap-pi3,0,V")
        assert lines[1].endswith(",,,,")        # the coarsest has no budget
        assert lines[2].startswith("cap-pi3,1,V")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert float(rows[1]["eps_slack2"]) == reports["cap-pi3:1"].eps_fem[
            "slack2"]

    def test_csv_reads_fixture_and_level_from_each_key(self):
        rep = ms.verify_inequality(*fixtures.instance("disc", 4))
        text = reports_to_csv({"a:b.json:0": rep, "disc:2": rep})
        assert [line.split(",")[:2] for line in text.split("\n")[1:3]] == [
            ["a:b.json", "0"], ["disc", "2"]]

    def test_rejects_resolution_without_coarser_level(self, cpus):
        forks = cpus(2)
        disc = {"disc": partial(fixtures.instance, "disc")}
        for resolutions in ([], [0, 4], [-2, 4], [4, 4], [8, 4], [2, 8, 4]):
            with pytest.raises(ValueError, match=re.escape(
                    "resolutions must be an increasing list of positive "
                    f"integers, got {resolutions}")):
                ms.verify_levels(disc, resolutions)
        assert forks == []

    @pytest.mark.parametrize("resolutions", [[8.0], [True, 2], [2, 4.0],
                                             ["4"]])
    def test_rejects_a_resolution_that_is_not_an_int(self, cpus,
                                                     resolutions):
        # one rule, mesh.positive_int, before any verdict is forked
        forks = cpus(2)
        disc = {"disc": partial(fixtures.instance, "disc")}
        with pytest.raises(ValueError, match=re.escape(
                "resolutions must be an increasing list of positive "
                f"integers, got {resolutions}")):
            ms.verify_levels(disc, resolutions)
        assert forks == []

    def test_rejects_equal_levels(self):
        rep = ms.verify_inequality(*fixtures.instance("disc", 8))
        with pytest.raises(ValueError, match=(
                f"fine level {rep.mesh_resolution} equals coarse level "
                f"{rep.mesh_resolution}")):
            richardson_budget(rep, rep)


class TestVerifyLevels:
    @staticmethod
    def _battery(names=("disc", "branched")):
        return {name: partial(fixtures.instance, name) for name in names}

    def test_keys_budgets_and_reports(self):
        reports = ms.verify_levels(self._battery(), (4, 8, 16))
        assert list(reports) == ["disc:0", "disc:1", "disc:2",
                                 "branched:0", "branched:1", "branched:2"]
        for name in ("disc", "branched"):
            for level, rings in enumerate((4, 8, 16)):
                rep = reports[f"{name}:{level}"]
                m, f = fixtures.instance(name, rings)
                alone = ms.verify_inequality(m, f)
                if level:
                    coarse = reports[f"{name}:{level - 1}"]
                    assert rep.eps_fem == richardson_budget(rep, coarse)
                    assert rep.eps_fem["coarse_resolution"] == \
                        coarse.mesh_resolution
                    alone.eps_fem = rep.eps_fem
                else:
                    assert rep.eps_fem is None
                assert rep.to_json_dict() == alone.to_json_dict()

    def test_one_level_carries_no_budget(self):
        reports = ms.verify_levels(self._battery(), [6])
        assert list(reports) == ["disc:0", "branched:0"]
        assert all(rep.eps_fem is None for rep in reports.values())

    @pytest.mark.parametrize("resolutions", [[2, 4], [4, 8]])
    def test_branched_takes_the_maps_exact_degree(self, resolutions):
        m, f = fixtures.instance("branched", resolutions[0])
        assert ms.compute_degree(m, f) == f.degree == 2
        reports = ms.verify_levels(self._battery(["branched"]), resolutions)
        assert [rep.degree for rep in reports.values()] == [2, 2]
        assert reports["branched:1"].budgeted_slack2 >= 0

    def test_worker_processes_match_one_process(self, cpus):
        forks = cpus(1)
        serial = ms.verify_levels(self._battery(), [6, 12])
        assert forks == []
        cpus(2)
        forked = ms.verify_levels(self._battery(), [6, 12])
        assert len(forks) == 2
        assert list(forked) == list(serial)
        assert ([ms.mesh.dumps(r.to_json_dict()) for r in forked.values()]
                == [ms.mesh.dumps(r.to_json_dict()) for r in serial.values()])

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_failure_in_finest_first_order(self, cpus, n):
        def failing(name):
            def make(rings):
                # the disc fails at the coarse level, the branched disc at
                # the fine one, which goes to forked_map first
                if (name, rings) in (("disc", 6), ("branched", 12)):
                    raise ms.EigenSolveError(f"injected on {name} at {rings}")
                return fixtures.instance(name, rings)
            return make

        cpus(n)
        with pytest.raises(ms.EigenSolveError,
                           match="^injected on branched at 12$"):
            ms.verify_levels({name: failing(name)
                              for name in ("disc", "branched")}, [6, 12])


@pytest.mark.parametrize("rings", [12, 24])
def test_cached_triangulation_gives_the_fresh_reports(rings):
    for name in fixtures.BATTERY:
        mesh, f = fixtures.instance(name, rings)
        fresh = ms.SurfaceMesh(np.array(mesh.triangles),
                               edge_lengths=mesh.lengths)
        assert fresh.triangulation is not mesh.triangulation
        assert (ms.mesh.dumps(ms.verify_inequality(fresh, f).to_json_dict())
                == ms.mesh.dumps(ms.verify_inequality(mesh, f).to_json_dict()))


def _relabelled(mesh, f):
    # vertex v becomes perm[v]; the lengths go as [i, j, length] rows
    perm = np.random.default_rng(3).permutation(mesh.vertex_count)
    values = np.empty_like(f.values)
    values[perm] = f.values
    rows = np.column_stack([perm[mesh.edges], mesh.lengths])
    return (ms.SurfaceMesh(perm[mesh.triangles], edge_lengths=rows),
            ms.MapSample(values, f.degree))


@pytest.mark.parametrize("name", ["disc", "hemisphere", "cap-pi3",
                                  "conformal-0", "conformal-1", "branched"])
def test_verdict_invariant_under_moebius_rotation_and_relabelling(name):
    mesh, f = fixtures.instance(name, 12)
    base = ms.verify_inequality(mesh, f)
    reciprocal = 1 / base.lambda1 + 1 / base.mu1 + 1 / base.mu2
    sides = abs(base.lhs2) + abs(base.rhs2)
    variants = [(mesh, ms.MapSample(mobius(b, f.values), f.degree))
                for b in (0.3, 0.6 + 0.2j)]
    variants += [(mesh, ms.MapSample(np.exp(0.9j) * f.values, f.degree)),
                 _relabelled(mesh, f)]
    for m, g in variants:
        rep = ms.verify_inequality(m, g)
        for value in ("lambda1", "mu1", "mu2", "trial_sum"):
            assert getattr(rep, value) == pytest.approx(getattr(base, value),
                                                        rel=1e-12, abs=0)
        for margin in ("margin_upper", "margin_lower"):
            assert (abs(getattr(rep, margin) - getattr(base, margin))
                    <= 1e-12 * reciprocal)
        assert abs(rep.slack2 - base.slack2) <= 1e-12 * sides

import json
from dataclasses import replace

import numpy as np
import pytest

from mhd1d import ConvergenceReport, Grid1D, fit_rate, limit_study, parse_config, solver, sweep
from mhd1d.core import derivative, viscous_velocity
from mhd1d.errors import BoundaryMonitorError
from mhd1d.diagnostics import RunTelemetry
from mhd1d.limit_study import GuardResult, PairErrors, _guard_result, run_group
from mhd1d.scenario import build_initial_state


@pytest.fixture(scope="module")
def small_config():
    return parse_config({"grid": {"half_width": 20.0, "n_cells": 256},
                         "scheme": {"t_end": 0.2, "n_samples": 10},
                         "nu_list": [1e-2, 1e-3, 1e-4]})


@pytest.fixture(scope="module")
def small_sweep(small_config):
    return sweep(small_config)


class TestFitRate:
    def test_linear_scaling(self):
        nus = [1e-2, 1e-3, 1e-4]
        slope, intercept, rms = fit_rate(nus, nus)
        assert slope == pytest.approx(1.0)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_square_root_scaling(self):
        nus = np.array([1e-2, 1e-3, 1e-4])
        slope, _, rms = fit_rate(nus, np.sqrt(nus))
        assert slope == pytest.approx(0.5)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_point_matches_normal_equations(self):
        nus = np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
        errs = 2.0 * nus
        errs[2] *= 1.01
        slope, intercept, rms = fit_rate(nus, errs)
        # longhand normal equations as the independent oracle
        lx, ly = np.log(nus), np.log(errs)
        n = len(lx)
        s_oracle = (n * np.sum(lx * ly) - np.sum(lx) * np.sum(ly)) / (
            n * np.sum(lx**2) - np.sum(lx) ** 2)
        assert slope == pytest.approx(s_oracle, rel=1e-12)
        assert abs(slope - 1.0) < 0.02

    def test_rejects_nonpositive_errors(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([1e-2, 1e-3, 1e-4], [1.0, 0.0, 1.0])

    def test_rejects_nan_errors(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([1e-2, 1e-3, 1e-4], [1.0, float("nan"), 1e-2])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_rate([1e-2, 1e-3], [1.0, 0.1])


def assert_guard_runs_iff_fit(report):
    """The guard runs exactly when the rate fit does."""
    assert (report.guard is None) == (report.fit_skipped_reason is not None)


class TestRunPair:
    """A pair is the lockstep group of one resistive member and the reference."""

    def test_zero_resistivity_pair_is_identical(self, small_config):
        (errors,), _ = run_group([0.0], small_config)
        assert errors.e_sup == 0.0
        assert errors.e_diss == 0.0
        assert errors.e_total == 0.0
        assert errors.aux == 0.0

    def test_zero_horizon(self):
        config = parse_config({"grid": {"half_width": 20.0, "n_cells": 256},
                               "scheme": {"t_end": 0.0}})
        (errors,), (record,) = run_group([1e-3], config)
        assert errors.e_total == 0.0
        assert len(record.rows) == 1

    def test_errors_positive_and_record_sound(self, small_config):
        (errors,), (record,) = run_group([1e-3], small_config)
        assert errors.e_sup > 0
        assert errors.e_total >= errors.e_sup
        record.validate()

    def test_functionals_difference_the_viscous_velocity(self):
        # near vacuum m/max(rho, 1e-12) and the viscous velocity m/max(rho, f)
        # differ; the pair functionals take the velocity the scheme's
        # viscosity acts on, as diss_u and l2_ux do
        config = parse_config({"scenario": {"preset": "interior_vacuum", "a_b": -1.0},
                               "grid": {"n_cells": 64}, "scheme": {"t_end": 0.05}})
        params, dx = config.params, config.grid.dx
        nus = [1e-2, 1e-3]
        reference = replace(params, nu=0.0)
        state = build_initial_state(config.spec, reference, config.grid)
        members = [(state.copy(), replace(params, nu=nu)) for nu in nus] + [(state, reference)]
        expected = [PairErrors(nu=nu) for nu in nus]
        previous = [(0.0, 0.0) for _ in nus]

        def l2sq(values):
            return float((values**2).sum() * dx)

        def observe(states, dt):
            ref = states[-1]
            ref_u = viscous_velocity(ref.mom, ref.rho, params.rho_bar)
            for i, (s, e) in enumerate(zip(states, expected)):
                du = viscous_velocity(s.mom, s.rho, params.rho_bar) - ref_u
                d_rho, d_u, d_b = l2sq(s.rho - ref.rho), l2sq(du), l2sq(s.b - ref.b)
                e.e_sup_rho = max(e.e_sup_rho, d_rho)
                e.e_sup_u = max(e.e_sup_u, d_u)
                e.e_sup_b = max(e.e_sup_b, d_b)
                e.e_sup = max(e.e_sup, d_rho + d_u + d_b)
                g = params.mu * l2sq(derivative(du, dx))
                h = e.nu**2 * l2sq(derivative(s.b, dx))
                e.e_diss += 0.5 * dt * (previous[i][0] + g)
                e.aux += 0.5 * dt * (previous[i][1] + h)
                previous[i] = (g, h)

        solver.run_lockstep(members, config.scheme, config.grid, observe=observe, recorded=0)
        for e in expected:
            e.e_total = e.e_sup + e.e_diss
        entries, _ = run_group(nus, config, recorded=False)
        assert [repr(e.as_dict()) for e in entries] == [repr(e.as_dict()) for e in expected]


class TestSweep:
    def test_error_monotone_in_nu(self, small_sweep):
        totals = [e.e_total for e in small_sweep.report.entries]
        assert totals == sorted(totals, reverse=True)

    def test_rate_is_at_least_linear_order(self, small_sweep):
        r = small_sweep.report
        assert r.slope is not None and r.slope >= 0.75
        assert r.slope_aux >= 0.8
        assert r.slope_u >= 0.75

    def test_superlinear_is_flagged_not_fatal(self, small_sweep):
        r = small_sweep.report
        if r.slope > 1.25:
            assert r.superlinear_flagged

    def test_unsquared_differences_decrease(self, small_sweep):
        # strong convergence: every per-field L2 distance shrinks with nu
        for component in ("e_sup_rho", "e_sup_u", "e_sup_b"):
            sups = [np.sqrt(getattr(e, component)) for e in small_sweep.report.entries]
            assert sups == sorted(sups, reverse=True)
            assert sups[-1] < sups[0]

    def test_guard_passes_on_small_config(self, small_sweep):
        g = small_sweep.report.guard
        assert g.passed and g.ratio >= 10.0
        assert_guard_runs_iff_fit(small_sweep.report)

    def test_guard_matches_the_recorded_doubled_pair(self, small_sweep, small_config):
        # the guard runs its pair unrecorded; it measures what the recorded pair measures
        g = small_sweep.report.guard
        grid = Grid1D(small_config.grid.half_width, 2 * small_config.grid.n_cells)
        t = RunTelemetry()
        (errors,), (record,) = run_group([min(small_config.nu_list)],
                                         replace(small_config, grid=grid), telemetry=t)
        assert g.proxy == abs(g.signal - errors.e_total)
        u = g.telemetry
        for name in ("steps", "dt_advective", "dt_sample_landing", "diffusion_stages",
                     "resistive_stages", "clips"):
            assert getattr(u, name) == getattr(t, name), name
        assert u.rhs_evals == t.rhs_evals - len(record.rows) == 4 * u.steps

    def test_records_returned_per_nu(self, small_sweep):
        assert [nu for nu, _ in small_sweep.records] == [1e-2, 1e-3, 1e-4]

    def test_report_json_round_trip(self, small_sweep):
        text = small_sweep.report.to_json()
        back = ConvergenceReport.from_json(text)
        assert back.to_json() == text

    def test_failed_guard_round_trips(self, small_sweep):
        pair = PairErrors(nu=1e-4, failed="BoundaryMonitorError: tripped")
        failed = _guard_result(1e-3, ([pair], [], RunTelemetry()))
        report = replace(small_sweep.report, guard=failed)
        text = report.to_json()
        back = ConvergenceReport.from_json(text)
        assert back.guard == failed and back.to_json() == text
        # ratio 0, not the null of an exactly-zero proxy, whose ratio is infinite
        assert json.loads(text)["guard"]["ratio"] == 0.0 and not back.guard.passed
        assert GuardResult(signal=1e-3).as_dict()["ratio"] is None
        # a guard that did not fail reports no "failed" key
        assert set(GuardResult().as_dict()) == {"proxy", "signal", "ratio", "passed"}

    def test_non_finite_proxy_fails_the_guard(self, small_sweep):
        # |signal - nan| is nan, which neither passes nor may reach the JSON
        pair = PairErrors(nu=1e-4, e_total=float("nan"))
        guard = _guard_result(1e-3, ([pair], [], RunTelemetry()))
        assert not guard.passed and guard.ratio == 0.0 and guard.proxy == 0.0
        assert guard.failed.startswith("non-finite proxy")
        text = replace(small_sweep.report, guard=guard).to_json()
        assert json.loads(text, parse_constant=pytest.fail)["guard"]["failed"] == guard.failed
        # a finite proxy keeps its value
        assert _guard_result(1e-3, ([PairErrors(nu=1e-4, e_total=9e-4)], [], RunTelemetry())
                             ).proxy == abs(1e-3 - 9e-4)

    def test_nan_entry_skips_the_fit(self, small_config, monkeypatch):
        group = run_group

        def poisoned(nus, config, *args):
            errors, records = group(nus, config, *args)
            errors[1].e_total = float("nan")
            return errors, records

        monkeypatch.setattr(limit_study, "run_group", poisoned)
        report = sweep(small_config).report
        assert report.degenerate and report.slope is None and report.guard is None

    def test_degenerate_sweep_flagged(self):
        config = parse_config({"scenario": {"a_rho": 0.0, "a_u": 0.0, "a_b": 0.0},
                               "scheme": {"t_end": 0.05, "n_samples": 2},
                               "grid": {"half_width": 20.0, "n_cells": 256},
                               "nu_list": [1e-2, 1e-3, 1e-4]})
        result = sweep(config)
        assert result.report.degenerate
        assert result.report.slope is None
        assert result.report.fit_skipped_reason is not None
        assert_guard_runs_iff_fit(result.report)

    def test_single_nu_skips_fit(self, small_config):
        result = sweep(replace(small_config, nu_list=(1e-3,)))
        assert result.report.slope is None
        assert "fewer than 3" in result.report.fit_skipped_reason
        assert_guard_runs_iff_fit(result.report)
        text = result.report.to_json()
        assert json.loads(text)["guard"] is None
        assert ConvergenceReport.from_json(text) == result.report

    def test_narrow_span_skips_fit(self, small_config):
        result = sweep(replace(small_config, nu_list=(1e-2, 5e-3, 2e-3)))
        assert "two decades" in result.report.fit_skipped_reason
        assert_guard_runs_iff_fit(result.report)

    @pytest.mark.parametrize("nus", [(1e-2, 1e-3, 1e-4, 0.0), (1e-2, -1e-3, 1e-4)])
    def test_rejects_resistivities_that_are_not_positive(self, small_config, nus):
        # nu = 0 is the reference every group runs; as a member its error is 0
        # RunConfig holds the rule, so no sweep is ever handed such a list
        with pytest.raises(ValueError, match="positive"):
            replace(small_config, nu_list=nus)

    def test_rejects_duplicate_nus(self, small_config):
        with pytest.raises(ValueError, match="distinct"):
            replace(small_config, nu_list=(1e-2, 1e-2, 1e-3))

    def test_deterministic(self, small_config, small_sweep):
        again = sweep(small_config)
        assert again.report.to_json() == small_sweep.report.to_json()
        for (nu1, r1), (nu2, r2) in zip(again.records, small_sweep.records):
            assert nu1 == nu2 and r1.to_csv() == r2.to_csv()

    def test_parallel_matches_serial(self, small_config, small_sweep):
        parallel = sweep(replace(small_config, jobs=2))
        assert parallel.report.to_json() == small_sweep.report.to_json()
        assert ([(nu, r.to_csv()) for nu, r in parallel.records]
                == [(nu, r.to_csv()) for nu, r in small_sweep.records])

    def test_failed_pairs_are_marked(self):
        # perturbation reaches the edge of a deliberately small domain
        config = parse_config({"scenario": {"sigma": 1.0},
                               "scheme": {"t_end": 2.0, "n_samples": 4},
                               "grid": {"half_width": 5.0, "n_cells": 128},
                               "nu_list": [1e-2, 1e-3, 1e-4]})
        result = sweep(config)
        assert all(e.failed is not None for e in result.report.entries)
        assert "BoundaryMonitorError" in result.report.entries[0].failed
        assert result.report.fit_skipped_reason is not None
        assert result.records == []
        assert_guard_runs_iff_fit(result.report)


def _tripping_check_boundary(monkeypatch, nu_to_fail):
    """Make the boundary monitor trip for the members with resistivity ``nu_to_fail``."""
    check_boundary = solver.check_boundary

    def tripping(state, params):
        if params.nu == nu_to_fail and state.t > 0.05:
            raise BoundaryMonitorError(time=state.t, deviation=1.0)
        return check_boundary(state, params)

    monkeypatch.setattr(solver, "check_boundary", tripping)


class TestGroupFailures:
    def test_failed_member_is_dropped_and_the_group_rerun(self, small_config, monkeypatch):
        _tripping_check_boundary(monkeypatch, 1e-3)
        result = sweep(small_config)
        assert_guard_runs_iff_fit(result.report)
        entries = result.report.entries
        assert [e.nu for e in entries if e.failed] == [1e-3]
        assert entries[1].failed.startswith("BoundaryMonitorError: boundary validity monitor")
        # the survivors' numbers are those of a sweep that never had the failed member
        alone = sweep(replace(small_config, nu_list=(1e-2, 1e-4)))
        assert_guard_runs_iff_fit(alone.report)
        assert [entries[0], entries[2]] == alone.report.entries
        assert ([(nu, r.to_csv()) for nu, r in result.records]
                == [(nu, r.to_csv()) for nu, r in alone.records])
        # the aborted attempt counts: its steps up to the failure, then the re-run's
        aborted = RunTelemetry()
        with pytest.raises(BoundaryMonitorError):
            run_group(small_config.nu_list, small_config, telemetry=aborted)
        assert 0 < aborted.steps < alone.telemetry.steps
        assert result.telemetry.steps == aborted.steps + alone.telemetry.steps

    def test_failed_reference_fails_every_nu(self, small_config, monkeypatch):
        _tripping_check_boundary(monkeypatch, 0.0)
        result = sweep(small_config)
        messages = {e.failed for e in result.report.entries}
        assert len(messages) == 1 and None not in messages
        assert result.records == []
        assert result.report.fit_skipped_reason is not None
        assert_guard_runs_iff_fit(result.report)

import contextlib
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mhd1d
from mhd1d import battery, cli, solver
from mhd1d.battery import CHECKS, Outcome
from mhd1d.cli import main
from mhd1d.config import DEFAULTS, load_config, parse_config
from mhd1d.core import Grid1D, PhysParams
from mhd1d.diagnostics import DiagnosticsRecord
from mhd1d.errors import BoundaryMonitorError, ConfigError, NumericalError
from mhd1d.scenario import ScenarioSpec
from mhd1d.solver import SchemeConfig, load_checkpoint, run


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SMALL = {
    "grid": {"half_width": 20.0, "n_cells": 256},
    "scheme": {"t_end": 0.1, "n_samples": 5},
    "nu_list": [1e-2, 1e-3, 1e-4],
}

# a narrow bump on a short domain reaches the edge nodes well before T
BOUNDARY_TRIP = {
    "grid": {"half_width": 5.0, "n_cells": 128},
    "scenario": {"sigma": 1.0},
    "scheme": {"t_end": 2.0, "n_samples": 4},
}

CONSTANT = {
    "grid": {"half_width": 20.0, "n_cells": 256},
    "scenario": {"a_rho": 0.0, "a_u": 0.0, "a_b": 0.0},
    "scheme": {"t_end": 0.1, "n_samples": 5},
}


class TestConfig:
    def test_empty_config_gets_defaults(self):
        c = parse_config({})
        assert c.grid == Grid1D()
        assert c.grid.n_cells == DEFAULTS["grid"]["n_cells"]
        assert c.params.gamma == DEFAULTS["physics"]["gamma"]
        assert c.scheme.reconstruction == "muscl_minmod"
        assert list(c.nu_list) == DEFAULTS["nu_list"]

    def test_round_trip(self):
        c = parse_config({"physics": {"gamma": 2.0}, "grid": {"n_cells": 512}})
        again = parse_config(json.loads(json.dumps(c.as_dict())))
        assert again == c
        assert again.fingerprint() == c.fingerprint()

    def test_gamma_violation_cited(self):
        with pytest.raises(ConfigError, match="gamma > 1"):
            parse_config({"physics": {"gamma": 1.0}})

    def test_all_violations_listed(self):
        try:
            parse_config({"physics": {"gamma": 0.9, "mu": -1.0},
                          "scheme": {"reconstruction": "weno"},
                          "grid": {"n_cells": 2},
                          "mode": "nope",
                          "turbo": True})
        except ConfigError as exc:
            text = str(exc)
            for fragment in ("gamma", "mu", "reconstruction", "n_cells", "mode", "turbo"):
                assert fragment in text
        else:
            pytest.fail("expected ConfigError")

    def test_scenario_violations_listed_beside_physics_ones(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"physics": {"mu": -1}, "scenario": {"sigma": -1, "preset": "square"}})
        assert info.value.violations == [
            "physics: mu > 0 required, got -1",
            "scenario: unknown preset 'square', "
            "expected one of ('gaussian_bump', 'interior_vacuum')",
            "scenario: sigma > 0 required, got -1",
        ]

    def test_value_holding_the_separator_is_one_problem(self):
        # each problem travels on its own, so no user string is split apart
        with pytest.raises(ConfigError) as info:
            parse_config({"scenario": {"preset": "gauss; ian"}})
        assert info.value.violations == [
            "scenario: unknown preset 'gauss; ian', "
            "expected one of ('gaussian_bump', 'interior_vacuum')",
        ]

    def test_cross_checks_at_load_time(self):
        with pytest.raises(ConfigError, match="half_width"):
            parse_config({"grid": {"half_width": 5.0}, "scenario": {"sigma": 2.0}})
        with pytest.raises(ConfigError, match="a_rho"):
            parse_config({"scenario": {"a_rho": -1.0}})

    # a Python caller meets the rules and messages a configuration file does; a
    # fractional n_cells once built 101 nodes spanning 40.2, and a bool mu ran as 1
    @pytest.mark.parametrize("section, kwargs, line", [
        ("grid", {"n_cells": 100.5}, "grid: n_cells must be an integer, got 100.5"),
        ("grid", {"half_width": True}, "grid: half_width must be a number, got True"),
        ("physics", {"mu": True}, "physics: mu must be a number, got True"),
        ("physics", {"mu": "0.1"}, "physics: mu must be a number, got '0.1'"),
        ("scheme", {"n_samples": 2.5}, "scheme: n_samples must be an integer, got 2.5"),
        ("scenario", {"preset": 5}, "scenario: preset must be a string, got 5"),
        (None, {"jobs": "2"}, "jobs: expected a positive integer, got '2'"),
        (None, {"jobs": 0}, "jobs: expected a positive integer, got 0"),
        (None, {"nu_list": (1e-2, 1e-2)}, "nu_list: values must be distinct"),
        (None, {"nu_list": (float("nan"),)}, "nu_list[0]: must be a finite number, got nan"),
    ], ids=["n_cells-float", "half_width-bool", "mu-bool", "mu-str", "n_samples-float",
            "preset-int", "jobs-str", "jobs-zero", "nu_list-duplicate", "nu_list-nan"])
    def test_code_and_file_share_one_validation_path(self, section, kwargs, line):
        with pytest.raises(ConfigError) as file_error:
            parse_config({section: kwargs} if section else kwargs)
        assert file_error.value.violations == [line]
        sections = {"grid": Grid1D, "physics": PhysParams, "scheme": SchemeConfig,
                    "scenario": ScenarioSpec}
        with pytest.raises(ValueError) as code_error:
            if section:
                sections[section](**kwargs)
            else:
                replace(parse_config({}), **kwargs)
        prefix = f"{section}: " if section else ""
        assert [prefix + p for p in code_error.value.args] == [line]

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": ')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    def test_fingerprint_is_stable_and_canonical(self):
        c1 = parse_config({"grid": {"n_cells": 512, "half_width": 20.0}})
        c2 = parse_config({"grid": {"half_width": 20.0, "n_cells": 512}})
        assert c1.fingerprint() == c2.fingerprint()
        # pinned: the canonical form of the defaults and of the benchmark's
        # seed-0 sweep configuration must not drift
        defaults = "a97a033fe0dc98580c69645da84f43c37f9076fb3439293e97e351824fd552e3"
        assert parse_config({}).fingerprint() == defaults
        # jobs sets no number, and the sweep runs nu_list in descending order
        shuffled = {"jobs": 2, "nu_list": [1e-4, 1e-2, 3e-4, 3e-3, 1e-3]}
        assert parse_config(shuffled).fingerprint() == defaults
        sweep_seed0 = {
            "physics": {"mu": 0.1, "nu": 1e-3},
            "scenario": {"preset": "gaussian_bump", "a_rho": 0.2, "a_u": 0.2, "a_b": 0.2,
                         "sigma": 2.0},
            "grid": {"half_width": 20.0, "n_cells": 2048},
            "scheme": {"t_end": 1.0},
            "nu_list": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
            "jobs": 1,
        }
        assert parse_config(sweep_seed0).fingerprint() == defaults

    def test_readme_example_lists_every_field(self):
        # the JSON example under README's "Configuration" heading holds the
        # sections and keys of DEFAULTS, no more and no fewer, at their defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n### Configuration\n", 1)[1]
        example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        assert example.keys() == DEFAULTS.keys()
        for name, default in DEFAULTS.items():
            if isinstance(default, dict):
                assert example[name].keys() == default.keys(), name
        assert parse_config(example) == parse_config({})


def _unreadable(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "absent.json", "No such file or directory"
    if kind == "directory":
        return tmp_path, "Is a directory"
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"scenario": {"preset": "\xe9t\xe9"}}')
    return path, "not UTF-8 text"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_is_a_config_error(command, kind, tmp_path, capsys):
    path, reason = _unreadable(tmp_path, kind)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "invalid configuration:"
    assert err[1].startswith(f"  - cannot read {path}: ") and reason in err[1]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_mode_is_an_unknown_field(command, tmp_path, capsys):
    # the non-resistive system is spelled "physics": {"nu": 0}, and only so
    cfg = write_config(tmp_path, {"mode": "non_resistive"})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert "  - mode: unknown field" in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("section, field, value", [
    ("scheme", "time_integrator", "ssp_rk2"), ("scheme", "diffusion_number", 0.4),
    ("scheme", "cfl_number", 0.45), ("physics", "alpha", 2.0), ("physics", "rho_bar", 1.0),
], ids=["time_integrator", "diffusion_number", "cfl_number", "alpha", "rho_bar"])
def test_removed_field_is_unknown(section, field, value, command, tmp_path, capsys):
    # the hyperbolic step is SSPRK2 alone, its CFL number and the RKL2 safety
    # factor are solver.CFL_NUMBER and solver.DIFFUSION_NUMBER, the
    # spreading weight's exponent is diagnostics.SPREADING_ALPHA and the
    # far-field density is the unit of density, core.RHO_BAR, so no setting
    # chooses any of them
    cfg = write_config(tmp_path, {section: {field: value}})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert f"  - {section}.{field}: unknown field" in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_output_dir_is_an_unknown_field(command, tmp_path, capsys):
    # the output directory is spelled --output-dir, and only so
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "o")})
    assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "p")]) == 2
    assert "  - output_dir: unknown field" in capsys.readouterr().err.splitlines()
    assert not (tmp_path / "o").exists() and not (tmp_path / "p").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("below, reason", [("", "File exists"), ("sub", "Not a directory")],
                         ids=["file", "below-file"])
def test_output_dir_that_cannot_be_made_fails_before_integration(
        command, below, reason, tmp_path, monkeypatch, capsys):
    for name in ("run", "sweep"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("integration ran"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    cfg = write_config(tmp_path, SMALL)
    assert main([command, "--config", cfg, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid configuration:", f"  - cannot create output directory {out}: {reason}"]


class TestSimulateCommand:
    def test_constant_state_run(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANT)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        record = DiagnosticsRecord.from_csv((out / "diagnostics.csv").read_text())
        assert np.all(record.column("l2_rho_pert") == 0.0)
        assert np.all(record.column("l2_ux") == 0.0)
        state, grid = load_checkpoint((out / "state_final.txt").read_text())
        assert np.all(state.rho == 1.0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["boundary_monitor"] == "ok"
        assert manifest["clip_count"] == 0

    def test_zero_horizon_single_row(self, tmp_path):
        payload = dict(CONSTANT)
        payload["scheme"] = {"t_end": 0.0}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        lines = (out / "diagnostics.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one sample

    def test_boundary_trip_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, BOUNDARY_TRIP)
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 4

    def test_boundary_abort_leaves_manifest_and_partial_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path, BOUNDARY_TRIP)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "aborted"
        assert manifest["boundary_monitor"] == "tripped"
        error = manifest["error"]
        assert error["kind"] == "BoundaryMonitorError"
        assert 0.0 < error["t"] < BOUNDARY_TRIP["scheme"]["t_end"]
        assert error["deviation"] > 1e-6
        assert manifest["outputs"] == ["diagnostics.csv"]
        assert not (out / "state_final.txt").exists()
        record = DiagnosticsRecord.from_csv((out / "diagnostics.csv").read_text())
        record.validate()
        assert 1 <= len(record.rows) <= BOUNDARY_TRIP["scheme"]["n_samples"]
        assert record.column("t")[-1] <= error["t"]
        telemetry = manifest["telemetry"]
        assert telemetry["steps"] > 0
        assert telemetry["peak_boundary_deviation"] <= 1e-6 < error["deviation"]
        assert set(manifest["wall_s"]) == {"integrate", "write"}
        assert set(manifest["initial_data"]) == {"weighted_moment", "compat_g_l2",
                                                 "compat_flagged_nodes"}

    def test_numerical_abort_leaves_manifest(self, tmp_path, monkeypatch):
        def failing_run(*args, **kwargs):
            raise NumericalError("non-finite tendency", node=7, time=0.25)

        monkeypatch.setattr(mhd1d.cli, "run", failing_run)
        cfg = write_config(tmp_path, CONSTANT)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "aborted"
        assert manifest["boundary_monitor"] == "ok"
        assert manifest["error"] == {"kind": "NumericalError", "t": 0.25, "node": 7}
        assert manifest["outputs"] == []

    def test_abort_message_names_the_density_clips(self, tmp_path, monkeypatch, capsys):
        # clips before an abort are the only sign of its cause when the
        # hyperbolic step outran its bound near vacuum
        def clipping_run(spec, params, scheme, grid, telemetry):
            telemetry.clips += 6
            raise BoundaryMonitorError(time=0.426121, deviation=2e-6)

        monkeypatch.setattr(mhd1d.cli, "run", clipping_run)
        cfg = write_config(tmp_path, CONSTANT)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 4
        assert capsys.readouterr().err == (
            "aborted: boundary validity monitor tripped at t=0.426121 (edge deviation "
            "2.000e-06 > 1e-06), after 6 density clips\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["clip_count"]) == ("aborted", 6)

    def test_manifest_carries_run_telemetry(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        t = manifest["telemetry"]
        n_samples = SMALL["scheme"]["n_samples"]
        assert t["steps"] == t["dt_advective"] + t["dt_sample_landing"]
        assert t["dt_sample_landing"] == n_samples
        assert t["diffusion_stages"] >= 2 * 2 * t["steps"]  # two half-steps of >= 2 stages
        assert t["resistive_stages"] >= 2 * 2 * t["steps"]  # the b block's, at nu > 0
        assert t["rhs_evals"] == solver.RHS_PER_STEP * t["steps"] + n_samples + 1  # one member
        assert 0.0 <= t["peak_boundary_deviation"] <= 1e-6
        assert all(v >= 0 for v in manifest["wall_s"].values())

    # the vacuum run's grid: its nodes next to x = 0 fall below RHO_COMPAT
    @pytest.mark.parametrize("scenario, flagged", [
        ({}, False),
        ({"preset": "interior_vacuum", "a_b": -1.0}, True),
    ], ids=["gaussian_bump", "interior_vacuum"])
    def test_manifest_records_initial_data_hypotheses(self, scenario, flagged, tmp_path):
        payload = {"grid": {"half_width": 20.0, "n_cells": 1024}, "scenario": scenario,
                   "scheme": {"t_end": 0.01, "n_samples": 1}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--output-dir", str(out)]) == 0
        data = json.loads((out / "manifest.json").read_text())["initial_data"]
        assert np.isfinite(data["weighted_moment"]) and data["weighted_moment"] > 0
        assert np.isfinite(data["compat_g_l2"])
        assert (data["compat_flagged_nodes"] > 0) == flagged

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"physics": {"gamma": 0.5}})
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "a_rho", "x"),
        ("scenario", "a_u", "x"),
        ("physics", "b_bar", "x"),
        ("physics", "mu", True),
    ])
    def test_non_numeric_field_is_a_config_error(self, section, key, value, tmp_path, capsys):
        cfg = write_config(tmp_path, {section: {key: value}, "grid": {"n_cells": 7}})
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        # reported beside the other violations
        assert f"  - {section}: {key} must be a number, got {value!r}" in err.splitlines()
        assert "  - grid: n_cells must be at least 8, got 7" in err.splitlines()
        assert not (tmp_path / "o").exists()

    # json.loads reads NaN and Infinity; a NaN t_end is never reached, so the
    # run would spin to the step limit, and a bool nu would run as nu = 1
    @pytest.mark.parametrize("payload, line", [
        ({"scheme": {"t_end": float("nan")}}, "scheme: t_end must be a finite number, got nan"),
        ({"scheme": {"t_end": float("inf")}}, "scheme: t_end must be a finite number, got inf"),
        ({"grid": {"half_width": float("inf")}},
         "grid: half_width must be a finite number, got inf"),
        ({"physics": {"mu": float("inf")}}, "physics: mu must be a finite number, got inf"),
        ({"physics": {"b_bar": float("nan")}}, "physics: b_bar must be a finite number, got nan"),
        ({"scenario": {"a_u": float("nan")}}, "scenario: a_u must be a finite number, got nan"),
        ({"nu_list": [float("nan"), 0.01, 0.001]}, "nu_list[0]: must be a finite number, got nan"),
        ({"nu_list": [True, 0.01, 0.001]}, "nu_list[0]: must be a number, got True"),
        ({"nu_list": [[1], 0.01, 0.001]}, "nu_list[0]: must be a number, got [1]"),
        ({"nu_list": [1e-2, 1e-3, 1e-4, 0]}, "nu_list[3]: must be positive, got 0"),
        ({"nu_list": [1e-2, -1e-3, 1e-4]}, "nu_list[1]: must be positive, got -0.001"),
        ({"jobs": True}, "jobs: expected a positive integer, got True"),
        ({"jobs": 0}, "jobs: expected a positive integer, got 0"),
    ], ids=["t_end-nan", "t_end-inf", "half_width-inf", "mu-inf", "b_bar-nan", "a_u-nan",
            "nu_list-nan", "nu_list-bool", "nu_list-list", "nu_list-zero", "nu_list-negative",
            "jobs-bool", "jobs-zero"])
    def test_non_finite_or_boolean_number_is_a_config_error(self, payload, line, tmp_path, capsys):
        payload = {**payload, "grid": {**payload.get("grid", {}), "n_cells": 7}}
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert f"  - {line}" in err
        assert "  - grid: n_cells must be at least 8, got 7" in err
        assert not (tmp_path / "o").exists()

    def test_manifest_fingerprint_matches_config(self, tmp_path):
        cfg = write_config(tmp_path, CONSTANT)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--output-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        reloaded = parse_config(json.loads(manifest["config_canonical"]))
        assert reloaded.fingerprint() == manifest["config_fingerprint"]
        # with jobs, which the canonical form leaves out, the manifest holds the whole config
        assert replace(reloaded, jobs=manifest["jobs"]) == load_config(cfg)


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "swp"
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["slope"] is not None
        assert report["guard"]["passed"]
        for nu in SMALL["nu_list"]:
            assert (out / f"diag_nu_{nu:g}.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        pairs, guard = manifest["telemetry"]["pairs"], manifest["telemetry"]["guard"]
        n_samples = SMALL["scheme"]["n_samples"]
        # one group: k resistive members and the shared reference, two stages
        # each, plus one sample evaluation per record row of each resistive member
        k = len(SMALL["nu_list"])
        assert pairs["rhs_evals"] == 2 * (k + 1) * pairs["steps"] + k * (n_samples + 1)
        assert pairs["dt_sample_landing"] == n_samples
        # the guard pair runs unrecorded: two members, two stages each, no samples
        assert guard["rhs_evals"] == 4 * guard["steps"]
        assert guard["dt_sample_landing"] == n_samples
        assert guard["steps"] > pairs["steps"]  # doubled grid
        assert pairs["clips"] == guard["clips"] == manifest["clip_count"] == 0
        assert (manifest["status"], manifest["boundary_monitor"]) == ("ok", "ok")
        assert "failures" not in manifest
        wall = manifest["wall_s"]
        assert set(wall) == {"integrate", "group", "guard", "write"}
        assert 0 < wall["group"] + wall["guard"] <= wall["integrate"]
        # the hypotheses of the configured data on the sweep grid, as simulate records them
        assert main(["simulate", "--config", cfg, "--output-dir", str(tmp_path / "sim")]) == 0
        simulated = json.loads((tmp_path / "sim" / "manifest.json").read_text())
        assert manifest["initial_data"] == simulated["initial_data"]
        assert manifest["initial_data"]["compat_flagged_nodes"] == 0

    def test_manifest_counts_each_density_clip_once(self, tmp_path, monkeypatch):
        # criterion 10's configuration, cut to one short sample interval
        config = {"grid": {"half_width": 20.0, "n_cells": 256},
                  "scheme": {"t_end": 1e-3, "n_samples": 1},
                  "nu_list": [1e-2, 1e-3, 1e-4]}
        mid = config["grid"]["n_cells"] // 2
        plain_rhs = solver.rhs

        def clipping_rhs(state, params, scheme, grid):
            out = plain_rhs(state, params, scheme, grid)
            if params.nu == 0.0 and state.t == 0.0:
                out.d_rho[mid] = -1e6  # first stage of the nu = 0 member only
            return out

        monkeypatch.setattr(solver, "rhs", clipping_rhs)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "swp"
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        pairs, guard = manifest["telemetry"]["pairs"], manifest["telemetry"]["guard"]
        assert pairs["clips"] > 0 and guard["clips"] > 0
        assert manifest["clip_count"] == pairs["clips"] + guard["clips"]
        # only the unrecorded reference clipped, so no record counts a clip
        for nu in config["nu_list"]:
            record = DiagnosticsRecord.from_csv((out / f"diag_nu_{nu:g}.csv").read_text())
            assert record.final("clip_count") == 0

    def test_failed_guard_keeps_the_group(self, tmp_path, monkeypatch, capsys):
        # criterion 10's configuration; the monitor trips on the doubled guard grid alone
        config = {"grid": {"half_width": 20.0, "n_cells": 256},
                  "scheme": {"t_end": 0.2, "n_samples": 10},
                  "nu_list": [1e-2, 1e-3, 1e-4]}
        cfg = write_config(tmp_path, config)
        plain = tmp_path / "plain"
        assert main(["sweep", "--config", cfg, "--output-dir", str(plain)]) == 0
        check_boundary = solver.check_boundary

        def tripping(state, params):
            if len(state.rho) == 512 and state.t > 0.05:
                raise BoundaryMonitorError(time=state.t, deviation=2e-6)
            return check_boundary(state, params)

        monkeypatch.setattr(solver, "check_boundary", tripping)
        capsys.readouterr()
        out = tmp_path / "swp"
        # jobs 1, the default: a spawned guard worker would not see the patch
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert "guard failed: BoundaryMonitorError" in captured.err
        assert "guard_ratio" not in captured.out
        manifest = json.loads((out / "manifest.json").read_text())
        names = [f"diag_nu_{nu:g}.csv" for nu in config["nu_list"]]
        assert manifest["outputs"] == sorted(["report.json", *names])
        assert manifest["telemetry"]["pairs"]["steps"] == 10
        assert manifest["telemetry"]["guard"]["steps"] > 0
        report = json.loads((out / "report.json").read_text())
        assert report["guard"]["passed"] is False
        assert report["guard"]["failed"].startswith("BoundaryMonitorError")
        # the group's numbers are those of the run whose guard passed
        expected = json.loads((plain / "report.json").read_text())
        assert report["entries"] == expected["entries"]
        assert report["slope"] == expected["slope"]
        for name in names:
            assert (out / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("who, trips", [
        ("guard", lambda state, params: len(state.rho) == 512),
        ("nu=0.001", lambda state, params: params.nu == 1e-3),
    ])
    def test_manifest_reports_the_failures(self, who, trips, tmp_path, monkeypatch):
        # criterion 10's configuration; the monitor trips on the doubled guard
        # grid alone, or on one member alone
        config = {"grid": {"half_width": 20.0, "n_cells": 256},
                  "scheme": {"t_end": 0.2, "n_samples": 10},
                  "nu_list": [1e-2, 1e-3, 1e-4]}
        cfg = write_config(tmp_path, config)
        check_boundary = solver.check_boundary

        def tripping(state, params):
            if trips(state, params) and state.t > 0.05:
                raise BoundaryMonitorError(time=state.t, deviation=2e-6)
            return check_boundary(state, params)

        monkeypatch.setattr(solver, "check_boundary", tripping)
        out = tmp_path / "swp"
        # jobs 1, the default: a spawned guard worker would not see the patch
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["boundary_monitor"] == "tripped"
        assert list(manifest["failures"]) == [who]
        assert manifest["failures"][who].startswith("BoundaryMonitorError: ")
        report = json.loads((out / "report.json").read_text())
        if who == "guard":
            assert report["guard"]["ratio"] == 0.0 and report["guard"]["passed"] is False

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--output-dir", str(out1)])
        main(["sweep", "--config", cfg, "--output-dir", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        for nu in SMALL["nu_list"]:
            name = f"diag_nu_{nu:g}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    # outputs are made like any file open() makes: mode 0o666 less the umask
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_output_files_follow_the_umask(self, umask, mode, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        previous = os.umask(umask)
        try:
            for command in ("simulate", "sweep"):
                out = str(tmp_path / command)
                assert main([command, "--config", cfg, "--output-dir", out]) == 0
        finally:
            os.umask(previous)
        for command, count in (("simulate", 3), ("sweep", 2 + len(SMALL["nu_list"]))):
            modes = {f.name: f.stat().st_mode & 0o777 for f in (tmp_path / command).iterdir()}
            assert len(modes) == count and set(modes.values()) == {mode}, modes

    def test_jobs_and_nu_order_change_no_output(self, tmp_path):
        # jobs sets only the wall time, and the sweep runs nu_list in descending order
        variants = {"plain": SMALL, "jobs2": {**SMALL, "jobs": 2},
                    "reversed": {**SMALL, "nu_list": SMALL["nu_list"][::-1]}}
        outputs = {}
        for name, payload in variants.items():
            cfg = write_config(tmp_path, payload, f"{name}.json")
            assert main(["sweep", "--config", cfg, "--output-dir", str(tmp_path / name)]) == 0
            outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                             if p.name != "manifest.json"}
        assert outputs["jobs2"] == outputs["plain"] == outputs["reversed"]
        manifest = json.loads((tmp_path / "jobs2" / "manifest.json").read_text())
        assert manifest["jobs"] == 2
        assert "jobs" not in json.loads(manifest["config_canonical"])
        # the guard's time is the wait for the worker that ran beside the group
        wall = manifest["wall_s"]
        assert 0 <= wall["guard"] and wall["group"] + wall["guard"] <= wall["integrate"]

    def test_single_nu_fit_skipped(self, tmp_path):
        payload = dict(SMALL)
        payload["nu_list"] = [1e-3]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "one"
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["slope"] is None
        assert "fewer than 3" in report["fit_skipped_reason"]
        assert report["guard"] is None  # skipped, not a passing guard
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["telemetry"]["guard"] is None
        assert set(manifest["wall_s"]) == {"integrate", "group", "write"}


class TestVerifyCommand:
    def test_battery_includes_required_checks(self):
        names = [name for name, _ in CHECKS]
        assert "potential_energy_bounds" in names
        assert "flux_identity_contraction" in names

    def test_fresh_build_passes(self, monkeypatch, capsys):
        cells = []

        def counted_run(spec, params, scheme, grid):
            cells.append(grid.n_cells)
            return run(spec, params, scheme, grid)

        monkeypatch.setattr(battery, "run", counted_run)
        assert main(["verify"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("[PASS]") == len(CHECKS)
        assert "[FAIL]" not in printed
        # every check line ends with its wall time
        timed = re.compile(r"^\[PASS\] \w+: .+ \(\d+\.\d\d s\)$")
        assert sum(bool(timed.match(ln)) for ln in printed.splitlines()) == len(CHECKS)
        # mass_conservation and energy_inequality share one standard run
        assert cells.count(battery.VERIFY.standard_cells) == 1

    def test_failed_and_crashed_checks_fail_verify(self, monkeypatch, capsys):
        monkeypatch.setattr(battery, "CHECKS", [
            ("holds", lambda suite: Outcome(True, "the claim holds")),
            ("refuted", lambda suite: Outcome(False, "the claim does not hold")),
            ("crashed", lambda suite: 1 / 0),
        ])
        assert main(["verify"]) == 1
        printed = capsys.readouterr().out.splitlines()
        lines = [re.sub(r" \(\d+\.\d\d s\)$", "", ln) for ln in printed]
        assert lines == ["[PASS] holds: the claim holds",
                         "[FAIL] refuted: the claim does not hold",
                         "[FAIL] crashed: raised ZeroDivisionError: division by zero",
                         "verify: 2 of 3 checks failed"]
        # the summary, like every check line, ends with a wall time: the battery's total
        assert re.fullmatch(r"verify: 2 of 3 checks failed \(\d+\.\d\d s\)", printed[-1])


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's mhd1d."""
    src = str(Path(mhd1d.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's mhd1d;
    return the last line it prints."""
    proc = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
def test_a_command_imports_only_numpy_beyond_the_standard_library(command, tmp_path):
    # numpy is the one runtime dependency; the test extras (mpmath, sympy,
    # hypothesis) are installed here too, so only this check sees a stray import
    argv = [command]
    if command != "verify":
        argv += ["--config", write_config(tmp_path, {**SMALL, "jobs": 1}),
                 "--output-dir", str(tmp_path / "out")]
    code = ("import sys; before = set(sys.modules); from mhd1d.cli import main; "
            f"rc = main({argv!r}); "
            "new = {name.split('.')[0] for name in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names))); sys.exit(rc)")
    assert _fresh_python(code) == "['mhd1d', 'numpy']"


def test_importing_the_cli_leaves_multiprocessing_out():
    # only a sweep with jobs >= 2 starts a worker; nothing else pays for the import
    code = "import sys, mhd1d.cli; print('multiprocessing' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_blas_threads_change_no_output(tmp_path):
    # each RKL2 stage sums its terms in one BLAS dgemv over a 4 x n stack; at
    # 131,072 cells OpenBLAS 0.3.31 splits that product across threads (a
    # second thread speeds it up there, not at 65,536), and the bytes must
    # not depend on how many it uses
    payload = {"physics": {"mu": 0.1, "nu": 1e-3},
               "scenario": {"preset": "interior_vacuum", "a_u": 0.2, "a_b": -1.0, "sigma": 2.0},
               "grid": {"n_cells": 131072}, "scheme": {"t_end": 1e-4, "n_samples": 2}}
    cfg = write_config(tmp_path, payload)
    digests = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        argv = ["simulate", "--config", cfg, "--output-dir", str(out)]
        code = f"import sys; from mhd1d.cli import main; sys.exit(main({argv!r}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**_checkout_env(), "OPENBLAS_NUM_THREADS": str(threads)},
                              timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests[threads] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in ("state_final.txt", "diagnostics.csv")}
    assert digests[2] == digests[1]


UNGUARDED_SWEEP = """\
import sys
from mhd1d.config import parse_config
from mhd1d.limit_study import sweep

raw = {"grid": {"half_width": 20.0, "n_cells": 64}, "scheme": {"t_end": 0.05, "n_samples": 2},
       "nu_list": [1e-2, 1e-3, 1e-4], "jobs": int(sys.argv[2])}
report = sweep(parse_config(raw)).report.to_json()
with open(sys.argv[1], "w") as fh:
    fh.write(report)
"""


def test_a_parallel_sweep_returns_from_a_script_without_a_main_guard(tmp_path):
    # the spawned worker re-runs the script, whose sweep cannot start a process
    # while it bootstraps; the worker dies and the guard runs serially instead
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_SWEEP)
    reports = {}
    for jobs in (1, 2):
        path = tmp_path / f"report_{jobs}.json"
        proc = subprocess.Popen([sys.executable, str(script), str(path), str(jobs)],
                                env=_checkout_env(), cwd=tmp_path, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            assert proc.wait(timeout=120) == 0, f"jobs {jobs}"
        finally:  # the worker and the resource tracker share the script's process group
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reports[jobs] = json.loads(path.read_text())
    assert reports[2]["guard"] is not None
    assert reports[2] == reports[1]


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]
    # diagnostics integrates with np.trapezoid, which numpy has from 2.0 on
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", project["dependencies"][0])
    assert floor is not None and (int(floor[1]), int(floor[2])) >= (2, 0)
    assert any(dep.startswith("sympy") for dep in project["optional-dependencies"]["test"])

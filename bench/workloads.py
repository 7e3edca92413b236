"""Workload definitions: generated CLI inputs and per-workload correctness gates.

Each workload drives the real ``mhd1d`` command line (``mhd1d.cli.main``) with
a configuration generated from the seed and a fresh output directory.  Seed 0
reproduces the acceptance inputs exactly; any other seed jitters the scenario
amplitudes by at most ``JITTER`` (relative), which keeps every gate passing
while making each seed a distinct input.

This module imports only the standard library at import time; the gates
import ``mhd1d`` lazily, so the orchestrator never loads numpy.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

NAMES = ("limit_sweep", "vacuum_run", "verify_battery")
JITTER = 0.02

# Acceptance thresholds (criteria 1, 2 and 9, and the verify battery size).
MIN_SLOPE = 0.75
MIN_SLOPE_U = 0.75
MIN_SLOPE_AUX = 0.8
MIN_GUARD_RATIO = 10.0
VERIFY_CHECKS = 9

# Output files whose SHA-256 is recorded as provenance (not gated).
OUTPUT_PATTERNS = ("diagnostics.csv", "state_final.txt", "report.json", "diag_nu_*.csv")


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def make_config(name: str, seed: int) -> dict | None:
    """The JSON configuration for one workload and seed (None: takes no config)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    rng = random.Random(seed)
    vary = (lambda v: v) if seed == 0 else (lambda v: _jitter(rng, v))
    if name == "limit_sweep":
        return {
            "physics": {"mu": 0.1, "nu": 1e-3},
            "scenario": {"preset": "gaussian_bump", "a_rho": vary(0.2), "a_u": vary(0.2),
                         "a_b": vary(0.2), "sigma": 2.0},
            "grid": {"half_width": 20.0, "n_cells": 2048},
            "scheme": {"t_end": 1.0},
            "nu_list": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
            "jobs": 1,
        }
    if name == "vacuum_run":
        # a_b = -b_bar keeps the field vanishing with the density (criterion 9)
        return {
            "physics": {"mu": 0.1, "nu": 1e-3},
            "scenario": {"preset": "interior_vacuum", "a_u": vary(0.2), "a_b": -1.0,
                         "sigma": 2.0},
            "grid": {"half_width": 20.0, "n_cells": 1024},
            "scheme": {"t_end": 1.0},
            "jobs": 1,
        }
    return None


def cli_argv(name: str, config_path: str | None, outdir: str) -> list[str]:
    if name == "limit_sweep":
        return ["sweep", "--config", config_path, "--output-dir", outdir]
    if name == "vacuum_run":
        return ["simulate", "--config", config_path, "--output-dir", outdir]
    return ["verify"]


def output_files(outdir: Path) -> list[Path]:
    found = set()
    for pattern in OUTPUT_PATTERNS:
        found.update(outdir.glob(pattern))
    return sorted(found)


def _gate_sweep(outdir: Path) -> list[str]:
    report = json.loads((outdir / "report.json").read_text())
    problems = []
    if report["fit_skipped_reason"] is not None:
        problems.append(f"fit skipped: {report['fit_skipped_reason']}")
    for key, floor in (("slope", MIN_SLOPE), ("slope_u", MIN_SLOPE_U),
                       ("slope_aux", MIN_SLOPE_AUX)):
        value = report[key]
        if value is None or not value >= floor:
            problems.append(f"{key}={value} < {floor}")
    guard = report["guard"]
    ratio = math.inf if guard["ratio"] is None else guard["ratio"]  # None: zero proxy
    if not (guard["passed"] and ratio >= MIN_GUARD_RATIO):
        problems.append(f"guard ratio {ratio} < {MIN_GUARD_RATIO}")
    failed = [e["nu"] for e in report["entries"] if e["failed"]]
    if failed:
        problems.append(f"failed pairs at nu={failed}")
    return problems


def _gate_vacuum(outdir: Path, config: dict) -> list[str]:
    import numpy as np
    from mhd1d.diagnostics import DiagnosticsRecord
    from mhd1d.solver import load_checkpoint

    problems = []
    record = DiagnosticsRecord.from_csv((outdir / "diagnostics.csv").read_text())
    try:
        record.validate()
    except ValueError as exc:
        problems.append(f"record.validate: {exc}")
    final, _ = load_checkpoint((outdir / "state_final.txt").read_text())
    t_end = config["scheme"]["t_end"]
    if final.t != t_end:
        problems.append(f"final t={final.t!r} != {t_end}")
    clips = record.final("clip_count")
    manifest = json.loads((outdir / "manifest.json").read_text())
    if clips != 0 or manifest["clip_count"] != 0:
        problems.append(f"{clips:g} density clips")
    if not np.all(final.rho >= 0.0):
        problems.append("negative density in the final state")
    return problems


def _gate_verify(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passed = sum(ln.startswith("[PASS]") for ln in lines)
    failed = [ln for ln in lines if ln.startswith("[FAIL]")]
    problems = [f"verify: {ln}" for ln in failed]
    if passed != VERIFY_CHECKS:
        problems.append(f"{passed} PASS lines, expected {VERIFY_CHECKS}")
    return problems


def gate(name: str, exit_code, stdout: str, outdir: Path, config: dict | None) -> list[str]:
    """Correctness problems of one run; an empty list means the run passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if name == "limit_sweep":
        return _gate_sweep(outdir)
    if name == "vacuum_run":
        return _gate_vacuum(outdir, config)
    return _gate_verify(stdout)

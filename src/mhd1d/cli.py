"""Command-line interface: simulate, sweep, verify.

Exit codes:
    0  success (verify: every check passed)
    1  verify: at least one check failed, or an unexpected error
    2  configuration error (parse or validation)
    3  numerical failure (non-finite state or tendency)
    4  boundary-monitor abort (perturbation reached the domain edge)

Output directory resolution: --output-dir flag, then the MHD1D_OUTPUT_DIR
environment variable, then the configuration's output_dir.
All file writes are whole-file atomic (write to a temp name, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, parse_config
from .core import Grid1D, PhysParams, constant_state, potential_energy
from .diagnostics import (
    DiagnosticsRecord,
    RunTelemetry,
    central_tendencies,
    energy_drift,
    flux_identity_residual,
)
from .errors import BoundaryMonitorError, ConfigError, NumericalError, SimulationError
from .limit_study import SharedConfig, sweep
from .mms import manufactured_solution, observed_orders
from .scenario import ScenarioSpec, build_initial_state
from .solver import SchemeConfig, rhs, run, save_checkpoint

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BOUNDARY = 4

ENV_OUTPUT_DIR = "MHD1D_OUTPUT_DIR"


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(outdir: Path, config: RunConfig, started: str, outputs: list[str],
                    clip_count: int, telemetry: dict, wall_s: dict,
                    error: SimulationError | None = None):
    """Provenance, run telemetry and wall time per phase; on abort, the failure locus.

    Timings live only here, so the other outputs stay byte-reproducible.
    """
    manifest = {
        "tool_version": __version__,
        "config_fingerprint": config.fingerprint(),
        "config_canonical": config.canonical(),
        "started_utc": started,
        "finished_utc": _utcnow(),
        "status": "ok" if error is None else "aborted",
        "clip_count": clip_count,
        "boundary_monitor": "tripped" if isinstance(error, BoundaryMonitorError) else "ok",
        "outputs": sorted(outputs),
        "telemetry": telemetry,
        "wall_s": wall_s,
        "notes": {
            "sampling": "dissipation accumulators advance every step; sampled "
                        "columns are evaluated at the cadence times only"
        },
    }
    if error is not None:
        locus = {"kind": type(error).__name__, "t": error.time}
        if isinstance(error, BoundaryMonitorError):
            locus["deviation"] = error.deviation
        else:
            locus["node"] = error.node
        manifest["error"] = locus
    _atomic_write(outdir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _clip_count(record: DiagnosticsRecord) -> int:
    return int(record.final("clip_count")) if record.rows else 0


def _aborted(exc: SimulationError, outdir: Path, config: RunConfig, started: str,
             csv_name: str, integrate_s: float) -> int:
    """Write the rows gathered before the failure and a manifest with its locus."""
    print(f"aborted: {exc}", file=sys.stderr)
    record = exc.record if exc.record is not None else DiagnosticsRecord()
    start = time.perf_counter()
    outputs = []
    if record.rows:
        _atomic_write(outdir / csv_name, record.to_csv())
        outputs.append(csv_name)
    wall_s = {"integrate": integrate_s, "write": time.perf_counter() - start}
    _write_manifest(outdir, config, started, outputs, _clip_count(record),
                    record.telemetry.as_dict(), wall_s, error=exc)
    return EXIT_BOUNDARY if isinstance(exc, BoundaryMonitorError) else EXIT_NUMERICAL


def _resolve_outdir(args, config: RunConfig) -> Path:
    if args.output_dir:
        return Path(args.output_dir)
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return Path(env)
    return Path(config.output_dir)


def cmd_simulate(args) -> int:
    started = _utcnow()
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    outdir = _resolve_outdir(args, config)
    start = time.perf_counter()
    try:
        final, record = run(config.spec, config.run_params, config.scheme, config.grid)
    except (BoundaryMonitorError, NumericalError) as exc:
        return _aborted(exc, outdir, config, started, "diagnostics.csv",
                        time.perf_counter() - start)
    integrated = time.perf_counter()

    outputs = ["diagnostics.csv", "state_final.txt"]
    _atomic_write(outdir / "diagnostics.csv", record.to_csv())
    _atomic_write(outdir / "state_final.txt", save_checkpoint(final, config.grid))
    wall_s = {"integrate": integrated - start, "write": time.perf_counter() - integrated}
    _write_manifest(outdir, config, started, outputs, _clip_count(record),
                    record.telemetry.as_dict(), wall_s)
    print(f"simulate: T={config.scheme.t_end} done, outputs in {outdir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = _utcnow()
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    outdir = _resolve_outdir(args, config)
    jobs = args.jobs or config.jobs
    shared = SharedConfig(spec=config.spec, scheme=config.scheme, grid=config.grid)
    start = time.perf_counter()
    try:
        result = sweep(config.nu_list, shared, jobs=jobs,
                       config_fingerprint=config.fingerprint())
    except (BoundaryMonitorError, NumericalError) as exc:
        return _aborted(exc, outdir, config, started, "diag_aborted.csv",
                        time.perf_counter() - start)
    integrated = time.perf_counter()

    outputs = ["report.json"]
    for nu, record in result.records:
        name = f"diag_nu_{nu:g}.csv"
        _atomic_write(outdir / name, record.to_csv())
        outputs.append(name)
    _atomic_write(outdir / "report.json", result.report.to_json())
    clip_total = sum(_clip_count(rec) for _, rec in result.records)
    wall_s = {"integrate": integrated - start, "write": time.perf_counter() - integrated}
    guard = result.report.guard.telemetry
    telemetry = {
        "pairs": RunTelemetry.combined(rec.telemetry for _, rec in result.records).as_dict(),
        "guard": guard.as_dict() if guard is not None else None,
    }
    _write_manifest(outdir, config, started, outputs, clip_total, telemetry, wall_s)
    r = result.report
    if r.fit_skipped_reason:
        print(f"sweep: fit skipped ({r.fit_skipped_reason}); outputs in {outdir}")
    else:
        print(f"sweep: slope={r.slope:.3f} guard_ratio={r.guard.ratio:.1f} "
              f"outputs in {outdir}")
    failed = [e for e in r.entries if e.failed]
    if failed:
        for e in failed:
            print(f"  nu={e.nu:g} failed: {e.failed}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification battery


def _check_potential_energy_bounds():
    for gamma in (1.4, 2.0, 3.0):
        for rho_bar in (1.0, 2.0):
            rho = np.linspace(0.0, 2.0 * rho_bar, 2001)
            inner = np.abs(rho - rho_bar) > 1e-9
            phi = potential_energy(rho, gamma, rho_bar)
            ratio = phi[inner] / (rho[inner] - rho_bar) ** 2
            c1, c2 = ratio.min(), ratio.max()
            if not (0 < c1 <= c2 < np.inf):
                return False, f"quadratic envelope failed for gamma={gamma}, rho_bar={rho_bar}"
            rho_hi = np.linspace(2.0 * rho_bar + 1e-6, 10.0 * rho_bar, 2001)
            phi_hi = potential_energy(rho_hi, gamma, rho_bar)
            r1 = (rho_hi**gamma - rho_bar**gamma) / (rho_hi - rho_bar) ** gamma
            r2 = (rho_hi - rho_bar) ** gamma / phi_hi
            if not (np.all(np.isfinite(r1)) and r1.max() > 0 and np.all(np.isfinite(r2)) and r2.max() > 0):
                return False, f"growth envelope failed for gamma={gamma}, rho_bar={rho_bar}"
    return True, "empirical constants finite and positive for 6 (gamma, rho_bar) pairs"


def _check_steady_state():
    params = PhysParams()
    grid = Grid1D(20.0, 512)
    scheme = SchemeConfig()
    out = rhs(constant_state(grid, params), params, scheme, grid)
    sup = max(np.abs(out.d_rho).max(), np.abs(out.d_mom).max(), np.abs(out.d_b).max())
    tol = 1e-13 * max(params.rho_bar, abs(params.b_bar), 1.0)
    return sup < tol, f"tendency sup-norm {sup:.3e} (tolerance {tol:.1e})"


def _check_conservation():
    params = PhysParams()
    grid = Grid1D(20.0, 512)
    spec = ScenarioSpec(params=params)
    scheme = SchemeConfig(t_end=0.5)
    state0 = build_initial_state(spec, grid)
    final, _ = run(spec, params, scheme, grid)
    m0 = np.sum(state0.rho - params.rho_bar) * grid.dx
    m1 = np.sum(final.rho - params.rho_bar) * grid.dx
    budget = 1e-8 * np.sum(np.abs(state0.rho - params.rho_bar)) * grid.dx
    return abs(m1 - m0) <= budget, f"mass defect {abs(m1 - m0):.3e} (budget {budget:.3e})"


def _check_energy_inequality():
    params = PhysParams()
    grid = Grid1D(20.0, 512)
    spec = ScenarioSpec(params=params)
    scheme = SchemeConfig(t_end=0.5)
    _, record = run(spec, params, scheme, grid)
    drift = energy_drift(record)
    return drift <= 1e-3, f"relative drift {drift:.3e} (tolerance 1e-3)"


def _check_mms_orders():
    params = PhysParams()
    orders2 = observed_orders(params, SchemeConfig(t_end=0.4), n_cells=(128, 256))
    orders1 = observed_orders(params, SchemeConfig(t_end=0.4, reconstruction="first_order_upwind"),
                              n_cells=(128, 256))
    ok = all(v >= 1.6 for v in orders2.values()) and all(v >= 0.8 for v in orders1.values())
    detail = ("muscl " + "/".join(f"{orders2[k]:.2f}" for k in ("rho", "u", "b"))
              + ", upwind " + "/".join(f"{orders1[k]:.2f}" for k in ("rho", "u", "b")))
    return ok, detail


def _check_flux_identity():
    params = PhysParams()
    ms = manufactured_solution(params)
    residuals = []
    for n in (512, 1024):
        grid = Grid1D(20.0, n)
        state = ms.initial_state(grid)
        residuals.append(flux_identity_residual(state, central_tendencies(state, params, grid),
                                                params, grid))
    contraction = residuals[0] / residuals[1]
    return contraction >= 3.5, f"two-grid contraction {contraction:.2f} (needs >= 3.5)"


def _check_mode_consistency():
    small = {"grid": {"n_cells": 256}, "scheme": {"t_end": 0.1, "n_samples": 5}}
    runs = []
    for extra in ({"mode": "non_resistive"}, {"physics": {"nu": 0.0}}):
        config = parse_config({**small, **extra})
        runs.append(run(config.spec, config.run_params, config.scheme, config.grid))
    (f1, r1), (f2, r2) = runs
    same = (np.array_equal(f1.rho, f2.rho) and np.array_equal(f1.mom, f2.mom)
            and np.array_equal(f1.b, f2.b) and r1.to_csv() == r2.to_csv())
    return same, "non_resistive config and nu=0 trajectories bit-identical"


def _check_determinism():
    params = PhysParams()
    grid = Grid1D(20.0, 256)
    spec = ScenarioSpec(params=params)
    scheme = SchemeConfig(t_end=0.1, n_samples=5)
    _, r1 = run(spec, params, scheme, grid)
    _, r2 = run(spec, params, scheme, grid)
    return r1.to_csv() == r2.to_csv(), "repeated run produces byte-identical diagnostics"


def _check_vacuum():
    params = PhysParams()
    grid = Grid1D(20.0, 256)
    spec = ScenarioSpec(params=params, preset="interior_vacuum", a_u=0.2,
                        a_b=-params.b_bar, sigma=2.0)
    scheme = SchemeConfig(t_end=0.1, n_samples=5)
    _, record = run(spec, params, scheme, grid)
    record.validate()
    clips = int(record.final("clip_count"))
    return clips == 0, f"interior vacuum short run, {clips} density clips"


CHECKS = [
    ("potential_energy_bounds", _check_potential_energy_bounds),
    ("steady_state_fixed_point", _check_steady_state),
    ("mass_conservation", _check_conservation),
    ("energy_inequality", _check_energy_inequality),
    ("mms_orders", _check_mms_orders),
    ("flux_identity_contraction", _check_flux_identity),
    ("mode_consistency", _check_mode_consistency),
    ("determinism", _check_determinism),
    ("vacuum_robustness", _check_vacuum),
]


def cmd_verify(args) -> int:
    failures = 0
    for name, check in CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.2f} s)")
        failures += 0 if ok else 1
    if failures:
        print(f"verify: {failures} of {len(CHECKS)} checks failed")
        return EXIT_FAILURE
    print(f"verify: all {len(CHECKS)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhd1d",
        description="1D compressible isentropic MHD: simulation, resistivity sweeps, verification.",
        epilog="exit codes: 0 ok, 1 failure, 2 config error, 3 numerical failure, 4 boundary abort",
    )
    parser.add_argument("--version", action="version", version=f"mhd1d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one configuration and write diagnostics")
    p_sim.add_argument("--config", required=True, help="path to a JSON run configuration")
    p_sim.add_argument("--output-dir", default=None, help="override the output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_swp = sub.add_parser("sweep", help="matched resistive/non-resistive runs over nu_list")
    p_swp.add_argument("--config", required=True, help="path to a JSON run configuration")
    p_swp.add_argument("--output-dir", default=None, help="override the output directory")
    p_swp.add_argument("--jobs", type=int, default=None, help="parallel pair processes")
    p_swp.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="run the built-in verification battery")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

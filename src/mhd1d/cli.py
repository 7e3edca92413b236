"""Command-line interface: simulate, sweep, verify.

Exit codes:
    0  success (verify: every check passed)
    1  a verify check, a sweep member or its guard pair failed, or an unexpected error
    2  configuration error (parse or validation), or an output directory that cannot be made
    3  simulate: numerical failure (non-finite state or tendency)
    4  simulate: boundary-monitor abort (perturbation reached the domain edge)

The output directory is --output-dir (default mhd1d_out); it is made right
after the configuration loads, before any integration.
All file writes are whole-file atomic (write to a temp name, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, battery
from .config import RunConfig, load_config
from .diagnostics import DiagnosticsRecord, RunTelemetry, weighted_energy
from .errors import BoundaryMonitorError, ConfigError, NumericalError, SimulationError
from .limit_study import sweep
from .scenario import build_initial_state, compatibility_residual
from .solver import run, save_checkpoint

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BOUNDARY = 4


def _atomic_write(path: Path, text: str):
    """Write ``path`` whole or not at all; its mode is 0o666 less the umask, as ``open``'s
    (``tempfile.mkstemp`` would make it 0o600 whatever the umask)."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(outdir: Path, config: RunConfig, started: str, outputs: list[str],
                    clip_count: int, telemetry: dict, wall_s: dict,
                    error: SimulationError | None = None, failures: dict | None = None):
    """Provenance, run telemetry and wall time per phase; on abort, the failure locus;
    after a sweep, ``failures``: "nu=..." or "guard" -> "<exception type>: <message>".

    ``initial_data`` holds the source paper's hypotheses on the configured
    initial state: its |x|^SPREADING_ALPHA-weighted energy moment, and the L2
    norm of the compatibility residual g with the near-vacuum nodes g skips.
    Timings live only here, so the other outputs stay byte-reproducible.
    """
    failures = failures or {}
    tripped = isinstance(error, BoundaryMonitorError) or any(
        m.startswith(f"{BoundaryMonitorError.__name__}:") for m in failures.values())
    params, grid = config.params, config.grid
    state0 = build_initial_state(config.spec, params, grid)
    compat = compatibility_residual(state0, params, grid)
    manifest = {
        "tool_version": __version__,
        "config_fingerprint": config.fingerprint(),
        "config_canonical": config.canonical(),
        "started_utc": started,
        "finished_utc": _utcnow(),
        "status": "aborted" if error is not None else "failed" if failures else "ok",
        "clip_count": clip_count,
        "initial_data": {"weighted_moment": weighted_energy(state0, params, grid),
                         "compat_g_l2": compat.g_l2, "compat_flagged_nodes": compat.n_flagged},
        "boundary_monitor": "tripped" if tripped else "ok",
        "outputs": sorted(outputs),
        "telemetry": telemetry,
        "jobs": config.jobs,
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
    if failures:
        manifest["failures"] = failures
    _atomic_write(outdir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _load_run(args) -> tuple[RunConfig, Path]:
    """The configuration and the output directory, made before any integration."""
    config = load_config(args.config)
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        problem = f"cannot create output directory {outdir}: {exc.strerror or exc}"
        raise ConfigError([problem]) from exc
    return config, outdir


def cmd_simulate(args) -> int:
    started = _utcnow()
    config, outdir = _load_run(args)
    start = time.perf_counter()
    final = error = None
    telemetry = RunTelemetry()
    try:
        final, record = run(config.spec, config.params, config.scheme, config.grid, telemetry)
    except (BoundaryMonitorError, NumericalError) as exc:
        # an abort still writes its rows and locus; clips before it hint at its real cause
        clips = f", after {telemetry.clips} density clips" if telemetry.clips else ""
        print(f"aborted: {exc}{clips}", file=sys.stderr)
        error, record = exc, exc.record if exc.record is not None else DiagnosticsRecord()
    integrated = time.perf_counter()

    outputs = []
    if record.rows:
        _atomic_write(outdir / "diagnostics.csv", record.to_csv())
        outputs.append("diagnostics.csv")
    if final is not None:
        _atomic_write(outdir / "state_final.txt", save_checkpoint(final, config.grid))
        outputs.append("state_final.txt")
    wall_s = {"integrate": integrated - start, "write": time.perf_counter() - integrated}
    _write_manifest(outdir, config, started, outputs, telemetry.clips, telemetry.as_dict(),
                    wall_s, error=error)
    if error is not None:
        return EXIT_BOUNDARY if isinstance(error, BoundaryMonitorError) else EXIT_NUMERICAL
    print(f"simulate: T={config.scheme.t_end} done, outputs in {outdir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = _utcnow()
    config, outdir = _load_run(args)
    start = time.perf_counter()
    result = sweep(config)
    integrated = time.perf_counter()

    outputs = ["report.json"]
    for nu, record in result.records:
        name = f"diag_nu_{nu:g}.csv"
        _atomic_write(outdir / name, record.to_csv())
        outputs.append(name)
    _atomic_write(outdir / "report.json", result.report.to_json())
    wall_s = {"integrate": integrated - start, **result.wall_s,
              "write": time.perf_counter() - integrated}
    r = result.report
    guard = r.guard.telemetry if r.guard is not None else None
    telemetry = {
        "pairs": result.telemetry.as_dict(),
        "guard": guard.as_dict() if guard is not None else None,
    }
    clips = result.telemetry.clips + (guard.clips if guard is not None else 0)
    failures = {f"nu={e.nu:g}": e.failed for e in r.entries if e.failed}
    if r.guard is not None and r.guard.failed:
        failures["guard"] = r.guard.failed
    _write_manifest(outdir, config, started, outputs, clips, telemetry, wall_s,
                    failures=failures)
    if r.fit_skipped_reason:
        print(f"sweep: fit skipped ({r.fit_skipped_reason}); outputs in {outdir}")
    else:
        ratio = "" if r.guard.failed else f" guard_ratio={r.guard.ratio:.1f}"
        print(f"sweep: slope={r.slope:.3f}{ratio} outputs in {outdir}")
    for who, message in failures.items():
        print(f"  {who} failed: {message}", file=sys.stderr)
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_verify(args) -> int:
    battery_start = time.perf_counter()
    suite = battery.Battery(battery.VERIFY)
    checks = battery.CHECKS
    failures = 0
    for name, check in checks:
        start = time.perf_counter()
        try:
            outcome = check(suite)
            ok, detail = outcome.ok, outcome.detail
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.2f} s)")
        failures += 0 if ok else 1
    total = f"({time.perf_counter() - battery_start:.2f} s)"
    if failures:
        print(f"verify: {failures} of {len(checks)} checks failed {total}")
        return EXIT_FAILURE
    print(f"verify: all {len(checks)} checks passed {total}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhd1d",
        description="1D compressible isentropic MHD: simulation, resistivity sweeps, verification.",
        epilog="exit codes: 0 ok, 1 failure, 2 config error; simulate: 3 numerical, 4 boundary",
    )
    parser.add_argument("--version", action="version", version=f"mhd1d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_options = argparse.ArgumentParser(add_help=False)
    run_options.add_argument("--config", required=True, help="path to a JSON run configuration")
    run_options.add_argument("--output-dir", default="mhd1d_out",
                             help="output directory (default: %(default)s)")

    sub.add_parser("simulate", parents=[run_options],
                   help="integrate one configuration and write diagnostics"
                   ).set_defaults(func=cmd_simulate)
    sub.add_parser("sweep", parents=[run_options],
                   help="matched resistive/non-resistive runs over nu_list"
                   ).set_defaults(func=cmd_sweep)
    sub.add_parser("verify", help="run the built-in verification battery"
                   ).set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # raised by _load_run, before any integration
        print(exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""mhd1d benchmark: drives the real CLI on one workload and prints one JSON result.

Usage (from the repository root):

    python3 bench/run.py --workload limit_sweep --seed 0 --seconds 40 --trace 0

Every measured run is a fresh child interpreter (``child.py``) with one BLAS
thread, so set-up time and peak memory are per run.  Runs repeat while the
next one is predicted to end within ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics (medians over the runs):
``wall_norm_s``, ``setup_s`` and ``peak_rss_mb``.  Both times are rescaled to
a reference host speed measured while they run (``hostspeed.py``); the raw
wall times are in the details line.  ``--trace 1`` alternates untraced and
traced runs (at least one of each) and reports the per-layer metrics of the
traced runs plus the tracing overhead.  Failed runs count in
``failed``; their times are not reported as successes.  The last line of
standard output is the result; the line before it is the provenance block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREADS = 1
SETUP_SAMPLES = 9          # set-up measurements per run, median reported
RUN_DEADLINE_S = 170.0     # the whole benchmark run must end within 180 s

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "solver.rhs.calls": "count",
    "solver.rhs.self_s": "s",
    "solver.rhs.ns_per_cell": "ns",
    "solver.step.calls": "count",
    "solver.step.self_s": "s",
    "solver.dt_diffusive_frac": "1",
    "solver.stable_dt.s": "s",
    "solver.check_boundary.s": "s",
    "solver.run.self_s": "s",
    "solver.save_checkpoint.s": "s",
    "diagnostics.advance.calls": "count",
    "diagnostics.advance.s": "s",
    "diagnostics.sample.calls": "count",
    "diagnostics.sample.s": "s",
    "diagnostics.to_csv.s": "s",
    "limit_study.run_pair.calls": "count",
    "limit_study.run_pair.self_s": "s",
    "limit_study.guard.s": "s",
    "mms.manufactured_solution.calls": "count",
    "mms.manufactured_solution.s": "s",
    "mms.mms_rhs.self_s": "s",
    "config.load_config.s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_norm_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.rhs_invariant_gap": "count",
    "trace.missed_sites": "count",
}


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    env.pop("MHD1D_OUTPUT_DIR", None)
    return env


def run_child(workload: str, config_path: Path | None, work: Path, tag: str, *,
              trace: bool = False, setup_only: bool = False, timeout: float) -> dict:
    """Start one child interpreter, wait for it, and return its result dict."""
    outdir = work / f"out-{tag}"
    shutil.rmtree(outdir, ignore_errors=True)
    result_path = work / f"child-{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--src", str(SRC),
           "--workload", workload, "--outdir", str(outdir), "--result", str(result_path),
           "--run-id", tag]
    if config_path is not None:
        cmd += ["--config", str(config_path)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(work), stdout=subprocess.DEVNULL,
                              timeout=max(timeout, 1.0))
        code = proc.returncode
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        code = "timeout"
    elapsed = time.perf_counter() - start
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        result = {"problems": [f"child exited with {code}"]}
    result["elapsed_s"] = elapsed
    result["traced"] = trace
    result["ok"] = not result["problems"]
    return result


def _read_cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _read_caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return caches


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout has no history
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(seed: int, workload: str, config: dict | None, seconds: float) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _read_cpu_model(),
        "caches": _read_caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "git_commit": _git_commit(),
        "seed": seed,
        "workload": workload,
        "run_seconds": seconds,
        "blas_threads": BLAS_THREADS,
        "jobs": 1,
        "config": config,
    }


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of one traced child result, times at reference host speed."""
    agg = traced["layers"]
    speed = traced["host_speed"]
    scale = speed / 1e9  # span nanoseconds to reference seconds
    counters = traced["counters"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    rhs_cells = counters.get("solver.rhs.cells", 0)
    dt_calls = counters.get("solver.stable_dt.calls", 0)
    stages = traced["stages"][0] if len(traced["stages"]) == 1 else 0
    return {
        "solver.rhs.calls": get("solver.rhs", "calls"),
        "solver.rhs.self_s": get("solver.rhs", "self_ns") * scale,
        "solver.rhs.ns_per_cell": (get("solver.rhs", "self_ns") * speed / rhs_cells
                                   if rhs_cells else 0.0),
        "solver.step.calls": get("solver.step", "calls"),
        "solver.step.self_s": get("solver.step", "self_ns") * scale,
        "solver.dt_diffusive_frac": (counters.get("solver.stable_dt.diffusive", 0) / dt_calls
                                     if dt_calls else 0.0),
        "solver.stable_dt.s": get("solver.stable_dt", "ns") * scale,
        "solver.check_boundary.s": get("solver.check_boundary", "ns") * scale,
        "solver.run.self_s": get("solver.run", "self_ns") * scale,
        "solver.save_checkpoint.s": get("solver.save_checkpoint", "ns") * scale,
        "diagnostics.advance.calls": get("diagnostics.advance", "calls"),
        "diagnostics.advance.s": get("diagnostics.advance", "ns") * scale,
        "diagnostics.sample.calls": get("diagnostics.sample", "calls"),
        "diagnostics.sample.s": get("diagnostics.sample", "ns") * scale,
        "diagnostics.to_csv.s": get("diagnostics.to_csv", "ns") * scale,
        "limit_study.run_pair.calls": get("limit_study.run_pair", "calls"),
        "limit_study.run_pair.self_s": get("limit_study.run_pair", "self_ns") * scale,
        "limit_study.guard.s": get("limit_study.guard", "ns") * scale,
        "mms.manufactured_solution.calls": get("mms.manufactured_solution", "calls"),
        "mms.manufactured_solution.s": get("mms.manufactured_solution", "ns") * scale,
        "mms.mms_rhs.self_s": get("mms.mms_rhs", "self_ns") * scale,
        "config.load_config.s": get("config.load_config", "ns") * scale,
        "cli.output_bytes": traced["output_bytes"],
        "trace.wall_norm_s": traced["wall_norm_s"],
        "trace.spans": traced["span_count"],
        "trace.rhs_invariant_gap": (get("solver.rhs", "calls")
                                    - stages * get("solver.step", "calls")
                                    - get("diagnostics.sample", "calls")),
        "trace.missed_sites": len(traced["missed_sites"]),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the children for one benchmark run; return (result line, details)."""
    t_begin = time.perf_counter()
    work = WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = workloads.make_config(workload, seed)
    config_path = None
    if config is not None:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")

    def remaining():
        return RUN_DEADLINE_S - (time.perf_counter() - t_begin)

    runs = []
    measure_start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(run_child(workload, config_path, work, f"{len(runs)}", trace=traced,
                              timeout=remaining()))
        spent = time.perf_counter() - measure_start
        longest = max(r["elapsed_s"] for r in runs)
        if trace and len(runs) < 2:
            continue
        if spent + longest > seconds or remaining() < longest + 15:
            break

    setup_runs = [r for r in runs if "setup_s" in r]
    while len(setup_runs) < SETUP_SAMPLES and remaining() > 10:
        r = run_child(workload, config_path, work, f"setup{len(setup_runs)}", setup_only=True,
                      timeout=remaining())
        if "setup_s" in r:
            setup_runs.append(r)
    setups = [r["setup_s"] for r in setup_runs]

    plain = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    failed = sum(not r["ok"] for r in runs)
    good = [r for r in plain if r["ok"]] or plain  # failed times only when nothing passed
    if trace:
        good_traced = [r for r in traced_runs if r["ok"]] or traced_runs
        per_run = [layer_metrics(r) for r in good_traced if "layers" in r]
        values = {k: statistics.median(m[k] for m in per_run) for k in LAYER_UNITS
                  if k != "trace.overhead_s"} if per_run else {}
        if per_run and good:
            values["trace.overhead_s"] = (values["trace.wall_norm_s"]
                                          - statistics.median(r["wall_norm_s"] for r in good
                                                              if "wall_norm_s" in r))
        units = LAYER_UNITS
    else:
        values = {}
        walls = [r["wall_norm_s"] for r in good if "wall_norm_s" in r]
        if walls:
            values["wall_norm_s"] = statistics.median(walls)
            values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in good
                                                      if "peak_rss_mb" in r)
        if setups:
            values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    missing = [k for k in units if k not in values]
    line = {
        "correct": failed == 0 and not missing,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    details = {
        "provenance": provenance(seed, workload, config, seconds),
        "wall_norm_s_samples": [r.get("wall_norm_s") for r in plain],
        "wall_s_samples": [r.get("wall_s") for r in plain],
        "host_speed_samples": [r.get("host_speed") for r in plain],
        "setup_s_samples": setups,
        "setup_raw_s_samples": [r["setup_raw_s"] for r in setup_runs],
        "traced_wall_norm_s_samples": [r.get("wall_norm_s") for r in traced_runs],
        "traced_wall_s_samples": [r.get("wall_s") for r in traced_runs],
        "problems": {str(i): r["problems"] for i, r in enumerate(runs) if r["problems"]},
        "outputs_sha256": runs[-1].get("outputs_sha256", {}),
        "missed_sites": sorted({s for r in traced_runs for s in r.get("missed_sites", [])}),
        "missing_targets": sorted({s for r in traced_runs for s in r.get("missing_targets", [])}),
        "elapsed_s": time.perf_counter() - t_begin,
    }
    (work / "result.json").write_text(json.dumps({"result": line, **details}, indent=2) + "\n")
    return line, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mhd1d" / "__init__.py").is_file():
        print(f"bench: no mhd1d sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    line, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for number, problems in details["problems"].items():
        print(f"bench: run {number} failed: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's tracer on the two stepping workloads.

Runs ``limit_sweep`` and ``vacuum_run`` (seed 0) traced, twice each, and
checks that

* every binding site of every traced function was patched (no missed sites),
* ``rhs.calls == stages * step.calls + sample.calls``,
* the bounds recomputed from ``fast_speed_state`` and the scheme reproduce
  every dt that ``stable_dt`` returned,
* the deterministic counters (call counts, cells, dt classification, output
  bytes and output SHA-256) repeat exactly across the two runs,
* both runs pass the workload's correctness gate,
* the metric names and units in ``BENCHMARK.json`` match those ``run.py``
  prints.

Usage, from the repository root (about two minutes):

    python3 bench/selftest.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

WORKLOADS = ("limit_sweep", "vacuum_run")


def deterministic_counters(result: dict) -> dict:
    counts = {f"{name}.calls": agg["calls"] for name, agg in result["layers"].items()}
    return {**counts, **result["counters"], "output_bytes": result["output_bytes"],
            "outputs_sha256": result["outputs_sha256"], "spans": result["span_count"]}


def check(workload: str) -> list[str]:
    work = run.WORK / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workloads.make_config(workload, 0)))
    results = [run.run_child(workload, config_path, work, f"{i}", trace=True, timeout=170)
               for i in range(2)]
    failures = []
    for i, r in enumerate(results):
        if not r["ok"]:
            failures.append(f"run {i} failed its gate: {r['problems']}")
            continue
        m = run.layer_metrics(r)
        stages = "/".join(map(str, r["stages"])) or "no"
        if r["missed_sites"]:
            failures.append(f"run {i} missed binding sites: {r['missed_sites']}")
        if m["trace.rhs_invariant_gap"] != 0:
            failures.append(f"run {i}: rhs.calls {m['solver.rhs.calls']} != {stages} stages x "
                            f"step.calls {m['solver.step.calls']} + sample.calls "
                            f"{m['diagnostics.sample.calls']}")
        if r["counters"].get("solver.stable_dt.mismatch", 0):
            failures.append(f"run {i}: recomputed dt bounds disagree with stable_dt")
        print(f"{workload} run {i}: rhs {m['solver.rhs.calls']} = {stages} x "
              f"{m['solver.step.calls']} + {m['diagnostics.sample.calls']}, "
              f"wall {r['wall_s']:.2f} s, {r['wall_norm_s']:.2f} s normalized")
    if not failures:
        first, second = (deterministic_counters(r) for r in results)
        changed = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        if changed:
            failures.append(f"counters differ between two runs: {changed}")
    return failures


def check_manifest() -> list[str]:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(declared.items()) ^ set(units.items()))}")
    return problems


def main() -> int:
    failures = 0
    for p in check_manifest():
        print(f"[FAIL] {p}")
        failures += 1
    for workload in WORKLOADS:
        problems = check(workload)
        for p in problems:
            print(f"[FAIL] {workload}: {p}")
        if not problems:
            print(f"[PASS] {workload}: binding sites, rhs invariant, dt bounds, "
                  "counters repeat exactly")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

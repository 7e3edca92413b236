"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It times the set-up
(importing ``mhd1d`` from the checkout's ``src`` and loading the generated
configuration), then one call of ``mhd1d.cli.main``, reads the peak resident
set size, applies the workload's correctness gate and hashes the outputs.
Both times are also rescaled to the reference host speed (``hostspeed``).
With ``--trace`` the call runs under the span tracer and the per-layer
aggregates are added.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed
import workloads


def _import_checkout(src: Path):
    """Import mhd1d from the checkout, never from an installed copy."""
    sys.path.insert(0, str(src))
    import mhd1d
    import mhd1d.cli
    import mhd1d.config

    where = Path(mhd1d.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"mhd1d imported from {where}, not from {src}")
    return mhd1d


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--config", default=None)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args()

    probes = [hostspeed.python_probe() for _ in range(hostspeed.EDGE_PROBES)]
    t0 = time.perf_counter()
    mhd1d = _import_checkout(Path(args.src))
    config = None
    if args.config:
        mhd1d.config.load_config(args.config)
        config = json.loads(Path(args.config).read_text())
    setup_raw = time.perf_counter() - t0
    probes += [hostspeed.python_probe() for _ in range(hostspeed.EDGE_PROBES)]
    result = {"setup_s": setup_raw * hostspeed.python_speed(probes), "setup_raw_s": setup_raw,
              "problems": []}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(args.run_id)
        tracer.install()
        result["missed_sites"] = tracer.missed_sites()
        result["missing_targets"] = tracer.missing_targets

    outdir = Path(args.outdir)
    argv = workloads.cli_argv(args.workload, args.config, str(outdir))
    captured = io.StringIO()
    error = None
    probe = hostspeed.SpeedProbe()
    probe.start()
    try:
        with contextlib.redirect_stdout(captured):
            code = mhd1d.cli.main(argv)
    except Exception as exc:  # a crashed run is a failed run, reported below
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        probe.stop()
    result["wall_s"] = probe.wall_s
    result["wall_norm_s"] = probe.normalized_s
    result["host_speed"] = probe.speed
    result["probes"] = len(probe.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.aggregate()
        result["counters"] = dict(tracer.counters)
        result["stages"] = sorted(tracer.stages)
        result["span_count"] = len(tracer.spans)
        tracer.dump(outdir.parent / f"spans-{args.run_id}.json")

    try:
        problems = [error] if error else workloads.gate(
            args.workload, code, captured.getvalue(), outdir, config)
    except (OSError, KeyError, ValueError) as exc:  # missing or malformed output
        problems = [f"gate could not read outputs: {type(exc).__name__}: {exc}"]
    result["problems"] = problems
    files = workloads.output_files(outdir)
    result["outputs_sha256"] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    result["output_bytes"] = sum(f.stat().st_size for f in files)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

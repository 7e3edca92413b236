"""Golden outputs: the criterion-10 sweep, a short interior-vacuum run,
criterion 9's interior-vacuum run to T = 1 (the benchmark's seed-0
``vacuum_run``, so the near-vacuum path is held to its bytes) and the lines
``mhd1d verify`` prints, which README's quoted check lines must match.

Every case runs through the command line, so the test does not depend on the
library API.  Every number of ``report.json`` and every row of the CSV and
checkpoint outputs is compared with the checked-in copy under
``tests/golden`` at relative tolerance 1e-12, which catches any real change.
Table entries also get an absolute floor of 1e-15 times the largest magnitude
in their column, so rounding residue such as far-field momentum of order 1e-42
cannot fail the comparison on another libm.  That tolerance does not yet hold
across numpy's SIMD paths: on a host without AVX-512 three cases move by more
than 1e-12.  When the installed numpy is the version the copy was made with
and dispatches to the same SIMD targets (``golden.json`` records both), the
SHA-256 of every output must match as well, and so must the text of the nine
``verify`` lines, wall times stripped (``verify.txt``); on another build only
their check names and verdicts are compared, since their numbers are printed
rounded.  The bytes also depend on the OpenBLAS kernel bundled with the numpy
wheel, which sums each RKL2 stage's terms in one fused dgemv; its bytes do
not depend on the BLAS thread count, and CI runs this module at one thread
too.  ``golden.json`` records that OpenBLAS version (``openblas``) for
reference; it does not decide whether the SHA-256 checks run.

A change that moves numbers on purpose regenerates the copy with
``python tests/test_golden.py`` and commits it in the same change, so the
diff shows every number that moved.
"""

import contextlib
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mhd1d.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
README = GOLDEN.parent.parent / "README.md"
RTOL = 1e-12
COLUMN_FLOOR = 1e-15

# Acceptance criterion 10's configuration, a short interior-vacuum run whose
# magnetic field vanishes with the density (a_b = -b_bar), and criterion 9's
# full-length run of the same preset.
CASES = {
    "criterion10_sweep": ("sweep", {
        "grid": {"half_width": 20.0, "n_cells": 256},
        "scheme": {"t_end": 0.2, "n_samples": 10},
        "nu_list": [1e-2, 1e-3, 1e-4],
    }),
    "interior_vacuum_simulate": ("simulate", {
        "scenario": {"preset": "interior_vacuum", "a_b": -1.0},
        "grid": {"n_cells": 256},
        "scheme": {"t_end": 0.1, "n_samples": 5},
    }),
    "vacuum_run": ("simulate", {
        "physics": {"mu": 0.1, "nu": 1e-3},
        "scenario": {"preset": "interior_vacuum", "a_u": 0.2, "a_b": -1.0, "sigma": 2.0},
        "grid": {"half_width": 20.0, "n_cells": 1024},
        "scheme": {"t_end": 1.0},
        "jobs": 1,
    }),
}


def _numpy_build() -> dict:
    """numpy's version and the SIMD dispatch targets it runs on this host."""
    from numpy._core import _multiarray_umath as m

    return {"numpy": np.__version__,
            "numpy_simd_targets": sorted(k for k, v in m.__cpu_features__.items()
                                         if v and k in m.__cpu_dispatch__)}


def _openblas_version() -> str:
    """The version of the BLAS bundled with numpy, which rounds each RKL2 stage's dgemv."""
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]


def _same_build(recorded: dict) -> bool:
    """Whether the golden copy was made on this numpy build, so its bytes must match."""
    return all(recorded.get(key) == value for key, value in _numpy_build().items())


def _produce(case: str, workdir: Path, overrides: dict | None = None) -> dict[str, bytes]:
    """Run one case, ``overrides`` set in its config; return every output but the timed manifest."""
    command, config = CASES[case]
    cfg = workdir / f"{case}.json"
    cfg.write_text(json.dumps({**config, **(overrides or {})}))
    outdir = workdir / case
    assert main([command, "--config", str(cfg), "--output-dir", str(outdir)]) == 0
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


def _verify_lines() -> list[str]:
    """The check lines of ``mhd1d verify``, without their trailing wall times."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify"]) == 0
    return [re.sub(r" \([0-9.]+ s\)$", "", ln) for ln in out.getvalue().splitlines()
            if ln.startswith("[")]


def _assert_json_close(actual, expected, where):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_json_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_json_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert isinstance(actual, (int, float)), where
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0), \
            f"{where}: {actual!r} != {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def _assert_table_close(actual: str, expected: str, where: str):
    """First line (CSV column names, checkpoint "n_cells L t") exactly, rows numerically."""
    a_lines, e_lines = actual.splitlines(), expected.splitlines()
    assert len(a_lines) == len(e_lines), f"{where}: {len(a_lines)} lines, expected {len(e_lines)}"
    assert a_lines[0] == e_lines[0], f"{where}: first line differs"
    a, e = (np.array([[float(v) for v in ln.replace(",", " ").split()] for ln in lines[1:]])
            for lines in (a_lines, e_lines))
    assert a.shape == e.shape, where
    tol = RTOL * np.abs(e) + COLUMN_FLOOR * np.abs(e).max(axis=0)
    bad = np.argwhere(~(np.abs(a - e) <= tol))
    assert bad.size == 0, (f"{where}: {len(bad)} entries moved, first at row {bad[0][0] + 1}, "
                           f"column {bad[0][1]}: {a[tuple(bad[0])]!r} != {e[tuple(bad[0])]!r}")


@pytest.mark.parametrize("case, overrides", [
    pytest.param("criterion10_sweep", None, id="criterion10_sweep"),
    # the guard's doubled-grid pair runs in a worker process; the outputs must not change
    pytest.param("criterion10_sweep", {"jobs": 2}, id="criterion10_sweep-jobs2"),
    pytest.param("interior_vacuum_simulate", None, id="interior_vacuum_simulate"),
    pytest.param("vacuum_run", None, id="vacuum_run"),
])
def test_outputs_match_golden(case, overrides, tmp_path):
    recorded = json.loads((GOLDEN / "golden.json").read_text())
    outputs = _produce(case, tmp_path, overrides)
    expected_dir = GOLDEN / case
    assert sorted(outputs) == sorted(p.name for p in expected_dir.iterdir())
    for name, data in outputs.items():
        expected = (expected_dir / name).read_text()
        if name.endswith(".json"):
            _assert_json_close(json.loads(data), json.loads(expected), f"{case}/{name}")
        else:
            _assert_table_close(data.decode(), expected, f"{case}/{name}")
    if _same_build(recorded):
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert digests == recorded["sha256"][case]


def test_verify_lines_match_golden():
    recorded = json.loads((GOLDEN / "golden.json").read_text())
    lines = _verify_lines()
    expected = (GOLDEN / "verify.txt").read_text().splitlines()
    assert len(expected) == 9
    assert [ln.split(":")[0] for ln in lines] == [ln.split(":")[0] for ln in expected]
    if _same_build(recorded):
        assert lines == expected


def test_golden_records_the_build():
    # numpy, its SIMD targets and the bundled OpenBLAS, beside the digests
    recorded = json.loads((GOLDEN / "golden.json").read_text())
    assert sorted(recorded) == ["numpy", "numpy_simd_targets", "openblas", "sha256"]
    assert isinstance(recorded["openblas"], str) and recorded["openblas"]


def test_readme_check_lines_are_golden():
    # the [PASS]/[FAIL] lines README quotes, wall times stripped, are lines verify prints
    quoted = [re.sub(r" \([0-9.]+ s\)$", "", ln)
              for ln in re.findall(r"`(\[(?:PASS|FAIL)\][^`]*)`", README.read_text())]
    assert quoted
    expected = (GOLDEN / "verify.txt").read_text().splitlines()
    assert [ln for ln in quoted if ln not in expected] == []


def regenerate():
    """Rewrite the golden copy from the current code."""
    import tempfile

    recorded = {**_numpy_build(), "openblas": _openblas_version(), "sha256": {}}
    with tempfile.TemporaryDirectory() as work:
        for case in sorted(CASES):
            outputs = _produce(case, Path(work))
            target = GOLDEN / case
            target.mkdir(parents=True, exist_ok=True)
            for stale in target.iterdir():
                stale.unlink()
            for name, data in outputs.items():
                (target / name).write_bytes(data)
            recorded["sha256"][case] = {name: hashlib.sha256(data).hexdigest()
                                        for name, data in outputs.items()}
    (GOLDEN / "golden.json").write_text(json.dumps(recorded, sort_keys=True, indent=2) + "\n")
    (GOLDEN / "verify.txt").write_text("\n".join(_verify_lines()) + "\n")


if __name__ == "__main__":
    regenerate()

"""In-memory span tracer that wraps mhd1d's public functions from outside.

``Tracer.install`` replaces each traced function at *every* binding site:
``limit_study``, ``cli`` and ``mms`` import ``rhs``, ``step``, ``sample`` and
``run`` by name, so patching only the defining module would silently miss
their calls.  After patching, ``missed_sites`` lists any reference to an
original function that is still reachable (module attribute, default argument
or closure cell); a correct install leaves it empty.

Each span is ``[name, start_ns, end_ns, parent_index, run_id]``.  Spans stay
in memory until ``dump`` writes them out.  A span's self time is its duration
minus the time covered by its children; calls are single-threaded and
strictly nested, so children never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (layer name, defining module, attribute) for plain functions
FUNCTIONS = (
    ("solver.rhs", "mhd1d.solver", "rhs"),
    ("solver.step", "mhd1d.solver", "step"),
    ("solver.stable_dt", "mhd1d.solver", "stable_dt"),
    ("solver.check_boundary", "mhd1d.solver", "check_boundary"),
    ("solver.run", "mhd1d.solver", "run"),
    ("solver.save_checkpoint", "mhd1d.solver", "save_checkpoint"),
    ("diagnostics.sample", "mhd1d.diagnostics", "sample"),
    ("limit_study.run_pair", "mhd1d.limit_study", "run_pair"),
    ("limit_study.guard", "mhd1d.limit_study", "grid_pollution_guard"),
    ("mms.manufactured_solution", "mhd1d.mms", "manufactured_solution"),
    ("mms.mms_rhs", "mhd1d.mms", "mms_rhs"),
    ("config.load_config", "mhd1d.config", "load_config"),
)
# (layer name, defining module, class, method)
METHODS = (
    ("diagnostics.advance", "mhd1d.diagnostics", "Accumulators", "advance"),
    ("diagnostics.to_csv", "mhd1d.diagnostics", "DiagnosticsRecord", "to_csv"),
)

STAGES = {"ssp_rk2": 2, "ssp_rk3": 3}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mhd1d" or name.startswith("mhd1d."))]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.stages: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}
        self._wrappers: set[int] = set()
        self.missing_targets: list[str] = []  # traced names the package no longer has

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:  # counter work stays outside the span
                after(args, kwargs, result)
            return result
        self._wrappers.add(id(traced))
        return traced

    # -- counters recorded at the layer boundaries ---------------------------

    def _after_rhs(self, args, kwargs, result):
        self.counters["solver.rhs.cells"] += len(_arg(args, kwargs, 0, "state").rho)

    def _after_step(self, args, kwargs, result):
        scheme = _arg(args, kwargs, 3, "scheme")
        self.stages.add(STAGES.get(scheme.time_integrator, 0))

    def _after_stable_dt(self, args, kwargs, result):
        # Recompute both bounds of stable_dt from public pieces to learn
        # which one set dt; a mismatch with the returned value is counted.
        import numpy as np
        from mhd1d.core import RHO_FLOOR, fast_speed_state
        from mhd1d.solver import VISC_FLOOR_FRACTION

        state, params, scheme, grid = (_arg(args, kwargs, i, name) for i, name in
                                       enumerate(("state", "params", "scheme", "grid")))
        dt_adv = scheme.cfl_number * grid.dx / float(np.max(fast_speed_state(state, params)))
        visc_floor = max(RHO_FLOOR, VISC_FLOOR_FRACTION * params.rho_bar)
        rho_min = max(float(np.min(np.maximum(state.rho, RHO_FLOOR))), visc_floor)
        dt_diff = scheme.diffusion_number * grid.dx**2 / max(params.mu / rho_min, params.nu)
        self.counters["solver.stable_dt.calls"] += 1
        self.counters["solver.stable_dt.diffusive"] += dt_diff < dt_adv
        self.counters["solver.stable_dt.mismatch"] += min(dt_adv, dt_diff) != result

    # -- installation --------------------------------------------------------

    def install(self):
        import importlib

        after = {"solver.rhs": self._after_rhs, "solver.step": self._after_step,
                 "solver.stable_dt": self._after_stable_dt}
        replacements = {}
        for name, modname, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                self.missing_targets.append(name)
                continue
            replacements[id(orig)] = self._wrap(name, orig, after.get(name))
            self._originals[id(orig)] = name
        for name, modname, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(modname), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                self.missing_targets.append(name)
                continue
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))
            self._originals[id(orig)] = name
        for module in _package_modules():
            for key, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patched.append((module, key, value))
                    setattr(module, key, replacements[id(value)])

    def uninstall(self):
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched.clear()

    def missed_sites(self) -> list[str]:
        """References to an original (unwrapped) function still reachable."""
        missed = []
        for module in _package_modules():
            for key, value in vars(module).items():
                holders = [(f"{module.__name__}.{key}", value)]
                if isinstance(value, type):
                    holders += [(f"{module.__name__}.{key}.{k}", v) for k, v in vars(value).items()]
                for where, obj in holders:
                    if id(obj) in self._wrappers:
                        continue
                    missed += [f"{where} -> {self._originals[id(ref)]}"
                               for ref in [obj, *_captured(obj)] if id(ref) in self._originals]
        return missed

    # -- reporting -----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-layer call count, total (inclusive) and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            a = agg[name]
            a["calls"] += 1
            a["ns"] += end - start
            a["self_ns"] += end - start - covered
        return agg

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _captured(obj) -> list:
    """Objects a function holds in its defaults or closure cells."""
    fn = getattr(obj, "__func__", obj)
    refs = list(getattr(fn, "__defaults__", None) or ())
    refs += list((getattr(fn, "__kwdefaults__", None) or {}).values())
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            refs.append(cell.cell_contents)
        except ValueError:  # empty cell
            pass
    return refs

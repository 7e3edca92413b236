"""Run configuration: JSON schema, validation, canonical serialization.

A configuration file is a JSON object with optional sections ``physics``,
``scenario``, ``grid``, ``scheme`` and optional top-level ``mode``,
``nu_list``, ``output_dir``, ``jobs``.  Every omitted entry takes the
documented default, so ``{}`` is a valid configuration.  Validation collects
every violation (with its field path) before failing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from .core import Grid1D, PhysParams
from .errors import ConfigError
from .scenario import ScenarioSpec
from .solver import SchemeConfig

# The non-resistive system is the resistive one at nu = 0; see RunConfig.run_params.
MODES = ("resistive", "non_resistive")

# ScenarioSpec fields that are not configuration keys: the physics section
# supplies params, and custom fields are API-only.
_NOT_KEYS = ("params", "custom_fields")


def _section(source) -> dict:
    """A section's keys and values from a dataclass; a class gives its defaults."""
    return {f.name: getattr(source, f.name) for f in fields(source) if f.name not in _NOT_KEYS}


DEFAULTS = {
    "physics": _section(PhysParams),
    "scenario": _section(ScenarioSpec),
    "grid": {"half_width": 20.0, "n_cells": 2048},
    "scheme": _section(SchemeConfig),
    "mode": "resistive",
    "nu_list": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
    "output_dir": "mhd1d_out",
    "jobs": 1,
}


@dataclass(frozen=True)
class RunConfig:
    params: PhysParams
    spec: ScenarioSpec
    grid: Grid1D
    scheme: SchemeConfig
    mode: str = "resistive"
    nu_list: tuple = tuple(DEFAULTS["nu_list"])
    output_dir: str = "mhd1d_out"
    jobs: int = 1

    @property
    def run_params(self) -> PhysParams:
        """The parameters a single run integrates: mode non_resistive means nu = 0."""
        return replace(self.params, nu=0.0) if self.mode == "non_resistive" else self.params

    def as_dict(self) -> dict:
        return {
            "physics": _section(self.params),
            "scenario": _section(self.spec),
            "grid": {"half_width": self.grid.half_width, "n_cells": self.grid.n_cells},
            "scheme": _section(self.scheme),
            "mode": self.mode,
            "nu_list": list(self.nu_list),
            "output_dir": self.output_dir,
            "jobs": self.jobs,
        }

    def canonical(self) -> str:
        """Order-stable serialization; its hash identifies the configuration."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def _merge_section(raw: dict, section: str, problems: list[str]) -> dict:
    merged = dict(DEFAULTS[section])
    given = raw.get(section, {})
    if not isinstance(given, dict):
        problems.append(f"{section}: expected an object, got {type(given).__name__}")
        return merged
    for key, value in given.items():
        if key not in merged:
            problems.append(f"{section}.{key}: unknown field")
        else:
            merged[key] = value
    return merged


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw configuration dict and build a RunConfig.

    Raises ConfigError listing every violated invariant with its field path.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    problems: list[str] = []
    for key in raw:
        if key not in DEFAULTS:
            problems.append(f"{key}: unknown field")

    phys_d = _merge_section(raw, "physics", problems)
    scen_d = _merge_section(raw, "scenario", problems)
    grid_d = _merge_section(raw, "grid", problems)
    schm_d = _merge_section(raw, "scheme", problems)

    params = grid = scheme = spec = None
    try:
        params = PhysParams(**phys_d)
    except (ValueError, TypeError) as exc:
        problems.extend(f"physics: {p}" for p in str(exc).split("; "))
    try:
        grid = Grid1D(**grid_d)
    except (ValueError, TypeError) as exc:
        problems.append(f"grid: {exc}")
    try:
        scheme = SchemeConfig(**schm_d)
    except (ValueError, TypeError) as exc:
        problems.extend(f"scheme: {p}" for p in str(exc).split("; "))
    if params is not None:
        try:
            spec = ScenarioSpec(params=params, **scen_d)
        except (ValueError, TypeError) as exc:
            problems.append(f"scenario: {exc}")

    mode = raw.get("mode", DEFAULTS["mode"])
    if mode not in MODES:
        problems.append(f"mode: must be one of {MODES}, got {mode!r}")

    nu_list = raw.get("nu_list", DEFAULTS["nu_list"])
    if not isinstance(nu_list, (list, tuple)) or not nu_list:
        problems.append("nu_list: expected a non-empty list of resistivities")
    else:
        for i, v in enumerate(nu_list):
            if not isinstance(v, (int, float)) or v < 0:
                problems.append(f"nu_list[{i}]: expected a non-negative number, got {v!r}")
        if len(set(nu_list)) != len(nu_list):
            problems.append("nu_list: values must be distinct")

    output_dir = raw.get("output_dir", DEFAULTS["output_dir"])
    if not isinstance(output_dir, str) or not output_dir:
        problems.append("output_dir: expected a non-empty string")

    jobs = raw.get("jobs", DEFAULTS["jobs"])
    if not isinstance(jobs, int) or jobs < 1:
        problems.append(f"jobs: expected a positive integer, got {jobs!r}")

    # Cross-section checks, reported here so they fail at load time.
    if spec is not None and grid is not None:
        if grid.half_width < 5.0 * spec.sigma:
            problems.append(
                f"grid.half_width: L = {grid.half_width} < 5*sigma = {5.0 * spec.sigma} "
                "(far-field deviation at the boundary would exceed 1e-10)"
            )
        if spec.preset == "gaussian_bump" and params is not None and spec.a_rho <= -params.rho_bar:
            problems.append(
                f"scenario.a_rho: {spec.a_rho} <= -rho_bar = {-params.rho_bar} "
                "would make the initial density negative"
            )

    if problems:
        raise ConfigError(problems)
    return RunConfig(params=params, spec=spec, grid=grid, scheme=scheme, mode=mode,
                     nu_list=tuple(float(v) for v in nu_list), output_dir=output_dir, jobs=jobs)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from exc
    return parse_config(raw)


__all__ = ["MODES", "DEFAULTS", "RunConfig", "parse_config", "load_config"]

"""Run configuration: JSON schema, validation, canonical serialization.

A configuration file is a JSON object with optional sections ``physics``,
``scenario``, ``grid``, ``scheme`` and optional top-level ``nu_list`` and
``jobs``.  Every omitted entry takes the documented default,
so ``{}`` is a valid configuration.  The non-resistive system is the
resistive one at ``physics.nu = 0``; it has no spelling of its own.
Validation collects every violation (with its field path) before failing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .core import Grid1D, PhysParams
from .errors import ConfigError
from .scenario import ScenarioSpec, admissibility_problems
from .solver import SchemeConfig


def _section(source) -> dict:
    """A section's keys and values from a dataclass; a class gives its defaults."""
    return {f.name: getattr(source, f.name) for f in fields(source)}


DEFAULTS = {
    "physics": _section(PhysParams),
    "scenario": _section(ScenarioSpec),
    "grid": _section(Grid1D),
    "scheme": _section(SchemeConfig),
    "nu_list": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
    "jobs": 1,
}


@dataclass(frozen=True)
class RunConfig:
    """Every input of ``simulate`` and ``sweep``; ``canonical`` holds those that set a number."""

    params: PhysParams
    spec: ScenarioSpec
    grid: Grid1D
    scheme: SchemeConfig
    nu_list: tuple = tuple(DEFAULTS["nu_list"])
    jobs: int = 1

    def as_dict(self) -> dict:
        return {
            "physics": _section(self.params),
            "scenario": _section(self.spec),
            "grid": _section(self.grid),
            "scheme": _section(self.scheme),
            "nu_list": list(self.nu_list),
            "jobs": self.jobs,
        }

    def canonical(self) -> str:
        """Order-stable serialization of the inputs that set a number; its hash identifies them.

        ``jobs`` sets only the wall time; ``nu_list`` is in ``sweep``'s descending run order.
        """
        d = self.as_dict()
        del d["jobs"]
        d["nu_list"].sort(reverse=True)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


# Accepted JSON types of a field, by the type of its default; bools are never numbers.
_NUMBERS = {float: ((int, float), "a number"), int: ((int,), "an integer")}


def _number_problem(value, accepted=(int, float), kind="a number") -> str | None:
    """Why ``value`` is not a usable number, or None.

    ``json.loads`` accepts NaN and Infinity, and a bool is an int to Python;
    neither is a valid configuration number.
    """
    if isinstance(value, bool) or not isinstance(value, accepted):
        return f"must be {kind}, got {value!r}"
    if not math.isfinite(value):
        return f"must be a finite number, got {value!r}"
    return None


def _merge_section(raw: dict, section: str, problems: list[str]) -> tuple[dict, bool]:
    """The section's given values over its defaults, and whether every value had its type.

    A value of the wrong type is reported and its default kept in its place.
    """
    merged = dict(DEFAULTS[section])
    given = raw.get(section, {})
    if not isinstance(given, dict):
        problems.append(f"{section}: expected an object, got {type(given).__name__}")
        return merged, True
    typed = True
    for key, value in given.items():
        if key not in merged:
            problems.append(f"{section}.{key}: unknown field")
            continue
        accepted, kind = _NUMBERS.get(type(merged[key]), (None, None))
        problem = _number_problem(value, accepted, kind) if accepted else None
        if problem:
            problems.append(f"{section}.{key}: {problem}")
            typed = False
        else:
            merged[key] = value
    return merged, typed


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

    # Each section is validated on its own, so one bad section hides no other's
    # problems; a section with a mistyped value is checked but not kept.
    sections = {"physics": PhysParams, "scenario": ScenarioSpec, "grid": Grid1D,
                "scheme": SchemeConfig}
    built = {}
    for section, cls in sections.items():
        merged, typed = _merge_section(raw, section, problems)
        try:
            value = cls(**merged)
        except (ValueError, TypeError) as exc:
            problems.extend(f"{section}: {p}" for p in exc.args)
        else:
            if typed:
                built[section] = value
    params, spec, grid, scheme = (built.get(section) for section in sections)

    nu_list = raw.get("nu_list", DEFAULTS["nu_list"])
    if not isinstance(nu_list, (list, tuple)) or not nu_list:
        problems.append("nu_list: expected a non-empty list of resistivities")
    else:
        given = len(problems)
        for i, v in enumerate(nu_list):
            problem = _number_problem(v)
            if problem is None and not v > 0:  # nu = 0 is the reference every sweep runs
                problem = f"must be positive, got {v!r}"
            if problem:
                problems.append(f"nu_list[{i}]: {problem}")
        # set() needs hashable entries, which only valid numbers are sure to be
        if len(problems) == given and len(set(nu_list)) != len(nu_list):
            problems.append("nu_list: values must be distinct")

    jobs = raw.get("jobs", DEFAULTS["jobs"])
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        problems.append(f"jobs: expected a positive integer, got {jobs!r}")

    # Cross-section checks, reported here so they fail at load time.
    if spec is not None and grid is not None:
        problems.extend(admissibility_problems(spec, params, grid))

    if problems:
        raise ConfigError(problems)
    return RunConfig(params=params, spec=spec, grid=grid, scheme=scheme,
                     nu_list=tuple(float(v) for v in nu_list), jobs=jobs)


def load_config(path: str) -> RunConfig:
    """Parse and validate a JSON configuration file; an unreadable file is a ConfigError too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc.strerror or exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"cannot read {path}: not UTF-8 text "
                           f"({exc.reason} at byte {exc.start})"]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from exc
    return parse_config(raw)


__all__ = ["DEFAULTS", "RunConfig", "parse_config", "load_config"]

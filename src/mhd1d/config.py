"""Run configuration: JSON schema, validation, canonical serialization.

A configuration file is a JSON object with optional sections ``physics``,
``scenario``, ``grid``, ``scheme`` and optional top-level ``nu_list`` and
``jobs``.  Every omitted entry takes the documented default,
so ``{}`` is a valid configuration.  The non-resistive system is the
resistive one at ``physics.nu = 0``; it has no spelling of its own.
The dataclasses validate, for a file and a Python caller alike; ``parse_config``
only merges a file over the defaults and collects every violation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from .core import Grid1D, PhysParams, type_problem
from .errors import ConfigError
from .scenario import ScenarioSpec, admissibility_problems
from .solver import SchemeConfig


def _section(source) -> dict:
    """A section's keys and values from a dataclass; a class gives its defaults."""
    return {f.name: getattr(source, f.name) for f in fields(source)}


# Each file section: the RunConfig attribute that holds it, and the dataclass it builds.
SECTIONS = {
    "physics": ("params", PhysParams),
    "scenario": ("spec", ScenarioSpec),
    "grid": ("grid", Grid1D),
    "scheme": ("scheme", SchemeConfig),
}

# Every section's defaults by field, then the top-level entries: the shape of a file.
DEFAULTS = {
    **{name: _section(cls) for name, (_, cls) in SECTIONS.items()},
    "nu_list": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
    "jobs": 1,
}


@dataclass(frozen=True)
class RunConfig:
    """Every input of ``simulate`` and ``sweep``; ``canonical`` holds those that set a number.

    Checks ``nu_list`` (distinct positive floats, kept as a tuple) and ``jobs``
    (a positive integer); its sections check themselves.
    """

    params: PhysParams
    spec: ScenarioSpec
    grid: Grid1D
    scheme: SchemeConfig
    nu_list: tuple = tuple(DEFAULTS["nu_list"])
    jobs: int = 1

    def __post_init__(self):
        problems, nus = [], self.nu_list
        if not isinstance(nus, (list, tuple)) or not nus:
            problems.append("nu_list: expected a non-empty list of resistivities")
        else:
            for i, v in enumerate(nus):
                problem = type_problem(v)
                if problem is None and not v > 0:  # nu = 0 is the reference every sweep runs
                    problem = f"must be positive, got {v!r}"
                if problem:
                    problems.append(f"nu_list[{i}]: {problem}")
            # set() needs hashable entries, which only valid numbers are sure to be
            if not problems and len(set(nus)) != len(nus):
                problems.append("nu_list: values must be distinct")
        if type_problem(self.jobs, "int") or self.jobs < 1:
            problems.append(f"jobs: expected a positive integer, got {self.jobs!r}")
        if problems:
            raise ValueError(*problems)
        object.__setattr__(self, "nu_list", tuple(float(v) for v in nus))

    def as_dict(self) -> dict:
        return {
            **{name: _section(getattr(self, attr)) for name, (attr, _) in SECTIONS.items()},
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


def _merged(raw: dict, section: str, problems: list[str]) -> dict:
    """The section's given values over its defaults; unknown fields are reported, not kept."""
    merged = dict(DEFAULTS[section])
    given = raw.get(section, {})
    if not isinstance(given, dict):
        problems.append(f"{section}: expected an object, got {type(given).__name__}")
        return merged
    problems.extend(f"{section}.{key}: unknown field" for key in given if key not in merged)
    merged.update((key, value) for key, value in given.items() if key in merged)
    return merged


def parse_config(raw: dict) -> RunConfig:
    """Merge a raw configuration dict over the defaults and build a RunConfig.

    Every part is built even when another failed, so none hides another's
    problems; raises ConfigError listing them all, a section's with its name.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    problems = [f"{key}: unknown field" for key in raw if key not in DEFAULTS]
    built = {}
    for section, (attr, cls) in SECTIONS.items():
        try:
            built[attr] = cls(**_merged(raw, section, problems))
        except ValueError as exc:
            problems.extend(f"{section}: {p}" for p in exc.args)
    try:
        config = RunConfig(**{attr: built.get(attr) for attr, _ in SECTIONS.values()},
                           nu_list=raw.get("nu_list", DEFAULTS["nu_list"]),
                           jobs=raw.get("jobs", DEFAULTS["jobs"]))
    except ValueError as exc:
        problems.extend(exc.args)

    # Cross-section checks, reported here so they fail at load time.
    if "spec" in built and "grid" in built:
        problems.extend(admissibility_problems(built["spec"], built["grid"]))

    if problems:
        raise ConfigError(problems)
    return config


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


__all__ = ["SECTIONS", "DEFAULTS", "RunConfig", "parse_config", "load_config"]

"""Vanishing-resistivity convergence study.

For each resistivity nu a resistive and a non-resistive (nu = 0) run advance
in lockstep on the same grid with the identical dt sequence (the smaller of
the two members' stability bounds), so time-discretization and flux-scheme
dissipation cancel in their difference.  The per-nu error functionals

    e_sup  = sup_t (||rho - rho~||^2 + ||u - u~||^2 + ||b - b~||^2)  (L2, squared)
    e_diss = int_0^T mu ||(u - u~)_x||^2 dt
    aux    = int_0^T ||nu b_x||^2 dt

are fitted against nu in log-log coordinates; the expected bound is
e_total = e_sup + e_diss <= C*nu.  A grid-pollution guard re-measures the
smallest error functional on a doubled grid and requires the two values to
agree well, which certifies that the signal is resistivity difference rather
than discretization residue.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .config import RunConfig
from .core import Grid1D, derivative
from .diagnostics import DiagnosticsRecord, RunTelemetry
from .errors import SimulationError
from .scenario import build_initial_state
from .solver import run_lockstep

GUARD_FACTOR = 10.0
SUPERLINEAR_SLOPE = 1.25
MIN_DECADES_SPAN = 100.0


@dataclass
class PairErrors:
    nu: float
    e_sup_rho: float = 0.0
    e_sup_u: float = 0.0
    e_sup_b: float = 0.0
    e_sup: float = 0.0
    e_diss: float = 0.0
    e_total: float = 0.0
    aux: float = 0.0
    failed: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def run_pair(nu: float, config: RunConfig) -> tuple[PairErrors, DiagnosticsRecord]:
    """Evolve the resistive(nu) and non-resistive systems in lockstep.

    Both start from the configured scenario, physics and grid; only nu differs.
    Returns the error functionals of the pair and the resistive member's
    diagnostics record (used by the resistivity-independence audit).
    """
    grid = config.grid
    dx = grid.dx
    params = replace(config.params, nu=nu)
    state = build_initial_state(config.spec, params, grid)
    errors = PairErrors(nu=nu)
    g_prev = h_prev = 0.0  # e_diss and aux integrands at the previous step
    du, scratch, square = (np.empty(grid.n_cells) for _ in range(3))

    def l2sq(values: np.ndarray) -> float:
        return float(np.square(values, out=square).sum() * dx)

    def observe(states, dt):
        nonlocal g_prev, h_prev
        state_r, state_n = states
        np.subtract(state_r.velocity(out=du), state_n.velocity(out=scratch), out=du)
        d_rho = l2sq(np.subtract(state_r.rho, state_n.rho, out=scratch))
        d_u = l2sq(du)
        d_b = l2sq(np.subtract(state_r.b, state_n.b, out=scratch))
        errors.e_sup_rho = max(errors.e_sup_rho, d_rho)
        errors.e_sup_u = max(errors.e_sup_u, d_u)
        errors.e_sup_b = max(errors.e_sup_b, d_b)
        errors.e_sup = max(errors.e_sup, d_rho + d_u + d_b)
        g = params.mu * l2sq(derivative(du, dx))
        h = nu**2 * l2sq(derivative(state_r.b, dx))
        errors.e_diss += 0.5 * dt * (g_prev + g)
        errors.aux += 0.5 * dt * (h_prev + h)
        g_prev, h_prev = g, h

    _, record = run_lockstep([(state, params), (state.copy(), replace(params, nu=0.0))],
                             config.scheme, grid, observe=observe)
    errors.e_total = errors.e_sup + errors.e_diss
    return errors, record


def fit_rate(nu_values, errors) -> tuple[float, float, float]:
    """Ordinary least squares of log(error) against log(nu).

    Returns (slope, intercept, rms residual); rejects non-positive errors.
    """
    nus = np.asarray(nu_values, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if len(nus) < 3:
        raise ValueError("need at least 3 points for a rate fit")
    if np.any(errs <= 0):
        raise ValueError("rate fit requires strictly positive errors (degenerate sweep)")
    lx, ly = np.log(nus), np.log(errs)
    lx_mean, ly_mean = lx.mean(), ly.mean()
    slope = float(np.sum((lx - lx_mean) * (ly - ly_mean)) / np.sum((lx - lx_mean) ** 2))
    intercept = float(ly_mean - slope * lx_mean)
    resid = ly - (slope * lx + intercept)
    return slope, intercept, float(np.sqrt(np.mean(resid**2)))


@dataclass
class GuardResult:
    """Grid-pollution audit of the smallest measured error functional.

    ``signal`` is e_total at the smallest nu on the sweep grid; ``proxy`` is
    how much that same matched-pair functional moves when the grid is doubled.
    A trustworthy sweep has signal >> proxy: the measured error then reflects
    the resistivity difference, not discretization residue.
    """

    proxy: float = 0.0
    signal: float = 0.0
    ratio: float = float("inf")
    passed: bool = True
    # counters of the doubled-grid pair; run bookkeeping, not part of the report
    telemetry: RunTelemetry | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        # strict JSON has no Infinity; None marks an exactly-zero proxy
        ratio = self.ratio if np.isfinite(self.ratio) else None
        return {"proxy": self.proxy, "signal": self.signal,
                "ratio": ratio, "passed": self.passed}


def grid_pollution_guard(nu_min: float, signal: float, config: RunConfig) -> GuardResult:
    """Re-measure e_total(nu_min) on a doubled grid and compare."""
    fine = replace(config, grid=Grid1D(config.grid.half_width, 2 * config.grid.n_cells))
    errors_fine, record = run_pair(nu_min, fine)
    proxy = abs(signal - errors_fine.e_total)
    ratio = signal / proxy if proxy > 0 else float("inf")
    return GuardResult(proxy=proxy, signal=signal, ratio=ratio,
                       passed=ratio >= GUARD_FACTOR, telemetry=record.telemetry)


@dataclass
class ConvergenceReport:
    """Per-nu error functionals, rate fits, guard outcome and provenance."""

    nu_values: list
    entries: list
    slope: float | None = None
    intercept: float | None = None
    fit_rms: float | None = None
    slope_u: float | None = None
    slope_aux: float | None = None
    fit_skipped_reason: str | None = None
    degenerate: bool = False
    superlinear_flagged: bool = False
    guard: GuardResult = field(default_factory=GuardResult)
    config_fingerprint: str = ""

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["entries"] = [e.as_dict() for e in self.entries]
        d["guard"] = self.guard.as_dict()
        return json.dumps(d, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ConvergenceReport":
        d = json.loads(text)
        d["entries"] = [PairErrors(**e) for e in d["entries"]]
        g = dict(d["guard"])
        if g.get("ratio") is None:
            g["ratio"] = float("inf")
        d["guard"] = GuardResult(**g)
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class SweepResult:
    report: ConvergenceReport
    records: list  # (nu, DiagnosticsRecord) for the resistive members


def _pair_task(args):
    nu, config = args
    try:
        errors, record = run_pair(nu, config)
        return nu, errors, record, None
    except SimulationError as exc:
        return nu, None, None, f"{type(exc).__name__}: {exc}"


def sweep(config: RunConfig, jobs: int = 1, run_guard: bool = True) -> SweepResult:
    """Run one matched pair per nu in ``config.nu_list``, fit the rates, apply the guard.

    Pairs are independent; with jobs > 1 they execute in separate processes.
    ``jobs`` is separate from ``config.jobs`` so that ``sweep --jobs`` can
    override it without changing the fingerprint the report carries.  Failed
    pairs are recorded and excluded from the fit.
    """
    requested = [float(v) for v in config.nu_list]
    nus = sorted(set(requested), reverse=True)
    if len(nus) != len(requested):
        raise ValueError("nu values must be distinct")
    if any(v < 0 for v in nus):
        raise ValueError("nu values must be non-negative")

    tasks = [(nu, config) for nu in nus]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_pair_task, tasks))
    else:
        results = [_pair_task(t) for t in tasks]

    entries = []
    records = []
    for nu, errors, record, failure in results:
        if failure is not None:
            entries.append(PairErrors(nu=nu, failed=failure))
        else:
            entries.append(errors)
            records.append((nu, record))

    report = ConvergenceReport(nu_values=nus, entries=entries,
                               config_fingerprint=config.fingerprint())
    good = [e for e in entries if e.failed is None]
    if len(good) < 3:
        report.fit_skipped_reason = "fewer than 3 usable resistivity values"
    elif max(e.nu for e in good) < MIN_DECADES_SPAN * min(e.nu for e in good):
        report.fit_skipped_reason = "resistivity values span fewer than two decades"
    elif any(e.e_total <= 0 for e in good):
        report.degenerate = True
        report.fit_skipped_reason = "degenerate sweep: non-positive error functionals"
    else:
        xs = [e.nu for e in good]
        report.slope, report.intercept, report.fit_rms = fit_rate(xs, [e.e_total for e in good])
        for attr, values in (("slope_u", [e.e_sup_u for e in good]),
                             ("slope_aux", [e.aux for e in good])):
            if all(v > 0 for v in values):
                setattr(report, attr, fit_rate(xs, values)[0])
        report.superlinear_flagged = report.slope > SUPERLINEAR_SLOPE

    if run_guard and report.fit_skipped_reason is None and not report.degenerate:
        smallest = min(good, key=lambda e: e.nu)
        report.guard = grid_pollution_guard(smallest.nu, smallest.e_total, config)
    return SweepResult(report=report, records=records)


__all__ = [
    "GUARD_FACTOR",
    "SUPERLINEAR_SLOPE",
    "PairErrors",
    "run_pair",
    "fit_rate",
    "GuardResult",
    "grid_pollution_guard",
    "ConvergenceReport",
    "SweepResult",
    "sweep",
]

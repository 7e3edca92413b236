"""Vanishing-resistivity convergence study.

One resistive run per resistivity nu and a single non-resistive (nu = 0)
reference advance in lockstep on the same grid with the identical dt
sequence (the smallest of the members' stability bounds), so
time-discretization and flux-scheme dissipation cancel in each resistive
run's difference from the reference.  The per-nu error functionals

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

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .config import RunConfig
from .core import Grid1D, derivative, viscous_velocity
from .diagnostics import DiagnosticsRecord, RunTelemetry, unfit_reason
from .errors import SimulationError
from .scenario import build_initial_state
from .solver import run_lockstep

GUARD_FACTOR = 10.0
SUPERLINEAR_SLOPE = 1.25


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


def run_group(nus, config: RunConfig, recorded: bool = True, telemetry: RunTelemetry | None = None
              ) -> tuple[list[PairErrors], list[DiagnosticsRecord]]:
    """Evolve one resistive member per nu and one shared non-resistive reference in lockstep.

    Every member starts from the configured scenario, physics and grid; only
    nu differs.  Returns, in the order of ``nus``, each resistive member's
    error functionals against the reference and its diagnostics record (for
    the resistivity-independence audit), which counts that member's clips
    alone; unrecorded, no records.  The group's counters are added to
    ``telemetry``.  A failure leaves with ``exc.member``, the index into
    ``nus`` of the member that raised, or ``len(nus)`` for the reference.
    """
    grid = config.grid
    dx = grid.dx
    mu, rho_bar = config.params.mu, config.params.rho_bar
    reference = replace(config.params, nu=0.0)
    state = build_initial_state(config.spec, reference, grid)
    errors = [PairErrors(nu=nu) for nu in nus]
    g_prev = [0.0] * len(nus)  # e_diss integrand of each member at the previous step
    h_prev = [0.0] * len(nus)  # aux integrand

    def l2sq(values: np.ndarray) -> float:
        return float((values**2).sum() * dx)

    def observe(states, dt):
        # u is the velocity viscosity acts on, as in the records' diss_u and l2_ux
        state_n = states[-1]
        ref_u = viscous_velocity(state_n.mom, state_n.rho, rho_bar)
        for i, (state_r, e, nu) in enumerate(zip(states, errors, nus)):
            du = viscous_velocity(state_r.mom, state_r.rho, rho_bar) - ref_u
            d_rho = l2sq(state_r.rho - state_n.rho)
            d_u = l2sq(du)
            d_b = l2sq(state_r.b - state_n.b)
            e.e_sup_rho = max(e.e_sup_rho, d_rho)
            e.e_sup_u = max(e.e_sup_u, d_u)
            e.e_sup_b = max(e.e_sup_b, d_b)
            e.e_sup = max(e.e_sup, d_rho + d_u + d_b)
            g = mu * l2sq(derivative(du, dx))
            h = nu**2 * l2sq(derivative(state_r.b, dx))
            e.e_diss += 0.5 * dt * (g_prev[i] + g)
            e.aux += 0.5 * dt * (h_prev[i] + h)
            g_prev[i], h_prev[i] = g, h

    members = [(state.copy(), replace(config.params, nu=nu)) for nu in nus]
    _, records = run_lockstep(members + [(state, reference)], config.scheme, grid,
                              observe=observe, recorded=len(nus) if recorded else 0,
                              telemetry=telemetry)
    for e in errors:
        e.e_total = e.e_sup + e.e_diss
    return errors, records


def fit_rate(nu_values, errors) -> tuple[float, float, float]:
    """Ordinary least squares of log(error) against log(nu).

    Returns (slope, intercept, rms residual); rejects errors that are not positive.
    """
    nus = np.asarray(nu_values, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if len(nus) < 3:
        raise ValueError("need at least 3 points for a rate fit")
    if not np.all(errs > 0):  # NaN included
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
    the resistivity difference, not discretization residue.  A failed
    doubled-grid pair, or a non-finite proxy, does not pass: its ratio is 0,
    and ``failed`` (reported only if set) says why.
    """

    proxy: float = 0.0
    signal: float = 0.0
    ratio: float = float("inf")
    passed: bool = True
    failed: str | None = None
    # counters of the doubled-grid pair; run bookkeeping, not part of the report
    telemetry: RunTelemetry | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        # strict JSON has no Infinity; None marks an exactly-zero proxy
        ratio = self.ratio if np.isfinite(self.ratio) else None
        failed = {"failed": self.failed} if self.failed is not None else {}
        return {"proxy": self.proxy, "signal": self.signal,
                "ratio": ratio, "passed": self.passed, **failed}


def _doubled(config: RunConfig) -> RunConfig:
    return replace(config, grid=Grid1D(config.grid.half_width, 2 * config.grid.n_cells))


def _guard_result(signal: float, fine_group: tuple[list, list, RunTelemetry]) -> GuardResult:
    (fine,), _, telemetry = fine_group
    proxy = abs(signal - fine.e_total)
    failed = fine.failed
    if failed is None and not np.isfinite(proxy):
        failed = f"non-finite proxy: signal {signal!r}, doubled-grid e_total {fine.e_total!r}"
    if failed:
        return GuardResult(signal=signal, ratio=0.0, passed=False, failed=failed,
                           telemetry=telemetry)
    ratio = signal / proxy if proxy > 0 else float("inf")
    return GuardResult(proxy=proxy, signal=signal, ratio=ratio,
                       passed=ratio >= GUARD_FACTOR, telemetry=telemetry)


def grid_pollution_guard(nu_min: float, signal: float, config: RunConfig) -> GuardResult:
    """Re-measure e_total(nu_min) on a doubled grid and compare.

    The doubled-grid pair runs unrecorded, and fails as a sweep member does.
    """
    return _guard_result(signal, _sweep_group([nu_min], _doubled(config), recorded=False))


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
    guard: GuardResult | None = None  # None: the fit, and so the guard, was skipped
    config_fingerprint: str = ""

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["entries"] = [e.as_dict() for e in self.entries]
        d["guard"] = self.guard.as_dict() if self.guard is not None else None
        return json.dumps(d, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ConvergenceReport":
        d = json.loads(text)
        d["entries"] = [PairErrors(**e) for e in d["entries"]]
        g = d["guard"]
        if g is not None and g.get("ratio") is None:
            g["ratio"] = float("inf")
        d["guard"] = GuardResult(**g) if g is not None else None
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass
class SweepResult:
    report: ConvergenceReport
    records: list  # (nu, DiagnosticsRecord) for the resistive members
    telemetry: RunTelemetry  # counters of the lockstep group, summed over its re-runs
    wall_s: dict = field(default_factory=dict)  # "group", and "guard" when the fit ran


def _sweep_group(nus: list, config: RunConfig, recorded=True) -> tuple[list, list, RunTelemetry]:
    """Run the lockstep group over ``nus``, dropping each member that fails.

    A failed member is marked with its own message and the group re-runs
    from t = 0 without it; when the reference fails, every remaining nu
    fails with its message; nothing raises.  Returns the entry of every nu in
    order, the (nu, record) pairs of the survivors (none when unrecorded)
    and one telemetry that every attempt added its counters to.
    """
    live = list(nus)
    failed = {}
    telemetry = RunTelemetry()
    errors, records = [], []
    while live:
        try:
            errors, records = run_group(live, config, recorded, telemetry)
            break
        except SimulationError as exc:
            single = exc.member is not None and exc.member < len(live)
            for nu in [live[exc.member]] if single else list(live):
                failed[nu] = f"{type(exc).__name__}: {exc}"
                live.remove(nu)
    done = dict(zip(live, errors))
    entries = [done[nu] if nu in done else PairErrors(nu=nu, failed=failed[nu]) for nu in nus]
    return entries, list(zip(live, records)), telemetry


def sweep(config: RunConfig) -> SweepResult:
    """Run one lockstep group over ``config.nu_list``, fit the rates, apply the guard.

    The group holds one resistive member per nu, each distinct and positive
    by ``RunConfig``'s rule, and a shared non-resistive reference.  Failed
    members are marked and excluded from the fit; a failed guard pair is
    marked in ``report.guard`` the same way, and nothing raises.  The guard
    runs exactly when the fit does.  With ``config.jobs`` > 1 its doubled-grid
    pair runs in a worker process beside the group, started whenever the nu
    list allows a fit; its result, a failure included, is used only if the
    guard is due, so the report does not depend on ``jobs``.  The spawned
    worker re-imports the caller's main module; if that kills it (a script
    without an ``if __name__ == "__main__":`` guard), the guard runs serially
    instead.
    """
    nus = sorted(config.nu_list, reverse=True)
    early = config.jobs > 1 and unfit_reason(nus) is None
    if early:  # imported here: a serial sweep, and every other command, never needs them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    # spawn, not fork: the worker starts from a fresh import of this package.  A
    # worker that dies breaks the executor, where a Pool would restart it forever.
    with (ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) if early
          else contextlib.nullcontext()) as pool:
        early_guard = (pool.submit(_sweep_group, [min(nus)], _doubled(config), False)
                       if pool is not None else None)
        start = time.perf_counter()
        entries, records, telemetry = _sweep_group(nus, config)
        wall_s = {"group": time.perf_counter() - start}

        report = ConvergenceReport(nu_values=nus, entries=entries,
                                   config_fingerprint=config.fingerprint())
        good = [e for e in entries if e.failed is None]
        report.fit_skipped_reason = unfit_reason([e.nu for e in good])
        if report.fit_skipped_reason is None and any(not e.e_total > 0 for e in good):
            report.degenerate = True
            report.fit_skipped_reason = "degenerate sweep: non-positive error functionals"
        if report.fit_skipped_reason is None:
            xs = [e.nu for e in good]
            report.slope, report.intercept, report.fit_rms = fit_rate(xs, [e.e_total for e in good])
            for attr, values in (("slope_u", [e.e_sup_u for e in good]),
                                 ("slope_aux", [e.aux for e in good])):
                if all(v > 0 for v in values):
                    setattr(report, attr, fit_rate(xs, values)[0])
            report.superlinear_flagged = report.slope > SUPERLINEAR_SLOPE

            smallest = min(good, key=lambda e: e.nu)
            start = time.perf_counter()  # with a worker, the wait for its result
            if early_guard is not None and smallest.nu == min(nus):
                with contextlib.suppress(BrokenProcessPool):  # a dead worker: run it here
                    report.guard = _guard_result(smallest.e_total, early_guard.result())
            if report.guard is None:
                report.guard = grid_pollution_guard(smallest.nu, smallest.e_total, config)
            wall_s["guard"] = time.perf_counter() - start
    return SweepResult(report=report, records=records, telemetry=telemetry, wall_s=wall_s)


__all__ = [
    "GUARD_FACTOR",
    "SUPERLINEAR_SLOPE",
    "PairErrors",
    "run_group",
    "fit_rate",
    "GuardResult",
    "grid_pollution_guard",
    "ConvergenceReport",
    "SweepResult",
    "sweep",
]

"""Functional evaluation and time-series records for solution audits.

Every quantity with an a-priori bound gets a column: energies (plain and
|x|^alpha-weighted), accumulated viscous/resistive dissipation, sup norms of
the fields, perturbation norms, derivative norms, the flux-identity residual
and the momentum potential.  A resistivity sweep is audited by comparing the
sup-in-time values of these columns across runs: quantities whose bounds do
not depend on the resistivity must show small relative spread.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    RHO_FLOOR,
    FieldScalar,
    Grid1D,
    PhysParams,
    RhsOutput,
    State,
    derivative,
    effective_viscous_flux,
    material_derivative,
    potential_energy,
    pressure,
    second_derivative,
    viscous_velocity,
)

COLUMNS = [
    "t",
    "energy",
    "energy_weighted",
    "diss_u",
    "diss_b",
    "diss_u_weighted",
    "diss_b_weighted",
    "sup_rho",
    "sup_abs_b",
    "sup_abs_u",
    "l2_rho_pert",
    "l4_b_pert",
    "l6_b_pert_accum",
    "l2_ux",
    "l2_bx",
    "l2_rhox",
    "l2_rho_t",
    "l2_b_t",
    "l2_sqrt_rho_udot",
    "flux_residual",
    "xi_sup",
    "clip_count",
]

# Relative spread above which nu_independence_report flags a supposedly
# resistivity-independent quantity (the sweep does not run that audit).
SPREAD_TOLERANCE = 0.10


def lp_norm(values: FieldScalar, p, grid: Grid1D) -> float:
    """Discrete Lp norm: (sum |f|^p dx)^(1/p), or max|f| for p = inf."""
    f = np.asarray(values, dtype=float)
    if p in ("inf", np.inf):
        return float(np.max(np.abs(f))) if f.size else 0.0
    if p not in (2, 4, 6):
        raise ValueError(f"unsupported norm order {p!r}")
    return float(((np.abs(f) ** p).sum() * grid.dx) ** (1.0 / p))


@lru_cache(maxsize=4)
def _spreading_weight(grid: Grid1D, alpha: float) -> FieldScalar:
    """|x|^alpha at the grid nodes, computed once per (grid, alpha) and read-only."""
    weight = np.abs(grid.x) ** alpha
    weight.flags.writeable = False
    return weight


def _weighted_l2_of_square(square: FieldScalar, weight: FieldScalar, dx: float) -> float:
    return float(np.sqrt((square * weight).sum() * dx))


def weighted_l2(values: FieldScalar, alpha: float, grid: Grid1D) -> float:
    """(sum f^2 |x|^alpha dx)^(1/2)."""
    f = np.asarray(values, dtype=float)
    return _weighted_l2_of_square(f**2, _spreading_weight(grid, alpha), grid.dx)


def energy_density(state: State, params: PhysParams) -> FieldScalar:
    """Pointwise rho*u^2/2 + Phi(rho) + (b - b_bar)^2/2."""
    u = state.velocity()
    return (
        0.5 * state.rho * u**2
        + potential_energy(state.rho, params.gamma, params.rho_bar)
        + 0.5 * (state.b - params.b_bar) ** 2
    )


def total_energy(state: State, params: PhysParams, grid: Grid1D) -> float:
    """Trapezoid integral of the energy density; zero only at the far-field state."""
    return float(np.trapezoid(energy_density(state, params), dx=grid.dx))


def weighted_energy(state: State, params: PhysParams, grid: Grid1D) -> float:
    """Energy integral with the spreading weight |x|^alpha."""
    integrand = energy_density(state, params) * _spreading_weight(grid, params.alpha)
    return float(np.trapezoid(integrand, dx=grid.dx))


def momentum_potential(state: State, grid: Grid1D) -> FieldScalar:
    """xi(x) = integral of rho*u from the left boundary (cumulative trapezoid).

    With far-field u -> 0 the lower limit contributes nothing, so xi(x_0) = 0.
    """
    m = state.mom
    xi = np.empty_like(m)
    xi[0] = 0.0
    np.cumsum(0.5 * (m[1:] + m[:-1]) * grid.dx, out=xi[1:])
    return xi


def velocity_tendency(state: State, tendencies) -> FieldScalar:
    """u_t = (m_t - u*rho_t) / max(rho, RHO_FLOOR) from the tendencies of rho and m."""
    u = state.velocity()
    return (tendencies.d_mom - u * tendencies.d_rho) / np.maximum(state.rho, RHO_FLOOR)


def _flux_residual(state: State, udot: FieldScalar, params: PhysParams, grid: Grid1D) -> float:
    flux = effective_viscous_flux(state, params, grid)
    return lp_norm(state.rho * udot - derivative(flux, grid.dx), 2, grid)


def flux_identity_residual(state: State, tendencies, params: PhysParams, grid: Grid1D) -> float:
    """L2 norm of rho*du/dt - F_x; vanishes at the scheme's order on smooth states.

    ``tendencies`` is an ``RhsOutput`` of the full semi-discrete tendency, from
    ``solver.tendencies`` or ``central_tendencies``.
    """
    udot = material_derivative(state, velocity_tendency(state, tendencies), grid)
    return _flux_residual(state, udot, params, grid)


def central_tendencies(state: State, params: PhysParams, grid: Grid1D) -> RhsOutput:
    """Tendencies evaluated with this module's central stencils only.

    The production scheme's interface fluxes carry slope-limiter kinks near
    extrema; this limiter-free evaluation converges cleanly at second order
    and is the reference for flux-identity audits.
    """
    dx = grid.dx
    u = state.velocity()
    p = pressure(state.rho, params.gamma)
    d_rho = -derivative(state.mom, dx)
    d_mom = -derivative(state.mom * u + p + 0.5 * state.b**2, dx) \
        + params.mu * second_derivative(u, dx)
    d_b = -derivative(u * state.b, dx)
    if params.nu > 0:
        d_b = d_b + params.nu * second_derivative(state.b, dx)
    return RhsOutput(d_rho=d_rho, d_mom=d_mom, d_b=d_b)


@dataclass
class Accumulators:
    """Time integrals of one run, updated every accepted step (trapezoid in time)."""

    diss_u: float = 0.0
    diss_b: float = 0.0
    diss_u_weighted: float = 0.0
    diss_b_weighted: float = 0.0
    l6_b_pert: float = 0.0
    clip_count: int = 0  # density clips of this run alone
    _last: tuple | None = None

    def integrand(self, state: State, params: PhysParams, grid: Grid1D) -> tuple:
        """Integrands of the five accumulators at one instant."""
        dx = grid.dx
        weight = _spreading_weight(grid, params.alpha)
        u_x2 = derivative(viscous_velocity(state.mom, state.rho, params.rho_bar), dx) ** 2
        b_x2 = derivative(state.b, dx) ** 2
        return (
            params.mu * u_x2.sum() * dx,
            params.nu * b_x2.sum() * dx,
            params.mu * _weighted_l2_of_square(u_x2, weight, dx) ** 2,
            params.nu * _weighted_l2_of_square(b_x2, weight, dx) ** 2,
            lp_norm(state.b - params.b_bar, 6, grid) ** 6,
        )

    def start(self, state: State, params: PhysParams, grid: Grid1D):
        self._last = self.integrand(state, params, grid)

    def advance(self, state: State, params: PhysParams, grid: Grid1D, dt: float):
        cur = self.integrand(state, params, grid)
        prev = self._last
        half_dt = 0.5 * dt
        self.diss_u += half_dt * (prev[0] + cur[0])
        self.diss_b += half_dt * (prev[1] + cur[1])
        self.diss_u_weighted += half_dt * (prev[2] + cur[2])
        self.diss_b_weighted += half_dt * (prev[3] + cur[3])
        self.l6_b_pert += half_dt * (prev[4] + cur[4])
        self._last = cur


@dataclass
class RunTelemetry:
    """Deterministic counters of one time-stepping run.

    Each accepted step is counted under the bound that set its dt: the
    advective CFL bound or the landing on a sample time.  ``rhs_evals``
    counts every right-hand-side evaluation, RK stages of every member and
    the diagnostics samples alike.  ``diffusion_stages`` sums the RKL2 stage
    count over every diffusion half-step (two per step); every member of a
    lockstep group takes that many.  ``clips`` counts the density clips to
    zero of every member; a record's ``clip_count`` counts its own member's.
    """

    steps: int = 0
    rhs_evals: int = 0
    dt_advective: int = 0
    dt_sample_landing: int = 0
    diffusion_stages: int = 0
    clips: int = 0
    peak_boundary_deviation: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class DiagnosticsRecord:
    """Time series with one row per sample; columns as in COLUMNS.

    The counters of the run that produced the rows are the caller's
    ``RunTelemetry``, not part of the record.
    """

    rows: list = field(default_factory=list)

    def append(self, row: dict):
        self.rows.append([float(row[c]) for c in COLUMNS])

    def column(self, name: str) -> np.ndarray:
        idx = COLUMNS.index(name)
        return np.array([r[idx] for r in self.rows])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    def sup(self, name: str) -> float:
        return float(np.max(self.column(name)))

    def final(self, name: str) -> float:
        return float(self.rows[-1][COLUMNS.index(name)])

    def validate(self):
        if not self.rows:
            raise ValueError("diagnostics record has no rows")
        data = np.array(self.rows)
        if not np.all(np.isfinite(data)):
            raise ValueError("diagnostics record contains non-finite entries")
        t = data[:, 0]
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        for name in ("diss_u", "diss_b", "diss_u_weighted", "diss_b_weighted",
                     "l6_b_pert_accum", "clip_count"):
            col = self.column(name)
            if len(col) > 1 and np.any(np.diff(col) < 0):
                raise ValueError(f"accumulator column {name} must be non-decreasing")

    def to_csv(self) -> str:
        lines = [",".join(COLUMNS)]
        for r in self.rows:
            lines.append(",".join(repr(v) for v in r))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "DiagnosticsRecord":
        lines = text.strip().splitlines()
        if not lines or lines[0].split(",") != COLUMNS:
            raise ValueError("unexpected diagnostics CSV header")
        rec = cls()
        for number, ln in enumerate(lines[1:], start=2):
            values = ln.split(",")
            if len(values) != len(COLUMNS):
                raise ValueError(f"CSV line {number} has {len(values)} fields, not {len(COLUMNS)}")
            rec.rows.append([float(v) for v in values])
        return rec


def sample(state: State, rhs_output, params: PhysParams, grid: Grid1D,
           accum: Accumulators) -> dict:
    """Evaluate every record column at one instant.

    ``l2_ux`` and the viscous flux inside ``flux_residual`` differentiate the
    viscous velocity m/max(rho, viscous floor), the velocity the scheme's
    viscosity acts on and ``diss_u`` integrates; it equals m/rho wherever
    the density is at least the floor.  ``sup_abs_u`` reads m/max(rho,
    RHO_FLOOR).
    """
    u = state.velocity()
    b_pert = state.b - params.b_bar
    energy = energy_density(state, params)  # total_energy's and weighted_energy's integrand
    udot = material_derivative(state, velocity_tendency(state, rhs_output), grid)
    return {
        "t": state.t,
        "energy": float(np.trapezoid(energy, dx=grid.dx)),
        "energy_weighted": float(np.trapezoid(energy * _spreading_weight(grid, params.alpha),
                                              dx=grid.dx)),
        "diss_u": accum.diss_u,
        "diss_b": accum.diss_b,
        "diss_u_weighted": accum.diss_u_weighted,
        "diss_b_weighted": accum.diss_b_weighted,
        "sup_rho": float(np.max(state.rho)),
        "sup_abs_b": lp_norm(state.b, "inf", grid),
        "sup_abs_u": lp_norm(u, "inf", grid),
        "l2_rho_pert": lp_norm(state.rho - params.rho_bar, 2, grid),
        "l4_b_pert": lp_norm(b_pert, 4, grid),
        "l6_b_pert_accum": accum.l6_b_pert,
        "l2_ux": lp_norm(derivative(viscous_velocity(state.mom, state.rho, params.rho_bar),
                                    grid.dx), 2, grid),
        "l2_bx": lp_norm(derivative(state.b, grid.dx), 2, grid),
        "l2_rhox": lp_norm(derivative(state.rho, grid.dx), 2, grid),
        "l2_rho_t": lp_norm(rhs_output.d_rho, 2, grid),
        "l2_b_t": lp_norm(rhs_output.d_b, 2, grid),
        "l2_sqrt_rho_udot": lp_norm(np.sqrt(state.rho) * udot, 2, grid),
        "flux_residual": _flux_residual(state, udot, params, grid),
        "xi_sup": lp_norm(momentum_potential(state, grid), "inf", grid),
        "clip_count": accum.clip_count,
    }


def energy_drift(record: DiagnosticsRecord) -> float:
    """Largest relative increase of E(t) + D_u(t) + D_b(t) over its running minimum.

    Zero for a perfectly dissipative discrete trajectory; the scheme's
    quadrature noise allows a small positive drift.  It is undefined at E(0) = 0.
    """
    m = record.column("energy") + record.column("diss_u") + record.column("diss_b")
    if m[0] == 0.0:
        raise ValueError("relative energy drift is undefined at E(0) = 0")
    running_min = np.minimum.accumulate(m)
    return float(np.max(m - running_min) / abs(m[0]))


# Quantities whose sup-in-time values must not depend on the resistivity.
# diss_b is reported alongside but excluded: its definition carries nu.
MONITORED = [
    ("sup_rho", "sup", "sup_rho"),
    ("sup_abs_b", "sup", "sup_abs_b"),
    ("sup_l2_ux", "sup", "l2_ux"),
    ("sup_l2_rhox", "sup", "l2_rhox"),
    ("energy", "sup", "energy"),
    ("energy_weighted", "sup", "energy_weighted"),
    ("diss_u", "final", "diss_u"),
    ("sup_l2_sqrt_rho_udot", "sup", "l2_sqrt_rho_udot"),
    ("sup_abs_u", "sup", "sup_abs_u"),
    ("sup_l4_b_pert", "sup", "l4_b_pert"),
    ("l6_b_pert_accum", "final", "l6_b_pert_accum"),
    ("sup_l2_bx", "sup", "l2_bx"),
]

EXCLUDED = [("diss_b", "final", "diss_b")]


@dataclass(frozen=True)
class QuantitySpread:
    name: str
    values: tuple
    spread: float
    flagged: bool
    excluded: bool


@dataclass
class NuIndependenceReport:
    nu_values: tuple
    rows: list

    @property
    def flagged(self) -> list:
        return [r.name for r in self.rows if r.flagged]

    def to_text(self) -> str:
        nus = ", ".join(f"{v:g}" for v in self.nu_values)
        lines = [f"{'quantity':<24} {'spread':>10}  flag  values (nu = [{nus}])"]
        for r in self.rows:
            tag = "EXCL" if r.excluded else ("FLAG" if r.flagged else "ok")
            vals = " ".join(f"{v:.6e}" for v in r.values)
            lines.append(f"{r.name:<24} {r.spread:>10.3e}  {tag:<4}  {vals}")
        return "\n".join(lines)


def _relative_spread(values: np.ndarray) -> float:
    top = float(np.max(np.abs(values)))
    if top == 0.0:
        return 0.0
    return float((np.max(values) - np.min(values)) / top)


def nu_independence_report(entries: list[tuple[float, DiagnosticsRecord, str]]) -> NuIndependenceReport:
    """Compare sup-in-time quantities across a resistivity sweep.

    ``entries`` holds (nu, record, config_fingerprint) triples from runs that
    differ only in nu; at least 3 values spanning two decades are required.
    """
    if len(entries) < 3:
        raise ValueError("need at least 3 resistivity values")
    nus = np.array([e[0] for e in entries], dtype=float)
    if np.max(nus) / max(np.min(nus), 1e-300) < 100.0:
        raise ValueError("resistivity values must span at least two decades")
    fps = {e[2] for e in entries}
    if len(fps) > 1:
        raise ValueError("records come from mismatched configurations")

    rows = []
    for name, kind, col in MONITORED:
        vals = np.array([getattr(rec, kind)(col) for _, rec, _ in entries])
        spread = _relative_spread(vals)
        rows.append(QuantitySpread(name, tuple(vals), spread, spread > SPREAD_TOLERANCE, False))
    for name, kind, col in EXCLUDED:
        vals = np.array([getattr(rec, kind)(col) for _, rec, _ in entries])
        rows.append(QuantitySpread(name, tuple(vals), _relative_spread(vals), False, True))
    return NuIndependenceReport(nu_values=tuple(nus), rows=rows)


__all__ = [
    "COLUMNS",
    "SPREAD_TOLERANCE",
    "lp_norm",
    "weighted_l2",
    "energy_density",
    "total_energy",
    "weighted_energy",
    "momentum_potential",
    "velocity_tendency",
    "flux_identity_residual",
    "central_tendencies",
    "Accumulators",
    "RunTelemetry",
    "DiagnosticsRecord",
    "sample",
    "energy_drift",
    "NuIndependenceReport",
    "QuantitySpread",
    "nu_independence_report",
]

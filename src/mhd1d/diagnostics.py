"""Functional evaluation and time-series records for solution audits.

Every quantity with an a-priori bound gets a column: energies (plain and
|x|^2-weighted), accumulated viscous/resistive dissipation, sup norms of
the fields, perturbation norms, derivative norms, the flux-identity residual
and the momentum potential.  A resistivity sweep is audited by comparing the
sup-in-time values of these columns across runs, over a list ``unfit_reason``
accepts: quantities whose bounds do not depend on the resistivity must show
small relative spread.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    RHO_BAR,
    RHO_FLOOR,
    FieldScalar,
    Grid1D,
    PhysParams,
    State,
    derivative,
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

# Admissible data have a finite |x|^alpha energy moment for some alpha in (1, 2]; the
# energy and the alpha = 2 moment together bound every one of them.
SPREADING_ALPHA = 2.0

MIN_DECADES_SPAN = 100.0


def unfit_reason(nus) -> str | None:
    """Why a rate fit or spread audit over these resistivities would be skipped, if it would."""
    if len(nus) < 3:
        return "fewer than 3 usable resistivity values"
    # the slack absorbs rounding: 3e-4 over 3e-6 is 99.99999999999999 in floats
    if max(nus) < (1.0 - 1e-12) * MIN_DECADES_SPAN * min(nus):
        return "resistivity values span fewer than two decades"
    return None


def _trapezoid(f: FieldScalar, dx: float) -> float:  # np.trapezoid's operations, unwrapped
    return float(np.add.reduce(dx * (f[1:] + f[:-1]) / 2.0))


def lp_norm(values: FieldScalar, p, grid: Grid1D) -> float:
    """Discrete Lp norm: (sum |f|^p dx)^(1/p), or max|f| for p = "inf"."""
    f = np.asarray(values, dtype=float)
    if p == 2:  # the sampled norms: |f|^2 is f^2
        return float((np.add.reduce(np.square(f)) * grid.dx) ** 0.5)
    if p == "inf":
        return float(np.max(np.abs(f))) if f.size else 0.0
    if p not in (2, 4, 6):
        raise ValueError(f"unsupported norm order {p!r}")
    return float(((np.abs(f) ** p).sum() * grid.dx) ** (1.0 / p))


@lru_cache(maxsize=4)
def _spreading_weight(grid: Grid1D) -> FieldScalar:
    """|x|^SPREADING_ALPHA at the grid nodes, computed once per grid and read-only."""
    weight = np.abs(grid.x) ** SPREADING_ALPHA
    weight.flags.writeable = False
    return weight


def _weighted_l2_of_square(square: FieldScalar, weight: FieldScalar, dx: float) -> float:
    return float(np.sqrt((square * weight).sum() * dx))


def energy_density(state: State, params: PhysParams) -> FieldScalar:
    """Pointwise rho*u^2/2 + Phi(rho) + (b - b_bar)^2/2."""
    u = state.velocity()
    return (
        0.5 * state.rho * u**2
        + potential_energy(state.rho, params.gamma, RHO_BAR)
        + 0.5 * (state.b - params.b_bar) ** 2
    )


def weighted_energy(state: State, params: PhysParams, grid: Grid1D) -> float:
    """Energy integral with the spreading weight |x|^SPREADING_ALPHA."""
    integrand = energy_density(state, params) * _spreading_weight(grid)
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


def _flux_identity(state: State, tendencies, params: PhysParams, dx: float, w_x) -> tuple:
    """(u, du/dt, F, rho*du/dt - F_x): u = m/max(rho, RHO_FLOOR), du/dt = u_t + u*u_x with
    u_t = (m_t - u*rho_t)/max(rho, RHO_FLOOR) from the (3, n) tendencies, and the flux
    F = mu*w_x - (P(rho) - P(RHO_BAR) + (b^2 - b_bar^2)/2) of rho*du/dt = F_x."""
    rho_safe = np.maximum(state.rho, RHO_FLOOR)
    u = state.mom / rho_safe
    udot = (tendencies[1] - u * tendencies[0]) / rho_safe + u * derivative(u, dx)
    flux = params.mu * w_x - (pressure(state.rho, params.gamma) - RHO_BAR**params.gamma
                              + 0.5 * (np.square(state.b) - params.b_bar**2))
    return u, udot, flux, state.rho * udot - derivative(flux, dx)


def flux_identity_residual(state: State, tendencies, params: PhysParams, grid: Grid1D) -> float:
    """L2 norm of rho*du/dt - F_x; vanishes at the scheme's order on smooth states.

    ``tendencies`` is the (3, n) full semi-discrete tendency, from
    ``solver.tendencies`` or ``central_tendencies``.
    """
    w_x = _gradients(state, grid.dx)[0]
    return lp_norm(_flux_identity(state, tendencies, params, grid.dx, w_x)[3], 2, grid)


def central_tendencies(state: State, params: PhysParams, grid: Grid1D) -> np.ndarray:
    """The (3, n) tendencies evaluated with this module's central stencils only.

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
    return np.array((d_rho, d_mom, d_b))


def _gradients(state: State, dx: float) -> tuple:
    """(w_x, w_x^2, b_x^2), w the viscous velocity: ``integrand``'s, and w_x for F."""
    w_x = derivative(viscous_velocity(state.mom, state.rho), dx)
    return w_x, w_x**2, derivative(state.b, dx) ** 2


# The running-total columns, by their CSV names, in ``Accumulators.integrand``'s order.
ACCUMULATED = ("diss_u", "diss_b", "diss_u_weighted", "diss_b_weighted", "l6_b_pert_accum")


@dataclass
class Accumulators:
    """Time integrals of one run, updated every accepted step (trapezoid in time).

    ``totals`` maps each ``ACCUMULATED`` column to its running total;
    ``clip_count`` counts this run's density clips.
    """

    totals: dict = field(default_factory=lambda: dict.fromkeys(ACCUMULATED, 0.0))
    clip_count: int = 0
    _last: tuple | None = None
    _fields: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def integrand(self, state: State, params: PhysParams, grid: Grid1D) -> tuple:
        """Integrands of the ``ACCUMULATED`` columns at one instant; keeps w_x and the sums
        of w_x^2 and b_x^2 for ``sample`` of this state, held weakly so it can be freed."""
        dx = grid.dx
        weight = _spreading_weight(grid)
        w_x, u_x2, b_x2 = _gradients(state, dx)
        self._fields = weakref.ref(state), w_x, u_x2.sum(), b_x2.sum()
        return (
            params.mu * self._fields[2] * dx,
            params.nu * self._fields[3] * dx,
            params.mu * _weighted_l2_of_square(u_x2, weight, dx) ** 2,
            params.nu * _weighted_l2_of_square(b_x2, weight, dx) ** 2,
            lp_norm(state.b - params.b_bar, 6, grid) ** 6,
        )

    def start(self, state: State, params: PhysParams, grid: Grid1D):
        self._last = self.integrand(state, params, grid)

    def advance(self, state: State, params: PhysParams, grid: Grid1D, dt: float):
        cur = self.integrand(state, params, grid)
        half_dt = 0.5 * dt
        for name, prev, now in zip(ACCUMULATED, self._last, cur):
            self.totals[name] += half_dt * (prev + now)
        self._last = cur


@dataclass
class RunTelemetry:
    """Deterministic counters of one time-stepping run.

    Each accepted step is counted under the bound that set its dt: the
    advective CFL bound or the landing on a sample time.  ``rhs_evals``
    counts every right-hand-side evaluation, RK stages of every member and
    the diagnostics samples alike.  ``diffusion_stages`` sums the viscous
    block's RKL2 stages over every half-step (two per step), a count every
    member takes; ``resistive_stages`` sums the b block's over every member
    and half-step.  ``clips`` counts the density clips to zero of every
    member; a record's ``clip_count`` counts its own member's.
    """

    steps: int = 0
    rhs_evals: int = 0
    dt_advective: int = 0
    dt_sample_landing: int = 0
    diffusion_stages: int = 0
    resistive_stages: int = 0
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
        for name in (*ACCUMULATED, "clip_count"):
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
    """Evaluate every record column at one instant, each formula by its one spelling.

    ``l2_ux`` and the viscous flux inside ``flux_residual`` differentiate the
    viscous velocity w = m/viscous_density(rho), the velocity the scheme's
    viscosity acts on and ``diss_u`` integrates; ``sup_abs_u`` reads
    u = m/max(rho, RHO_FLOOR).  w_x and the sums of w_x^2 and b_x^2 are those of
    ``accum``'s last ``integrand``, which must have been of this very state object,
    as it is in ``run_lockstep``, whose states are read-only; else ValueError.
    """
    if accum._fields is None or accum._fields[0]() is not state:
        raise ValueError("the accumulators' last integrand is not of the sampled state")
    _, w_x, u_x2_sum, b_x2_sum = accum._fields
    dx, rho, b = grid.dx, state.rho, state.b
    u, udot, _, residual = _flux_identity(state, rhs_output, params, dx, w_x)
    energy = energy_density(state, params)
    return {
        "t": state.t,
        "energy": _trapezoid(energy, dx),
        "energy_weighted": _trapezoid(energy * _spreading_weight(grid), dx),
        "sup_rho": float(rho.max()),
        "sup_abs_b": float(np.abs(b).max()),
        "sup_abs_u": float(np.abs(u).max()),
        "l2_rho_pert": lp_norm(rho - RHO_BAR, 2, grid),
        "l4_b_pert": lp_norm(b - params.b_bar, 4, grid),
        "l2_ux": float((u_x2_sum * dx) ** 0.5),
        "l2_bx": float((b_x2_sum * dx) ** 0.5),
        "l2_rhox": lp_norm(derivative(rho, dx), 2, grid),
        "l2_rho_t": lp_norm(rhs_output[0], 2, grid),
        "l2_b_t": lp_norm(rhs_output[2], 2, grid),
        "l2_sqrt_rho_udot": lp_norm(np.sqrt(rho) * udot, 2, grid),
        "flux_residual": lp_norm(residual, 2, grid),
        "xi_sup": float(np.abs(momentum_potential(state, grid)).max()),
        **accum.totals,
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


# The audited quantities as (name, DiagnosticsRecord reduction, column): their
# sup-in-time values must not depend on the resistivity, bar EXCLUDED's.
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
    ("diss_b", "final", "diss_b"),
]

# Reported but never flagged: diss_b's definition carries nu.
EXCLUDED = {"diss_b"}


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


def _relative_spread(values: np.ndarray) -> float:
    top = float(np.max(np.abs(values)))
    if top == 0.0:
        return 0.0
    return float((np.max(values) - np.min(values)) / top)


def nu_independence_report(entries: list[tuple[float, DiagnosticsRecord]]) -> NuIndependenceReport:
    """Compare sup-in-time quantities across a resistivity sweep.

    ``entries`` holds (nu, record) pairs from runs that differ only in nu, as
    one sweep's records do; a list ``unfit_reason`` rejects raises its reason.
    """
    nus = np.array([nu for nu, _ in entries], dtype=float)
    if reason := unfit_reason(nus):
        raise ValueError(reason)

    rows = []
    for name, kind, col in MONITORED:
        vals = np.array([getattr(rec, kind)(col) for _, rec in entries])
        spread = _relative_spread(vals)
        excluded = name in EXCLUDED
        flagged = not excluded and not spread <= SPREAD_TOLERANCE  # a NaN spread too
        rows.append(QuantitySpread(name, tuple(vals), spread, flagged, excluded))
    return NuIndependenceReport(nu_values=tuple(nus), rows=rows)


__all__ = [
    "COLUMNS",
    "ACCUMULATED",
    "SPREAD_TOLERANCE",
    "SPREADING_ALPHA",
    "unfit_reason",
    "lp_norm",
    "energy_density",
    "weighted_energy",
    "momentum_potential",
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

"""Fields, parameters and pointwise formulas for 1D isentropic MHD.

The model couples a barotropic gas (pressure law P = rho**gamma) to a
transverse magnetic field b on the real line, truncated to [-L, L] for
computation.  The far-field state is (RHO_BAR, 0, b_bar).  Prognostic
variables are density rho, momentum density m = rho*u and b; velocity is
always a derived quantity so that interior vacuum (rho = 0) stays
representable.

A field is a plain 1D numpy array with one value per grid node; the grid
travels alongside as an explicit argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

FieldScalar = np.ndarray

RHO_BAR = 1.0  # the far-field density, the unit of density (README, "Units")

# Floor used exclusively when dividing by rho (velocity recovery, b^2/rho in
# wave speeds).  The density itself is never modified.
RHO_FLOOR = 1e-12

# f = VISC_FLOOR_FRACTION * RHO_BAR sets the viscous density r(rho) near
# vacuum: r = rho from 2f up, and the C1 blend f + rho^2/(4f) below, so r >= f.
# The largest diffusivity of the momentum diffusion, mu*rho/r^2, is then at most
# 9/(8*sqrt(3)) * mu/f, which bounds the number of super-time-stepping stages a
# step needs near vacuum while leaving every vacuum-free run untouched.
VISC_FLOOR_FRACTION = 0.01

# Edge deviation from the far field beyond which the truncation is unfaithful and runs abort.
BOUNDARY_TOLERANCE = 1e-6


# What each annotation accepts: a bool is an int to Python but never a number,
# and a float field takes an int, not the reverse.
_ACCEPTED = {"float": ((int, float), "a number"), "int": ((int,), "an integer"),
             "str": ((str,), "a string")}


def type_problem(value, annotation: str = "float") -> str | None:
    """Why ``value`` cannot stand for a field annotated ``annotation``, or None.

    A float must be finite too: ``json.loads`` reads NaN and Infinity, which
    pass most range checks or fail them with a misleading message.
    """
    accepted, kind = _ACCEPTED[annotation]
    if isinstance(value, bool) or not isinstance(value, accepted):
        return f"must be {kind}, got {value!r}"
    if annotation == "float" and not math.isfinite(value):
        return f"must be a finite number, got {value!r}"
    return None


def field_problems(instance) -> list[str]:
    """The type rule of every parameter dataclass: one problem per field that breaks it.

    Such a field takes its default, so the range checks that follow see typed
    values and still list every other violation.
    """
    problems = []
    for f in fields(instance):
        problem = type_problem(getattr(instance, f.name), f.type)
        if problem:
            problems.append(f"{f.name} {problem}")
            object.__setattr__(instance, f.name, f.default)
    return problems


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh on [-L, L].

    Node i sits at -L + (i + 1/2)*dx with dx = 2L/n_cells, so nodes are
    symmetric about the origin and x = 0 is a node only for odd n_cells.
    """

    half_width: float = 20.0
    n_cells: int = 2048

    def __post_init__(self):
        problems = field_problems(self)
        if self.half_width <= 0:
            problems.append(f"half_width must be positive, got {self.half_width}")
        if self.n_cells < 8:
            problems.append(f"n_cells must be at least 8, got {self.n_cells}")
        if problems:
            raise ValueError(*problems)

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @cached_property
    def x(self) -> FieldScalar:
        """Node coordinates, built once per grid and read-only."""
        dx = self.dx
        x = -self.half_width + (np.arange(self.n_cells) + 0.5) * dx
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters: viscosity, resistivity, gas law and far field."""

    mu: float = 0.1
    nu: float = 1e-3
    gamma: float = 1.4
    b_bar: float = 1.0

    def __post_init__(self):
        problems = field_problems(self)
        if not self.mu > 0:
            problems.append(f"mu > 0 required, got {self.mu}")
        if not self.nu >= 0:
            problems.append(f"nu >= 0 required, got {self.nu}")
        if not self.gamma > 1:
            problems.append(f"gamma > 1 required, got {self.gamma}")
        if self.b_bar == 0:
            problems.append("b_bar must be non-zero")
        if problems:
            raise ValueError(*problems)


@dataclass
class State:
    """Fields (rho, m, b) at one instant; m = rho*u is the momentum density.

    The constructor copies them into one C-contiguous (3, n) float block ``q``
    and ``rho``, ``mom`` and ``b`` are its row views.  Tendencies share the layout.
    """

    rho: FieldScalar
    mom: FieldScalar
    b: FieldScalar
    t: float = 0.0

    def __post_init__(self):
        n = len(self.rho)
        if len(self.mom) != n or len(self.b) != n:
            raise ValueError("rho, mom and b must have equal length")
        self.q = np.array((self.rho, self.mom, self.b), dtype=float)
        self.rho, self.mom, self.b = self.q
        if not (self.rho >= 0).all():  # a NaN density fails too
            raise ValueError("density must be non-negative at every node")

    @classmethod
    def _unchecked(cls, q: np.ndarray, t: float) -> "State":
        """A read-only State on the (3, n) block ``q`` itself, without
        ``__post_init__``'s copy and checks, for fields valid by construction.

        The RK stages use it: they clip the density to >= 0 themselves.  ``q``
        is made read-only before the row views, as a view made earlier stays writable.
        """
        q.flags.writeable = False
        state = object.__new__(cls)
        state.q, state.t = q, t
        state.rho, state.mom, state.b = q
        return state

    def velocity(self) -> FieldScalar:
        """u = m / max(rho, floor); the floor only guards division."""
        return self.mom / np.maximum(self.rho, RHO_FLOOR)

    def copy(self) -> "State":
        return State(*self.q, self.t)


def viscous_density(rho: FieldScalar | float) -> FieldScalar | float:
    """r(rho), the density viscosity divides by: rho for rho >= 2f, and f + rho^2/(4f)
    below, f = VISC_FLOOR_FRACTION * RHO_BAR.

    Both pieces meet at rho = 2f with value 2f and slope 1, so r is C1, r >= rho
    and r >= f, and r does not decrease as rho grows; r is therefore also
    max(rho, f + min(rho, 2f)^2/(4f)), the form evaluated here.  An array with
    no node below 2f costs one reduction and is returned itself, so r may be
    rho: callers must not write into it.  Callers that weight by rho/r test
    ``r is rho``, exactly when the weight is 1.
    """
    f = VISC_FLOOR_FRACTION * RHO_BAR
    if not isinstance(rho, np.ndarray):  # one density, in Python floats
        q = min(rho, 2.0 * f)
        return max(rho, f + q * q / (4.0 * f))
    if rho.min() >= 2.0 * f:
        return rho
    q = np.minimum(rho, 2.0 * f)
    return np.maximum(rho, f + q * q / (4.0 * f))


def viscous_rate_density(rho_min: float) -> float:
    """The density d with mu/d the largest viscous rate mu*rho/r(rho)^2 over rho >= rho_min.

    From 2f up r = rho and the rate mu/rho peaks at d = rho_min.  Below, with
    rho = 2f*t, the rate is (2 mu/f) * t/(1 + t^2)^2, which rises to its peak
    9/(8*sqrt(3)) * mu/f (about 0.65 mu/f) at rho = 2f/sqrt(3) and falls after
    it, so the peak over rho >= rho_min sits at max(rho_min, 2f/sqrt(3)).
    """
    f = VISC_FLOOR_FRACTION * RHO_BAR
    if rho_min >= 2.0 * f:
        return rho_min
    rho = max(rho_min, 2.0 * f / math.sqrt(3.0))
    r = viscous_density(rho)
    return r * r / rho


def viscous_velocity(mom: FieldScalar, rho: FieldScalar) -> FieldScalar:
    """u = m / viscous_density(rho), the velocity viscosity acts on.

    The scheme's mu*u_xx term, the recorded viscous dissipation and the
    sampled velocity gradient all use it, so the audit measures what the
    scheme dissipates.
    """
    return mom / viscous_density(rho)


def derivative(values: FieldScalar, dx: float) -> FieldScalar:
    """First derivative: central interior, one-sided second order at the ends."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    two_dx = 2.0 * dx
    inner = np.subtract(f[2:], f[:-2], out=out[1:-1])
    inner /= two_dx
    f0, f1, f2 = f[:3].tolist()  # the edge stencils in Python floats, same rounding
    g2, g1, g0 = f[-3:].tolist()
    out[0] = (-3.0 * f0 + 4.0 * f1 - f2) / two_dx
    out[-1] = (3.0 * g0 - 4.0 * g1 + g2) / two_dx
    return out


def second_derivative(values: FieldScalar, dx: float) -> FieldScalar:
    """Second derivative: central interior, one-sided second order at the ends."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / dx**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / dx**2
    return out


def pressure(rho: FieldScalar, gamma: float) -> FieldScalar:
    """Isentropic pressure P = rho**gamma (gas constant normalized to 1)."""
    rho = np.asarray(rho, dtype=float)
    if not (rho >= 0).all():  # a NaN density fails too
        raise ValueError("pressure requires rho >= 0")
    return rho**gamma


@lru_cache(maxsize=16)
def _series_coefficients(gamma: float) -> tuple[float, ...]:
    """(gamma-2)...(gamma-k+1)/k! for k = 5 down to 2, ``potential_energy``'s Horner series."""
    return tuple(math.prod(gamma - j for j in range(2, k)) / math.factorial(k)
                 for k in range(5, 1, -1))


def potential_energy(rho: FieldScalar, gamma: float, rho_bar: float) -> FieldScalar:
    """Potential energy of compression relative to a far-field density rho_bar.

    Phi(rho) = (rho^gamma - rho_bar^gamma - gamma*rho_bar^(gamma-1)*(rho - rho_bar))
               / (gamma - 1)

    Non-negative, vanishing exactly at rho = rho_bar; quadratic near rho_bar
    and growing like rho^gamma for large rho.  With d = (rho - rho_bar)/rho_bar
    it is rho_bar^gamma * (expm1(gamma*log1p(d)) - gamma*d)/(gamma - 1), summed
    as a binomial series in d for |d| < 1e-3, so nothing cancels near rho_bar.
    """
    rho = np.asarray(rho, dtype=float)
    if not (rho >= 0).all():  # a NaN density fails too
        raise ValueError("potential_energy requires rho >= 0")
    d = (rho - rho_bar) / rho_bar  # the difference is exact near rho_bar
    top, *lower = _series_coefficients(gamma)
    series = np.full_like(d, top)  # Horner in place
    for c in lower:
        series *= d
        series += c
    with np.errstate(divide="ignore"):  # vacuum: log1p(-1) = -inf, expm1(-inf) = -1
        phi = (np.expm1(gamma * np.log1p(d)) - gamma * d) / (gamma - 1.0)
    return rho_bar**gamma * np.where(np.abs(d) < 1e-3, gamma * d * d * series, phi)


def fast_speed(rho: FieldScalar, mom: FieldScalar, b: FieldScalar, gamma: float) -> FieldScalar:
    """|u| + sqrt(gamma*rho^(gamma-1) + b^2/rho), the magnetosonic bound.

    Used for time-step control and interface dissipation; the division floor
    keeps vacuum nodes finite.
    """
    rho_safe = np.maximum(rho, RHO_FLOOR)
    u = mom / rho_safe
    return np.abs(u) + np.sqrt(gamma * rho_safe ** (gamma - 1.0) + b**2 / rho_safe)


def constant_state(grid: Grid1D, params: PhysParams) -> State:
    """The far-field state (RHO_BAR, 0, b_bar) sampled on the grid."""
    n = grid.n_cells
    return State(np.full(n, RHO_BAR), np.zeros(n), np.full(n, params.b_bar))


__all__ = [
    "FieldScalar",
    "RHO_BAR",
    "RHO_FLOOR",
    "VISC_FLOOR_FRACTION",
    "BOUNDARY_TOLERANCE",
    "Grid1D",
    "PhysParams",
    "State",
    "viscous_density",
    "viscous_rate_density",
    "viscous_velocity",
    "derivative",
    "second_derivative",
    "pressure",
    "potential_energy",
    "fast_speed",
    "constant_state",
]

"""Fields, parameters and pointwise formulas for 1D isentropic MHD.

The model couples a barotropic gas (pressure law P = rho**gamma) to a
transverse magnetic field b on the real line, truncated to [-L, L] for
computation.  The far-field state is (rho_bar, 0, b_bar).  Prognostic
variables are density rho, momentum density m = rho*u and b; velocity is
always a derived quantity so that interior vacuum (rho = 0) stays
representable.

A field is a plain 1D numpy array with one value per grid node; the grid
travels alongside as an explicit argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

FieldScalar = np.ndarray

# Floor used exclusively when dividing by rho (velocity recovery, b^2/rho in
# wave speeds).  The density itself is never modified.
RHO_FLOOR = 1e-12

# Fraction of the far-field density used as a lower bound in the viscous
# velocity recovery and the diffusive bound.  The largest diffusivity of the
# momentum diffusion is mu/max(rho_min, floor), so capping the recovery at
# 0.01*rho_bar bounds the number of super-time-stepping stages a step needs
# near vacuum while leaving every vacuum-free run untouched.
VISC_FLOOR_FRACTION = 0.01

# Edge deviation from the far field beyond which the truncation is unfaithful and runs abort.
BOUNDARY_TOLERANCE = 1e-6


def non_finite_problems(instance) -> list[str]:
    """One problem per float field of a dataclass instance that is not finite.

    NaN and infinities pass most range checks (or fail them with a misleading
    message), so every parameter class reports them on their own.
    """
    return [f"{f.name} must be a finite number, got {getattr(instance, f.name)!r}"
            for f in fields(instance)
            if f.type in (float, "float") and not math.isfinite(getattr(instance, f.name))]


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh on [-L, L].

    Node i sits at -L + (i + 1/2)*dx with dx = 2L/n_cells, so nodes are
    symmetric about the origin and x = 0 is a node only for odd n_cells.
    """

    half_width: float
    n_cells: int

    def __post_init__(self):
        problems = non_finite_problems(self)
        if self.half_width <= 0:
            problems.append(f"half_width must be positive, got {self.half_width}")
        if self.n_cells < 8:
            problems.append(f"n_cells must be at least 8, got {self.n_cells}")
        if problems:
            raise ValueError("; ".join(problems))

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
    rho_bar: float = 1.0
    b_bar: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        problems = non_finite_problems(self)
        if not self.mu > 0:
            problems.append(f"mu > 0 required, got {self.mu}")
        if not self.nu >= 0:
            problems.append(f"nu >= 0 required, got {self.nu}")
        if not self.gamma > 1:
            problems.append(f"gamma > 1 required, got {self.gamma}")
        if not self.rho_bar >= 1:
            problems.append(f"rho_bar >= 1 required (normalized far-field density), got {self.rho_bar}")
        if self.b_bar == 0:
            problems.append("b_bar must be non-zero")
        if not 1 < self.alpha <= 2:
            problems.append(f"alpha in (1, 2] required, got {self.alpha}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class State:
    """Fields (rho, m, b) at one instant; m = rho*u is the momentum density."""

    rho: FieldScalar
    mom: FieldScalar
    b: FieldScalar
    t: float = 0.0

    def __post_init__(self):
        n = len(self.rho)
        if len(self.mom) != n or len(self.b) != n:
            raise ValueError("rho, mom and b must have equal length")
        if (self.rho < 0).any():
            raise ValueError("density must be non-negative at every node")

    @classmethod
    def _unchecked(cls, rho: FieldScalar, mom: FieldScalar, b: FieldScalar, t: float) -> "State":
        """A State built without ``__post_init__``, for fields valid by construction.

        The RK stages use it: they clip the density to >= 0 themselves.
        """
        state = object.__new__(cls)
        state.rho, state.mom, state.b, state.t = rho, mom, b, t
        return state

    def velocity(self) -> FieldScalar:
        """u = m / max(rho, floor); the floor only guards division."""
        return self.mom / np.maximum(self.rho, RHO_FLOOR)

    def copy(self) -> "State":
        return State(self.rho.copy(), self.mom.copy(), self.b.copy(), self.t)


@dataclass
class RhsOutput:
    """Tendencies of (rho, m, b)."""

    d_rho: FieldScalar
    d_mom: FieldScalar
    d_b: FieldScalar


def viscous_floor(rho_bar: float) -> float:
    """Density at which the viscous velocity recovery is capped."""
    return max(RHO_FLOOR, VISC_FLOOR_FRACTION * rho_bar)


def viscous_velocity(mom: FieldScalar, rho: FieldScalar, rho_bar: float) -> FieldScalar:
    """u = m / max(rho, viscous_floor(rho_bar)), the velocity viscosity acts on.

    The scheme's mu*u_xx term, the recorded viscous dissipation and the
    sampled velocity gradient all use it, so the audit measures what the
    scheme dissipates.
    """
    return mom / np.maximum(rho, viscous_floor(rho_bar))


def derivative(values: FieldScalar, dx: float) -> FieldScalar:
    """First derivative: central interior, one-sided second order at the ends."""
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
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
    if np.any(rho < 0):
        raise ValueError("pressure requires rho >= 0")
    return rho**gamma


def potential_energy(rho: FieldScalar, gamma: float, rho_bar: float) -> FieldScalar:
    """Potential energy of compression relative to the far-field density.

    Phi(rho) = (rho^gamma - rho_bar^gamma - gamma*rho_bar^(gamma-1)*(rho - rho_bar))
               / (gamma - 1)

    Non-negative, vanishing exactly at rho = rho_bar; quadratic near rho_bar
    and growing like rho^gamma for large rho.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("potential_energy requires rho >= 0")
    return (
        rho**gamma - rho_bar**gamma - gamma * rho_bar ** (gamma - 1.0) * (rho - rho_bar)
    ) / (gamma - 1.0)


def effective_viscous_flux(state: State, params: PhysParams, grid: Grid1D) -> FieldScalar:
    """F = mu*u_x - (P(rho) - P(rho_bar) + (b^2 - b_bar^2)/2).

    The momentum equation reads rho*du/dt = F_x, which makes F the natural
    quantity for flux-identity audits.  u_x is taken of the viscous velocity,
    the one the scheme's viscosity acts on; it is m/rho wherever the density
    is at least the viscous floor.
    """
    u = viscous_velocity(state.mom, state.rho, params.rho_bar)
    p_pert = pressure(state.rho, params.gamma) - params.rho_bar**params.gamma
    mag_pert = 0.5 * (state.b**2 - params.b_bar**2)
    return params.mu * derivative(u, grid.dx) - (p_pert + mag_pert)


def material_derivative(state: State, u_t: FieldScalar, grid: Grid1D) -> FieldScalar:
    """du/dt following the flow: u_t + u*u_x."""
    u = state.velocity()
    return np.asarray(u_t, dtype=float) + u * derivative(u, grid.dx)


def fast_speed(rho: FieldScalar, mom: FieldScalar, b: FieldScalar, gamma: float) -> FieldScalar:
    """|u| + sqrt(gamma*rho^(gamma-1) + b^2/rho), the magnetosonic bound.

    Used for time-step control and interface dissipation; the division floor
    keeps vacuum nodes finite.
    """
    rho_safe = np.maximum(rho, RHO_FLOOR)
    u = mom / rho_safe
    return np.abs(u) + np.sqrt(gamma * rho_safe ** (gamma - 1.0) + b**2 / rho_safe)


def fast_speed_state(state: State, params: PhysParams) -> FieldScalar:
    return fast_speed(state.rho, state.mom, state.b, params.gamma)


def constant_state(grid: Grid1D, params: PhysParams) -> State:
    """The far-field state (rho_bar, 0, b_bar) sampled on the grid."""
    n = grid.n_cells
    return State(
        rho=np.full(n, params.rho_bar),
        mom=np.zeros(n),
        b=np.full(n, params.b_bar),
        t=0.0,
    )


__all__ = [
    "FieldScalar",
    "RHO_FLOOR",
    "VISC_FLOOR_FRACTION",
    "BOUNDARY_TOLERANCE",
    "Grid1D",
    "PhysParams",
    "State",
    "RhsOutput",
    "viscous_floor",
    "viscous_velocity",
    "derivative",
    "second_derivative",
    "pressure",
    "potential_energy",
    "effective_viscous_flux",
    "material_derivative",
    "fast_speed",
    "fast_speed_state",
    "constant_state",
]

"""Manufactured-solution forcing for discretization-order verification.

A smooth closed-form trio (rho*, u*, b*) is turned into an exact solution of
the forced system by adding the analytic residual of the governing equations
as a source term.  Sources are the residuals written in closed form, so the
only approximation left in a forced run is the scheme itself; comparing
errors across grids then measures the observed order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import RHO_BAR, Grid1D, PhysParams, State
from .diagnostics import lp_norm
from .solver import SchemeConfig, rhs, run_lockstep

# The fields a manufactured run is compared on, in the order ``fields`` returns them.
FIELDS = ("rho", "u", "b")


@dataclass(frozen=True)
class ManufacturedSolution:
    """A forced system: its physics, closed-form fields and source terms.

    ``fields(x, t)`` returns the ``FIELDS`` and ``sources(x, t)`` the (rho, m, b)
    sources, each from one evaluation of the closed-form terms.  The sources
    are built for ``params``, so a forced run takes its physics from here.
    """

    params: PhysParams
    fields: Callable
    sources: Callable

    def initial_state(self, grid: Grid1D) -> State:
        rho, u, b = self.fields(grid.x, 0.0)
        return State(rho=rho, mom=rho * u, b=b, t=0.0)

    def errors(self, state: State, grid: Grid1D) -> dict[str, float]:
        """Discrete L2 errors of the ``FIELDS`` against the exact fields."""
        computed = (state.rho, state.velocity(), state.b)  # in FIELDS order
        return {k: lp_norm(v - exact, 2, grid)
                for k, v, exact in zip(FIELDS, computed, self.fields(grid.x, state.t))}


def manufactured_solution(params: PhysParams, amplitude: float = 0.1,
                          sigma: float = 3.0, omega: float = 1.0) -> ManufacturedSolution:
    """Gaussian-bump fields oscillating in time, far-field compatible.

    With g = exp(-x^2/sigma^2) and c = cos(omega t) the trio is
    rho* = RHO_BAR + A g c, u* = A x g c, b* = b_bar + A g c.  The sources are
    the residuals of the governing equations, assembled from the closed-form
    derivatives of the trio.  The magnetic source carries params.nu (nothing at
    nu = 0); the solution keeps params, and its forced runs step with them.
    """
    s2 = sigma**2

    def terms(x, t):
        """(rho, u, b, rho_x, rho_t, u_x, u_xx, u_t, b_xx) of the trio at (x, t).

        b - b_bar = rho - RHO_BAR, so b_x = rho_x and b_t = rho_t.
        """
        x = np.asarray(x, dtype=float)
        g = np.exp(-(x**2) / s2)
        g_x = -2.0 * x / s2 * g
        g_xx = (4.0 * x**2 / s2 - 2.0) / s2 * g
        ac, aws = amplitude * np.cos(omega * t), amplitude * omega * np.sin(omega * t)
        return (RHO_BAR + ac * g, ac * x * g, params.b_bar + ac * g,
                ac * g_x, -aws * g, ac * (g + x * g_x), ac * (2.0 * g_x + x * g_xx),
                -aws * x * g, ac * g_xx)

    def sources(x, t):
        rho, u, b, rho_x, rho_t, u_x, u_xx, u_t, b_xx = terms(x, t)
        return (rho_t + rho_x * u + rho * u_x,
                rho_t * u + rho * u_t + (rho_x * u + 2.0 * rho * u_x) * u
                + (params.gamma * rho ** (params.gamma - 1.0) + b) * rho_x
                - params.mu * u_xx,
                rho_t + u_x * b + u * rho_x - params.nu * b_xx)

    return ManufacturedSolution(params, fields=lambda x, t: terms(x, t)[:3], sources=sources)


def mms_rhs(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D,
            manufactured: ManufacturedSolution) -> np.ndarray:
    """The (3, n) hyperbolic tendencies of ``rhs`` plus the full analytic sources
    at state.t, added in place, diffusion residuals included: in a stepped run
    all of the forcing rides on the hyperbolic stages.  ``tendencies`` adds the
    diffusion terms."""
    out = rhs(state, params, scheme, grid)
    out += manufactured.sources(grid.x, state.t)
    return out


def run_manufactured(manufactured: ManufacturedSolution, scheme: SchemeConfig,
                     grid: Grid1D) -> dict[str, float]:
    """Integrate the forced system from the exact initial data, with the
    solution's own params; return the L2 errors of the final state.

    The run is unrecorded and only its final state is read, so it lands on
    ``t_end`` alone: ``scheme.n_samples`` is ignored, and every step but the
    last takes the advective CFL bound.  dt then refines with dx at a fixed
    CFL number, as a grid-convergence study needs."""

    def forced(state, params, scheme_, grid_):
        return mms_rhs(state, params, scheme_, grid_, manufactured)

    (final,), _ = run_lockstep([(manufactured.initial_state(grid), manufactured.params)],
                               replace(scheme, n_samples=1), grid, rhs_fn=forced, recorded=0)
    return manufactured.errors(final, grid)


def observed_orders(manufactured: ManufacturedSolution, scheme: SchemeConfig,
                    n_cells: tuple[int, ...]) -> dict[str, float]:
    """Least-squares slope of log error against log dx over default-domain grids."""
    grids = [Grid1D(n_cells=n) for n in n_cells]
    errs = [run_manufactured(manufactured, scheme, grid) for grid in grids]
    log_dx = np.log([grid.dx for grid in grids])
    return {k: float(np.polyfit(log_dx, np.log([e[k] for e in errs]), 1)[0])
            for k in FIELDS}


__all__ = [
    "FIELDS",
    "ManufacturedSolution",
    "manufactured_solution",
    "mms_rhs",
    "run_manufactured",
    "observed_orders",
]

"""Initial-data presets and admissibility audits.

Two closed-form presets cover the interesting regimes:

* ``gaussian_bump``   -- smooth positive density perturbation,
* ``interior_vacuum`` -- density touching zero at x = 0 while staying in the
  admissible class (H1 perturbations with finite weighted energy moment).

Both approach the far-field state (rho_bar, 0, b_bar) exponentially, so the
truncated domain is valid whenever L >= 5*sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    FieldScalar,
    Grid1D,
    PhysParams,
    State,
    derivative,
    field_problems,
    pressure,
)

PRESETS = ("gaussian_bump", "interior_vacuum")

# Below this density the compatibility audit cannot divide by sqrt(rho)
# stably; such nodes are flagged instead of evaluated.
RHO_COMPAT = 1e-6


@dataclass(frozen=True)
class ScenarioSpec:
    """Initial-data recipe: preset name, amplitudes and width.

    The physical parameters are not part of the recipe; ``build_initial_state``
    takes them from the run.
    """

    preset: str = "gaussian_bump"
    a_rho: float = 0.2
    a_u: float = 0.2
    a_b: float = 0.2
    sigma: float = 2.0

    def __post_init__(self):
        problems = field_problems(self)
        if self.preset not in PRESETS:
            problems.append(f"unknown preset {self.preset!r}, expected one of {PRESETS}")
        if not self.sigma > 0:
            problems.append(f"sigma > 0 required, got {self.sigma}")
        if problems:
            raise ValueError(*problems)


def admissibility_problems(spec: ScenarioSpec, params: PhysParams | None,
                           grid: Grid1D) -> list[str]:
    """Why the preset cannot be sampled on ``grid``, one problem per rule with its field path.

    L >= 5*sigma; a Gaussian bump needs a_rho > -rho_bar, unchecked when ``params`` is None.
    """
    problems = []
    if grid.half_width < 5.0 * spec.sigma:
        problems.append(f"grid.half_width: domain too small: L = {grid.half_width} < 5*sigma = "
                        f"{5.0 * spec.sigma} (far-field deviation at the boundary would exceed 1e-10)")
    if spec.preset == "gaussian_bump" and params is not None and spec.a_rho <= -params.rho_bar:
        problems.append(f"scenario.a_rho: {spec.a_rho} <= -rho_bar = {-params.rho_bar} "
                        "would make the initial density negative")
    return problems


def build_initial_state(spec: ScenarioSpec, params: PhysParams, grid: Grid1D) -> State:
    """Sample the preset's closed-form fields at the grid nodes (t = 0)."""
    problems = admissibility_problems(spec, params, grid)
    if problems:
        raise ValueError("; ".join(problems))
    x = grid.x
    bump = np.exp(-(x**2) / spec.sigma**2)

    if spec.preset == "gaussian_bump":
        rho0 = params.rho_bar + spec.a_rho * bump
    else:
        rho0 = params.rho_bar * (1.0 - bump) ** 2

    u0 = spec.a_u * x * bump
    b0 = params.b_bar + spec.a_b * bump
    return State(rho=rho0, mom=rho0 * u0, b=b0, t=0.0)


@dataclass(frozen=True)
class CompatibilityResult:
    g: FieldScalar
    g_l2: float
    n_flagged: int


def compatibility_residual(state0: State, params: PhysParams, grid: Grid1D) -> CompatibilityResult:
    """Audit of the initial-acceleration constraint.

    Computes h = (mu*u0_x - P(rho0) - b0^2/2)_x by the shared stencils and
    g = h / sqrt(rho0) wherever rho0 > RHO_COMPAT.  Near-vacuum nodes are
    flagged and report g = 0; a square-integrable g indicates well-prepared
    data.
    """
    u0 = state0.velocity()
    inner = params.mu * derivative(u0, grid.dx) - pressure(state0.rho, params.gamma) - 0.5 * state0.b**2
    h = derivative(inner, grid.dx)
    ok = state0.rho > RHO_COMPAT
    g = np.where(ok, h / np.sqrt(np.maximum(state0.rho, RHO_COMPAT)), 0.0)
    g_l2 = float(np.sqrt(np.sum(g**2) * grid.dx))
    return CompatibilityResult(g=g, g_l2=g_l2, n_flagged=int(np.sum(~ok)))


__all__ = [
    "PRESETS",
    "RHO_COMPAT",
    "ScenarioSpec",
    "CompatibilityResult",
    "admissibility_problems",
    "build_initial_state",
    "compatibility_residual",
]

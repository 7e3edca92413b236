"""Method-of-lines integrator for 1D compressible isentropic MHD.

One right-hand side covers both systems:

* resistive:      rho_t + (rho u)_x = 0
                  (rho u)_t + (rho u^2 + P + b^2/2)_x = (mu u_x)_x
                  b_t + (u b)_x = nu b_xx
* non-resistive:  nu = 0, where the nu b_xx term is omitted exactly.

Convective fluxes use a local Lax-Friedrichs interface flux with either
piecewise-constant or MUSCL/minmod reconstruction of the conserved variables
(rho, m, b); diffusion terms are second-order central and integrated
explicitly.  Far-field Dirichlet values enter through two ghost cells per
side.  One driver advances any number of runs on a shared dt sequence: a
single run is one member, a matched pair is two.  Everything is plain
sequential numpy, so repeated runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .core import (
    RHO_FLOOR,
    VISC_FLOOR_FRACTION,  # re-exported with the solver's public names
    FieldScalar,
    Grid1D,
    PhysParams,
    State,
    fast_speed,
    fast_speed_state,
    viscous_floor,
    viscous_velocity,
)
from .errors import BoundaryMonitorError, NumericalError, SimulationError
from .scenario import ScenarioSpec, build_initial_state

RECONSTRUCTIONS = ("first_order_upwind", "muscl_minmod")
INTEGRATORS = ("ssp_rk2", "ssp_rk3")

# Run-validity monitor: abort when the outermost interior nodes deviate from
# the far field by more than this (Dirichlet far-field values are then no
# longer a faithful truncation).
BOUNDARY_TOLERANCE = 1e-6
BOUNDARY_NODES = 3


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization knobs: CFL numbers, reconstruction, integrator, horizon."""

    cfl_number: float = 0.45
    diffusion_number: float = 0.4
    reconstruction: str = "muscl_minmod"
    time_integrator: str = "ssp_rk2"
    t_end: float = 1.0
    n_samples: int = 50

    def __post_init__(self):
        problems = []
        if not 0 < self.cfl_number <= 1:
            problems.append(f"cfl_number in (0, 1] required, got {self.cfl_number}")
        if not 0 < self.diffusion_number <= 0.5:
            problems.append(f"diffusion_number in (0, 0.5] required, got {self.diffusion_number}")
        if self.reconstruction not in RECONSTRUCTIONS:
            problems.append(f"reconstruction must be one of {RECONSTRUCTIONS}")
        if self.time_integrator not in INTEGRATORS:
            problems.append(f"time_integrator must be one of {INTEGRATORS}")
        if self.t_end < 0:
            problems.append(f"t_end >= 0 required, got {self.t_end}")
        if self.n_samples < 1:
            problems.append(f"n_samples >= 1 required, got {self.n_samples}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class RhsOutput:
    """Tendencies of (rho, m, b) plus the derived u_t for diagnostics."""

    d_rho: FieldScalar
    d_mom: FieldScalar
    d_b: FieldScalar
    u_t: FieldScalar


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def _extend(state: State, params: PhysParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append two far-field ghost cells per side."""
    n = len(state.rho)
    rho_e = np.empty(n + 4)
    mom_e = np.empty(n + 4)
    b_e = np.empty(n + 4)
    rho_e[2:-2], mom_e[2:-2], b_e[2:-2] = state.rho, state.mom, state.b
    rho_e[:2] = rho_e[-2:] = params.rho_bar
    mom_e[:2] = mom_e[-2:] = 0.0
    b_e[:2] = b_e[-2:] = params.b_bar
    return rho_e, mom_e, b_e


def _physical_flux(rho, mom, b, gamma):
    u = mom / np.maximum(rho, RHO_FLOOR)
    return mom, mom * u + rho**gamma + 0.5 * b * b, u * b


def rhs(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D) -> RhsOutput:
    """Semi-discrete tendencies at one instant.

    Local Lax-Friedrichs interface fluxes with the configured reconstruction;
    mu*u_xx and (for nu > 0 only) nu*b_xx by central differences.
    """
    n = grid.n_cells
    dx = grid.dx
    rho_e, mom_e, b_e = _extend(state, params)

    if scheme.reconstruction == "muscl_minmod":
        def faces(q):
            d = np.diff(q)
            s = _minmod(d[:-1], d[1:])  # slope for extended cells 1..n+2
            return q[1:n + 2] + 0.5 * s[:n + 1], q[2:n + 3] - 0.5 * s[1:n + 2]
    else:
        def faces(q):
            return q[1:n + 2], q[2:n + 3]

    rho_l, rho_r = faces(rho_e)
    mom_l, mom_r = faces(mom_e)
    b_l, b_r = faces(b_e)
    # minmod keeps interface values inside the neighbor range, so negative
    # reconstructed densities can only be rounding residue.
    rho_l = np.maximum(rho_l, 0.0)
    rho_r = np.maximum(rho_r, 0.0)

    gamma = params.gamma
    fl = _physical_flux(rho_l, mom_l, b_l, gamma)
    fr = _physical_flux(rho_r, mom_r, b_r, gamma)
    a = np.maximum(fast_speed(rho_l, mom_l, b_l, gamma),
                   fast_speed(rho_r, mom_r, b_r, gamma))

    d_rho = np.empty(n)
    d_mom = np.empty(n)
    d_b = np.empty(n)
    for out, f_l, f_r, q_l, q_r in (
        (d_rho, fl[0], fr[0], rho_l, rho_r),
        (d_mom, fl[1], fr[1], mom_l, mom_r),
        (d_b, fl[2], fr[2], b_l, b_r),
    ):
        f_hat = 0.5 * (f_l + f_r) - 0.5 * a * (q_r - q_l)
        out[:] = -(f_hat[1:] - f_hat[:-1]) / dx

    u_visc = viscous_velocity(mom_e, rho_e, params.rho_bar)
    d_mom += params.mu * (u_visc[3:-1] - 2.0 * u_visc[2:-2] + u_visc[1:-3]) / dx**2
    if params.nu > 0:
        d_b += params.nu * (b_e[3:-1] - 2.0 * b_e[2:-2] + b_e[1:-3]) / dx**2

    u = state.velocity()
    u_t = (d_mom - u * d_rho) / np.maximum(state.rho, RHO_FLOOR)

    if not (np.all(np.isfinite(d_rho)) and np.all(np.isfinite(d_mom)) and np.all(np.isfinite(d_b))):
        bad = np.flatnonzero(~(np.isfinite(d_rho) & np.isfinite(d_mom) & np.isfinite(d_b)))
        raise NumericalError("non-finite tendency", node=int(bad[0]), time=state.t)
    return RhsOutput(d_rho=d_rho, d_mom=d_mom, d_b=d_b, u_t=u_t)


def stable_dt(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D) -> float:
    """Explicit step bound: advective CFL and the diffusive dx^2 restriction."""
    dt_adv = scheme.cfl_number * grid.dx / float(np.max(fast_speed_state(state, params)))
    rho_min = max(float(np.min(np.maximum(state.rho, RHO_FLOOR))),
                  viscous_floor(params.rho_bar))
    diff_coef = max(params.mu / rho_min, params.nu)
    dt_diff = scheme.diffusion_number * grid.dx**2 / diff_coef
    return min(dt_adv, dt_diff)


def _euler_stage(state: State, dt: float, params, scheme, grid, rhs_fn):
    out = rhs_fn(state, params, scheme, grid)
    rho = state.rho + dt * out.d_rho
    clipped = int(np.sum(rho < 0.0))
    if clipped:
        rho = np.maximum(rho, 0.0)
    return State(rho, state.mom + dt * out.d_mom, state.b + dt * out.d_b,
                 state.t + dt), clipped


def step(state: State, dt: float, params: PhysParams, scheme: SchemeConfig,
         grid: Grid1D, rhs_fn=None) -> tuple[State, int]:
    """Advance one SSP Runge-Kutta step; returns the new state and the number
    of nodes where the density had to be clipped to zero."""
    rhs_fn = rhs_fn or rhs
    s1, c1 = _euler_stage(state, dt, params, scheme, grid, rhs_fn)
    if scheme.time_integrator == "ssp_rk2":
        s2, c2 = _euler_stage(s1, dt, params, scheme, grid, rhs_fn)
        new = State(0.5 * (state.rho + s2.rho),
                    0.5 * (state.mom + s2.mom),
                    0.5 * (state.b + s2.b),
                    state.t + dt)
        return new, c1 + c2
    s2, c2 = _euler_stage(s1, dt, params, scheme, grid, rhs_fn)
    mid = State(0.75 * state.rho + 0.25 * s2.rho,
                0.75 * state.mom + 0.25 * s2.mom,
                0.75 * state.b + 0.25 * s2.b,
                state.t + 0.5 * dt)
    s3, c3 = _euler_stage(mid, dt, params, scheme, grid, rhs_fn)
    new = State(state.rho / 3.0 + 2.0 / 3.0 * s3.rho,
                state.mom / 3.0 + 2.0 / 3.0 * s3.mom,
                state.b / 3.0 + 2.0 / 3.0 * s3.b,
                state.t + dt)
    return new, c1 + c2 + c3


def check_boundary(state: State, params: PhysParams):
    """Abort when the perturbation reaches the outermost interior nodes."""
    k = BOUNDARY_NODES
    dev = 0.0
    for arr, far in ((state.rho, params.rho_bar), (state.mom, 0.0), (state.b, params.b_bar)):
        dev = max(dev, float(np.max(np.abs(arr[:k] - far))),
                  float(np.max(np.abs(arr[-k:] - far))))
    if dev > BOUNDARY_TOLERANCE:
        raise BoundaryMonitorError(time=state.t, deviation=dev)


def run_lockstep(members: list[tuple[State, PhysParams]], scheme: SchemeConfig,
                 grid: Grid1D, rhs_fn=None, observe=None,
                 max_steps: int = 10_000_000) -> tuple[list[State], diagnostics.DiagnosticsRecord]:
    """Integrate every (state, params) member from t = 0 to t_end on one dt sequence.

    dt is the smallest stable step over all members, clipped so that the
    uniform sample times are hit exactly; this keeps records from different
    runs directly comparable.  Member 0 carries the dissipation accumulators
    (trapezoid in time, advanced every accepted step) and the diagnostics
    record; density clips of every member are counted.  ``observe(states, dt)``
    is called at t = 0 with dt = 0 and after every accepted step.
    """
    rhs_fn = rhs_fn or rhs
    states = [s for s, _ in members]
    params = [p for _, p in members]
    for s, p in members:
        check_boundary(s, p)

    accum = diagnostics.Accumulators()
    accum.start(states[0], params[0], grid)
    record = diagnostics.DiagnosticsRecord()

    def record_sample():
        out = rhs_fn(states[0], params[0], scheme, grid)
        record.append(diagnostics.sample(states[0], out, params[0], grid, accum))

    record_sample()
    if observe is not None:
        observe(states, 0.0)
    t_end = scheme.t_end
    sample_times = ([t_end * k / scheme.n_samples for k in range(1, scheme.n_samples + 1)]
                    if t_end > 0 else [])
    next_sample = 0
    steps = 0
    while next_sample < len(sample_times):
        target = sample_times[next_sample]
        dt = min(stable_dt(s, p, scheme, grid) for s, p in zip(states, params))
        landed = states[0].t + dt >= target - 1e-12 * t_end
        if landed:
            dt = target - states[0].t
        for i, p in enumerate(params):
            states[i], clips = step(states[i], dt, p, scheme, grid, rhs_fn)
            accum.clip_count += clips
            if landed:
                states[i].t = target
        accum.advance(states[0], params[0], grid, dt)
        for s, p in zip(states, params):
            check_boundary(s, p)
        if observe is not None:
            observe(states, dt)
        if landed:
            record_sample()
            next_sample += 1
        steps += 1
        if steps > max_steps:
            raise SimulationError(f"exceeded {max_steps} steps at t={states[0].t:.6g}")
    return states, record


def run(spec: ScenarioSpec | None, params: PhysParams, scheme: SchemeConfig,
        grid: Grid1D, rhs_fn=None, initial_state: State | None = None,
        max_steps: int = 10_000_000) -> tuple[State, diagnostics.DiagnosticsRecord]:
    """Integrate one configuration: the single-member case of ``run_lockstep``."""
    state = initial_state.copy() if initial_state is not None else build_initial_state(spec, grid)
    (final,), record = run_lockstep([(state, params)], scheme, grid, rhs_fn=rhs_fn,
                                    max_steps=max_steps)
    return final, record


def save_checkpoint(state: State, grid: Grid1D) -> str:
    """Text checkpoint: header "n_cells L t", then one "x rho mom b" row per
    node in full double precision scientific notation."""
    lines = [f"{grid.n_cells} {grid.half_width:.17e} {state.t:.17e}"]
    x = grid.x
    for i in range(grid.n_cells):
        lines.append(f"{x[i]:.17e} {state.rho[i]:.17e} {state.mom[i]:.17e} {state.b[i]:.17e}")
    return "\n".join(lines) + "\n"


def load_checkpoint(text: str) -> tuple[State, Grid1D]:
    lines = text.strip().splitlines()
    n_str, l_str, t_str = lines[0].split()
    n = int(n_str)
    grid = Grid1D(float(l_str), n)
    if len(lines) != n + 1:
        raise ValueError(f"checkpoint expects {n} rows, found {len(lines) - 1}")
    data = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    if not np.allclose(data[:, 0], grid.x, rtol=0, atol=1e-12):
        raise ValueError("checkpoint node coordinates do not match the grid descriptor")
    return State(rho=data[:, 1], mom=data[:, 2], b=data[:, 3], t=float(t_str)), grid


__all__ = [
    "RECONSTRUCTIONS",
    "INTEGRATORS",
    "VISC_FLOOR_FRACTION",
    "BOUNDARY_TOLERANCE",
    "BOUNDARY_NODES",
    "SchemeConfig",
    "RhsOutput",
    "rhs",
    "stable_dt",
    "step",
    "check_boundary",
    "run_lockstep",
    "run",
    "save_checkpoint",
    "load_checkpoint",
]

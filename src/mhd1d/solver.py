"""Method-of-lines integrator for 1D compressible isentropic MHD:

    rho_t + (rho u)_x = 0,  (rho u)_t + (rho u^2 + P + b^2/2)_x = (mu u_x)_x,
    b_t + (u b)_x = nu b_xx,

the non-resistive system being nu = 0, where nu b_xx is omitted exactly.
``rhs`` is the hyperbolic operator: local Lax-Friedrichs interface fluxes
with piecewise-constant or MUSCL reconstruction of (rho, m, b) under a
min/max-only minmod limiter, one rho^gamma pass serving the flux and the
fast speed, advanced by an SSP Runge-Kutta method.  ``diffusion_tendency``
is the second-order central diffusion terms, advanced by second-order
Runge-Kutta-Legendre (RKL2) super-time-stepping at frozen density on
(m/max(rho, floor), b), Strang-split around the hyperbolic step, so the
advective CFL bound alone sets dt; ``tendencies`` is the sum of the two.
Far-field Dirichlet values enter through ghost cells.  One driver advances
any number of runs on a shared dt sequence: a single run is one member, a
sweep group is one member per resistivity plus a shared non-resistive
reference.  Plain sequential numpy, so repeated runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diagnostics
from .core import (
    BOUNDARY_TOLERANCE,  # re-exported with the solver's public names
    RHO_FLOOR,
    VISC_FLOOR_FRACTION,  # re-exported too
    Grid1D,
    PhysParams,
    RhsOutput,
    State,
    fast_speed_state,
    non_finite_problems,
    viscous_floor,
)
from .errors import BoundaryMonitorError, NumericalError, SimulationError
from .scenario import ScenarioSpec, build_initial_state

RECONSTRUCTIONS = ("first_order_upwind", "muscl_minmod")
STAGES = {"ssp_rk2": 2, "ssp_rk3": 3}  # rhs evaluations per hyperbolic step
INTEGRATORS = tuple(STAGES)

BOUNDARY_NODES = 3  # outermost interior nodes the monitor reads, per edge


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization knobs: CFL numbers, reconstruction, integrator, horizon.

    ``diffusion_number`` is the safety factor of each super-time-stepping
    stage: the RKL2 stage count is chosen so that every stage stays within
    diffusion_number * dx^2 / (largest diffusivity).
    """

    cfl_number: float = 0.45
    diffusion_number: float = 0.4
    reconstruction: str = "muscl_minmod"
    time_integrator: str = "ssp_rk2"
    t_end: float = 1.0
    n_samples: int = 50

    def __post_init__(self):
        problems = non_finite_problems(self)
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


class _Workspace:
    """Scratch arrays of ``rhs`` for one grid size.

    Stacked arrays hold one row per conserved field (0 rho, 1 m, 2 b), and
    every row is w = n + 4 long, the ghost-extended length.  The slope
    limiter therefore runs over the flattened stack in one pass, and each
    field's left and right interface states sit next to each other, so the
    flux and wave-speed formulas run over one contiguous block for both
    sides.  Entries past a row's valid length are scratch: they hold finite
    filler and never reach the tendencies.

    Every temporary of ``rhs`` lives here and is written with ``out=``.  At
    production grid sizes freshly allocated temporaries are large enough for
    malloc to hand them back to the OS on free and fault them in again on
    the next call, which costs more than the arithmetic.  Temporaries of
    different phases share one scratch block: the limiter's, then the
    flux and wave-speed ones, then the interface flux and jump, each set
    dead before the next is written.
    """

    def __init__(self, n: int):
        w = n + 4
        self.n = n
        self.ext = np.empty((3, w))                 # fields plus two ghosts per side
        self.half_slope = np.zeros((3, w))          # [field, extended cell - 1]
        self.faces = np.ones((3, 2, w))             # [field, left/right, interface]
        self.flux = np.empty((3, 2, w))
        self.half_a = np.empty(w)
        self.finite = np.empty((3, n), dtype=bool)
        scratch = np.empty(10 * w)
        # slope limiter, on the flattened stack
        self.half_diff = scratch[:3 * w - 1]        # halved neighbour differences
        self.lo = scratch[3 * w:6 * w - 2]
        self.hi = scratch[6 * w:9 * w - 2]
        # flux and wave speed, both sides at once
        self.rho_safe, self.u, self.pressure, self.work, self.speed = \
            scratch.reshape(5, 2, w)
        # interface flux
        self.f_hat, self.jump = scratch[:6 * w].reshape(2, 3, w)


_workspace: _Workspace | None = None


def _workspace_for(n: int) -> _Workspace:
    """The shared workspace, reallocated only when the grid size changes.

    One module-level workspace makes ``rhs`` non-re-entrant across threads;
    parallel sweeps use processes.
    """
    global _workspace
    if _workspace is None or _workspace.n != n:
        _workspace = None  # free the old size before allocating the new one
        _workspace = _Workspace(n)
    return _workspace


def _half_minmod_slopes(ws: _Workspace) -> np.ndarray:
    """0.5 * minmod(q_j - q_{j-1}, q_{j+1} - q_j) for extended cells j = 1..n+2.

    Row r, column j - 1 of the result belongs to cell j of field r.  Of the
    halved differences a, b, max(min(a, b), min(max(a, b), 0)) picks the one of
    smaller magnitude when their signs agree and 0 otherwise; no product is
    formed, so two tiny slopes of one sign never give 0 by underflow.
    """
    flat = ws.ext.reshape(-1)
    d = np.subtract(flat[1:], flat[:-1], out=ws.half_diff)
    d *= 0.5
    a, b = d[:-1], d[1:]
    lo = np.minimum(a, b, out=ws.lo)
    hi = np.maximum(a, b, out=ws.hi)
    np.minimum(hi, 0.0, out=hi)
    np.maximum(lo, hi, out=ws.half_slope.reshape(-1)[:len(a)])
    return ws.half_slope


def rhs(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D) -> RhsOutput:
    """Hyperbolic tendencies at one instant, the operator of the SSP stages.

    Local Lax-Friedrichs interface fluxes with the configured reconstruction;
    the diffusion terms are ``diffusion_tendency``'s, and ``tendencies`` adds
    the two.  Every temporary lives in a per-grid-size workspace; only the
    returned tendencies are fresh arrays.
    """
    n = grid.n_cells
    dx = grid.dx
    ws = _workspace_for(n)
    ext = ws.ext
    ext[0, 2:-2], ext[1, 2:-2], ext[2, 2:-2] = state.rho, state.mom, state.b
    ext[0, :2] = ext[0, -2:] = params.rho_bar
    ext[1, :2] = ext[1, -2:] = 0.0
    ext[2, :2] = ext[2, -2:] = params.b_bar

    faces = ws.faces
    left, right = faces[:, 0, :n + 1], faces[:, 1, :n + 1]
    if scheme.reconstruction == "muscl_minmod":
        half_slope = _half_minmod_slopes(ws)
        np.add(ext[:, 1:n + 2], half_slope[:, :n + 1], out=left)
        np.subtract(ext[:, 2:n + 3], half_slope[:, 1:n + 2], out=right)
    else:
        left[...], right[...] = ext[:, 1:n + 2], ext[:, 2:n + 3]
    rho_f, mom_f, b_f = faces
    # minmod keeps interface values inside the neighbor range, so negative
    # reconstructed densities can only be rounding residue.
    np.maximum(rho_f, 0.0, out=rho_f)

    # Physical flux (m, m*u + P + b^2/2, u*b) with P = rho^gamma, and the fast
    # magnetosonic speed |u| + sqrt((gamma*P + b^2)/max(rho, RHO_FLOOR)) on both
    # sides at once, sharing u = m / max(rho, RHO_FLOOR) and the one power
    # pass.  Above the floor (gamma*P + b^2)/rho is gamma*rho^(gamma-1) + b^2/rho.
    gamma = params.gamma
    rho_safe = np.maximum(rho_f, RHO_FLOOR, out=ws.rho_safe)
    u = np.divide(mom_f, rho_safe, out=ws.u)
    pressure = ws.pressure
    pressure[...] = rho_f
    pressure **= gamma
    flux = ws.flux
    flux[0] = mom_f
    f_mom = np.multiply(mom_f, u, out=flux[1])
    f_mom += pressure
    np.multiply(u, b_f, out=flux[2])

    b_sq = np.square(b_f, out=ws.work)
    speed = np.multiply(pressure, gamma, out=ws.speed)
    speed += b_sq
    speed /= rho_safe
    np.sqrt(speed, out=speed)
    b_sq *= 0.5
    f_mom += b_sq
    speed += np.abs(u, out=ws.work)
    half_a = np.maximum(speed[0], speed[1], out=ws.half_a)
    half_a *= 0.5

    # f_hat = (f_l + f_r)/2 - a/2 * (q_r - q_l), then -(f_hat[1:] - f_hat[:-1])/dx
    f_hat = np.add(flux[:, 0], flux[:, 1], out=ws.f_hat)
    f_hat *= 0.5
    jump = np.subtract(faces[:, 1], faces[:, 0], out=ws.jump)
    jump *= half_a
    f_hat -= jump
    tend = np.empty((3, n))
    np.subtract(f_hat[:, 1:n + 1], f_hat[:, :n], out=tend)
    tend /= -dx

    finite = np.isfinite(tend, out=ws.finite)
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=0))
        raise NumericalError("non-finite tendency", node=int(bad[0]), time=state.t)
    return RhsOutput(d_rho=tend[0], d_mom=tend[1], d_b=tend[2])


class _Diffusion:
    """The diffusion terms at a frozen density, as a linear operator on (w, b).

    w = viscous_velocity(m, rho, rho_bar) = m/r with r = max(rho, floor).  The
    momentum tendency (rho/r) * mu * w_xx moves w at the rate (rho/r) * mu *
    w_xx / r, and b moves at nu * b_xx, by central differences with far-field
    ghosts (w = 0, b = b_bar).  The weight rho/r is exactly 1 wherever rho >=
    floor; below the viscous floor it makes the deposited momentum scale with
    rho.  The kinetic-energy change at frozen density, sum(u * d_m * dx) with
    u = m/rho, is then mu * sum(w * w_xx * dx) = -mu * sum(w_x^2 * dx), vacuum
    included: viscosity can only dissipate, by the amount the audit's
    ``diss_u`` records.  Row 1 (b) exists only when nu > 0.
    """

    def __init__(self, rho: np.ndarray, params: PhysParams, grid: Grid1D):
        floor = viscous_floor(params.rho_bar)
        self.rho_safe = np.maximum(rho, floor)  # rho is frozen for the operator's lifetime
        self.w_rate = (params.mu / grid.dx**2) / self.rho_safe
        if float(rho.min()) < floor:  # elsewhere the weight is exactly 1
            self.w_rate *= rho / self.rho_safe
        self.b_rate = params.nu / grid.dx**2
        self.rows = 2 if params.nu > 0 else 1
        self.ext = np.empty((self.rows, grid.n_cells + 2))  # one ghost per side
        self.ext[:, 0] = self.ext[:, -1] = (0.0, params.b_bar)[:self.rows]
        self.fields = self.ext[:, 1:-1]
        self.grad = np.empty((self.rows, grid.n_cells + 1))

    def load(self, mom: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Write (w, b) into ``fields`` and return them."""
        np.divide(mom, self.rho_safe, out=self.fields[0])
        self.fields[1:] = b  # no row when nu = 0
        return self.fields

    def __call__(self, scale: float, out: np.ndarray) -> np.ndarray:
        """scale times the rates of (w, b) at ``fields``, written into out[:rows]."""
        grad = np.subtract(self.ext[:, 1:], self.ext[:, :-1], out=self.grad)
        rates = np.subtract(grad[:, 1:], grad[:, :-1], out=out[:self.rows])
        rates[0] *= self.w_rate
        rates[0] *= scale
        if self.rows == 2:
            rates[1] *= self.b_rate * scale
        return rates


def diffusion_tendency(state: State, params: PhysParams,
                       grid: Grid1D) -> tuple[np.ndarray, np.ndarray | None]:
    """(d_mom, d_b) of the diffusion terms alone; d_b is None when nu = 0.

    d_mom = (rho/max(rho, viscous_floor)) * mu * w_xx, w the viscous velocity;
    d_b = nu * b_xx.  See ``_Diffusion`` for the stencil and the weight.
    """
    operator = _Diffusion(state.rho, params, grid)
    operator.load(state.mom, state.b)
    d = operator(1.0, out=np.empty((2, grid.n_cells)))
    d[0] *= operator.rho_safe
    return d[0], (d[1] if operator.rows == 2 else None)


def tendencies(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D,
               rhs_fn=None) -> RhsOutput:
    """The full semi-discrete tendency: ``rhs_fn`` (default ``rhs``) plus
    ``diffusion_tendency``, added in place to the arrays ``rhs_fn`` returns."""
    out = (rhs_fn or rhs)(state, params, scheme, grid)
    d_mom, d_b = diffusion_tendency(state, params, grid)
    out.d_mom += d_mom
    if d_b is not None:
        out.d_b += d_b
    return out


def _advective_dt(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D) -> float:
    """The CFL bound of the hyperbolic step: cfl * dx / max fast speed."""
    return scheme.cfl_number * grid.dx / float(fast_speed_state(state, params).max())


def _diffusive_dt(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D) -> float:
    """The dx^2 restriction of one explicit diffusion stage."""
    rho_min = max(float(state.rho.min()), viscous_floor(params.rho_bar))
    diff_coef = max(params.mu / rho_min, params.nu)
    return scheme.diffusion_number * grid.dx**2 / diff_coef


def rkl2_stage_count(tau: float, dt_diffusive: float) -> int:
    """Smallest s >= 2 with tau <= dt_diffusive * (s^2 + s - 2) / 4.

    That is the stability bound of an s-stage RKL2 step of length tau when
    ``dt_diffusive`` is the step one explicit stage may take.
    """
    # the root of s^2 + s - 2 = 4 tau / dt_diffusive, then exact integer checks
    s = max(2, math.ceil((math.sqrt(9.0 + 16.0 * tau / dt_diffusive) - 1.0) / 2.0))
    while s > 2 and tau <= dt_diffusive * (s * (s - 1) - 2) / 4.0:
        s -= 1
    while tau > dt_diffusive * (s * s + s - 2) / 4.0:
        s += 1
    return s


@lru_cache(maxsize=64)
def rkl2_coefficients(s: int) -> tuple[float, tuple[tuple[float, float, float, float], ...]]:
    """mu~_1 and (mu_j, nu_j, mu~_j, gamma~_j) for j = 2..s of an s-stage RKL2 step.

    Meyer, Balsara & Aslam, J. Comput. Phys. 257 (2014) 594: with
    b_j = (j^2 + j - 2) / (2j(j+1)), b_0 = b_1 = 1/3, a_j = 1 - b_j and
    w_1 = 4 / (s^2 + s - 2),
        mu_j = (2j-1)/j * b_j/b_{j-1},  nu_j = -(j-1)/j * b_j/b_{j-2},
        mu~_j = mu_j * w_1,  gamma~_j = -a_{j-1} * mu~_j,  mu~_1 = b_1 * w_1.
    """
    def b(j):
        return 1.0 / 3.0 if j < 2 else (j * j + j - 2) / (2.0 * j * (j + 1))

    w1 = 4.0 / (s * s + s - 2)
    stages = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b(j) / b(j - 1)
        nu = -(j - 1) / j * b(j) / b(j - 2)
        stages.append((mu, nu, mu * w1, -(1.0 - b(j - 1)) * mu * w1))
    return b(1) * w1, tuple(stages)


def _diffuse(state: State, tau: float, params: PhysParams, grid: Grid1D, s: int) -> State:
    """Advance (m, b) by tau under the diffusion terms alone: one s-stage RKL2 step.

    At frozen density the step runs on Y = (w, b), w = m/r, r = max(rho,
    floor), with ``_Diffusion``'s rates L, on increments d_j = Y_j - Y_0 (the
    recursion's Y_0 terms cancel exactly, their weights summing to one):
        d_1 = l_0 mu~_1 with l_0 = L(Y_0) tau,
        d_j = ((nu_j d_{j-2} + L(Y_0 + d_{j-1}) (mu~_j tau)) + mu_j d_{j-1}) + l_0 gamma~_j,
    and m = m_0 + r d_s[0], b = b_0 + d_s[1].  A stage makes at most twelve
    numpy calls.  A state the operator leaves fixed, such as the far field,
    stays bit for bit.  The returned state shares rho (and b when nu = 0)
    with ``state``; its other fields are fresh.
    """
    operator = _Diffusion(state.rho, params, grid)
    y0 = operator.load(state.mom, state.b).copy()
    l0 = operator(tau, out=np.empty_like(y0))
    mu1, stages = rkl2_coefficients(s)
    prev2 = np.zeros_like(y0)
    prev = l0 * mu1
    scratch = np.empty_like(y0)
    for mu, nu, mu_t, gamma_t in stages:
        np.add(y0, prev, out=operator.fields)
        prev2 *= nu  # d_{j-2} is not needed after this stage
        prev2 += operator(mu_t * tau, out=scratch)
        prev2 += np.multiply(prev, mu, out=scratch)
        prev2 += np.multiply(l0, gamma_t, out=scratch)
        prev2, prev = prev, prev2
    prev[0] *= operator.rho_safe
    prev[0] += state.mom
    prev[1:] += state.b  # no row when nu = 0
    return State._unchecked(state.rho, prev[0], prev[1] if operator.rows == 2 else state.b,
                            state.t)


def _fields(state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return state.rho, state.mom, state.b


def _euler_stage(state: State, dt: float, params, scheme, grid, rhs_fn):
    """q + dt*d of the hyperbolic tendencies into fresh arrays, density clipped to >= 0."""
    out = rhs_fn(state, params, scheme, grid)
    rho, mom, b = (np.multiply(d, dt) for d in (out.d_rho, out.d_mom, out.d_b))
    rho += state.rho
    mom += state.mom
    b += state.b
    clipped = int(np.count_nonzero(rho < 0.0))
    if clipped:
        np.maximum(rho, 0.0, out=rho)
    return State._unchecked(rho, mom, b, state.t + dt), clipped


def _hyperbolic_step(state: State, dt: float, params, scheme, grid, rhs_fn) -> tuple[State, int]:
    """One SSP Runge-Kutta step of the hyperbolic tendencies ``rhs_fn``.

    Each RK combination is written into the arrays of the stage just
    computed, which nothing else holds.
    """
    s1, c1 = _euler_stage(state, dt, params, scheme, grid, rhs_fn)
    s2, c2 = _euler_stage(s1, dt, params, scheme, grid, rhs_fn)
    if scheme.time_integrator == "ssp_rk2":
        for q, new in zip(_fields(state), _fields(s2)):  # 0.5 * (q + s2)
            new += q
            new *= 0.5
        s2.t = state.t + dt
        return s2, c1 + c2
    scaled = np.empty_like(state.rho)
    for q, mid in zip(_fields(state), _fields(s2)):      # 0.75 * q + 0.25 * s2
        mid *= 0.25
        mid += np.multiply(q, 0.75, out=scaled)
    s2.t = state.t + 0.5 * dt
    s3, c3 = _euler_stage(s2, dt, params, scheme, grid, rhs_fn)
    for q, new in zip(_fields(state), _fields(s3)):      # q / 3 + 2/3 * s3
        new *= 2.0 / 3.0
        new += np.divide(q, 3.0, out=scaled)
    s3.t = state.t + dt
    return s3, c1 + c2 + c3


def step(state: State, dt: float, params: PhysParams, scheme: SchemeConfig,
         grid: Grid1D, rhs_fn=None, stages: int | None = None) -> tuple[State, int]:
    """Advance one Strang-split step D(dt/2) H(dt) D(dt/2); returns the new
    state and the number of nodes where the density had to be clipped to zero.

    D is an RKL2 step of the diffusion terms with ``stages`` stages (by
    default the fewest that keep this state's diffusion stable over dt/2), H
    an SSP Runge-Kutta step of ``rhs_fn``, the hyperbolic tendencies.  Only H
    evaluates ``rhs_fn``, and only H moves the time label, so time-dependent
    forcing sees the hyperbolic stage times.  The new state shares no memory
    with ``state``.
    """
    rhs_fn = rhs_fn or rhs
    half = 0.5 * dt
    if stages is None:
        stages = rkl2_stage_count(half, _diffusive_dt(state, params, scheme, grid))
    state = _diffuse(state, half, params, grid, stages)
    state, clips = _hyperbolic_step(state, dt, params, scheme, grid, rhs_fn)
    return _diffuse(state, half, params, grid, stages), clips


def check_boundary(state: State, params: PhysParams) -> float:
    """Abort when the perturbation reaches the outermost interior nodes.

    Returns the largest deviation from the far field over those nodes.
    """
    k = BOUNDARY_NODES
    dev = 0.0
    for q, far in ((state.rho, params.rho_bar), (state.mom, 0.0), (state.b, params.b_bar)):
        for edge in (q[:k], q[-k:]):
            for value in edge.tolist():
                dev = max(dev, abs(value - far))
    if dev > BOUNDARY_TOLERANCE:
        raise BoundaryMonitorError(time=state.t, deviation=dev)
    return dev


def run_lockstep(members: list[tuple[State, PhysParams]], scheme: SchemeConfig,
                 grid: Grid1D, rhs_fn=None, observe=None, max_steps: int = 10_000_000,
                 recorded: int = 1, telemetry: diagnostics.RunTelemetry | None = None
                 ) -> tuple[list[State], list[diagnostics.DiagnosticsRecord]]:
    """Integrate every (state, params) member from t = 0 to t_end on one dt sequence.

    dt is the smallest advective bound over all members, clipped so that the
    uniform sample times are hit exactly; this keeps records from different
    runs directly comparable.  Every member takes the same number of RKL2
    stages per diffusion half-step, the fewest that keep the member with the
    largest diffusivity stable; with one dt and one stage count, the
    splitting error cancels in the difference of two members.  Each of the
    first ``recorded`` members carries its own dissipation accumulators
    (trapezoid in time, advanced every accepted step) and diagnostics
    record, whose clip count holds that member's own density clips.  With
    ``recorded = 0`` nothing is sampled or accumulated; the steps, sample
    landings and final states are those of a recorded run, and no record is
    returned.
    ``observe(states, dt)`` is called at t = 0 with dt = 0 and after every
    accepted step.  The group's steps, rhs evaluations, the bound that set
    each dt, the RKL2 stages and the density clips of every member are added
    to the caller's ``telemetry``, a failed run's too; ``max_steps`` counts
    this call's steps alone.

    A ``SimulationError`` leaves with ``exc.member``, the index of the member
    that raised (None when no single member did), and ``exc.record``, that
    member's record so far (None when it carries none).
    """
    rhs_per_step = STAGES[scheme.time_integrator]
    states = [s for s, _ in members]
    params = [p for _, p in members]
    telemetry = telemetry if telemetry is not None else diagnostics.RunTelemetry()
    records = [diagnostics.DiagnosticsRecord() for _ in range(recorded)]
    accums = [diagnostics.Accumulators() for _ in range(recorded)]

    def check(i):
        telemetry.peak_boundary_deviation = max(telemetry.peak_boundary_deviation,
                                                check_boundary(states[i], params[i]))

    def record_sample(i):
        out = tendencies(states[i], params[i], scheme, grid, rhs_fn)
        telemetry.rhs_evals += 1
        records[i].append(diagnostics.sample(states[i], out, params[i], grid, accums[i]))

    member = None
    try:
        for member in range(len(states)):
            check(member)
        for member in range(recorded):
            accums[member].start(states[member], params[member], grid)
            record_sample(member)
        member = None
        if observe is not None:
            observe(states, 0.0)
        t_end = scheme.t_end
        sample_times = ([t_end * k / scheme.n_samples for k in range(1, scheme.n_samples + 1)]
                        if t_end > 0 else [])
        next_sample = steps = 0
        while next_sample < len(sample_times):
            target = sample_times[next_sample]
            dt = min(_advective_dt(s, p, scheme, grid) for s, p in zip(states, params))
            landed = states[0].t + dt >= target - 1e-12 * t_end
            if landed:
                dt = target - states[0].t
                telemetry.dt_sample_landing += 1
            else:
                telemetry.dt_advective += 1
            stages = rkl2_stage_count(
                0.5 * dt, min(_diffusive_dt(s, p, scheme, grid) for s, p in zip(states, params)))
            telemetry.diffusion_stages += 2 * stages
            for member, p in enumerate(params):
                states[member], clips = step(states[member], dt, p, scheme, grid, rhs_fn, stages)
                telemetry.rhs_evals += rhs_per_step
                telemetry.clips += clips
                if member < recorded:
                    accums[member].clip_count += clips
                if landed:
                    states[member].t = target
            for member in range(recorded):
                accums[member].advance(states[member], params[member], grid, dt)
            for member in range(len(states)):
                check(member)
            member = None
            if observe is not None:
                observe(states, dt)
            if landed:
                for member in range(recorded):
                    record_sample(member)
                member = None
                next_sample += 1
            telemetry.steps += 1
            steps += 1
            if steps > max_steps:
                raise SimulationError(f"exceeded {max_steps} steps at t={states[0].t:.6g}")
    except SimulationError as exc:
        exc.member = member
        exc.record = records[member] if member is not None and member < recorded else None
        raise
    return states, records


def run(spec: ScenarioSpec, params: PhysParams, scheme: SchemeConfig, grid: Grid1D,
        telemetry: diagnostics.RunTelemetry | None = None
        ) -> tuple[State, diagnostics.DiagnosticsRecord]:
    """Integrate one scenario: the single-member case of ``run_lockstep``."""
    state = build_initial_state(spec, params, grid)
    (final,), (record,) = run_lockstep([(state, params)], scheme, grid, telemetry=telemetry)
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
    if not lines:
        raise ValueError("checkpoint is empty")
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
    "diffusion_tendency",
    "tendencies",
    "rkl2_stage_count",
    "rkl2_coefficients",
    "step",
    "check_boundary",
    "run_lockstep",
    "run",
    "save_checkpoint",
    "load_checkpoint",
]

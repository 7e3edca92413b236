"""Method-of-lines integrator for 1D compressible isentropic MHD:

    rho_t + (rho u)_x = 0,  (rho u)_t + (rho u^2 + P + b^2/2)_x = (mu u_x)_x,
    b_t + (u b)_x = nu b_xx,

the non-resistive system being nu = 0, where nu b_xx is omitted exactly.
``rhs`` is the hyperbolic operator: local Lax-Friedrichs interface fluxes
with piecewise-constant or MUSCL reconstruction of (rho, m, b) under a
min/max-only minmod limiter, one rho^gamma pass serving the flux and the
fast speed, advanced by the two-stage SSP Runge-Kutta method SSPRK2.
``diffusion_tendency`` is the second-order central diffusion terms, advanced
by second-order Runge-Kutta-Legendre (RKL2) super-time-stepping at frozen
density, m/r(rho) and b each at their own ``_stage_counts``, every stage
within ``DIFFUSION_NUMBER`` * dx^2 / (the block's largest diffusivity),
Strang-split around the hyperbolic step, so the advective CFL bound at
``CFL_NUMBER`` alone sets dt; ``tendencies`` is the sum.
Far-field Dirichlet values enter through ghost cells.  A state (``State.q``)
and a tendency (what ``rhs``, ``tendencies`` and any ``rhs_fn`` return) are
one (3, n) array each, rows (rho, m, b), so an SSPRK2 stage is a whole-block
operation.  One driver advances any number of runs on a shared dt sequence:
a single run is one member, a sweep group is one member per resistivity plus
a shared non-resistive reference.  Plain numpy; each RKL2 stage sums its
terms in one BLAS dgemv (``np.dot``) through the OpenBLAS bundled with numpy,
whose bytes do not depend on the BLAS thread count or on the arrays'
alignment, so repeated runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import diagnostics
from .core import (
    BOUNDARY_TOLERANCE,  # re-exported with the solver's public names
    RHO_BAR,
    RHO_FLOOR,
    VISC_FLOOR_FRACTION,  # re-exported too
    Grid1D,
    PhysParams,
    State,
    fast_speed,
    field_problems,
    viscous_density,
    viscous_rate_density,
)
from .errors import BoundaryMonitorError, NumericalError, SimulationError
from .scenario import ScenarioSpec, build_initial_state

RECONSTRUCTIONS = ("first_order_upwind", "muscl_minmod")
RHS_PER_STEP = 2  # rhs evaluations per hyperbolic (SSPRK2) step
CFL_NUMBER = 0.45  # fraction of the forward-Euler bound each SSPRK2 stage takes
DIFFUSION_NUMBER = 0.4  # safety factor of each RKL2 stage, a fraction of dx^2 / diffusivity

BOUNDARY_NODES = 3  # outermost interior nodes the monitor reads, per edge


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization knobs: reconstruction and horizon.

    The hyperbolic step is always SSPRK2, and neither step bound is a knob:
    each SSPRK2 stage takes ``CFL_NUMBER`` of its forward-Euler bound and
    each super-time-stepping stage ``DIFFUSION_NUMBER`` of its dx^2 bound.
    """

    reconstruction: str = "muscl_minmod"
    t_end: float = 1.0
    n_samples: int = 50
    # Not a field (no annotation), so neither configurable nor fingerprinted;
    # kept only because the benchmark's tracer (bench/spans.py) reads it.
    time_integrator = "ssp_rk2"

    def __post_init__(self):
        problems = field_problems(self)
        if self.reconstruction not in RECONSTRUCTIONS:
            problems.append(f"reconstruction must be one of {RECONSTRUCTIONS}")
        if self.t_end < 0:
            problems.append(f"t_end >= 0 required, got {self.t_end}")
        if self.n_samples < 1:
            problems.append(f"n_samples >= 1 required, got {self.n_samples}")
        if problems:
            raise ValueError(*problems)


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
    dead before the next is written.  Every view of these arrays that ``rhs``
    and the limiter read or write is sliced here once, not once per call.
    ``stage_stack`` is the (4, n) operand of each stage of
    ``_Diffusion.rkl2``, held here for the same reason, with its rows.
    """

    def __init__(self, n: int):
        w = n + 4
        self.n = n
        self.ext = ext = np.empty((3, w))           # fields plus two ghosts per side
        self.interior = ext[:, 2:-2]                # the fields, rows (rho, m, b)
        self.ghosts = ext[:, :2], ext[:, -2:]
        self.far = np.array([[RHO_BAR], [0.0], [0.0]])  # far-field column (RHO_BAR, 0, b_bar)
        self.half_slope = np.zeros((3, w))          # [field, extended cell - 1]
        self.faces = faces = np.ones((3, 2, w))     # [field, left/right, interface]
        flux = np.empty((3, 2, w))                  # [field, left/right, interface]
        self.half_a = np.empty(w)
        self.finite = np.empty((3, n), dtype=bool)
        scratch = np.empty(10 * w)
        # slope limiter, on the flattened stack
        flat = ext.reshape(-1)
        self.flat_shifts = flat[1:], flat[:-1]
        self.half_diff = scratch[:3 * w - 1]        # halved neighbour differences
        self.diff_shifts = self.half_diff[:-1], self.half_diff[1:]
        self.lo = scratch[3 * w:6 * w - 2]
        self.hi = scratch[6 * w:9 * w - 2]
        self.limited = self.half_slope.reshape(-1)[:3 * w - 2]
        # interface states: cell values and half-slopes either side of each interface
        self.cells = ext[:, 1:n + 2], ext[:, 2:n + 3]
        self.slopes = self.half_slope[:, :n + 1], self.half_slope[:, 1:n + 2]
        self.sides = faces[:, 0, :n + 1], faces[:, 1, :n + 1]
        self.face_rows, self.face_jump = tuple(faces), (faces[:, 1], faces[:, 0])  # q_r, q_l
        self.flux_rows, self.flux_sides = tuple(flux), (flux[:, 0], flux[:, 1])
        # flux and wave speed, both sides at once
        self.rho_safe, self.u, self.pressure, self.work, self.speed = \
            scratch.reshape(5, 2, w)
        self.speed_sides = tuple(self.speed)
        # interface flux
        self.f_hat, self.jump = scratch[:6 * w].reshape(2, 3, w)
        self.f_hat_shifts = self.f_hat[:, 1:n + 1], self.f_hat[:, :n]
        self.stage_stack = np.empty((4, n))
        self.stage_rows = tuple(self.stage_stack)


_workspace: _Workspace | None = None


def _workspace_for(n: int) -> _Workspace:
    """The shared workspace, reallocated only when the grid size changes.

    One module-level workspace makes ``rhs`` and ``_Diffusion.rkl2``
    non-re-entrant across threads; parallel sweeps use processes.
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
    d = np.subtract(*ws.flat_shifts, out=ws.half_diff)
    d *= 0.5
    a, b = ws.diff_shifts
    lo = np.minimum(a, b, out=ws.lo)
    hi = np.maximum(a, b, out=ws.hi)
    np.minimum(hi, 0.0, out=hi)
    np.maximum(lo, hi, out=ws.limited)
    return ws.half_slope


def rhs(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D) -> np.ndarray:
    """Hyperbolic tendencies at one instant, the operator of the SSP stages.

    Local Lax-Friedrichs interface fluxes with the configured reconstruction;
    the diffusion terms are ``diffusion_tendency``'s, and ``tendencies`` adds
    the two.  Returns a fresh (3, n) float array, rows (rho, m, b) as in
    ``State.q``; every temporary lives in a per-grid-size workspace.
    """
    n = grid.n_cells
    ws = _workspace_for(n)
    ws.interior[...] = state.q
    ws.far[2] = params.b_bar
    low, high = ws.ghosts
    low[...] = high[...] = ws.far

    left, right = ws.sides
    if scheme.reconstruction == "muscl_minmod":
        _half_minmod_slopes(ws)
        np.add(ws.cells[0], ws.slopes[0], out=left)
        np.subtract(ws.cells[1], ws.slopes[1], out=right)
    else:
        left[...], right[...] = ws.cells
    rho_f, mom_f, b_f = ws.face_rows
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
    f_rho, f_mom, f_b = ws.flux_rows
    f_rho[...] = mom_f
    np.multiply(mom_f, u, out=f_mom)
    f_mom += pressure
    np.multiply(u, b_f, out=f_b)

    b_sq = np.square(b_f, out=ws.work)
    speed = np.multiply(pressure, gamma, out=ws.speed)
    speed += b_sq
    speed /= rho_safe
    np.sqrt(speed, out=speed)
    b_sq *= 0.5
    f_mom += b_sq
    speed += np.abs(u, out=ws.work)
    half_a = np.maximum(*ws.speed_sides, out=ws.half_a)
    half_a *= 0.5

    # f_hat = (f_l + f_r)/2 - a/2 * (q_r - q_l), then -(f_hat[1:] - f_hat[:-1])/dx
    f_hat = np.add(*ws.flux_sides, out=ws.f_hat)
    f_hat *= 0.5
    jump = np.subtract(*ws.face_jump, out=ws.jump)
    jump *= half_a
    f_hat -= jump
    tend = np.empty((3, n))
    np.subtract(*ws.f_hat_shifts, out=tend)
    tend /= -grid.dx

    finite = np.isfinite(tend, out=ws.finite)
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=0))
        raise NumericalError("non-finite tendency", node=int(bad[0]), time=state.t)
    return tend


class _Diffusion:
    """One diffusion block at frozen density, as a linear operator on one field.

    Viscous: w = viscous_velocity(m, rho) = m/r, r = viscous_density(rho), moves
    at the array rate (rho/r) * mu / r times w_xx, the momentum tendency
    (rho/r) * mu * w_xx over r.  Resistive: b moves at nu times b_xx.
    Central differences, one far-field ghost per side (w = 0, b = b_bar).  The
    weight rho/r is exactly 1 wherever r = rho; elsewhere it makes the
    deposited momentum scale with rho.  The kinetic-energy change at frozen
    density, sum(u * d_m * dx) with u = m/rho, is then mu * sum(w * w_xx * dx)
    = -mu * sum(w_x^2 * dx), vacuum included: viscosity can only dissipate,
    by the amount the audit's ``diss_u`` records.
    """

    def __init__(self, y0: np.ndarray, ghost: float, rate: np.ndarray | float):
        self.y0 = y0  # only read
        self.ext = np.empty(len(y0) + 2)
        self.ext[0] = self.ext[-1] = ghost
        self.field = self.ext[1:-1]
        self.grad = np.empty(len(y0) + 1)
        self.shifts = self.ext[1:], self.ext[:-1], self.grad[1:], self.grad[:-1]
        self.rate = rate

    def __call__(self, scale: float, out: np.ndarray | None = None) -> np.ndarray:
        """scale times the rates L(y0), (d2 * rate) * scale or d2 * (rate * scale).

        ``field`` is loaded from y0 here, so every call, and every ``rkl2``,
        starts from y0 whatever ran on the block before.
        """
        ext_hi, ext_lo, grad_hi, grad_lo = self.shifts
        self.field[...] = self.y0
        np.subtract(ext_hi, ext_lo, out=self.grad)
        rates = np.subtract(grad_hi, grad_lo, out=out)
        if isinstance(self.rate, np.ndarray):  # viscous
            rates *= self.rate
            rates *= scale
        else:
            rates *= self.rate * scale
        return rates

    def rkl2(self, tau: float, s: int) -> np.ndarray:
        """The increment d_s of the block over an s-stage RKL2 step of length tau.

        On increments d_j = Y_j - Y_0 (the recursion's Y_0 terms cancel
        exactly, their weights summing to one):
            d_1 = l_0 mu~_1 with l_0 = L(Y_0) tau,
            d_j = nu_j d_{j-2} + mu_j d_{j-1} + (mu~_j c) R_j + gamma~_j l_0,
        R_j the second difference d2 at Y_0 + d_{j-1}, times the rate for the
        viscous block (c = tau); the resistive block folds its scalar rate
        into c = rate * tau.  Each stage sums its four terms in one ``np.dot``
        of the weights with the workspace's stage stack, rows (d_even, d_odd,
        R_j, l_0): d_k sits in row k mod 2, so d_j overwrites d_{j-2} and the
        weights follow the rows.  That dot is numpy's BLAS dgemv, which fuses
        multiply and add; its bytes do not depend on the BLAS thread count or
        on the arrays' alignment, so runs stay bit-reproducible.  One stage
        loop serves both blocks; it applies the operator inline, with the
        arithmetic of ``__call__``.
        """
        y0, field, grad, rate = self.y0, self.field, self.grad, self.rate
        ext_hi, ext_lo, grad_hi, grad_lo = self.shifts
        add, subtract, dot, copyto = np.add, np.subtract, np.dot, np.copyto  # looked up once
        viscous = isinstance(rate, np.ndarray)
        ws = _workspace_for(len(y0))
        stack, (even, odd, term, l0) = ws.stage_stack, ws.stage_rows
        self(tau, out=l0)
        even.fill(0.0)
        np.multiply(l0, rkl2_coefficients(s)[0], out=odd)
        slots = (even, odd), (odd, even)  # the rows of (d_{j-2}, d_{j-1}) for even and odd j
        d = np.empty_like(y0)  # the result, fresh
        for j, w in enumerate(_rkl2_stage_weights(s, tau if viscous else rate * tau), start=2):
            older, last = slots[j % 2]
            add(y0, last, out=field)
            subtract(ext_hi, ext_lo, out=grad)
            subtract(grad_hi, grad_lo, out=term)
            if viscous:
                term *= rate
            dot(w, stack, out=d)  # out must not overlap the stack
            if j < s:
                copyto(older, d)
        return d


@lru_cache(maxsize=16)
def _rkl2_stage_weights(s: int, c: float) -> np.ndarray:
    """The weights of stages j = 2..s of ``_Diffusion.rkl2``, one row per stage
    in its stack's row order (d_even, d_odd, R_j, l_0): (nu_j, mu_j, mu~_j c,
    gamma~_j) for even j, (mu_j, nu_j, mu~_j c, gamma~_j) for odd j.

    Read-only, as the cache shares it: both half-steps of a step take the same
    c, and every member of a lockstep group the same viscous c = tau.  A step's
    keys are one viscous c and one resistive c per nu, so 16 entries hold them
    for groups of the acceptance sweep's size.
    """
    rows = [(nu, mu, mu_t * c, gamma_t) if j % 2 == 0 else (mu, nu, mu_t * c, gamma_t)
            for j, (mu, nu, mu_t, gamma_t) in enumerate(rkl2_coefficients(s)[1], start=2)]
    weights = np.array(rows)
    weights.flags.writeable = False
    return weights


def _blocks(state: State, params: PhysParams, grid: Grid1D):
    """r = viscous_density(rho), the viscous block and the resistive one (None at nu = 0)."""
    rho_safe = viscous_density(state.rho)
    w_rate = (params.mu / grid.dx**2) / rho_safe
    if rho_safe is not state.rho:  # else r = rho and the weight is exactly 1
        w_rate *= state.rho / rho_safe
    resistive = _Diffusion(state.b, params.b_bar, params.nu / grid.dx**2) if params.nu > 0 else None
    return rho_safe, _Diffusion(state.mom / rho_safe, 0.0, w_rate), resistive


def diffusion_tendency(state: State, params: PhysParams,
                       grid: Grid1D) -> tuple[np.ndarray, np.ndarray | None]:
    """(d_mom, d_b) of the diffusion terms alone; d_b is None when nu = 0.

    d_mom = (rho/r) * mu * w_xx, r the viscous density and w = m/r;
    d_b = nu * b_xx.  See ``_Diffusion`` for the stencil and the weight.
    """
    rho_safe, viscous, resistive = _blocks(state, params, grid)
    return viscous(1.0) * rho_safe, (resistive(1.0) if resistive is not None else None)


def tendencies(state: State, params: PhysParams, scheme: SchemeConfig, grid: Grid1D,
               rhs_fn=None) -> np.ndarray:
    """The full semi-discrete tendency, a (3, n) array: ``rhs_fn`` (default
    ``rhs``) plus ``diffusion_tendency``, added in place to the m and b rows of
    the array ``rhs_fn`` returns."""
    out = (rhs_fn or rhs)(state, params, scheme, grid)
    d_mom, d_b = diffusion_tendency(state, params, grid)
    out[1] += d_mom
    if d_b is not None:
        out[2] += d_b
    return out


def _advective_dt(state: State, params: PhysParams, grid: Grid1D) -> float:
    """The CFL bound of the hyperbolic step: CFL_NUMBER * dx / max fast speed."""
    return CFL_NUMBER * grid.dx / float(fast_speed(*state.q, params.gamma).max())


def _diffusive_dt(state: State, params: PhysParams, grid: Grid1D) -> float:
    """The dx^2 restriction of one explicit stage of the viscous block (not of b's).

    The block's largest rate is at most (mu/d)/dx^2 with d =
    viscous_rate_density(rho_min), which is rho_min when no node is below 2f.
    By Gershgorin an explicit stage is stable up to dx^2/(2 mu/d), and
    DIFFUSION_NUMBER is below 1/2.
    """
    d = viscous_rate_density(float(state.rho.min()))
    return DIFFUSION_NUMBER * grid.dx**2 / (params.mu / d)


def _stage_counts(dt: float, members: list, grid: Grid1D) -> list[tuple[int, int]]:
    """Each (state, params) member's (viscous, resistive) RKL2 stage counts over
    dt/2: every viscous block the count the group's largest viscous rate needs,
    each b block the count its own nu needs at DIFFUSION_NUMBER * dx^2 / nu."""
    half = 0.5 * dt
    s = rkl2_stage_count(half, min(_diffusive_dt(state, params, grid) for state, params in members))
    return [(s, rkl2_stage_count(half, DIFFUSION_NUMBER * grid.dx**2 / params.nu)
             if params.nu > 0 else 0) for _, params in members]


def rkl2_stage_count(tau: float, dt_diffusive: float) -> int:
    """Smallest s >= 2 with tau <= dt_diffusive * (s^2 + s - 2) / 4.

    That is the stability bound of an s-stage RKL2 step of length tau when
    ``dt_diffusive`` is the step one explicit stage may take.
    """
    s = 2
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


def _diffuse(state: State, tau: float, params: PhysParams, grid: Grid1D, s: int, s_b: int) -> State:
    """Advance (m, b) by tau under the diffusion terms alone: an s-stage RKL2
    step of the viscous block, m = m_0 + r d_w, and an s_b-stage one of b, b =
    b_0 + d_b (none at nu = 0), added to a fresh copy of the block.  The far
    field stays bit for bit.
    """
    rho_safe, viscous, resistive = _blocks(state, params, grid)
    q = state.q.copy()
    d_mom = viscous.rkl2(tau, s)
    d_mom *= rho_safe
    q[1] += d_mom
    if resistive is not None:
        q[2] += resistive.rkl2(tau, s_b)
    return State._unchecked(q, state.t)


def _euler_stage(state: State, dt: float, params, scheme, grid, rhs_fn):
    """q + dt*d of the hyperbolic tendencies into a fresh block, density clipped to >= 0."""
    q = rhs_fn(state, params, scheme, grid) * dt
    q += state.q
    rho = q[0]
    clipped = int(np.count_nonzero(rho < 0.0))
    if clipped:
        np.maximum(rho, 0.0, out=rho)
    return State._unchecked(q, state.t + dt), clipped


def _hyperbolic_step(state: State, dt: float, params, scheme, grid, rhs_fn) -> tuple[State, int]:
    """One SSPRK2 step of the hyperbolic tendencies ``rhs_fn``: 0.5 * (q + E(E(q))),
    E the forward-Euler stage, so ``RHS_PER_STEP`` evaluations.

    The combination is written into the block of the second stage, which
    nothing else holds.
    """
    s1, c1 = _euler_stage(state, dt, params, scheme, grid, rhs_fn)
    s2, c2 = _euler_stage(s1, dt, params, scheme, grid, rhs_fn)
    s2.q += state.q
    s2.q *= 0.5
    s2.t = state.t + dt
    return s2, c1 + c2


def step(state: State, dt: float, params: PhysParams, scheme: SchemeConfig,
         grid: Grid1D, rhs_fn=None, stages: tuple[int, int] | None = None) -> tuple[State, int]:
    """Advance one Strang-split step D(dt/2) H(dt) D(dt/2); returns the new
    state and the number of nodes where the density had to be clipped to zero.

    D is an RKL2 step of the viscous and of the resistive block with the
    ``stages`` = (viscous, resistive) counts, by default this state's own
    ``_stage_counts``; H is an SSPRK2 step of ``rhs_fn``, the hyperbolic
    tendencies.  Only H evaluates ``rhs_fn``, and only H moves the
    time label, so time-dependent forcing sees the hyperbolic stage times.
    The new state shares no memory with ``state``.
    """
    rhs_fn = rhs_fn or rhs
    half = 0.5 * dt
    s, s_b = stages if stages is not None else _stage_counts(dt, [(state, params)], grid)[0]
    state = _diffuse(state, half, params, grid, s, s_b)
    state, clips = _hyperbolic_step(state, dt, params, scheme, grid, rhs_fn)
    return _diffuse(state, half, params, grid, s, s_b), clips


def check_boundary(state: State, params: PhysParams) -> float:
    """Abort when the perturbation reaches the outermost interior nodes.

    Returns the largest deviation from the far field over those nodes; a NaN
    or infinite value there (max() would drop a NaN, and an infinity would read
    as a deviation) raises ``NumericalError`` naming its node.
    """
    k = BOUNDARY_NODES
    dev = 0.0
    for q, far in zip(state.q, (RHO_BAR, 0.0, params.b_bar)):
        for j, value in enumerate(q[:k].tolist() + q[-k:].tolist()):
            if not math.isfinite(value):
                node = j if j < k else len(q) - 2 * k + j
                raise NumericalError("non-finite state at the boundary", node=node, time=state.t)
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
    runs directly comparable.  Each step, ``_stage_counts`` gives every
    member the RKL2 stage counts ``step`` takes, one viscous count for the
    group and a resistive one per nu; with one dt and one viscous stage
    count, the splitting error cancels in the difference of two members.
    Each of the first ``recorded`` members carries its own dissipation
    accumulators (trapezoid in time, advanced every accepted step) and
    diagnostics record, whose clip count holds that member's own density
    clips.  With ``recorded = 0`` nothing is sampled or accumulated; the
    steps, sample landings and final states are those of a recorded run,
    and no record is returned.
    ``observe(states, dt)`` is called at t = 0 with dt = 0 and after every
    accepted step.  The group's steps, rhs evaluations, the bound that set
    each dt, the RKL2 stages ``step`` was given and the density clips of
    every member are added to the caller's ``telemetry``, a failed run's too;
    ``max_steps`` counts this call's steps alone.

    A ``SimulationError`` leaves with ``exc.member``, the index of the member
    that raised (None when no single member did), and ``exc.record``, that
    member's record so far (None when it carries none).
    """
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
            dt = min(_advective_dt(s, p, grid) for s, p in zip(states, params))
            landed = states[0].t + dt >= target - 1e-12 * t_end
            if landed:
                dt = target - states[0].t
                telemetry.dt_sample_landing += 1
            else:
                telemetry.dt_advective += 1
            counts = _stage_counts(dt, list(zip(states, params)), grid)
            telemetry.diffusion_stages += 2 * counts[0][0]  # one viscous count for the group
            for member, (p, stages) in enumerate(zip(params, counts)):
                states[member], clips = step(states[member], dt, p, scheme, grid, rhs_fn, stages)
                telemetry.rhs_evals += RHS_PER_STEP
                telemetry.resistive_stages += 2 * stages[1]
                telemetry.clips += clips
                if member < recorded:
                    accums[member].clip_count += clips
                if landed:
                    states[member].t = target
            for member in range(recorded):
                accums[member].advance(states[member], params[member], grid, dt)
                if observe is not None or not landed:  # kept only for a sample, no callback between
                    accums[member]._fields = None
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
    values = np.column_stack((grid.x, *state.q)).ravel().tolist()
    return (f"{grid.n_cells} {grid.half_width:.17e} {state.t:.17e}\n"
            + "%.17e %.17e %.17e %.17e\n" * grid.n_cells % tuple(values))


def load_checkpoint(text: str) -> tuple[State, Grid1D]:
    """The state and grid of a ``save_checkpoint`` text; a malformed line is a ValueError
    naming it.  Every value must be a finite number, the cell count an integer, the time
    and every density non-negative, and every node on the grid."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("checkpoint is empty")
    rows = []
    for number, line in enumerate(lines, start=1):
        width = 3 if number == 1 else 4  # "n_cells L t", then "x rho mom b"
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            row = [math.nan] * width
        if len(row) != width:
            raise ValueError(f"checkpoint line {number} has {len(row)} values, not {width}")
        if not all(map(math.isfinite, row)) or row[2 if number == 1 else 1] < 0:
            raise ValueError(f"checkpoint line {number} needs finite numbers and a non-negative "
                             f"{'time' if number == 1 else 'density'}, got {line.strip()!r}")
        rows.append(row)
    (_, half_width, t), *rows = rows
    n = lines[0].split()[0]
    try:  # a count like "16.0" stays a string, which Grid1D rejects as not an integer
        grid = Grid1D(half_width, int(n) if n.isdigit() else n)
    except ValueError as exc:
        raise ValueError(f"checkpoint line 1: {'; '.join(exc.args)}") from None
    if len(rows) != grid.n_cells:
        raise ValueError(f"checkpoint line 1 declares {grid.n_cells} rows, found {len(rows)}")
    data = np.array(rows)
    off = np.flatnonzero(np.abs(data[:, 0] - grid.x) > 1e-12)
    if off.size:
        raise ValueError(f"checkpoint line {off[0] + 2}: node coordinates off the grid")
    return State(*data[:, 1:].T, t=t), grid


__all__ = [
    "RECONSTRUCTIONS",
    "RHS_PER_STEP",
    "CFL_NUMBER",
    "DIFFUSION_NUMBER",
    "VISC_FLOOR_FRACTION",
    "BOUNDARY_TOLERANCE",
    "BOUNDARY_NODES",
    "SchemeConfig",
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

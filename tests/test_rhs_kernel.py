"""The per-step kernels against their out-of-place reference forms.

``reference_rhs`` below is the earlier form of ``mhd1d.solver.rhs``, the
hyperbolic tendencies: one field at a time, with fresh arrays for every
temporary.  ``reference_diffusion`` is the diffusion terms, and their sum is
the full tendency of ``solver.tendencies``.  ``reference_step`` and
``reference_integrand`` are the out-of-place forms of ``solver.step`` (the
Strang step: RKL2 diffusion half-steps around the SSP Runge-Kutta step of
``rhs``) and ``Accumulators.integrand``, with a fresh array for every
expression, and ``reference_dt_bounds`` is the pair of step bounds,
advective and viscous, from public pieces.  ``reference_sample`` is every
diagnostics column from the helper chain ``sample`` once used, each helper
evaluating its own fields; ``velocity_tendency``, ``material_derivative`` and
``effective_viscous_flux``, no longer in the package, are kept here as copies.
The production code must
reproduce them bit for bit (sign of zero included) over the admissible
parameter space, so any change to its arithmetic shows up here first.
``reference_block_increment`` sums each RKL2 stage's terms in one
``np.dot``, as the production step does, so the bits match;
``sequential_block_increment``, the earlier one-pass-per-term sum, and
``previous_rkl2``, the RKL2 step as it was before it ran on the viscous
velocity, must match the production step to rounding.  Every RKL2 form
takes one stage count per diffusion block, viscous and resistive.  The
properties of the limiter, the diffusion operator and the RKL2 integrator
follow.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd1d import Grid1D, PhysParams, ScenarioSpec, SchemeConfig, State, build_initial_state
from mhd1d import solver
from mhd1d.core import (
    RHO_BAR,
    RHO_FLOOR,
    VISC_FLOOR_FRACTION,
    constant_state,
    derivative,
    fast_speed,
    pressure,
    viscous_velocity,
)
from mhd1d.diagnostics import (
    COLUMNS,
    Accumulators,
    _spreading_weight,
    energy_density,
    lp_norm,
    momentum_potential,
    sample,
)
from mhd1d.errors import NumericalError
from mhd1d.solver import (
    CFL_NUMBER,
    DIFFUSION_NUMBER,
    _Workspace,
    _advective_dt,
    _blocks,
    _diffuse,
    _diffusive_dt,
    _half_minmod_slopes,
    _stage_counts,
    diffusion_tendency,
    rhs,
    rkl2_coefficients,
    rkl2_stage_count,
    step,
    tendencies,
)

# ---------------------------------------------------------------------------
# reference kernel (per-field form)


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), 0.0))


def _extend(state: State, params: PhysParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append two far-field ghost cells per side."""
    n = len(state.rho)
    rho_e = np.empty(n + 4)
    mom_e = np.empty(n + 4)
    b_e = np.empty(n + 4)
    rho_e[2:-2], mom_e[2:-2], b_e[2:-2] = state.rho, state.mom, state.b
    rho_e[:2] = rho_e[-2:] = RHO_BAR
    mom_e[:2] = mom_e[-2:] = 0.0
    b_e[:2] = b_e[-2:] = params.b_bar
    return rho_e, mom_e, b_e


def _flux_and_speed(rho, mom, b, gamma):
    """The physical flux and the fast speed |u| + sqrt((gamma*P + b^2)/rho_safe)."""
    rho_safe = np.maximum(rho, RHO_FLOOR)
    u = mom / rho_safe
    p = rho**gamma
    b_sq = b * b
    flux = (mom, mom * u + p + 0.5 * b_sq, u * b)
    return flux, np.sqrt((gamma * p + b_sq) / rho_safe) + np.abs(u)


def reference_rhs(state: State, params: PhysParams, scheme: SchemeConfig,
                  grid: Grid1D) -> np.ndarray:
    """Hyperbolic tendencies at one instant, rows (rho, m, b): local
    Lax-Friedrichs interface fluxes with the configured reconstruction."""
    n = grid.n_cells
    dx = grid.dx
    rho_e, mom_e, b_e = _extend(state, params)

    if scheme.reconstruction == "muscl_minmod":
        def faces(q):
            d = 0.5 * np.diff(q)
            s = _minmod(d[:-1], d[1:])  # half-slope for extended cells 1..n+2
            return q[1:n + 2] + s[:n + 1], q[2:n + 3] - s[1:n + 2]
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
    fl, a_l = _flux_and_speed(rho_l, mom_l, b_l, gamma)
    fr, a_r = _flux_and_speed(rho_r, mom_r, b_r, gamma)
    a = np.maximum(a_l, a_r)

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

    if not (np.all(np.isfinite(d_rho)) and np.all(np.isfinite(d_mom)) and np.all(np.isfinite(d_b))):
        bad = np.flatnonzero(~(np.isfinite(d_rho) & np.isfinite(d_mom) & np.isfinite(d_b)))
        raise NumericalError("non-finite tendency", node=int(bad[0]), time=state.t)
    return np.array((d_rho, d_mom, d_b))


def reference_tendencies(state: State, params: PhysParams, scheme: SchemeConfig,
                         grid: Grid1D) -> np.ndarray:
    """The full tendency: ``reference_rhs`` plus ``reference_diffusion``
    (nu*b_xx for nu > 0 only)."""
    d_rho, d_mom, d_b = reference_rhs(state, params, scheme, grid)
    d_visc, d_res = reference_diffusion(state, params, grid)
    return np.array((d_rho, d_mom + d_visc, d_b + d_res if params.nu > 0 else d_b))


def velocity_tendency(state: State, tendencies: np.ndarray) -> np.ndarray:
    """u_t = (m_t - u*rho_t) / max(rho, RHO_FLOOR) from rows 0 and 1 of the (3, n) tendencies."""
    u = state.velocity()
    return (tendencies[1] - u * tendencies[0]) / np.maximum(state.rho, RHO_FLOOR)


def material_derivative(state: State, u_t: np.ndarray, grid: Grid1D) -> np.ndarray:
    """du/dt following the flow: u_t + u*u_x."""
    u = state.velocity()
    return np.asarray(u_t, dtype=float) + u * derivative(u, grid.dx)


def effective_viscous_flux(state: State, params: PhysParams, grid: Grid1D) -> np.ndarray:
    """F = mu*u_x - (P(rho) - P(RHO_BAR) + (b^2 - b_bar^2)/2), u_x of the viscous velocity."""
    u = viscous_velocity(state.mom, state.rho)
    p_pert = pressure(state.rho, params.gamma) - RHO_BAR**params.gamma
    mag_pert = 0.5 * (state.b**2 - params.b_bar**2)
    return params.mu * derivative(u, grid.dx) - (p_pert + mag_pert)


def reference_sample(state: State, tendency: np.ndarray, params: PhysParams, grid: Grid1D,
                     accum: Accumulators) -> dict:
    """Every record column from ``sample``'s former helper chain, each helper
    evaluating its own fields, one fresh array per expression."""
    dx = grid.dx
    energy = energy_density(state, params)
    udot = material_derivative(state, velocity_tendency(state, tendency), grid)
    flux = effective_viscous_flux(state, params, grid)
    return {
        "t": state.t,
        "energy": float(np.trapezoid(energy, dx=dx)),
        "energy_weighted": float(np.trapezoid(energy * _spreading_weight(grid), dx=dx)),
        "sup_rho": float(np.max(state.rho)),
        "sup_abs_b": lp_norm(state.b, "inf", grid),
        "sup_abs_u": lp_norm(state.velocity(), "inf", grid),
        "l2_rho_pert": lp_norm(state.rho - RHO_BAR, 2, grid),
        "l4_b_pert": lp_norm(state.b - params.b_bar, 4, grid),
        "l2_ux": lp_norm(derivative(viscous_velocity(state.mom, state.rho), dx), 2, grid),
        "l2_bx": lp_norm(derivative(state.b, dx), 2, grid),
        "l2_rhox": lp_norm(derivative(state.rho, dx), 2, grid),
        "l2_rho_t": lp_norm(tendency[0], 2, grid),
        "l2_b_t": lp_norm(tendency[2], 2, grid),
        "l2_sqrt_rho_udot": lp_norm(np.sqrt(state.rho) * udot, 2, grid),
        "flux_residual": lp_norm(state.rho * udot - derivative(flux, dx), 2, grid),
        "xi_sup": lp_norm(momentum_potential(state, grid), "inf", grid),
        **accum.totals,
        "clip_count": accum.clip_count,
    }


def reference_viscous_density(rho):
    """The viscous density r(rho), restated here so the references do not read
    the product's ``viscous_density``: rho from 2f up and the C1 blend
    f + rho^2/(4f) below, f = VISC_FLOOR_FRACTION * RHO_BAR."""
    f = VISC_FLOOR_FRACTION * RHO_BAR
    return np.where(rho >= 2.0 * f, rho, f + rho * rho / (4.0 * f))


def reference_rate_density(rho_min: float) -> float:
    """d with mu/d the largest viscous rate mu*rho/r^2 over rho >= rho_min:
    rho_min from 2f up; below, r^2/rho at max(rho_min, 2f/sqrt(3)), where
    (2 mu/f) * t/(1 + t^2)^2, t = rho/(2f), peaks."""
    f = VISC_FLOOR_FRACTION * RHO_BAR
    if rho_min >= 2.0 * f:
        return rho_min
    rho = max(rho_min, 2.0 * f / math.sqrt(3.0))
    r = f + rho * rho / (4.0 * f)
    return r * r / rho


def reference_second_differences(w, b, params: PhysParams):
    """w_{i+1} - 2 w_i + w_{i-1} and the same of b, with far-field ghosts,
    taken as differences of differences."""
    w_e = np.concatenate([[0.0], w, [0.0]])
    b_e = np.concatenate([[params.b_bar], b, [params.b_bar]])
    return np.diff(w_e, 2), np.diff(b_e, 2)


def reference_rates(rho, w, b, params: PhysParams, grid: Grid1D, scale: float = 1.0):
    """scale times the rates of the viscous velocity w and of b under the
    diffusion terms at frozen density rho: w_rate * w_xx with w_rate =
    mu/dx^2 / rho_safe * (rho/rho_safe), rho_safe = r(rho), and
    nu * b_xx, the second differences those of ``reference_second_differences``."""
    rho_safe = reference_viscous_density(rho)
    w_rate = (params.mu / grid.dx**2) / rho_safe * (rho / rho_safe)
    w_xx, b_xx = reference_second_differences(w, b, params)
    return w_xx * w_rate * scale, b_xx * (params.nu / grid.dx**2 * scale)


def reference_diffusion(state: State, params: PhysParams, grid: Grid1D):
    """(rho/r(rho)) * mu * w_xx, w = m/r(rho), and nu * b_xx with far-field ghosts."""
    rho_safe = reference_viscous_density(state.rho)
    w_dot, b_dot = reference_rates(state.rho, state.mom / rho_safe, state.b, params, grid)
    return w_dot * rho_safe, b_dot


# ---------------------------------------------------------------------------
# reference Strang step and accumulator integrand (out-of-place forms)


def reference_block_increment(y0, rates, term, weight: float, tau: float, s: int):
    """The increment of one diffusion block over an s-stage RKL2 step, with
    ``rates(y, scale)`` its scaled rates and ``rates(y, 1.0)`` equal to
    ``term(y) * weight``.  Each stage's four terms are summed in one
    ``np.dot``, as the production step sums them: the weights (nu_j, mu_j,
    mu~_j * (weight * tau), gamma~_j) against the rows (d_{j-2}, d_{j-1},
    term(y0 + d_{j-1}), l_0), with d_k in row k mod 2."""
    mu1, stages = rkl2_coefficients(s)
    l0 = rates(y0, tau)
    d = [np.zeros_like(y0), l0 * mu1]  # d_k at d[k % 2]
    for j, (mu, nu, mu_t, gamma_t) in enumerate(stages, start=2):
        weights = [0.0, 0.0, mu_t * (weight * tau), gamma_t]
        weights[j % 2], weights[1 - j % 2] = nu, mu
        rows = np.stack([d[0], d[1], term(y0 + d[1 - j % 2]), l0])
        d[j % 2] = np.dot(np.array(weights), rows)
    return d[s % 2]


def sequential_block_increment(y0, rates, term, weight: float, tau: float, s: int):
    """``reference_block_increment`` as the earlier step summed each stage, one
    rounded pass per term: ((nu_j d_{j-2} + rates(y0 + d_{j-1}, mu~_j tau))
    + mu_j d_{j-1}) + l_0 gamma~_j.  ``term`` and ``weight`` are unused."""
    mu1, stages = rkl2_coefficients(s)
    l0 = rates(y0, tau)
    prev2, prev = np.zeros_like(y0), l0 * mu1
    for mu, nu, mu_t, gamma_t in stages:
        lj = rates(y0 + prev, mu_t * tau)
        prev2, prev = prev, ((nu * prev2 + lj) + mu * prev) + l0 * gamma_t
    return prev


def reference_rkl2(state: State, tau: float, params, grid, s: int, s_b: int,
                   block_increment=reference_block_increment) -> State:
    """RKL2 step of the diffusion terms at frozen density, one block at a time:
    s stages on the increments of w = m/r(rho), s_b on those of b
    (no b block when nu = 0).  The viscous term is the rate w_rate * w_xx,
    weight 1; the resistive one is b_xx, weight nu/dx^2."""
    rho_safe = reference_viscous_density(state.rho)
    w0 = state.mom / rho_safe
    d_w = block_increment(
        w0, lambda w, scale: reference_rates(state.rho, w, state.b, params, grid, scale)[0],
        lambda w: reference_rates(state.rho, w, state.b, params, grid)[0], 1.0, tau, s)
    b = state.b
    if params.nu > 0:
        b = state.b + block_increment(
            state.b, lambda b, scale: reference_rates(state.rho, w0, b, params, grid, scale)[1],
            lambda b: reference_second_differences(w0, b, params)[1], params.nu / grid.dx**2,
            tau, s_b)
    return State(state.rho, state.mom + d_w * rho_safe, b, state.t)


def previous_rkl2(state: State, tau: float, params, grid, s: int, s_b: int) -> State:
    """The earlier form of the RKL2 step: increments of (m, b), the weight
    rho/r(rho) after the second difference w_{i+1} - 2 w_i + w_{i-1}.
    The m row reads no b and the b row no m, so m is the m row of an s-stage
    step and b the b row of an s_b-stage one."""
    dx2 = grid.dx**2
    rho_safe = reference_viscous_density(state.rho)
    weight = state.rho / rho_safe

    def operator(mom, b):
        w = np.concatenate([[0.0], mom / rho_safe, [0.0]])
        b_e = np.concatenate([[params.b_bar], b, [params.b_bar]])
        return (weight * (params.mu * (w[2:] - 2.0 * w[1:-1] + w[:-2]) / dx2),
                params.nu * (b_e[2:] - 2.0 * b_e[1:-1] + b_e[:-2]) / dx2)

    def increments(s):
        mu1, stages = rkl2_coefficients(s)
        l0 = operator(state.mom, state.b)
        prev2 = (np.zeros_like(state.mom), np.zeros_like(state.b))
        prev = tuple(q * (mu1 * tau) for q in l0)
        for mu, nu, mu_t, gamma_t in stages:
            lj = operator(state.mom + prev[0], state.b + prev[1])
            new = tuple((nu * d2 + mu * d1) + (lq * (mu_t * tau) + lq0 * (gamma_t * tau))
                        for d2, d1, lq, lq0 in zip(prev2, prev, lj, l0))
            prev2, prev = prev, new
        return prev

    return State(state.rho, state.mom + increments(s)[0], state.b + increments(s_b)[1], state.t)


def _reference_euler_stage(state: State, dt: float, params, scheme, grid):
    out = rhs(state, params, scheme, grid)
    rho = state.rho + dt * out[0]
    clipped = np.count_nonzero(rho < 0.0)
    if clipped:
        rho = np.maximum(rho, 0.0)
    return State(rho, state.mom + dt * out[1], state.b + dt * out[2],
                 state.t + dt), clipped


def reference_step(state: State, dt: float, params, scheme, grid) -> tuple[State, int]:
    """D(dt/2) H(dt) D(dt/2) with, per diffusion block, the fewest RKL2 stages
    stable for this state: the peak viscous rate sets the viscous count, nu the
    resistive one."""
    s = rkl2_stage_count(0.5 * dt, reference_dt_bounds(state, params, grid)[1])
    s_b = (rkl2_stage_count(0.5 * dt, DIFFUSION_NUMBER * grid.dx**2 / params.nu)
           if params.nu > 0 else 0)
    state = reference_rkl2(state, 0.5 * dt, params, grid, s, s_b)
    new, clips = reference_hyperbolic_step(state, dt, params, scheme, grid)
    return reference_rkl2(new, 0.5 * dt, params, grid, s, s_b), clips


def reference_hyperbolic_step(state: State, dt: float, params, scheme,
                              grid) -> tuple[State, int]:
    s1, c1 = _reference_euler_stage(state, dt, params, scheme, grid)
    s2, c2 = _reference_euler_stage(s1, dt, params, scheme, grid)
    new = State(0.5 * (state.rho + s2.rho),
                0.5 * (state.mom + s2.mom),
                0.5 * (state.b + s2.b),
                state.t + dt)
    return new, c1 + c2


def _reference_derivative(values, dx):
    f = np.asarray(values, dtype=float)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * dx)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * dx)
    return out


def _reference_weighted_l2_of_square(square, weight, dx):
    return float(np.sqrt((square * weight).sum() * dx))


def reference_integrand(state: State, params: PhysParams, grid: Grid1D) -> tuple:
    dx = grid.dx
    weight = _spreading_weight(grid)
    w = state.mom / reference_viscous_density(state.rho)
    u_x2 = _reference_derivative(w, dx) ** 2
    b_x2 = _reference_derivative(state.b, dx) ** 2
    b_pert = state.b - params.b_bar
    return (
        params.mu * u_x2.sum() * dx,
        params.nu * b_x2.sum() * dx,
        params.mu * _reference_weighted_l2_of_square(u_x2, weight, dx) ** 2,
        params.nu * _reference_weighted_l2_of_square(b_x2, weight, dx) ** 2,
        lp_norm(b_pert, 6, grid) ** 6,
    )


def reference_dt_bounds(state: State, params: PhysParams, grid: Grid1D) -> tuple[float, float]:
    """The advective CFL bound and the dx^2 bound of one explicit stage of the
    viscous block, at its peak diffusivity mu/d; nu bounds the resistive block alone."""
    dt_adv = CFL_NUMBER * grid.dx / float(np.max(fast_speed(state.rho, state.mom, state.b, params.gamma)))
    d = reference_rate_density(float(np.min(state.rho)))
    dt_diff = DIFFUSION_NUMBER * grid.dx**2 / (params.mu / d)
    return dt_adv, dt_diff


# ---------------------------------------------------------------------------
# helpers


def assert_same_bits(out, ref, names=("d_rho", "d_mom", "d_b")):
    """Two (3, n) blocks, tendencies or ``State.q``, equal bit for bit, row by row."""
    for name, got, want in zip(names, out, ref, strict=True):
        assert np.array_equal(got, want), name
        assert got.tobytes() == want.tobytes(), f"{name}: sign of zero differs"


def assert_same_step(state, dt, params, scheme, grid):
    """``step`` against ``reference_step``: same fields, time and clips, no shared
    memory, and a read-only new state."""
    new, clips = step(state, dt, params, scheme, grid)
    ref, ref_clips = reference_step(state, dt, params, scheme, grid)
    assert_same_bits(new.q, ref.q, names=("rho", "mom", "b"))
    assert (new.t, clips) == (ref.t, ref_clips)
    for a in (new.q, new.rho, new.mom, new.b):
        assert not any(np.shares_memory(a, q) for q in (state.rho, state.mom, state.b))
        assert not a.flags.writeable
    return clips


def make_state(gamma, mu, nu, b_bar, preset, a_rho, a_u, a_b, sigma, n):
    params = PhysParams(mu=mu, nu=nu, gamma=gamma, b_bar=b_bar)
    if preset == "interior_vacuum":
        a_b = -b_bar  # the field vanishes with the density, as the presets require
    spec = ScenarioSpec(preset=preset, a_rho=a_rho, a_u=a_u, a_b=a_b,
                        sigma=sigma)
    grid = Grid1D(max(20.0, 5.0 * sigma), n)
    return build_initial_state(spec, params, grid), params, grid


@st.composite
def cases(draw):
    amplitude = st.floats(-0.5, 0.5)
    state, params, grid = make_state(
        gamma=draw(st.one_of(st.sampled_from((2.0, 3.0, 1.5)), st.floats(1.05, 3.0))),
        mu=draw(st.floats(0.01, 1.0)),
        nu=draw(st.one_of(st.just(0.0), st.floats(1e-5, 0.1))),
        b_bar=draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((1.0, -1.0))),
        preset=draw(st.sampled_from(("gaussian_bump", "interior_vacuum"))),
        # small density amplitudes put nodes well inside potential_energy's
        # |rho - RHO_BAR| < 1e-3 series band, not only in the far field
        a_rho=draw(st.one_of(amplitude, st.floats(-2e-3, 2e-3))),
        a_u=draw(amplitude), a_b=draw(amplitude),
        # sigma near 1 on L = 20 leaves Gaussian tails near 1e-170, where the
        # product of neighbouring slopes underflows to zero
        sigma=draw(st.one_of(st.floats(0.8, 1.2), st.floats(1.0, 4.0))),
        n=draw(st.one_of(st.sampled_from((8, 9, 64, 255, 1024, 4096)), st.integers(8, 4096))),
    )
    scheme = SchemeConfig(
        reconstruction=draw(st.sampled_from(("muscl_minmod", "first_order_upwind"))))
    for _ in range(draw(st.integers(0, 3))):
        state, _ = step(state, _advective_dt(state, params, grid), params, scheme, grid)
    return state, params, scheme, grid


@st.composite
def dt_cases(draw):
    """States of both presets, with zero-density nodes in the vacuum one, nu = 0
    among the resistivities, and mu chosen so that the drawn bound sets dt."""
    amplitude = st.floats(-0.5, 0.5)
    preset = draw(st.sampled_from(("gaussian_bump", "interior_vacuum")))
    state, params, grid = make_state(
        gamma=draw(st.floats(1.05, 3.0)), mu=draw(st.floats(0.01, 1.0)), nu=0.0,
        b_bar=draw(st.floats(0.5, 2.0)), preset=preset,
        a_rho=draw(amplitude), a_u=draw(amplitude), a_b=draw(amplitude),
        sigma=draw(st.floats(1.0, 4.0)), n=draw(st.integers(8, 4096)))
    for _ in range(draw(st.integers(0, 2))):
        state, _ = step(state, _advective_dt(state, params, grid), params, SchemeConfig(), grid)
    if preset == "interior_vacuum":
        state = state.copy()  # a stepped state is read-only
        k = int(np.argmin(state.rho))
        state.rho[max(k - 1, 0):k + 2] = 0.0
    dt_adv, _ = reference_dt_bounds(state, params, grid)
    # diffusivity at which the two bounds are equal
    even = DIFFUSION_NUMBER * grid.dx**2 / dt_adv
    rho_min = reference_rate_density(float(state.rho.min()))
    diffusive = draw(st.booleans())
    if diffusive:
        mu = rho_min * even * draw(st.floats(2.0, 100.0))
        nu = even * draw(st.one_of(st.just(0.0), st.floats(1e-3, 100.0)))
    else:
        mu = rho_min * even * draw(st.floats(1e-3, 0.5))
        nu = even * draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))
    return state, replace(params, mu=mu, nu=nu), grid, diffusive


# ---------------------------------------------------------------------------
# bit identity


@settings(max_examples=150)
@given(cases())
def test_rhs_matches_reference_bitwise(case):
    state, params, scheme, grid = case
    assert_same_bits(rhs(state, params, scheme, grid), reference_rhs(state, params, scheme, grid))


@settings(max_examples=150)
@given(cases())
def test_tendencies_match_reference_bitwise(case):
    # tendencies == reference_rhs + reference_diffusion
    state, params, scheme, grid = case
    assert_same_bits(tendencies(state, params, scheme, grid),
                     reference_tendencies(state, params, scheme, grid))


def assert_same_row(row: dict, ref: dict):
    """Two sampled rows hold the same columns with the same bits, sign of zero and NaN included."""
    assert sorted(row) == sorted(ref) == sorted(COLUMNS)
    for key in COLUMNS:
        assert np.float64(row[key]).tobytes() == np.float64(ref[key]).tobytes(), key


@settings(max_examples=150)
@given(cases(), st.booleans())
def test_sample_matches_reference_bitwise(case, handover):
    # handover: the accumulators last evaluated this very state, and sample
    # takes their gradients; otherwise they last evaluated another state and
    # sample raises rather than read that state's gradients
    state, params, scheme, grid = case
    other = State(state.rho, 2.0 * state.mom + 1.0, 1.5 * state.b - 0.25, state.t)
    accum = Accumulators(clip_count=3)
    accum.start(other if handover else state, params, grid)
    accum.advance(state if handover else other, params, grid, 0.125)
    assert (accum._fields[0]() is state) == handover
    out = tendencies(state, params, scheme, grid)
    if not handover:
        with pytest.raises(ValueError, match="not of the sampled state"):
            sample(state, out, params, grid, accum)
        return
    ref = reference_sample(state, reference_tendencies(state, params, scheme, grid),
                           params, grid, accum)
    assert_same_row(sample(state, out, params, grid, accum), ref)


def test_an_observer_that_writes_into_a_state_raises(params, grid, gaussian_spec):
    # every state the observer is handed, the initial one and the stepped ones,
    # is read-only, so the samples always read the fields the accumulators last
    # read; the write raises at the first call that makes it
    scheme = SchemeConfig(t_end=0.05, n_samples=3)
    state = build_initial_state(gaussian_spec, params, grid)
    for t_write in (0.0, scheme.t_end / scheme.n_samples):
        times = []

        def observe(states, dt):
            times.append(states[0].t)
            if states[0].t >= t_write:
                states[0].mom[:] *= 0.99

        with pytest.raises(ValueError, match="read-only"):
            solver.run_lockstep([(state, params)], scheme, grid, observe=observe)
        assert times[-1] >= t_write and all(t < t_write for t in times[:-1])
    assert state.mom.flags.writeable  # the caller's own state stays writable


@settings(max_examples=100)
@given(cases(), st.floats(0.05, 1.0))
def test_step_and_integrand_match_reference_bitwise(case, dt_fraction):
    state, params, scheme, grid = case
    dt = dt_fraction * _advective_dt(state, params, grid)
    assert_same_step(state, dt, params, scheme, grid)
    got = Accumulators().integrand(state, params, grid)
    want = reference_integrand(state, params, grid)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@settings(max_examples=150)
@given(dt_cases())
def test_advective_and_diffusive_dt_match_reference_bounds(case):
    # the advective bound sets dt, the viscous one the viscous block's RKL2 stage count
    state, params, grid, diffusive = case
    dt_adv, dt_diff = reference_dt_bounds(state, params, grid)
    assert (dt_diff < dt_adv) == diffusive
    assert _advective_dt(state, params, grid) == dt_adv
    assert _diffusive_dt(state, params, grid) == dt_diff


@pytest.mark.parametrize("reconstruction", ["muscl_minmod", "first_order_upwind"])
def test_clipping_step_matches_reference_bitwise(reconstruction):
    # ten times the advective bound drives the density next to the vacuum
    # below zero (diffusion, now super-time-stepped, no longer blows up)
    state, params, grid = make_state(2.0, 0.1, 1e-3, 1.0, "interior_vacuum",
                                     0.0, 2.0, 0.0, 2.0, 256)
    scheme = SchemeConfig(reconstruction=reconstruction)
    dt = 10.0 * _advective_dt(state, params, grid)
    assert assert_same_step(state, dt, params, scheme, grid) > 0


# ---------------------------------------------------------------------------
# diffusion operator and RKL2 super-time-stepping


@settings(max_examples=100)
@given(cases(), st.booleans())
def test_viscous_deposit_only_dissipates_kinetic_energy(case, zero_nodes):
    # at frozen density the kinetic energy changes by sum(u * d_m * dx); with
    # the rho-weighted deposit that is mu * sum(w * w_xx * dx) <= 0, the
    # viscous dissipation the audit records, vacuum nodes included
    state, params, scheme, grid = case
    params = replace(params, nu=0.0) if zero_nodes else params
    rho, mom = state.rho.copy(), state.mom.copy()
    vacuum = rho < RHO_FLOOR  # m = rho*u vanishes with the density
    if zero_nodes:
        k = int(np.argmin(rho))
        vacuum[max(k - 1, 0):k + 2] = True
    rho[vacuum] = 0.0
    mom[vacuum] = 0.0
    state = State(rho, mom, state.b, state.t)

    d_mom, d_b = diffusion_tendency(state, params, grid)
    assert (d_b is None) == (params.nu == 0)
    dx = grid.dx
    terms = mom / np.maximum(rho, RHO_FLOOR) * d_mom * dx
    w = np.concatenate([[0.0], viscous_velocity(mom, rho), [0.0]])
    dissipation = -params.mu * (np.diff(w) ** 2).sum() / dx
    assert dissipation <= 0.0
    assert abs(terms.sum() - dissipation) <= 1e-10 * max(np.abs(terms).sum(), 1e-300)
    assert np.all(d_mom[vacuum] == 0.0)


@settings(max_examples=300)
@given(st.floats(1e-9, 1e3), st.floats(1e-9, 1e3))
def test_rkl2_stage_count_is_minimal(tau, dt_diffusive):
    s = rkl2_stage_count(tau, dt_diffusive)
    assert s >= 2
    assert tau <= dt_diffusive * (s * s + s - 2) / 4.0
    if s > 2:
        assert tau > dt_diffusive * ((s - 1) * (s - 1) + (s - 1) - 2) / 4.0


@pytest.mark.parametrize("tau_over_dt, stages", [(1e-6, 2), (1.0, 2), (1.0 + 1e-12, 3),
                                                 (2.5, 3), (7.0, 5), (1000.0, 63)])
def test_rkl2_stage_count_at_the_bounds(tau_over_dt, stages):
    assert rkl2_stage_count(tau_over_dt * 1e-3, 1e-3) == stages


@pytest.mark.parametrize("s", [2, 3, 7, 20])
def test_rkl2_is_second_order_on_a_scalar_mode(s):
    # the stability polynomial of one RKL2 step is 1 + z + z^2/2 + O(z^3)
    mu1, stages = rkl2_coefficients(s)
    for z in (-1e-2, -1e-3):
        y_prev2, y_prev = 1.0, 1.0 + mu1 * z
        for mu, nu, mu_t, gamma_t in stages:
            y_prev2, y_prev = y_prev, (mu * y_prev + nu * y_prev2 + (1.0 - mu - nu)
                                       + mu_t * z * y_prev + gamma_t * z)
        assert abs(y_prev - math.exp(z)) < abs(z) ** 3


def _sine_mode_error(steps: int, s: int):
    """RKL2 alone on nu*b_xx (u = 0) for one discrete sine mode, to T = 0.05:
    the scalar-rate b block takes s stages, the (zero) viscous block two."""
    params = PhysParams(mu=0.1, nu=1.0)
    grid = Grid1D(1.0, 64)
    n, k, amplitude, t_end = grid.n_cells, 3, 0.1, 0.05
    mode = np.sin(k * np.pi * np.arange(1, n + 1) / (n + 1))  # zero at both ghosts
    rate = -4.0 * params.nu * np.sin(k * np.pi / (2 * (n + 1))) ** 2 / grid.dx**2
    state = State(np.full(n, RHO_BAR), np.zeros(n), params.b_bar + amplitude * mode)
    for _ in range(steps):
        state = _diffuse(state, t_end / steps, params, grid, 2, s)
    assert np.all(state.mom == 0.0)
    exact = params.b_bar + amplitude * np.exp(rate * t_end) * mode
    return float(np.abs(state.b - exact).max()) / amplitude


def test_rkl2_matches_the_discrete_decay_at_second_order():
    # the b block at its own stage count, set by nu alone: mu/RHO_BAR = 0.1
    # would allow two stages, nu = 1 needs more
    params, grid = PhysParams(mu=0.1, nu=1.0), Grid1D(1.0, 64)
    dt_diffusive = DIFFUSION_NUMBER * grid.dx**2 / params.nu
    s = rkl2_stage_count(0.05 / 8, dt_diffusive)  # stable for the coarser steps
    state = State(np.full(64, RHO_BAR), np.zeros(64), np.full(64, params.b_bar))
    [(s_viscous, s_b)] = _stage_counts(0.05 / 4, [(state, params)], grid)
    assert s == s_b > 2
    assert rkl2_stage_count(0.05 / 8, _diffusive_dt(state, params, grid)) == s_viscous < s
    coarse, fine = _sine_mode_error(8, s), _sine_mode_error(16, s)
    assert coarse < 1e-3
    assert 3.7 < coarse / fine < 4.3


def _python_half_minmod(a: float, b: float) -> float:
    if a > 0.0 and b > 0.0:
        return 0.5 * min(a, b)
    if a < 0.0 and b < 0.0:
        return 0.5 * max(a, b)
    return 0.0


@pytest.mark.parametrize("seed", [0, 1])
def test_limiter_matches_plain_minmod(seed):
    # random stacks, plus runs of tiny values whose neighbouring slopes have
    # products that underflow to zero
    n = 64
    rng = np.random.default_rng(seed)
    ws = _Workspace(n)
    ws.ext[...] = rng.normal(size=ws.ext.shape) * 10.0 ** rng.integers(-3, 3, size=ws.ext.shape)
    ws.ext[1, 10:20] = np.cumsum(rng.uniform(0.5, 2.0, 10)) * 1e-170
    ws.ext[2, 30:40] = -np.cumsum(rng.uniform(0.5, 2.0, 10)) * 1e-170
    flat = ws.ext.reshape(-1).tolist()
    diffs = [right - left for left, right in zip(flat[:-1], flat[1:])]
    assert any(a * b == 0.0 and a != 0.0 and b != 0.0 for a, b in zip(diffs[:-1], diffs[1:]))
    want = [_python_half_minmod(a, b) for a, b in zip(diffs[:-1], diffs[1:])]
    got = _half_minmod_slopes(ws).reshape(-1)[:len(want)]
    assert got.tolist() == want


def test_underflowing_slope_product_keeps_the_smaller_slope():
    # slopes (1e-170, 2e-170): a*b underflows to 0, and the half-slope is
    # still half the smaller one
    ws = _Workspace(16)
    ws.ext[...] = 0.0
    ws.ext[1, 5:8] = (0.0, 1e-170, 3e-170)  # cell 6 of the momentum row
    a, b = ws.ext[1, 6] - ws.ext[1, 5], ws.ext[1, 7] - ws.ext[1, 6]
    assert a == 1e-170 and b == pytest.approx(2e-170) and a * b == 0.0
    assert _half_minmod_slopes(ws)[1, 5] == 5e-171
    params = PhysParams(nu=0.0)
    grid = Grid1D(20.0, 16)
    mom = np.zeros(16)
    mom[5:9] = (1e-170, 2e-170, 4e-170, 8e-170)
    state = State(rho=np.full(16, RHO_BAR), mom=mom, b=np.full(16, params.b_bar))
    assert_same_bits(rhs(state, params, SchemeConfig(), grid),
                     reference_rhs(state, params, SchemeConfig(), grid))


@settings(max_examples=60)
@given(cases())
def test_rhs_fast_speed_matches_the_two_power_formula(case):
    # rhs forms c^2 = (gamma*P + b^2)/rho from P = rho^gamma; at rho >= RHO_FLOOR
    # that is gamma*rho^(gamma-1) + b^2/rho.  After a call the workspace still
    # holds the interface states and both sides' fast speeds.
    state, params, scheme, grid = case
    rhs(state, params, scheme, grid)
    ws, n = solver._workspace, grid.n_cells
    rho_f, mom_f, b_f = ws.faces[:, :, :n + 1]
    keep = rho_f >= RHO_FLOOR
    want = fast_speed(rho_f, mom_f, b_f, params.gamma)
    np.testing.assert_allclose(ws.speed[:, :n + 1][keep], want[keep], rtol=1e-14, atol=0.0)


def _stage_cases():
    """A Gaussian state, and a vacuum one with nodes below the viscous floor."""
    params = PhysParams(mu=0.1, nu=1e-3, gamma=2.0)
    grid = Grid1D(20.0, 256)
    for preset, a_b in (("gaussian_bump", 0.3), ("interior_vacuum", -1.0)):
        spec = ScenarioSpec(preset=preset, a_rho=0.3, a_u=0.2, a_b=a_b)
        yield preset, build_initial_state(spec, params, grid), params, grid


@pytest.mark.parametrize("s", [2, 3, 15, 30])
def test_diffuse_leaves_the_far_field_bit_for_bit(s):
    params = PhysParams(mu=0.1, nu=1e-3)
    grid = Grid1D(20.0, 64)
    state = constant_state(grid, params)
    new = _diffuse(state, 1.0, params, grid, s, s)
    assert new.mom.tobytes() == state.mom.tobytes()
    assert new.b.tobytes() == state.b.tobytes()


@pytest.mark.parametrize("s", [2, 3, 15, 30])
@pytest.mark.parametrize("preset, state, params, grid", list(_stage_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_diffuse_matches_the_previous_recursion(s, preset, state, params, grid):
    # the (w, b) stages and the earlier (m, b) ones differ only by rounding;
    # tau is the longest step s viscous stages keep stable, and the b block
    # takes its own count, never more
    weighted = float(state.rho.min()) < 2.0 * VISC_FLOOR_FRACTION * RHO_BAR
    assert weighted == (preset == "interior_vacuum")
    dt_diffusive = _diffusive_dt(state, params, grid)
    tau = dt_diffusive * (s * s + s - 2) / 4.0
    assert rkl2_stage_count(tau, dt_diffusive) == s
    [(s_viscous, s_b)] = _stage_counts(2 * tau, [(state, params)], grid)
    assert 2 <= s_b <= s == s_viscous
    new = _diffuse(state, tau, params, grid, s, s_b)
    old = previous_rkl2(state, tau, params, grid, s, s_b)
    for got, want in ((new.mom, old.mom), (new.b, old.b)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("nu", [1e-3, 0.0])
@pytest.mark.parametrize("s", [2, 3, 15, 30])
@pytest.mark.parametrize("preset, state, params, grid", list(_stage_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_diffuse_matches_reference_rkl2_bitwise(nu, s, preset, state, params, grid):
    # both blocks at s stages over the longest step s viscous stages keep
    # stable, the b block absent at nu = 0
    params = replace(params, nu=nu)
    dt_diffusive = _diffusive_dt(state, params, grid)
    tau = dt_diffusive * (s * s + s - 2) / 4.0
    [(s_viscous, s_b)] = _stage_counts(2 * tau, [(state, params)], grid)
    assert s_viscous == s >= s_b and (s_b == 0) == (nu == 0)
    assert_same_bits(_diffuse(state, tau, params, grid, s, s).q,
                     reference_rkl2(state, tau, params, grid, s, s).q, names=("rho", "mom", "b"))


@pytest.mark.parametrize("nu", [1e-3, 0.0])
@pytest.mark.parametrize("s", [2, 3, 15, 30])
@pytest.mark.parametrize("preset, state, params, grid", list(_stage_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_stacked_stages_match_the_sequential_sum_to_rounding(nu, s, preset, state, params, grid):
    # one fused dot per stage against the one-pass-per-term sum it replaced:
    # a different rounding of the same recursion, the same bound as the
    # previous-recursion test above
    params = replace(params, nu=nu)
    tau = _diffusive_dt(state, params, grid) * (s * s + s - 2) / 4.0
    new = _diffuse(state, tau, params, grid, s, s)
    old = reference_rkl2(state, tau, params, grid, s, s, block_increment=sequential_block_increment)
    for got, want in ((new.mom, old.mom), (new.b, old.b)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("block, s", [(1, 3), (2, 2)], ids=["viscous", "resistive"])
@pytest.mark.parametrize("preset, state, params, grid", list(_stage_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_a_block_steps_from_its_operand_every_time(block, s, preset, state, params, grid):
    # the stages overwrite the block's operand; each rkl2, and each operator
    # call, loads it from y0 again, so applying one block twice gives one answer
    diffusion = _blocks(state, params, grid)[block]
    first = diffusion.rkl2(0.01, s).copy()
    assert diffusion.rkl2(0.01, s).tobytes() == first.tobytes()
    rates = diffusion(1.0).copy()
    diffusion.rkl2(0.01, s)
    assert diffusion(1.0).tobytes() == rates.tobytes()


def test_shared_workspace_follows_far_field_size_and_reconstruction():
    # rhs slices its views once per grid size; alternating far fields, grid
    # sizes and reconstructions on the one shared workspace must leave none stale
    far_fields = (1.0, -0.6)
    for n in (64, 96, 64, 96):
        grid = Grid1D(20.0, n)
        for b_bar in far_fields + far_fields:
            params = PhysParams(b_bar=b_bar)
            state = build_initial_state(ScenarioSpec(a_u=0.2, a_b=0.3), params, grid)
            for reconstruction in solver.RECONSTRUCTIONS:
                scheme = SchemeConfig(reconstruction=reconstruction)
                assert_same_bits(rhs(state, params, scheme, grid),
                                 reference_rhs(state, params, scheme, grid))
                assert solver._workspace.n == n


@pytest.mark.parametrize("node", [0, 17, 255])
def test_non_finite_state_reports_the_reference_node(node, params, grid):
    state = build_initial_state(ScenarioSpec(), params, grid)
    state.b[node] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError) as want:
            reference_rhs(state, params, SchemeConfig(), grid)
        with pytest.raises(NumericalError) as got:
            rhs(state, params, SchemeConfig(), grid)
    assert got.value.node == want.value.node


def test_outputs_do_not_alias_the_workspace(params):
    # callers hold several rhs outputs at once; a later call, on another
    # state or another grid size, must not write into an earlier output
    scheme = SchemeConfig()
    grid = Grid1D(20.0, 256)
    first_state = build_initial_state(ScenarioSpec(), params, grid)
    first = rhs(first_state, params, scheme, grid)
    kept = [a.copy() for a in first]

    other = build_initial_state(ScenarioSpec(a_u=-0.3, a_b=0.4), params, grid)
    rhs(other, params, scheme, grid)
    finer = Grid1D(20.0, 512)
    rhs(build_initial_state(ScenarioSpec(), params, finer), params, scheme, finer)
    for before, after in zip(kept, first):
        assert before.tobytes() == after.tobytes()
    assert_same_bits(rhs(first_state, params, scheme, grid),
                     reference_rhs(first_state, params, scheme, grid))


# ---------------------------------------------------------------------------
# allocation


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults are Linux-specific")
@pytest.mark.parametrize("n", [4096, 8192])
def test_rhs_takes_no_page_faults_in_steady_state(n, params):
    # temporaries above malloc's trim threshold are returned to the OS on
    # free and fault in again on the next call; the workspace avoids that
    resource = pytest.importorskip("resource")
    grid = Grid1D(20.0, n)
    state = build_initial_state(ScenarioSpec(), params, grid)
    scheme = SchemeConfig()
    for _ in range(2):
        rhs(state, params, scheme, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        rhs(state, params, scheme, grid)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 200 < 1.0

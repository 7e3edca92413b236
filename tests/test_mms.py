import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd1d import (
    Grid1D,
    PhysParams,
    SchemeConfig,
    manufactured_solution,
    mms_rhs,
    rhs,
    run_manufactured,
    tendencies,
)
from mhd1d import solver
from mhd1d.mms import observed_orders
from mhd1d.solver import _advective_dt


@pytest.fixture(scope="module")
def ms_params():
    return PhysParams(nu=1e-3)


@pytest.fixture(scope="module")
def ms(ms_params):
    return manufactured_solution(ms_params)


class TestManufacturedSolution:
    def test_constant_fields_have_zero_sources(self, ms_params):
        flat = manufactured_solution(ms_params, amplitude=0.0)
        grid = Grid1D(20.0, 64)
        x = grid.x
        for t in (0.0, 0.7):
            for source in flat.sources(x, t):
                assert np.all(np.asarray(source) == 0.0)
        state = flat.initial_state(grid)
        assert np.all(state.rho == ms_params.rho_bar)
        assert len(state.rho) == grid.n_cells

    def test_initial_state_matches_fields(self, ms, ms_params):
        grid = Grid1D(20.0, 128)
        state = ms.initial_state(grid)
        assert np.allclose(state.rho, ms.rho(grid.x, 0.0))
        assert np.allclose(state.velocity(), ms.u(grid.x, 0.0), atol=1e-12)
        errs = ms.errors(state, grid)
        assert all(v < 1e-12 for v in errs.values())

    def test_forced_tendency_vanishes_with_resolution(self, ms, ms_params):
        # at t=0 the exact fields have zero time derivative (cosine factor), so
        # the full forced tendencies are pure stencil truncation: small and shrinking
        sups = []
        for n in (256, 512, 1024):
            grid = Grid1D(20.0, n)
            state = ms.initial_state(grid)
            out = tendencies(state, ms_params, SchemeConfig(), grid,
                             lambda *args: mms_rhs(*args, ms))
            sups.append(max(np.abs(out.d_rho).max(), np.abs(out.d_mom).max(),
                            np.abs(out.d_b).max()))
        assert sups[0] < 5e-3
        assert sups[0] > sups[1] > sups[2]


FIELDS = ("rho", "u", "b", "mom")
SOURCES = ("source_rho", "source_mom", "source_b")
PARAM_NAMES = ("gamma", "mu", "nu", "rho_bar", "b_bar", "amplitude", "sigma", "omega")


@functools.lru_cache(maxsize=1)
def _sympy_oracle():
    """The four fields and three sources differentiated by sympy, parameters kept symbolic.

    The residuals are written in conservation form, independently of the
    hand-expanded closed forms in ``mms.py``, and lambdified once without
    simplification.
    """
    sp = pytest.importorskip("sympy")
    x, t = sp.symbols("x t", real=True)
    gamma, mu, nu, rho_bar, b_bar, amp, sigma, omega = sp.symbols(PARAM_NAMES, real=True)
    g = sp.exp(-(x**2) / sigma**2)
    th = sp.cos(omega * t)
    rho_s = rho_bar + amp * g * th
    u_s = amp * x * g * th
    b_s = b_bar + amp * g * th
    m_s = rho_s * u_s
    s_rho = sp.diff(rho_s, t) + sp.diff(m_s, x)
    s_mom = (sp.diff(m_s, t) + sp.diff(m_s * u_s + rho_s**gamma + b_s**2 / 2, x)
             - mu * sp.diff(u_s, x, 2))
    s_b = sp.diff(b_s, t) + sp.diff(u_s * b_s, x) - nu * sp.diff(b_s, x, 2)
    args = (x, t, gamma, mu, nu, rho_bar, b_bar, amp, sigma, omega)
    return [sp.lambdify(args, e, "numpy") for e in (rho_s, u_s, b_s, m_s, s_rho, s_mom, s_b)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(1.1, 3.0), mu=st.floats(0.01, 1.0),
       nu=st.one_of(st.just(0.0), st.floats(1e-5, 0.1)),
       rho_bar=st.floats(1.0, 2.0),
       b_bar=st.floats(0.5, 2.0).flatmap(lambda v: st.sampled_from((v, -v))),
       amplitude=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
       sigma=st.floats(1.0, 4.0), omega=st.floats(0.0, 4.0))
def test_closed_forms_match_sympy_derivation(gamma, mu, nu, rho_bar, b_bar, amplitude,
                                             sigma, omega):
    oracle = _sympy_oracle()
    params = PhysParams(mu=mu, nu=nu, gamma=gamma, rho_bar=rho_bar, b_bar=b_bar)
    ms = manufactured_solution(params, amplitude=amplitude, sigma=sigma, omega=omega)
    x = np.linspace(-20.0, 20.0, 257)
    for t in (0.0, 0.37, 1.3, 2.9):
        values = [getattr(ms, name)(x, t) for name in FIELDS] + list(ms.sources(x, t))
        for name, ref_fn, got in zip(FIELDS + SOURCES, oracle, values):
            ref = ref_fn(x, t, gamma, mu, nu, rho_bar, b_bar, amplitude, sigma, omega) + 0.0 * x
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (name, t)


def reference_sources(params, amplitude, sigma, omega, x, t):
    """The hand-expanded residuals that the sympy test pins, restated operation
    for operation, so ``sources`` (one evaluation of the closed-form derivatives
    for all three) must equal them bit for bit."""
    s2 = sigma**2
    g = np.exp(-(x**2) / s2)
    g_x = -2.0 * x / s2 * g
    g_xx = (4.0 * x**2 / s2 - 2.0) / s2 * g
    ac, aws = amplitude * np.cos(omega * t), amplitude * omega * np.sin(omega * t)
    rho, u, b = params.rho_bar + ac * g, ac * x * g, params.b_bar + ac * g
    rho_x, rho_t, u_x = ac * g_x, -aws * g, ac * (g + x * g_x)
    u_xx, u_t, b_xx = ac * (2.0 * g_x + x * g_xx), -aws * x * g, ac * g_xx
    s_rho = rho_t + rho_x * u + rho * u_x
    s_mom = (rho_t * u + rho * u_t + (rho_x * u + 2.0 * rho * u_x) * u
             + (params.gamma * rho ** (params.gamma - 1.0) + b) * rho_x
             - params.mu * u_xx)
    s_b = rho_t + u_x * b + u * rho_x - params.nu * b_xx
    return s_rho, s_mom, s_b


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(1.1, 3.0), mu=st.floats(0.01, 1.0),
       nu=st.one_of(st.just(0.0), st.floats(1e-5, 0.1)),
       amplitude=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
       sigma=st.floats(1.0, 4.0), omega=st.floats(0.0, 4.0),
       t=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
def test_sources_and_forced_rhs_match_reference_bitwise(gamma, mu, nu, amplitude, sigma,
                                                        omega, t):
    params = PhysParams(mu=mu, nu=nu, gamma=gamma)
    ms = manufactured_solution(params, amplitude=amplitude, sigma=sigma, omega=omega)
    grid = Grid1D(20.0, 128)
    ref = reference_sources(params, amplitude, sigma, omega, grid.x, t)
    for name, got, want in zip(SOURCES, ms.sources(grid.x, t), ref):
        assert np.array_equal(got, want), name
    # the forced operator is rhs plus those sources, bit for bit
    state = replace(ms.initial_state(grid), t=t)
    forced, plain = mms_rhs(state, params, SchemeConfig(), grid, ms), rhs(state, params,
                                                                        SchemeConfig(), grid)
    for got, d, source in zip((forced.d_rho, forced.d_mom, forced.d_b),
                              (plain.d_rho, plain.d_mom, plain.d_b), ref):
        assert np.array_equal(got, d + source)


class TestForcedRuns:
    def test_forced_run_tracks_exact_solution(self, ms, ms_params):
        errs = run_manufactured(ms_params, SchemeConfig(t_end=0.3, n_samples=3),
                                Grid1D(20.0, 256), ms)
        assert all(v < 1e-3 for v in errs.values())

    def test_two_grid_orders(self, ms_params, ms):
        orders = observed_orders(ms_params, SchemeConfig(t_end=0.4, n_samples=4),
                                 n_cells=(128, 256), manufactured=ms)
        assert all(v >= 1.6 for v in orders.values())

    def test_upwind_first_order(self, ms_params, ms):
        scheme = SchemeConfig(t_end=0.4, n_samples=4, reconstruction="first_order_upwind")
        orders = observed_orders(ms_params, scheme,
                                 n_cells=(128, 256), manufactured=ms)
        assert all(0.8 <= v < 1.6 for v in orders.values())

    def test_forced_run_lands_only_on_t_end(self, ms, ms_params, monkeypatch):
        # only the final state is read, so every step before the last takes the
        # advective bound: dt refines with dx, and the caller's n_samples is moot
        calls = []  # (t before the step, dt, advective bound), step by step
        plain_step = solver.step

        def recording_step(state, dt, params, scheme_, grid_, rhs_fn=None, stages=None):
            calls.append((state.t, dt, _advective_dt(state, params, scheme_, grid_)))
            return plain_step(state, dt, params, scheme_, grid_, rhs_fn, stages)

        monkeypatch.setattr(solver, "step", recording_step)
        steps = {}
        for n in (128, 256):
            errs = []
            for n_samples in (3, 50):
                calls.clear()
                scheme = SchemeConfig(t_end=0.4, n_samples=n_samples)
                errs.append(run_manufactured(ms_params, scheme, Grid1D(20.0, n), ms))
                *bounded, (t_last, dt_last, adv_last) = calls
                assert all(dt == adv for _, dt, adv in bounded)
                assert dt_last <= adv_last and t_last + dt_last == pytest.approx(0.4, abs=1e-12)
                steps[n, n_samples] = len(calls)
            assert errs[0] == errs[1]  # bit-identical
            assert steps[n, 3] == steps[n, 50]
        assert 1.8 <= steps[256, 50] / steps[128, 50] <= 2.2

    def test_rk2_converges_when_time_error_dominates(self):
        params = PhysParams(mu=0.01, nu=1e-3)
        ms = manufactured_solution(params, omega=4.0)
        errs = run_manufactured(params, SchemeConfig(t_end=1.0, n_samples=4),
                                Grid1D(20.0, 256), ms)
        for field in ("rho", "u", "b"):
            assert errs[field] < 5e-3

    def test_mode_respected_in_sources(self, ms_params):
        # the non-resistive manufactured trio solves the non-resistive system
        params_n = replace(ms_params, nu=0.0)
        ms_n = manufactured_solution(params_n)
        errs = run_manufactured(params_n, SchemeConfig(t_end=0.3, n_samples=3),
                                Grid1D(20.0, 256), ms_n)
        assert all(v < 1e-3 for v in errs.values())

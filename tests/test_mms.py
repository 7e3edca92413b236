from dataclasses import replace

import numpy as np
import pytest

from mhd1d import Grid1D, PhysParams, SchemeConfig, manufactured_solution, mms_rhs, run_manufactured
from mhd1d.mms import observed_orders


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
            assert np.all(np.asarray(flat.source_rho(x, t)) == 0.0)
            assert np.all(np.asarray(flat.source_mom(x, t)) == 0.0)
            assert np.all(np.asarray(flat.source_b(x, t)) == 0.0)
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
        # the forced tendencies are pure stencil truncation: small and shrinking
        sups = []
        for n in (256, 512, 1024):
            grid = Grid1D(20.0, n)
            state = ms.initial_state(grid)
            out = mms_rhs(state, ms_params, SchemeConfig(), grid, ms)
            sups.append(max(np.abs(out.d_rho).max(), np.abs(out.d_mom).max(),
                            np.abs(out.d_b).max()))
        assert sups[0] < 5e-3
        assert sups[0] > sups[1] > sups[2]


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

    def test_rk3_beats_rk2_when_time_error_dominates(self):
        params = PhysParams(mu=0.01, nu=1e-3)
        ms = manufactured_solution(params, omega=4.0)
        grid = Grid1D(20.0, 256)
        errs = {}
        for integ in ("ssp_rk2", "ssp_rk3"):
            scheme = SchemeConfig(t_end=1.0, n_samples=4, time_integrator=integ)
            errs[integ] = run_manufactured(params, scheme, grid, ms)
        for field in ("rho", "u", "b"):
            assert errs["ssp_rk3"][field] < errs["ssp_rk2"][field]
            assert errs["ssp_rk2"][field] < 5e-3  # both converge

    def test_mode_respected_in_sources(self, ms_params):
        # the non-resistive manufactured trio solves the non-resistive system
        params_n = replace(ms_params, nu=0.0)
        ms_n = manufactured_solution(params_n)
        errs = run_manufactured(params_n, SchemeConfig(t_end=0.3, n_samples=3),
                                Grid1D(20.0, 256), ms_n)
        assert all(v < 1e-3 for v in errs.values())

import math
from dataclasses import fields

import numpy as np
import pytest

from mhd1d import (
    Grid1D,
    PhysParams,
    ScenarioSpec,
    SchemeConfig,
    State,
    build_initial_state,
    constant_state,
    derivative,
    effective_viscous_flux,
    fast_speed,
    fast_speed_state,
    material_derivative,
    potential_energy,
    pressure,
)
from mhd1d.core import RHO_FLOOR, second_derivative


class TestGrid:
    def test_node_coordinates(self):
        g = Grid1D(10.0, 16)
        assert g.dx == pytest.approx(20.0 / 16)
        assert np.allclose(g.x, -10.0 + (np.arange(16) + 0.5) * g.dx)
        assert np.all(np.diff(g.x) > 0)

    def test_symmetry_even(self):
        g = Grid1D(5.0, 64)
        assert np.allclose(g.x + g.x[::-1], 0.0)

    def test_center_node_odd(self):
        g = Grid1D(5.0, 65)
        assert g.x[32] == 0.0

    @pytest.mark.parametrize("L,n", [(-1.0, 16), (0.0, 16), (5.0, 4)])
    def test_rejects_bad_grid(self, L, n):
        with pytest.raises(ValueError):
            Grid1D(L, n)


def _float_fields(cls):
    return [(cls, f.name) for f in fields(cls) if f.type == "float"]


# NaN and infinities pass or confuse the range checks; t_end = nan once made a
# run return a single t = 0 row, and t_end = inf stepped until the boundary
# monitor tripped
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", _float_fields(PhysParams) + _float_fields(SchemeConfig)
                         + _float_fields(ScenarioSpec) + _float_fields(Grid1D))
def test_constructors_reject_non_finite_numbers(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number, got {value!r}"):
        cls(**{name: value})


def test_non_finite_number_is_listed_with_the_other_problems():
    with pytest.raises(ValueError) as err:
        PhysParams(mu=math.inf, gamma=0.5)
    assert err.value.args == ("mu must be a finite number, got inf",
                              "gamma > 1 required, got 0.5")
    with pytest.raises(ValueError) as err:
        PhysParams(mu="0.1", gamma=0.5)
    assert err.value.args == ("mu must be a number, got '0.1'",
                              "gamma > 1 required, got 0.5")
    with pytest.raises(ValueError) as err:
        Grid1D(math.inf, 4)
    assert err.value.args == ("half_width must be a finite number, got inf",
                              "n_cells must be at least 8, got 4")


class TestPhysParams:
    def test_defaults_valid(self):
        p = PhysParams()
        assert p.gamma > 1 and p.rho_bar >= 1

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"gamma": 1.0}, "gamma"),
        ({"rho_bar": 0.5}, "rho_bar"),
        ({"b_bar": 0.0}, "b_bar"),
        ({"mu": 0.0}, "mu"),
        ({"nu": -1e-3}, "nu"),
    ])
    def test_rejects_bad_parameters(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            PhysParams(**kwargs)


class TestState:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            State(rho=np.ones(8), mom=np.ones(7), b=np.ones(8))

    def test_velocity_floor_at_vacuum(self):
        s = State(rho=np.zeros(8), mom=np.zeros(8), b=np.ones(8))
        assert np.all(s.velocity() == 0.0)

    def test_rejects_negative_density(self):
        rho = np.ones(8)
        rho[3] = -1e-12
        with pytest.raises(ValueError, match="non-negative"):
            State(rho=rho, mom=np.zeros(8), b=np.ones(8))

    def test_velocity(self):
        s = State(rho=np.full(8, 2.0), mom=np.full(8, 3.0), b=np.ones(8))
        assert np.allclose(s.velocity(), 1.5)


class TestPressure:
    def test_unit_density(self):
        for gamma in (1.4, 2.0, 3.0):
            assert np.all(pressure(np.ones(5), gamma) == 1.0)

    def test_vacuum(self):
        assert np.all(pressure(np.zeros(5), 1.4) == 0.0)

    def test_closed_form(self):
        assert pressure(np.array([2.0]), 2.0)[0] == pytest.approx(4.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pressure(np.array([-0.1]), 1.4)


class TestPotentialEnergy:
    def test_vanishes_at_far_field(self):
        for gamma, rho_bar in ((1.4, 1.0), (2.0, 2.0)):
            phi = potential_energy(np.array([rho_bar]), gamma, rho_bar)
            assert phi[0] == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_gamma2(self):
        # (rho^2 - 1 - 2(rho-1)) / 1 evaluated at rho=2 and rho=0
        assert potential_energy(np.array([2.0]), 2.0, 1.0)[0] == pytest.approx(1.0)
        assert potential_energy(np.array([0.0]), 2.0, 1.0)[0] == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            potential_energy(np.array([-1e-9]), 1.4, 1.0)

    @pytest.mark.parametrize("gamma", [1.05, 1.5, 2.0, 3.0])
    def test_relative_accuracy_without_cancellation(self, gamma):
        # the expanded form cancels to ~1e-16 absolute near rho_bar: at
        # gamma = 1.5 it is 2.3e-2 off at d = 1e-7 and returns 0 at d = 1e-9
        mpmath = pytest.importorskip("mpmath")
        rho_bar = 1.3
        d = np.concatenate([-np.logspace(-12, -1e-3, 60), [0.0], np.logspace(-12, 1, 60)])
        rho = rho_bar * (1.0 + d)
        phi = potential_energy(rho, gamma, rho_bar)
        with mpmath.workdps(40):
            g, rb = mpmath.mpf(gamma), mpmath.mpf(rho_bar)
            for r, value in zip(rho.tolist(), phi.tolist()):
                r = mpmath.mpf(r)
                exact = (r**g - rb**g - g * rb ** (g - 1) * (r - rb)) / (g - 1)
                assert abs(value - exact) <= 1e-11 * exact

    def test_nonnegative_with_unique_zero(self):
        rho = np.linspace(0.0, 10.0, 4001)
        phi = potential_energy(rho, 1.4, 1.0)
        assert np.all(phi >= 0.0)
        zero = np.abs(phi) < 1e-12
        assert np.all(np.abs(rho[zero] - 1.0) < 5e-3)

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    @pytest.mark.parametrize("rho_bar", [1.0, 2.0])
    def test_quadratic_envelope_below_2rhobar(self, gamma, rho_bar):
        # Phi is pinched between two parabolas on [0, 2*rho_bar]
        rho = np.linspace(0.0, 2.0 * rho_bar, 2001)
        keep = np.abs(rho - rho_bar) > 1e-9
        ratio = potential_energy(rho, gamma, rho_bar)[keep] / (rho[keep] - rho_bar) ** 2
        c1, c2 = ratio.min(), ratio.max()
        assert np.isfinite(c1) and np.isfinite(c2)
        assert 0.0 < c1 <= c2

    @pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
    @pytest.mark.parametrize("rho_bar", [1.0, 2.0])
    def test_growth_envelope_above_2rhobar(self, gamma, rho_bar):
        # rho^gamma - rho_bar^gamma <= C1*(rho-rho_bar)^gamma <= C2*Phi for rho > 2*rho_bar
        rho = np.linspace(2.0 * rho_bar + 1e-6, 10.0 * rho_bar, 2001)
        phi = potential_energy(rho, gamma, rho_bar)
        c1 = np.max((rho**gamma - rho_bar**gamma) / (rho - rho_bar) ** gamma)
        c2 = np.max(c1 * (rho - rho_bar) ** gamma / phi)
        assert np.isfinite(c1) and c1 > 0
        assert np.isfinite(c2) and c2 > 0
        assert np.all(rho**gamma - rho_bar**gamma <= c1 * (rho - rho_bar) ** gamma + 1e-12)
        assert np.all(c1 * (rho - rho_bar) ** gamma <= c2 * phi * (1 + 1e-12))


class TestStencils:
    def test_derivative_second_order(self):
        errs = []
        for n in (128, 256):
            g = Grid1D(5.0, n)
            err = np.abs(derivative(np.sin(g.x), g.dx) - np.cos(g.x)).max()
            errs.append(err)
        assert errs[0] / errs[1] > 3.5

    def test_second_derivative_second_order(self):
        errs = []
        for n in (128, 256):
            g = Grid1D(5.0, n)
            err = np.abs(second_derivative(np.sin(g.x), g.dx) + np.sin(g.x)).max()
            errs.append(err)
        assert errs[0] / errs[1] > 3.5


class TestEffectiveViscousFlux:
    def test_constant_state_is_zero(self, params, grid):
        f = effective_viscous_flux(constant_state(grid, params), params, grid)
        assert np.abs(f).max() < 1e-14

    def test_linear_velocity(self, params, grid):
        slope = 0.37
        rho = np.full(grid.n_cells, params.rho_bar)
        state = State(rho=rho, mom=rho * slope * grid.x, b=np.full(grid.n_cells, params.b_bar))
        f = effective_viscous_flux(state, params, grid)
        assert np.allclose(f, params.mu * slope, atol=1e-12)

    def test_gaussian_preset_pointwise(self, params, gaussian_spec):
        grid = Grid1D(20.0, 2048)
        state = build_initial_state(gaussian_spec, params, grid)
        x = grid.x
        bump = np.exp(-(x**2) / gaussian_spec.sigma**2)
        rho0 = params.rho_bar + gaussian_spec.a_rho * bump
        b0 = params.b_bar + gaussian_spec.a_b * bump
        u0x = gaussian_spec.a_u * bump * (1.0 - 2.0 * x**2 / gaussian_spec.sigma**2)
        expected = (params.mu * u0x
                    - (rho0**params.gamma - params.rho_bar**params.gamma)
                    - 0.5 * (b0**2 - params.b_bar**2))
        f = effective_viscous_flux(state, params, grid)
        # mu*u_x uses the stencil; everything else matches pointwise
        assert np.abs(f - expected).max() < 1e-5


class TestMaterialDerivative:
    def test_zero(self, grid):
        s = State(rho=np.ones(grid.n_cells), mom=np.zeros(grid.n_cells), b=np.ones(grid.n_cells))
        assert np.all(material_derivative(s, np.zeros(grid.n_cells), grid) == 0.0)

    def test_constant_velocity(self, grid):
        rho = np.ones(grid.n_cells)
        s = State(rho=rho, mom=2.5 * rho, b=np.ones(grid.n_cells))
        assert np.allclose(material_derivative(s, np.zeros(grid.n_cells), grid), 0.0, atol=1e-12)

    def test_linear_velocity_advects_itself(self, grid):
        rho = np.ones(grid.n_cells)
        s = State(rho=rho, mom=rho * grid.x, b=np.ones(grid.n_cells))
        udot = material_derivative(s, np.zeros(grid.n_cells), grid)
        assert np.allclose(udot[1:-1], grid.x[1:-1], atol=1e-10)


class TestFastSpeed:
    def test_acoustic(self):
        s = fast_speed(np.ones(3), np.zeros(3), np.zeros(3), 2.0)
        assert np.allclose(s, np.sqrt(2.0))

    def test_advective_shift(self):
        s = fast_speed(np.ones(3), 3.0 * np.ones(3), np.zeros(3), 2.0)
        assert np.allclose(s, np.sqrt(2.0) + 3.0)

    def test_vacuum_is_finite(self):
        s = fast_speed(np.zeros(3), np.zeros(3), np.ones(3), 1.4)
        assert np.all(np.isfinite(s))
        assert np.allclose(s, np.sqrt(1.4 * RHO_FLOOR**0.4 + 1.0 / RHO_FLOOR))

    def test_state_wrapper(self, params, grid):
        s = constant_state(grid, params)
        assert np.allclose(fast_speed_state(s, params),
                           np.sqrt(params.gamma + params.b_bar**2))


def test_field_ops_preserve_length_and_finiteness(params, grid, gaussian_spec):
    state = build_initial_state(gaussian_spec, params, grid)
    n = grid.n_cells
    for field in (pressure(state.rho, params.gamma),
                  potential_energy(state.rho, params.gamma, params.rho_bar),
                  effective_viscous_flux(state, params, grid),
                  material_derivative(state, np.zeros(n), grid),
                  fast_speed_state(state, params)):
        assert len(field) == n
        assert np.all(np.isfinite(field))

import mpmath
import numpy as np
import pytest

from mhd1d import (
    Grid1D,
    PhysParams,
    ScenarioSpec,
    build_initial_state,
    compatibility_residual,
    weighted_energy,
)
from mhd1d.core import RHO_BAR


def weighted_energy_oracle() -> float:
    """The default Gaussian bump's |x|^2-weighted energy on [-20, 20], to 30 digits.

    A float64 quadrature of Phi loses about 1e-13 to cancellation near rho = 1;
    workdps leaves the global mpmath precision alone.
    """
    def integrand(x):
        bump = 0.2 * mpmath.exp(-x**2 / 4)
        rho, u, b = 1 + bump, x * bump, 1 + bump
        phi = (rho**1.4 - 1 - 1.4 * (rho - 1)) / 0.4
        return (rho * u**2 / 2 + phi + (b - 1) ** 2 / 2) * x**2

    with mpmath.workdps(30):
        return float(mpmath.quad(integrand, [-20, 0, 20]))


class TestBuildInitialState:
    def test_zero_perturbation_is_far_field(self, params, grid):
        spec = ScenarioSpec(a_rho=0.0, a_u=0.0, a_b=0.0)
        s = build_initial_state(spec, params, grid)
        assert np.all(s.rho == RHO_BAR)
        assert np.all(s.mom == 0.0)
        assert np.all(s.b == params.b_bar)

    def test_gaussian_center_value(self, params):
        grid = Grid1D(20.0, 255)  # odd: node exactly at x=0
        spec = ScenarioSpec(a_rho=0.5, sigma=1.0)
        s = build_initial_state(spec, params, grid)
        assert s.rho[127] == pytest.approx(1.5)

    def test_vacuum_touches_zero_at_center_node(self, params):
        grid = Grid1D(20.0, 255)
        spec = ScenarioSpec(preset="interior_vacuum", sigma=2.0)
        s = build_initial_state(spec, params, grid)
        assert s.rho[127] == 0.0
        assert np.all(s.rho >= 0.0)

    def test_far_field_deviation_at_five_sigma(self, params):
        sigma = 4.0
        grid = Grid1D(5.0 * sigma, 2048)
        spec = ScenarioSpec(sigma=sigma)
        s = build_initial_state(spec, params, grid)
        scale = max(RHO_BAR, abs(params.b_bar))
        for arr, far in ((s.rho, RHO_BAR), (s.mom, 0.0), (s.b, params.b_bar)):
            assert abs(arr[0] - far) / scale < 1e-10
            assert abs(arr[-1] - far) / scale < 1e-10

    def test_rejects_negative_density_amplitude(self, params, grid):
        spec = ScenarioSpec(a_rho=-1.0)
        with pytest.raises(ValueError, match="a_rho"):
            build_initial_state(spec, params, grid)

    def test_rejects_small_domain(self, params):
        spec = ScenarioSpec(sigma=2.0)
        with pytest.raises(ValueError, match="domain too small"):
            build_initial_state(spec, params, Grid1D(9.9, 256))

    def test_deterministic(self, params, grid, gaussian_spec):
        a = build_initial_state(gaussian_spec, params, grid)
        b = build_initial_state(gaussian_spec, params, grid)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.mom, b.mom)
        assert np.array_equal(a.b, b.b)

    def test_unknown_preset_rejected(self, params):
        with pytest.raises(ValueError, match="preset"):
            ScenarioSpec(preset="square_wave")


class TestWeightedMoment:
    def test_constant_state_is_zero(self, params, grid):
        spec = ScenarioSpec(a_rho=0.0, a_u=0.0, a_b=0.0)
        s = build_initial_state(spec, params, grid)
        assert weighted_energy(s, params, grid) == 0.0

    def test_matches_independent_quadrature(self, params, gaussian_spec):
        grid = Grid1D(20.0, 2048)
        s = build_initial_state(gaussian_spec, params, grid)
        value = weighted_energy(s, params, grid)
        assert value == pytest.approx(weighted_energy_oracle(), rel=1e-9)
        assert value > 0.0

    def test_doubling_magnetic_amplitude_quadruples_its_share(self, params, grid):
        base = ScenarioSpec(a_rho=0.1, a_u=0.1, a_b=0.1)
        doubled = ScenarioSpec(a_rho=0.1, a_u=0.1, a_b=0.2)
        off = ScenarioSpec(a_rho=0.1, a_u=0.1, a_b=0.0)
        w_base = weighted_energy(build_initial_state(base, params, grid), params, grid)
        w_doubled = weighted_energy(build_initial_state(doubled, params, grid), params, grid)
        w_off = weighted_energy(build_initial_state(off, params, grid), params, grid)
        assert (w_doubled - w_off) == pytest.approx(4.0 * (w_base - w_off), rel=1e-12)

    def test_grid_convergence_at_least_second_order(self):
        # the |x|^2 weight keeps the integrand smooth and it decays to rounding
        # at the edges, so the trapezoid rule is exact to rounding from 64 cells
        # on; an order estimate there would divide rounding noise
        params = PhysParams()
        spec = ScenarioSpec()
        oracle = weighted_energy_oracle()
        for n in (64, 128, 256):
            g = Grid1D(n_cells=n)
            state = build_initial_state(spec, params, g)
            assert abs(weighted_energy(state, params, g) - oracle) <= 1e-12 * oracle


class TestCompatibilityResidual:
    def test_constant_state(self, params, grid):
        spec = ScenarioSpec(a_rho=0.0, a_u=0.0, a_b=0.0)
        res = compatibility_residual(build_initial_state(spec, params, grid), params, grid)
        assert res.g_l2 == pytest.approx(0.0, abs=1e-13)
        assert res.n_flagged == 0

    def test_gaussian_stable_under_refinement(self, params, gaussian_spec):
        values = []
        for n in (512, 1024):
            g = Grid1D(20.0, n)
            res = compatibility_residual(build_initial_state(gaussian_spec, params, g), params, g)
            assert np.isfinite(res.g_l2)
            values.append(res.g_l2)
        assert abs(values[1] - values[0]) / values[0] < 0.05

    def test_vacuum_flags_near_zero_nodes(self, params):
        grid = Grid1D(20.0, 2048)
        spec = ScenarioSpec(preset="interior_vacuum", a_b=-params.b_bar)
        res = compatibility_residual(build_initial_state(spec, params, grid), params, grid)
        assert res.n_flagged > 0
        assert np.isfinite(res.g_l2)
        # flagged nodes report g = 0
        center = np.argmin(np.abs(grid.x))
        assert res.g[center] == 0.0

import math
from dataclasses import replace

import numpy as np
import pytest

from mhd1d import (
    DiagnosticsRecord,
    Grid1D,
    PhysParams,
    ScenarioSpec,
    SchemeConfig,
    State,
    build_initial_state,
    constant_state,
    energy_drift,
    flux_identity_residual,
    lp_norm,
    manufactured_solution,
    momentum_potential,
    nu_independence_report,
    run,
    sample,
    tendencies,
    weighted_energy,
)
from mhd1d.core import RHO_BAR
from mhd1d.diagnostics import (
    COLUMNS,
    MONITORED,
    SPREADING_ALPHA,
    Accumulators,
    central_tendencies,
    energy_density,
    unfit_reason,
)


class TestLpNorm:
    def test_zero_field(self, grid):
        f = np.zeros(grid.n_cells)
        for p in (2, 4, 6, "inf"):
            assert lp_norm(f, p, grid) == 0.0

    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("k", [1, 7])
    def test_indicator_field(self, grid, p, k):
        f = np.zeros(grid.n_cells)
        f[10:10 + k] = 1.0
        assert lp_norm(f, p, grid) == pytest.approx((k * grid.dx) ** (1.0 / p))

    def test_sup_norm(self, grid, rng):
        f = rng.normal(size=grid.n_cells)
        assert lp_norm(f, "inf", grid) == np.abs(f).max()

    def test_discrete_hoelder(self, grid, rng):
        for _ in range(20):
            f = rng.normal(size=grid.n_cells)
            assert lp_norm(f, "inf", grid) >= lp_norm(f, 2, grid) / math.sqrt(2 * grid.half_width) - 1e-12

    def test_rejects_odd_order(self, grid):
        with pytest.raises(ValueError):
            lp_norm(np.ones(grid.n_cells), 3, grid)

    def test_sup_norm_is_spelled_inf(self, grid):
        with pytest.raises(ValueError, match="unsupported norm order inf"):
            lp_norm(np.ones(grid.n_cells), np.inf, grid)


class TestWeightedL2:
    def test_support_at_origin_node(self, params):
        grid = Grid1D(10.0, 65)
        b = np.full(65, params.b_bar)
        b[32] += 5.0  # node exactly at x = 0, weight vanishes there
        s = State(rho=np.full(65, RHO_BAR), mom=np.zeros(65), b=b)
        assert weighted_energy(s, params, grid) == 0.0


def total_energy(state, params, grid):
    """Trapezoid integral of the energy density."""
    return float(np.trapezoid(energy_density(state, params), dx=grid.dx))


class TestEnergies:
    def test_constant_state_zero(self, params, grid):
        s = constant_state(grid, params)
        assert total_energy(s, params, grid) == 0.0
        assert weighted_energy(s, params, grid) == 0.0

    def test_magnetic_bump_oracle(self, params):
        # 0.5 * integral of exp(-2 x^2) = sqrt(pi/2)/2
        grid = Grid1D(10.0, 4096)
        n = grid.n_cells
        s = State(rho=np.full(n, RHO_BAR), mom=np.zeros(n),
                  b=params.b_bar + np.exp(-grid.x**2))
        assert total_energy(s, params, grid) == pytest.approx(0.6266570686577501, rel=1e-7)

    def test_magnetic_bump_weighted_oracle(self, params):
        # 0.5 * integral of x^2 exp(-2 x^2) = sqrt(2 pi)/16
        grid = Grid1D(10.0, 4096)
        n = grid.n_cells
        s = State(rho=np.full(n, RHO_BAR), mom=np.zeros(n),
                  b=params.b_bar + np.exp(-grid.x**2))
        assert weighted_energy(s, params, grid) == pytest.approx(0.15666426716443751, rel=1e-7)

    def test_reflection_invariance(self, params, grid, rng):
        n = grid.n_cells
        b = params.b_bar + 0.3 * np.exp(-grid.x**2)
        s1 = State(rho=np.full(n, RHO_BAR), mom=np.zeros(n), b=b)
        s2 = State(rho=np.full(n, RHO_BAR), mom=np.zeros(n), b=2 * params.b_bar - b)
        assert total_energy(s1, params, grid) == pytest.approx(total_energy(s2, params, grid), rel=1e-14)

    def test_even_integrand_doubles_half_line(self, params):
        grid = Grid1D(10.0, 256)  # even: nodes mirror about 0
        n = grid.n_cells
        s = State(rho=np.full(n, RHO_BAR), mom=np.zeros(n),
                  b=params.b_bar + np.exp(-grid.x**2))
        full = weighted_energy(s, params, grid)
        density = 0.5 * (s.b - params.b_bar) ** 2 * np.abs(grid.x) ** SPREADING_ALPHA
        half = np.trapezoid(density[n // 2:], dx=grid.dx)
        assert full == pytest.approx(2.0 * half, rel=1e-3)


class TestMomentumPotential:
    def test_zero_velocity(self, params, grid):
        xi = momentum_potential(constant_state(grid, params), grid)
        assert np.all(xi == 0.0)

    def test_starts_at_zero_and_monotone_for_nonnegative_momentum(self, params, grid):
        n = grid.n_cells
        s = State(rho=np.ones(n), mom=np.exp(-grid.x**2), b=np.ones(n))
        xi = momentum_potential(s, grid)
        assert xi[0] == 0.0
        assert np.all(np.diff(xi) >= 0.0)

    def test_odd_momentum_cancels(self, params):
        grid = Grid1D(10.0, 256)
        n = grid.n_cells
        s = State(rho=np.ones(n), mom=grid.x * np.exp(-grid.x**2), b=np.ones(n))
        xi = momentum_potential(s, grid)
        assert abs(xi[-1]) < 1e-14


class TestFluxIdentity:
    def test_constant_state_zero(self, params, grid):
        s = constant_state(grid, params)
        out = tendencies(s, params, SchemeConfig(), grid)
        assert flux_identity_residual(s, out, params, grid) < 1e-13

    def test_two_grid_contraction_with_central_tendencies(self, params):
        ms = manufactured_solution(params)
        residuals = []
        for n in (512, 1024):
            g = Grid1D(20.0, n)
            state = ms.initial_state(g)
            residuals.append(flux_identity_residual(
                state, central_tendencies(state, params, g), params, g))
        assert residuals[0] / residuals[1] >= 3.5

    def test_offset_convention_invariance(self, params, grid, gaussian_spec):
        # shifting the b_bar reference adds a constant to F; F_x is unchanged
        state = build_initial_state(gaussian_spec, params, grid)
        out = central_tendencies(state, params, grid)
        r1 = flux_identity_residual(state, out, params, grid)
        shifted = replace(params, b_bar=2.0)
        r2 = flux_identity_residual(state, out, shifted, grid)
        assert r1 == pytest.approx(r2, rel=1e-9)


class TestRecord:
    def _make_record(self, params, grid, spec, t_end=0.1):
        _, record = run(spec, params, SchemeConfig(t_end=t_end, n_samples=5),
                        grid)
        return record

    def test_csv_round_trip_bit_exact(self, params, grid, gaussian_spec):
        record = self._make_record(params, grid, gaussian_spec)
        text = record.to_csv()
        back = DiagnosticsRecord.from_csv(text)
        assert back.to_csv() == text
        assert back.rows == record.rows

    def test_header_matches_columns(self, params, grid, gaussian_spec):
        record = self._make_record(params, grid, gaussian_spec)
        assert record.to_csv().splitlines()[0] == ",".join(COLUMNS)

    def test_validate_catches_nonfinite(self):
        rec = DiagnosticsRecord()
        rec.rows.append([0.0] * len(COLUMNS))
        rec.rows.append([float("nan")] * len(COLUMNS))
        with pytest.raises(ValueError, match="non-finite"):
            rec.validate()

    @pytest.mark.parametrize("record", [
        DiagnosticsRecord(),
        DiagnosticsRecord.from_csv(",".join(COLUMNS) + "\n"),
    ], ids=["constructed", "header-only-csv"])
    def test_validate_rejects_a_record_without_rows(self, record):
        with pytest.raises(ValueError, match="no rows"):
            record.validate()

    def test_from_csv_rejects_empty_text(self):
        with pytest.raises(ValueError, match="header"):
            DiagnosticsRecord.from_csv("")

    @pytest.mark.parametrize("row", ["0.0,1.0", ",".join(["0.0"] * (len(COLUMNS) + 1))],
                             ids=["short", "long"])
    def test_from_csv_rejects_a_row_of_the_wrong_width(self, row):
        full = ",".join(["0.0"] * len(COLUMNS))
        with pytest.raises(ValueError, match="line 3"):
            DiagnosticsRecord.from_csv("\n".join([",".join(COLUMNS), full, row]) + "\n")

    def test_validate_catches_decreasing_accumulator(self):
        rec = DiagnosticsRecord()
        row1 = dict.fromkeys(COLUMNS, 0.0)
        row2 = dict.fromkeys(COLUMNS, 0.0)
        row2["t"] = 1.0
        row1["diss_u"] = 2.0
        row2["diss_u"] = 1.0
        rec.append(row1)
        rec.append(row2)
        with pytest.raises(ValueError, match="diss_u"):
            rec.validate()

    def test_constant_state_row(self, params, grid):
        s = constant_state(grid, params)
        accum = Accumulators()
        accum.start(s, params, grid)
        out = tendencies(s, params, SchemeConfig(), grid)
        row = sample(s, out, params, grid, accum)
        assert row["sup_rho"] == RHO_BAR
        assert row["sup_abs_b"] == abs(params.b_bar)
        for key in ("l2_rho_pert", "l4_b_pert", "l2_ux", "l2_sqrt_rho_udot", "xi_sup"):
            assert row[key] == pytest.approx(0.0, abs=1e-13)

    def test_two_samples_of_steady_state_identical(self, params, grid):
        spec = ScenarioSpec(a_rho=0.0, a_u=0.0, a_b=0.0)
        record = self._make_record(params, grid, spec)
        assert record.rows[0][1:] == record.rows[1][1:]  # all but time

    def test_vacuum_row_finite(self, params):
        grid = Grid1D(20.0, 255)  # node exactly at the vacuum point
        spec = ScenarioSpec(preset="interior_vacuum", a_b=-params.b_bar)
        s = build_initial_state(spec, params, grid)
        accum = Accumulators()
        accum.start(s, params, grid)
        out = tendencies(s, params, SchemeConfig(), grid)
        row = sample(s, out, params, grid, accum)
        assert all(np.isfinite(v) for v in row.values())

    @pytest.mark.parametrize("spec", [ScenarioSpec(), ScenarioSpec(preset="interior_vacuum",
                                                                   a_b=-PhysParams().b_bar)],
                             ids=["gaussian_bump", "interior_vacuum"])
    def test_sample_row_keys_are_the_columns(self, params, grid, spec):
        # append reads COLUMNS alone, so a misspelled key would be dropped silently
        s = build_initial_state(spec, params, grid)
        accum = Accumulators()
        accum.start(s, params, grid)
        accum.advance(s, params, grid, 1e-3)
        row = sample(s, tendencies(s, params, SchemeConfig(), grid), params, grid, accum)
        assert sorted(row) == sorted(COLUMNS)


class TestEnergyDrift:
    def test_monotone_series_has_zero_drift(self):
        rec = DiagnosticsRecord()
        for t, e in ((0.0, 1.0), (0.1, 0.9), (0.2, 0.85)):
            row = dict.fromkeys(COLUMNS, 0.0)
            row["t"], row["energy"] = t, e
            rec.append(row)
        assert energy_drift(rec) == 0.0

    def test_detects_increase(self):
        rec = DiagnosticsRecord()
        for t, e in ((0.0, 1.0), (0.1, 0.9), (0.2, 0.95)):
            row = dict.fromkeys(COLUMNS, 0.0)
            row["t"], row["energy"] = t, e
            rec.append(row)
        assert energy_drift(rec) == pytest.approx(0.05)

    def test_far_field_has_no_relative_drift(self):
        # E(0) = 0, while the one-sided end stencil of a constant b grows diss_b
        # by rounding; over a 1e-300 floor that read as a drift of about 1e267
        params = PhysParams(gamma=2.0, mu=1.0, nu=0.0625, b_bar=1.4683888413352526)
        _, rec = run(ScenarioSpec(a_rho=0.0, a_u=0.0, a_b=0.0), params,
                     SchemeConfig(t_end=0.125, n_samples=4), Grid1D(20.0, 64))
        assert rec.column("energy")[0] == 0.0 < rec.final("diss_b")
        with pytest.raises(ValueError, match=r"undefined at E\(0\) = 0"):
            energy_drift(rec)


class TestNuIndependence:
    def _record(self, value=1.0):
        rec = DiagnosticsRecord()
        for t in (0.0, 0.5, 1.0):
            row = dict.fromkeys(COLUMNS, 0.0)
            row["t"] = t
            row["sup_rho"] = value
            row["energy"] = value
            rec.append(row)
        return rec

    def test_identical_records_zero_spread(self):
        entries = [(nu, self._record()) for nu in (1e-2, 1e-3, 1e-4)]
        report = nu_independence_report(entries)
        assert report.flagged == []
        assert all(r.spread == 0.0 for r in report.rows)

    def test_diss_b_is_excluded(self):
        entries = [(nu, self._record()) for nu in (1e-2, 1e-3, 1e-4)]
        report = nu_independence_report(entries)
        assert [r.name for r in report.rows] == [name for name, _, _ in MONITORED]
        excluded = [r for r in report.rows if r.excluded]
        assert [r.name for r in excluded] == ["diss_b"]
        assert not any(r.flagged for r in excluded)

    def test_flags_large_spread(self):
        entries = [(nu, self._record(value))
                   for nu, value in ((1e-2, 1.0), (1e-3, 1.2), (1e-4, 1.0))]
        report = nu_independence_report(entries)
        assert "sup_rho" in report.flagged

    def test_flags_nan_spread(self):
        entries = [(nu, self._record(value))
                   for nu, value in ((1e-2, 1.0), (1e-3, float("nan")), (1e-4, 1.0))]
        report = nu_independence_report(entries)
        assert {"sup_rho", "energy"} <= set(report.flagged)
        assert not [r for r in report.rows if r.excluded and r.flagged]

    def test_rejects_too_few_values(self):
        entries = [(nu, self._record()) for nu in (1e-2, 1e-3)]
        with pytest.raises(ValueError, match="fewer than 3 usable resistivity values"):
            nu_independence_report(entries)

    def test_rejects_narrow_span(self):
        entries = [(nu, self._record()) for nu in (1e-2, 5e-3, 2e-3)]
        with pytest.raises(ValueError, match="decades"):
            nu_independence_report(entries)

    @pytest.mark.parametrize("nus", [(3e-4, 3e-5, 3e-6), (0.7, 0.07, 0.007),
                                     (1e-7, 1e-8, 1e-9)])
    def test_accepts_exactly_two_decades(self, nus):
        # max/min rounds to 99.99999999999999 in each list
        assert max(nus) < 100.0 * min(nus)
        report = nu_independence_report([(nu, self._record()) for nu in nus])
        assert report.flagged == []

    def test_two_decade_rule_ignores_rounding(self):
        # m 10^e over m 10^(e-2) spans two decades whatever rounding the quotient takes
        for m in range(1, 100):
            for e in range(-8, 0):
                nus = [float(f"{m}e{e}"), float(f"{m}e{e - 1}"), float(f"{m}e{e - 2}")]
                assert unfit_reason(nus) is None, nus

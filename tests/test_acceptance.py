"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The expensive artifacts (the resistivity sweep, the standard
run, the order study, the vacuum run) are session fixtures shared across
criteria.
"""

import json
import time

import numpy as np
import pytest

from mhd1d import (
    Grid1D,
    PhysParams,
    ScenarioSpec,
    SchemeConfig,
    SharedConfig,
    build_initial_state,
    constant_state,
    energy_drift,
    flux_identity_residual,
    manufactured_solution,
    nu_independence_report,
    potential_energy,
    rhs,
    run,
    sweep,
)
from mhd1d.cli import main
from mhd1d.diagnostics import central_tendencies
from mhd1d.mms import observed_orders

NU_LIST = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]


def announce(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


@pytest.fixture(scope="session")
def pinned_params():
    # documented defaults: mu=0.1, gamma=1.4, rho_bar=1, b_bar=1, alpha=2
    return PhysParams(nu=1e-3)


@pytest.fixture(scope="session")
def pinned_grid():
    return Grid1D(20.0, 2048)


@pytest.fixture(scope="session")
def pinned_spec(pinned_params):
    return ScenarioSpec(params=pinned_params, a_rho=0.2, a_u=0.2, a_b=0.2, sigma=2.0)


@pytest.fixture(scope="session")
def acceptance_sweep(pinned_params, pinned_grid, pinned_spec):
    shared = SharedConfig(spec=pinned_spec, scheme=SchemeConfig(t_end=1.0),
                          grid=pinned_grid)
    start = time.monotonic()
    result = sweep(NU_LIST, shared, config_fingerprint="acceptance")
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def standard_run(pinned_params, pinned_grid, pinned_spec):
    state0 = build_initial_state(pinned_spec, pinned_grid)
    final, record = run(pinned_spec, pinned_params, SchemeConfig(t_end=1.0),
                        pinned_grid)
    return state0, final, record


@pytest.fixture(scope="session")
def mms_study(pinned_params):
    start = time.monotonic()
    second = observed_orders(pinned_params, SchemeConfig(t_end=0.4),
                             n_cells=(512, 1024, 2048))
    first = observed_orders(pinned_params,
                            SchemeConfig(t_end=0.4, reconstruction="first_order_upwind"),
                            n_cells=(512, 1024, 2048))
    return second, first, time.monotonic() - start


def test_criterion_1_nonresistive_limit_rate(acceptance_sweep):
    result, elapsed = acceptance_sweep
    report = result.report
    assert report.fit_skipped_reason is None
    assert not report.degenerate
    # the theory guarantees errors <= C*nu; smooth data may converge faster,
    # which the report flags for investigation rather than treating as failure
    assert report.slope >= 0.75
    if report.slope > 1.25:
        assert report.superlinear_flagged
    assert report.slope_u >= 0.75
    assert report.guard.passed and report.guard.ratio >= 10.0
    assert elapsed < 900.0
    announce(1, "non-resistive limit rate",
             f"slope={report.slope:.3f} (superlinear flagged: {report.superlinear_flagged}), "
             f"u-slope={report.slope_u:.3f}, guard ratio={report.guard.ratio:.0f}, "
             f"{elapsed:.0f}s")


def test_criterion_2_resistive_flux_vanishes(acceptance_sweep):
    result, _ = acceptance_sweep
    report = result.report
    aux = [e.aux for e in report.entries]
    assert aux == sorted(aux, reverse=True)
    assert report.slope_aux >= 0.8
    announce(2, "nu*b_x -> 0", f"accumulated ||nu b_x||^2 slope={report.slope_aux:.3f}")


def test_criterion_3_nu_independent_bounds(acceptance_sweep):
    result, _ = acceptance_sweep
    entries = [(nu, rec, "acceptance") for nu, rec in result.records]
    report = nu_independence_report(entries)
    monitored = {r.name: r for r in report.rows}
    required = ("sup_rho", "sup_abs_b", "sup_l2_ux", "sup_l2_rhox",
                "energy", "energy_weighted", "diss_u", "sup_l2_sqrt_rho_udot")
    for name in required:
        assert monitored[name].spread <= 0.10, f"{name} spread {monitored[name].spread}"
        assert not monitored[name].flagged
    # the remaining monitored bounds (|u|, L4/L6 magnetic perturbations, b_x)
    # ride along on the same sweep and must be quiet too
    assert report.flagged == []
    worst = max(r.spread for r in report.rows if not r.excluded)
    announce(3, "nu-independent a-priori bounds",
             f"worst spread {worst:.2e} over {sum(not r.excluded for r in report.rows)} quantities")


def test_criterion_4_energy_inequality(standard_run):
    _, _, record = standard_run
    drift = energy_drift(record)
    assert drift <= 1e-3
    announce(4, "discrete energy inequality", f"relative drift {drift:.2e}")


def test_criterion_5_mms_orders(mms_study):
    second, first, elapsed = mms_study
    for field in ("rho", "u", "b"):
        assert second[field] >= 1.8, f"muscl order for {field}: {second[field]}"
        assert first[field] >= 0.9, f"upwind order for {field}: {first[field]}"
    assert elapsed < 300.0
    announce(5, "manufactured-solution orders",
             "muscl " + "/".join(f"{second[k]:.2f}" for k in ("rho", "u", "b"))
             + ", upwind " + "/".join(f"{first[k]:.2f}" for k in ("rho", "u", "b"))
             + f", {elapsed:.0f}s")


def test_criterion_6_steady_state_and_conservation(pinned_params, pinned_grid, standard_run):
    out = rhs(constant_state(pinned_grid, pinned_params), pinned_params,
              SchemeConfig(), pinned_grid)
    sup = max(np.abs(out.d_rho).max(), np.abs(out.d_mom).max(), np.abs(out.d_b).max())
    tol = 1e-13 * max(pinned_params.rho_bar, abs(pinned_params.b_bar), 1.0)
    assert sup < tol

    state0, final, record = standard_run
    dx = pinned_grid.dx
    defect = abs(np.sum(final.rho - pinned_params.rho_bar) * dx
                 - np.sum(state0.rho - pinned_params.rho_bar) * dx)
    budget = 1e-8 * np.sum(np.abs(state0.rho - pinned_params.rho_bar)) * dx
    assert defect <= budget
    assert record.final("clip_count") == 0
    announce(6, "steady state and conservation",
             f"tendency sup {sup:.1e}, mass defect {defect:.2e} (budget {budget:.2e})")


def test_criterion_7_potential_energy_envelopes():
    start = time.monotonic()
    for gamma in (1.4, 2.0, 3.0):
        for rho_bar in (1.0, 2.0):
            rho = np.linspace(0.0, 2.0 * rho_bar, 4001)
            keep = np.abs(rho - rho_bar) > 1e-9
            ratio = potential_energy(rho, gamma, rho_bar)[keep] / (rho[keep] - rho_bar) ** 2
            assert np.isfinite(ratio.min()) and ratio.min() > 0
            assert np.isfinite(ratio.max()) and ratio.max() >= ratio.min()
            hi = np.linspace(2.0 * rho_bar + 1e-9, 10.0 * rho_bar, 4001)
            phi = potential_energy(hi, gamma, rho_bar)
            c1 = np.max((hi**gamma - rho_bar**gamma) / (hi - rho_bar) ** gamma)
            c2 = np.max(c1 * (hi - rho_bar) ** gamma / phi)
            assert np.isfinite(c1) and c1 > 0
            assert np.isfinite(c2) and c2 > 0
    announce(7, "potential-energy envelopes",
             f"6 (gamma, rho_bar) pairs in {time.monotonic() - start:.2f}s")


def test_criterion_8_flux_identity_contraction(pinned_params):
    ms = manufactured_solution(pinned_params)
    residuals = []
    for n in (512, 1024):
        grid = Grid1D(20.0, n)
        state = ms.initial_state(grid)
        residuals.append(flux_identity_residual(
            state, central_tendencies(state, pinned_params, grid), pinned_params, grid))
    contraction = residuals[0] / residuals[1]
    assert contraction >= 3.5
    announce(8, "flux identity", f"two-grid contraction {contraction:.2f}")


def test_criterion_9_vacuum_robustness(pinned_params):
    grid = Grid1D(20.0, 1024)
    spec = ScenarioSpec(params=pinned_params, preset="interior_vacuum",
                        a_u=0.2, a_b=-pinned_params.b_bar, sigma=2.0)
    final, record = run(spec, pinned_params, SchemeConfig(t_end=1.0), grid)
    record.validate()  # finiteness and monotone accumulators
    assert final.t == 1.0
    assert record.final("clip_count") == 0
    assert np.all(final.rho >= 0.0)
    announce(9, "interior vacuum to T=1",
             f"zero clips, min density {final.rho.min():.3e}")


def test_criterion_10_determinism(tmp_path):
    config = {
        "grid": {"half_width": 20.0, "n_cells": 256},
        "scheme": {"t_end": 0.2, "n_samples": 10},
        "nu_list": [1e-2, 1e-3, 1e-4],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    pairs = []
    for tag in ("a", "b"):
        sim_dir, swp_dir = tmp_path / f"sim_{tag}", tmp_path / f"swp_{tag}"
        assert main(["simulate", "--config", str(cfg), "--output-dir", str(sim_dir)]) == 0
        assert main(["sweep", "--config", str(cfg), "--output-dir", str(swp_dir)]) == 0
        pairs.append((sim_dir, swp_dir))
    (sim_a, swp_a), (sim_b, swp_b) = pairs
    assert (sim_a / "diagnostics.csv").read_bytes() == (sim_b / "diagnostics.csv").read_bytes()
    assert (sim_a / "state_final.txt").read_bytes() == (sim_b / "state_final.txt").read_bytes()
    assert (swp_a / "report.json").read_bytes() == (swp_b / "report.json").read_bytes()
    for nu in config["nu_list"]:
        name = f"diag_nu_{nu:g}.csv"
        assert (swp_a / name).read_bytes() == (swp_b / name).read_bytes()
    announce(10, "determinism", "repeated runs and sweeps byte-identical")

"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 1-3 share one resistivity sweep; criteria 4-9 run the
checks of ``mhd1d.battery`` (the code behind ``mhd1d verify``) at its
``ACCEPTANCE`` sizes, on one session-wide battery whose standard run
criteria 4 and 6 share.
"""

import json
import time

import pytest

from mhd1d import (
    Grid1D,
    PhysParams,
    ScenarioSpec,
    SchemeConfig,
    SharedConfig,
    nu_independence_report,
    sweep,
)
from mhd1d.battery import ACCEPTANCE, Battery
from mhd1d.cli import main

NU_LIST = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]


def announce(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


@pytest.fixture(scope="session")
def acceptance_sweep():
    # documented defaults: mu=0.1, gamma=1.4, rho_bar=1, b_bar=1, alpha=2
    params = PhysParams(nu=1e-3)
    spec = ScenarioSpec(params=params, a_rho=0.2, a_u=0.2, a_b=0.2, sigma=2.0)
    shared = SharedConfig(spec=spec, scheme=SchemeConfig(t_end=1.0), grid=Grid1D(20.0, 2048))
    start = time.monotonic()
    result = sweep(NU_LIST, shared, config_fingerprint="acceptance")
    return result, time.monotonic() - start


@pytest.fixture(scope="session")
def battery():
    return Battery(ACCEPTANCE)


def passed(outcome):
    assert outcome.ok, outcome.detail
    return outcome.values


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


def test_criterion_4_energy_inequality(battery):
    values = passed(battery.energy_inequality())
    announce(4, "discrete energy inequality", f"relative drift {values['drift']:.2e}")


def test_criterion_5_mms_orders(battery):
    start = time.monotonic()
    outcome = battery.mms_orders()
    elapsed = time.monotonic() - start
    passed(outcome)
    assert elapsed < 300.0
    announce(5, "manufactured-solution orders", f"{outcome.detail}, {elapsed:.0f}s")


def test_criterion_6_steady_state_and_conservation(battery):
    sup = passed(battery.steady_state_fixed_point())["sup"]
    mass = passed(battery.mass_conservation())
    announce(6, "steady state and conservation",
             f"tendency sup {sup:.1e}, mass defect {mass['defect']:.2e} "
             f"(budget {mass['budget']:.2e})")


def test_criterion_7_potential_energy_envelopes(battery):
    start = time.monotonic()
    passed(battery.potential_energy_bounds())
    announce(7, "potential-energy envelopes",
             f"6 (gamma, rho_bar) pairs in {time.monotonic() - start:.2f}s")


def test_criterion_8_flux_identity_contraction(battery):
    values = passed(battery.flux_identity_contraction())
    announce(8, "flux identity", f"two-grid contraction {values['contraction']:.2f}")


def test_criterion_9_vacuum_robustness(battery):
    values = passed(battery.vacuum_robustness())
    announce(9, "interior vacuum to T=1",
             f"zero clips, min density {values['min_density']:.3e}")


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

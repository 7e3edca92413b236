"""Properties that hold over the admissible parameter space, not just at hand-picked points.

Each example is a JSON configuration drawn from admissible physics (gamma > 1,
mu > 0, nu >= 0 including exactly 0, b_bar != 0), both presets
(the vacuum one with a_b = -b_bar, so the field vanishes with the density)
and both reconstructions, on grids of at most 128 cells and short horizons.  The lockstep-group properties evolve two or three members of
such a configuration, which differ only in nu, beside their shared reference.

The default profile (registered in ``conftest.py``) is derandomized with a
small example budget, so the suite is reproducible and cheap;
``HYPOTHESIS_PROFILE=explore`` draws many more, random, examples.
"""

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhd1d import solver
from mhd1d.config import parse_config
from mhd1d.core import (
    RHO_BAR,
    VISC_FLOOR_FRACTION,
    Grid1D,
    State,
    viscous_density,
    viscous_rate_density,
    viscous_velocity,
)
from mhd1d.diagnostics import DiagnosticsRecord, energy_drift
from mhd1d.errors import BoundaryMonitorError
from mhd1d.limit_study import ConvergenceReport, run_group, sweep
from mhd1d.scenario import build_initial_state
from mhd1d.solver import (
    _advective_dt,
    _blocks,
    _diffuse,
    _diffusive_dt,
    _stage_counts,
    load_checkpoint,
    run,
    save_checkpoint,
    step,
)

# the lockstep-group properties run several members per example, so they draw
# a share of the loaded profile's (conftest.py) budget: 15, 15 and 6 by default


@st.composite
def configs(draw):
    """A raw JSON configuration for one short, small admissible run."""
    b_bar = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((1.0, -1.0)))
    physics = {
        "gamma": draw(st.floats(1.1, 3.0)),
        "mu": draw(st.floats(0.01, 1.0)),
        "nu": draw(st.one_of(st.just(0.0), st.floats(1e-5, 0.1))),
        "b_bar": b_bar,
    }
    amplitude = st.floats(-0.5, 0.5)
    preset = draw(st.sampled_from(("gaussian_bump", "interior_vacuum")))
    scenario = {"preset": preset, "a_u": draw(amplitude), "sigma": draw(st.floats(1.0, 3.0))}
    if preset == "gaussian_bump":
        scenario.update(a_rho=draw(amplitude), a_b=draw(amplitude))
    else:
        scenario["a_b"] = -b_bar
    return {
        "physics": physics,
        "scenario": scenario,
        "grid": {"half_width": 20.0, "n_cells": draw(st.sampled_from((64, 128)))},
        "scheme": {"t_end": draw(st.floats(0.02, 0.2)), "n_samples": 4,
                   "reconstruction": draw(st.sampled_from(("muscl_minmod",
                                                           "first_order_upwind")))},
    }


def _simulate(raw: dict):
    config = parse_config(raw)
    final, record = run(config.spec, config.params, config.scheme, config.grid)
    return config, final, record


@given(configs())
def test_admissible_run_is_sound(raw):
    config, final, record = _simulate(raw)
    params, grid = config.params, config.grid

    assert record.final("clip_count") == 0
    assert np.all(final.rho >= 0.0)
    record.validate()
    if params.nu == 0.0:  # the non-resistive system: no resistive dissipation at all
        assert np.all(record.column("diss_b") == 0.0)

    # conservative fluxes: total mass moves only through the far-field edges,
    # where the perturbation is exponentially small
    rho0 = build_initial_state(config.spec, params, grid).rho
    m0 = np.sum(rho0 - RHO_BAR) * grid.dx
    m1 = np.sum(final.rho - RHO_BAR) * grid.dx
    rounding = 1e-12 * RHO_BAR * 2.0 * grid.half_width
    budget = 1e-8 * np.sum(np.abs(rho0 - RHO_BAR)) * grid.dx + rounding
    assert abs(m1 - m0) <= budget

    # E(0) = 0 is the far field, where the drift has no scale
    if record.column("energy")[0] > 0.0:
        assert energy_drift(record) <= 1e-3

    again = DiagnosticsRecord.from_csv(record.to_csv())
    assert np.array_equal(np.array(again.rows), np.array(record.rows))
    loaded, loaded_grid = load_checkpoint(save_checkpoint(final, grid))
    assert (loaded_grid.n_cells, loaded_grid.half_width) == (grid.n_cells, grid.half_width)
    assert loaded.t == final.t
    for name in ("rho", "mom", "b"):
        assert np.array_equal(getattr(loaded, name), getattr(final, name))

    assert parse_config(json.loads(json.dumps(config.as_dict()))) == config


@given(configs(), st.floats(0.1, 4.0))
def test_diffusion_blocks_are_decoupled(raw, dt_fraction):
    # at frozen density the viscous block reads no b and the resistive block
    # no w: a diffusion half-step gives the same momentum bits at nu and at
    # nu = 0, and at nu = 0 it leaves b as it is
    config = parse_config(raw)
    params, grid = config.params, config.grid
    state = build_initial_state(config.spec, params, grid)
    dt = dt_fraction * _advective_dt(state, params, grid)
    [(s, s_b)] = _stage_counts(dt, [(state, params)], grid)
    tau = 0.5 * dt
    resistive = _diffuse(state, tau, params, grid, s, s_b)
    ideal = _diffuse(state, tau, replace(params, nu=0.0), grid, s, 0)
    assert resistive.mom.tobytes() == ideal.mom.tobytes()
    assert ideal.b.tobytes() == state.b.tobytes()


@given(configs())
def test_viscous_density_rule_and_its_stage_bound(raw):
    # the rule r(rho) that viscosity divides by, on the drawn state after one
    # step and on a ramp through the floor: r >= rho, r >= the floor, and r
    # does not decrease as rho grows
    config = parse_config(raw)
    params, scheme, grid = config.params, config.scheme, config.grid
    state = build_initial_state(config.spec, params, grid)
    state, _ = step(state, _advective_dt(state, params, grid), params, scheme, grid)
    rho = np.sort(np.concatenate([state.rho, np.linspace(0.0, 3.0 * RHO_BAR, 301)]))
    r = viscous_density(rho)
    assert np.all(r >= rho)
    assert np.all(r >= VISC_FLOOR_FRACTION * RHO_BAR)
    assert np.all(np.diff(r) >= 0.0)

    # viscous_velocity divides by it, bit for bit
    velocity = viscous_velocity(state.mom, state.rho)
    assert velocity.tobytes() == (state.mom / viscous_density(state.rho)).tobytes()

    # r is C1: on a fine ramp through the blend, consecutive difference
    # quotients differ by about h * r'' = h/(2f), with no jump where the
    # pieces meet at 2f
    f = VISC_FLOOR_FRACTION * RHO_BAR
    ramp, h = np.linspace(0.0, 3.0 * f, 1001, retstep=True)
    quotients = np.diff(viscous_density(ramp)) / h
    assert np.abs(np.diff(quotients)).max() <= 2.0 * h / f

    # the largest rate mu*rho/r^2 that the viscous block applies is at most
    # mu/d, d = viscous_rate_density(rho_min), so one explicit stage of
    # _diffusive_dt stays within DIFFUSION_NUMBER
    d = viscous_rate_density(float(state.rho.min()))
    w_rate = _blocks(state, params, grid)[1].rate * grid.dx**2  # mu*rho/r^2
    assert w_rate.max() <= params.mu / d * (1.0 + 1e-12)
    dt_diffusive = _diffusive_dt(state, params, grid)
    assert w_rate.max() * dt_diffusive <= solver.DIFFUSION_NUMBER * grid.dx**2 * (1.0 + 1e-12)

    # and the bound is tight: a density ramp that resolves the peak of
    # mu*rho/r^2 at 2f/sqrt(3) reaches at least 0.99 of it
    ramp_grid = Grid1D(grid.half_width, len(ramp))
    ramp_state = State(ramp, np.zeros(len(ramp)), np.full(len(ramp), params.b_bar))
    peak = _blocks(ramp_state, params, ramp_grid)[1].rate.max() * ramp_grid.dx**2
    limit = solver.DIFFUSION_NUMBER * ramp_grid.dx**2
    assert 0.99 * limit <= peak * _diffusive_dt(ramp_state, params, ramp_grid) \
        <= limit * (1.0 + 1e-12)


@given(st.lists(configs(), min_size=1, max_size=4), st.floats(1e-4, 1.0))
def test_one_stage_policy_serves_every_member(raws, dt):
    # every viscous block takes the count of the tightest member, the one of
    # smallest _diffusive_dt; every b block the count of its own nu, as if it
    # stepped alone, and none exactly at nu = 0.  Nothing is stepped
    grid = parse_config(raws[0]).grid
    members = []
    for raw in raws:
        config = parse_config({**raw, "grid": raws[0]["grid"]})
        members.append((build_initial_state(config.spec, config.params, grid), config.params))
    tightest = min(members, key=lambda member: _diffusive_dt(*member, grid))
    [(viscous, _)] = _stage_counts(dt, [tightest], grid)
    for member, (s, s_b) in zip(members, _stage_counts(dt, members, grid), strict=True):
        assert s == viscous >= 2
        assert s_b == _stage_counts(dt, [member], grid)[0][1]
        assert (s_b == 0) == (member[1].nu == 0)


resistivities = st.one_of(st.just(0.0), st.floats(1e-5, 0.1))


def _bits(entries) -> list[str]:
    """Every field of every entry, each float in its exact repr."""
    return [repr(e.as_dict()) for e in entries]


@settings(max_examples=settings().max_examples // 4)
@given(configs(), st.lists(resistivities, min_size=2, max_size=3, unique=True))
def test_lockstep_group_is_independent_of_order_and_recording(raw, nus):
    config = parse_config(raw)
    entries, records = run_group(nus, config)
    backward, backward_records = run_group(nus[::-1], config)
    unrecorded, none = run_group(nus, config, recorded=False)

    # member order does not matter, to the bit and to the byte
    assert _bits(backward[::-1]) == _bits(entries)
    assert [r.to_csv() for r in backward_records[::-1]] == [r.to_csv() for r in records]
    # a group whose rows nobody reads measures the same functionals
    assert none == [] and _bits(unrecorded) == _bits(entries)

    for e in entries:
        values = [v for k, v in e.as_dict().items() if k not in ("nu", "failed")]
        assert e.failed is None
        assert all(np.isfinite(v) and v >= 0.0 for v in values)
        assert e.e_sup >= max(e.e_sup_rho, e.e_sup_u, e.e_sup_b)
        assert e.e_total == e.e_sup + e.e_diss

    report = ConvergenceReport(nu_values=list(nus), entries=entries,
                               config_fingerprint=config.fingerprint())
    assert ConvergenceReport.from_json(report.to_json()) == report


@settings(max_examples=settings().max_examples // 4)
@given(configs(), resistivities)
def test_members_of_equal_resistivity_are_bit_identical(raw, nu):
    first, second = run_group([nu, nu], parse_config(raw), recorded=False)[0]
    assert _bits([first]) == _bits([second])


@settings(max_examples=settings().max_examples // 10)
@given(configs(), st.floats(1e-5, 1e-4), st.sampled_from((0, 1, 2, 3, "guard")))
def test_a_failed_member_or_guard_is_marked_and_never_raises(raw, nu_min, trip):
    # four resistivities over three decades, so that the fit, and with it the
    # guard, still runs once a member has dropped out
    nus = [nu_min * 10.0**k for k in (3, 2, 1, 0)]
    config = parse_config({**raw, "nu_list": nus})
    doubled = 2 * config.grid.n_cells
    check_boundary = solver.check_boundary

    def tripping(state, params):
        tripped = len(state.rho) == doubled if trip == "guard" else params.nu == nus[trip]
        if tripped and state.t > 0.0:
            raise BoundaryMonitorError(time=state.t, deviation=1.0)
        return check_boundary(state, params)

    with mock.patch.object(solver, "check_boundary", tripping):
        result = sweep(config)
    report, guard = result.report, result.report.guard
    failed = [e.nu for e in report.entries if e.failed is not None]
    assert failed == ([] if trip == "guard" else [nus[trip]])
    assert all(e.failed.startswith("BoundaryMonitorError: ") for e in report.entries if e.failed)
    assert [nu for nu, _ in result.records] == [nu for nu in nus if nu not in failed]
    assert (guard is None) == (report.fit_skipped_reason is not None)
    if guard is not None and trip == "guard":
        assert guard.failed.startswith("BoundaryMonitorError: ")
        assert (guard.passed, guard.ratio) == (False, 0.0)
    elif guard is not None:
        assert guard.failed is None
    assert ConvergenceReport.from_json(report.to_json()) == report


def _small(physics: dict, scenario: dict, n_cells: int) -> dict:
    return {"physics": physics, "scenario": scenario,
            "grid": {"half_width": 20.0, "n_cells": n_cells},
            "scheme": {"t_end": 0.125, "n_samples": 4}}


def test_vacuum_dissipation_uses_the_scheme_velocity():
    # diss_u differentiates the same capped velocity recovery the scheme's
    # viscous term acts on, so near vacuum it records the energy actually
    # dissipated (with m/max(rho, RHO_FLOOR) this read a drift of 1.3e-2)
    _, _, record = _simulate(_small({"gamma": 2.0, "mu": 1.0, "nu": 0.0},
                                    {"preset": "interior_vacuum", "a_u": 0.0, "a_b": -1.0},
                                    128))
    assert energy_drift(record) <= 1e-3


@pytest.mark.parametrize("raw", [
    # E(0) = 1.6e-19: with Phi(rho) summed as rho^gamma - RHO_BAR^gamma - ...,
    # its ~1e-16 absolute cancellation read as a drift of 7085
    pytest.param(_small({"gamma": 1.5, "mu": 1.0, "nu": 0.0},
                        {"a_rho": 0.0, "a_u": 1e-9, "a_b": 0.0, "sigma": 1.0}, 64),
                 id="rounding_dominated_energy"),
])
def test_energy_drift_reads_physics_not_rounding(raw):
    _, _, record = _simulate(raw)
    assert energy_drift(record) <= 1e-3

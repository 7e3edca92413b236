import math
import pickle
from dataclasses import fields, replace

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
    rhs,
    run,
    step,
    tendencies,
)
from mhd1d.diagnostics import COLUMNS, DiagnosticsRecord, RunTelemetry, energy_density
from mhd1d.errors import BoundaryMonitorError, NumericalError, SimulationError
from mhd1d import solver
from mhd1d.core import viscous_density
from mhd1d.solver import (
    _advective_dt,
    _blocks,
    _diffusive_dt,
    _stage_counts,
    diffusion_tendency,
    load_checkpoint,
    rkl2_stage_count,
    run_lockstep,
    save_checkpoint,
)


class TestSchemeConfig:
    def test_defaults(self):
        s = SchemeConfig()
        assert s.reconstruction == "muscl_minmod"
        # the hyperbolic step is SSPRK2 alone and both step bounds' safety
        # factors are constants: no setting chooses any of them
        names = {f.name for f in fields(s)}
        assert not names & {"time_integrator", "diffusion_number", "cfl_number"}
        assert (solver.CFL_NUMBER, solver.DIFFUSION_NUMBER) == (0.45, 0.4)

    @pytest.mark.parametrize("kwargs", [
        {"t_end": math.inf},
        {"reconstruction": "weno5"}, {"n_samples": 0}, {"t_end": -1.0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SchemeConfig(**kwargs)


def _oracle_rhs_first_order(state, params, grid):
    """Scalar re-implementation of the full semi-discrete system, loops and all."""
    n, dx, g = grid.n_cells, grid.dx, params.gamma
    rho = np.concatenate([[params.rho_bar] * 2, state.rho, [params.rho_bar] * 2])
    mom = np.concatenate([[0.0] * 2, state.mom, [0.0] * 2])
    b = np.concatenate([[params.b_bar] * 2, state.b, [params.b_bar] * 2])

    def u_of(j):
        return mom[j] / max(rho[j], 1e-12)

    def flux(j):
        u = u_of(j)
        return (mom[j], mom[j] * u + rho[j] ** g + 0.5 * b[j] ** 2, u * b[j])

    def speed(j):
        rs = max(rho[j], 1e-12)
        return abs(mom[j] / rs) + math.sqrt(g * rs ** (g - 1.0) + b[j] ** 2 / rs)

    fhat = []
    for j in range(1, n + 2):
        fl, fr = flux(j), flux(j + 1)
        a = max(speed(j), speed(j + 1))
        fhat.append(tuple(
            0.5 * (fl[k] + fr[k]) - 0.5 * a * (q[j + 1] - q[j])
            for k, q in enumerate((rho, mom, b))))
    d_rho = np.array([-(fhat[i + 1][0] - fhat[i][0]) / dx for i in range(n)])
    d_mom = np.array([-(fhat[i + 1][1] - fhat[i][1]) / dx for i in range(n)])
    d_b = np.array([-(fhat[i + 1][2] - fhat[i][2]) / dx for i in range(n)])
    visc_floor = 0.01 * params.rho_bar
    uv = mom / np.maximum(rho, visc_floor)
    for i in range(n):
        d_mom[i] += params.mu * (uv[i + 3] - 2.0 * uv[i + 2] + uv[i + 1]) / dx**2
        d_b[i] += params.nu * (b[i + 3] - 2.0 * b[i + 2] + b[i + 1]) / dx**2
    return d_rho, d_mom, d_b


class TestRhs:
    def test_constant_state_is_fixed_point(self, params, grid):
        scheme = SchemeConfig()
        for p in (params, replace(params, nu=0.0)):
            for operator in (rhs, tendencies):
                out = operator(constant_state(grid, p), p, scheme, grid)
                for arr in (out.d_rho, out.d_mom, out.d_b):
                    assert np.abs(arr).max() < 1e-13 * max(params.rho_bar, params.b_bar, 1.0)

    def test_matches_hand_rolled_oracle_on_8_nodes(self):
        params = PhysParams(mu=0.05, nu=2e-3)
        grid = Grid1D(4.0, 8)
        x = grid.x
        rho = np.full(8, params.rho_bar)
        u = 0.3 * np.exp(-x**2)
        state = State(rho=rho, mom=rho * u, b=np.full(8, params.b_bar))
        scheme = SchemeConfig(reconstruction="first_order_upwind")
        for p in (params, replace(params, nu=0.0)):
            out = tendencies(state, p, scheme, grid)
            o_rho, o_mom, o_b = _oracle_rhs_first_order(state, p, grid)
            assert np.allclose(out.d_rho, o_rho, atol=1e-13)
            assert np.allclose(out.d_mom, o_mom, atol=1e-13)
            assert np.allclose(out.d_b, o_b, atol=1e-13)

    def test_mass_tendency_is_central_difference_for_uniform_density(self):
        # with rho and b constant the LLF mass flux reduces to the average of
        # neighboring momenta, so d_rho/dt is the central difference of -m
        params = PhysParams()
        grid = Grid1D(4.0, 8)
        rho = np.full(8, params.rho_bar)
        u = 0.3 * np.exp(-grid.x**2)
        state = State(rho=rho, mom=rho * u, b=np.full(8, params.b_bar))
        out = rhs(state, replace(params, nu=0.0),
                  SchemeConfig(reconstruction="first_order_upwind"), grid)
        m_ext = np.concatenate([[0.0], rho * u, [0.0]])
        expected = -(m_ext[2:] - m_ext[:-2]) / (2.0 * grid.dx)
        assert np.allclose(out.d_rho, expected, atol=1e-14)

    def test_modes_differ_exactly_by_resistive_term(self, params, grid, gaussian_spec):
        # rhs does not read nu; the resistive term is diffusion_tendency's d_b alone
        state = build_initial_state(gaussian_spec, params, grid)
        scheme = SchemeConfig()
        out_r = rhs(state, params, scheme, grid)
        out_n = rhs(state, replace(params, nu=0.0), scheme, grid)
        for name in ("d_rho", "d_mom", "d_b"):
            assert getattr(out_r, name).tobytes() == getattr(out_n, name).tobytes(), name
        d_mom_r, d_b = diffusion_tendency(state, params, grid)
        d_mom_n, d_b_n = diffusion_tendency(state, replace(params, nu=0.0), grid)
        assert np.array_equal(d_mom_r, d_mom_n) and d_b_n is None
        b_ext = np.concatenate([[params.b_bar], state.b, [params.b_bar]])
        lap = np.diff(b_ext, 2) * (params.nu / grid.dx**2)  # difference of differences
        assert d_b.tobytes() == lap.tobytes()

    def test_non_finite_state_raises_with_node(self, params, grid):
        state = constant_state(grid, params)
        state.mom[17] = np.nan
        with pytest.raises(NumericalError) as err:
            rhs(state, params, SchemeConfig(), grid)
        assert err.value.node is not None


class TestStableDt:
    """The step bounds: ``_advective_dt`` sets dt, ``_diffusive_dt`` (one
    explicit stage of the viscous block) the viscous RKL2 stage count, and
    nu alone the resistive block's (both from ``_stage_counts``)."""

    def test_acoustic_limit(self):
        # state (1, 0, 0) with gamma=2 and negligible diffusion: dt = CFL*dx/sqrt(2)
        params = PhysParams(mu=1e-30, nu=0.0, gamma=2.0, b_bar=1.0)
        grid = Grid1D(10.0, 64)
        state = State(rho=np.ones(64), mom=np.zeros(64), b=np.zeros(64))
        assert _advective_dt(state, params, grid) == pytest.approx(
            solver.CFL_NUMBER * grid.dx / math.sqrt(2.0))

    def test_doubling_cells_at_most_halves_advective_bound(self, params, gaussian_spec):
        p = replace(params, mu=1e-30, nu=0.0)
        dts = []
        for n in (256, 512):
            g = Grid1D(20.0, n)
            dts.append(_advective_dt(build_initial_state(gaussian_spec, params, g), p, g))
        assert dts[1] <= 0.5 * dts[0] * (1 + 1e-12)

    def test_zero_resistivity_uses_viscous_bound(self, grid):
        # mu large enough that the dx^2 restriction governs; nu = 0 leaves mu/rho
        params = PhysParams(mu=10.0, nu=0.0)
        state = constant_state(grid, params)
        dt = _diffusive_dt(state, params, grid)
        assert dt == pytest.approx(
            solver.DIFFUSION_NUMBER * grid.dx**2 * params.rho_bar / params.mu)

    def test_large_resistivity_governs_diffusive_bound(self, grid):
        # nu = 50 sets the resistive block's bound alone: the viscous bound
        # is mu/rho's at any nu, and the b block takes the stages nu needs
        params = PhysParams(mu=0.1, nu=50.0)
        state = constant_state(grid, params)
        dt = _diffusive_dt(state, params, grid)
        assert dt == _diffusive_dt(state, replace(params, nu=0.0), grid)
        assert dt == pytest.approx(
            solver.DIFFUSION_NUMBER * grid.dx**2 * params.rho_bar / params.mu)
        dt_res = solver.DIFFUSION_NUMBER * grid.dx**2 / params.nu
        for tau in (1e-3, 1e-2, 1e-1):
            [(s, s_b)] = _stage_counts(2 * tau, [(state, params)], grid)
            assert s_b == rkl2_stage_count(tau, dt_res) > rkl2_stage_count(tau, dt) == s
        assert _stage_counts(2e-2, [(state, replace(params, nu=0.0))], grid)[0][1] == 0

    def test_positive_and_finite_on_vacuum(self, params):
        grid = Grid1D(20.0, 256)
        spec = ScenarioSpec(preset="interior_vacuum", a_b=-params.b_bar)
        dt = _diffusive_dt(build_initial_state(spec, params, grid), params, grid)
        assert np.isfinite(dt) and dt > 0

    @pytest.mark.parametrize("preset", ["gaussian_bump", "interior_vacuum"])
    def test_viscous_density_is_rho_itself_without_vacuum(self, preset):
        # no node below 2f: r is rho itself, not a copy, and the viscous rate
        # carries no weight; a node below 2f gives a new r, and the rate the
        # weight rho/r
        params, grid = PhysParams(mu=0.1, nu=1e-3), Grid1D(20.0, 64)
        state = build_initial_state(ScenarioSpec(preset=preset, a_b=-1.0), params, grid)
        r = viscous_density(state.rho, params.rho_bar)
        rho_safe, viscous, _ = _blocks(state, params, grid)
        unweighted = (params.mu / grid.dx**2) / r
        if preset == "gaussian_bump":
            assert r is state.rho and rho_safe is state.rho
            assert viscous.rate.tobytes() == unweighted.tobytes()
        else:
            assert r is not state.rho and np.array_equal(rho_safe, r)
            assert viscous.rate.tobytes() == (unweighted * (state.rho / r)).tobytes()
            assert not np.array_equal(viscous.rate, unweighted)


class TestStep:
    def test_constant_state_unchanged(self, params, grid):
        scheme = SchemeConfig()
        state = constant_state(grid, params)
        for _ in range(5):
            state, clips = step(state, 1e-3, params, scheme, grid)
            assert clips == 0
        assert np.all(state.rho == params.rho_bar)
        assert np.all(state.mom == 0.0)
        assert np.all(state.b == params.b_bar)

    def test_passive_bump_translates(self):
        # constant velocity, near-zero viscosity, trace magnetic bump: the bump
        # advects at speed c while rho and u stay constant in the interior
        params = PhysParams(mu=1e-30, nu=0.0, gamma=1.4)
        grid = Grid1D(20.0, 1024)
        c, eps, t_end = 1.0, 1e-8, 0.5
        x = grid.x
        rho = np.full(grid.n_cells, params.rho_bar)
        state = State(rho=rho, mom=rho * c, b=params.b_bar + eps * np.exp(-x**2), t=0.0)
        scheme = SchemeConfig()
        while state.t < t_end - 1e-12:
            dt = min(_advective_dt(state, params, grid), t_end - state.t)
            state, _ = step(state, dt, params, scheme, grid)
        core = np.abs(x) < 10.0  # edges are polluted by the far-field ghosts
        assert np.abs(state.rho - params.rho_bar)[core].max() < 1e-7
        assert np.abs(state.velocity() - c)[core].max() < 1e-7
        pert = (state.b - params.b_bar)[core]
        centroid = np.sum(x[core] * pert) / np.sum(pert)
        assert centroid == pytest.approx(c * t_end, abs=2 * grid.dx)
        exact = eps * np.exp(-(x[core] - c * t_end) ** 2)
        rel = np.sqrt(np.sum((pert - exact) ** 2) / np.sum(exact**2))
        assert rel < 0.25  # limiter dissipation at this resolution


class TestRun:
    def test_t_zero_returns_single_sample(self, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=0.0)
        final, record = run(gaussian_spec, params, scheme, grid)
        assert final.t == 0.0
        assert len(record.rows) == 1

    def test_sample_times_exact(self, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=0.2, n_samples=8)
        _, record = run(gaussian_spec, params, scheme, grid)
        assert np.array_equal(record.column("t"), np.linspace(0.0, 0.2, 9))

    def test_deterministic(self, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=0.1, n_samples=5)
        _, r1 = run(gaussian_spec, params, scheme, grid)
        _, r2 = run(gaussian_spec, params, scheme, grid)
        assert r1.to_csv() == r2.to_csv()

    def test_energy_never_exceeds_initial(self, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=1.0, n_samples=20)
        final, record = run(gaussian_spec, params, scheme, grid)
        e = record.column("energy")
        assert e[-1] <= e[0] * (1.0 + 1e-6)
        assert np.trapezoid(energy_density(final, params), dx=grid.dx) == pytest.approx(e[-1])

    def test_no_clipping_on_standard_presets(self, params, grid):
        for preset, a_b in (("gaussian_bump", 0.2), ("interior_vacuum", -params.b_bar)):
            spec = ScenarioSpec(preset=preset, a_b=a_b)
            _, record = run(spec, params, SchemeConfig(t_end=0.2, n_samples=5),
                            grid)
            assert record.final("clip_count") == 0

    def test_boundary_monitor_aborts(self):
        params = PhysParams()
        grid = Grid1D(5.0, 128)
        spec = ScenarioSpec(sigma=1.0)
        scheme = SchemeConfig(t_end=2.0, n_samples=10)
        with pytest.raises(BoundaryMonitorError):
            run(spec, params, scheme, grid)

    @pytest.mark.xfail(strict=True, raises=BoundaryMonitorError, reason="ROADMAP item 10")
    def test_near_vacuum_run_completes_without_clips(self):
        # the hyperbolic step runs after D(dt/2), whose velocity near vacuum
        # can outrun the CFL bound dt was taken from: 6 density clips, then a
        # boundary abort at t = 0.426121 after 1,019 steps
        spec = ScenarioSpec(preset="interior_vacuum", a_u=1.0, a_b=-1.0)
        params = PhysParams(mu=1.0, nu=1e-3)
        final, record = run(spec, params, SchemeConfig(t_end=1.0), Grid1D(20.0, 512))
        assert final.t == 1.0 and record.final("clip_count") == 0

    @pytest.mark.parametrize("field", ["rho", "mom", "b"])
    @pytest.mark.parametrize("node", [0, 2, -3, -1])
    def test_boundary_monitor_fails_closed_on_nan(self, params, grid, field, node):
        # max(0.0, nan) is 0.0, so a NaN edge node would read as the far field
        state = constant_state(grid, params)
        getattr(state, field)[node] = np.nan
        with pytest.raises(NumericalError) as err:
            solver.check_boundary(state, params)
        assert err.value.node == node % grid.n_cells
        assert solver.check_boundary(constant_state(grid, params), params) == 0.0

    def test_accumulators_monotone(self, params, grid, gaussian_spec):
        _, record = run(gaussian_spec, params, SchemeConfig(t_end=0.3, n_samples=10),
                        grid)
        record.validate()
        for col in ("diss_u", "diss_b", "l6_b_pert_accum"):
            assert np.all(np.diff(record.column(col)) >= 0)


class TestRunLockstep:
    def test_dt_is_minimum_over_members(self, grid, gaussian_spec):
        # diffusion no longer bounds dt: member 1's large resistivity changes
        # only the RKL2 stage count, and dt is the smaller advective bound
        p0 = PhysParams(nu=1e-3)
        p1 = replace(p0, nu=5.0)
        scheme = SchemeConfig(t_end=0.2, n_samples=2)
        sample_times = [scheme.t_end * k / scheme.n_samples for k in (1, 2)]
        state = build_initial_state(gaussian_spec, p0, grid)
        seen = []

        def observe(states, dt):
            bounds = [_advective_dt(s, p, grid) for s, p in zip(states, (p0, p1))]
            seen.append((dt, states[0].t, bounds))

        run_lockstep([(state, p0), (state.copy(), p1)], scheme, grid, observe=observe)
        assert seen[0][:2] == (0.0, 0.0)
        assert len(seen) > 3
        for (dt, t, _), (_, _, bounds) in zip(seen[1:], seen[:-1]):
            if t in sample_times:
                assert dt <= min(bounds)
            else:
                assert dt == min(bounds)
        assert any(b[0] != b[1] for _, _, b in seen[1:])  # the members do differ

    def test_members_share_the_stage_count(self, grid, gaussian_spec, monkeypatch):
        # both members' viscous blocks take the count of the larger mu/rho_min,
        # which no nu changes; nu = 5 needs more resistive stages than nu =
        # 1e-3, and only that member's b block takes them.  dt is the smaller
        # advective bound
        p0 = PhysParams(nu=1e-3)
        p1 = replace(p0, nu=5.0)
        scheme = SchemeConfig(t_end=0.2, n_samples=2)
        state = build_initial_state(gaussian_spec, p0, grid)
        calls = []  # (state before the step, params, dt, (s, s_b)), member by member
        diffusions = []  # (nu, viscous stages, resistive stages), two per step
        plain_step, plain_diffuse = solver.step, solver._diffuse

        def recording_step(state, dt, params, scheme_, grid_, rhs_fn=None, stages=None):
            calls.append((state, params, dt, stages))
            return plain_step(state, dt, params, scheme_, grid_, rhs_fn, stages)

        def recording_diffuse(state, tau, params, grid_, s, s_b):
            diffusions.append((params.nu, s, s_b))
            return plain_diffuse(state, tau, params, grid_, s, s_b)

        monkeypatch.setattr(solver, "step", recording_step)
        monkeypatch.setattr(solver, "_diffuse", recording_diffuse)
        telemetry = RunTelemetry()
        run_lockstep([(state, p0), (state.copy(), p1)], scheme, grid, telemetry=telemetry)
        steps = list(zip(calls[::2], calls[1::2]))
        assert len(steps) == telemetry.steps > 3
        assert len(diffusions) == 4 * len(steps)
        for k, ((s0, q0, dt, (v0, b0)), (s1, q1, dt1, (v1, b1))) in enumerate(steps):
            assert (q0, q1) == (p0, p1)
            assert (dt1, v1) == (dt, v0)
            adv = min(_advective_dt(s0, p0, grid), _advective_dt(s1, p1, grid))
            landing = min(abs(s0.t + dt - t) for t in (0.1, 0.2)) < 1e-12
            assert dt == adv or (dt < adv and landing)
            viscous = [_diffusive_dt(s_, p_, grid) for s_, p_ in ((s0, p0), (s1, p1))]
            assert v0 == rkl2_stage_count(0.5 * dt, min(viscous))
            assert viscous == [_diffusive_dt(s_, replace(p0, nu=nu), grid)
                               for s_, nu in ((s0, 0.0), (s1, 1e-2))]
            dt_res = [solver.DIFFUSION_NUMBER * grid.dx**2 / p.nu for p in (p0, p1)]
            assert [b0, b1] == [rkl2_stage_count(0.5 * dt, bound) for bound in dt_res]
            assert b1 > b0 >= 2
            assert diffusions[4 * k:4 * k + 4] == [(1e-3, v0, b0)] * 2 + [(5.0, v0, b1)] * 2
        # the telemetry holds exactly the counts the steps were given
        assert telemetry.diffusion_stages == sum(2 * c[3][0] for c in calls[::2])
        assert telemetry.resistive_stages == sum(2 * c[3][1] for c in calls) == sum(
            s_b for _, _, s_b in diffusions)

    def test_clips_of_every_member_counted(self, params, grid, gaussian_spec):
        mid = grid.n_cells // 2

        def rhs_fn(state, params_, scheme_, grid_):
            out = rhs(state, params_, scheme_, grid_)
            if params_.nu == 0.0 and state.t == 0.0:
                out.d_rho[mid] = -1e6  # first stage of the nu = 0 member only
            return out

        scheme = SchemeConfig(t_end=1e-3, n_samples=1)
        state = build_initial_state(gaussian_spec, params, grid)
        members = [(state, params), (state.copy(), replace(params, nu=0.0))]
        sinks = {name: RunTelemetry() for name in ("pair", "alone", "both", "group", "bare")}
        _, (record,) = run_lockstep(members, scheme, grid, rhs_fn=rhs_fn,
                                    telemetry=sinks["pair"])
        # a record counts its own member's clips; the telemetry counts every member's
        assert record.final("clip_count") == 0
        assert sinks["pair"].clips > 0
        _, (alone,) = run_lockstep(members[:1], scheme, grid, rhs_fn=rhs_fn,
                                   telemetry=sinks["alone"])
        assert alone.final("clip_count") == sinks["alone"].clips == 0
        _, (kept, clipped) = run_lockstep(members, scheme, grid, rhs_fn=rhs_fn, recorded=2,
                                          telemetry=sinks["both"])
        assert kept.final("clip_count") == 0
        assert clipped.final("clip_count") == sinks["both"].clips == sinks["pair"].clips
        group = [members[0], (state.copy(), replace(params, nu=1e-2)), members[1]]
        _, records = run_lockstep(group, scheme, grid, rhs_fn=rhs_fn, recorded=2,
                                  telemetry=sinks["group"])
        assert [r.final("clip_count") for r in records] == [0, 0]
        assert sinks["group"].clips == sinks["pair"].clips
        # an unrecorded run reports them through its telemetry
        run_lockstep(members, scheme, grid, rhs_fn=rhs_fn, recorded=0, telemetry=sinks["bare"])
        assert sinks["bare"].clips == sinks["pair"].clips

    @pytest.mark.parametrize("nus", [(1e-3,), (1e-2, 1e-3, 0.0)],
                             ids=["ssp_rk2", "group-with-nu0"])
    def test_unrecorded_run_matches_recorded(self, nus, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=0.05, n_samples=3)
        state = build_initial_state(gaussian_spec, params, grid)
        members = [(state, replace(params, nu=nu)) for nu in nus]
        t, u = RunTelemetry(), RunTelemetry()
        finals, (record,) = run_lockstep(members, scheme, grid, telemetry=t)
        bare_finals, bare = run_lockstep(members, scheme, grid, recorded=0, telemetry=u)
        for a, b in zip(finals, bare_finals):
            assert a.t == b.t
            for name in ("rho", "mom", "b"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert bare == []
        for name in ("steps", "dt_advective", "dt_sample_landing", "diffusion_stages",
                     "resistive_stages", "clips"):
            assert getattr(u, name) == getattr(t, name), name
        # only the samples are skipped: one evaluation per row of the recorded member
        assert u.rhs_evals == t.rhs_evals - len(record.rows) == t.rhs_evals - 4

    def test_single_member_is_run(self, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=0.05, n_samples=3)
        final, record = run(gaussian_spec, params, scheme, grid)
        state0 = build_initial_state(gaussian_spec, params, grid)
        (state,), (record2,) = run_lockstep([(state0, params)], scheme, grid)
        assert np.array_equal(state.b, final.b)
        assert record2.to_csv() == record.to_csv()

    def test_telemetry_counts_steps_evaluations_and_bounds(self, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=0.05, n_samples=3)
        state = build_initial_state(gaussian_spec, params, grid)
        members = [(state, params), (state.copy(), replace(params, nu=0.0))]
        dts = []
        t = RunTelemetry()
        _, (record,) = run_lockstep(members, scheme, grid,
                                    observe=lambda states, dt: dts.append(dt), telemetry=t)
        assert t.steps == len(dts) - 1
        assert t.dt_sample_landing == scheme.n_samples
        assert t.dt_advective + t.dt_sample_landing == t.steps
        assert t.rhs_evals == solver.RHS_PER_STEP * 2 * t.steps + len(record.rows)
        assert t.diffusion_stages >= 2 * 2 * t.steps  # two half-steps of >= 2 stages
        assert t.resistive_stages >= 2 * 2 * t.steps  # the nu = 0 member has no b block
        assert 0.0 <= t.peak_boundary_deviation <= 1e-6

    def test_abort_carries_the_record_so_far(self):
        params = PhysParams()
        grid = Grid1D(5.0, 128)
        spec = ScenarioSpec(sigma=1.0)
        scheme = SchemeConfig(t_end=2.0, n_samples=10)
        telemetry = RunTelemetry()
        with pytest.raises(BoundaryMonitorError) as err:
            run(spec, params, scheme, grid, telemetry)
        record = err.value.record
        assert 1 <= len(record.rows) < scheme.n_samples + 1
        assert record.column("t")[-1] <= err.value.time
        assert telemetry.steps > 0
        record.validate()

    @pytest.mark.parametrize("recorded", [0, 1, 2])
    def test_failure_names_the_member(self, recorded, params, grid, gaussian_spec):
        def rhs_fn(state, params_, scheme_, grid_):
            if params_.nu == 0.5 and state.t > 0:
                raise NumericalError("forced", node=0, time=state.t)
            return rhs(state, params_, scheme_, grid_)

        state = build_initial_state(gaussian_spec, params, grid)
        members = [(state, replace(params, nu=nu)) for nu in (1e-3, 0.5, 0.0)]
        telemetry = RunTelemetry()
        with pytest.raises(NumericalError) as err:
            run_lockstep(members, SchemeConfig(t_end=0.01, n_samples=2), grid, rhs_fn=rhs_fn,
                         recorded=recorded, telemetry=telemetry)
        assert err.value.member == 1
        # member 1's record so far, the t = 0 row; None when member 1 is not recorded
        if recorded > 1:
            assert len(err.value.record.rows) == 1
        else:
            assert err.value.record is None
        assert telemetry.rhs_evals > 0

    def test_max_steps_guard(self, params, grid, gaussian_spec):
        state = build_initial_state(gaussian_spec, params, grid)
        with pytest.raises(SimulationError, match="exceeded 2 steps"):
            run_lockstep([(state, params)], SchemeConfig(t_end=1.0, n_samples=1), grid,
                         max_steps=2)

    def test_max_steps_counts_this_call_alone(self, params, grid, gaussian_spec):
        # a telemetry that already holds an earlier run's steps does not trip the limit
        state = build_initial_state(gaussian_spec, params, grid)
        scheme = SchemeConfig(t_end=0.2, n_samples=2)
        fresh = RunTelemetry()
        run_lockstep([(state, params)], scheme, grid, telemetry=fresh)
        loaded = RunTelemetry(steps=fresh.steps)
        run_lockstep([(state, params)], scheme, grid, max_steps=fresh.steps, telemetry=loaded)
        assert loaded.steps == 2 * fresh.steps > 2

    def test_shared_telemetry_sums_the_runs(self, params, grid, gaussian_spec):
        state = build_initial_state(gaussian_spec, params, grid)
        runs = [([(state, params)], SchemeConfig(t_end=0.05, n_samples=3)),
                ([(state, params), (state.copy(), replace(params, nu=0.0))],
                 SchemeConfig(t_end=0.2, n_samples=2))]
        shared, fresh = RunTelemetry(), [RunTelemetry() for _ in runs]
        for (members, scheme), sink in zip(runs, fresh):
            run_lockstep(members, scheme, grid, telemetry=sink)
            run_lockstep(members, scheme, grid, telemetry=shared)
        first, second, summed = (t.as_dict() for t in (*fresh, shared))
        peak = first.pop("peak_boundary_deviation"), second.pop("peak_boundary_deviation")
        assert peak[0] != peak[1]
        assert summed.pop("peak_boundary_deviation") == max(peak)
        assert summed == {name: first[name] + second[name] for name in first}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, params, grid, gaussian_spec):
        scheme = SchemeConfig(t_end=0.05, n_samples=2)
        final, _ = run(gaussian_spec, params, scheme, grid)
        text = save_checkpoint(final, grid)
        loaded, loaded_grid = load_checkpoint(text)
        assert loaded_grid.n_cells == grid.n_cells
        assert loaded_grid.half_width == grid.half_width
        assert loaded.t == final.t
        assert np.array_equal(loaded.rho, final.rho)
        assert np.array_equal(loaded.mom, final.mom)
        assert np.array_equal(loaded.b, final.b)

    def test_header_format(self, params, grid):
        text = save_checkpoint(constant_state(grid, params), grid)
        first = text.splitlines()[0].split()
        assert int(first[0]) == grid.n_cells
        assert float(first[1]) == grid.half_width
        assert float(first[2]) == 0.0
        assert len(text.splitlines()) == grid.n_cells + 1

    @pytest.mark.parametrize("text", ["", " \n\t \n"], ids=["empty", "whitespace"])
    def test_rejects_empty_text(self, text):
        with pytest.raises(ValueError, match="empty"):
            load_checkpoint(text)

    # a short row once raised IndexError and a long one loaded silently
    @pytest.mark.parametrize("line, edit, match", [
        (0, lambda parts: parts[:2], "line 1 has 2 values, not 3"),
        (0, lambda parts: parts + ["0"], "line 1 has 4 values, not 3"),
        (1, lambda parts: parts[:3], "line 2 has 3 values, not 4"),
        (5, lambda parts: parts + ["0"], "line 6 has 5 values, not 4"),
    ], ids=["header-short", "header-long", "row-short", "row-long"])
    def test_rejects_malformed_lines(self, line, edit, match, params, grid):
        lines = save_checkpoint(constant_state(grid, params), grid).splitlines()
        lines[line] = " ".join(edit(lines[line].split()))
        with pytest.raises(ValueError, match=match):
            load_checkpoint("\n".join(lines))

    def test_rejects_mismatched_coordinates(self, params, grid):
        text = save_checkpoint(constant_state(grid, params), grid)
        lines = text.splitlines()
        parts = lines[1].split()
        parts[0] = repr(float(parts[0]) + 0.5)
        lines[1] = " ".join(parts)
        with pytest.raises(ValueError, match="coordinates"):
            load_checkpoint("\n".join(lines))


@pytest.mark.parametrize("error", [NumericalError("non-finite tendency", node=7, time=0.25),
                                   BoundaryMonitorError(time=0.5, deviation=2e-6)])
def test_simulation_errors_survive_pickling(error):
    # concurrent simulations run in separate processes; a pool hands their failures back
    error.record = DiagnosticsRecord(rows=[[0.5] * len(COLUMNS)])
    error.member = 1
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)
    attrs = ("time", "node") if isinstance(error, NumericalError) else ("time", "deviation")
    for name in (*attrs, "member"):
        assert getattr(back, name) == getattr(error, name)
    assert back.record == error.record

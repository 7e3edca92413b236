"""The verification battery behind ``mhd1d verify`` and acceptance criteria 4-9.

One implementation of each check runs at two fixed sets of sizes: ``VERIFY``
(small grids, about a second in all) for the command line, and ``ACCEPTANCE``
(the 2048-cell standard grid) for the acceptance suite.  The sizes are the
only thing the two consumers differ in; parameters, tolerances and formulas
have one value here.  Each check returns an ``Outcome``: whether it passed,
the one-line detail ``verify`` prints, and the measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import parse_config
from .core import Grid1D, PhysParams, constant_state, potential_energy
from .diagnostics import central_tendencies, energy_drift, flux_identity_residual
from .mms import manufactured_solution, observed_orders
from .scenario import ScenarioSpec, build_initial_state
from .solver import SchemeConfig, rhs, run

HALF_WIDTH = 20.0
FIELDS = ("rho", "u", "b")


@dataclass(frozen=True)
class Sizes:
    """Grids, horizons and MMS order floors of one battery run."""

    standard_cells: int  # the standard Gaussian run and the steady state
    standard_t_end: float
    mms_cells: tuple[int, ...]
    muscl_order: float  # lowest accepted observed MMS order, per field
    upwind_order: float
    vacuum_cells: int
    vacuum_t_end: float
    vacuum_samples: int


VERIFY = Sizes(standard_cells=512, standard_t_end=0.5, mms_cells=(128, 256),
               muscl_order=1.6, upwind_order=0.8,
               vacuum_cells=256, vacuum_t_end=0.1, vacuum_samples=5)
ACCEPTANCE = Sizes(standard_cells=2048, standard_t_end=1.0, mms_cells=(512, 1024, 2048),
                   muscl_order=1.8, upwind_order=0.9,
                   vacuum_cells=1024, vacuum_t_end=1.0, vacuum_samples=50)


@dataclass(frozen=True)
class Outcome:
    """A check's verdict, the line ``verify`` prints for it, and what it measured."""

    ok: bool
    detail: str
    values: dict = field(default_factory=dict)


class Battery:
    """The checks at one set of sizes, on the documented default physics.

    The standard run and the manufactured solution are built once and shared
    by the checks that use them.
    """

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.params = PhysParams()
        self.standard_grid = Grid1D(HALF_WIDTH, sizes.standard_cells)

    @cached_property
    def standard_run(self):
        """(initial state, final state, record) of the default Gaussian bump."""
        spec = ScenarioSpec(params=self.params)
        scheme = SchemeConfig(t_end=self.sizes.standard_t_end)
        state0 = build_initial_state(spec, self.standard_grid)
        final, record = run(spec, self.params, scheme, self.standard_grid)
        return state0, final, record

    @cached_property
    def manufactured(self):
        return manufactured_solution(self.params)

    def potential_energy_bounds(self) -> Outcome:
        """Phi ~ (rho - rho_bar)^2 near rho_bar and ~ (rho - rho_bar)^gamma far from it."""
        for gamma in (1.4, 2.0, 3.0):
            for rho_bar in (1.0, 2.0):
                rho = np.linspace(0.0, 2.0 * rho_bar, 4001)
                keep = np.abs(rho - rho_bar) > 1e-9
                ratio = potential_energy(rho, gamma, rho_bar)[keep] / (rho[keep] - rho_bar) ** 2
                if not 0 < ratio.min() <= ratio.max() < np.inf:
                    return Outcome(False, f"quadratic envelope failed for gamma={gamma}, "
                                          f"rho_bar={rho_bar}")
                hi = np.linspace(2.0 * rho_bar + 1e-9, 10.0 * rho_bar, 4001)
                growth = (hi**gamma - rho_bar**gamma) / (hi - rho_bar) ** gamma
                c1 = growth.max()
                c2 = np.max(c1 * (hi - rho_bar) ** gamma / potential_energy(hi, gamma, rho_bar))
                if not (np.all(np.isfinite(growth)) and c1 > 0 and 0 < c2 < np.inf):
                    return Outcome(False, f"growth envelope failed for gamma={gamma}, "
                                          f"rho_bar={rho_bar}")
        return Outcome(True, "empirical constants finite and positive for 6 (gamma, rho_bar) pairs")

    def steady_state_fixed_point(self) -> Outcome:
        params, grid = self.params, self.standard_grid
        out = rhs(constant_state(grid, params), params, SchemeConfig(), grid)
        sup = max(np.abs(out.d_rho).max(), np.abs(out.d_mom).max(), np.abs(out.d_b).max())
        tol = 1e-13 * max(params.rho_bar, abs(params.b_bar), 1.0)
        return Outcome(sup < tol, f"tendency sup-norm {sup:.3e} (tolerance {tol:.1e})",
                       {"sup": sup})

    def mass_conservation(self) -> Outcome:
        state0, final, record = self.standard_run
        rho_bar, dx = self.params.rho_bar, self.standard_grid.dx
        defect = abs(np.sum(final.rho - rho_bar) * dx - np.sum(state0.rho - rho_bar) * dx)
        budget = 1e-8 * np.sum(np.abs(state0.rho - rho_bar)) * dx
        clips = int(record.final("clip_count"))
        detail = f"mass defect {defect:.3e} (budget {budget:.3e})"
        detail += f", {clips} density clips" if clips else ""
        return Outcome(defect <= budget and clips == 0, detail,
                       {"defect": defect, "budget": budget})

    def energy_inequality(self) -> Outcome:
        drift = energy_drift(self.standard_run[2])
        return Outcome(drift <= 1e-3, f"relative drift {drift:.3e} (tolerance 1e-3)",
                       {"drift": drift})

    def mms_orders(self) -> Outcome:
        sizes = self.sizes
        orders = {
            name: observed_orders(self.params, SchemeConfig(t_end=0.4, reconstruction=recon),
                                  n_cells=sizes.mms_cells, manufactured=self.manufactured)
            for name, recon in (("muscl", "muscl_minmod"), ("upwind", "first_order_upwind"))
        }
        ok = (all(orders["muscl"][k] >= sizes.muscl_order for k in FIELDS)
              and all(orders["upwind"][k] >= sizes.upwind_order for k in FIELDS))
        detail = ", ".join(f"{name} " + "/".join(f"{o[k]:.2f}" for k in FIELDS)
                           for name, o in orders.items())
        return Outcome(ok, detail, orders)

    def flux_identity_contraction(self) -> Outcome:
        residuals = []
        for n in (512, 1024):
            grid = Grid1D(HALF_WIDTH, n)
            state = self.manufactured.initial_state(grid)
            residuals.append(flux_identity_residual(
                state, central_tendencies(state, self.params, grid), self.params, grid))
        contraction = residuals[0] / residuals[1]
        return Outcome(contraction >= 3.5,
                       f"two-grid contraction {contraction:.2f} (needs >= 3.5)",
                       {"contraction": contraction})

    def mode_consistency(self) -> Outcome:
        small = {"grid": {"n_cells": 256}, "scheme": {"t_end": 0.1, "n_samples": 5}}
        runs = []
        for extra in ({"mode": "non_resistive"}, {"physics": {"nu": 0.0}}):
            config = parse_config({**small, **extra})
            runs.append(run(config.spec, config.run_params, config.scheme, config.grid))
        (f1, r1), (f2, r2) = runs
        same = (np.array_equal(f1.rho, f2.rho) and np.array_equal(f1.mom, f2.mom)
                and np.array_equal(f1.b, f2.b) and r1.to_csv() == r2.to_csv())
        return Outcome(same, "non_resistive config and nu=0 trajectories bit-identical")

    def determinism(self) -> Outcome:
        grid = Grid1D(HALF_WIDTH, 256)
        spec = ScenarioSpec(params=self.params)
        scheme = SchemeConfig(t_end=0.1, n_samples=5)
        _, r1 = run(spec, self.params, scheme, grid)
        _, r2 = run(spec, self.params, scheme, grid)
        return Outcome(r1.to_csv() == r2.to_csv(),
                       "repeated run produces byte-identical diagnostics")

    def vacuum_robustness(self) -> Outcome:
        """Interior vacuum with a_b = -b_bar, so the field vanishes with the density."""
        sizes, params = self.sizes, self.params
        spec = ScenarioSpec(params=params, preset="interior_vacuum", a_u=0.2,
                            a_b=-params.b_bar, sigma=2.0)
        scheme = SchemeConfig(t_end=sizes.vacuum_t_end, n_samples=sizes.vacuum_samples)
        final, record = run(spec, params, scheme, Grid1D(HALF_WIDTH, sizes.vacuum_cells))
        record.validate()  # finiteness and monotone accumulators
        clips = int(record.final("clip_count"))
        landed = final.t == sizes.vacuum_t_end
        nonnegative = bool(np.all(final.rho >= 0.0))
        detail = f"interior vacuum short run, {clips} density clips"
        if not (landed and nonnegative):
            detail += f", final t={final.t!r}, min density {final.rho.min():.3e}"
        return Outcome(clips == 0 and landed and nonnegative, detail,
                       {"min_density": float(final.rho.min())})


# The checks ``mhd1d verify`` runs, in order; criteria 4-9 call the methods directly.
CHECKS = [(name, getattr(Battery, name)) for name in (
    "potential_energy_bounds", "steady_state_fixed_point", "mass_conservation",
    "energy_inequality", "mms_orders", "flux_identity_contraction", "mode_consistency",
    "determinism", "vacuum_robustness")]

"""Exception types shared across the package."""

from .core import BOUNDARY_TOLERANCE


class SimulationError(Exception):
    """Base class for runtime failures of a simulation.

    When raised from the time loop, ``member`` is the index of the lockstep
    member that failed and ``record`` its diagnostics rows up to the failure,
    or None when that member is not recorded.
    """

    record = None
    member = None


class NumericalError(SimulationError):
    """A tendency or state became non-finite.

    Carries the first offending node index and the simulation time so the
    failure can be located in post-mortems.
    """

    def __init__(self, message: str, node: int | None = None, time: float | None = None):
        if node is not None:
            message += f" (node {node})"
        if time is not None:
            message += f" at t={time:.6g}"
        super().__init__(message)
        self.node = node
        self.time = time


class BoundaryMonitorError(SimulationError):
    """The solution perturbation reached the truncated domain boundary.

    Far-field Dirichlet values are only valid while the perturbation stays
    away from the edges; runs abort rather than produce polluted output.
    """

    def __init__(self, time: float, deviation: float):
        super().__init__(
            f"boundary validity monitor tripped at t={time:.6g} "
            f"(edge deviation {deviation:.3e} > {BOUNDARY_TOLERANCE:g})"
        )
        self.time = time
        self.deviation = deviation

    def __reduce__(self):
        # rebuild from the constructor's arguments; record and member ride in __dict__
        return type(self), (self.time, self.deviation), self.__dict__


class ConfigError(ValueError):
    """Invalid run configuration; collects every violation, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mhd1d import Grid1D, PhysParams, ScenarioSpec

# Hypothesis profiles: tier-1 draws derandomized examples; the scheduled CI job
# loads "explore" (HYPOTHESIS_PROFILE=explore) for fresh random ones.  Tests that
# set only max_examples take the rest from the loaded profile.
settings.register_profile("default", max_examples=60, derandomize=True, deadline=None,
                          database=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("explore", max_examples=300, deadline=None, database=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def params():
    return PhysParams()


@pytest.fixture
def grid():
    return Grid1D(20.0, 256)


@pytest.fixture
def gaussian_spec(params):
    return ScenarioSpec()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

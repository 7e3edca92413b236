import numpy as np
import pytest

from mhd1d import Grid1D, PhysParams, ScenarioSpec


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

import numpy as np
import pytest

from tbrw import engine, schedules


@pytest.fixture(scope="session", autouse=True)
def warm_kernel():
    # importing tbrw builds or loads the C kernel; one short run here keeps
    # first-call costs out of the first test's timing
    engine.run("edge", schedules.bernoulli(0.5), 8, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)

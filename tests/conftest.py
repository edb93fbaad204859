import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and save no failing
# example to replay later, so a test's result depends only on the tree.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)

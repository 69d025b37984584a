import numpy as np
import pytest

from slicehardy.kernels import build_dictionary
from slicehardy.maximal import MaximalParams


@pytest.fixture(scope="session")
def dictionary_1d():
    """Small normalized kernel dictionary shared across the suite."""
    return build_dictionary(N=3, M=3, h=2.0 ** -7, count=3, n=1)


@pytest.fixture(scope="session")
def maximal_params(dictionary_1d):
    return MaximalParams(dictionary_1d, a=1.0, b=2.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

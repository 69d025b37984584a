import numpy as np
import pytest

from slicehardy.kernels import build_dictionary
from slicehardy.maximal import MaximalParams


@pytest.fixture(scope="session")
def h_1d():
    """The grid spacing dictionary_1d is built for."""
    return 2.0 ** -7


@pytest.fixture(scope="session")
def dictionary_1d(h_1d):
    """Small normalized kernel dictionary shared across the suite."""
    return build_dictionary(N=3, M=3, h=h_1d, count=3, n=1)


@pytest.fixture
def maximal_params(dictionary_1d):
    """New per test: MaximalParams keeps the Peetre fields it makes."""
    return MaximalParams(dictionary_1d, a=1.0, b=2.5)


@pytest.fixture
def peetre_builds(monkeypatch):
    """The members whose Peetre fields MaximalParams.peetre_fields makes,
    in the order made: those it hands to its _scale_max pass of the
    "peetre" op."""
    from slicehardy import maximal

    made, scale_max = [], maximal._scale_max

    def recorded(members, kernels, ladder, pad, ops, *args):
        if "peetre" in ops:
            made.extend(members)
        return scale_max(members, kernels, ladder, pad, ops, *args)

    monkeypatch.setattr(maximal, "_scale_max", recorded)
    return made


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

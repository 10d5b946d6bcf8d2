import numpy as np
import pytest

from jumplab.reductions import dot


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 33_335])
def test_dot_of_vectors_is_the_pairwise_sum(n):
    x, y = np.random.default_rng(n).normal(size=(2, n))
    assert dot(x, y) == float(np.add.reduce(x * y))
    assert isinstance(dot(x, y), float)


@pytest.mark.parametrize("shape", [(1, 5), (2, 3), (3, 1), (2, 3, 4)])
def test_dot_of_arrays_sums_every_element(shape):
    x, y = np.random.default_rng(len(shape)).normal(size=(2, *shape))
    assert dot(x, y) == pytest.approx(float(np.sum(x.ravel() * y.ravel())), rel=1e-14)
    assert dot(x, y) == dot(x.ravel(), y.ravel())

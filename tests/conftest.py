import numpy as np
import pytest

from ptspin.boundary import HSPIN_PARAM_NAMES, hspin
from ptspin.linalg import SpinDims


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


def random_hspin(rng, scale=2.0, symmetric=False):
    """Random coupling in the ten-parameter swap-commuting family.

    With symmetric=True the draw is restricted to the sub-family whose matrix
    is real symmetric (d = c, e3 = e1, e4 = e2).
    """
    values = dict(zip(HSPIN_PARAM_NAMES, rng.uniform(-scale, scale, 10)))
    if symmetric:
        values["d"] = values["c"]
        values["e3"] = values["e1"]
        values["e4"] = values["e2"]
    return hspin(**values)


def separated_momenta(rng, count, low=-2.0, high=2.0, gap=0.1):
    """Momenta with all pairwise differences bounded away from zero."""
    while True:
        ks = rng.uniform(low, high, count)
        diffs = np.abs(ks[:, None] - ks[None, :])[np.triu_indices(count, 1)]
        if diffs.min() >= gap:
            return tuple(float(k) for k in ks)


def embed_pair(m, j: int, dims: SpinDims) -> np.ndarray:
    """Dense reference: m on factors (j, j+1) of (C^n)^N (1-based j), the
    identity elsewhere, as a Kronecker product."""
    left = np.eye(dims.n ** (j - 1), dtype=np.complex128)
    right = np.eye(dims.n ** (dims.N - j - 1), dtype=np.complex128)
    return np.kron(np.kron(left, np.asarray(m, dtype=np.complex128)), right)

import numpy as np
import pytest

from ptspin import scattering
from ptspin.boundary import HSPIN_PARAM_NAMES, SeparatedBC, hspin
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


def dense_complex_coupling(rng, n):
    """Separated coupling with a dense complex Gaussian n^2 x n^2 matrix F."""
    return SeparatedBC(n, rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))


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


def exchange_operator(i: int, j: int, dims: SpinDims) -> np.ndarray:
    """Dense reference: the n^N x n^N permutation exchanging tensor factors i and j
    (1-based) of (C^n)^N, read off the base-n digits of each basis index."""
    shape = (dims.n,) * dims.N
    digits = np.indices(shape).reshape(dims.N, -1)
    digits[[i - 1, j - 1]] = digits[[j - 1, i - 1]]
    return np.eye(dims.total_dim, dtype=np.complex128)[np.ravel_multi_index(tuple(digits), shape)]


def fresh_y_separated(bc, k12):
    """y_separated(bc, k12) from its own solve: the kept stack is dropped first,
    so a reference never comes from the stack of the call it checks."""
    scattering._last_stack = None
    return scattering.y_separated(bc, k12)

import itertools

import numpy as np
import pytest

from ptspin import scattering
from ptspin.boundary import HSPIN_PARAM_NAMES, SeparatedBC, hspin
from ptspin.linalg import SpinDims, max_abs


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


def dense_braid_sides(ab, ac, bc, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense reference of `scattering.braid_defect` on one triple: the two
    braid products Y^1(bc) Y^2(ac) Y^1(ab) and Y^2(ab) Y^1(ac) Y^2(bc) as
    n^3 x n^3 matrices, each factor embedded by `embed_pair`."""
    dims = SpinDims(n, 3)

    def at(y, j):
        return embed_pair(y, j, dims)

    return at(bc, 1) @ at(ac, 2) @ at(ab, 1), at(ab, 2) @ at(ac, 1) @ at(bc, 2)


def dense_ybe_residual(yfactory, k1, k2, k3, dims: SpinDims) -> float:
    """Dense reference of `scattering.ybe_residual`: the max-abs of the
    difference of the braid sides of (Y(k23), Y(k13), Y(k12)), one factory
    call per pair."""
    y12, y13, y23 = (yfactory(k) for k in scattering.pair_momenta((k1, k2, k3)))
    left, right = dense_braid_sides(y23, y13, y12, dims.n)
    return max_abs(left - right)


def sides_scale(ab, ac, bc, n: int) -> float:
    """The componentwise rounding scale of one triple's two braid products
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.5):
    the largest entry of either side of `dense_braid_sides` on |ab|, |ac|, |bc|."""
    return max(side.real.max() for side in dense_braid_sides(*map(np.abs, (ab, ac, bc)), n))


def braid_scale(bc, momenta) -> float:
    """The largest `sides_scale` of the triples (Y(k_ab), Y(k_ac), Y(k_bc)),
    from fresh solves, over every momentum triple a < b < c."""
    return max(sides_scale(*(fresh_y_separated(bc, k) for k in scattering.pair_momenta(triple)), bc.n)
               for triple in itertools.combinations(momenta, 3))


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

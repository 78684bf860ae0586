"""Bethe coefficient propagation and wavefunction assembly for separated
boundary conditions.

In the fundamental region x_1 < x_2 < ... < x_N the wavefunction is a sum of
N! plane waves, one per assignment sigma of momenta to coordinate slots, each
carrying a spin coefficient u_sigma in (C^n)^{x N}.  Crossing the coincidence
plane between slots j and j+1 relates coefficients through the pair exchange
operator: if sigma has labels (alpha, beta) at slots (j, j+1) and sigma' swaps
them, then

    u_sigma' = Y^{j,j+1}((k_alpha - k_beta)/2) u_sigma,

anchored by the two-particle case u_21 = Y(k12) u_12.  Coefficients for every
permutation are produced by propagating along a canonical reduced word
(reversed bubble sort); `path_consistency` measures how much the result would
depend on the word chosen.

Y^{j,j+1} is never built as an n^N x n^N matrix.  A pair operator touches two
of the N tensor slots, so it is applied as one n^2 x n^2 product on the
(n^(j-1), n^2, rest) view of a coefficient vector, and the C(N,2) exchange
operators are built by one stacked Cayley solve, one per momentum pair
alpha < beta in lexicographic order (`scattering.pair_momenta`); that
position is the pair's number everywhere, and a singular or non-finite
operator is refused by its pair, the lexicographically first.  The
canonical words of N particles form a trie (27, 155, 1045, 8029, 69265
nodes for N = 4..8; from N = 4 on, some interior nodes are not words).  Its
shape and the slot labels of every edge depend only on N.  `_word_trie`
numbers its nodes one depth at a time with array operations, once per N,
building each depth's level as it numbers it, and `_plan` caches what the
coefficient pass and the BetheState read of it as arrays: the levels, the
padded canonical words and the slot index.  No permutation is stored:
`BetheState.coefficients` and `.words` find a permutation's row by its rank
in itertools.permutations order, which is lexicographic (`_rank`).
N >= 10 is refused before anything is allocated or planned.  A node's depth
is its word length, so `bethe_coefficients` propagates the trie one depth
at a time: the nodes of a depth that swap at one slot are one stacked
np.matmul on their parents' rows (15, 34, 65, 111 products for N = 4..7),
each making the per-node n^2 x n^2 products, and word rows land in one
(N!, n^N) array, which the BetheState holds read-only.

`path_consistency` is Yang's reduction (Yang, PRL 19, 1312 (1967)): any two
reduced words of a permutation are linked by braid and commutation moves
(Matsumoto), and a commutation move changes no product, so every word gives
one product iff the Yang-Baxter equation holds on every momentum triple
a < b < c.  It returns the largest absolute max-abs, over all C(N,3)
triples, of the two braid products on (C^n)^3,

    Y^1(k_bc) Y^2(k_ac) Y^1(k_ab) - Y^2(k_ab) Y^1(k_ac) Y^2(k_bc),

read from the operator stack the coefficients solved; for N = 3 it is
`scattering.ybe_residual` of k -> Y(k).T.  The triples' rows are gathered
by one index per N (`_triples`) and passed, all at once, to
`scattering.braid_defect`, the kernel `ybe_residual` runs on one triple;
it plans nothing.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boundary import SeparatedBC, require_separated
from .linalg import (MatrixError, SingularMatrixError, SpinDims, Statistics, as_statistics,
                     max_abs, permutation_sign, permute_slots)
from .scattering import braid_defect, pair_momenta, y_separated

__all__ = [
    "BetheState",
    "bethe_coefficients",
    "path_consistency",
    "evaluate_wavefunction",
    "boundary_jump_residual",
]

COINCIDENCE_RTOL = 1e-13


class _ByPerm(Mapping):
    """Read-only perm -> value(rank), where rank is the perm's position in
    itertools.permutations order (`_rank`); no perm is stored."""

    def __init__(self, N: int, value):
        self._N, self._value = N, value

    def __getitem__(self, perm):
        return self._value(_rank(perm, self._N))

    def __iter__(self):
        return itertools.permutations(range(1, self._N + 1))

    def __len__(self):
        return math.factorial(self._N)

    def items(self):
        return _InOrder(self)


class _InOrder(ItemsView):
    """The items in permutations order, each value read by position instead of by rank."""

    def __iter__(self):
        return zip(self._mapping, map(self._mapping._value, itertools.count()))


def _rank(perm, N: int) -> int:
    """The position of perm among itertools.permutations(range(1, N + 1)), which
    lists them in lexicographic order: its Lehmer code read in the factorial
    number system.  KeyError unless perm is a tuple equal to one of them."""
    try:
        labels = [int(label) for label in perm] if isinstance(perm, tuple) else []
    except (TypeError, ValueError, OverflowError):
        raise KeyError(perm) from None
    if sorted(labels) != list(range(1, N + 1)) or tuple(labels) != perm:
        raise KeyError(perm)
    return sum(math.factorial(N - 1 - i) * sum(later < label for later in labels[i + 1:])
               for i, label in enumerate(labels))


@dataclass(frozen=True)
class BetheState:
    """Propagated spin coefficients for all momentum assignments.

    array holds the read-only (N!, n^N) coefficients, one row per permutation
    (a 1-based tuple listing which momentum sits at each coordinate slot) in
    itertools.permutations order.  coefficients maps each permutation to its
    row; words maps it to the adjacent-swap sequence used to reach it from the
    identity.
    """

    dims: SpinDims
    momenta: tuple[float, ...]
    statistics: Statistics
    array: np.ndarray

    @property
    def coefficients(self) -> Mapping[tuple[int, ...], np.ndarray]:
        return _ByPerm(self.dims.N, self.array.__getitem__)

    @property
    def words(self) -> Mapping[tuple[int, ...], tuple[int, ...]]:
        return _ByPerm(self.dims.N, _plan(self.dims.N).word)

    @functools.cached_property
    def _slot_momenta(self) -> np.ndarray:
        """The (N!, N) momentum at each slot of every permutation, in long double."""
        return np.asarray(self.momenta, dtype=np.longdouble)[_plan(self.dims.N).slots]


def _canonical_words(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced words of adjacent swaps taking the identity to each row of perms,
    and their lengths.

    Bubble sort every row back to the identity at once (largest displaced
    labels drift rightward; N - 1 passes sort any row), recording which rows
    swap at each slot, then append the swaps in reverse to each row's word,
    padded with 0 to the longest length N(N-1)/2.  The word length equals
    the inversion count, so the word is reduced.
    """
    seq = perms.T.copy()
    N = len(seq)
    swaps = []
    for _ in range(N - 1):
        for j in range(N - 1):
            swaps.append((seq[j] > seq[j + 1], j + 1))
            seq[j:j + 2] = np.minimum(seq[j], seq[j + 1]), np.maximum(seq[j], seq[j + 1])
    words = np.zeros((len(perms), N * (N - 1) // 2), dtype=np.int8)
    lengths = np.zeros(len(perms), dtype=np.intp)
    for rows, slot in reversed(swaps):
        words[rows, lengths[rows]] = slot
        lengths += rows
    return words, lengths


class _Group(NamedTuple):
    """The nodes of one depth that swap at one slot: one stacked product.

    parents are their parents' positions in the depth above, pairs their
    momentum pairs' positions in lexicographic order, and stop the end of
    their rows in the depth, which lists its groups one after another.
    """

    slot: int
    parents: np.ndarray
    pairs: np.ndarray
    stop: int


class _Level(NamedTuple):
    """One depth: its groups, and the positions of its word nodes (rows) and their perms (words)."""

    groups: tuple[_Group, ...]
    rows: np.ndarray
    words: np.ndarray


class _Plan(NamedTuple):
    """What the passes read of the trie of N particles, held as arrays.

    levels is the trie by depth, which `_propagate` reads; a node's pair is
    the position of its momentum pair (alpha, beta), alpha < beta, in
    lexicographic order, the row of `_exchange_operators`.  Row i of the
    int8 words is the canonical word of the i-th permutation in
    itertools.permutations order, padded with 0 (no slot is 0); slots holds
    the 0-based momentum at each slot of every permutation.  The arrays are
    read-only.
    """

    levels: tuple[_Level, ...]
    words: np.ndarray
    slots: np.ndarray

    def word(self, rank: int) -> tuple[int, ...]:
        """The canonical word of the permutation at that position."""
        return tuple(filter(None, self.words[rank].tolist()))


def _frozen(values, dtype=np.intp) -> np.ndarray:
    """A read-only array, safe to share from a cache."""
    out = np.asarray(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _pair_ids(N: int) -> np.ndarray:
    """The (N, N) position of each momentum pair (alpha, beta), alpha < beta,
    among all pairs in lexicographic order (np.triu_indices), at [alpha, beta]."""
    ids = np.zeros((N, N), dtype=np.intp)
    ids[np.triu_indices(N, 1)] = np.arange(N * (N - 1) // 2)
    return ids


def _word_trie(N: int) -> tuple[tuple[_Level, ...], np.ndarray, np.ndarray]:
    """The trie of the canonical words of N particles, planned with array operations.

    Returns the levels, the padded words and the slots (the fields of
    `_Plan` so named).  A node's pair is its momentum pair's position among
    all pairs in lexicographic order (`_pair_ids`).  Nodes are numbered one
    depth at a time by np.unique of (slot, parent number) over the padded
    words, so the nodes of a depth that swap at one slot are contiguous:
    each level's groups are cut from its numbering as it is made.
    """
    slots = _frozen(np.fromiter(itertools.permutations(range(N)), np.dtype((np.int8, N)),
                                math.factorial(N)), np.int8)
    words, lengths = _canonical_words(slots)
    pair_ids = _pair_ids(N)
    # Per node: its number within its depth and the 0-based labels at its
    # slots; a node swaps the labels its parent holds at its slot.
    ids = np.zeros(len(slots), dtype=np.intp)
    labels, above, levels = np.arange(N)[None], 1, []
    for d in range(words.shape[1]):
        alive = np.flatnonzero(lengths > d)
        keys, ids[alive] = np.unique(words[alive, d].astype(np.intp) * above + ids[alive],
                                     return_inverse=True)
        j, up = np.divmod(keys, above)
        labels, rows = labels[up], np.arange(len(keys))
        alpha, beta = labels[rows, j - 1], labels[rows, j]
        labels[rows, j - 1], labels[rows, j] = beta, alpha
        pair, above = pair_ids[alpha, beta], len(keys)
        edges = np.searchsorted(j, range(1, N + 1)).tolist()
        done = alive[lengths[alive] == d + 1]
        levels.append(_Level(
            groups=tuple(_Group(slot=slot, parents=_frozen(up[start:stop]),
                                pairs=_frozen(pair[start:stop]), stop=stop)
                         for slot, start, stop in zip(range(1, N), edges, edges[1:]) if start < stop),
            rows=_frozen(ids[done]), words=_frozen(done)))
    return tuple(levels), _frozen(words, np.int8), slots


@functools.cache
def _plan(N: int) -> _Plan:
    """The plan of N particles, built once from one numbering of its trie
    (`_word_trie`), which is then dropped.

    The trie holds N! words.  Planning takes about 0.04 s at N = 7, 0.1 s
    at N = 8 and 1.1 s at N = 9, about ten times more per particle, and the
    plan retains 0.39, 3.1 and 31 MiB (tracemalloc; the build peaks at 0.6,
    4.8 and 49 MiB, and a process that plans N = 9 reaches about 80 MB max
    RSS).  So `_check_state_inputs` refuses N >= 10 (3628800 words and up)
    before anything is allocated or planned.
    """
    return _Plan(*_word_trie(N))


@functools.cache
def _triples(N: int) -> np.ndarray:
    """The (C(N,3), 3) positions of the pairs (ab, ac, bc) of every momentum
    triple a < b < c, triples in lexicographic order, among the pairs in
    lexicographic order: the rows of the operator stack each triple reads."""
    a, b, c = np.array(list(itertools.combinations(range(N), 3))).T
    pair_ids = _pair_ids(N)
    return _frozen(np.stack((pair_ids[a, b], pair_ids[a, c], pair_ids[b, c]), axis=1))


def _exchange_operators(bc: SeparatedBC, momenta: tuple[float, ...]) -> np.ndarray:
    """The (N(N-1)/2, n^2, n^2) stack of Y((k_alpha - k_beta)/2), one per
    momentum pair alpha < beta in lexicographic order (`pair_momenta`).  A
    singular or non-finite operator is refused by its pair, the first in
    that order."""
    try:
        return y_separated(bc, np.array(pair_momenta(momenta)))
    except MatrixError as exc:
        alpha, beta = (int(labels[exc.index]) + 1 for labels in np.triu_indices(len(momenta), 1))
        named = f"momentum pair ({alpha},{beta}) gives a"
        if isinstance(exc, SingularMatrixError):
            raise SingularMatrixError(f"{named} singular exchange operator: {exc}",
                                      role=exc.role) from None
        raise ValueError(f"{named} non-finite exchange operator: {exc}") from None


def _trie_refusal(N: int) -> str:
    # The exact count is printed while it is short (20! has 19 digits).
    words = math.factorial(N) if N <= 20 else f"{N}!"
    return (f"planning N={N} particles builds a trie of {words} words; "
            f"at most 9 particles ({math.factorial(9)} words) are planned")


def _triple_refusal(N: int) -> str:
    return (f"path consistency compares the momentum triples of at most 9 particles, "
            f"as many as the coefficient pass takes; got N={N}")


def _check_state_inputs(bc, momenta, u_init, refusal):
    """The validated inputs of a pass; N >= 10 is refused with refusal(N)."""
    bc = require_separated(bc, "coefficient propagation")
    momenta = tuple(float(k) for k in momenta)
    if len(momenta) < 2:
        raise ValueError(f"need at least two momenta, got {len(momenta)}")
    if not all(np.isfinite(momenta)):
        raise ValueError("momenta must be finite")
    dims = SpinDims(bc.n, len(momenta))
    if dims.N > 9:
        raise ValueError(refusal(dims.N))
    u = np.asarray(u_init, dtype=np.complex128).reshape(-1)
    if u.shape[0] != dims.total_dim:
        raise ValueError(
            f"initial coefficient must have length {dims.total_dim} for "
            f"n={bc.n}, N={dims.N}, got {u.shape[0]}"
        )
    if not np.isfinite(u).all() or max_abs(u) == 0.0:
        raise ValueError("initial coefficient must be finite and non-zero")
    return bc, momenta, dims, u


def _propagate(N: int, operators: np.ndarray, coefficients: np.ndarray, n: int) -> np.ndarray:
    """Fill the (N!, n^N) coefficients from row 0, u, one trie depth at a time.

    Rows are in permutations order.  Each group of a level is one np.matmul
    of its nodes' stacked Y on the (n^(j-1), n^2, rest) views of their
    parents' rows, which makes the same n^2 x n^2 products as one
    `apply_pair` per node.  Only two levels are held.  The filled array is
    returned read-only.
    """
    above = coefficients[:1]
    for level in _plan(N).levels:
        nodes = np.empty((level.groups[-1].stop, coefficients.shape[1]), dtype=np.complex128)
        start = 0
        for group in level.groups:
            shape = (-1, n ** (group.slot - 1), n * n, n ** (N - group.slot - 1))
            np.matmul(operators[group.pairs][:, None], above[group.parents].reshape(shape),
                      out=nodes[start:group.stop].reshape(shape))
            start = group.stop
        coefficients[level.words] = nodes[level.rows]
        above = nodes
    coefficients.flags.writeable = False
    return coefficients


def bethe_coefficients(bc: SeparatedBC, momenta, u_init, statistics) -> BetheState:
    """Propagate the identity-permutation coefficient to all N! permutations.

    Each coefficient is its canonical word applied to u_init.  The trie of
    canonical words is propagated one depth at a time, with one stacked
    product per slot of each depth (`_propagate`).
    """
    bc, momenta, dims, u = _check_state_inputs(bc, momenta, u_init, _trie_refusal)
    stats = as_statistics(statistics)
    # The output is allocated before the plan, so a request too large for
    # memory fails at once, naming the (N!, n^N) array.
    coefficients = np.empty((math.factorial(dims.N), dims.total_dim), dtype=np.complex128)
    coefficients[0] = u
    operators = _exchange_operators(bc, momenta)
    return BetheState(dims=dims, momenta=momenta, statistics=stats,
                      array=_propagate(dims.N, operators, coefficients, dims.n))


def path_consistency(bc: SeparatedBC, momenta, u_init, statistics) -> float:
    """Worst-case dependence of the propagation on the reduced word chosen,
    by Yang's reduction to momentum triples.

    Every two reduced words of a permutation are linked by braid moves
    (j, j+1, j) <-> (j+1, j, j+1) and commutations, so the coefficients do
    not depend on the word iff, on every triple a < b < c of the C(N,3),
    the two braid products of the triple's exchange operators agree.  The
    number returned is the largest absolute entrywise max-abs of

        Y^1(k_bc) Y^2(k_ac) Y^1(k_ab) - Y^2(k_ab) Y^1(k_ac) Y^2(k_bc)

    on (C^n)^3, one `scattering.braid_defect` pass over the C(N,3) triples'
    rows of the operator stack; at N = 3 it is `ybe_residual` of
    k -> Y(k).T.  It is measured on operators, so u_init is validated but
    the number does not depend on it.  The operators are the stack the
    coefficients solved; nothing is planned.  N >= 10 is refused, the
    momenta the coefficient pass refuses, before any triple is gathered.
    """
    bc, momenta, dims, _ = _check_state_inputs(bc, momenta, u_init, _triple_refusal)
    as_statistics(statistics)
    if dims.N < 3:
        raise ValueError(f"path consistency needs at least three particles, got N={dims.N}")
    return braid_defect(*_exchange_operators(bc, momenta)[_triples(dims.N).T], dims.n)


def _fundamental_value(state: BetheState, y: np.ndarray, dtype) -> np.ndarray:
    """Plane-wave sum at a point y of the fundamental region, all N! terms at once."""
    phases = np.exp(1j * (state._slot_momenta @ y).astype(dtype))
    return phases @ state.array.astype(dtype, copy=False)


def _wavefunction(state: BetheState, x, dtype) -> np.ndarray:
    x = np.asarray(x, dtype=np.longdouble).reshape(-1)
    if x.shape[0] != state.dims.N:
        raise ValueError(f"position must have {state.dims.N} coordinates, got {x.shape[0]}")
    top = float(np.max(np.abs(x)))
    if not math.isfinite(top):
        raise ValueError("position must be finite")
    scale = max(1.0, top)
    order = np.argsort(x, kind="stable")
    y = x[order]
    if float(np.min(np.diff(y))) < COINCIDENCE_RTOL * scale:
        raise ValueError(
            "position lies on (or too near) a coincidence plane; "
            "the wavefunction is only defined on open ordering regions"
        )
    reindexed = permute_slots(_fundamental_value(state, y, dtype), order, state.dims.n)
    if state.statistics is Statistics.FERMION and permutation_sign(order) < 0:
        reindexed = -reindexed
    return reindexed


def evaluate_wavefunction(state: BetheState, x, statistics) -> np.ndarray:
    """Wavefunction value at a point off the coincidence planes.

    The point is sorted into the fundamental region, the plane-wave sum is
    evaluated there, and the value is carried back by reindexing spin slots
    with the sorting permutation (signed for fermions).  statistics must
    match the statistics the state was propagated with.
    """
    stats = as_statistics(statistics)
    if stats is not state.statistics:
        raise ValueError(
            f"statistics {stats.value!r} does not match the state's "
            f"{state.statistics.value!r}"
        )
    return _wavefunction(state, x, np.complex128).astype(np.complex128)


def _one_sided_weights(nodes: np.ndarray) -> np.ndarray:
    """Weights at 0 of the interpolant through nonzero nodes, in long double.

    Row 0 holds the Lagrange basis values l_i(0) = prod_{j!=i} x_j / (x_j - x_i)
    and row 1 the slopes l_i'(0) = -l_i(0) sum_{j!=i} 1 / x_j, so that
    f(0) ~ w[0] @ f(nodes) and f'(0) ~ w[1] @ f(nodes).
    """
    x = np.asarray(nodes, dtype=np.longdouble)
    others = [np.delete(x, i) for i in range(len(x))]
    value = np.array([np.prod(o / (o - xi)) for xi, o in zip(x, others)])
    slope = -value * np.array([np.sum(1 / o) for o in others])
    return np.stack((value, slope))


_JUMP_NODES = 8


def boundary_jump_residual(state: BetheState, bc: SeparatedBC, j: int, probe: float) -> float:
    """Interface-condition defect of a two-particle state at the plane x_j = x_{j+1}.

    One-sided limits of the wavefunction and its normal derivative across the
    plane are extracted from samples on a transversal through the probe point
    (extended-precision one-sided stencils).  Returns the larger of the
    max-abs defects of psi'(0+) - F psi(0+) and psi'(0-) + conj(F) psi(0-);
    for the Dirichlet member the defect of psi(0+) = psi(0-) = 0 is returned.
    """
    if state.dims.N != 2:
        raise ValueError(f"interface check is limited to two particles, got N={state.dims.N}")
    if j != 1:
        raise IndexError(f"pair index must be 1 for two particles, got {j}")
    bc = require_separated(bc, "interface check")
    if bc.n != state.dims.n:
        raise ValueError("boundary condition and state have different spin dimensions")
    probe = float(probe)
    if not math.isfinite(probe):
        raise ValueError(f"probe must be finite, got {probe!r}")
    scale = max(1.0, max(abs(k) for k in state.momenta))
    delta = np.longdouble(0.01) / scale
    nodes = delta * np.arange(1, _JUMP_NODES + 1, dtype=np.longdouble)
    weights = _one_sided_weights(nodes)

    def side(sign: float):
        samples = []
        for s in sign * nodes:
            point = np.array([probe - 0.5 * s, probe + 0.5 * s], dtype=np.longdouble)
            samples.append(_wavefunction(state, point, np.clongdouble))
        stack = np.array(samples)
        value = weights[0] @ stack
        derivative = sign * (weights[1] @ stack)
        return value, derivative

    value_plus, deriv_plus = side(1.0)
    value_minus, deriv_minus = side(-1.0)
    if bc.dirichlet:
        return max(max_abs(value_plus), max_abs(value_minus))
    F = bc.F
    res_plus = max_abs(deriv_plus.astype(np.complex128) - F @ value_plus.astype(np.complex128))
    res_minus = max_abs(deriv_minus.astype(np.complex128) + F.conj() @ value_minus.astype(np.complex128))
    return max(res_plus, res_minus)

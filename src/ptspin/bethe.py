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
(n^(j-1), n^2, rest) view of a coefficient vector or transport matrix, and
the C(N,2) exchange operators are built by one stacked Cayley solve, one
per momentum pair alpha < beta in lexicographic order
(`scattering.pair_momenta`); that position is the pair's number everywhere
in the plan, and a singular or non-finite operator is refused by its pair,
the lexicographically first.  The canonical words of N particles form a
trie (27, 155, 1045, 8029, 69265 nodes for N = 4..8; from N = 4 on, some
interior nodes are not words).  Its shape, the slot labels of every edge
and its braid sites depend only on N.  `_word_trie` numbers its nodes one
depth at a time with array operations, once per N, building each depth's
level as it numbers it, and `_plan` caches what every pass reads of it as
arrays: the levels of the coefficient pass, the padded canonical words and
the slot index of the BetheState, and the ops and buffer widths of the
walk.  The trie itself lives only while the plan is built.  No
permutation is stored: `BetheState.coefficients` and `.words` find a
permutation's row by its rank in itertools.permutations order, which is
lexicographic (`_rank`).  N >= 10 is refused before anything is allocated
or planned.  A node's depth is its word length, so `bethe_coefficients`
propagates the trie one depth at a time: the nodes of a depth that swap at one slot are one stacked
np.matmul on their parents' rows (15, 34, 65, 111 products for N = 4..7),
each making the per-node n^2 x n^2 products, and word rows land in one
(N!, n^N) array, which the BetheState holds read-only.
`path_consistency` walks, depth-first, only the trie rows that carry a
transport or a braid difference, holding the arrays of the current path.  It
reuses the transport as the canonical braid of each braid site (a node whose
last three swaps form a braid), applies only the flipped braid to the
transport three levels up, and moves the difference down the site's subtree
one swap at a time: both braids leave the same slot labels, so every word
through the site shares the suffix.  Each array of the walk is I (x) R (x) I,
where R acts on the hull of the slots its word touched, so it is held as the
n^k x n^k block R of those k slots, and a product whose pair leaves the hull
first widens the block.  The walk program is this walk as a buffer program
(`_program`), read straight from the trie's walk columns: the hulls decide
each op's block, and the liveness columns decide, once per N, which
numbered buffer each product writes, taken from an idle pool for its block
width k, so a buffer is n^k x n^k and the walk keeps only as many of each
width as it holds at once (at N = 5, one of width 0 for the identity, and
2, 4, 3 and 3 of widths 2 to 5).  A call
allocates one arena, the buffers' blocks laid end to end (3.05 MiB at
n = 3, N = 5), and one real magnitude buffer, and runs np.matmul,
np.subtract and np.abs on block views of it with out=, allocating nothing
per row.  The offsets, shapes and strides of those views depend only on
(N, n), so they are resolved once per (N, n) (`_schedule`), and a call
builds each view it uses once.  At n = 3, N = 5 the blocks cut the product
work to 0.54 and the max-abs reads to 0.70 of full n^N x n^N matrices.  The
propagation makes the same floating-point operations as replaying each word
alone.  The walk sums the same terms per entry as on full matrices; at
even n it gives the same number bit for bit, while at odd n BLAS rounds the
trailing (length mod 4) columns of a product by other kernels, which fall on
other entries in a block, so the number can move by a few ulps.
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
from .scattering import pair_momenta, y_separated

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
    the 0-based momentum at each slot of every permutation.  ops is the
    consistency walk as (kind, pair, slot, src, dst, lo, hi) rows of ops on
    numbered buffers (`_program`), which `_schedule` reads, and buffers the
    block width k of each buffer (buffer b holds an n^k x n^k block).  The
    arrays are read-only.
    """

    levels: tuple[_Level, ...]
    words: np.ndarray
    slots: np.ndarray
    ops: np.ndarray
    buffers: tuple[int, ...]

    def word(self, rank: int) -> tuple[int, ...]:
        """The canonical word of the permutation at that position."""
        return tuple(filter(None, self.words[rank].tolist()))


def _frozen(values, dtype=np.intp) -> np.ndarray:
    """A read-only array, safe to share from a cache."""
    out = np.asarray(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _word_trie(N: int) -> tuple[tuple[_Level, ...], np.ndarray, np.ndarray,
                                tuple[np.ndarray, ...]]:
    """The trie of the canonical words of N particles, planned with array operations.

    Returns the levels, the padded words and the slots (the fields of
    `_Plan` so named), and the walk as columns with one entry per row.  A
    node's pair is the position of its momentum pair (alpha, beta),
    alpha < beta, among all pairs in lexicographic order (np.triu_indices).
    Nodes are numbered one depth at a time by np.unique of (slot, parent
    number) over the padded words, so the numbers run depth by depth from
    the root 0, and the nodes of a depth that swap at one slot are
    contiguous: each level's groups are cut from its numbering as it is
    made.  The rows of the walk are, depth-first, the nodes that carry a
    transport, start a braid difference or inherit one (no other node does
    consistency work).  The columns are a row's depth, slot, pair and word
    (the rank of its permutation, or -1 if the node is not a canonical
    word); whether it carries a transport, is its parent's last child and is
    a braid node (its last three swaps are (a, b, a) with |a - b| = 1); its
    parent's slot and pair and its grandparent's pair, which give the steps
    of the flipped braid (b, a, b); and whether the transports of its base
    three levels up, of its parent and of itself are dead after this row.
    Children are visited lightest subtree first, so the arrays a node keeps
    for its children are released before its heaviest subtree is entered.
    """
    slots = _frozen(np.fromiter(itertools.permutations(range(N)), np.dtype((np.int8, N)),
                                math.factorial(N)), np.int8)
    words, lengths = _canonical_words(slots)
    pair_ids = np.zeros((N, N), dtype=np.intp)
    pair_ids[np.triu_indices(N, 1)] = np.arange(N * (N - 1) // 2)
    # Per node: parent, slot and the pair of the 0-based labels (alpha, beta)
    # it swaps, read from its parent's slot labels.
    ids = np.zeros(len(slots), dtype=np.intp)
    nodes, labels, offsets, levels = [(np.zeros(1, np.intp),) * 3], np.arange(N)[None], [0, 1], []
    for d in range(words.shape[1]):
        alive, above = np.flatnonzero(lengths > d), offsets[-1] - offsets[-2]
        keys, ids[alive] = np.unique(words[alive, d].astype(np.intp) * above + ids[alive],
                                     return_inverse=True)
        j, up = np.divmod(keys, above)
        labels, rows = labels[up], np.arange(len(keys))
        alpha, beta = labels[rows, j - 1], labels[rows, j]
        labels[rows, j - 1], labels[rows, j] = beta, alpha
        pair = pair_ids[alpha, beta]
        nodes.append((up + offsets[-2], j, pair))
        offsets.append(offsets[-1] + len(keys))
        edges = np.searchsorted(j, range(1, N + 1)).tolist()
        done = alive[lengths[alive] == d + 1]
        levels.append(_Level(
            groups=tuple(_Group(slot=slot, parents=_frozen(up[start:stop]),
                                pairs=_frozen(pair[start:stop]), stop=stop)
                         for slot, start, stop in zip(range(1, N), edges, edges[1:]) if start < stop),
            rows=_frozen(ids[done]), words=_frozen(done)))
    parent, slot, pair = map(np.concatenate, zip(*nodes))
    depth = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    word = np.full(len(depth), -1)
    word[np.asarray(offsets)[lengths] + ids] = np.arange(len(slots))
    # A braid node's base is the node three levels up, where its last three
    # swaps (a, b, a) with |a - b| = 1 start.  Bottom-up: subtree sizes
    # (weight) and braid counts.  Top-down: the depth-first positions of the
    # children, sorted by (weight, slot), and whether a braid node lies above.
    braid = (depth >= 3) & (slot == slot[parent[parent]]) & (np.abs(slot - slot[parent]) == 1)
    weight, braids = np.zeros(len(depth), dtype=np.intp), braid.astype(np.intp)
    for d in range(len(offsets) - 2, 0, -1):
        level = slice(offsets[d], offsets[d + 1])
        np.add.at(weight, parent[level], weight[level] + 1)
        np.add.at(braids, parent[level], braids[level])
    position = np.zeros(len(depth), dtype=np.intp)
    last, inherits = np.zeros((2, len(depth)), dtype=bool)
    for d in range(1, len(offsets) - 1):
        level = np.arange(offsets[d], offsets[d + 1])
        level = level[np.lexsort((slot[level], weight[level], parent[level]))]
        up, size = parent[level], weight[level] + 1
        before = np.cumsum(size) - size
        position[level] = position[up] + 1 + before - before[np.searchsorted(up, up)]
        last[level] = np.append(up[1:] != up[:-1], True)
        inherits[level] = inherits[up] | braid[up]
    # A node's transport is needed where a braid node lies in its subtree,
    # and dead after its last use: by a child's transport, by a braid node
    # three levels down, or by the node itself.
    transport, use = braids > 0, np.full(len(depth), -1)
    carried, sites = np.flatnonzero(transport[1:]) + 1, np.flatnonzero(braid)
    for owner, user in ((carried, carried), (parent[carried], carried),
                        (parent[parent[parent[sites]]], sites)):
        np.maximum.at(use, owner, position[user])
    order = np.argsort(position)[1:]
    order = order[(transport | inherits)[order]]
    up, at = parent[order], position[order]
    walk = (depth[order], slot[order], pair[order], word[order], transport[order], last[order],
            braid[order], slot[up], pair[up], pair[parent[up]],
            braid[order] & (use[parent[parent[up]]] == at), use[up] == at, use[order] == at)
    return tuple(levels), _frozen(words, np.int8), slots, walk


@functools.cache
def _plan(N: int) -> _Plan:
    """The plan of N particles, built once from one numbering of its trie
    (`_word_trie`), which is then dropped.

    The trie holds N! words.  Planning takes about 0.03 s at N = 7, 0.2 s
    at N = 8 and 2-3 s at N = 9, about ten times more per particle, and the
    plan retains 0.65, 3.8 and 35 MiB (tracemalloc; the build peaks at 1.4,
    11.6 and 111 MiB, and a process that plans N = 9 reaches about 150 MB
    max RSS).  So `_check_state_inputs` refuses N >= 10 (3628800 words and
    up) before anything is allocated or planned.
    """
    levels, words, slots, walk = _word_trie(N)
    return _Plan(levels, words, slots, *_program(walk))


_COPY, _APPLY, _WIDEN, _SUBTRACT, _MAX = range(5)


def _program(walk: tuple[np.ndarray, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """The consistency walk of `_word_trie`'s columns as ops on numbered
    buffers, one int16 row per op, and the buffers' block widths.

    Every array of the walk is a product of pair operators on the identity,
    or a difference of two such products with the same slots touched, so it
    is I (x) R (x) I, where the block R acts on the hull [lo, hi] of the
    slots its word touched (1-based; k = hi - lo + 1 slots, n^k x n^k).  A
    buffer of width k holds only such an R.  Each op is (kind, pair, slot,
    src, dst, lo, hi) and works on the block [lo, hi]: _COPY writes the
    pair's Y, the block of Y at slot applied to the identity, into dst;
    _APPLY writes Y at slot applied to src into dst; _SUBTRACT writes
    src - dst into dst; _MAX takes the max-abs of src (dst = src).  An apply
    whose pair leaves the hull of its source is preceded by a _WIDEN, (kind,
    a, b, src, dst, lo, hi), which writes I_(n^a) (x) R (x) I_(n^b), the
    full matrix on the wider hull, into a scratch buffer of the apply's
    width taken for that apply alone.  The rows are replayed depth-first,
    one zipped entry of the columns at a time, holding the transports and
    differences of the current path: each result's buffer is the last
    released buffer of its width, or a new one, taken before its source is
    released, so no op writes what it reads, and the liveness columns (last
    child, and the three dead flags) release each array after its last use,
    so the buffers of each width are the most arrays of that width the walk
    holds at once, a widen's scratch included.  The identity is the root transport, buffer 0,
    a block of width 0 (I = I (x) [1] (x) I) that no op reads or writes.
    """
    idle, ops, widths = [], [], [0]
    hull: dict[int, tuple[int, int] | None] = {0: None}

    def take(width):
        mine = [buffer for buffer in idle if widths[buffer] == width]
        if mine:
            idle.remove(mine[-1])
            return mine[-1]
        widths.append(width)
        return len(widths) - 1

    def apply(slot, pair, src):
        lo, hi = hull[src] or (slot, slot + 1)
        lo, hi = min(lo, slot), max(hi, slot + 1)
        dst = take(hi - lo + 1)
        if hull[src] is None:
            ops.append((_COPY, pair, slot, src, dst, lo, hi))
        else:
            inner_lo, inner_hi = hull[src]
            if (lo, hi) != (inner_lo, inner_hi):
                wide = take(hi - lo + 1)
                ops.append((_WIDEN, inner_lo - lo, hi - inner_hi, src, wide, lo, hi))
                idle.append(wide)
                src = wide
            ops.append((_APPLY, pair, slot, src, dst, lo, hi))
        hull[dst] = lo, hi
        return dst

    def release(depth):
        idle.append(transports[depth])
        transports[depth] = None

    transports, diffs = [0], [[]]
    for (d, slot, pair, word, transport, last, braid, up_slot, up_pair, top_pair,
         base_dead, up_dead, dead) in zip(*(column.tolist() for column in walk)):
        while len(transports) > d:
            idle.extend(diffs.pop())
            if transports[-1] is not None:
                idle.append(transports[-1])
            del transports[-1]
        moved = [apply(slot, pair, diff) for diff in diffs[-1]]
        if last:
            idle.extend(diffs[d - 1])
            diffs[d - 1] = []
        transports.append(apply(slot, pair, transports[-1]) if transport else None)
        if up_dead:
            release(d - 1)
        if braid:
            # The flipped braid (b, a, b) swaps the pairs of (a, b, a) in reverse order.
            flipped = apply(up_slot, pair, transports[d - 3])
            if base_dead:
                release(d - 3)
            for step in ((slot, up_pair), (up_slot, top_pair)):
                src, flipped = flipped, apply(*step, flipped)
                idle.append(src)
            ops.append((_SUBTRACT, 0, 0, transports[d], flipped, *hull[flipped]))
            moved.append(flipped)
        if dead:
            release(d)
        if word >= 0:
            ops.extend((_MAX, 0, 0, diff, diff, *hull[diff]) for diff in moved)
        diffs.append(moved)
    return _frozen(ops, np.int16).reshape(-1, 7), tuple(widths)


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


def _check_state_inputs(bc, momenta, u_init):
    bc = require_separated(bc, "coefficient propagation")
    momenta = tuple(float(k) for k in momenta)
    if len(momenta) < 2:
        raise ValueError(f"need at least two momenta, got {len(momenta)}")
    if not all(np.isfinite(momenta)):
        raise ValueError("momenta must be finite")
    dims = SpinDims(bc.n, len(momenta))
    if dims.N > 9:
        # The exact count is printed while it is short (20! has 19 digits).
        words = math.factorial(dims.N) if dims.N <= 20 else f"{dims.N}!"
        raise ValueError(f"planning N={dims.N} particles builds a trie of {words} "
                         f"words; at most 9 particles ({math.factorial(9)} words) are planned")
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


class _Schedule(NamedTuple):
    """The walk program of N particles for spin dimension n, with every view resolved.

    arena is the number of complex entries of the walk's one arena, which
    holds the buffers' blocks end to end, buffer b of width k in n^(2k)
    entries at offset sum over c < b of n^(2 width_c); blocks lists
    (start, stop, shape), a buffer's whole block as a view of the arena's
    entries [start, stop); widens lists the distinct (shape, offset, strides)
    of the widens' strided views of their destinations, in bytes of the
    arena; magnitudes lists the sizes the max-abs ops read.  steps is the
    program's ops as (kind, a, b, c) on indices into these lists and the
    operators (`_walk`).
    """

    arena: int
    blocks: tuple[tuple[int, int, tuple[int, ...]], ...]
    widens: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]
    magnitudes: tuple[int, ...]
    steps: tuple[tuple[int, int, int, int], ...]


@functools.cache
def _schedule(N: int, n: int) -> _Schedule:
    """Resolve the walk program's ops for spin dimension n once: the buffers' offsets
    in the arena, each op's block shapes and a widen's strides depend only on
    (N, n), so a call builds just the views the ops use, once each, and runs
    the steps on them."""
    item = np.dtype(np.complex128).itemsize
    starts = list(itertools.accumulate((n ** (2 * width) for width in _plan(N).buffers), initial=0))
    blocks: dict[tuple[int, int, tuple[int, ...]], int] = {}
    widens: dict[tuple[tuple[int, ...], int, tuple[int, ...]], int] = {}
    magnitudes: dict[int, int] = {}
    steps = []

    def block(buffer, shape=None):
        start, stop = starts[buffer], starts[buffer + 1]
        return blocks.setdefault((start, stop, shape or (stop - start,)), len(blocks))

    for kind, pair, slot, src, dst, lo, hi in _plan(N).ops.tolist():
        k = hi - lo + 1
        size = n ** (2 * k)
        if kind == _APPLY:
            shape = (n ** (slot - lo), n * n, n ** (2 * k - slot + lo - 2))
            steps.append((kind, pair, block(src, shape), block(dst, shape)))
        elif kind == _MAX:
            steps.append((kind, block(src), magnitudes.setdefault(size, len(magnitudes)), 0))
        elif kind == _WIDEN:
            # I_(n^a) (x) R (x) I_(n^b) holds R[i, j] at row (x, i, y), column
            # (x, j, y): a strided view of R's copies, the rest zeros.
            a, b = pair, slot
            inner, side, step = n ** (k - a - b), n ** k, n ** b * item
            view = ((n ** a, n ** b, inner, inner), starts[dst] * item,
                    (inner * step * (side + 1), item * (side + 1), step * side, step))
            steps.append((kind, block(dst), widens.setdefault(view, len(widens)),
                          block(src, (inner, inner))))
        elif kind == _SUBTRACT:
            steps.append((kind, block(src), block(dst), 0))
        else:
            steps.append((kind, pair, block(dst, (n * n, n * n)), 0))
    return _Schedule(arena=starts[-1], blocks=tuple(blocks), widens=tuple(widens),
                     magnitudes=tuple(magnitudes), steps=tuple(steps))


def _walk(N: int, operators: np.ndarray, n: int) -> float:
    """Path consistency: the walk program of N, run on one arena.

    The program (`_program`) replays, depth-first, the trie rows that do
    consistency work: every row with a braid node below it carries its
    transport (the identity at the root), every braid node subtracts its
    flipped braid from its transport in place, and each difference is moved
    down the braid node's subtree one swap at a time, with the max-abs taken
    at every word node; the worst is returned.  Each op runs on its buffers'
    slices of the arena, each slice a buffer's whole n^k x n^k block: a pair
    application is one np.matmul on the
    (n^(j-lo), n^2, rest) views of two blocks, the same n^2 x n^2 products as
    `apply_pair` on the block, and a widen zeroes its block and writes the
    source block on its diagonal.  The full n^N x n^N matrix is
    I (x) block (x) I, so each product sums the same terms per entry as on
    the full matrix, and the max-abs of the block is the full matrix's (to
    a few ulps at odd n, where BLAS rounds trailing columns apart).  Each
    view the steps use is built once per call from `_schedule(N, n)`.
    """
    schedule = _schedule(N, n)
    arena = np.empty(schedule.arena, dtype=np.complex128)
    magnitude = np.empty(max(schedule.magnitudes))
    views = [arena[start:stop].reshape(shape) for start, stop, shape in schedule.blocks]
    copies = [np.ndarray(shape, np.complex128, arena, offset, strides)
              for shape, offset, strides in schedule.widens]
    magnitudes = [magnitude[:size] for size in schedule.magnitudes]
    ys = list(operators)
    worst = 0.0
    for kind, a, b, c in schedule.steps:
        if kind == _APPLY:
            np.matmul(ys[a], views[b], out=views[c])
        elif kind == _MAX:
            worst = max(worst, float(np.abs(views[a], out=magnitudes[b]).max()))
        elif kind == _WIDEN:
            views[a].fill(0.0)
            copies[b][...] = views[c]
        elif kind == _SUBTRACT:
            np.subtract(views[a], views[b], out=views[b])
        else:
            views[b][...] = ys[a]
    return worst


def bethe_coefficients(bc: SeparatedBC, momenta, u_init, statistics) -> BetheState:
    """Propagate the identity-permutation coefficient to all N! permutations.

    Each coefficient is its canonical word applied to u_init.  The trie of
    canonical words is propagated one depth at a time, with one stacked
    product per slot of each depth (`_propagate`).
    """
    bc, momenta, dims, u = _check_state_inputs(bc, momenta, u_init)
    stats = as_statistics(statistics)
    # The output is allocated before the plan, so a request too large for
    # memory fails at once, naming the (N!, n^N) array.
    coefficients = np.empty((math.factorial(dims.N), dims.total_dim), dtype=np.complex128)
    coefficients[0] = u
    operators = _exchange_operators(bc, momenta)
    return BetheState(dims=dims, momenta=momenta, statistics=stats,
                      array=_propagate(dims.N, operators, coefficients, dims.n))


def path_consistency(bc: SeparatedBC, momenta, u_init, statistics) -> float:
    """Worst-case dependence of the propagation on the reduced word chosen.

    For every permutation whose canonical reduced word contains a braid-move
    site (j, j+1, j) <-> (j+1, j, j+1), both words are applied to the
    coefficient transport operators from the identity and the entrywise
    max-abs discrepancy is taken.  The discrepancy is measured on transports
    (every initial coefficient at once), so it vanishes exactly when the
    Yang-Baxter identity holds on the visited relative momenta; u_init is
    validated but the returned number does not depend on it.  The walk is the
    buffer program of N (the walk program), run on one arena, with each
    transport and difference held as its block on the slots its word touched
    (`_walk`).  Like the coefficient pass, it refuses N >= 10 before planning.
    """
    bc, momenta, dims, _ = _check_state_inputs(bc, momenta, u_init)
    as_statistics(statistics)
    if dims.N < 3:
        raise ValueError(f"path consistency needs at least three particles, got N={dims.N}")
    return _walk(dims.N, _exchange_operators(bc, momenta), dims.n)


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

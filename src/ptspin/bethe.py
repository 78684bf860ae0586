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
of the N tensor slots, so `linalg.apply_pair` applies it as one n^2 x n^2
product on the (n^(j-1), n^2, rest) view of a coefficient vector or transport
matrix, and Y is computed once per momentum pair.  The canonical words of N
particles form a trie (27, 155, 1045, 8029 nodes for N = 4, 5, 6, 7; from
N = 4 on, some interior nodes are not words).  Its shape, the slot labels of
every edge and its braid sites depend only on N, so they are planned once per
N, and each call walks the trie depth-first once, holding only the arrays of
the current path.  `bethe_coefficients` makes one pair application per node.
`path_consistency` reuses the walk's transport as the canonical braid of each
braid site, applies only the flipped braid, and moves the difference down the
site's subtree, which every word through the site shares, one swap at a time.
Both produce the same floating-point operations as replaying each word alone.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .boundary import SeparatedBC, require_separated
from .linalg import (SingularMatrixError, SpinDims, Statistics, apply_pair, as_statistics,
                     max_abs, permutation_sign, permute_slots)
from .scattering import y_separated

__all__ = [
    "BetheState",
    "SignPattern",
    "bethe_coefficients",
    "path_consistency",
    "evaluate_wavefunction",
    "boundary_jump_residual",
]

COINCIDENCE_RTOL = 1e-13


@dataclass(frozen=True)
class SignPattern:
    """Choice of sign epsilon_{kl} = +/-1 for every unordered particle pair.

    Keys are 1-based pairs (k, l) with k > l; lookups accept either order.
    """

    n_particles: int
    eps: Mapping[tuple[int, int], int]

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError(f"need at least two particles, got {self.n_particles}")
        wanted = {(k, l) for k in range(2, self.n_particles + 1) for l in range(1, k)}
        normalized: dict[tuple[int, int], int] = {}
        for key, value in dict(self.eps).items():
            i, j = int(key[0]), int(key[1])
            pair = (max(i, j), min(i, j))
            if pair not in wanted:
                raise ValueError(f"pair {key} is not a valid particle pair for N={self.n_particles}")
            if pair in normalized:
                raise ValueError(f"pair {key} appears twice")
            sign = int(value)
            if sign != value or sign not in (-1, 1):
                raise ValueError(f"sign for pair {key} must be +1 or -1, got {value!r}")
            normalized[pair] = sign
        missing = wanted - set(normalized)
        if missing:
            raise ValueError(f"missing sign for pairs {sorted(missing)}")
        object.__setattr__(self, "eps", normalized)

    @classmethod
    def uniform(cls, n_particles: int, sign: int = 1) -> "SignPattern":
        eps = {(k, l): sign for k in range(2, n_particles + 1) for l in range(1, k)}
        return cls(n_particles=n_particles, eps=eps)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs (k, l), k > l, in ascending order."""
        return tuple(sorted(self.eps))

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        if i == j:
            raise KeyError(f"pair indices must differ, got {pair}")
        return self.eps[(max(i, j), min(i, j))]

    def values(self) -> tuple[int, ...]:
        """Signs listed in the order of `pairs`."""
        return tuple(self.eps[p] for p in self.pairs)


@dataclass(frozen=True)
class BetheState:
    """Propagated spin coefficients for all momentum assignments.

    coefficients maps each permutation (a 1-based tuple listing which momentum
    sits at each coordinate slot) to its coefficient vector; words records the
    adjacent-swap sequence used to reach it from the identity.
    """

    dims: SpinDims
    momenta: tuple[float, ...]
    coefficients: Mapping[tuple[int, ...], np.ndarray]
    words: Mapping[tuple[int, ...], tuple[int, ...]]
    statistics: Statistics
    # The plane-wave sum's operands, built once: the momentum at each slot of
    # every permutation (N!, N) and the coefficients stacked (N!, n^N).
    _slot_momenta: np.ndarray = field(init=False, repr=False, compare=False)
    _coefficient_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = np.array(list(self.coefficients), dtype=np.intp) - 1
        object.__setattr__(self, "_slot_momenta",
                           np.asarray(self.momenta, dtype=np.longdouble)[slots])
        object.__setattr__(self, "_coefficient_array",
                           np.array(list(self.coefficients.values()), dtype=np.complex128))


def _canonical_word(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced word of adjacent swaps taking the identity to perm.

    Bubble sort perm back to the identity (largest displaced labels drift
    rightward), then reverse the recorded swap slots.  The word length equals
    the inversion count, so the word is reduced.
    """
    seq = list(perm)
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                word.append(j + 1)
                changed = True
    return tuple(reversed(word))


class _TrieNode(NamedTuple):
    """One node of the canonical-word trie: a word prefix, one swap past its parent.

    Rows are listed depth-first, so a node's parent is the nearest earlier row
    of depth `depth - 1`.  step is the slot j of the swap and the labels
    (alpha, beta) at slots j, j+1 before it; perm is the permutation if the
    prefix is a canonical word.  If the last three swaps are a braid (a, b, a)
    with |a - b| = 1, braid holds the steps of (b, a, b) from depth - 3.
    transport says a braid node lies in the subtree (self included), last
    that the node is its parent's last child, and free lists the depths on
    the path whose transports are dead after this node.
    """

    depth: int
    step: tuple[int, tuple[int, int]]
    perm: tuple[int, ...] | None
    braid: tuple[tuple[int, tuple[int, int]], ...] | None
    transport: bool
    last: bool
    free: tuple[int, ...]


class _WordTree(NamedTuple):
    """The trie's rows (root excluded), its words and their momentum pairs.

    words lists (perm, word) in itertools.permutations order; pairs lists the
    momentum pairs in the order the words first use them.
    """

    rows: tuple[_TrieNode, ...]
    words: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    pairs: tuple[tuple[int, int], ...]


def _swap(labels: tuple[int, ...], slot: int) -> tuple[tuple[int, tuple[int, int]], tuple[int, ...]]:
    """The step (slot, (alpha, beta)) of one swap at slot, and the labels after it."""
    alpha, beta = labels[slot - 1], labels[slot]
    return (slot, (alpha, beta)), labels[:slot - 1] + (beta, alpha) + labels[slot + 1:]


@functools.cache
def _word_tree(N: int) -> _WordTree:
    """Trie of the canonical words for N particles, with its walk bookkeeping.

    Each node's slot labels come from its parent's by one swap, so no prefix
    is replayed from the identity.  Children are visited lightest subtree
    first, so the arrays a node keeps for its children are released before
    its heaviest subtree is entered.
    """
    words = tuple((perm, _canonical_word(perm))
                  for perm in itertools.permutations(range(1, N + 1)))
    # Nodes by id in creation order, parents first and the root 0: parent,
    # depth, slot labels after the prefix, step (slot, pair) and children by slot.
    parent, depth = [0], [0]
    labels, steps, children = [tuple(range(1, N + 1))], [None], [{}]
    perm_at: dict[int, tuple[int, ...]] = {}
    # A momentum pair is first used where its first node is created.
    pairs: dict[tuple[int, int], None] = {}
    for perm, word in words:
        node = 0
        for slot in word:
            child = children[node].get(slot)
            if child is None:
                child = children[node][slot] = len(parent)
                step, after = _swap(labels[node], slot)
                parent.append(node)
                depth.append(depth[node] + 1)
                labels.append(after)
                steps.append(step)
                children.append({})
                pairs.setdefault(step[1])
            node = child
        perm_at[node] = perm
    weight = [0] * len(parent)
    for node in range(len(parent) - 1, 0, -1):
        weight[parent[node]] += weight[node] + 1
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(sorted(children[node].values(), key=lambda c: (weight[c], steps[c][0]),
                            reverse=True))
    del order[0]

    def braid_base(node: int) -> int | None:
        """The node three levels up if node's last three swaps are a braid, else None."""
        if depth[node] < 3:
            return None
        p1 = parent[node]
        p2 = parent[p1]
        a, b = steps[p2][0], steps[p1][0]
        return parent[p2] if steps[node][0] == a and abs(a - b) == 1 else None

    base = {node: braid_base(node) for node in order}
    # A node's transport is needed where a braid node lies below it.  It is
    # dead after its last use: by a child's transport, by a braid node three
    # levels down, or by the node itself.  A node's differences are dead
    # after its last child.
    transport = set()
    for node in reversed(order):
        if node in transport or base[node] is not None:
            transport.update((node, parent[node]))
    last_child: dict[int, int] = {}
    last_use: dict[int, int] = {}
    for i, node in enumerate(order):
        last_child[parent[node]] = i
        if node in transport:
            last_use[node] = last_use[parent[node]] = i
        if base[node] is not None:
            last_use[base[node]] = i
    free: dict[int, list[int]] = {}
    for node, i in last_use.items():
        free.setdefault(i, []).append(depth[node])
    rows = []
    for i, node in enumerate(order):
        braid = None
        if base[node] is not None:
            a, b = steps[node][0], steps[parent[node]][0]
            seq, braid = labels[base[node]], []
            for slot in (b, a, b):
                step, seq = _swap(seq, slot)
                braid.append(step)
            braid = tuple(braid)
        rows.append(_TrieNode(depth=depth[node], step=steps[node], perm=perm_at.get(node),
                              braid=braid, transport=node in transport,
                              last=last_child[parent[node]] == i,
                              free=tuple(sorted(free.get(i, ())))))
    return _WordTree(rows=tuple(rows), words=words, pairs=tuple(pairs))


def _exchange_operators(bc: SeparatedBC, momenta: tuple[float, ...],
                        pairs: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], np.ndarray]:
    """Y((k_alpha - k_beta)/2) for each momentum pair, built in the order given."""
    operators = {}
    for alpha, beta in pairs:
        k_ab = 0.5 * (momenta[alpha - 1] - momenta[beta - 1])
        try:
            operators[alpha, beta] = y_separated(bc, k_ab)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"momentum pair ({alpha},{beta}) gives a singular exchange "
                f"operator: {exc}",
                role=exc.role,
            ) from None
    return operators


def _check_momenta(momenta) -> tuple[float, ...]:
    momenta = tuple(float(k) for k in momenta)
    if len(momenta) < 2:
        raise ValueError(f"need at least two momenta, got {len(momenta)}")
    if not all(np.isfinite(momenta)):
        raise ValueError("momenta must be finite")
    return momenta


def _check_state_inputs(bc, momenta, u_init):
    require_separated(bc, "coefficient propagation")
    momenta = _check_momenta(momenta)
    dims = SpinDims(bc.n, len(momenta))
    u = np.asarray(u_init, dtype=np.complex128).reshape(-1)
    if u.shape[0] != dims.total_dim:
        raise ValueError(
            f"initial coefficient must have length {dims.total_dim} for "
            f"n={bc.n}, N={dims.N}, got {u.shape[0]}"
        )
    if not np.isfinite(u).all() or max_abs(u) == 0.0:
        raise ValueError("initial coefficient must be finite and non-zero")
    return momenta, dims, u


def _walk(bc: SeparatedBC, momenta: tuple[float, ...], dims: SpinDims,
          u: np.ndarray | None, consistency: bool):
    """One depth-first pass over the canonical-word trie.

    With u, every node applies its swap to its parent's coefficient; the
    coefficients of the word nodes are returned by permutation.  With
    consistency, every node with a braid node below it carries its transport
    (the identity at the root), every braid node starts the difference of its
    two braids, and each difference is moved down the braid node's subtree
    one swap at a time, with the max-abs taken at every word node; the worst
    is returned (else None).  Only arrays on the current path are held, and
    each is dropped after its last use.
    """
    tree = _word_tree(dims.N)
    operators = _exchange_operators(bc, momenta, tree.pairs)

    def apply(step, t):
        slot, pair = step
        return apply_pair(operators[pair], slot, t, dims.n)

    found = {tree.words[0][0]: u}
    vectors, diffs = [u], [()]
    transports = [np.eye(dims.total_dim, dtype=np.complex128) if consistency else None]
    worst = 0.0
    for row in tree.rows:
        d = row.depth
        if u is not None:
            del vectors[d:]
            vectors.append(apply(row.step, vectors[-1]))
            if row.perm:
                found[row.perm] = vectors[-1]
        if not consistency:
            continue
        del transports[d:], diffs[d:]
        moved = [apply(row.step, diff) for diff in diffs[-1]]
        if row.last:
            diffs[d - 1] = ()
        transports.append(apply(row.step, transports[-1]) if row.transport else None)
        if d - 1 in row.free:
            transports[d - 1] = None
        if row.braid:
            flipped = transports[d - 3]
            if d - 3 in row.free:
                transports[d - 3] = None
            for step in row.braid:
                flipped = apply(step, flipped)
            moved.append(transports[d] - flipped)
            del flipped
        if d in row.free:
            transports[d] = None
        if row.perm:
            for diff in moved:
                worst = max(worst, max_abs(diff))
        diffs.append(moved)
    return found, (worst if consistency else None)


def _bethe(bc: SeparatedBC, momenta, u_init, statistics, consistency: bool):
    """The BetheState and, if asked and N >= 3, the path consistency (else None).

    Both come from one walk over the trie, with each exchange operator built once.
    """
    momenta, dims, u = _check_state_inputs(bc, momenta, u_init)
    stats = as_statistics(statistics)
    found, worst = _walk(bc, momenta, dims, u, consistency and dims.N >= 3)
    words = dict(_word_tree(dims.N).words)
    state = BetheState(dims=dims, momenta=momenta,
                       coefficients={perm: found[perm] for perm in words},
                       words=words, statistics=stats)
    return state, worst


def bethe_coefficients(bc: SeparatedBC, momenta, u_init, statistics) -> BetheState:
    """Propagate the identity-permutation coefficient to all N! permutations.

    Each coefficient is its canonical word applied to u_init, with one pair
    application per node of the trie of canonical words.
    """
    return _bethe(bc, momenta, u_init, statistics, consistency=False)[0]


def path_consistency(bc: SeparatedBC, momenta, u_init, statistics) -> float:
    """Worst-case dependence of the propagation on the reduced word chosen.

    For every permutation whose canonical reduced word contains a braid-move
    site (j, j+1, j) <-> (j+1, j, j+1), both words are applied to the
    coefficient transport operators from the identity and the entrywise
    max-abs discrepancy is taken.  The discrepancy is measured on transports
    (every initial coefficient at once), so it vanishes exactly when the
    Yang-Baxter identity holds on the visited relative momenta; u_init is
    validated but the returned number does not depend on it.

    A braid site is a trie node whose last three swaps form a braid.  Its
    canonical braid is the node's own transport; only the flipped braid is
    applied to the transport three levels up.  Both braids leave the same
    slot labels, so every word through the node shares the suffix operators,
    and the difference is moved down the node's subtree once.
    """
    momenta, dims, _ = _check_state_inputs(bc, momenta, u_init)
    as_statistics(statistics)
    if dims.N < 3:
        raise ValueError(f"path consistency needs at least three particles, got N={dims.N}")
    return _walk(bc, momenta, dims, None, True)[1]


def _fundamental_value(state: BetheState, y: np.ndarray, dtype) -> np.ndarray:
    """Plane-wave sum at a point y of the fundamental region, all N! terms at once."""
    phases = np.exp(1j * (state._slot_momenta @ y).astype(dtype))
    return phases @ state._coefficient_array.astype(dtype, copy=False)


def _wavefunction(state: BetheState, x, dtype) -> np.ndarray:
    x = np.asarray(x, dtype=np.longdouble).reshape(-1)
    if x.shape[0] != state.dims.N:
        raise ValueError(f"position must have {state.dims.N} coordinates, got {x.shape[0]}")
    scale = max(1.0, float(np.max(np.abs(x))))
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
    require_separated(bc, "interface check")
    if bc.n != state.dims.n:
        raise ValueError("boundary condition and state have different spin dimensions")
    probe = float(probe)
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

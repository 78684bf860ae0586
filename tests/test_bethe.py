"""Coefficient propagation, wavefunction assembly, and interface defects."""
import collections
import functools
import hashlib
import itertools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from conftest import (dense_complex_coupling, embed_pair, exchange_operator, fresh_y_separated,
                      random_hspin, separated_momenta)
from ptspin import bethe, cli
from ptspin.bethe import (
    _APPLY,
    _ByPerm,
    _COPY,
    _MAX,
    _SUBTRACT,
    _WIDEN,
    _exchange_operators,
    _one_sided_weights,
    _schedule,
    _walk,
    _word_trie,
    bethe_coefficients,
    boundary_jump_residual,
    evaluate_wavefunction,
    path_consistency,
)
from ptspin.boundary import SeparatedBC, delta_type, hspin
from ptspin.linalg import SingularMatrixError, SpinDims, max_abs
from ptspin.scattering import make_y_factory, y_separated, ybe_residual
from ptspin.spectra import SignPattern


def diag_hspin():
    return hspin(a=-1.0, b=-2.0, c=0.0, d=0.0, f=-3.0, g=0.0,
                 e1=0.0, e2=0.0, e3=0.0, e4=0.0)


# -- sign patterns -----------------------------------------------------------

def test_sign_pattern_uniform_layout():
    sp = SignPattern.uniform(3)
    assert sp.pairs == ((2, 1), (3, 1), (3, 2))
    assert sp.values() == (1, 1, 1)
    sp_minus = SignPattern.uniform(3, -1)
    assert sp_minus.values() == (-1, -1, -1)


def test_sign_pattern_lookup_ignores_pair_order():
    sp = SignPattern(3, {(2, 1): 1, (1, 3): -1, (3, 2): 1})
    assert sp[(3, 1)] == -1
    assert sp[(1, 3)] == -1
    assert sp[(2, 1)] == 1
    with pytest.raises(KeyError):
        sp[(2, 2)]


def test_sign_pattern_rejects_malformed_input():
    with pytest.raises(ValueError, match="missing"):
        SignPattern(3, {(2, 1): 1})
    with pytest.raises(ValueError, match="twice"):
        SignPattern(2, {(2, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError):
        SignPattern(2, {(2, 1): 0})
    with pytest.raises(ValueError):
        SignPattern(2, {(2, 1): 1, (3, 1): 1})
    with pytest.raises(ValueError):
        SignPattern(1, {})


# -- canonical words ---------------------------------------------------------

def test_words_are_reduced_and_replay_to_their_permutation():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    u = np.zeros(8, complex)
    u[0] = 1.0
    state = bethe_coefficients(bc, (1.0, 0.2, -0.9), u, "boson")
    assert state.words[(1, 2, 3)] == ()
    assert state.words[(2, 1, 3)] == (1,)
    assert state.words[(3, 2, 1)] == (1, 2, 1)
    for perm, word in state.words.items():
        inversions = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if perm[i] > perm[j]
        )
        assert len(word) == inversions
        seq = [1, 2, 3]
        for slot in word:
            seq[slot - 1], seq[slot] = seq[slot], seq[slot - 1]
        assert tuple(seq) == perm


# -- coefficient propagation -------------------------------------------------

def test_identity_permutation_keeps_initial_coefficient():
    bc = SeparatedBC(2, -np.eye(4))
    u = np.array([1.0, 2.0, 0.5j, -1.0])
    state = bethe_coefficients(bc, (1.0, -1.0), u, "boson")
    assert max_abs(state.coefficients[(1, 2)] - u) == 0.0
    assert state.momenta == (1.0, -1.0)


def test_two_particle_anchor_scalar_coupling():
    """F = -identity at momenta (1, -1): the exchange factor is exactly i."""
    bc = SeparatedBC(2, -np.eye(4))
    u = np.array([1.0, 0.0, 0.0, 0.0], complex)
    state = bethe_coefficients(bc, (1.0, -1.0), u, "boson")
    assert max_abs(state.coefficients[(2, 1)] - 1j * u) <= 1e-15


def test_two_particle_anchor_matches_exchange_operator(rng):
    for _ in range(5):
        bc = random_hspin(rng)
        k1, k2 = separated_momenta(rng, 2)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = bethe_coefficients(bc, (k1, k2), u, "boson")
        expected = fresh_y_separated(bc, 0.5 * (k1 - k2)) @ u
        assert max_abs(state.coefficients[(2, 1)] - expected) <= 1e-14


def test_scalar_coupling_reduces_to_product_of_phases(rng):
    """For F = lam*identity each crossing multiplies by (ik+lam)/(ik-lam)."""
    lam = -1.7
    bc = SeparatedBC(2, lam * np.eye(4))
    momenta = separated_momenta(rng, 3)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = bethe_coefficients(bc, momenta, u, "boson")
    for perm, word in state.words.items():
        seq = [1, 2, 3]
        factor = 1.0 + 0j
        for slot in word:
            alpha, beta = seq[slot - 1], seq[slot]
            k = 0.5 * (momenta[alpha - 1] - momenta[beta - 1])
            factor *= (1j * k + lam) / (1j * k - lam)
            seq[slot - 1], seq[slot] = beta, alpha
        assert max_abs(state.coefficients[perm] - factor * u) <= 1e-12


def test_propagation_input_validation():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    good = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        bethe_coefficients(bc, (1.0, -1.0), np.ones(3), "boson")
    with pytest.raises(ValueError):
        bethe_coefficients(bc, (1.0, -1.0), np.zeros(4), "boson")
    with pytest.raises(ValueError):
        bethe_coefficients(bc, (1.0, -1.0), [np.nan, 0, 0, 0], "boson")
    with pytest.raises(ValueError):
        bethe_coefficients(bc, (1.0,), good, "boson")
    with pytest.raises(ValueError):
        bethe_coefficients(bc, (np.inf, 0.0), good, "boson")
    with pytest.raises(TypeError):
        bethe_coefficients(delta_type(np.eye(4), 2), (1.0, -1.0), good, "boson")


def test_singular_crossing_names_the_momentum_pair():
    bc = hspin(a=0.0, b=0.0, c=1.0, d=-1.0, f=0.0, g=0.0,
               e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(SingularMatrixError, match=r"momentum pair \(1,2\)"):
        bethe_coefficients(bc, (2.0, 0.0), u, "boson")


# -- path consistency --------------------------------------------------------

def test_path_consistency_scalar_coupling(rng):
    bc = SeparatedBC(2, -0.8 * np.eye(4))
    u = np.zeros(8, complex)
    u[0] = 1.0
    assert path_consistency(bc, separated_momenta(rng, 3), u, "boson") <= 1e-12


def test_path_consistency_equals_factorization_residual(rng):
    """Word independence and the factorization identity are the same number:
    for hspin, of Y itself; for a dense complex F, of k -> Y(k).T."""
    u = np.zeros(8, complex)
    u[0] = 1.0
    for _ in range(5):
        bc = random_hspin(rng)
        k1, k2, k3 = separated_momenta(rng, 3)
        pc = path_consistency(bc, (k1, k2, k3), u, "boson")
        yb = ybe_residual(make_y_factory(bc), k1, k2, k3, SpinDims(2, 3))
        assert pc == pytest.approx(yb, rel=1e-10, abs=1e-10)
    for n in (2, 3):
        u = np.zeros(n ** 3, complex)
        u[0] = 1.0
        for statistics in ("boson", "fermion"):
            F = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
            bc = SeparatedBC(n, F)
            ks = separated_momenta(rng, 3)
            pc = path_consistency(bc, ks, u, statistics)
            yb = ybe_residual(lambda k12: y_separated(bc, k12).T, *ks, SpinDims(n, 3))
            assert pc == pytest.approx(yb, rel=1e-10)


def test_path_consistency_needs_three_particles():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        path_consistency(bc, (1.0, -1.0), np.array([1.0, 0, 0, 0]), "boson")


# -- dense reference engine --------------------------------------------------
#
# The slot-local engine in ptspin.bethe replaces this one: every step is a
# dense n^N x n^N product with an operator embedded by Kronecker products, and
# every word is replayed in full from the identity.

def reference_word(perm):
    """Reversed bubble-sort word of adjacent swaps taking the identity to perm."""
    seq = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                word.append(j + 1)
                changed = True
    return tuple(reversed(word))


class ReferenceEngine:
    """Embedded exchange operators keyed by (slot, label pair), replayed densely."""

    def __init__(self, bc, momenta):
        self.bc = bc
        self.momenta = momenta
        self.dims = SpinDims(bc.n, len(momenta))
        self.operators = {}

    def operator(self, slot, alpha, beta):
        key = (slot, alpha, beta)
        if key not in self.operators:
            k = 0.5 * (self.momenta[alpha - 1] - self.momenta[beta - 1])
            self.operators[key] = embed_pair(fresh_y_separated(self.bc, k), slot, self.dims)
        return self.operators[key]

    def replay(self, word, start):
        seq = list(range(1, self.dims.N + 1))
        out = start
        for slot in word:
            alpha, beta = seq[slot - 1], seq[slot]
            out = self.operator(slot, alpha, beta) @ out
            seq[slot - 1], seq[slot] = beta, alpha
        return out

    def path_consistency(self):
        eye = np.eye(self.dims.total_dim, dtype=complex)
        worst = 0.0
        for perm in itertools.permutations(range(1, self.dims.N + 1)):
            word = reference_word(perm)
            for i in range(len(word) - 2):
                a, b, c = word[i:i + 3]
                if a == c and abs(a - b) == 1:
                    flipped = word[:i] + (b, a, b) + word[i + 3:]
                    gap = self.replay(word, eye) - self.replay(flipped, eye)
                    worst = max(worst, max_abs(gap))
        return worst


@pytest.mark.parametrize("stats", ["boson", "fermion"])
@pytest.mark.parametrize("n,N", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5)])
def test_local_engine_matches_dense_reference(rng, n, N, stats):
    bc = random_hspin(rng) if n == 2 else dense_complex_coupling(rng, n)
    momenta = separated_momenta(rng, N)
    u = rng.normal(size=n ** N) + 1j * rng.normal(size=n ** N)
    reference = ReferenceEngine(bc, momenta)
    state = bethe_coefficients(bc, momenta, u, stats)
    assert list(state.words) == list(itertools.permutations(range(1, N + 1)))
    for perm, word in state.words.items():
        assert word == reference_word(perm)
        want = reference.replay(word, u)
        assert max_abs(state.coefficients[perm] - want) <= 1e-13 * max_abs(want)
    want = reference.path_consistency()
    assert abs(path_consistency(bc, momenta, u, stats) - want) <= 1e-12 * want


# -- prefix-memo reference engine --------------------------------------------
#
# The trie walk in ptspin.bethe replaces this per-permutation engine: each
# permutation extends the longest prefix of its word already propagated, and
# each braid site of each word carries the prefix transport, applies both
# braids to it and pushes their difference through the rest of the word.  Both
# engines make the same np.matmul calls for every output, so they agree bit
# for bit.

class PrefixMemoEngine:
    """Slot-local exchange operators keyed by momentum pair, one word at a time."""

    def __init__(self, bc, momenta):
        self.bc = bc
        self.momenta = momenta
        self.n, self.N = bc.n, len(momenta)
        self.operators = {}

    def operator(self, alpha, beta):
        if (alpha, beta) not in self.operators:
            k = 0.5 * (self.momenta[alpha - 1] - self.momenta[beta - 1])
            self.operators[alpha, beta] = fresh_y_separated(self.bc, k)
        return self.operators[alpha, beta]

    def apply_word(self, word, t, labels):
        for slot in word:
            alpha, beta = labels[slot - 1], labels[slot]
            view = t.reshape(self.n ** (slot - 1), self.n * self.n, -1)
            t = np.matmul(self.operator(alpha, beta), view).reshape(t.shape)
            labels[slot - 1], labels[slot] = beta, alpha
        return t

    def coefficients(self, u):
        propagated = {(): (u, tuple(range(1, self.N + 1)))}
        out = {}
        for perm in itertools.permutations(range(1, self.N + 1)):
            word = reference_word(perm)
            m = len(word)
            while word[:m] not in propagated:
                m -= 1
            coeff, labels = propagated[word[:m]]
            labels = list(labels)
            for step in range(m, len(word)):
                coeff = self.apply_word(word[step:step + 1], coeff, labels)
                propagated[word[:step + 1]] = (coeff, tuple(labels))
            out[perm] = coeff
        return out

    def path_consistency(self):
        eye = np.eye(self.n ** self.N, dtype=complex)
        worst = 0.0
        for perm in itertools.permutations(range(1, self.N + 1)):
            word = reference_word(perm)
            prefix, labels, done = eye, list(range(1, self.N + 1)), 0
            for i in range(len(word) - 2):
                a, b, c = word[i:i + 3]
                if a == c and abs(a - b) == 1:
                    prefix = self.apply_word(word[done:i], prefix, labels)
                    done = i
                    suffix_labels = list(labels)
                    canonical = self.apply_word((a, b, a), prefix, suffix_labels)
                    flipped = self.apply_word((b, a, b), prefix, list(labels))
                    diff = self.apply_word(word[i + 3:], canonical - flipped, suffix_labels)
                    worst = max(worst, max_abs(diff))
        return worst


def assert_matches_prefix_memo(rng, bc, N, stats):
    n = bc.n
    momenta = separated_momenta(rng, N)
    u = rng.normal(size=n ** N) + 1j * rng.normal(size=n ** N)
    reference = PrefixMemoEngine(bc, momenta)
    want = reference.coefficients(u)
    state = bethe_coefficients(bc, momenta, u, stats)
    assert list(state.coefficients) == list(want)
    assert all(np.array_equal(state.coefficients[perm], want[perm]) for perm in want)
    assert path_consistency(bc, momenta, u, stats) == reference.path_consistency()


@pytest.mark.parametrize("stats", ["boson", "fermion"])
@pytest.mark.parametrize("n,N", [(1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4),
                                 (3, 5)])
def test_trie_walk_matches_prefix_memo_reference_exactly(rng, n, N, stats):
    bc = random_hspin(rng) if n == 2 else dense_complex_coupling(rng, n)
    assert_matches_prefix_memo(rng, bc, N, stats)


@pytest.mark.parametrize("N", [3, 5])
def test_trie_walk_matches_prefix_memo_reference_on_dirichlet(rng, N):
    assert_matches_prefix_memo(rng, SeparatedBC(2, None), N, "boson")


# -- the plan of the canonical-word trie ------------------------------------

class TrieRow(NamedTuple):
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


def lexicographic_pairs(N):
    """The momentum pairs (alpha, beta), alpha < beta, in lexicographic order:
    the pair a plan's pair id names."""
    return tuple(itertools.combinations(range(1, N + 1), 2))


def planner_rows(N):
    """The walk columns of `_word_trie(N)` read back as one TrieRow per row."""
    *_, walk = _word_trie(N)
    pairs = lexicographic_pairs(N)
    perms = list(itertools.permutations(range(1, N + 1)))
    assert len({len(column) for column in walk}) == 1
    return tuple(
        TrieRow(depth=d, step=(j, pairs[p]), perm=perms[w] if w >= 0 else None,
                braid=((jp, pairs[p]), (j, pairs[pp]), (jp, pairs[pgp])) if braid else None,
                transport=transport, last=last,
                free=tuple(d - k for k, dead in zip((3, 1, 0), deaths) if dead))
        for d, j, p, w, transport, last, braid, jp, pp, pgp, *deaths
        in zip(*(column.tolist() for column in walk)))


@functools.cache
def _plan(N):
    """The plan of N and the trie rows it is built from, as one record under
    their field names: ops as tuples, index the perm -> row mapping and words
    the perm -> word mapping of the BetheState."""
    plan = bethe._plan(N)
    return SimpleNamespace(**plan._asdict() | {"ops": tuple(map(tuple, plan.ops.tolist())),
                                               "index": _ByPerm(N, int),
                                               "words": _ByPerm(N, plan.word)},
                           rows=planner_rows(N))


def plan_digest(N):
    """A digest of every field of the plan of N, arrays as lists, with each
    permutation's row and word looked up by the permutation.  A momentum pair
    is named by its labels (alpha, beta) and a level's node by its word
    prefix, each level's nodes sorted, so the digest names what the plan
    holds, not how its pairs or the nodes of a level are numbered."""
    plan, pairs = _plan(N), lexicographic_pairs(N)
    above, levels = [()], []
    for level in plan.levels:
        nodes = [(above[parent] + (group.slot,), pairs[pair]) for group in level.groups
                 for parent, pair in zip(group.parents.tolist(), group.pairs.tolist())]
        word = dict(zip(level.rows.tolist(), level.words.tolist()))
        levels.append(sorted((prefix, pair, word.get(position, -1))
                             for position, (prefix, pair) in enumerate(nodes)))
        above = [prefix for prefix, _ in nodes]
    ops = [(kind, pairs[pair] if kind in (_APPLY, _COPY) else pair, *rest)
           for kind, pair, *rest in plan.ops]
    fields = (levels, [(perm, plan.index[perm]) for perm in plan.index],
              [(perm, plan.words[perm]) for perm in plan.words],
              plan.slots.tolist(), ops, plan.buffers)
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


# Digests of the same fields as the dict-of-dicts trie planner built them,
# which walked each word down the trie from the root (about 1 s at N = 8),
# taken on the array planner that still matched it pair id for pair id and
# node for node (pairs in order of first use, levels in depth-first order).
DICT_TRIE_DIGESTS = {2: "7f7539ddc8a03a3f", 3: "d04d2b5941908e3c", 4: "0cd5e957c31e3af1",
                     5: "9845834d86feb1e6", 6: "988290a119f5ae2c", 7: "729eb8d45a63a33f",
                     8: "c4c46efffe48fc48"}


@pytest.mark.parametrize("N", range(2, 9))
def test_array_planner_equals_the_dict_trie_planner(N):
    """Both plans are the dict-trie planner's, field for field and array for
    array, up to the numbering of pairs and of the nodes within a level."""
    assert plan_digest(N) == DICT_TRIE_DIGESTS[N]


def test_each_trie_is_numbered_once_per_N(monkeypatch, rng, capsys):
    """The coefficient pass, the walk, the wavefunction and `ptspin bethe` all
    read the one plan of N, so each N's trie is numbered once per process."""
    built = []

    def counted(N):
        built.append(N)
        return _word_trie(N)

    monkeypatch.setattr(bethe, "_plan", functools.cache(bethe._plan.__wrapped__))
    monkeypatch.setattr(bethe, "_word_trie", counted)
    bc = random_hspin(rng)
    u = np.ones(2 ** 5, complex)
    path_consistency(bc, separated_momenta(rng, 5), u, "boson")
    state = bethe_coefficients(bc, separated_momenta(rng, 5), u, "boson")
    evaluate_wavefunction(state, np.arange(5.0), "boson")
    assert built == [5] and state.words[(2, 1, 3, 4, 5)] == (1,)
    state = bethe_coefficients(bc, separated_momenta(rng, 4), u[:16], "boson")
    evaluate_wavefunction(state, np.arange(4.0), "boson")
    path_consistency(bc, separated_momenta(rng, 4), u[:16], "boson")
    assert built == [5, 4]
    fixture = Path(__file__).parent / "fixtures" / "hspin_diag.json"
    for _ in range(2):
        assert cli.main(["bethe", str(fixture), "--k", "1.0,0.3,-0.7"]) == 0
    assert '"perm":[3,2,1],"word":[1,2,1]' in capsys.readouterr().out
    assert built == [5, 4, 3]


def test_ten_particles_are_refused_before_planning(monkeypatch, rng):
    """The trie of 10 particles (3628800 words) is refused before it is built,
    by the coefficient pass and the walk alike, and before the coefficient
    pass allocates its (N!, n^N) array (55.4 GiB at n = 2).  Up to N = 9 that
    array is allocated before planning, so a request too large for memory
    (1.4 TiB at n = 4) names it at once."""
    def unreachable(N):
        raise AssertionError(f"the trie of N={N} was reached")

    monkeypatch.setattr(bethe, "_word_trie", unreachable)
    bc = SeparatedBC(2, -np.eye(4))
    for run in (path_consistency, bethe_coefficients):
        with pytest.raises(ValueError, match="N=10 particles builds a trie of 3628800 words"):
            run(bc, [0.3 * i for i in range(10)], np.ones(2 ** 10), "boson")
    with pytest.raises(MemoryError, match="Unable to allocate 1.38 TiB"):
        bethe_coefficients(SeparatedBC(4, -np.eye(16)), [0.3 * i for i in range(9)],
                           np.ones(4 ** 9), "boson")


def test_the_refusal_of_many_particles_names_the_cap_not_a_huge_count():
    """At n = 1 the initial coefficient has length 1 for any N, so 2000
    momenta reach the refusal; 2000! has 5736 digits, beyond what int -> str
    converts, and the refusal names the 9-particle cap instead."""
    bc = SeparatedBC(1, np.array([[-1.0]]))
    for run in (path_consistency, bethe_coefficients):
        with pytest.raises(ValueError, match="2000! words; at most 9 particles"):
            run(bc, [0.001 * i for i in range(2000)], np.ones(1), "boson")


# -- full-matrix reference walk ---------------------------------------------
#
# The walk in ptspin.bethe holds each array as its n^k x n^k block on the hull
# of the slots its word touched.  This is the walk it replaces: the same
# depth-first replay of plan.rows, with every transport and difference held
# as a full n^N x n^N matrix and buffer 0 holding the identity.

def full_matrix_program(rows, N):
    """Ops (kind, pair, slot, src, dst) on numbered n^N x n^N buffers, and their count."""
    pair_id = {pair: i for i, pair in enumerate(lexicographic_pairs(N))}
    idle, ops, count = [], [], 1

    def take():
        nonlocal count
        if idle:
            return idle.pop()
        count += 1
        return count - 1

    def apply(step, src):
        dst = take()
        ops.append(("apply", pair_id[step[1]], step[0], src, dst))
        return dst

    def release(depth):
        idle.append(transports[depth])
        transports[depth] = None

    transports, diffs = [0], [[]]
    for row in rows:
        d = row.depth
        while len(transports) > d:
            idle.extend(diffs.pop())
            if transports[-1] is not None:
                idle.append(transports[-1])
            del transports[-1]
        moved = [apply(row.step, diff) for diff in diffs[-1]]
        if row.last:
            idle.extend(diffs[d - 1])
            diffs[d - 1] = []
        transports.append(apply(row.step, transports[-1]) if row.transport else None)
        if d - 1 in row.free:
            release(d - 1)
        if row.braid:
            flipped = apply(row.braid[0], transports[d - 3])
            if d - 3 in row.free:
                release(d - 3)
            for step in row.braid[1:]:
                src, flipped = flipped, apply(step, flipped)
                idle.append(src)
            ops.append(("subtract", 0, 0, transports[d], flipped))
            moved.append(flipped)
        if d in row.free:
            release(d)
        if row.perm:
            ops.extend(("max", 0, 0, diff, 0) for diff in moved)
        diffs.append(moved)
    return ops, count


def full_matrix_walk(N, operators, n):
    """Path consistency with every array a full n^N x n^N matrix."""
    plan = _plan(N)
    ops, count = full_matrix_program(plan.rows, N)
    size = n ** N
    workspace = np.empty((count, size, size), dtype=np.complex128)
    views = [[buffer.reshape(n ** (slot - 1), n * n, -1) for slot in range(1, N)]
             for buffer in workspace]
    workspace[0] = np.eye(size)
    worst = 0.0
    for kind, pair, slot, src, dst in ops:
        if kind == "apply":
            np.matmul(operators[pair], views[src][slot - 1], out=views[dst][slot - 1])
        elif kind == "subtract":
            np.subtract(workspace[src], workspace[dst], out=workspace[dst])
        else:
            worst = max(worst, max_abs(workspace[src]))
    return worst


# The two walks agree to this many times max(1, path consistency) at n = 3;
# the largest gap seen over 720 draws at N = 3..5 was 5.5e-16 (2.5 eps).
WALK_RTOL = 16 * np.finfo(float).eps


def walk_couplings(rng, n):
    """A dense complex, an hspin (n = 2), a scalar lambda*I and a Dirichlet coupling."""
    couplings = {"dense": dense_complex_coupling(rng, n),
                 "scalar": SeparatedBC(n, rng.uniform(-2.0, 2.0) * np.eye(n * n)),
                 "dirichlet": SeparatedBC(n, None)}
    if n == 2:
        couplings["hspin"] = random_hspin(rng)
    return couplings


@pytest.mark.parametrize("n,N", [(1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7)])
def test_block_walk_equals_the_full_matrix_walk(rng, n, N):
    """Each block holds the full matrix's entries on its hull, and the full
    matrix is I (x) block (x) I, exact zeros elsewhere, so every product sums
    the same terms and the max-abs is the same number.  At n = 2 every
    product's row length is a multiple of 4, so BLAS rounds each entry the
    same way in the block and in the full matrix; n = 1 runs the same 1 x 1
    products."""
    for name, bc in walk_couplings(rng, n).items():
        operators = _exchange_operators(bc, separated_momenta(rng, N))
        assert _walk(N, operators, n) == full_matrix_walk(N, operators, n), name


@pytest.mark.parametrize("N", [3, 4, 5])
def test_block_walk_matches_the_full_matrix_walk_at_odd_spin_dimension(rng, N):
    """At n = 3 a product's row length is a power of 3, and OpenBLAS rounds
    the last (length mod 4) columns of a product by other kernels than the
    rest.  Those columns fall on different entries in a block and in the full
    matrix, whose last Kronecker copy already differs from the others in a
    few ulps; the two walks agree to rounding of the transports' scale."""
    n = 3
    for _ in range(4):
        for name, bc in walk_couplings(rng, n).items():
            operators = _exchange_operators(bc, separated_momenta(rng, N))
            got, want = _walk(N, operators, n), full_matrix_walk(N, operators, n)
            assert abs(got - want) <= WALK_RTOL * max(1.0, want), (name, got, want)


def label_steps(word, N):
    """(slot, (alpha, beta)) of each swap of word replayed from the identity."""
    seq, steps = list(range(1, N + 1)), []
    for slot in word:
        steps.append((slot, (seq[slot - 1], seq[slot])))
        seq[slot - 1], seq[slot] = seq[slot], seq[slot - 1]
    return steps, tuple(seq)


def is_braid(prefix):
    return len(prefix) >= 3 and prefix[-3] == prefix[-1] and abs(prefix[-1] - prefix[-2]) == 1


def reference_word_tree(N):
    """The trie planner that replays every prefix from the identity.

    Returns every trie row depth-first, the (perm, word) pairs in
    itertools.permutations order and the momentum pairs the words swap,
    sorted.  `_word_trie` numbers the trie with array operations instead;
    its rows must be the consistency rows of this planner, row for row.
    """
    words = tuple((perm, reference_word(perm)) for perm in itertools.permutations(range(1, N + 1)))
    pairs, perm_at = set(), {}
    for perm, word in words:
        for _, pair in label_steps(word, N)[0]:
            pairs.add(pair)
        for m in range(len(word)):
            perm_at.setdefault(word[:m], None)
        perm_at[word] = perm
    children = {}
    for prefix in perm_at:
        if prefix:
            children.setdefault(prefix[:-1], []).append(prefix)
    weight = collections.Counter(prefix[:m] for prefix in perm_at for m in range(len(prefix)))
    order, stack = [], [()]
    while stack:
        prefix = stack.pop()
        order.append(prefix)
        stack.extend(sorted(children.get(prefix, ()), key=lambda c: (weight[c], c[-1]),
                            reverse=True))
    del order[0]
    transport = {b[:m] for b in order if is_braid(b) for m in range(len(b) + 1)}
    last_child, last_use = {}, {}
    for i, prefix in enumerate(order):
        last_child[prefix[:-1]] = i
        if prefix in transport:
            last_use[prefix] = last_use[prefix[:-1]] = i
        if is_braid(prefix):
            last_use[prefix[:-3]] = i
    free = {}
    for prefix, i in last_use.items():
        free.setdefault(i, []).append(len(prefix))
    rows = []
    for i, prefix in enumerate(order):
        braid = None
        if is_braid(prefix):
            a, b = prefix[-2:]
            braid = tuple(label_steps(prefix[:-3] + (a, b, a), N)[0][-3:])
        rows.append(TrieRow(depth=len(prefix), step=label_steps(prefix, N)[0][-1],
                            perm=perm_at[prefix], braid=braid, transport=prefix in transport,
                            last=last_child[prefix[:-1]] == i,
                            free=tuple(sorted(free.get(i, ())))))
    return tuple(rows), words, tuple(sorted(pairs))


def row_prefixes(rows):
    """The word prefix of each row of a depth-first listing, whose parent is
    the last row one level up."""
    path, prefixes = [()], []
    for row in rows:
        assert 1 <= row.depth <= len(path)
        del path[row.depth:]
        path.append(path[-1] + (row.step[0],))
        prefixes.append(path[-1])
    return prefixes


@pytest.mark.parametrize("N", range(2, 9))
def test_word_tree_equals_the_replaying_planner(N):
    """The planner's walk columns, read back as rows, are the reference rows
    that carry a transport, start a braid difference or have a braid node
    above them (they inherit one).  The words swap every pair alpha < beta
    and no other, so the lexicographic pairs name each pair id once."""
    rows, words, pairs = reference_word_tree(N)
    consistency = tuple(row for row, prefix in zip(rows, row_prefixes(rows))
                        if row.transport or row.braid
                        or any(is_braid(prefix[:m]) for m in range(3, len(prefix))))
    plan = _plan(N)
    assert plan.rows == consistency
    assert list(plan.words.items()) == list(words)
    assert pairs == lexicographic_pairs(N)


@pytest.mark.parametrize("N", range(2, 8))
def test_word_tree_holds_every_canonical_word_once(N):
    plan = _plan(N)
    perms = list(itertools.permutations(range(1, N + 1)))
    assert list(plan.index.items()) == [(perm, i) for i, perm in enumerate(perms)]
    assert list(plan.words) == perms
    assert all(plan.words[perm] == reference_word(perm) for perm in perms)
    assert plan.slots.tolist() == [[p - 1 for p in perm] for perm in perms]
    prefixes = row_prefixes(plan.rows)
    for row, prefix in zip(plan.rows, prefixes):
        steps, seq = label_steps(prefix, N)
        assert row.step == steps[-1]
        if row.perm is not None:
            assert row.perm == seq and reference_word(seq) == prefix
        else:
            assert reference_word(seq) != prefix
        if is_braid(prefix):
            a, b = prefix[-2:]
            assert row.braid == tuple(label_steps(prefix[:-3] + (a, b, a), N)[0][-3:])
        else:
            assert row.braid is None
    # Each row once, and the path to every row is listed: the walk may skip
    # a subtree but never a parent.
    assert len(set(prefixes)) == len(prefixes)
    assert all(prefix[:m] in set(prefixes) for prefix in prefixes for m in range(1, len(prefix)))


def hull(word):
    """The 1-based slots (lo, hi) of the block a word's product acts on, or
    None for the empty word (the identity)."""
    return (min(word), max(word) + 1) if word else None


def widens(word, slot):
    """Whether a swap at slot after word leaves the hull of word's product."""
    return bool(word) and not hull(word)[0] <= slot < hull(word)[1]


def width(word):
    """The number of slots in the hull of word's product: 0 for the identity."""
    return hull(word)[1] - hull(word)[0] + 1 if word else 0


def live_maximum(rows):
    """Most arrays of each block width a depth-first walk over rows holds at once.

    The walk holds the transports and differences of the current path.  Each
    product is allocated while its source is held, and a product whose swap
    leaves the hull of its source's word first widens the source into one
    more array of the product's width, dropped once the product is made.
    The braid difference is taken in place of the flipped braid, and the
    rows' free and last fields drop each array after its last use.  Arrays
    are tracked by their words: a transport by its prefix, a difference by
    the word it was moved along; the identity is the root transport, of
    width 0.
    """
    prefixes = row_prefixes(rows)
    transports, diffs = [()], [[]]
    held, most = collections.Counter({0: 1}), collections.Counter({0: 1})

    def make(word, slot, *also):
        """Record the arrays held while word's product with slot is made:
        the product, the widen's scratch if any, and the arrays of also."""
        nonlocal most
        new = [width(word + (slot,))] * (1 + widens(word, slot))
        most |= held + collections.Counter(new + [width(other) for other in also])
        return word + (slot,)

    def drop(words):
        held.subtract(width(word) for word in words if word is not None)

    for row, prefix in zip(rows, prefixes):
        d, slot = row.depth, row.step[0]
        drop(transports[d:])
        drop(itertools.chain.from_iterable(diffs[d:]))
        del transports[d:], diffs[d:]
        moved = []
        for word in diffs[-1]:
            moved.append(make(word, slot))
            held[width(moved[-1])] += 1
        if row.last:
            drop(diffs[-1])
            diffs[-1] = []
        transports.append(prefix if row.transport else None)
        if row.transport:
            make(prefix[:-1], slot)
            held[width(prefix)] += 1
        if d - 1 in row.free:
            drop(transports[d - 1:d])
            transports[d - 1] = None
        if row.braid:
            a, b = prefix[-2:]
            flipped = make(prefix[:-3], b)
            if d - 3 in row.free:
                drop(transports[d - 3:d - 2])
                transports[d - 3] = None
            for step in (a, b):
                flipped = make(flipped, step, flipped)
            held[width(prefix)] += 1
            moved.append(prefix)
        if d in row.free:
            drop(transports[d:d + 1])
            transports[d] = None
        diffs.append(moved)
    return +most


def run_on_labels(plan, N):
    """Run plan.ops on labels in place of arrays; return the max ops' (word, braid site).

    A buffer holds ("T", word) for a transport along word, ("D", site, word)
    for the braid difference of site moved along word, or ("W", word) for a
    transport or difference along word widened for the next product alone.
    Buffer 0 holds the identity, the root transport: a block of width 0,
    which no op writes.  Each op checks the labels it reads, so an op that
    overwrote a buffer still to be read would leave a later op reading the
    wrong label.  Each op's block must be the hull of the slots its buffer's
    word touched, and a widen must come exactly before a product whose swap
    leaves its source's hull.
    """
    assert plan.buffers[0] == 0
    pairs = lexicographic_pairs(N)
    content = {0: ("T", ())}
    maxed = []
    for kind, pair, slot, src, dst, lo, hi in plan.ops:
        assert hi - lo >= 1 and dst != 0
        if kind == _WIDEN:
            *head, word = content[src]
            assert head[0] in "TD" and word
            assert (pair, slot) == (hull(word)[0] - lo, hi - hull(word)[1]) != (0, 0)
            content[dst] = ("W", content[src])
        elif kind in (_APPLY, _COPY):
            assert src != dst
            widened = content[src][0] == "W"
            source = content[src][1] if widened else content[src]
            *head, word = source
            assert (kind == _COPY) == (source == ("T", ()))
            assert widened == widens(word, slot)
            word += (slot,)
            assert label_steps(word, N)[0][-1] == (slot, pairs[pair])
            assert (lo, hi) == hull(word)
            content[dst] = (*head, word)
            if widened:
                content[src] = ("dead",)
        elif kind == _SUBTRACT:
            (canonical, site), (flipped, word) = content[src], content[dst]
            assert canonical == flipped == "T" and is_braid(site)
            assert word == site[:-3] + (site[-2], site[-1], site[-2])
            assert (lo, hi) == hull(site) == hull(word)
            content[dst] = ("D", site, site)
        else:
            assert kind == _MAX and src == dst
            what, site, word = content[src]
            assert what == "D" and (lo, hi) == hull(word)
            maxed.append((word, site))
    return maxed


@pytest.mark.parametrize("N", range(3, 8))
def test_walk_program_reuses_buffers_within_the_live_maximum(N):
    """The program needs no more buffers of each block width than the walk
    holds arrays of that width, gives every op buffers of exactly its block's
    width, computes every braid difference of every word, and takes each one
    max-abs once."""
    plan = _plan(N)
    assert collections.Counter(plan.buffers) == live_maximum(plan.rows)
    assert {op[3] for op in plan.ops} | {op[4] for op in plan.ops} == set(range(len(plan.buffers)))
    for kind, a, b, src, dst, lo, hi in plan.ops:
        # A copy's source is the identity; a widen's is its block before widening.
        k = hi - lo + 1
        source = {_COPY: 0, _WIDEN: k - a - b}.get(kind, k)
        assert (plan.buffers[src], plan.buffers[dst]) == (source, k)
    want = [(word, word[:m]) for word in map(reference_word, itertools.permutations(range(1, N + 1)))
            for m in range(3, len(word) + 1) if is_braid(word[:m])]
    assert collections.Counter(run_on_labels(plan, N)) == collections.Counter(want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", range(3, 8))
def test_walk_arena_gives_each_buffer_its_own_slice(N, n):
    """Every block view of a buffer is one slice of the arena, exactly
    n^(2 width) long and disjoint from every other buffer's, and the last
    byte each widen's strided view can reach lies inside its own buffer's
    slice.  A slice too short would overwrite its neighbour, which the label
    check cannot see."""
    plan, schedule = _plan(N), _schedule(N, n)
    item = np.dtype(np.complex128).itemsize
    slices = {}
    for (kind, _, _, src, dst, _, _), step in zip(plan.ops, schedule.steps, strict=True):
        assert step[0] == kind
        uses = {_COPY: [(dst, step[2])], _APPLY: [(src, step[2]), (dst, step[3])],
                _WIDEN: [(dst, step[1]), (src, step[3])],
                _SUBTRACT: [(src, step[1]), (dst, step[2])], _MAX: [(src, step[1])]}[kind]
        for buffer, index in uses:
            start, stop, shape = schedule.blocks[index]
            assert stop - start == math.prod(shape) == n ** (2 * plan.buffers[buffer])
            assert slices.setdefault(buffer, (start, stop)) == (start, stop)
        if kind == _WIDEN:
            shape, offset, strides = schedule.widens[step[2]]
            start, stop = slices[dst]
            last = offset + sum((size - 1) * stride for size, stride in zip(shape, strides))
            assert start * item <= offset and last + item <= stop * item
    ordered = sorted(slices.values())
    assert all(stop <= start for (_, stop), (start, _) in zip(ordered, ordered[1:]))
    assert 0 <= ordered[0][0] and ordered[-1][1] <= schedule.arena


@pytest.mark.parametrize("N", range(3, 8))
def test_walk_program_works_on_the_hulls_of_the_touched_slots(N):
    """Every block is the hull of its word (run_on_labels checks each op), a
    widen precedes exactly the products that leave their source's hull, and
    a product on the identity is a copy: the transports of depth 1 and the
    flipped braids of the braid nodes of depth 3."""
    plan = _plan(N)
    run_on_labels(plan, N)
    kinds = collections.Counter(op[0] for op in plan.ops)
    from_identity = [row for row in plan.rows if (row.depth, row.transport) == (1, True)
                     or (row.depth, bool(row.braid)) == (3, True)]
    assert kinds[_COPY] == len(from_identity)
    assert 0 < kinds[_WIDEN] < kinds[_APPLY]
    top = max(hi - lo + 1 for *_, lo, hi in plan.ops)
    assert top == N and min(hi - lo + 1 for *_, lo, hi in plan.ops) == 2


@pytest.mark.parametrize("N", range(2, 8))
def test_level_plan_holds_every_trie_node_once_at_its_depth(N):
    plan, pairs = _plan(N), lexicographic_pairs(N)
    perms = list(itertools.permutations(range(1, N + 1)))
    nodes = {word[:m] for word in map(reference_word, perms) for m in range(1, len(word) + 1)}
    above, filled = [()], [0]
    for depth, level in enumerate(plan.levels, start=1):
        prefixes, start = [], 0
        for group in level.groups:
            assert group.stop - start == len(group.parents) == len(group.pairs) > 0
            for parent, pair in zip(group.parents, group.pairs):
                prefix = above[parent] + (group.slot,)
                assert label_steps(prefix, N)[0][-1] == (group.slot, pairs[pair])
                prefixes.append(prefix)
            start = group.stop
        assert sorted(prefixes) == sorted(p for p in nodes if len(p) == depth)
        # One group per slot, in slot order.
        slots = [group.slot for group in level.groups]
        assert slots == sorted(set(slots))
        words = {pos for pos, prefix in enumerate(prefixes)
                 if reference_word(label_steps(prefix, N)[1]) == prefix}
        assert sorted(level.rows) == sorted(words)
        for pos, word in zip(level.rows, level.words):
            assert reference_word(perms[word]) == prefixes[pos]
        filled.extend(level.words)
        above = prefixes
    assert sorted(filled) == list(range(len(perms)))


def test_stacked_exchange_operators_equal_one_call_per_pair(rng):
    """Row i of the stack is the operator of the i-th pair alpha < beta in
    lexicographic order, the bytes of its own solve."""
    for bc, N in itertools.product([dense_complex_coupling(rng, n) for n in (1, 2, 3)]
                                   + [SeparatedBC(2, None)], (2, 3, 5)):
        momenta = separated_momenta(rng, N)
        pairs = lexicographic_pairs(N)
        stack = _exchange_operators(bc, momenta)
        assert stack.shape == (len(pairs), bc.n ** 2, bc.n ** 2)
        for y, (alpha, beta) in zip(stack, pairs, strict=True):
            want = fresh_y_separated(bc, 0.5 * (momenta[alpha - 1] - momenta[beta - 1]))
            assert y.tobytes() == want.tobytes()


def jordan_coupling():
    """F with a 2x2 Jordan block at 0: ik - F is near-singular for |k| << 1e3
    without ik colliding with the eigenvalue."""
    F = np.diag([0.0, 0.0, -5.0, -5.0]).astype(complex)
    F[0, 1] = 1e7
    return SeparatedBC(2, F)


@pytest.mark.parametrize("bc,momenta", [
    (hspin(a=0.0, b=0.0, c=1.0, d=-1.0, f=0.0, g=0.0, e1=0.0, e2=0.0, e3=0.0, e4=0.0),
     (4.0, 3.0, 2.0, 0.0)),
    (jordan_coupling(), (2.0, -500.0, 0.5, 1.5)),
], ids=["collision", "near-singular"])
def test_stacked_operators_name_the_first_singular_pair(bc, momenta):
    """Two pairs or more are singular, (1,2) is not, and the refusal names
    the lexicographically first."""
    pairs = lexicographic_pairs(4)
    errors = []
    for alpha, beta in pairs:
        try:
            y_separated(bc, 0.5 * (momenta[alpha - 1] - momenta[beta - 1]))
        except SingularMatrixError as exc:
            errors.append(((alpha, beta), exc))
    assert len(errors) >= 2 and errors[0][0] != pairs[0]
    (alpha, beta), first = errors[0]
    with pytest.raises(SingularMatrixError) as info:
        _exchange_operators(bc, momenta)
    assert str(info.value) == (f"momentum pair ({alpha},{beta}) gives a singular "
                               f"exchange operator: {first}")
    assert info.value.role == first.role == "ik-F"


def test_coefficients_memory_is_the_output(rng):
    """Each level is released once the next is built, and the state holds the
    (N!, n^N) array that propagation writes, so that array and the last two
    levels are the peak."""
    n, N = 2, 7
    bc = random_hspin(rng)
    momenta = separated_momenta(rng, N)
    u = rng.normal(size=n ** N) + 1j * rng.normal(size=n ** N)
    bethe_coefficients(bc, momenta, u, "boson")
    output = math.factorial(N) * n ** N * 16
    tracemalloc.start()
    try:
        bethe_coefficients(bc, momenta, u, "boson")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * output


@pytest.mark.parametrize("N", [2, 4])
def test_coefficient_rows_are_read_only_views_of_one_array(rng, N):
    n = 2
    u = rng.normal(size=n ** N) + 1j * rng.normal(size=n ** N)
    state = bethe_coefficients(random_hspin(rng), separated_momenta(rng, N), u, "boson")
    perms = list(itertools.permutations(range(1, N + 1)))
    assert state.array.shape == (len(perms), n ** N) and not state.array.flags.writeable
    assert list(state.coefficients) == list(state.words) == perms
    assert len(state.coefficients) == len(perms)
    for i, perm in enumerate(perms):
        row = state.coefficients[perm]
        assert row.base is state.array and np.shares_memory(row, state.array[i])
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
    with pytest.raises(TypeError):
        state.coefficients[perms[0]] = u
    with pytest.raises(TypeError):
        state.words[perms[0]] = ()
    with pytest.raises(KeyError):
        state.coefficients[tuple(range(N + 1))]


@pytest.mark.parametrize("N", range(2, 8))
def test_perm_mappings_find_rows_by_rank(N):
    """coefficients and words hold no permutation: a key finds its row by its
    rank in permutations order.  They answer len, in, iteration and lookups
    as a dict over the permutations would, so a tuple equal to a permutation
    (numpy ints, equal floats) finds its row, and any other key is missing."""
    momenta = [0.3 * i for i in range(N)]
    state = bethe_coefficients(SeparatedBC(1, -np.eye(1)), momenta, np.ones(1), "boson")
    perms = list(itertools.permutations(range(1, N + 1)))
    words = [reference_word(perm) for perm in perms]
    coefficients, mapped = state.coefficients, state.words
    for mapping in (coefficients, mapped):
        assert len(mapping) == len(perms) and list(mapping) == perms
        assert [perm for perm, _ in mapping.items()] == perms
    assert [word for _, word in mapped.items()] == words
    assert all(np.shares_memory(row, state.array[i]) and row.shape == (1,)
               for i, (_, row) in enumerate(coefficients.items()))
    for i, perm in enumerate(perms):
        for key in (perm, tuple(np.array(perm)), tuple(map(float, perm))):
            assert key in coefficients and key in mapped
            assert np.shares_memory(coefficients[key], state.array[i]) and mapped[key] == words[i]
    perm = perms[-1]
    for key in (perm[:-1], perm + (N + 1,), (1,) * N, tuple(p - 1 for p in perm),
                tuple(p + 1 for p in perm), (1.5,) + perm[1:], list(perm), np.array(perm),
                str(perm), None):
        for mapping in (coefficients, mapped):
            assert key not in mapping
            with pytest.raises(KeyError):
                mapping[key]


_PLAN_MEMORY = """
import tracemalloc
from ptspin import bethe
bethe._plan(4)
bethe._plan.cache_clear()
tracemalloc.start()
bethe._plan(8)
print(*tracemalloc.get_traced_memory())
"""


def test_the_plan_of_eight_particles_retains_arrays_only():
    """The plan of N = 8 retains at most 8 MiB in a fresh process: about 4 MiB
    of arrays, where the perm tuples with their index dict, the 40320 word
    tuples and the walk's op tuples held 20.0 MiB.  Its build peaks below
    16 MiB: the walk reaches `_program` as columns, not as one record per row
    (17.4 MiB)."""
    proc = subprocess.run([sys.executable, "-c", _PLAN_MEMORY], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    retained, peak = map(int, proc.stdout.split())
    assert retained <= 8 * 2 ** 20 and peak <= 16 * 2 ** 20


def test_path_consistency_memory_stays_local(rng):
    """n=3, N=5 transports are 243x243 (0.9 MB); embedded operators cost ~40 MB.

    The walk's one arena, a slice of n^(2 width) entries per buffer, and its
    real magnitude buffer of the widest block are the peak of a planned call,
    within 10%, at n=3 N=5 and n=2 N=7."""
    for n, N, ceiling in [(3, 5, 4 * 2**20), (2, 7, 1.25 * 2**20)]:
        bc = dense_complex_coupling(rng, n)
        momenta = separated_momenta(rng, N)
        u = np.zeros(n ** N, complex)
        u[0] = 1.0
        path_consistency(bc, momenta, u, "boson")
        arena = sum(n ** (2 * width) for width in _plan(N).buffers)
        tracemalloc.start()
        try:
            path_consistency(bc, momenta, u, "boson")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ceiling
        assert peak <= 1.1 * (16 * arena + 8 * n ** (2 * N))


# -- wavefunction evaluation -------------------------------------------------

def explicit_wavefunction(state, x, stats):
    """Reference evaluation: sort, sum plane waves, reindex components."""
    N, n = state.dims.N, state.dims.n
    order = np.argsort(np.asarray(x, float), kind="stable")
    y = np.asarray(x, float)[order]
    phi = np.zeros(state.dims.total_dim, complex)
    for perm, coeff in state.coefficients.items():
        phase = np.exp(1j * sum(state.momenta[p - 1] * y[j] for j, p in enumerate(perm)))
        phi = phi + coeff * phase
    out = np.zeros_like(phi)
    for flat in range(n ** N):
        digits = []
        rem = flat
        for _ in range(N):
            digits.append(rem % n)
            rem //= n
        digits = digits[::-1]
        src = [digits[order[m]] for m in range(N)]
        sflat = 0
        for d in src:
            sflat = sflat * n + d
        out[flat] = phi[sflat]
    sign = 1
    seen = [False] * N
    for s0 in range(N):
        if seen[s0]:
            continue
        length, pos = 0, s0
        while not seen[pos]:
            seen[pos] = True
            pos = order[pos]
            length += 1
        if length % 2 == 0:
            sign = -sign
    if stats == "fermion" and sign < 0:
        out = -out
    return out


def test_wavefunction_matches_elementwise_reference(rng):
    bc = random_hspin(rng)
    momenta = separated_momenta(rng, 3)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    for stats in ("boson", "fermion"):
        state = bethe_coefficients(bc, momenta, u, stats)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=3)
            got = evaluate_wavefunction(state, x, stats)
            want = explicit_wavefunction(state, x, stats)
            assert max_abs(got - want) <= 1e-12


def test_wavefunction_exchange_symmetry(rng):
    """Swapping two coordinates equals acting with the spin exchange (signed)."""
    bc = random_hspin(rng)
    momenta = separated_momenta(rng, 3)
    u = rng.normal(size=8) + 1j * rng.normal(size=8)
    dims = SpinDims(2, 3)
    pij = exchange_operator(1, 3, dims)
    for stats, sign in (("boson", 1.0), ("fermion", -1.0)):
        state = bethe_coefficients(bc, momenta, u, stats)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=3)
            xs = x.copy()
            xs[0], xs[2] = xs[2], xs[0]
            a = evaluate_wavefunction(state, x, stats)
            b = evaluate_wavefunction(state, xs, stats)
            assert max_abs(a - sign * (pij @ b)) == 0.0


def test_free_state_with_symmetric_spin_is_continuous():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    u = np.array([1.0, 0.0, 0.0, 0.0], complex)
    state = bethe_coefficients(bc, (1.0, -1.0), u, "boson")
    eps = 1e-9
    a = evaluate_wavefunction(state, (0.3 - eps, 0.3 + eps), "boson")
    b = evaluate_wavefunction(state, (0.3 + eps, 0.3 - eps), "boson")
    assert max_abs(a - b) == 0.0


def test_wavefunction_rejects_coincidence_points():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    u = np.array([1.0, 0.0, 0.0, 0.0], complex)
    state = bethe_coefficients(bc, (1.0, -1.0), u, "boson")
    with pytest.raises(ValueError, match="coincidence"):
        evaluate_wavefunction(state, (0.5, 0.5), "boson")
    with pytest.raises(ValueError, match="coincidence"):
        evaluate_wavefunction(state, (0.5, 0.5 + 1e-15), "boson")
    with pytest.raises(ValueError):
        evaluate_wavefunction(state, (0.5,), "boson")


@pytest.mark.parametrize("middle", [np.nan, np.inf])
def test_wavefunction_rejects_non_finite_positions(middle):
    bc = SeparatedBC(2, np.zeros((4, 4)))
    u = np.zeros(8, complex)
    u[0] = 1.0
    state = bethe_coefficients(bc, (1.0, 0.2, -0.9), u, "boson")
    with pytest.raises(ValueError, match="position must be finite"):
        evaluate_wavefunction(state, [0.0, middle, 1.0], "boson")


def test_wavefunction_rejects_mismatched_statistics():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    u = np.array([0.0, 1.0, -1.0, 0.0], complex)
    state = bethe_coefficients(bc, (1.0, -1.0), u, "fermion")
    with pytest.raises(ValueError, match="statistics"):
        evaluate_wavefunction(state, (0.1, 0.7), "boson")
    assert evaluate_wavefunction(state, (0.1, 0.7), "fermion").shape == (4,)


# -- interface defect --------------------------------------------------------

def test_jump_residual_free_coupling():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    u = np.array([1.0, 0.0, 0.0, 0.0], complex)
    state = bethe_coefficients(bc, (1.0, -1.0), u, "boson")
    assert boundary_jump_residual(state, bc, 1, 0.3) <= 1e-10


def test_jump_residual_scalar_coupling():
    bc = SeparatedBC(2, -np.eye(4))
    u = np.array([1.0, 0.0, 0.0, 0.0], complex)
    state = bethe_coefficients(bc, (1.0, -1.0), u, "boson")
    assert boundary_jump_residual(state, bc, 1, 0.37) <= 1e-12


def test_jump_residual_spin_coupling(rng):
    bc = diag_hspin()
    u = rng.normal(size=4) + 0j
    state = bethe_coefficients(bc, (1.3, -0.4), u, "boson")
    assert boundary_jump_residual(state, bc, 1, 0.37) <= 1e-12


def test_jump_residual_fermion_state():
    bc = SeparatedBC(2, -np.eye(4))
    u = np.array([0.0, 1.0, -1.0, 0.0], complex)
    state = bethe_coefficients(bc, (1.0, -1.0), u, "fermion")
    assert boundary_jump_residual(state, bc, 1, 0.37) <= 1e-12


def test_jump_residual_dirichlet():
    bc = SeparatedBC(1, None)
    state = bethe_coefficients(bc, (1.0, -1.0), np.array([1.0 + 0j]), "boson")
    assert boundary_jump_residual(state, bc, 1, 0.25) <= 1e-12


def test_jump_residual_detects_incompatible_coupling():
    """Imaginary scalar coupling breaks the conjugate-side condition."""
    bc = SeparatedBC(1, 1j * np.eye(1))
    state = bethe_coefficients(bc, (3.0, -1.0), np.array([1.0 + 0j]), "boson")
    assert boundary_jump_residual(state, bc, 1, 0.2) >= 1.0


def test_jump_residual_input_validation(rng):
    bc = SeparatedBC(2, np.zeros((4, 4)))
    u = np.zeros(8, complex)
    u[0] = 1.0
    state3 = bethe_coefficients(bc, (1.0, 0.2, -0.9), u, "boson")
    with pytest.raises(ValueError):
        boundary_jump_residual(state3, bc, 1, 0.3)
    u2 = np.array([1.0, 0.0, 0.0, 0.0], complex)
    state2 = bethe_coefficients(bc, (1.0, -1.0), u2, "boson")
    with pytest.raises(IndexError):
        boundary_jump_residual(state2, bc, 2, 0.3)
    other = SeparatedBC(3, np.zeros((9, 9)))
    with pytest.raises(ValueError):
        boundary_jump_residual(state2, other, 1, 0.3)
    for probe in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="probe must be finite"):
            boundary_jump_residual(state2, bc, 1, probe)


def reference_fd_weights(nodes, max_order):
    """Finite-difference weights at 0 for any derivative order (Fornberg recursion).

    Returns w of shape (max_order+1, len(nodes)) with
    f^(m)(0) ~ sum_i w[m, i] f(nodes[i]).
    """
    x = np.asarray(nodes, dtype=np.longdouble)
    n = len(x)
    w = np.zeros((max_order + 1, n), dtype=np.longdouble)
    c1 = np.longdouble(1.0)
    c4 = x[0]
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = np.longdouble(1.0)
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    w[m, i] = c1 * (m * w[m - 1, i - 1] - c5 * w[m, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for m in range(mn, 0, -1):
                w[m, j] = (c4 * w[m, j] - m * w[m - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w


@pytest.mark.parametrize("scale", [1.0, 1.7, 3.0, 12.5])
def test_one_sided_weights_match_the_fornberg_recursion(scale):
    """The closed Lagrange weights agree with the recursion to a few ulp of long double."""
    delta = np.longdouble(0.01) / scale
    for sign in (1.0, -1.0):
        nodes = sign * delta * np.arange(1, 9, dtype=np.longdouble)
        weights = _one_sided_weights(nodes)
        reference = reference_fd_weights(nodes, 1)
        assert weights.dtype == np.longdouble and weights.shape == (2, 8)
        assert np.all(np.abs(weights - reference) <= 1e-17 * np.abs(reference))

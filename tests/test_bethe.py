"""Coefficient propagation, wavefunction assembly, and interface defects."""
import collections
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import random_hspin, separated_momenta
from ptspin.bethe import (
    SignPattern,
    _TrieNode,
    _WordTree,
    _one_sided_weights,
    _word_tree,
    bethe_coefficients,
    boundary_jump_residual,
    evaluate_wavefunction,
    path_consistency,
)
from ptspin.boundary import SeparatedBC, delta_type, hspin
from ptspin.linalg import SingularMatrixError, SpinDims, embed_pair, exchange_operator, max_abs
from ptspin.scattering import make_y_factory, y_separated, ybe_residual


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
        expected = y_separated(bc, 0.5 * (k1 - k2)) @ u
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
    """Word independence and the factorization identity are the same number."""
    u = np.zeros(8, complex)
    u[0] = 1.0
    for _ in range(5):
        bc = random_hspin(rng)
        k1, k2, k3 = separated_momenta(rng, 3)
        pc = path_consistency(bc, (k1, k2, k3), u, "boson")
        yb = ybe_residual(make_y_factory(bc), k1, k2, k3, SpinDims(2, 3))
        assert pc == pytest.approx(yb, rel=1e-10, abs=1e-10)


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
            self.operators[key] = embed_pair(y_separated(self.bc, k), slot, self.dims)
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


def dense_complex_coupling(rng, n):
    return SeparatedBC(n, rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))


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
            self.operators[alpha, beta] = y_separated(self.bc, k)
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


@pytest.mark.parametrize("stats", ["boson", "fermion"])
@pytest.mark.parametrize("n,N", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5)])
def test_trie_walk_matches_prefix_memo_reference_exactly(rng, n, N, stats):
    bc = random_hspin(rng) if n == 2 else dense_complex_coupling(rng, n)
    momenta = separated_momenta(rng, N)
    u = rng.normal(size=n ** N) + 1j * rng.normal(size=n ** N)
    reference = PrefixMemoEngine(bc, momenta)
    want = reference.coefficients(u)
    state = bethe_coefficients(bc, momenta, u, stats)
    assert list(state.coefficients) == list(want)
    assert all(np.array_equal(state.coefficients[perm], want[perm]) for perm in want)
    assert path_consistency(bc, momenta, u, stats) == reference.path_consistency()


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

    `_word_tree` carries the slot labels down the trie instead; its plan must
    be equal to this one row for row.
    """
    words = tuple((perm, reference_word(perm)) for perm in itertools.permutations(range(1, N + 1)))
    pairs, perm_at = {}, {}
    for perm, word in words:
        for _, pair in label_steps(word, N)[0]:
            pairs.setdefault(pair)
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
        rows.append(_TrieNode(depth=len(prefix), step=label_steps(prefix, N)[0][-1],
                              perm=perm_at[prefix], braid=braid, transport=prefix in transport,
                              last=last_child[prefix[:-1]] == i,
                              free=tuple(sorted(free.get(i, ())))))
    return _WordTree(rows=tuple(rows), words=words, pairs=tuple(pairs))


@pytest.mark.parametrize("N", range(2, 8))
def test_word_tree_equals_the_replaying_planner(N):
    assert _word_tree(N) == reference_word_tree(N)


@pytest.mark.parametrize("N", range(2, 8))
def test_word_tree_holds_every_canonical_word_once(N):
    tree = _word_tree(N)
    perms = list(itertools.permutations(range(1, N + 1)))
    assert [perm for perm, _ in tree.words] == perms
    assert all(word == reference_word(perm) for perm, word in tree.words)
    path, nodes, seen = [()], [], [perms[0]]
    for row in tree.rows:
        # Depth-first order: the parent is the last row one level up.
        assert 1 <= row.depth <= len(path)
        del path[row.depth:]
        word = path[-1] + (row.step[0],)
        path.append(word)
        nodes.append(word)
        steps, seq = label_steps(word, N)
        assert row.step == steps[-1]
        if row.perm is not None:
            assert row.perm == seq and reference_word(seq) == word
            seen.append(row.perm)
        if len(word) >= 3 and word[-3] == word[-1] and abs(word[-1] - word[-2]) == 1:
            a, b = word[-2:]
            assert row.braid == tuple(label_steps(word[:-3] + (a, b, a), N)[0][-3:])
        else:
            assert row.braid is None
    assert sorted(seen) == perms
    prefixes = {word[:m] for _, word in tree.words for m in range(1, len(word) + 1)}
    assert len(nodes) == len(prefixes) and set(nodes) == prefixes


def test_path_consistency_memory_stays_local(rng):
    """n=3, N=5 transports are 243x243 (0.9 MB); embedded operators cost ~40 MB."""
    bc = dense_complex_coupling(rng, 3)
    momenta = separated_momenta(rng, 5)
    u = np.zeros(3 ** 5, complex)
    u[0] = 1.0
    tracemalloc.start()
    try:
        path_consistency(bc, momenta, u, "boson")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


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

"""Coefficient propagation, wavefunction assembly, and interface defects."""
import functools
import hashlib
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (dense_complex_coupling, embed_pair, exchange_operator, fresh_y_separated,
                      random_hspin, separated_momenta)
from ptspin import bethe, cli
from ptspin.bethe import (
    _ByPerm,
    _exchange_operators,
    _one_sided_weights,
    _word_trie,
    bethe_coefficients,
    boundary_jump_residual,
    evaluate_wavefunction,
    path_consistency,
)
from ptspin.boundary import (SeparatedBC, delta_type, hspin, load_boundary_condition,
                             parse_boundary_condition)
from ptspin.linalg import SingularMatrixError, SpinDims, max_abs
from ptspin.scattering import make_y_factory, pair_momenta, y_separated, ybe_residual
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
    for hspin, of Y itself; for a dense complex F, of k -> Y(k).T.  At n = 1
    and 2 the numbers were `==` on 300 draws each.  At n = 3 OpenBLAS rounds
    the trailing (length mod 4) columns of a product by other kernels, and
    the gap reached 10.4 eps of the defect (2.3e-15) but 0.78 eps of its
    componentwise scale over 300 draws."""
    u = np.zeros(8, complex)
    u[0] = 1.0
    for _ in range(5):
        bc = random_hspin(rng)
        k1, k2, k3 = separated_momenta(rng, 3)
        pc = path_consistency(bc, (k1, k2, k3), u, "boson")
        yb = ybe_residual(make_y_factory(bc), k1, k2, k3, SpinDims(2, 3))
        assert pc == pytest.approx(yb, rel=1e-10, abs=1e-10)
    for n in (1, 2, 3):
        u = np.zeros(n ** 3, complex)
        u[0] = 1.0
        for statistics in ("boson", "fermion"):
            bc = dense_complex_coupling(rng, n)
            ks = separated_momenta(rng, 3)
            pc = path_consistency(bc, ks, u, statistics)
            yb = ybe_residual(lambda k12: y_separated(bc, k12).T, *ks, SpinDims(n, 3))
            if n < 3:
                assert pc == yb
            else:
                assert abs(pc - yb) <= max(1e-15 * yb, TRIPLE_RTOL * braid_scale(bc, ks))


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

    def word_spread(self):
        """The largest max-abs gap between the transports of two reduced words
        of one permutation, over every reduced word of every permutation, and
        the largest max-abs of a transport.

        Words grow from the identity one swap at a time, each swap adding an
        inversion, so every path of the search is a reduced word and each
        transport is its parent's times one embedded operator.  The gap is
        taken against the first word that reaches the permutation."""
        N = self.dims.N
        first, spread, scale = {}, 0.0, 0.0
        stack = [(tuple(range(1, N + 1)), np.eye(self.dims.total_dim, dtype=complex))]
        while stack:
            seq, transport = stack.pop()
            scale = max(scale, max_abs(transport))
            if seq in first:
                spread = max(spread, max_abs(transport - first[seq]))
            else:
                first[seq] = transport
            for slot in range(1, N):
                alpha, beta = seq[slot - 1], seq[slot]
                if alpha < beta:
                    swapped = seq[:slot - 1] + (beta, alpha) + seq[slot + 1:]
                    stack.append((swapped, self.operator(slot, alpha, beta) @ transport))
        return spread, scale


def triple_reference(bc, momenta):
    """Yang's reduction one triple at a time: the largest `ybe_residual` of
    k -> Y(k).T over every momentum triple a < b < c, from fresh solves."""
    dims = SpinDims(bc.n, 3)
    return max(ybe_residual(lambda k: fresh_y_separated(bc, k).T, *triple, dims)
               for triple in itertools.combinations(momenta, 3))


def braid_scale(bc, momenta):
    """The componentwise rounding scale of the two braid products (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.5): the
    largest entry of |Y^1(k_bc)| |Y^2(k_ac)| |Y^1(k_ab)| or of
    |Y^2(k_ab)| |Y^1(k_ac)| |Y^2(k_bc)| over every momentum triple."""
    dims = SpinDims(bc.n, 3)
    scale = 0.0
    for triple in itertools.combinations(momenta, 3):
        y_ab, y_ac, y_bc = (np.abs(fresh_y_separated(bc, k)) for k in pair_momenta(triple))

        def at(y, j):
            return embed_pair(y, j, dims).real

        scale = max(scale, (at(y_bc, 1) @ at(y_ac, 2) @ at(y_ab, 1)).max(),
                    (at(y_ab, 2) @ at(y_ac, 1) @ at(y_bc, 2)).max())
    return scale


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
    want = triple_reference(bc, momenta)
    assert abs(path_consistency(bc, momenta, u, stats) - want) <= TRIPLE_RTOL * want


# -- path consistency: Yang's reduction to momentum triples -----------------

EPS = np.finfo(float).eps
# The batched pass and the per-triple loop take the same products in other
# orders; their numbers agree to this many times the larger of the defect
# and its componentwise scale.
TRIPLE_RTOL = 8 * EPS


def sample_couplings(rng, n):
    """A dense complex, an hspin (n = 2), a scalar lambda*I and a Dirichlet coupling."""
    couplings = {"dense": dense_complex_coupling(rng, n),
                 "scalar": SeparatedBC(n, rng.uniform(-2.0, 2.0) * np.eye(n * n)),
                 "dirichlet": SeparatedBC(n, None)}
    if n == 2:
        couplings["hspin"] = random_hspin(rng)
    return couplings


@pytest.mark.parametrize("n,N", [(1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
                                 (3, 3), (3, 4), (3, 5), (3, 6)])
def test_triple_pass_equals_the_per_triple_ybe_loop(rng, n, N):
    """The batched pass is the transposed `ybe_residual` of the worst triple,
    to a few eps of the defect, or of its componentwise scale where the
    defect is rounding (the scalar and Dirichlet couplings factorize)."""
    for name, bc in sample_couplings(rng, n).items():
        momenta = separated_momenta(rng, N)
        got = path_consistency(bc, momenta, np.ones(n ** N), "boson")
        want = triple_reference(bc, momenta)
        assert abs(got - want) <= TRIPLE_RTOL * max(want, braid_scale(bc, momenta)), (name, got, want)


def full_matrix_walk(N, operators, n):
    """The triple pass with every array a full n^N x n^N matrix.

    Each triple a < b < c sits at slots s, s+1, s+2 (s runs over 1..N-2 with
    the triples), and its two braid words are replayed from the identity
    matrix, each swap one operator of the stack on the (n^(slot-1), n^2,
    rest) view of the whole matrix.  The difference is I (x) D (x) I for the
    triple's (C^n)^3 difference D, exact zeros elsewhere."""
    pair_id = {pair: i for i, pair in enumerate(lexicographic_pairs(N))}
    size, worst = n ** N, 0.0

    def replay(steps):
        out = np.eye(size, dtype=np.complex128)
        for slot, pair in steps:
            view = out.reshape(n ** (slot - 1), n * n, -1)
            out = np.matmul(operators[pair_id[pair]], view).reshape(size, size)
        return out

    for t, (a, b, c) in enumerate(itertools.combinations(range(1, N + 1), 3)):
        s = 1 + t % (N - 2)
        left = replay([(s, (a, b)), (s + 1, (a, c)), (s, (b, c))])
        right = replay([(s + 1, (b, c)), (s, (a, c)), (s + 1, (a, b))])
        worst = max(worst, max_abs(left - right))
    return worst


# The two walks agree to this many times max(1, path consistency) at n = 3;
# the largest gap seen over 60 seeds at N = 3..5 was 1.4 eps.
WALK_RTOL = 16 * EPS


@pytest.mark.parametrize("n,N", [(1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7)])
def test_block_walk_equals_the_full_matrix_walk(rng, n, N):
    """The triple pass replays each triple's braid words on (C^n)^3 blocks,
    and the full matrix holds each block's entries at the triple's slots, so
    every product sums the same terms and the max-abs is the same number.
    At n = 2 every product's row length is a multiple of 4, so BLAS rounds
    each entry the same way in the block and in the full matrix; n = 1 runs
    the same 1 x 1 products."""
    for name, bc in sample_couplings(rng, n).items():
        momenta = separated_momenta(rng, N)
        got = path_consistency(bc, momenta, np.ones(n ** N), "boson")
        assert got == full_matrix_walk(N, _exchange_operators(bc, momenta), n), name


@pytest.mark.parametrize("N", [3, 4, 5])
def test_block_walk_matches_the_full_matrix_walk_at_odd_spin_dimension(rng, N):
    """At n = 3 a product's row length is a power of 3, and OpenBLAS rounds
    the last (length mod 4) columns of a product by other kernels than the
    rest.  Those columns fall on different entries in a block and in the
    full matrix, so the two walks agree to rounding of the defect's scale."""
    n = 3
    for _ in range(4):
        for name, bc in sample_couplings(rng, n).items():
            momenta = separated_momenta(rng, N)
            got = path_consistency(bc, momenta, np.ones(n ** N), "boson")
            want = full_matrix_walk(N, _exchange_operators(bc, momenta), n)
            assert abs(got - want) <= WALK_RTOL * max(1.0, want), (name, got, want)


FIXTURES = Path(__file__).parent / "fixtures"
N4_MOMENTA = (1.0, 0.3, -0.7, -1.6)


def test_the_worst_triple_is_one_no_canonical_braid_reaches(capsys):
    """A braid site of a canonical word always has the triple form (a, c-1, c),
    so the trie walk never compared the triple (1,2,4), whose defect is the
    largest here; it printed 2314.006, the defects carried through gains."""
    bc = load_boundary_condition(FIXTURES / "hspin_complex_spectrum.json")
    dims = SpinDims(2, 3)
    defects = {triple: ybe_residual(lambda k: y_separated(bc, k).T,
                                    *(N4_MOMENTA[i - 1] for i in triple), dims)
               for triple in itertools.combinations(range(1, 5), 3)}
    assert max(defects, key=defects.get) == (1, 2, 4)
    got = path_consistency(bc, N4_MOMENTA, np.eye(16)[0], "boson")
    assert got == pytest.approx(defects[1, 2, 4], rel=4 * EPS)
    assert got == 186.2755984123507
    argv = ["bethe", str(FIXTURES / "hspin_complex_spectrum.json"),
            "--k", ",".join(map(repr, N4_MOMENTA))]
    assert cli.main(argv) == 0
    assert '"path_consistency":186.2755984123507,' in capsys.readouterr().out


def factorizing_couplings(rng):
    """Couplings whose exchange operators are scalar multiples of the identity,
    so every reduced word gives one product: lambda*I, the fixtures
    hspin_minus_identity and separated_free, and the Dirichlet member."""
    return {"lambda": SeparatedBC(2, rng.uniform(-2.0, 2.0) * np.eye(4)),
            "minus_identity": load_boundary_condition(FIXTURES / "hspin_minus_identity.json"),
            "free": load_boundary_condition(FIXTURES / "separated_free.json"),
            "dirichlet": SeparatedBC(2, None)}


@pytest.mark.parametrize("N", [3, 4, 5])
def test_every_reduced_word_gives_one_product_on_factorizing_couplings(rng, N):
    """Every reduced word of every permutation, not only the canonical ones,
    replayed densely, agrees to rounding of its N(N-1)/2 products."""
    for name, bc in factorizing_couplings(rng).items():
        spread, scale = ReferenceEngine(bc, separated_momenta(rng, N)).word_spread()
        assert spread <= 4 * EPS * N * (N - 1) / 2 * scale, name


@pytest.mark.parametrize("N", [4, 5])
def test_non_factorizing_couplings_split_the_words_and_the_triples(rng, N):
    for bc in (random_hspin(rng), dense_complex_coupling(rng, 2)):
        momenta = separated_momenta(rng, N)
        spread, _ = ReferenceEngine(bc, momenta).word_spread()
        assert spread > 1e-3
        assert path_consistency(bc, momenta, np.ones(2 ** N), "boson") > 1e-3


N1_GAIN = {"kind": "separated", "n": 1, "F": [[[0.01, 0.5]]]}
N1_MOMENTA = (0.0, -0.999, -1.996, -2.991, -3.984, -4.975, -5.964, -6.951)


def test_an_exactly_consistent_n1_coupling_reads_rounding(capsys, tmp_path):
    """At n = 1 every word applies the same scalars, so the ansatz is exactly
    consistent.  The coefficients of this valid PT document reach 1e20, and
    the walk printed 3223.36, rounding times that gain; a triple's defect is
    rounding of its three scalars' product, 2.96e4 at most here.  The printed
    number stays absolute."""
    bc = parse_boundary_condition(N1_GAIN)
    scale = braid_scale(bc, N1_MOMENTA)
    assert scale == pytest.approx(2.96e4, rel=5e-3)
    got = path_consistency(bc, N1_MOMENTA, np.ones(1), "boson")
    assert 0 < got <= 4 * EPS * scale
    document = tmp_path / "gain.json"
    document.write_text(json.dumps(N1_GAIN))
    assert cli.main(["bethe", str(document), f"--k={','.join(map(repr, N1_MOMENTA))}"]) == 0
    assert f'"path_consistency":{got!r},' in capsys.readouterr().out


@pytest.mark.parametrize("N", range(3, 9))
def test_factorizing_couplings_read_a_few_eps_of_their_scale(rng, N):
    for name, bc in factorizing_couplings(rng).items():
        momenta = separated_momenta(rng, N, low=-4.0, high=4.0)
        got = path_consistency(bc, momenta, np.ones(2 ** N), "boson")
        assert got <= 4 * EPS * braid_scale(bc, momenta), name


def dyadic_momenta(rng, N):
    """Distinct multiples of 1/16 in [-4, 4): half-differences and shifts by
    dyadic constants are exact."""
    return tuple(float(k) / 16 for k in rng.choice(np.arange(-64, 64), size=N, replace=False))


@pytest.mark.parametrize("n,N", [(2, 5), (3, 4)])
def test_consistency_is_exact_under_dyadic_scaling_and_shifts(rng, n, N):
    """(F, k) -> (2^m F, 2^m k) leaves every Y unchanged, and scaling by 2^m
    is exact in floating point; a dyadic shift k_i -> k_i + c leaves every
    relative momentum unchanged.  So the number is `==` under both."""
    F = dense_complex_coupling(rng, n).F
    momenta = dyadic_momenta(rng, N)
    u = np.ones(n ** N)
    want = path_consistency(SeparatedBC(n, F), momenta, u, "boson")
    assert want > 1e-3
    for m in (-3, 2, 10):
        scaled = SeparatedBC(n, 2.0 ** m * F)
        assert path_consistency(scaled, [2.0 ** m * k for k in momenta], u, "boson") == want, m
    for c in (0.75, -3.0625):
        assert path_consistency(SeparatedBC(n, F), [k + c for k in momenta], u, "boson") == want, c


def test_path_consistency_plans_nothing(monkeypatch, rng):
    """The triples' pair index is all the pass reads besides the operators:
    no trie is numbered and no plan is cached."""
    def unreachable(N):
        raise AssertionError(f"the trie of N={N} was reached")

    monkeypatch.setattr(bethe, "_word_trie", unreachable)
    monkeypatch.setattr(bethe, "_plan", functools.cache(bethe._plan.__wrapped__))
    bc = random_hspin(rng)
    assert path_consistency(bc, separated_momenta(rng, 5), np.ones(2 ** 5), "boson") > 0
    assert bethe._plan.cache_info().currsize == 0


# -- prefix-memo reference engine --------------------------------------------
#
# The trie propagation in ptspin.bethe replaces this per-permutation engine:
# each permutation extends the longest prefix of its word already propagated.
# Both engines make the same np.matmul calls for every coefficient, so they
# agree bit for bit.

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


def assert_matches_prefix_memo(rng, bc, N, stats):
    n = bc.n
    momenta = separated_momenta(rng, N)
    u = rng.normal(size=n ** N) + 1j * rng.normal(size=n ** N)
    want = PrefixMemoEngine(bc, momenta).coefficients(u)
    state = bethe_coefficients(bc, momenta, u, stats)
    assert list(state.coefficients) == list(want)
    assert all(np.array_equal(state.coefficients[perm], want[perm]) for perm in want)


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

def lexicographic_pairs(N):
    """The momentum pairs (alpha, beta), alpha < beta, in lexicographic order:
    the pair a plan's pair id names."""
    return tuple(itertools.combinations(range(1, N + 1), 2))


@functools.cache
def _plan(N):
    """The plan of N under its field names, with index the perm -> row mapping
    and words the perm -> word mapping of the BetheState."""
    plan = bethe._plan(N)
    return SimpleNamespace(**plan._asdict() | {"index": _ByPerm(N, int),
                                               "words": _ByPerm(N, plan.word)})


def plan_nodes(N):
    """Each level of the plan of N as its nodes, sorted: (word prefix, labels
    of the momentum pair, rank of the permutation if the prefix is a
    canonical word, else -1).  A node is named by what it holds, not by how
    the nodes of a level are numbered."""
    pairs, above, levels = lexicographic_pairs(N), [()], []
    for level in _plan(N).levels:
        nodes = [(above[parent] + (group.slot,), pairs[pair]) for group in level.groups
                 for parent, pair in zip(group.parents.tolist(), group.pairs.tolist())]
        word = dict(zip(level.rows.tolist(), level.words.tolist()))
        levels.append(sorted((prefix, pair, word.get(position, -1))
                             for position, (prefix, pair) in enumerate(nodes)))
        above = [prefix for prefix, _ in nodes]
    return levels


def plan_digest(N):
    """A digest of the levels, the perm -> row and perm -> word lookups and
    the slots of the plan of N."""
    plan = _plan(N)
    fields = (plan_nodes(N), [(perm, plan.index[perm]) for perm in plan.index],
              [(perm, plan.words[perm]) for perm in plan.words], plan.slots.tolist())
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


# Digests of the same fields as the dict-of-dicts trie planner built them,
# which walked each word down the trie from the root (about 1 s at N = 8),
# taken on the array planner that still matched it node for node.
DICT_TRIE_DIGESTS = {2: "04b114e264161484", 3: "001d37f603dca23a", 4: "6b4d09d69c13a346",
                     5: "70836c678304d181", 6: "c74218b7886d780a", 7: "6087726a6167d62a",
                     8: "4b0506c55435bf63"}


@pytest.mark.parametrize("N", range(2, 9))
def test_array_planner_equals_the_dict_trie_planner(N):
    """The plan is the dict-trie planner's, field for field and array for
    array, up to the numbering of the nodes within a level."""
    assert plan_digest(N) == DICT_TRIE_DIGESTS[N]


def test_each_trie_is_numbered_once_per_N(monkeypatch, rng, capsys):
    """The coefficient pass, the wavefunction and `ptspin bethe` all read the
    one plan of N, so each N's trie is numbered once per process; path
    consistency reads none."""
    built = []

    def counted(N):
        built.append(N)
        return _word_trie(N)

    monkeypatch.setattr(bethe, "_plan", functools.cache(bethe._plan.__wrapped__))
    monkeypatch.setattr(bethe, "_word_trie", counted)
    bc = random_hspin(rng)
    u = np.ones(2 ** 5, complex)
    path_consistency(bc, separated_momenta(rng, 5), u, "boson")
    assert built == []
    state = bethe_coefficients(bc, separated_momenta(rng, 5), u, "boson")
    evaluate_wavefunction(state, np.arange(5.0), "boson")
    assert built == [5] and state.words[(2, 1, 3, 4, 5)] == (1,)
    state = bethe_coefficients(bc, separated_momenta(rng, 4), u[:16], "boson")
    evaluate_wavefunction(state, np.arange(4.0), "boson")
    path_consistency(bc, separated_momenta(rng, 4), u[:16], "boson")
    assert built == [5, 4]
    fixture = FIXTURES / "hspin_diag.json"
    for _ in range(2):
        assert cli.main(["bethe", str(fixture), "--k", "1.0,0.3,-0.7"]) == 0
    assert '"perm":[3,2,1],"word":[1,2,1]' in capsys.readouterr().out
    assert built == [5, 4, 3]


def test_ten_particles_are_refused_before_planning(monkeypatch, rng):
    """The trie of 10 particles (3628800 words) is refused before it is built,
    by the coefficient pass and by path consistency alike, and before the
    coefficient pass allocates its (N!, n^N) array (55.4 GiB at n = 2).  Up
    to N = 9 that array is allocated before planning, so a request too large
    for memory (1.4 TiB at n = 4) names it at once."""
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


def label_steps(word, N):
    """(slot, (alpha, beta)) of each swap of word replayed from the identity."""
    seq, steps = list(range(1, N + 1)), []
    for slot in word:
        steps.append((slot, (seq[slot - 1], seq[slot])))
        seq[slot - 1], seq[slot] = seq[slot], seq[slot - 1]
    return steps, tuple(seq)


def reference_word_tree(N):
    """The trie planner that replays every prefix from the identity.

    Returns every level of the trie as `plan_nodes` lists it, the (perm,
    word) pairs in itertools.permutations order and the momentum pairs the
    words swap, sorted.  `_word_trie` numbers the trie with array operations
    instead.
    """
    words = tuple((perm, reference_word(perm)) for perm in itertools.permutations(range(1, N + 1)))
    pairs, rank = set(), {}
    for i, (_, word) in enumerate(words):
        pairs.update(pair for _, pair in label_steps(word, N)[0])
        for m in range(1, len(word)):
            rank.setdefault(word[:m], -1)
        rank[word] = i
    levels = [sorted((prefix, label_steps(prefix, N)[0][-1][1], i)
                     for prefix, i in rank.items() if len(prefix) == depth)
              for depth in range(1, N * (N - 1) // 2 + 1)]
    return levels, words, tuple(sorted(pairs))


@pytest.mark.parametrize("N", range(2, 9))
def test_word_tree_equals_the_replaying_planner(N):
    """The plan's levels are the replaying planner's, node for node with its
    momentum pair and word.  The words swap every pair alpha < beta and no
    other, so the lexicographic pairs name each pair id once."""
    levels, words, pairs = reference_word_tree(N)
    assert plan_nodes(N) == levels
    assert list(_plan(N).words.items()) == list(words)
    assert pairs == lexicographic_pairs(N)


@pytest.mark.parametrize("N", range(2, 8))
def test_word_tree_holds_every_canonical_word_once(N):
    plan = _plan(N)
    perms = list(itertools.permutations(range(1, N + 1)))
    assert list(plan.index.items()) == [(perm, i) for i, perm in enumerate(perms)]
    assert list(plan.words) == perms
    assert all(plan.words[perm] == reference_word(perm) for perm in perms)
    assert plan.slots.tolist() == [[p - 1 for p in perm] for perm in perms]
    levels, filled = plan_nodes(N), [0]
    for depth, nodes in enumerate(levels, start=1):
        above = {prefix for prefix, _, _ in levels[depth - 2]} if depth > 1 else {()}
        for prefix, pair, word in nodes:
            steps, seq = label_steps(prefix, N)
            assert steps[-1] == (prefix[-1], pair) and prefix[:-1] in above
            if word >= 0:
                assert perms[word] == seq and reference_word(seq) == prefix
                filled.append(word)
            else:
                assert reference_word(seq) != prefix
        # Each node once.
        assert len({prefix for prefix, _, _ in nodes}) == len(nodes)
    assert sorted(filled) == list(range(len(perms)))


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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", range(3, 8))
def test_walk_arena_gives_each_buffer_its_own_slice(N, n):
    """The trie walk (`_propagate`) holds each depth in one (nodes, n^N)
    array, its arena, and makes each group's products into the group's own
    slice of it through the (n^(j-1), n^2, rest) view it gives np.matmul as
    out.  Each view must be its slice itself, exactly the group's rows long
    and disjoint from every other group's: a view that copied would drop the
    products, and one too long would overwrite the next group's rows.  The
    arenas are never written here, so their pages are never touched."""
    size, item = n ** N, np.dtype(np.complex128).itemsize
    above = 1
    for level in bethe._plan(N).levels:
        arena = np.empty((level.groups[-1].stop, size), dtype=np.complex128)
        base, start = arena.__array_interface__["data"][0], 0
        for group in level.groups:
            rows = group.stop - start
            assert len(group.parents) == len(group.pairs) == rows > 0
            assert 0 <= group.parents.min() and group.parents.max() < above
            shape = (-1, n ** (group.slot - 1), n * n, n ** (N - group.slot - 1))
            view = arena[start:group.stop].reshape(shape)
            assert view.base is arena and view.flags.c_contiguous and len(view) == rows
            offset = view.__array_interface__["data"][0] - base
            assert (offset, view.nbytes) == (start * size * item, rows * size * item)
            start = group.stop
        assert start == len(arena)
        assert 0 <= level.rows.min() and level.rows.max() < start
        above = start


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
    tuples and the trie walk's op tuples held 20.0 MiB.  Its build peaks
    below 16 MiB."""
    proc = subprocess.run([sys.executable, "-c", _PLAN_MEMORY], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    retained, peak = map(int, proc.stdout.split())
    assert retained <= 8 * 2 ** 20 and peak <= 16 * 2 ** 20


def test_path_consistency_memory_stays_local(rng):
    """The pass holds a few (C(N,3), n^3, n^3) stacks, one n^3 x n^3 matrix
    per triple: at n=3 N=6, 20 triples of 729 entries (0.23 MB a stack, about
    4.4 stacks at the peak), where embedded n^N x n^N operators would cost
    8.5 MB each and the trie walk's arena alone took 3.05 MiB at N=5."""
    n, N = 3, 6
    bc = dense_complex_coupling(rng, n)
    momenta = separated_momenta(rng, N)
    u = np.zeros(n ** N, complex)
    u[0] = 1.0
    path_consistency(bc, momenta, u, "boson")
    tracemalloc.start()
    try:
        path_consistency(bc, momenta, u, "boson")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = math.comb(N, 3) * n ** 6 * 16
    assert peak <= 5.5 * stack


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

"""Spectral classification, bound-state construction, and decay verification."""
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import embed_pair, exchange_operator, random_hspin
from ptspin.boundary import SeparatedBC, hspin, validate
from ptspin import cli, spectra
from ptspin.linalg import SpinDims, Statistics, max_abs
from ptspin.spectra import (
    _sector_basis,
    _sector_solutions,
    _stencil,
    BoundState,
    BoundStateNotFound,
    SignPattern,
    bound_energy,
    bound_states,
    classify_spectrum,
    n_particle_bound_state,
    negative_real_eigenvalues,
    verify_bound_state_fd,
)


def diag_hspin():
    return hspin(a=-1.0, b=-2.0, c=0.0, d=0.0, f=-3.0, g=0.0,
                 e1=0.0, e2=0.0, e3=0.0, e4=0.0)


def cd_hspin():
    return hspin(a=0.0, b=0.0, c=1.0, d=-1.0, f=0.0, g=0.0,
                 e1=0.0, e2=0.0, e3=0.0, e4=0.0)


# -- classification ----------------------------------------------------------

def test_classify_diagonal_coupling():
    rep = classify_spectrum(diag_hspin().F)
    assert np.allclose(rep.eigenvalues, [-3.0, -3.0, -2.0, -1.0], atol=1e-12)
    assert rep.all_real
    assert rep.complex_pairs == ()
    assert rep.unpaired == ()
    assert len(rep.real_subset) == 4
    assert rep.tol == pytest.approx(4e-10)


def test_classify_detects_conjugate_pair():
    rep = classify_spectrum(cd_hspin().F)
    assert not rep.all_real
    assert len(rep.real_subset) == 2
    assert max(abs(v) for v in rep.real_subset) <= 1e-12
    assert len(rep.complex_pairs) == 1
    plus, minus = rep.complex_pairs[0]
    assert abs(plus - 1j) <= 1e-12
    assert abs(minus + 1j) <= 1e-12
    assert rep.unpaired == ()


def test_classify_leaves_a_value_without_conjugate_unpaired():
    """Neither 1+1j nor 3+2j is within 2 tol of the other's conjugate, so neither pairs."""
    rep = classify_spectrum(np.diag([1 + 1j, 3 + 2j, 0.5, -1.0]))
    assert rep.real_subset == (-1.0, 0.5)
    assert rep.complex_pairs == ()
    assert rep.unpaired == (1 + 1j, 3 + 2j)


def test_classify_zero_matrix():
    rep = classify_spectrum(np.zeros((3, 3)))
    assert rep.all_real
    assert rep.eigenvalues == (0.0, 0.0, 0.0)


def test_classify_count_invariant_and_determinism(rng):
    for _ in range(10):
        bc = random_hspin(rng)
        rep = classify_spectrum(bc.F)
        total = len(rep.real_subset) + 2 * len(rep.complex_pairs) + len(rep.unpaired)
        assert total == 4
        again = classify_spectrum(bc.F)
        assert rep.eigenvalues == again.eigenvalues
        assert rep.complex_pairs == again.complex_pairs


def test_classify_real_matrix_pairs_everything(rng):
    """Real matrices have conjugation-closed spectra, so nothing is unpaired."""
    for _ in range(10):
        bc = random_hspin(rng)
        rep = classify_spectrum(bc.F.real)
        assert rep.unpaired == ()


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda tol: classify_spectrum(np.eye(2), tol=tol),
    lambda tol: negative_real_eigenvalues(-np.eye(4), tol),
    lambda tol: bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson", tol),
    lambda tol: bound_states(SeparatedBC(2, -np.eye(4)), 3, "boson", tol=tol),
    lambda tol: n_particle_bound_state(SeparatedBC(2, -np.eye(4)), 3, -1.0,
                                       SignPattern.uniform(3), "boson", tol),
    lambda tol: validate(SeparatedBC(2, -np.eye(4)), tol),
], ids=["classify_spectrum", "negative_real_eigenvalues", "two_particle_bound_states",
        "bound_states", "n_particle_bound_state", "validate"])
def test_classify_rejects_bad_tolerance(call, tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        call(tol)


def test_negative_real_eigenvalue_clusters():
    clusters, tol = negative_real_eigenvalues(diag_hspin().F)
    assert clusters == (-3.0, -2.0, -1.0)
    assert tol == pytest.approx(4e-10)
    clusters_cd, _ = negative_real_eigenvalues(cd_hspin().F)
    assert clusters_cd == ()


# -- energies ----------------------------------------------------------------

def test_bound_energy_closed_form():
    assert bound_energy(-1.0, 2) == -2.0
    assert bound_energy(-2.0, 2) == -8.0
    assert bound_energy(-3.0, 2) == -18.0
    assert bound_energy(-2.0, 3) == -32.0
    assert bound_energy(-1.5, 4) == -(1.5 * 1.5) * 20
    with pytest.raises(ValueError):
        bound_energy(-1.0, 1)


@pytest.mark.parametrize("N", [2.5, np.float64(3.5), np.nan, np.inf])
def test_non_integral_particle_counts_are_refused(N):
    bc = SeparatedBC(2, -np.eye(4))
    for call in (lambda: bound_energy(-1.0, N),
                 lambda: bound_states(bc, N, "boson"),
                 lambda: n_particle_bound_state(bc, N, -1.0, SignPattern.uniform(2), "boson")):
        with pytest.raises(ValueError, match="particle count must be an integer"):
            call()


@pytest.mark.parametrize("N", [3, np.int64(3), 3.0])
def test_integral_particle_counts_of_any_type_are_accepted(N):
    bc = SeparatedBC(2, -np.eye(4))
    assert bound_energy(-1.0, N) == -8.0
    want = bound_states(bc, 3, "boson")
    got = bound_states(bc, N, "boson")
    assert [(s.n_particles, s.lam, s.v.tobytes()) for s in got] == \
        [(s.n_particles, s.lam, s.v.tobytes()) for s in want]
    state = n_particle_bound_state(bc, N, -1.0, SignPattern.uniform(3), "boson")
    assert state.n_particles == 3 and state.v.tobytes() == want[0].v.tobytes()


# -- two-particle bound states ----------------------------------------------

def test_two_particle_states_diagonal_coupling():
    states = bound_states(diag_hspin(), 2, "boson")
    assert [(s.lam, s.energy) for s in states] == [
        (-3.0, -18.0), (-3.0, -18.0), (-2.0, -8.0), (-1.0, -2.0)]
    assert [s.epsilon.values() for s in states] == [(-1,), (1,), (1,), (1,)]
    sym = np.array([0, 1, 1, 0]) / np.sqrt(2)
    anti = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert min(max_abs(states[0].v - anti), max_abs(states[0].v + anti)) <= 1e-10
    assert max_abs(states[1].v - sym) <= 1e-10
    assert max_abs(states[2].v - np.array([0, 0, 0, 1])) <= 1e-10
    assert max_abs(states[3].v - np.array([1, 0, 0, 0])) <= 1e-10


def test_two_particle_states_fermion_flips_signs():
    boson = bound_states(diag_hspin(), 2, "boson")
    fermion = bound_states(diag_hspin(), 2, "fermion")
    assert sorted(s.epsilon.values()[0] for s in boson) == [-1, 1, 1, 1]
    assert sorted(s.epsilon.values()[0] for s in fermion) == [-1, -1, -1, 1]


def test_two_particle_states_require_real_negative_eigenvalues():
    assert bound_states(cd_hspin(), 2, "boson") == []


def test_two_particle_states_dirichlet_has_none():
    assert bound_states(SeparatedBC(2, None), 2, "boson") == []


def test_two_particle_states_scalar_coupling_split_by_parity():
    states = bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson")
    assert len(states) == 4
    assert all(s.lam == pytest.approx(-1.0) for s in states)
    assert all(s.energy == pytest.approx(-2.0) for s in states)
    assert sorted(s.epsilon.values()[0] for s in states) == [-1, 1, 1, 1]


def test_emitted_states_satisfy_their_defining_relations(rng):
    """Every returned state is re-checked against the eigen and parity relations."""
    dims = SpinDims(2, 2)
    p = exchange_operator(1, 2, dims)
    for _ in range(10):
        bc = random_hspin(rng, symmetric=True)
        for stats, sign in (("boson", 1.0), ("fermion", -1.0)):
            for s in bound_states(bc, 2, stats):
                assert s.lam < 0
                assert max_abs(bc.F @ s.v - s.lam * s.v) <= 1e-8
                assert max_abs(np.conj(bc.F) @ s.v - s.lam * s.v) <= 1e-8
                eps = s.epsilon[(2, 1)]
                assert max_abs(p @ s.v - sign * eps * s.v) <= 1e-8
                assert s.parity_residual() <= 1e-8
                assert abs(np.linalg.norm(s.v) - 1.0) <= 1e-10


# -- state invariants --------------------------------------------------------

def test_bound_state_rejects_inconsistent_energy():
    with pytest.raises(ValueError):
        BoundState(n_particles=2, lam=-1.0, v=np.array([1.0, 0, 0, 0]),
                   epsilon=SignPattern.uniform(2), energy=-3.0, statistics="boson")


def test_bound_state_rejects_growing_profile():
    with pytest.raises(ValueError):
        BoundState(n_particles=2, lam=0.5, v=np.array([1.0, 0, 0, 0]),
                   epsilon=SignPattern.uniform(2), energy=bound_energy(0.5, 2),
                   statistics="boson")


def test_bound_state_rejects_mismatched_pattern():
    with pytest.raises(ValueError):
        BoundState(n_particles=2, lam=-1.0, v=np.array([1.0, 0, 0, 0]),
                   epsilon=SignPattern.uniform(3), energy=-2.0, statistics="boson")


# -- many-particle construction ----------------------------------------------

def test_three_particle_scalar_coupling_state():
    bc = SeparatedBC(2, -2.0 * np.eye(4))
    state = n_particle_bound_state(bc, 3, -2.0, SignPattern.uniform(3), "boson")
    assert state.energy == -32.0
    assert state.n_particles == 3
    assert state.n == 2
    assert state.parity_residual() <= 1e-10
    dims = SpinDims(2, 3)
    for k in range(2, 4):
        for l in range(1, k):
            p = exchange_operator(l, k, dims)
            assert max_abs(p @ state.v - state.v) <= 1e-10


def all_sign_patterns(N):
    pairs = SignPattern.uniform(N).pairs
    for signs in itertools.product((-1, 1), repeat=len(pairs)):
        yield SignPattern(N, dict(zip(pairs, signs)))


@pytest.mark.parametrize("N,n", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)])
def test_mixed_sign_pattern_fails_on_parity(N, n):
    """No non-uniform pattern has a parity sector, even for a lambda*I coupling
    that every vector satisfies; `bound_states` relies on this to skip them.

    The sector rule of `n_particle_bound_state` is checked against the SVD of
    the stacked parity constraints, and no tolerance can open a sector it
    rules out."""
    bc = SeparatedBC(n, -np.eye(n * n))
    dims = SpinDims(n, N)
    eye = np.eye(dims.total_dim)
    mixed = [p for p in all_sign_patterns(N) if len(set(p.values())) == 2]
    assert len(mixed) == 2 ** (N * (N - 1) // 2) - 2
    for stats, sign in (("boson", 1.0), ("fermion", -1.0)):
        for pattern in all_sign_patterns(N):
            stack = np.vstack([exchange_operator(l, k, dims) - sign * pattern[(k, l)] * eye
                               for (k, l) in pattern.pairs])
            sector_dim = int(np.sum(np.linalg.svd(stack, compute_uv=False) <= 1e-10))
            if pattern in mixed:
                assert sector_dim == 0
            for tol in ((None, 1e6) if sector_dim == 0 else (None,)):
                try:
                    n_particle_bound_state(bc, N, -1.0, pattern, stats, tol)
                except BoundStateNotFound as exc:
                    assert (sector_dim, exc.reason) == (0, "parity")
                else:
                    assert sector_dim > 0


def exhaustive_bound_states(bc, N, statistics):
    """Reference search over every sign pattern for every eigenvalue cluster."""
    clusters, _ = negative_real_eigenvalues(bc.F)
    states = []
    for lam in clusters:
        for pattern in all_sign_patterns(N):
            try:
                states.append(n_particle_bound_state(bc, N, lam, pattern, statistics))
            except BoundStateNotFound:
                continue
    states.sort(key=lambda s: (s.lam, s.epsilon.values()))
    return states


def test_bound_states_match_exhaustive_search(rng):
    couplings = [SeparatedBC(2, -0.5 * np.eye(4)), diag_hspin(),
                 hspin(a=-1.0, b=-1.0, c=0.0, d=0.0, f=-1.0, g=0.0,
                       e1=0.0, e2=0.0, e3=0.0, e4=0.0)]
    couplings += [random_hspin(rng, symmetric=True) for _ in range(2)]
    found = 0
    for bc in couplings:
        for N in (3, 4):
            for stats in ("boson", "fermion"):
                got = bound_states(bc, N, stats)
                want = exhaustive_bound_states(bc, N, stats)
                assert [(s.lam, s.epsilon.values()) for s in got] == \
                    [(s.lam, s.epsilon.values()) for s in want]
                for a, b in zip(got, want):
                    assert (a.v == b.v).all()
                found += len(got)
    assert found > 0


def test_bound_states_two_particles_and_edge_cases():
    assert bound_states(SeparatedBC(2, None), 3, "boson") == []
    with pytest.raises(ValueError):
        bound_states(diag_hspin(), 1, "boson")


@pytest.mark.parametrize("n,N", [(1, 2), (2, 3), (3, 2), (3, 4)])
def test_sector_basis_is_orthonormal_and_exchange_signed(n, N):
    dims = SpinDims(n, N)
    for sign, dim in ((1, math.comb(n + N - 1, N)), (-1, math.comb(n, N))):
        S = _sector_basis(n, N, sign)
        assert S.shape == (n ** N, dim)
        assert max_abs(S.T @ S - np.eye(dim)) <= 1e-15
        for k in range(2, N + 1):
            for l in range(1, k):
                assert max_abs(exchange_operator(l, k, dims) @ S - sign * S) <= 1e-15


def ordering_sector_basis(n, N, exchange_sign):
    """Reference: each sorted label tuple summed over all N! orderings of its
    labels (signed by the ordering's inversion parity for Λ^N), normalized."""
    orders = np.array(list(itertools.permutations(range(N))), dtype=np.intp)
    weights = 1.0
    if exchange_sign < 0:
        weights = [(-1) ** sum(a > b for a, b in itertools.combinations(o, 2)) for o in orders]
    choose = itertools.combinations_with_replacement if exchange_sign > 0 else itertools.combinations
    labels = np.array(list(choose(range(n), N)), dtype=np.intp).reshape(-1, N)
    flat = labels[:, orders] @ n ** np.arange(N - 1, -1, -1)
    S = np.zeros((n ** N, len(labels)))
    np.add.at(S, (flat, np.arange(len(labels))[:, None]), weights)
    return S / np.linalg.norm(S, axis=0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sector_basis_matches_the_ordering_sum(n):
    """The basis built from the n^N label rows is the N!-ordering sum, bit for bit."""
    for N in range(1, 7):
        for sign in (1, -1):
            assert np.array_equal(_sector_basis(n, N, sign), ordering_sector_basis(n, N, sign))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", [64, 170, 200])
def test_one_spin_component_binds_any_number_of_particles(tmp_path, capsys, N):
    """At n = 1 the spin space stays one-dimensional however many particles
    there are: the sector basis takes its labels from digits, not from an
    N-dimensional index grid (numpy stops at 64 dimensions), and keeps the
    stabiliser size N! (past float from N = 171) as a mantissa, so F = -1
    binds every N at lam = -1 with v = [1], without NaN or a warning."""
    document = tmp_path / "pt2.json"
    document.write_text('{"kind":"scalar_pt_type2","theta":3.141592653589793,"h0":1,"h1":1}')
    for statistics, sign in (("boson", 1), ("fermion", -1)):
        assert cli.main(["bound", str(document), "--particles", str(N), "--statistics", statistics]) == 0
        [state] = json.loads(capsys.readouterr().out)
        assert (state["lambda"], state["v"]) == (-1.0, [[1.0, 0.0]])
        assert state["energy"] == bound_energy(-1.0, N)
        assert state["epsilon"] == [sign] * (N * (N - 1) // 2)


def test_a_spin_space_past_int64_is_refused_before_it_is_built():
    """n^N rows are numbered in int64; past it the digits would wrap, so the
    request is refused by name (2^64 used to fail in np.indices instead)."""
    for n, N in ((2, 64), (3, 40), (10, 19)):
        with pytest.raises(ValueError, match=f"n\\^N = {n}\\^{N} spin components pass the int64"):
            _sector_basis(n, N, 1)
    bc = SeparatedBC(2, -np.eye(4))
    with pytest.raises(ValueError, match="pass the int64 index range"):
        bound_states(bc, 64, "boson")


def test_cached_sector_bases_and_stencils_are_shared_read_only():
    """Both are built once per process; a caller writing into one must fail."""
    cases = ((_sector_basis, (2, 3, 1), lambda S: (S,)),
             (_sector_basis, (3, 3, -1), lambda S: (S,)),
             (_stencil, (2, 999, 1e-3), tuple), (_stencil, (3, 999, 1e-3), tuple))
    for build, args, arrays in cases:
        cached = build(*args)
        assert build(*args) is cached
        for array in arrays(cached):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1
        build.cache_clear()
        fresh = build(*args)
        assert fresh is not cached
        for new, old in zip(arrays(fresh), arrays(cached)):
            assert np.array_equal(new, old)


def complex_coupling_with_bound_sector(rng, lam):
    """Dense complex n=3 coupling F = lam + R (1 - Q x Q), Q the orthogonal
    projector onto a random complex plane U in C^3.  F v = lam v on U x U but
    conj(F) v = lam v only on conj(U) x conj(U), so the bound sector is
    Sym^N(U ∩ conj(U)), a line that no coordinate axis spans."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    proj = np.kron(q @ q.conj().T, q @ q.conj().T)
    r = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    return SeparatedBC(3, lam * np.eye(9) + r @ (np.eye(9) - proj))


def dense_bound_space(bc, N, lam, exchange_sign, tol):
    """Reference: orthonormal nullspace of every pair-exchange block and the
    embedded F, conj(F) blocks of every adjacent pair, all n^N wide."""
    dims = SpinDims(bc.n, N)
    eye = np.eye(dims.total_dim)
    blocks = [exchange_operator(l, k, dims) - exchange_sign * eye
              for k in range(2, N + 1) for l in range(1, k)]
    blocks += [embed_pair(m, j, dims) - lam * eye for j in range(1, N) for m in (bc.F, bc.F.conj())]
    _, sv, vh = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    return vh[sv <= tol].conj().T


def projector(vectors):
    return sum(np.outer(v, v.conj()) for v in vectors)


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_sector_solver_matches_dense_reference(rng, n, N):
    """The sector solve spans the nullspace of the dense n^N-wide stack for every
    (lambda, epsilon); emitted vectors lie in it, all of them at N = 2."""
    if n == 2:
        couplings = [SeparatedBC(2, -0.7 * np.eye(4)),
                     hspin(a=-1.0, b=-1.0, c=0.0, d=0.0, f=-1.0, g=0.0,
                           e1=0.0, e2=0.0, e3=0.0, e4=0.0)]
        couplings += [random_hspin(rng, symmetric=True) for _ in range(2)]
    else:
        couplings = [SeparatedBC(3, -1.3 * np.eye(9))]
        couplings += [complex_coupling_with_bound_sector(rng, lam) for lam in (-0.8, -1.6)]
    nonempty = 0
    for bc in couplings:
        clusters, tol = negative_real_eigenvalues(bc.F)
        for stats, sign in (("boson", 1.0), ("fermion", -1.0)):
            states = bound_states(bc, N, stats)
            assert {s.lam for s in states} <= set(clusters)
            for lam in clusters:
                for eps in (-1, 1):
                    ref = dense_bound_space(bc, N, lam, sign * eps, tol)
                    full = _sector_solutions(bc.F, n, lam, _sector_basis(n, N, sign * eps), tol)
                    emitted = [s.v for s in states if (s.lam, s.epsilon[(2, 1)]) == (lam, eps)]
                    assert len(full) == ref.shape[1]
                    assert max_abs(projector(full) - ref @ ref.conj().T) <= 1e-12
                    assert len(emitted) == (len(full) if N == 2 else min(1, len(full)))
                    for v in emitted:
                        assert max_abs(v - ref @ (ref.conj().T @ v)) <= 1e-10
                    nonempty += bool(emitted)
    assert nonempty > 0


def test_complex_nullspace_basis_is_the_gram_schmidt_of_the_projected_columns(rng):
    """F = lam + R (1 - Q x Q) with Q the projector onto a real plane U in C^3 and R
    complex: the bound sector Sym^2(U) (three dimensions) or Λ^2(U) (one) is closed
    under conjugation, but the complex stack makes the SVD return a complex basis
    of it.  The emitted vectors are still the orthonormal Gram-Schmidt of the
    projections P s_i of the sector columns, which depend on the nullspace only."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    r = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    bc = SeparatedBC(3, -1.3 * np.eye(9) + r @ (np.eye(9) - np.kron(q @ q.T, q @ q.T)))
    (lam,), tol = negative_real_eigenvalues(bc.F)
    states = bound_states(bc, 2, "boson")
    for eps, dim in ((1, 3), (-1, 1)):
        S = _sector_basis(3, 2, eps)
        ref = dense_bound_space(bc, 2, lam, eps, tol)
        expected: list[np.ndarray] = []
        for column in (ref @ (ref.conj().T @ S)).T:
            for e in expected:
                column = column - (e.conj() @ column) * e
            if np.linalg.norm(column) >= 1.0 / np.sqrt(2 * S.shape[1]):
                expected.append(column / np.linalg.norm(column))
        emitted = np.array([s.v for s in states if s.epsilon[(2, 1)] == eps])
        assert len(emitted) == len(expected) == dim
        assert max_abs(emitted.conj() @ emitted.T - np.eye(dim)) <= 1e-12
        for v, e in zip(emitted, expected):
            assert abs(e.conj() @ v) >= 1.0 - 1e-10


def test_canonical_basis_is_ordered_by_occupation():
    """Degenerate solutions come out as the Gram-Schmidt of the projected
    occupation-number vectors in lexicographic order, not as the rotation of
    the nullspace that the SVD happens to return."""
    r = np.sqrt(0.5)
    e00, e01, e11 = np.array([1.0, 0, 0, 0]), np.array([0, r, r, 0]), np.array([0, 0, 0, 1.0])
    w = np.array([r, 0, 0, r])
    cases = [(-np.eye(4), [e00, e01, e11]),
             # lambda = -1 on Sym^2 minus w; the SVD returns e01 first here
             (-np.eye(4) + 3.0 * np.outer(w, w), [np.array([r, 0, 0, -r]), e01])]
    for F, want in cases:
        states = bound_states(SeparatedBC(2, F), 2, "boson")
        symmetric = [s.v for s in states if s.epsilon[(2, 1)] == 1]
        assert len(symmetric) == len(want)
        for v, expected in zip(symmetric, want):
            assert max_abs(v - expected) <= 1e-15


def test_bound_search_stays_in_the_sector():
    """n=3, N=5 solves 21 sector columns, not a stack 243 wide."""
    tracemalloc.start()
    try:
        states = bound_states(SeparatedBC(3, -np.eye(9)), 5, "boson")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [s.epsilon.values() for s in states] == [(1,) * 10]
    assert states[0].parity_residual() <= 1e-12
    assert peak < 2_000_000


def test_bound_states_skip_the_empty_sector(monkeypatch):
    """Λ^3(C^2) has no columns, so only the Sym^3 sector is solved, and each
    statistics finds its one state there."""
    widths = []

    def recorded(F, n, lam, S, tol):
        widths.append(S.shape[1])
        return _sector_solutions(F, n, lam, S, tol)

    monkeypatch.setattr(spectra, "_sector_solutions", recorded)
    found = {stats: [s.epsilon.values() for s in bound_states(SeparatedBC(2, -np.eye(4)), 3, stats)]
             for stats in ("boson", "fermion")}
    assert found == {"boson": [(1, 1, 1)], "fermion": [(-1, -1, -1)]}
    assert widths == [4, 4]


def dense_parity_stack(epsilon: SignPattern, stats: Statistics, dims: SpinDims) -> np.ndarray:
    """Reference: blocks P_kl - sign(statistics) * epsilon_kl * I, n^N wide,
    stacked in `epsilon.pairs` order."""
    eye = np.eye(dims.total_dim, dtype=np.complex128)
    return np.vstack([exchange_operator(l, k, dims) - stats.sign * epsilon[(k, l)] * eye
                      for (k, l) in epsilon.pairs])


@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_parity_residual_matches_dense_reference(rng, n, N):
    """Slot swaps give the dense stack's residual, on vectors outside every
    sector (non-zero residual) and on sector vectors (zero residual)."""
    dims = SpinDims(n, N)
    pairs = SignPattern.uniform(N).pairs
    patterns = [SignPattern.uniform(N, 1), SignPattern.uniform(N, -1)]
    if N > 2:
        patterns.append(SignPattern(N, {p: (-1 if p == pairs[0] else 1) for p in pairs}))
        patterns += [SignPattern(N, dict(zip(pairs, rng.choice((-1, 1), len(pairs)).tolist())))
                     for _ in range(2)]
    for stats in ("boson", "fermion"):
        for pattern in patterns:
            v = rng.normal(size=dims.total_dim) + 1j * rng.normal(size=dims.total_dim)
            state = BoundState(N, -1.0, v, pattern, bound_energy(-1.0, N), stats)
            want = max_abs(dense_parity_stack(pattern, state.statistics, dims) @ state.v)
            assert want > 0.1
            assert abs(state.parity_residual() - want) <= 1e-15
        for eps in (-1, 1):
            sector = _sector_basis(n, N, Statistics(stats).sign * eps)
            for v in sector.T:
                state = BoundState(N, -1.0, v, SignPattern.uniform(N, eps), bound_energy(-1.0, N), stats)
                assert state.parity_residual() == 0.0
                assert max_abs(dense_parity_stack(state.epsilon, state.statistics, dims) @ v) == 0.0


def test_parity_residual_builds_no_dense_exchange():
    """n=3, N=6: 15 slot swaps of a 729-vector, not fifteen 729 x 729 blocks."""
    state = bound_states(SeparatedBC(3, -np.eye(9)), 6, "boson")[0]
    tracemalloc.start()
    try:
        residual = state.parity_residual()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12
    assert peak < 5_000_000


def test_nondegenerate_eigenvalue_fails_on_eigenvalue_stage():
    with pytest.raises(BoundStateNotFound) as excinfo:
        n_particle_bound_state(diag_hspin(), 3, -3.0, SignPattern.uniform(3), "boson")
    assert excinfo.value.reason == "eigenvalue"


def test_dirichlet_fails_on_eigenvalue_stage():
    with pytest.raises(BoundStateNotFound) as excinfo:
        n_particle_bound_state(SeparatedBC(2, None), 3, -1.0,
                               SignPattern.uniform(3), "boson")
    assert excinfo.value.reason == "eigenvalue"


def test_n_particle_input_validation():
    bc = SeparatedBC(2, -np.eye(4))
    with pytest.raises(ValueError):
        n_particle_bound_state(bc, 1, -1.0, SignPattern.uniform(2), "boson")
    for lam in (1.0, 0.0):
        with pytest.raises(ValueError, match="decay rate must be negative"):
            n_particle_bound_state(bc, 3, lam, SignPattern.uniform(3), "boson")
    with pytest.raises(ValueError):
        n_particle_bound_state(bc, 3, -1.0, SignPattern.uniform(2), "boson")


# -- finite-difference verification ------------------------------------------

def test_fd_residual_two_particles():
    states = bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson")
    state = states[0]
    r = verify_bound_state_fd(state, half_width=10.0, spacing=1e-3)
    assert r <= 1e-4
    r_coarse = verify_bound_state_fd(state, half_width=10.0, spacing=2e-3)
    assert 3.5 <= r_coarse / r <= 4.5


def test_fd_residual_three_particles():
    bc = SeparatedBC(2, -2.0 * np.eye(4))
    state = n_particle_bound_state(bc, 3, -2.0, SignPattern.uniform(3), "boson")
    r = verify_bound_state_fd(state, half_width=5.0, spacing=1e-3)
    assert r <= 1e-4
    r_coarse = verify_bound_state_fd(state, half_width=5.0, spacing=2e-3)
    assert 3.5 <= r_coarse / r <= 4.5


def per_axis_fd_residual(state, half_width, spacing):
    """The grid-Laplacian check with the profile evaluated once per stencil arm."""
    N = state.n_particles
    per_axis = {2: 48, 3: 17}[N]
    h, lam = np.longdouble(spacing), np.longdouble(state.lam)
    m_max = int(np.floor(half_width / spacing)) - 1
    cand = np.unique(np.round(np.linspace(-m_max, m_max, per_axis)).astype(np.int64))
    pts = np.stack([g.ravel() for g in np.meshgrid(*([cand] * N), indexing="ij")], axis=1)
    x0 = pts[(np.diff(pts, axis=1) >= 3).all(axis=1)].astype(np.longdouble) * h

    def profile(points):
        total = np.zeros(points.shape[0], dtype=np.longdouble)
        for i in range(1, N):
            for j in range(i):
                total += np.abs(points[:, i] - points[:, j])
        return np.exp(lam * total)

    f0 = profile(x0)
    lap = np.zeros_like(f0)
    for axis in range(N):
        step = np.zeros(N, dtype=np.longdouble)
        step[axis] = h
        lap += (profile(x0 + step) - 2.0 * f0 + profile(x0 - step)) / (h * h)
    return float(np.max(np.abs((-lap - np.longdouble(state.energy) * f0) / f0)))


def test_stacked_fd_check_equals_the_per_axis_reference():
    couplings = (diag_hspin(), SeparatedBC(2, -1.3 * np.eye(4)), SeparatedBC(3, -0.7 * np.eye(9)))
    checked = 0
    for bc in couplings:
        for N in (2, 3):
            for stats in ("boson", "fermion"):
                for state in bound_states(bc, N, stats):
                    for spacing in (1e-3, 4e-3):
                        half_width = 8.0001 / abs(state.lam)
                        assert verify_bound_state_fd(state, half_width, spacing) == \
                            per_axis_fd_residual(state, half_width, spacing)
                        checked += 1
    assert checked >= 80


def test_fd_check_equals_the_reference_across_grids_and_cache_states():
    """The stencil cache is keyed by spacing too, and a warm call equals a cold one."""
    two = bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson")[0]
    _stencil.cache_clear()
    # Both grids have m_max = 9999: a cache keyed without the spacing reuses the first.
    for half_width, spacing in ((10.0, 1e-3), (20.0, 2e-3), (10.0, 1e-3)):
        assert verify_bound_state_fd(two, half_width, spacing) == \
            per_axis_fd_residual(two, half_width, spacing)
    rng = np.random.default_rng(23)
    for N in (2, 3):
        for lam in -rng.uniform(0.3, 3.0, size=6):
            state = BoundState(N, lam, np.eye(2 ** N)[0], SignPattern.uniform(N),
                               bound_energy(lam, N), "boson")
            half_width, spacing = 8.0001 / abs(lam), rng.choice((1e-3, 2e-3, 3e-3))
            _stencil.cache_clear()
            cold = verify_bound_state_fd(state, half_width, spacing)
            assert verify_bound_state_fd(state, half_width, spacing) == cold == \
                per_axis_fd_residual(state, half_width, spacing)


@pytest.mark.parametrize("N, lam", [(2, -1.0), (3, -2.0), (3, -0.7)])
def test_stencil_rows_reproduce_every_center_stencil(N, lam):
    """Each center's 2N+1 stencil arguments, summed point by point, are one cached row."""
    spacing = 1e-3
    m_max = int(np.floor(8.0001 / abs(lam) / spacing)) - 1
    args, rows = _stencil(N, m_max, spacing)
    assert np.all(np.diff(args) > 0)
    h = np.longdouble(spacing)
    cand = np.unique(np.round(np.linspace(-m_max, m_max, {2: 48, 3: 17}[N])).astype(np.int64))
    pts = np.array(list(itertools.product(cand, repeat=N)))
    x0 = pts[(np.diff(pts, axis=1) >= 3).all(axis=1)].astype(np.longdouble) * h
    arms = [np.zeros(N, dtype=np.longdouble)]
    for sign in (1, -1):
        arms += [sign * h * np.eye(N, dtype=np.longdouble)[a] for a in range(N)]
    full = np.array([sum(np.abs(x[:, i] - x[:, j]) for i in range(1, N) for j in range(i))
                     for x in (x0 + arm for arm in arms)])
    at = np.searchsorted(args, full)
    assert np.array_equal(args[at], full)
    center_rows = {tuple(column) for column in at.T}
    assert center_rows == {tuple(column) for column in rows.T}
    assert len(center_rows) == rows.shape[1] < len(x0)


def np_unique_stencil(N, m_max, spacing):
    """The stencil builder deduped with generic np.unique, kept as a reference."""
    per_axis = {2: 48, 3: 17}[N]
    h = np.longdouble(spacing)
    cand = np.unique(np.round(np.linspace(-m_max, m_max, per_axis)).astype(np.int64))
    pts = np.stack([g.ravel() for g in np.meshgrid(*([cand] * N), indexing="ij")], axis=1)
    x0 = pts[(np.diff(pts, axis=1) >= 3).all(axis=1)].astype(np.longdouble) * h
    steps = np.eye(N, dtype=np.longdouble) * h
    points = x0 + np.concatenate([np.zeros((1, N), dtype=np.longdouble), steps, -steps])[:, None, :]
    total = np.zeros(points.shape[:2], dtype=np.longdouble)
    for i in range(1, N):
        for j in range(i):
            total += np.abs(points[..., i] - points[..., j])
    args, index = np.unique(total, return_inverse=True)
    return args, np.unique(index.reshape(total.shape), axis=1)


_STENCIL_M_MAX = sorted({*np.geomspace(20, 3000, 12).astype(int).tolist(), 999, 9999,
                         *(int(8.0001 / abs(lam) / 1e-3) - 1 for lam in (-0.5, -1.0, -2.0, -3.0))})


@pytest.mark.parametrize("N", [2, 3])
def test_stencil_equals_the_np_unique_reference_column_for_column(N):
    """The sort-and-mask dedupe gives np.unique's values, dtypes and column order."""
    for m_max in _STENCIL_M_MAX:
        _stencil.cache_clear()
        args, rows = _stencil(N, m_max, 1e-3)
        want_args, want_rows = np_unique_stencil(N, m_max, 1e-3)
        assert (args.dtype, rows.dtype, rows.shape) == (want_args.dtype, want_rows.dtype, want_rows.shape)
        assert np.array_equal(args, want_args) and np.array_equal(rows, want_rows), m_max


# Runs the bound-state path in a fresh interpreter: argv[1] is the hspin_diag
# fixture, argv[2] an output path; prints whether numpy.ma got imported.
_BOUND_PATH = """
import sys
from ptspin import cli, load_boundary_condition
from ptspin.spectra import bound_states, verify_bound_state_fd
bc = load_boundary_condition(sys.argv[1])
for N in (2, 3):
    states = [s for stats in ("boson", "fermion") for s in bound_states(bc, N, stats)]
    assert verify_bound_state_fd(states[0], 8.0001 / abs(states[0].lam), 1e-3) <= 1e-4
assert cli.main(["--output", sys.argv[2], "bound", sys.argv[1], "--particles", "3"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_bound_state_path_never_imports_numpy_ma(tmp_path):
    """numpy 2.4's np.unique without optional outputs imports numpy.ma; no bound-state step may."""
    fixture = Path(__file__).parent / "fixtures" / "hspin_diag.json"
    proc = subprocess.run([sys.executable, "-c", _BOUND_PATH, str(fixture), str(tmp_path / "out.json")],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")
    assert (tmp_path / "out.json").stat().st_size > 0


def test_fd_degenerate_flat_profile_is_exact():
    state = BoundState(n_particles=2, lam=0.0, v=np.array([1.0, 0, 0, 0]),
                       epsilon=SignPattern.uniform(2), energy=0.0,
                       statistics="boson")
    assert verify_bound_state_fd(state, half_width=10.0, spacing=1e-3) == 0.0


def test_fd_refuses_a_grid_too_fine_to_measure():
    """Below eps^(1/4) of long double the second difference is mostly rounding
    (3.6 at spacing 1e-9); every spacing the tests and the bound search use
    stays accepted, and keeps its O(spacing^2) residual."""
    state = bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson")[0]
    for spacing in (1e-3, 2e-3, 3e-3, 4e-3):
        assert verify_bound_state_fd(state, half_width=10.0, spacing=spacing) <= 0.2 * spacing ** 2
    assert verify_bound_state_fd(state, half_width=10.0, spacing=2 * spectra._FINEST_SPACING) < 1e-7
    for fine in (1e-9, 0.5 * spectra._FINEST_SPACING):
        with pytest.raises(ValueError, match=f"grid too fine: spacing {fine} < "):
            verify_bound_state_fd(state, half_width=10.0, spacing=fine)


@pytest.mark.filterwarnings("error")
def test_fd_rejects_unusable_grids():
    state = bound_states(SeparatedBC(2, -np.eye(4)), 2, "boson")[0]
    with pytest.raises(ValueError, match="coarse"):
        verify_bound_state_fd(state, half_width=10.0, spacing=0.05)
    with pytest.raises(ValueError, match="small"):
        verify_bound_state_fd(state, half_width=2.0, spacing=1e-3)
    with pytest.raises(ValueError, match="spacing must be positive"):
        verify_bound_state_fd(state, half_width=10.0, spacing=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="half_width must be finite"):
            verify_bound_state_fd(state, half_width=bad, spacing=1e-3)
        with pytest.raises(ValueError, match="spacing must be finite"):
            verify_bound_state_fd(state, half_width=10.0, spacing=bad)
    # The extended-precision profile underflows on the widest grid, and the
    # lattice index overflows int64 on the finest ones.
    three = n_particle_bound_state(SeparatedBC(2, -np.eye(4)), 3, -1.0, SignPattern.uniform(3), "boson")
    for wide in (state, three):
        with pytest.raises(ValueError, match="too wide: half_width 6000.0 underflows"):
            verify_bound_state_fd(wide, half_width=6000.0, spacing=1e-3)
    for fine in (1e-300, 5e-324):
        with pytest.raises(ValueError, match=f"too fine: spacing {fine} puts half_width"):
            verify_bound_state_fd(state, half_width=10.0, spacing=fine)

"""Two-body exchange operators and the factorization residual."""
import itertools

import numpy as np
import pytest

from conftest import (braid_scale, dense_braid_sides, dense_complex_coupling, dense_ybe_residual,
                      fresh_y_separated, random_hspin, separated_momenta, sides_scale)
from ptspin import scattering
from ptspin.bethe import bethe_coefficients, path_consistency
from ptspin.boundary import NonseparatedBC, SeparatedBC, delta_type, hspin
from ptspin.linalg import (
    MatrixError,
    SingularMatrixError,
    SpinDims,
    Statistics,
    as_statistics,
    cayley,
    max_abs,
    statistics_swap,
    swap_pair,
)
from ptspin.scattering import (
    braid_defect,
    make_y_factory,
    pair_momenta,
    relative_momentum,
    y_inverse_residual,
    y_nonseparated,
    y_separated,
    ybe_residual,
)


def test_statistics_coercion_and_signs():
    assert as_statistics("boson") is Statistics.BOSON
    assert as_statistics(Statistics.FERMION) is Statistics.FERMION
    assert Statistics.BOSON.sign == 1.0
    assert Statistics.FERMION.sign == -1.0
    with pytest.raises(ValueError):
        as_statistics("anyon")


def test_statistics_swap_signs():
    p = swap_pair(2)
    assert max_abs(statistics_swap(2, "boson") - p) == 0.0
    assert max_abs(statistics_swap(2, "fermion") + p) == 0.0


def test_y_separated_zero_coupling_is_identity():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    assert max_abs(y_separated(bc, 0.7) - np.eye(4)) == 0.0


def test_y_separated_scalar_coupling_frozen_value():
    """F = -identity at k12 = 1 gives the scalar factor (i-1)/(i+1) = i."""
    bc = SeparatedBC(2, -np.eye(4))
    assert max_abs(y_separated(bc, 1.0) - 1j * np.eye(4)) <= 1e-15
    assert np.array_equal(y_separated(bc, np.array(1.0)), y_separated(bc, 1.0))  # 0-d k12


def test_y_separated_dirichlet_limit_is_minus_identity():
    bc = SeparatedBC(2, None)
    assert max_abs(y_separated(bc, 0.3) + np.eye(4)) == 0.0


def test_y_separated_singularity_names_colliding_eigenvalue():
    bc = hspin(a=0.0, b=0.0, c=1.0, d=-1.0, f=0.0, g=0.0,
               e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    with pytest.raises(SingularMatrixError) as excinfo:
        y_separated(bc, 1.0)
    assert "eigenvalue" in str(excinfo.value)
    assert excinfo.value.role == "ik-F"


def test_y_separated_blames_an_eigenvalue_only_within_its_relative_tolerance():
    """ik = 1e6j + 1e-6j lies 1e-6 from the eigenvalue 1e6j, inside its tolerance of about
    1e-4: a collision.  The non-normal F makes i - F near-singular (singular values 1e-7
    and 1e7) at distance 1 from its eigenvalues, so the inverse's message stands."""
    bc = SeparatedBC(2, np.diag([1e6j, -1e6j, 1.0, 2.0]))
    with pytest.raises(SingularMatrixError, match="collide with coupling eigenvalue 1000000j"):
        y_separated(bc, 1e6 + 1e-6)
    non_normal = np.zeros((4, 4), dtype=complex)
    non_normal[0, 1] = 1e7
    non_normal[2, 2], non_normal[3, 3] = -1.0, -2.0
    with pytest.raises(SingularMatrixError, match="singular value") as excinfo:
        y_separated(SeparatedBC(2, non_normal), 1.0)
    assert "collide" not in str(excinfo.value)
    assert excinfo.value.role == "ik-F"


def test_y_nonseparated_free_case_reduces_to_signed_swap():
    free = delta_type(np.zeros((4, 4)), 2)
    for stats, sign in (("boson", 1.0), ("fermion", -1.0)):
        y = y_nonseparated(free, 0.9, stats)
        assert max_abs(y - sign * swap_pair(2)) <= 1e-12


def test_y_nonseparated_delta_closed_form(rng):
    """C = c*identity reduces to (i(k1-k2)P + c) / (i(k1-k2) - c)."""
    p = swap_pair(2)
    for _ in range(10):
        c = float(rng.uniform(0.3, 5.0) * rng.choice([-1.0, 1.0]))
        k1, k2 = separated_momenta(rng, 2)
        kappa = k1 - k2
        bc = delta_type(c * np.eye(4), 2)
        y = y_nonseparated(bc, 0.5 * kappa, "boson")
        closed = (1j * kappa * p + c * np.eye(4)) / (1j * kappa - c)
        assert max_abs(y - closed) <= 1e-12


def test_y_inverse_residual_random_couplings(rng):
    for _ in range(10):
        bc = random_hspin(rng)
        k = float(rng.uniform(0.3, 2.5))
        assert y_inverse_residual(bc, k) <= 1e-12


def test_y_inverse_residual_dirichlet():
    assert y_inverse_residual(SeparatedBC(1, None), 1.0) == 0.0


def test_y_inverse_residual_equals_the_two_call_product(rng):
    """The stacked call for +k and -k gives the residual of one call each, bit for bit."""
    couplings = [SeparatedBC(n, rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))
                 for n in (1, 2, 3) for _ in range(5)] + [random_hspin(rng), SeparatedBC(2, None)]
    for bc in couplings:
        k = float(rng.uniform(-2.5, 2.5))
        product = fresh_y_separated(bc, k) @ fresh_y_separated(bc, -k)
        assert y_inverse_residual(bc, k) == max_abs(product - np.eye(bc.n * bc.n))


@pytest.mark.parametrize("F,k", [(np.array([[1j]]), 1.0), (np.array([[-1j]]), 1.0),
                                 (np.array([[1j]]), -1.0)], ids=["plus", "minus", "negative-k"])
def test_y_inverse_residual_collision_raises_the_scalar_error(F, k):
    """A collision at +k or at -k raises what the failing one-momentum call raises."""
    bc = SeparatedBC(1, F)
    with pytest.raises(SingularMatrixError) as scalar:
        y_separated(bc, k)
        y_separated(bc, -k)
    with pytest.raises(SingularMatrixError) as stacked:
        y_inverse_residual(bc, k)
    assert str(stacked.value) == str(scalar.value)
    assert "eigenvalue" in str(stacked.value)
    assert stacked.value.role == scalar.value.role == "ik-F"
    assert stacked.value.index is scalar.value.index is None


def test_make_y_factory_dispatches_by_form(rng):
    sep = random_hspin(rng)
    fac = make_y_factory(sep)
    assert max_abs(fac(0.8) - y_separated(sep, 0.8)) == 0.0
    nonsep = delta_type(np.eye(4), 2)
    fac2 = make_y_factory(nonsep, "fermion")
    assert max_abs(fac2(0.8) - y_nonseparated(nonsep, 0.8, "fermion")) == 0.0


def test_ybe_residual_scalar_coupling_vanishes(rng):
    for _ in range(5):
        lam = float(rng.uniform(-3.0, -0.2))
        bc = SeparatedBC(2, lam * np.eye(4))
        ks = separated_momenta(rng, 3)
        assert ybe_residual(make_y_factory(bc), *ks, SpinDims(2, 3)) <= 1e-10


def test_ybe_residual_constant_swap_factory_satisfies_braid():
    factory = lambda k12: swap_pair(2)
    assert ybe_residual(factory, 1.0, 0.3, -0.7, SpinDims(2, 3)) == 0.0


def test_ybe_residual_generic_coupling_fails_frozen_witness():
    """The factorization identity genuinely fails off the scalar family."""
    bc = hspin(a=-1.0, b=-2.0, c=0.0, d=0.0, f=-3.0, g=0.0,
               e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    residual = ybe_residual(make_y_factory(bc), 1.0, 0.3, -0.7, SpinDims(2, 3))
    assert residual == pytest.approx(0.1810220798823981, abs=1e-13)


def test_ybe_residual_symmetric_under_momentum_reversal(rng):
    """Reversing (k1,k2,k3) conjugates one side into the other."""
    for _ in range(5):
        bc = random_hspin(rng)
        ks = separated_momenta(rng, 3)
        fac = make_y_factory(bc)
        forward = ybe_residual(fac, *ks, SpinDims(2, 3))
        backward = ybe_residual(fac, ks[2], ks[1], ks[0], SpinDims(2, 3))
        assert forward == pytest.approx(backward, rel=1e-12, abs=1e-14)


EPS = np.finfo(float).eps
# The braid kernel and the dense reference take the same products in other
# orders; they agree to this many times the componentwise scale of the
# triple's braid products.
BRAID_RTOL = 8 * EPS


def test_ybe_residual_calls_the_factory_once_per_pair(rng):
    """One factory call per pair, and the number of the dense reference to
    rounding of the braid products' scale."""
    draws = [(2, make_y_factory(random_hspin(rng))) for _ in range(4)]
    for _ in range(4):
        C = rng.normal(size=(4, 4))
        draws.append((2, make_y_factory(delta_type(C + C.T, 2), rng.choice(["boson", "fermion"]))))
    for _ in range(4):
        F = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        draws.append((3, make_y_factory(SeparatedBC(3, F))))
    for n, factory in draws:
        calls = []

        def counting(k12, factory=factory):
            calls.append(k12)
            return factory(k12)

        ks = separated_momenta(rng, 3)
        residual = ybe_residual(counting, *ks, SpinDims(n, 3))
        assert len(calls) == 3
        want = dense_ybe_residual(factory, *ks, SpinDims(n, 3))
        y12, y13, y23 = (factory(k) for k in pair_momenta(ks))
        assert abs(residual - want) <= BRAID_RTOL * sides_scale(y23, y13, y12, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_braid_kernel_matches_the_dense_reference(rng, n):
    """300 seeded triples of Cayley operators of dense complex couplings.
    At n = 1 the products are of scalars, and complex multiplication
    commutes in floating point, so each side of the kernel is the other
    side of the reference and the max-abs is the same number.  At n = 2
    and 3 the two agree within BRAID_RTOL of the braid products' scale."""
    for _ in range(300):
        coupling = dense_complex_coupling(rng, n)
        momenta = separated_momenta(rng, 3)
        ab, ac, bc = fresh_y_separated(coupling, np.array(pair_momenta(momenta)))
        got = braid_defect(ab[None], ac[None], bc[None], n)
        left, right = dense_braid_sides(ab, ac, bc, n)
        want = max_abs(left - right)
        if n == 1:
            assert got == want
        else:
            assert abs(got - want) <= BRAID_RTOL * braid_scale(coupling, momenta), (got, want)


def test_ybe_residual_requires_three_particles():
    bc = SeparatedBC(2, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        ybe_residual(make_y_factory(bc), 1.0, 0.0, -1.0, SpinDims(2, 2))


# -- the kept stack of y_separated --------------------------------------------

@pytest.fixture
def solves(monkeypatch):
    """Forget the kept stack and count y_separated's Cayley solves (one entry of
    the momentum count per solve)."""
    monkeypatch.setattr(scattering, "_last_stack", None)
    counted = []

    def counting(F, k12, role="ik-F"):
        counted.append(np.size(k12))
        return cayley(F, k12, role)

    monkeypatch.setattr(scattering, "cayley", counting)
    return counted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kept_stack_serves_the_bytes_of_a_fresh_solve(rng, solves, n):
    bc = dense_complex_coupling(rng, n)
    k = rng.uniform(-2.5, 2.5, size=5)
    want = cayley(bc.F, k)
    assert y_separated(bc, k).tobytes() == want.tobytes()
    hits = [y_separated(bc, k), y_separated(bc, k[::-1]), y_separated(bc, k[[3, 1, 3]]),
            y_separated(bc, k[:0])]
    for got, rows in zip(hits, ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [3, 1, 3], [])):
        assert got.shape == (len(rows), n * n, n * n)
        assert got.tobytes() == want[rows].tobytes()
    for entry in k.tolist():
        got = y_separated(SeparatedBC(n, bc.F.copy()), entry)
        assert got.shape == (n * n, n * n)
        assert got.tobytes() == cayley(bc.F, entry).tobytes()
    assert solves == [5]


def test_kept_stack_misses_on_another_coupling_or_momentum(rng, solves):
    bc = dense_complex_coupling(rng, 2)
    k = np.array([0.0, 0.7, -1.3])
    y_separated(bc, k)
    other = SeparatedBC(2, bc.F + np.diag([0, 0, 0, 1e-15]))
    y_separated(other, 0.7)
    y_separated(bc, 0.7 + 2 ** -52)
    y_separated(bc, -0.0)
    y_separated(bc, k)
    y_separated(bc, np.array([0.7, 0.5]))
    assert solves == [3, 1, 1, 1, 2]
    y_separated(bc, np.array([0.5, 0.7]))
    y_separated(bc, 0.0)
    assert solves == [3, 1, 1, 1, 2, 1]


def test_writing_into_a_served_operator_leaves_the_stack(rng, solves):
    bc = dense_complex_coupling(rng, 2)
    k = rng.uniform(-2.0, 2.0, size=3)
    want = cayley(bc.F, k)
    y_separated(bc, k)[...] = 0.0
    y_separated(bc, k)[...] = 0.0
    y_separated(bc, float(k[1]))[...] = 0.0
    assert y_separated(bc, k).tobytes() == want.tobytes()
    assert solves == [3]


def test_singular_stacked_request_keeps_the_stack(solves):
    bc = SeparatedBC(1, np.array([[1j]]))
    kept = y_separated(bc, np.array([0.3, 0.5]))
    errors = []
    for _ in range(2):
        with pytest.raises(SingularMatrixError) as info:
            y_separated(bc, np.array([0.3, 1.0]))
        errors.append(info.value)
    assert str(errors[0]) == str(errors[1])
    assert "eigenvalue" in str(errors[0]) and errors[0].index == errors[1].index == 1
    assert y_separated(bc, np.array([0.5, 0.3])).tobytes() == kept[::-1].tobytes()
    assert solves == [2, 2, 2]


def bethe_task(bc, momenta, u):
    """The exchange-operator work of one Bethe problem, in the order a scan runs it."""
    state = bethe_coefficients(bc, momenta, u, "boson")
    consistency = path_consistency(bc, momenta, u, "boson")
    residual = ybe_residual(make_y_factory(bc), *momenta[:3], SpinDims(bc.n, 3))
    inverse_defect = y_inverse_residual(bc, 0.5 * (momenta[0] - momenta[1]))
    return state.array, consistency, residual, inverse_defect


def test_a_bethe_task_solves_its_exchange_operators_twice(rng, solves):
    """Coefficients, path consistency and YBE share one stack; the inversion
    check solves +-k.  Each output equals the one of a solve per call."""
    bc = dense_complex_coupling(rng, 2)
    momenta = separated_momenta(rng, 4)
    u = rng.normal(size=16) + 1j * rng.normal(size=16)
    shared = bethe_task(bc, momenta, u)
    assert solves == [6, 2]
    fresh = []
    for call in (lambda: bethe_coefficients(bc, momenta, u, "boson").array,
                 lambda: path_consistency(bc, momenta, u, "boson"),
                 lambda: ybe_residual(lambda k: fresh_y_separated(bc, k), *momenta[:3],
                                      SpinDims(2, 3)),
                 lambda: y_inverse_residual(bc, 0.5 * (momenta[0] - momenta[1]))):
        scattering._last_stack = None
        fresh.append(call())
    assert np.array_equal(shared[0], fresh[0]) and shared[1:] == tuple(fresh[1:])


def test_alternating_couplings_solve_once_per_call(rng, solves):
    a, b = dense_complex_coupling(rng, 2), dense_complex_coupling(rng, 2)
    momenta = separated_momenta(rng, 4)
    u = np.eye(16)[0]
    for bc in (a, b):
        bethe_coefficients(bc, momenta, u, "boson")
    for bc in (a, b):
        path_consistency(bc, momenta, u, "boson")
    for bc in (a, b):
        ybe_residual(make_y_factory(bc), *momenta[:3], SpinDims(2, 3))
        y_inverse_residual(bc, 0.5 * (momenta[0] - momenta[1]))
    assert solves == [6, 6, 6, 6, 1, 1, 1, 2, 1, 1, 1, 2]


# -- non-separated couplings ----------------------------------------------------

@pytest.mark.parametrize("bc", [
    NonseparatedBC(2, np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4)),
    delta_type(np.eye(4), 2),
], ids=["connection_matrix", "delta_type"])
@pytest.mark.parametrize("call,what", [
    (lambda bc: y_separated(bc, 0.5), "the Cayley exchange operator"),
    (lambda bc: y_separated(bc, np.array([0.5, -0.5])), "the Cayley exchange operator"),
    (lambda bc: y_inverse_residual(bc, 0.5), "the exchange inversion check"),
], ids=["y_separated", "y_separated_stack", "y_inverse_residual"])
def test_non_separated_coupling_is_refused_by_name(bc, call, what):
    with pytest.raises(TypeError, match=f"^{what} requires a separated boundary condition$"):
        call(bc)


# -- non-finite relative momenta ------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_relative_momentum_is_named(rng, bad):
    for bc in (dense_complex_coupling(rng, 2), SeparatedBC(2, None)):
        with pytest.raises(ValueError, match=r"relative momentum k12 must be finite"):
            y_separated(bc, bad)
        with pytest.raises(ValueError, match=r"relative momentum k12\[1\] must be finite"):
            y_separated(bc, np.array([0.5, bad, 0.2]))
        with pytest.raises(ValueError, match=r"relative momentum k12 must be finite"):
            make_y_factory(bc)(bad)
        with pytest.raises(ValueError, match=r"relative momentum k12 must be finite"):
            y_inverse_residual(bc, bad)
    with pytest.raises(ValueError, match=r"relative momentum k12 must be finite"):
        make_y_factory(delta_type(np.eye(4), 2), "fermion")(bad)


def test_an_overflowing_exchange_operator_is_refused_by_its_momentum(solves):
    """At k12 = 1e308 the factor ik + F (F = 1e308(1+i)) or the inverted
    ik - F (F = -1e308 i) overflows, so the operator would hold NaN; it is
    refused by one message naming the value of k12, with a stack's row as the
    error's index, and the failed solve keeps the stack.  The Bethe passes
    name the momentum pair."""
    message = "the Cayley form at relative momentum k12=1e+308 has non-finite entries"
    for F in (1e308 + 1e308j, -1e308j):
        bc = SeparatedBC(1, np.array([[F]]))
        kept = y_separated(bc, np.array([0.3, 0.5]))
        for k12, index in ((1e308, None), (np.array([0.5, 1e308, 0.2]), 1)):
            with pytest.raises(MatrixError) as info:
                y_separated(bc, k12)
            assert (str(info.value), info.value.index) == (message, index)
            assert not isinstance(info.value, SingularMatrixError)
        for run in (bethe_coefficients, path_consistency):
            with pytest.raises(ValueError) as info:
                run(bc, [1e308, -1e308, 0.0], np.ones(1), "boson")
            assert str(info.value) == f"momentum pair (1,2) gives a non-finite exchange operator: {message}"
        assert y_separated(bc, np.array([0.5, 0.3])).tobytes() == kept[::-1].tobytes()


@pytest.mark.parametrize("count", range(2, 10))
def test_pair_momenta_list_every_pair_in_lexicographic_order(rng, count):
    momenta = rng.uniform(-3.0, 3.0, count).tolist()
    want = [relative_momentum(a, b) for a, b in itertools.combinations(momenta, 2)]
    assert pair_momenta(momenta) == want
    assert pair_momenta(tuple(momenta)) == want


def test_relative_momenta_beyond_one_axis_are_refused(rng):
    with pytest.raises(ValueError, match="1-D"):
        y_separated(dense_complex_coupling(rng, 2), np.zeros((2, 2)))

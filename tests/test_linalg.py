"""Tensor-product plumbing and JSON codecs."""
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import embed_pair, exchange_operator
from ptspin.linalg import (
    SingularMatrixError,
    SpinDims,
    apply_pair,
    as_operator,
    cayley,
    complex_from_json,
    complex_to_json,
    inverse,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    permutation_sign,
    permute_slots,
    swap_pair,
    vector_from_json,
    vector_to_json,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_spin_dims_products():
    dims = SpinDims(2, 3)
    assert dims.pair_dim == 4
    assert dims.total_dim == 8


@pytest.mark.parametrize("n,N", [(0, 2), (2, 0), (-1, 3)])
def test_spin_dims_rejects_degenerate_shapes(n, N):
    with pytest.raises(ValueError):
        SpinDims(n, N)


def test_as_operator_coerces_nested_lists():
    m = as_operator([[1, 2], [3, 4]], "test")
    assert m.dtype == np.complex128
    assert m[1, 0] == 3 + 0j


def test_as_operator_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        as_operator([[1, 2, 3], [4, 5, 6]], "test")
    with pytest.raises(ValueError):
        as_operator([[np.inf, 0], [0, 1]], "test")
    with pytest.raises(ValueError):
        as_operator([1, 2, 3], "test")


def test_max_abs_complex_entries():
    assert max_abs(np.array([[3 + 4j, 0], [0, 1]])) == 5.0


def test_swap_pair_is_a_symmetric_involution():
    p = swap_pair(3)
    assert max_abs(p @ p - np.eye(9)) == 0.0
    assert max_abs(p - p.T) == 0.0


def test_swap_pair_conjugates_kron_factors(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    p = swap_pair(3)
    assert max_abs(p @ np.kron(a, b) @ p - np.kron(b, a)) < 1e-14


def test_exchange_operator_adjacent_pair_matches_swap_pair():
    """swap_pair is the dense reference's complex128 matrix, entry for entry."""
    for n in range(1, 5):
        p = swap_pair(n)
        assert p.dtype == np.complex128
        assert np.array_equal(p, exchange_operator(1, 2, SpinDims(n, 2)))


def test_exchange_operator_moves_basis_indices():
    """p^{13} e_{a} x e_{b} x e_{c} = e_{c} x e_{b} x e_{a}, elementwise."""
    dims = SpinDims(2, 3)
    op = exchange_operator(1, 3, dims)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                src = np.zeros(8)
                src[(a * 2 + b) * 2 + c] = 1.0
                out = op @ src
                expected = np.zeros(8)
                expected[(c * 2 + b) * 2 + a] = 1.0
                assert max_abs(out - expected) == 0.0


def test_exchange_operator_is_involutive(rng):
    dims = SpinDims(3, 3)
    op = exchange_operator(2, 3, dims)
    assert max_abs(op @ op - np.eye(dims.total_dim)) == 0.0


def test_embed_pair_edges_are_plain_krons(rng):
    dims = SpinDims(2, 3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_abs(embed_pair(m, 1, dims) - np.kron(m, np.eye(2))) == 0.0
    assert max_abs(embed_pair(m, 2, dims) - np.kron(np.eye(2), m)) == 0.0


def test_embed_pair_of_identity_is_identity():
    dims = SpinDims(2, 4)
    assert max_abs(embed_pair(np.eye(4), 2, dims) - np.eye(16)) == 0.0


@pytest.mark.parametrize("n,N", [(2, 2), (2, 4), (3, 3)])
def test_apply_pair_matches_embedded_operator(rng, n, N):
    """The slot-local product equals the dense embedded operator on every slot,
    for a vector and for a matrix acted on along axis 0; on the identity it
    equals the embedded operator entry for entry."""
    dims = SpinDims(n, N)
    m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    vector = rng.normal(size=dims.total_dim) + 1j * rng.normal(size=dims.total_dim)
    matrix = rng.normal(size=(dims.total_dim, 5)) + 1j * rng.normal(size=(dims.total_dim, 5))
    eye = np.eye(dims.total_dim, dtype=np.complex128)
    for j in range(1, N):
        dense = embed_pair(m, j, dims)
        assert (apply_pair(m, j, eye, n) == dense).all()
        for t in (vector, matrix):
            got = apply_pair(m, j, t, n)
            assert got.shape == t.shape
            assert max_abs(got - dense @ t) <= 1e-13


@pytest.mark.parametrize("n,N", [(2, 3), (3, 3), (2, 4)])
def test_permute_slots_transpositions_match_exchange_operator(rng, n, N):
    dims = SpinDims(n, N)
    vector = rng.normal(size=dims.total_dim) + 1j * rng.normal(size=dims.total_dim)
    matrix = rng.normal(size=(dims.total_dim, 3)) + 1j * rng.normal(size=(dims.total_dim, 3))
    for i, j in itertools.combinations(range(1, N + 1), 2):
        order = np.arange(N)
        order[[i - 1, j - 1]] = j - 1, i - 1
        for t in (vector, matrix):
            assert (permute_slots(t, order, n) == exchange_operator(i, j, dims) @ t).all()


def test_permute_slots_reindexes_and_composes(rng):
    """result[a] = t[a_order], so permuting by p and then by q is permuting by q[p]."""
    n, N = 2, 4
    t = rng.normal(size=n ** N)
    tensor = t.reshape((n,) * N)
    orders = [np.array(o) for o in itertools.permutations(range(N))]
    for order in orders:
        got = permute_slots(t, order, n).reshape((n,) * N)
        for a in itertools.product(range(n), repeat=N):
            assert got[a] == tensor[tuple(a[k] for k in order)]
    for p, q in itertools.product(orders[::5], orders[::7]):
        assert (permute_slots(permute_slots(t, p, n), q, n) == permute_slots(t, q[p], n)).all()


@pytest.mark.parametrize("N", range(1, 7))
def test_permutation_sign_is_the_inversion_parity(N):
    orders = list(itertools.permutations(range(N)))
    want = [(-1) ** sum(a > b for a, b in itertools.combinations(o, 2)) for o in orders]
    assert permutation_sign(np.array(orders)).tolist() == want
    assert [int(permutation_sign(o)) for o in orders] == want


def test_inverse_matches_reference(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert max_abs(inverse(m, role="test") @ m - np.eye(5)) < 1e-10


def test_inverse_flags_singular_input_with_role():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as excinfo:
        inverse(m, role="outer bracket")
    assert excinfo.value.role == "outer bracket"


def test_stacked_inverse_and_cayley_equal_one_call_per_matrix(rng):
    stack = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    assert all(a.tobytes() == inverse(m).tobytes() for a, m in zip(inverse(stack), stack))
    k = rng.normal(size=6)
    F = stack[0]
    assert all(a.tobytes() == cayley(F, float(kk)).tobytes() for a, kk in zip(cayley(F, k), k))
    stack[2] = stack[4] = [[1.0, 2.0, 0, 0], [2.0, 4.0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(SingularMatrixError) as excinfo:
        inverse(stack, role="test")
    with pytest.raises(SingularMatrixError) as alone:
        inverse(stack[2], role="test")
    assert (str(excinfo.value), excinfo.value.role, excinfo.value.index) == \
        (str(alone.value), "test", 2)
    assert alone.value.index is None
    with pytest.raises(ValueError, match="non-finite"):
        inverse(np.full((2, 3, 3), np.nan))


@given(re=finite_floats, im=finite_floats)
def test_complex_json_roundtrip(re, im):
    z = complex(re, im)
    assert complex_from_json(complex_to_json(z)) == z


def test_vector_json_roundtrip(rng):
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    back = vector_from_json(vector_to_json(v))
    assert max_abs(back - v) == 0.0


def test_matrix_json_roundtrip_bit_exact(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(matrix_to_json(m))
    assert (back == m).all()


def test_array_codecs_match_the_scalar_codec_byte_for_byte(rng):
    """Whole-array encoding prints exactly what per-entry encoding printed,
    signed zeros and subnormals included."""
    m = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    m[0, :3] = [-0.0, complex(0.0, -0.0), complex(5e-324, -2.2e-308)]
    m[1, 0] = complex(1e308, -1e-300)
    for a, encode in ((m, matrix_to_json), (m[0], vector_to_json), (m[:, 1], vector_to_json)):
        cells = np.vectorize(complex_to_json, otypes=[object])(a).tolist()
        assert json.dumps(encode(a)) == json.dumps(cells)
    with pytest.raises(ValueError, match="vector must be 1-dimensional"):
        vector_to_json(m)
    with pytest.raises(ValueError, match="matrix must be 2-dimensional"):
        matrix_to_json(m[0])


def test_json_decoders_reject_malformed_cells():
    with pytest.raises(ValueError):
        complex_from_json([1.0])
    with pytest.raises(ValueError):
        complex_from_json([True, 0.0])
    with pytest.raises(ValueError):
        vector_from_json([[1.0, 0.0], [1.0]])
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

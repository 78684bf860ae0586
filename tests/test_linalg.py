"""Tensor-product plumbing and JSON codecs."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptspin.linalg import (
    SingularMatrixError,
    SpinDims,
    as_operator,
    complex_from_json,
    complex_to_json,
    embed_pair,
    exchange_operator,
    inverse,
    matrix_from_json,
    matrix_to_json,
    max_abs,
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
    dims = SpinDims(2, 2)
    assert max_abs(exchange_operator(1, 2, dims) - swap_pair(2)) == 0.0


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


def test_exchange_operator_rejects_bad_indices():
    dims = SpinDims(2, 3)
    with pytest.raises(IndexError):
        exchange_operator(0, 2, dims)
    with pytest.raises(IndexError):
        exchange_operator(1, 4, dims)
    with pytest.raises(ValueError):
        exchange_operator(2, 2, dims)


def test_embed_pair_edges_are_plain_krons(rng):
    dims = SpinDims(2, 3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_abs(embed_pair(m, 1, dims) - np.kron(m, np.eye(2))) == 0.0
    assert max_abs(embed_pair(m, 2, dims) - np.kron(np.eye(2), m)) == 0.0


def test_embed_pair_of_identity_is_identity():
    dims = SpinDims(2, 4)
    assert max_abs(embed_pair(np.eye(4), 2, dims) - np.eye(16)) == 0.0


def test_embed_pair_rejects_out_of_range_slot():
    dims = SpinDims(2, 3)
    with pytest.raises(IndexError):
        embed_pair(np.eye(4), 3, dims)
    with pytest.raises(IndexError):
        embed_pair(np.eye(4), 0, dims)


def test_inverse_matches_reference(rng):
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert max_abs(inverse(m, role="test") @ m - np.eye(5)) < 1e-10


def test_inverse_flags_singular_input_with_role():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as excinfo:
        inverse(m, role="outer bracket")
    assert excinfo.value.role == "outer bracket"


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


def test_json_decoders_reject_malformed_cells():
    with pytest.raises(ValueError):
        complex_from_json([1.0])
    with pytest.raises(ValueError):
        complex_from_json([True, 0.0])
    with pytest.raises(ValueError):
        vector_from_json([[1.0, 0.0], [1.0]])
    with pytest.raises(ValueError):
        matrix_from_json([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])

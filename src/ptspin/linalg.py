"""Dense complex matrix utilities for pair-coupled spin systems.

Tensor-product bases are ordered lexicographically with the first factor most
significant: the flat index of e_{a1} x ... x e_{aN} is sum_j a_j * n**(N-j)
for 0-based component labels a_j.  Particle/slot indices in the public API are
1-based, matching the physics conventions used throughout the package.
`apply_pair`, `permute_slots` and `permutation_sign` are this layout's one home.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
SINGULARITY_RTOL = 1e-12

__all__ = [
    "DEFAULT_TOL",
    "SINGULARITY_RTOL",
    "MatrixError",
    "SingularMatrixError",
    "SpinDims",
    "Statistics",
    "as_statistics",
    "statistics_swap",
    "as_operator",
    "as_pair_operator",
    "as_tolerance",
    "max_abs",
    "swap_pair",
    "apply_pair",
    "permute_slots",
    "permutation_sign",
    "inverse",
    "cayley",
    "complex_to_json",
    "complex_from_json",
    "vector_to_json",
    "vector_from_json",
    "matrix_to_json",
    "matrix_from_json",
]


class MatrixError(ValueError):
    """A refused matrix; index is its position in a stack of matrices, else None."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SingularMatrixError(MatrixError):
    """Inversion refused: smallest singular value below SINGULARITY_RTOL times the largest."""

    def __init__(self, message: str, role: str = "matrix", index: int | None = None):
        super().__init__(message, index)
        self.role = role


@dataclass(frozen=True)
class SpinDims:
    """Spin multiplicity n per particle and particle count N."""

    n: int
    N: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"spin dimension must be positive, got n={self.n}")
        if self.N < 1:
            raise ValueError(f"particle count must be positive, got N={self.N}")

    @property
    def pair_dim(self) -> int:
        return self.n * self.n

    @property
    def total_dim(self) -> int:
        return self.n**self.N


def as_operator(values, role: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries (with stack, a (P, d, d) stack)."""
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2 + stack or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{role} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{role} has non-finite entries")
    return m


def as_pair_operator(values, role: str, n: int) -> np.ndarray:
    """The one rule for a pair operator: values as a finite n^2 x n^2 matrix, n >= 1."""
    d = SpinDims(n, 1).pair_dim
    m = as_operator(values, role)
    if m.shape != (d, d):
        raise ValueError(f"{role} must be {d}x{d} for n={n}, got {m.shape}")
    return m


def as_tolerance(tol) -> float:
    """Coerce a decision tolerance to float; it must be positive and finite."""
    tol = float(tol)
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol


def max_abs(m) -> float:
    """Entrywise max-abs norm, the residual norm used across the package."""
    a = np.asarray(m)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def swap_pair(n: int) -> np.ndarray:
    """Permutation operator p on C^n x C^n with p(e_a x e_b) = e_b x e_a."""
    return permute_slots(np.eye(SpinDims(n, 2).pair_dim, dtype=np.complex128), (1, 0), n)


class Statistics(enum.Enum):
    """Exchange statistics of the identical particles."""

    BOSON = "boson"
    FERMION = "fermion"

    @property
    def sign(self) -> float:
        return 1.0 if self is Statistics.BOSON else -1.0


def as_statistics(statistics) -> Statistics:
    if isinstance(statistics, Statistics):
        return statistics
    try:
        return Statistics(statistics)
    except ValueError:
        raise ValueError(
            f"unknown statistics {statistics!r}; expected 'boson' or 'fermion'"
        ) from None


def statistics_swap(n: int, statistics) -> np.ndarray:
    """Statistics-signed pair exchange: +p for bosons, -p for fermions."""
    return as_statistics(statistics).sign * swap_pair(n)


def apply_pair(m: np.ndarray, j: int, t: np.ndarray, n: int) -> np.ndarray:
    """Apply the n^2 x n^2 operator m to slots (j, j+1) (1-based j) of t along axis 0."""
    return np.matmul(m, t.reshape(n ** (j - 1), n * n, -1)).reshape(t.shape)


def permute_slots(t: np.ndarray, order, n: int) -> np.ndarray:
    """result[a_1..a_N] = t[a_order(1)..a_order(N)] on axis 0; order is 0-based, N = len(order).

    Slot order[i] of the result is slot i of t, so the result is one
    transpose of the slot axes by the inverse of order.
    """
    N = len(order)
    tensor = t.reshape((n,) * N + t.shape[1:])
    axes = np.argsort(order).tolist() + list(range(N, tensor.ndim))
    return tensor.transpose(axes).reshape(t.shape)


@functools.cache
def _slot_pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions (i, j), i < j, of every pair of N slots, read-only to share from the cache."""
    pairs = np.triu_indices(N, 1)
    for positions in pairs:
        positions.flags.writeable = False
    return pairs


def permutation_sign(orders) -> np.ndarray:
    """+1 or -1 by the parity of the inversion count of each row of orders."""
    orders = np.asarray(orders)
    first, second = _slot_pairs(orders.shape[-1])
    inversions = (orders[..., first] > orders[..., second]).sum(axis=-1)
    return 1 - 2 * (inversions & 1)


def inverse(m, role: str = "matrix") -> np.ndarray:
    """Matrix inverse guarded by a singular-value ratio check.

    m is one matrix or a (P, d, d) stack.  Each matrix of a stack is checked
    and inverted on its own (LAPACK runs once per matrix), so the result
    equals one call per matrix; the first singular one is refused, with its
    position as the error's index.
    """
    stack = np.ndim(m) == 3
    m = as_operator(m, role, stack)
    sv = np.linalg.svd(m, compute_uv=False)
    for index, values in enumerate(sv.reshape(-1, m.shape[-1]).tolist()):
        largest, smallest = values[0], values[-1]
        if largest == 0.0 or smallest < SINGULARITY_RTOL * largest:
            raise SingularMatrixError(
                f"{role} is singular or near-singular "
                f"(smallest/largest singular value {smallest:.3e}/{largest:.3e})",
                role=role,
                index=index if stack else None,
            )
    return np.linalg.inv(m)


def cayley(F, k12, role: str = "ik-F") -> np.ndarray:
    """Cayley form (ik - F)^-1 (ik + F) of a square matrix F at k = k12.

    A 1-D array k12 gives the (P, d, d) stack of the forms at its entries
    from one stacked `inverse`.  role names the inverted matrix ik - F in a
    SingularMatrixError.  A form with non-finite entries (ik - F, the factor
    ik + F or the product overflowing) is refused with a MatrixError naming
    its k12, with its position in the stack as the index.
    """
    if isinstance(k12, np.ndarray):
        ik = 1j * k12.astype(np.float64)[..., None, None]
    else:
        ik = 1j * float(k12)
    eye = np.eye(F.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        minus = ik * eye - F
        y = inverse(minus, role=role) @ (ik * eye + F) if np.isfinite(minus).all() else minus
    finite = np.isfinite(y).reshape(-1, F.size).all(axis=1)
    if not finite.all():
        index = int(finite.argmin())
        raise MatrixError(f"the Cayley form at relative momentum k12={float(np.ravel(k12)[index])!r} "
                          f"has non-finite entries", index=index if y.ndim == 3 else None)
    return y


def complex_to_json(z) -> list[float]:
    """Encode one complex scalar as [re, im]."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_from_json(obj) -> complex:
    """Decode a [re, im] pair into a complex scalar."""
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in obj)
    ):
        raise ValueError(f"complex scalar must be a [re, im] number pair, got {obj!r}")
    return complex(float(obj[0]), float(obj[1]))


def vector_to_json(v) -> list[list[float]]:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"vector must be 1-dimensional, got shape {v.shape}")
    return np.stack((v.real, v.imag), -1).tolist()


def vector_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty array of [re, im] pairs")
    return np.array([complex_from_json(entry) for entry in obj], dtype=np.complex128)


def matrix_to_json(m) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {m.shape}")
    return np.stack((m.real, m.imag), -1).tolist()


def matrix_from_json(obj) -> np.ndarray:
    """Decode an array of rows of [re, im] pairs; rows must be equal length."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("matrix must be a non-empty array of rows")
    rows = []
    for row in obj:
        if not isinstance(row, list) or not row:
            raise ValueError("matrix rows must be non-empty arrays")
        rows.append([complex_from_json(entry) for entry in row])
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows have inconsistent lengths")
    return np.array(rows, dtype=np.complex128)

"""Two-particle exchange operators and the numerical Yang-Baxter check.

The exchange operator Y maps the incoming spin coefficient of a two-particle
plane-wave state to the reflected/transmitted one across the coincidence
plane.  Separated couplings give Y(k) = (ik - F)^-1 (ik + F); the general
connection-matrix form is obtained by eliminating the outgoing coefficient
from the two interface conditions.

Whether Y satisfies the Yang-Baxter equation for a given coupling family is
measured, not assumed: `ybe_residual` reports the defect for any factory.

`y_separated` keeps the operators of its last successful stacked solve, keyed
by the coupling's bytes and the exact values of its relative momenta, and
serves later requests whose momenta are all in it from a copy.  So one Bethe
problem solves its exchange operators once: the coefficients, the path
consistency and a YBE check on its momenta share one stack.  The next stacked
solve replaces it; nothing longer-lived is kept, so repeating a computation
is not made cheaper, only the sharing inside one.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .boundary import NonseparatedBC, SeparatedBC, lower, require_separated
from .linalg import (
    DEFAULT_TOL,
    SingularMatrixError,
    SpinDims,
    Statistics,
    apply_pair,
    as_pair_operator,
    as_statistics,
    cayley,
    inverse,
    max_abs,
    statistics_swap,
)

__all__ = [
    "relative_momentum",
    "y_separated",
    "y_nonseparated",
    "y_inverse_residual",
    "make_y_factory",
    "pair_momenta",
    "ybe_residual",
]


def relative_momentum(k_a: float, k_b: float) -> float:
    """Relative momentum (k_a - k_b)/2 as 0.5*k_a - 0.5*k_b: finite for every finite pair,
    and 0.5*(k_a - k_b) bit for bit wherever that is finite and no half is subnormal."""
    return 0.5 * k_a - 0.5 * k_b


# The last successful stacked solve of `y_separated`:
# (coupling bytes, {float.hex() of k12: row}, (P, n^2, n^2) operators).  It is
# replaced by one assignment and read once per call, so a concurrent caller
# sees one whole stack or the other.
_last_stack: tuple[bytes, dict[str, int], np.ndarray] | None = None


def _finite(k12: float, index: int | None = None) -> float:
    """k12 itself if finite, else a ValueError naming it (with its index in a stack)."""
    if not math.isfinite(k12):
        where = "" if index is None else f"[{index}]"
        raise ValueError(f"relative momentum k12{where} must be finite, got {k12!r}")
    return k12


def y_separated(bc: SeparatedBC, k12) -> np.ndarray:
    """Exchange operator (ik - F)^-1 (ik + F) at relative momentum k12.

    The Dirichlet member has no finite coupling matrix and yields the constant
    limit Y = -identity.  A singular ik - F names a collision with the nearest
    eigenvalue only within DEFAULT_TOL * (1 + |eigenvalue|); else the inverse's message stands.
    A 1-D array k12 gives the (P, n^2, n^2) stack of the operators at its
    entries from one stacked inverse, equal to one call per entry; the first
    singular entry raises what its own call raises, and an overflowing
    operator the MatrixError of `cayley`, each with the entry's position as
    the error's index.  A non-finite k12 (or entry) is refused with a ValueError,
    and a coupling that does not lower to a SeparatedBC with a TypeError
    (`require_separated`).

    The operators of the last successful stacked solve are kept, keyed by
    F's bytes and the exact value of each k12 (`float.hex`, so -0.0 is not 0.0).
    A request, number or stack, for the same F whose momenta are all in that
    stack gets a copy of those rows, the bytes the solve would give.  Any
    other stacked request is solved and replaces the stack; a number that
    misses, or a failed solve, leaves it as it was.  Only one stack is held,
    so what is shared is one problem's operators (a Bethe problem's
    coefficients, path consistency and YBE checks), not solves repeated
    across problems.
    """
    global _last_stack
    bc = require_separated(bc, "the Cayley exchange operator")
    stacked = isinstance(k12, np.ndarray) and k12.ndim > 0
    if stacked:
        if k12.ndim > 1:
            raise ValueError(f"relative momentum k12 must be a number or a 1-D array, "
                             f"got shape {k12.shape}")
        entries = k12.astype(np.float64).tolist()
        for index, entry in enumerate(entries):
            _finite(entry, index)
    else:
        entries = [_finite(float(k12))]
    if bc.dirichlet:
        d = bc.n * bc.n
        return np.broadcast_to(-np.eye(d, dtype=np.complex128), np.shape(k12) + (d, d)).copy()
    coupling = bc.F.tobytes()
    keys = [entry.hex() for entry in entries]
    last = _last_stack
    if last is not None and last[0] == coupling:
        rows = [last[1].get(key) for key in keys]
        if None not in rows:
            return last[2][rows] if stacked else last[2][rows[0]].copy()
    try:
        y = cayley(bc.F, k12)
    except SingularMatrixError as exc:
        if exc.index is not None:
            k12 = float(k12[exc.index])
        eigenvalues = np.linalg.eigvals(bc.F)
        ik = 1j * float(k12)
        nearest = complex(eigenvalues[int(np.argmin(np.abs(eigenvalues - ik)))])
        if abs(ik - nearest) > DEFAULT_TOL * (1.0 + abs(nearest)):
            raise
        raise SingularMatrixError(
            f"relative momentum k12={k12!r} makes ik collide with coupling "
            f"eigenvalue {nearest!r}",
            role="ik-F",
            index=exc.index,
        ) from None
    if stacked:
        _last_stack = (coupling, dict(zip(keys, range(len(keys)))), y.copy())
    return y


def y_nonseparated(bc: NonseparatedBC, k12: float, statistics) -> np.ndarray:
    """Exchange operator for connection-matrix boundary conditions.

    Eliminating the outgoing coefficient from the two interface conditions
    gives, with R_A = (A - ik B)^-1 and R_C = (C - ik D)^-1 and the
    statistics-signed exchange P,

        Y = [R_A - ik R_C]^-1 [R_A (A + ik B) P - R_C (C + ik D) P - R_A - ik R_C].
    """
    ik = 1j * _finite(float(k12))
    p = statistics_swap(bc.n, statistics)
    r_a = inverse(bc.A - ik * bc.B, role="A-ik*B")
    r_c = inverse(bc.C - ik * bc.D, role="C-ik*D")
    outer = inverse(r_a - ik * r_c, role="outer bracket")
    bracket = (
        r_a @ (bc.A + ik * bc.B) @ p
        - r_c @ (bc.C + ik * bc.D) @ p
        - r_a
        - ik * r_c
    )
    return outer @ bracket


def y_inverse_residual(bc: SeparatedBC, k12: float) -> float:
    """Defect of the exchange inversion identity Y(k) Y(-k) = identity.

    Y(k) and Y(-k) come from one stacked call, equal to one call each; a
    singular ik - F raises what the first failing call would raise.
    """
    bc = require_separated(bc, "the exchange inversion check")
    k12 = _finite(float(k12))
    try:
        y_plus, y_minus = y_separated(bc, np.array([k12, -k12]))
    except SingularMatrixError as exc:
        raise SingularMatrixError(str(exc), role=exc.role) from None
    return max_abs(y_plus @ y_minus - np.eye(bc.n * bc.n))


def make_y_factory(bc, statistics=Statistics.BOSON) -> Callable[[float], np.ndarray]:
    """Uniform factory interface k12 -> Y for either boundary-condition form (after `lower`)."""
    bc = lower(bc)
    if isinstance(bc, SeparatedBC):
        return lambda k12: y_separated(bc, k12)
    if isinstance(bc, NonseparatedBC):
        stats = as_statistics(statistics)
        return lambda k12: y_nonseparated(bc, k12, stats)
    raise TypeError(f"no exchange-operator factory for {type(bc).__name__}")


def pair_momenta(momenta) -> list[float]:
    """The relative momenta k_alpha_beta of every pair alpha < beta, in
    lexicographic order (k12, k13, ..., k23, ...): the rows of a Bethe
    problem's operator stack, and for three momenta the k12, k13, k23 at
    which `ybe_residual` calls its factory.  A separated coupling can solve
    them as one stack first, and later calls are then served from the kept
    stack."""
    return [relative_momentum(a, b) for a, b in itertools.combinations(momenta, 2)]


def ybe_residual(yfactory: Callable[[float], np.ndarray], k1: float, k2: float,
                 k3: float, dims: SpinDims) -> float:
    """Yang-Baxter defect of a pair-exchange factory on three particles.

    With Y^m(k) the factory output applied at adjacent slot m of (C^n)^3
    (`apply_pair` on the n^3 identity) and kij = (ki - kj)/2, returns the
    entrywise max-abs of

        Y^1(k12) Y^2(k13) Y^1(k23) - Y^2(k23) Y^1(k13) Y^2(k12).

    The factory is called once per momentum pair, and each output must be a
    finite n^2 x n^2 matrix (`as_pair_operator`).
    """
    if dims.N != 3:
        raise ValueError(f"the consistency check is a three-particle identity, got N={dims.N}")
    n = dims.n
    eye = np.eye(dims.total_dim, dtype=np.complex128)
    outputs = [yfactory(k12) for k12 in pair_momenta((k1, k2, k3))]
    y12, y13, y23 = (as_pair_operator(y, "pair operator", n) for y in outputs)

    def at(y, j):
        return apply_pair(y, j, eye, n)

    left = at(y12, 1) @ at(y13, 2) @ at(y23, 1)
    right = at(y23, 2) @ at(y13, 1) @ at(y12, 2)
    return max_abs(left - right)

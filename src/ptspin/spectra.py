"""Spectral classification of the coupling matrix and bound-state construction.

A separated interaction with coupling F binds particles through real negative
eigenvalues: the profile exp(lam * sum_{i>j} |x_i - x_j|) solves the free
equation away from coincidence planes and meets the interface conditions
exactly when F v = lam v and conj(F) v = lam v on every adjacent pair (they
coincide for real F).  The spin vector must also be a joint eigenvector of
every pair exchange with one common sign, so it lies in Sym^N(C^n) or
Λ^N(C^n); an empty sector (a non-uniform SignPattern, or Λ^N with n < N) is
the "parity" failure.  Bound states are solved inside the sector, in
C(n+N-1, N) or C(n, N) dimensions instead of n^N, where pair (1, 2) implies
every pair, and the solutions get a canonical basis in occupation-number
order (`_sector_solutions`).  N = 2 emits every basis vector, N >= 3 the
first one per sign.  The independent check `BoundState.parity_residual`
applies each pair exchange as a slot swap (`linalg.permute_slots`).

`verify_bound_state_fd` is an independent check: it differentiates nothing
analytically, it just applies a second-order grid Laplacian to the decay
profile inside one ordering region and compares against the stored energy.
The profile depends on a stencil point only through sum_{i>j} |x_i - x_j|, so
it is evaluated once per distinct value of that sum on the (2N+1)-point
stencil and read back for every center.

Cached per process, as read-only arrays in bounded caches: the sector basis
per (n, N, sign), and the FD stencil's distinct profile arguments with one
index row per distinct center stencil, per (N, grid half-width, spacing).
Both builders dedupe by sorting: np.unique only ever runs with
return_inverse, and repeats in an already sorted array are dropped with one
np.diff mask.  numpy 2.4's np.unique without an optional output calls
np.ma.is_masked, which imports numpy.ma (about 13 ms and 1 MB), so no path of
this package imports it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .boundary import SeparatedBC, require_separated
from .linalg import (
    DEFAULT_TOL,
    Statistics,
    apply_pair,
    as_operator,
    as_statistics,
    as_tolerance,
    max_abs,
    permutation_sign,
    permute_slots,
)

__all__ = [
    "SignPattern",
    "BoundStateNotFound",
    "SpectrumReport",
    "BoundState",
    "classify_spectrum",
    "negative_real_eigenvalues",
    "two_particle_bound_states",
    "n_particle_bound_state",
    "bound_states",
    "bound_energy",
    "verify_bound_state_fd",
]


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


class BoundStateNotFound(LookupError):
    """No admissible spin vector exists; `reason` states which condition failed.

    reason is "parity" when no vector has the requested exchange signs at all,
    and "eigenvalue" when the parity sector is non-empty but the coupling
    eigenvalue conditions cut it down to zero.
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues split into numerically-real and complex parts.

    eigenvalues holds all of them sorted by (Re, Im); real_subset are those
    with |Im| <= tol; complex_pairs groups the rest into detected conjugate
    pairs (positive-imaginary member first); unpaired collects complex values
    without a conjugate partner within tolerance.
    """

    eigenvalues: tuple[complex, ...]
    real_subset: tuple[float, ...]
    complex_pairs: tuple[tuple[complex, complex], ...]
    unpaired: tuple[complex, ...]
    tol: float

    @property
    def all_real(self) -> bool:
        return not self.complex_pairs and not self.unpaired


def _resolve_tol(tol, eigenvalues: np.ndarray) -> float:
    """tol checked by `as_tolerance`, or DEFAULT_TOL * (1 + spectral radius) when None."""
    if tol is not None:
        return as_tolerance(tol)
    radius = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return DEFAULT_TOL * (1.0 + radius)


def classify_spectrum(F, tol: float | None = None) -> SpectrumReport:
    """Eigensolve F and partition the spectrum by realness.

    tol defaults to 1e-10 * (1 + spectral radius).  Conjugate pairing uses
    the same tolerance.
    """
    F = as_operator(F, "F")
    values = np.linalg.eigvals(F)
    tol = _resolve_tol(tol, values)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    real_subset = tuple(float(v.real) for v in values if abs(v.imag) <= tol)
    leftovers = [complex(v) for v in values if abs(v.imag) > tol]
    pairs: list[tuple[complex, complex]] = []
    unpaired: list[complex] = []
    while leftovers:
        a = leftovers.pop(0)
        partner = None
        for idx, b in enumerate(leftovers):
            if abs(b - a.conjugate()) <= 2 * tol:
                partner = idx
                break
        if partner is None:
            unpaired.append(a)
        else:
            b = leftovers.pop(partner)
            plus, minus = (a, b) if a.imag >= b.imag else (b, a)
            pairs.append((plus, minus))
    pairs.sort(key=lambda p: (p[0].real, p[0].imag))
    return SpectrumReport(
        eigenvalues=tuple(complex(v) for v in values),
        real_subset=real_subset,
        complex_pairs=tuple(pairs),
        unpaired=tuple(unpaired),
        tol=tol,
    )


def bound_energy(lam: float, N: int) -> float:
    """Energy of the N-particle bound state with decay rate lam."""
    N = int(N)
    if N < 2:
        raise ValueError(f"need at least two particles, got N={N}")
    lam = float(lam)
    return -(lam * lam) * (N * (N * N - 1) // 3)


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    pivot = int(np.argmax(np.abs(v)))
    phase = v[pivot] / abs(v[pivot])
    return v / phase


def _nullspace(constraints: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the numerical nullspace of a tall stacked matrix."""
    _, sv, vh = np.linalg.svd(constraints, full_matrices=False)
    return vh[len(sv) - int(np.sum(sv <= tol)):].conj().T


@functools.lru_cache(maxsize=32)
def _sector_basis(n: int, N: int, exchange_sign: float) -> np.ndarray:
    """Orthonormal occupation-number basis of Sym^N(C^n) (sign +1) or Λ^N(C^n) (sign -1).

    One column per sorted label tuple (non-decreasing for Sym^N, increasing
    for Λ^N) in lexicographic order: the normalized sum of e_{a_1} x ... x
    e_{a_N} over every ordering of the labels, signed by the ordering's parity
    for Λ^N.  Row r's labels a are the N base-n digits of r.  Each label row
    adds its stabiliser size prod_b m_b! (Sym^N) or, for distinct labels, its
    parity (Λ^N) to column sort(a).  The stabiliser size is kept as its
    mantissa, renormalized after each factor: a column's rows share their
    size, so a power of two per row leaves the normalized column bit for bit,
    while N! itself overflows at N = 171 and its square already at N = 99.
    Columns are found by np.unique with return_inverse on one base-n integer
    key per sorted label row; the key is below n^N, and orders the rows
    lexicographically.  An n^N past int64 is refused, since the digits and
    keys would wrap.  Built once per process for each (n, N, sign) and
    returned read-only, since every caller shares it; an entry holds n^N
    rows, so the cache is bounded.
    """
    if n ** N > np.iinfo(np.int64).max:
        raise ValueError(f"n^N = {n}^{N} spin components pass the int64 index range")
    powers = n ** np.arange(N - 1, -1, -1)
    # The (n^N, N) labels are allocated first, so a space too large for memory
    # fails at once, before the n^N row numbers are written.
    labels = np.empty((n ** N, N), dtype=np.int64)
    np.floor_divide(np.arange(n ** N)[:, None], powers, out=labels)
    labels %= n
    keys = np.sort(labels, axis=1)
    weights = (functools.reduce(lambda weight, size: np.frexp(weight * size)[0],
                                np.tril(labels[:, :, None] == labels[:, None, :]).sum(axis=2).T, 1.0)
               if exchange_sign > 0 else
               permutation_sign(labels) * (np.diff(keys, axis=1) > 0).all(axis=1))
    rows = np.flatnonzero(weights)
    columns, inverse = np.unique(keys[rows] @ powers, return_inverse=True)
    S = np.zeros((n ** N, len(columns)))
    S[rows, inverse] = weights[rows]
    S /= np.linalg.norm(S, axis=0)
    S.flags.writeable = False
    return S


def _sector_solutions(F: np.ndarray, n: int, lam: float, S: np.ndarray, tol: float) -> list[np.ndarray]:
    """Canonical basis of {v in range(S) : F_12 v = conj(F)_12 v = lam v}.

    F and conj(F) act on slots 1-2 of S's columns (`apply_pair`); inside the
    symmetric or antisymmetric sector pair (1, 2) implies every other pair,
    since each pair exchange maps v to +-v.  K spans the nullspace of the
    stacked d-column constraints (singular values <= tol).  The basis is the
    Gram-Schmidt of the projections K K^H e_i of S's columns, in column order,
    keeping a remainder whose norm is at least 1/sqrt(2d): since the squared
    norms of all d projections sum to dim K, this cut-off always keeps dim K
    vectors, and the result depends on the nullspace only, not on which K the
    SVD returns.  Each vector is mapped back through S and phase-normalized.
    A stack that overflows raises ValueError before the SVD.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.vstack([apply_pair(M, 1, S, n) - lam * S for M in (F, F.conj())])
    if not np.isfinite(stack).all():
        raise ValueError(f"bound-state constraints at lam={lam} overflow")
    K = _nullspace(stack, tol)
    basis: list[np.ndarray] = []
    for w in K.conj():
        if len(basis) == K.shape[1]:
            break
        for q in basis:
            w = w - (q.conj() @ w) * q
        norm = np.linalg.norm(w)
        if norm >= 1.0 / np.sqrt(2 * S.shape[1]):
            basis.append(w / norm)
    return [_normalize_phase(S @ (K @ q)) for q in basis]


def negative_real_eigenvalues(F, tol: float | None = None) -> tuple[tuple[float, ...], float]:
    """Clustered real eigenvalues below zero, plus the tolerance used.

    The real subset of `classify_spectrum(F, tol)` below -tol, which is in
    ascending order, is collapsed whenever consecutive values differ by at
    most tol, keeping one representative per cluster.
    """
    report = classify_spectrum(F, tol)
    tol = report.tol
    clusters: list[float] = []
    for lam in (v for v in report.real_subset if v < -tol):
        if not clusters or lam - clusters[-1] > tol:
            clusters.append(lam)
    return tuple(clusters), tol


def two_particle_bound_states(bc: SeparatedBC, statistics, tol: float | None = None) -> list["BoundState"]:
    """All two-particle bound states of a separated coupling: `bound_states(bc, 2, ...)`.

    For every clustered real eigenvalue lam < 0 of F and every exchange sign
    epsilon in {+1, -1}, one state is emitted per vector of the canonical
    basis of the joint nullspace of F - lam, conj(F) - lam and
    p - sign(statistics)*epsilon; the list is sorted by (lam, epsilon).
    """
    return bound_states(bc, 2, statistics, tol)


def n_particle_bound_state(bc: SeparatedBC, N: int, lam: float, epsilon: SignPattern,
                           statistics, tol: float | None = None) -> "BoundState":
    """One N-particle bound state with prescribed decay rate and sign pattern.

    The spin vector is the first canonical vector (see `bound_states`) that
    meets every pair-exchange sign and, on each adjacent pair, the F and
    conj(F) eigenvalue conditions.  BoundStateNotFound says "parity" when the
    pattern's sector is empty (a non-uniform pattern, or Λ^N(C^n) with n < N
    for sign(statistics) * epsilon = -1) and "eigenvalue" when the eigenvalue
    conditions leave no vector of it.
    """
    bc = require_separated(bc, "bound-state construction")
    F, n = bc.F, bc.n
    N = int(N)
    lam = float(lam)
    if not lam < 0:
        raise ValueError(f"decay rate must be negative, got {lam}")
    if not isinstance(epsilon, SignPattern):
        raise TypeError("epsilon must be a SignPattern")
    if epsilon.n_particles != N:
        raise ValueError(
            f"sign pattern is for {epsilon.n_particles} particles, expected {N}")
    stats = as_statistics(statistics)
    tol = _resolve_tol(tol, np.linalg.eigvals(F) if F is not None and tol is None else np.zeros(0))
    sector = _sector_basis(n, N, stats.sign * epsilon[(2, 1)])
    if len(set(epsilon.values())) > 1 or sector.shape[1] == 0:
        raise BoundStateNotFound(
            f"no spin vector realizes the sign pattern {epsilon.values()} for "
            f"{stats.value}s with n={n}, N={N}",
            reason="parity",
        )
    if F is None:
        raise BoundStateNotFound(
            "the Dirichlet member admits no exponential profile (both one-sided "
            "limits must vanish)",
            reason="eigenvalue",
        )
    vectors = _sector_solutions(F, n, lam, sector, tol)
    if not vectors:
        raise BoundStateNotFound(
            f"the parity sector is non-empty but no vector in it satisfies the "
            f"coupling eigenvalue conditions at lam={lam}",
            reason="eigenvalue",
        )
    return BoundState(N, lam, vectors[0], epsilon, bound_energy(lam, N), stats)


def bound_states(bc: SeparatedBC, N: int, statistics, tol: float | None = None) -> list["BoundState"]:
    """All N-particle bound states of a separated coupling, sorted by (lam, epsilon).

    The spin vector of a bound state is a joint eigenvector of every pair
    exchange, so for N >= 3 it spans a one-dimensional representation of the
    symmetric group S_N (Yang, PRL 19, 1312 (1967)).  All transpositions are
    conjugate in S_N, so they carry one common sign: only the two uniform sign
    patterns can have a non-empty parity sector, Sym^N(C^n) or Λ^N(C^n).  For
    every clustered negative real eigenvalue of F and both signs the solutions
    in that sector get their canonical basis (`_sector_solutions`); an empty
    sector is skipped.  N = 2 emits one state per basis vector, N >= 3 only
    the first, if any.
    """
    if N < 2:
        raise ValueError(f"need at least two particles, got N={N}")
    stats = as_statistics(statistics)
    bc = require_separated(bc, "bound-state construction")
    if bc.dirichlet:
        return []
    clusters, tol = negative_real_eigenvalues(bc.F, tol)
    sectors = {eps: _sector_basis(bc.n, N, stats.sign * eps) for eps in (-1, 1)}
    # An empty sector (Λ^N with n < N) has nothing to solve.
    sectors = {eps: sector for eps, sector in sectors.items() if sector.shape[1]}
    states = []
    for lam in clusters:
        for eps, sector in sectors.items():
            vectors = _sector_solutions(bc.F, bc.n, lam, sector, tol)
            states += [BoundState(N, lam, v, SignPattern.uniform(N, eps), bound_energy(lam, N), stats)
                       for v in (vectors if N == 2 else vectors[:1])]
    return states


@dataclass(frozen=True)
class BoundState:
    """A square-integrable N-particle state decaying at rate lam < 0.

    v is the unit spin vector (length n^N, phase fixed so the largest entry is
    real positive), and the spin dimension n is derived from its length;
    energy always equals bound_energy(lam, n_particles).
    lam = 0 is tolerated for degenerate constant-profile checks but never
    produced by the constructors above.
    """

    n_particles: int
    lam: float
    v: np.ndarray
    epsilon: SignPattern
    energy: float
    statistics: Statistics
    n: int = field(init=False)

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError(f"need at least two particles, got {self.n_particles}")
        if not np.isfinite(self.lam) or self.lam > 0:
            raise ValueError(f"decay rate must be <= 0 and finite, got {self.lam}")
        if self.epsilon.n_particles != self.n_particles:
            raise ValueError("sign pattern and particle count disagree")
        expected = bound_energy(self.lam, self.n_particles)
        if self.energy != expected:
            raise ValueError(f"stored energy {self.energy} != {expected}")
        v = np.asarray(self.v, dtype=np.complex128).reshape(-1)
        n = round(len(v) ** (1.0 / self.n_particles))
        if n ** self.n_particles != len(v) or n < 1:
            raise ValueError(
                f"spin vector length {len(v)} is not a perfect {self.n_particles}-th power")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "statistics", as_statistics(self.statistics))

    def parity_residual(self) -> float:
        """Worst defect of the stored pair-exchange sign relations, each P_kl a slot swap."""
        swaps = {(k, l): [{k - 1: l - 1, l - 1: k - 1}.get(a, a) for a in range(self.n_particles)]
                 for k, l in self.epsilon.pairs}
        return max(max_abs(permute_slots(self.v, order, self.n)
                           - self.statistics.sign * self.epsilon[pair] * self.v)
                   for pair, order in swaps.items())


_AXIS_SAMPLES = {2: 48, 3: 17}
_MIN_INDEX_GAP = 3
# The profile's extended-precision rounding, relative eps = finfo(longdouble)
# .eps, enters the second difference as about eps / spacing^2 (times a few
# dozen stencil terms, for any decay rate: the grid's half-width scales as
# 1 / |lam|), while the O(spacing^2) truncation it checks shrinks.  Below
# eps^(1/4) (1.8e-5 for x87 long double, 1.2e-4 where long double is double)
# the rounding exceeds sqrt(eps) and grows as the grid is refined: at lam =
# -1, N = 2 the residual is 7.8e-10 at spacing 5e-5, 3.8e-6 at 1e-6 and 3.6
# at 1e-9, which would blame the energy for the grid.
_FINEST_SPACING = float(np.finfo(np.longdouble).eps) ** 0.25


@functools.lru_cache(maxsize=64)
def _stencil(N: int, m_max: int, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct decay-profile arguments of the FD stencil, and the rows that read them.

    The centers x0 are ordered lattice points at least _MIN_INDEX_GAP apart;
    each has the stencil x0, then x0 + h e_a and x0 - h e_a for every axis a.
    The profile depends on a point only through sum_{i>j} |x_i - x_j|, here in
    extended precision: `args` holds its distinct values (ascending), and
    `rows` (2N+1 by one column per distinct center stencil) indexes into them,
    its columns in lexicographic order.  The rounded lattice is ascending, so
    one np.diff mask drops its repeats; the center stencils are deduped by one
    np.lexsort of their index columns and a mask of the columns that differ
    from their predecessor.  Both arrays are read-only and hold geometry only,
    no decay rate; m_max follows the decay rate, so only recent grids are kept
    (a few kB each).
    """
    per_axis = _AXIS_SAMPLES[N]
    h = np.longdouble(spacing)
    lattice = np.round(np.linspace(-m_max, m_max, per_axis)).astype(np.int64)
    cand = lattice[np.r_[True, np.diff(lattice) > 0]]
    pts = np.stack([g.ravel() for g in np.meshgrid(*([cand] * N), indexing="ij")], axis=1)
    x0 = pts[(np.diff(pts, axis=1) >= _MIN_INDEX_GAP).all(axis=1)].astype(np.longdouble) * h
    steps = np.eye(N, dtype=np.longdouble) * h
    points = x0 + np.concatenate([np.zeros((1, N), dtype=np.longdouble), steps, -steps])[:, None, :]
    total = np.zeros(points.shape[:2], dtype=np.longdouble)
    for i in range(1, N):
        for j in range(i):
            total += np.abs(points[..., i] - points[..., j])
    args, index = np.unique(total, return_inverse=True)
    index = index.reshape(total.shape)
    stencils = index.T[np.lexsort(index[::-1])]
    rows = stencils[np.r_[True, np.diff(stencils, axis=0).any(axis=1)]].T
    args.flags.writeable = rows.flags.writeable = False
    return args, rows


def verify_bound_state_fd(state: BoundState, half_width: float, spacing: float) -> float:
    """Grid-Laplacian check of the bound-state profile inside one ordering region.

    Samples the scalar decay profile on centers x_1 < x_2 < ... < x_N drawn
    from a spacing-aligned lattice in [-half_width, half_width], keeps every
    center at least two spacings away from all coincidence planes, applies the
    second-order central Laplacian, and returns the largest relative residual
    of (-laplacian - energy) against the profile.  The spin vector and the
    region's sign factors are constant inside the region and cancel, so the
    scalar profile carries the whole check.  Internally uses extended
    precision; residuals scale as O(spacing^2).  The profile is evaluated on
    the distinct stencil arguments of `_stencil`, and every residual is taken
    on one center per distinct stencil row, so the result equals the maximum
    over all centers.  A grid whose lattice index would not fit int64, or
    whose profile would underflow extended precision, is refused, and so is
    a spacing below _FINEST_SPACING (see there).
    """
    N = state.n_particles
    if N not in _AXIS_SAMPLES:
        raise ValueError(f"grid check supports N=2 or N=3, got N={N}")
    half_width = float(half_width)
    spacing = float(spacing)
    for name, value in (("half_width", half_width), ("spacing", spacing)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if spacing <= 0 or half_width <= 0:
        raise ValueError("half_width and spacing must be positive")
    if spacing > 1e-2:
        raise ValueError(f"grid too coarse: spacing {spacing} > 0.01")
    if half_width / spacing >= np.iinfo(np.int64).max:
        raise ValueError(
            f"grid too fine: spacing {spacing} puts half_width {half_width} past the int64 lattice index")
    if spacing < _FINEST_SPACING:
        raise ValueError(
            f"grid too fine: spacing {spacing} < {_FINEST_SPACING:.3g}, where the "
            f"extended-precision second difference is mostly rounding")
    if state.lam == 0.0:
        return 0.0
    if half_width < 8.0 / abs(state.lam):
        raise ValueError(
            f"grid too small: half_width {half_width} < {8.0 / abs(state.lam)} "
            f"needed for decay rate {state.lam}")
    h = np.longdouble(spacing)
    args, rows = _stencil(N, int(np.floor(half_width / spacing)) - 1, spacing)
    profile = np.exp(np.longdouble(state.lam) * args)
    if profile[-1] < np.finfo(np.longdouble).tiny:
        raise ValueError(
            f"grid too wide: half_width {half_width} underflows the extended-precision "
            f"decay profile for decay rate {state.lam}")
    f = profile[rows]
    f0 = f[0]
    lap = np.zeros_like(f0)
    for axis in range(N):
        lap += (f[1 + axis] - 2.0 * f0 + f[1 + N + axis]) / (h * h)
    residual = np.abs((-lap - np.longdouble(state.energy) * f0) / f0)
    return float(np.max(residual))

"""Spectral classification of the coupling matrix and bound-state construction.

A separated interaction with coupling F binds pairs of particles through real
negative eigenvalues: the profile exp(lam * sum_{i>j} |x_i - x_j|) solves the
free equation away from coincidence planes and meets the interface conditions
exactly when F v = lam v and conj(F) v = lam v.  Both conditions are imposed;
they coincide for real F.  The spin vector must additionally be a joint
eigenvector of every pair exchange with signs fixed by a SignPattern and the
statistics, which for three or more particles is a genuine restriction.

`verify_bound_state_fd` is an independent check: it differentiates nothing
analytically, it just applies a second-order grid Laplacian to the decay
profile inside one ordering region and compares against the stored energy.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bethe import SignPattern
from .boundary import SeparatedBC, require_separated
from .linalg import (
    DEFAULT_TOL,
    SpinDims,
    Statistics,
    as_operator,
    as_statistics,
    as_tolerance,
    embed_pair,
    exchange_operator,
    max_abs,
    swap_pair,
)

__all__ = [
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
    """Orthonormal columns spanning the numerical nullspace of a stacked matrix."""
    _, sv, vh = np.linalg.svd(constraints)
    dim = constraints.shape[1]
    n_small = int(np.sum(sv <= tol)) + max(0, dim - len(sv))
    if n_small == 0:
        return np.zeros((dim, 0), dtype=np.complex128)
    return vh[dim - n_small:].conj().T


def _parity_stack(epsilon: SignPattern, stats: Statistics, dims: SpinDims) -> np.ndarray:
    """Blocks P_kl - sign(statistics) * epsilon_kl * I stacked in `epsilon.pairs` order."""
    eye = np.eye(dims.total_dim, dtype=np.complex128)
    return np.vstack([exchange_operator(l, k, dims) - stats.sign * epsilon[(k, l)] * eye
                      for (k, l) in epsilon.pairs])


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
    """All two-particle bound states of a separated coupling.

    For every clustered real eigenvalue lam < 0 of F and every exchange sign
    epsilon in {+1, -1}, the admissible spin vectors form the joint nullspace
    of F - lam, conj(F) - lam, and p - sign(statistics)*epsilon.  One state is
    emitted per independent vector; the list is sorted by (lam, epsilon).
    """
    bc = require_separated(bc, "bound-state construction")
    stats = as_statistics(statistics)
    if bc.dirichlet:
        return []
    F, n = bc.F, bc.n
    clusters, tol = negative_real_eigenvalues(F, tol)
    p = swap_pair(n)
    eye = np.eye(n * n, dtype=np.complex128)
    states: list[BoundState] = []
    for lam in clusters:
        for eps in (-1, 1):
            stack = np.vstack([
                F - lam * eye,
                F.conj() - lam * eye,
                p - stats.sign * eps * eye,
            ])
            basis = _nullspace(stack, tol)
            for col in range(basis.shape[1]):
                states.append(BoundState(
                    n_particles=2,
                    lam=lam,
                    v=_normalize_phase(basis[:, col]),
                    epsilon=SignPattern(2, {(2, 1): eps}),
                    energy=bound_energy(lam, 2),
                    statistics=stats,
                ))
    states.sort(key=lambda s: (s.lam, s.epsilon[(2, 1)]))
    return states


def n_particle_bound_state(bc: SeparatedBC, N: int, lam: float, epsilon: SignPattern,
                           statistics, tol: float | None = None) -> "BoundState":
    """One N-particle bound state with prescribed decay rate and sign pattern.

    The spin vector must satisfy every pair-exchange sign condition and, for
    each adjacent pair, the eigenvalue conditions of F and conj(F).  When no
    vector survives, the raised error reports whether the parity conditions
    alone are already unsatisfiable or the eigenvalue conditions removed the
    remaining freedom.  By S_N (see `bound_states`) only a uniform pattern has a
    parity sector; for sign(statistics) * epsilon = -1 it is antisymmetric, empty if n < N.
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
    uniform = len(set(epsilon.values())) == 1
    if not uniform or (stats.sign * epsilon[(2, 1)] < 0 and n < N):
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
    dims = SpinDims(n, N)
    eye = np.eye(dims.total_dim, dtype=np.complex128)
    blocks = [_parity_stack(epsilon, stats, dims)]
    for j in range(1, N):
        blocks.append(embed_pair(F, j, dims) - lam * eye)
        blocks.append(embed_pair(F.conj(), j, dims) - lam * eye)
    basis = _nullspace(np.vstack(blocks), tol)
    if basis.shape[1] == 0:
        raise BoundStateNotFound(
            f"the parity sector is non-empty but no vector in it satisfies the "
            f"coupling eigenvalue conditions at lam={lam}",
            reason="eigenvalue",
        )
    return BoundState(
        n_particles=N,
        lam=lam,
        v=_normalize_phase(basis[:, 0]),
        epsilon=epsilon,
        energy=bound_energy(lam, N),
        statistics=stats,
    )


def bound_states(bc: SeparatedBC, N: int, statistics, tol: float | None = None) -> list["BoundState"]:
    """All N-particle bound states of a separated coupling, sorted by (lam, epsilon).

    N = 2 is `two_particle_bound_states`.  For N >= 3 the spin vector of a
    bound state is a joint eigenvector of every pair exchange, so it spans a
    one-dimensional representation of the symmetric group S_N (Yang, PRL 19,
    1312 (1967)).  All transpositions are conjugate in S_N for N >= 3, so they
    carry one common sign: only the two uniform sign patterns can have a
    non-empty parity sector.  Those two are tried for every clustered
    negative real eigenvalue of F, giving at most one state each.
    """
    if N < 2:
        raise ValueError(f"need at least two particles, got N={N}")
    statistics = as_statistics(statistics)
    if N == 2:
        return two_particle_bound_states(bc, statistics, tol)
    if require_separated(bc, "bound-state construction").dirichlet:
        return []
    clusters, tol = negative_real_eigenvalues(bc.F, tol)
    states = []
    for lam in clusters:
        for sign in (-1, 1):
            try:
                states.append(n_particle_bound_state(
                    bc, N, lam, SignPattern.uniform(N, sign), statistics, tol))
            except BoundStateNotFound:
                continue
    states.sort(key=lambda s: (s.lam, s.epsilon.values()))
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
        """Worst defect of the stored pair-exchange sign relations."""
        dims = SpinDims(self.n, self.n_particles)
        return max_abs(_parity_stack(self.epsilon, self.statistics, dims) @ self.v)


_AXIS_SAMPLES = {2: 48, 3: 17}
_MAX_CENTERS = 4000
_MIN_INDEX_GAP = 3


def _stencil_centers(N: int, m_max: int) -> np.ndarray:
    per_axis = _AXIS_SAMPLES[N]
    cand = np.unique(np.round(np.linspace(-m_max, m_max, per_axis)).astype(np.int64))
    grids = np.meshgrid(*([cand] * N), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    gaps = np.diff(pts, axis=1)
    pts = pts[(gaps >= _MIN_INDEX_GAP).all(axis=1)]
    if len(pts) > _MAX_CENTERS:
        keep = np.unique(np.linspace(0, len(pts) - 1, _MAX_CENTERS).astype(np.int64))
        pts = pts[keep]
    return pts


def _decay_profile(points: np.ndarray, lam: np.longdouble) -> np.ndarray:
    """exp(lam * sum_{i>j} |x_i - x_j|) for each row of points."""
    total = np.zeros(points.shape[0], dtype=np.longdouble)
    N = points.shape[1]
    for i in range(1, N):
        for j in range(i):
            total += np.abs(points[:, i] - points[:, j])
    return np.exp(lam * total)


def verify_bound_state_fd(state: BoundState, half_width: float, spacing: float) -> float:
    """Grid-Laplacian check of the bound-state profile inside one ordering region.

    Samples the scalar decay profile on centers x_1 < x_2 < ... < x_N drawn
    from a spacing-aligned lattice in [-half_width, half_width], keeps every
    center at least two spacings away from all coincidence planes, applies the
    second-order central Laplacian, and returns the largest relative residual
    of (-laplacian - energy) against the profile.  The spin vector and the
    region's sign factors are constant inside the region and cancel, so the
    scalar profile carries the whole check.  Internally uses extended
    precision; residuals scale as O(spacing^2).
    """
    N = state.n_particles
    if N not in _AXIS_SAMPLES:
        raise ValueError(f"grid check supports N=2 or N=3, got N={N}")
    half_width = float(half_width)
    spacing = float(spacing)
    if spacing <= 0 or half_width <= 0:
        raise ValueError("half_width and spacing must be positive")
    if spacing > 1e-2:
        raise ValueError(f"grid too coarse: spacing {spacing} > 0.01")
    if state.lam == 0.0:
        return 0.0
    if half_width < 8.0 / abs(state.lam):
        raise ValueError(
            f"grid too small: half_width {half_width} < {8.0 / abs(state.lam)} "
            f"needed for decay rate {state.lam}")
    h = np.longdouble(spacing)
    lam = np.longdouble(state.lam)
    energy = np.longdouble(state.energy)
    m_max = int(np.floor(half_width / spacing)) - 1
    centers = _stencil_centers(N, m_max)
    x0 = centers.astype(np.longdouble) * h
    f0 = _decay_profile(x0, lam)
    lap = np.zeros_like(f0)
    for axis in range(N):
        step = np.zeros(N, dtype=np.longdouble)
        step[axis] = h
        lap += (_decay_profile(x0 + step, lam) - 2.0 * f0 + _decay_profile(x0 - step, lam)) / (h * h)
    residual = np.abs((-lap - energy * f0) / f0)
    return float(np.max(residual))

"""Seeded input generators.

`hspin_params` and `separated_momenta` draw exactly what `random_hspin` and
`separated_momenta` in tests/conftest.py draw from the same generator state
(perfbench/test_perfbench.py checks this).  They are kept here so that the
benchmark's inputs cannot change when the test helpers do.
"""
from __future__ import annotations

import numpy as np

HSPIN_PARAM_NAMES = ("a", "b", "c", "d", "f", "g", "e1", "e2", "e3", "e4")


def hspin_params(rng, scale=2.0, symmetric=False) -> dict[str, float]:
    """Parameters of a random coupling in the ten-parameter hspin family."""
    values = {name: float(v) for name, v in
              zip(HSPIN_PARAM_NAMES, rng.uniform(-scale, scale, 10))}
    if symmetric:
        values["d"] = values["c"]
        values["e3"] = values["e1"]
        values["e4"] = values["e2"]
    return values


def separated_momenta(rng, count, low=-2.0, high=2.0, gap=0.1) -> tuple[float, ...]:
    """Momenta with all pairwise differences bounded away from zero."""
    while True:
        ks = rng.uniform(low, high, count)
        diffs = np.abs(ks[:, None] - ks[None, :])[np.triu_indices(count, 1)]
        if diffs.min() >= gap:
            return tuple(float(k) for k in ks)


def complex_coupling(rng, n: int, scale=2.0) -> np.ndarray:
    """Dense complex n^2 x n^2 coupling matrix with uniform entries."""
    d = n * n
    return rng.uniform(-scale, scale, (d, d)) + 1j * rng.uniform(-scale, scale, (d, d))


def unit_vector(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def off_plane_points(rng, count: int, N: int, half_width=3.0) -> list[np.ndarray]:
    """Random positions whose coordinates are pairwise at least 0.05 apart."""
    points = []
    while len(points) < count:
        x = rng.uniform(-half_width, half_width, N)
        if np.min(np.diff(np.sort(x))) >= 0.05:
            points.append(x)
    return points

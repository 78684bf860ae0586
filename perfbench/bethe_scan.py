"""bethe-scan: Bethe coefficients, path consistency, YBE and wavefunctions.

Nearly all of a task's time goes to dense n^N x n^N products in `bethe` and
`scattering`; `spectra` and `cli` are not called.  This is the workload that
ROADMAP item 3 (the local-operator engine) should speed up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ptspin import (
    SeparatedBC,
    SpinDims,
    bethe_coefficients,
    evaluate_wavefunction,
    hspin,
    make_y_factory,
    path_consistency,
    y_inverse_residual,
    ybe_residual,
)

import inputs
from common import check
from tracing import median_or_zero

# (n, N, random draws, scalar-coupling controls) in one cycle.  n=2 draws are
# hspin couplings, n=3 draws dense complex F.  The counts put the 90th
# percentile in the n=2 N=6 group and the median in the n=2 N=4 group, each
# far in cost from the groups beside it.
MIX = (
    (3, 5, 1, 0),
    (2, 6, 2, 0),
    (2, 5, 2, 0),
    (3, 4, 2, 0),
    (2, 4, 4, 2),
    (2, 3, 2, 1),
    (3, 3, 2, 1),
)
SIZES = tuple((n, N) for n, N, _, _ in MIX)
CYCLES = 2
POINTS = 4

# Path consistency on three particles is the YBE residual of the transposed
# exchange operators: both compare the same two braid products, taken in
# opposite orders.  Relative tolerance for that identity.
N3_RTOL = 1e-10
# Y(k) Y(-k) = 1 at round-off; the worst seen over 300 random draws is 1.4e-13.
INVERSE_TOL = 1e-10
# Scalar couplings give commuting exchange operators, so the YBE holds exactly.
SCALAR_TOL = 1e-12


@dataclass(frozen=True)
class Task:
    n: int
    N: int
    bc: SeparatedBC
    momenta: tuple[float, ...]
    u_init: np.ndarray
    statistics: str
    points: tuple[np.ndarray, ...]
    scalar: bool
    coefficients_span: str
    path_span: str


def _task(rng, n: int, N: int, scalar: bool, statistics: str) -> Task:
    if scalar:
        bc = SeparatedBC(n=n, F=rng.uniform(-2.0, 2.0) * np.eye(n * n))
    elif n == 2:
        bc = hspin(**inputs.hspin_params(rng))
    else:
        bc = SeparatedBC(n=n, F=inputs.complex_coupling(rng, n))
    return Task(
        n=n, N=N, bc=bc,
        momenta=inputs.separated_momenta(rng, N),
        u_init=inputs.unit_vector(rng, n ** N),
        statistics=statistics,
        points=tuple(inputs.off_plane_points(rng, POINTS, N)),
        scalar=scalar,
        coefficients_span=f"bethe.coefficients.n{n}N{N}",
        path_span=f"bethe.path_consistency.n{n}N{N}",
    )


class Workload:
    def __init__(self, seed: int, workdir, child_env, traced: bool):
        rng = np.random.default_rng([seed, 1])
        self.cycles = []
        for _ in range(CYCLES):
            tasks = []
            for n, N, draws, controls in MIX:
                for i in range(draws + controls):
                    stats = "boson" if len(tasks) % 2 == 0 else "fermion"
                    tasks.append(_task(rng, n, N, scalar=i >= draws, statistics=stats))
            rng.shuffle(tasks)
            self.cycles.append(tasks)
        self.warmup = [t for t in self.cycles[0] if t.N <= 4]

    def run(self, task: Task, tracer) -> None:
        dims3 = SpinDims(task.n, 3)
        with tracer.span(task.coefficients_span):
            state = bethe_coefficients(task.bc, task.momenta, task.u_init, task.statistics)
        identity = tuple(range(1, task.N + 1))
        check(np.array_equal(state.coefficients[identity], task.u_init),
              "identity-permutation coefficient differs from u_init")
        with tracer.span(task.path_span):
            consistency = path_consistency(task.bc, task.momenta, task.u_init, task.statistics)

        factory = tracer.wrap("scattering.y_factory", make_y_factory(task.bc, task.statistics))
        k1, k2, k3 = task.momenta[:3]
        with tracer.span("scattering.ybe_residual"):
            residual = ybe_residual(factory, k1, k2, k3, dims3)
        if task.N == 3:
            with tracer.span("scattering.ybe_residual"):
                transposed = ybe_residual(lambda k: factory(k).T, k1, k2, k3, dims3)
            check(abs(consistency - transposed) <= N3_RTOL * max(1.0, consistency),
                  f"N=3 path consistency {consistency!r} != transposed YBE residual "
                  f"{transposed!r}")
        inverse_defect = y_inverse_residual(task.bc, 0.5 * (k1 - k2))
        check(inverse_defect <= INVERSE_TOL, f"Y(k)Y(-k) defect {inverse_defect!r}")
        if task.scalar:
            check(consistency <= SCALAR_TOL and residual <= SCALAR_TOL,
                  f"scalar coupling: path consistency {consistency!r}, YBE {residual!r}")

        for x in task.points:
            with tracer.span("bethe.wavefunction"):
                value = evaluate_wavefunction(state, x, task.statistics)
            check(value.shape == (task.n ** task.N,) and bool(np.isfinite(value).all()),
                  "wavefunction value is not a finite spin vector")

    def layer_metrics(self, tracer, traced_rotations: int) -> dict[str, float]:
        metrics = {
            "scattering.y_factory_us":
                1e6 * median_or_zero(tracer.durations("scattering.y_factory")),
            "scattering.ybe_self_ms":
                1e3 * median_or_zero(tracer.self_seconds("scattering.ybe_residual")),
            "bethe.wavefunction_us_per_point":
                1e6 * median_or_zero(tracer.durations("bethe.wavefunction")),
        }
        for n, N in SIZES:
            metrics[f"bethe.coefficients_ms.n{n}N{N}"] = \
                1e3 * median_or_zero(tracer.durations(f"bethe.coefficients.n{n}N{N}"))
            metrics[f"bethe.path_consistency_ms.n{n}N{N}"] = \
                1e3 * median_or_zero(tracer.durations(f"bethe.path_consistency.n{n}N{N}"))
        return metrics

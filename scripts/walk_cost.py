"""Planned work and wall time of the path-consistency walk per (n, N), and planning cost per N.

For each (n, N) of the bethe-scan mix and n=2 N=7, prints what this
checkout's walk program (the ops of `bethe._plan(N)`) holds: the pair applications by
block size k (the block is n^k x n^k), the widens, the apply work (the sum of
n^(2k+2) over applications) and the entries read by the max-abs ops, both
relative to a walk that holds every array as a full n^N x n^N matrix.  It
prints the walk's planned memory in MiB: the complex arena that holds every
buffer's block (`bethe._schedule(N, n).arena`), the real magnitude buffer of
the max-abs ops and, beside them, the same buffers held as one full n^(2N)
row each (`len(buffers) * n^(2N)` complex entries), then the buffers' counts
by block width k (k0 is the identity).  Then it times `path_consistency` in
fresh processes with one BLAS thread: each process makes one warm-up call
and times --calls calls, and the median over --repeats processes is
printed.

Then, for N = 6, 7 and 8, it prints the cost of planning, in fresh
processes with one BLAS thread: each process warms numpy on N = 4, times one
build of N, clears the cache and builds N again under tracemalloc, for the
MiB the plan retains and the peak of the build.  The medians over --repeats
processes are printed.  The build is one `bethe._plan(N)`, which holds the
coefficient plan and the walk program of N.

With --src the timed program is imported from another checkout's src, so
two trees can be timed on the same machine.

Usage: PYTHONPATH=src python3 scripts/walk_cost.py [--cases 2x4,3x5,2x8] [--repeats 3] [--calls 5]
           [--src ../parent/src]
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from ptspin.bethe import _APPLY, _COPY, _MAX, _WIDEN, _plan, _schedule

ROOT = Path(__file__).resolve().parents[1]
CASES = ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5))
PLANNED = (6, 7, 8)
MOMENTA = (1.0, 0.3, -0.7, -1.6, 2.2, -2.9, 0.45, 1.3)
MIB = 2 ** 20

# Times `calls` path_consistency calls after one warm-up on a seeded coupling
# (hspin at n = 2, dense complex F otherwise) and prints their median in ms.
TIMER = """
import json, statistics, sys, time
import numpy as np
from ptspin import SeparatedBC, hspin, path_consistency
n, N, calls = map(int, sys.argv[1:4])
rng = np.random.default_rng([n, N])
if n == 2:
    names = ("a", "b", "c", "d", "f", "g", "e1", "e2", "e3", "e4")
    bc = hspin(**dict(zip(names, rng.uniform(-2.0, 2.0, 10))))
else:
    bc = SeparatedBC(n, rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n)))
momenta = json.loads(sys.argv[4])[:N]
u = np.zeros(n ** N, complex)
u[0] = 1.0
path_consistency(bc, momenta, u, "boson")
times = []
for _ in range(calls):
    start = time.perf_counter()
    path_consistency(bc, momenta, u, "boson")
    times.append(time.perf_counter() - start)
print(1e3 * statistics.median(times))
"""

# Prints the seconds of one build of the plan of N after numpy is warmed,
# then the MiB it retains and the peak MiB of a traced rebuild.
PLANNER = """
import gc, sys, time, tracemalloc
from ptspin import bethe
N = int(sys.argv[1])
bethe._plan(4)
bethe._plan.cache_clear()
start = time.perf_counter()
bethe._plan(N)
seconds = time.perf_counter() - start
bethe._plan.cache_clear()
gc.collect()
tracemalloc.start()
bethe._plan(N)
retained, peak = tracemalloc.get_traced_memory()
print(seconds, retained / 2 ** 20, peak / 2 ** 20)
"""


def planned(n: int, N: int) -> dict:
    """Applications by block size, widens, the work and max-abs entries of
    this checkout's plan relative to the full-matrix walk, and its memory."""
    program, schedule = _plan(N), _schedule(N, n)
    ops = program.ops.tolist()
    sizes = collections.Counter(hi - lo + 1 for kind, *_, lo, hi in ops if kind in (_APPLY, _COPY))
    maxed = [hi - lo + 1 for kind, *_, lo, hi in ops if kind == _MAX]
    applies = sum(sizes.values())
    return {
        "sizes": dict(sorted(sizes.items())),
        "widens": sum(kind == _WIDEN for kind, *_ in ops),
        "applies": applies,
        "work": sum(count * n ** (2 * k + 2) for k, count in sizes.items())
        / (applies * n ** (2 * N + 2)),
        "entries": sum(n ** (2 * k) for k in maxed) / (len(maxed) * n ** (2 * N)),
        "arena": 16 * schedule.arena / MIB,
        "magnitude": 8 * max(schedule.magnitudes) / MIB,
        "rows": 16 * len(program.buffers) * n ** (2 * N) / MIB,
        "widths": dict(sorted(collections.Counter(program.buffers).items())),
    }


def child(src: Path, code: str, *args) -> list[float]:
    """The numbers one fresh process of code prints, with one BLAS thread; raises if it fails."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr}")
    return [float(value) for value in done.stdout.split()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", default=",".join(f"{n}x{N}" for n, N in CASES),
                        help=f"comma-separated nxN cases, 3 <= N <= {len(MOMENTA)}")
    parser.add_argument("--repeats", type=int, default=3, help="fresh processes per case")
    parser.add_argument("--calls", type=int, default=5, help="timed calls per process")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the timed ptspin package "
                             "(default: this checkout's src)")
    args = parser.parse_args(argv)
    try:
        cases = [tuple(int(part) for part in case.split("x")) for case in args.cases.split(",")]
    except ValueError:
        parser.error("--cases must list nxN pairs")
    if not all(len(case) == 2 and case[0] >= 1 and 3 <= case[1] <= len(MOMENTA) for case in cases) \
            or args.repeats < 1 or args.calls < 1:
        parser.error(f"N must lie in 3..{len(MOMENTA)}, and --repeats and --calls be at least 1")

    print(f"{'case':>5}  {'applies by block size k':<42}  {'widens':>6}  {'work':>5}  "
          f"{'maxabs':>6}  {'arena':>9}  {'magnitude':>9}  {'rows':>9}  "
          f"{'buffers by width k':<40}  {'ms':>8}")
    for n, N in cases:
        plan = planned(n, N)
        ms = statistics.median(child(args.src.resolve(), TIMER, n, N, args.calls,
                                     json.dumps(MOMENTA))[0] for _ in range(args.repeats))
        sizes = " ".join(f"k{k}:{count}" for k, count in plan["sizes"].items())
        widths = ",".join(f"k{k}:{count}" for k, count in plan["widths"].items())
        print(f"{f'n{n}N{N}':>5}  {sizes:<42}  {plan['widens']:>6}  {plan['work']:>5.2f}  "
              f"{plan['entries']:>6.2f}  {plan['arena']:>9.4f}  {plan['magnitude']:>9.4f}  "
              f"{plan['rows']:>9.4f}  {widths:<40}  {ms:>8.3f}")
    print(f"\n{'N':>5}  {'plan_ms':>8}  {'retained_mib':>12}  {'peak_mib':>8}")
    for N in PLANNED:
        runs = [child(args.src.resolve(), PLANNER, N) for _ in range(args.repeats)]
        seconds, retained, peak = (statistics.median(column) for column in zip(*runs))
        print(f"{N:>5}  {1e3 * seconds:>8.1f}  {retained:>12.2f}  {peak:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Memory and wall time of one `ptspin --output <file> bethe` process per N.

Runs `python -m ptspin --output <tmp> bethe` on a fixture (the n=2 hspin
one by default) with the first N of nine fixed momenta, each in a fresh
process, and prints the child's max RSS (its own ru_maxrss, read with
os.wait4: the per-child form of RUSAGE_CHILDREN), its wall time and the size
of the file it wrote.  With --src the program is imported from another
checkout's src, so two trees can be compared on the same machine.

At n=2 the N! x 2^N coefficients alone take 0.17 GB at N = 8 and 3 GB at
N = 9, so planning dominates the max RSS only at n=1: measure N = 8 and 9
with --fixture tests/fixtures/scalar_pt2.json.

Usage: python3 scripts/bethe_memory.py --particles 5,6,7 [--repeats 3] [--src ../parent/src]
           [--fixture tests/fixtures/scalar_pt2.json]
"""
import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "hspin_diag.json"
MOMENTA = (1.0, 0.3, -0.7, -1.6, 2.2, -2.9, 0.45, 1.35, -2.35)
# ru_maxrss is in KiB on Linux and in bytes on macOS.
RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def run_child(src: Path, fixture: Path, particles: int, target: str) -> tuple[float, float]:
    """Max RSS (MB) and wall time (s) of one child process; raises if it fails."""
    argv = [sys.executable, "-m", "ptspin", "--output", target, "bethe", str(fixture),
            "--k", ",".join(repr(k) for k in MOMENTA[:particles])]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stderr=stderr)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            stderr.seek(0)
            raise RuntimeError(f"N={particles} exited {child.returncode}: "
                               f"{stderr.read().decode(errors='replace')}")
    return usage.ru_maxrss * RSS_UNIT / 1e6, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--particles", default="5,6,7",
                        help=f"comma-separated particle counts, 2 to {len(MOMENTA)}")
    parser.add_argument("--repeats", type=int, default=1, help="processes per N (medians shown)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the ptspin package (default: this checkout's src)")
    parser.add_argument("--fixture", type=Path, default=FIXTURE,
                        help="boundary-condition document (default: the n=2 hspin fixture)")
    args = parser.parse_args(argv)
    counts = [int(part) for part in args.particles.split(",")]
    if not all(2 <= N <= len(MOMENTA) for N in counts) or args.repeats < 1:
        parser.error(f"--particles must lie in 2..{len(MOMENTA)} and --repeats be at least 1")

    print(f"{'N':>2}  {'max_rss_mb':>10}  {'wall_s':>7}  {'output_mb':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "bethe.json")
        for N in counts:
            runs = [run_child(args.src.resolve(), args.fixture.resolve(), N, target)
                    for _ in range(args.repeats)]
            rss = statistics.median(r for r, _ in runs)
            wall = statistics.median(w for _, w in runs)
            size = os.path.getsize(target) / 1e6
            print(f"{N:>2}  {rss:>10.1f}  {wall:>7.3f}  {size:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start-up cost per subcommand: wall time and loaded modules of fresh processes.

For each subcommand, runs `python -m ptspin <command>` on a fixture document
in fresh processes with bytecode caching off, as the benchmark runs: the
package is copied without its __pycache__ into a temporary directory and
PYTHONDONTWRITEBYTECODE is set, so every process compiles the modules it
imports.  Prints the median wall ms over --repeats processes and the ptspin
modules that one more process, run under -X importtime, loaded.  With --src
the package is taken from another checkout's src, so two trees can be timed
on the same machine.

Usage: python3 scripts/startup_cost.py [--commands validate,bound] [--repeats 5]
           [--src ../parent/src]
"""
import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENT = ROOT / "tests" / "fixtures" / "hspin_diag.json"
SWEEP = ("--param", "e1=-1.0:1.0:3", "--run")
COMMANDS = {
    "validate": ("validate",),
    "yop": ("yop", "--k1", "1.0", "--k2", "-1.0"),
    "ybe": ("ybe", "--k", "1.0,0.3,-0.7"),
    "bethe": ("bethe", "--k", "1.0,0.3,-0.7"),
    "bound": ("bound", "--particles", "3"),
    "classify": ("classify",),
    "sweep-validate": ("sweep", *SWEEP, "validate"),
    "sweep-ybe": ("sweep", *SWEEP, "ybe", "--k", "1.0,0.3,-0.7"),
    "sweep-classify": ("sweep", *SWEEP, "classify"),
}


def run(env: dict, argv: tuple[str, ...], *flags: str) -> subprocess.CompletedProcess:
    """One `python -m ptspin` process on the fixture; raises if it fails."""
    command, *rest = argv
    done = subprocess.run([sys.executable, *flags, "-m", "ptspin", command, str(DOCUMENT), *rest],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr}")
    return done


def loaded(env: dict, argv: tuple[str, ...]) -> list[str]:
    """The ptspin modules a process imports, as -X importtime lists them."""
    stderr = run(env, argv, "-X", "importtime").stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
             if line.startswith("import time:")}
    return sorted(name.split(".", 1)[1] for name in names if name.startswith("ptspin."))


def median_ms(env: dict, argv: tuple[str, ...], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run(env, argv)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help=f"comma-separated subset of {', '.join(COMMANDS)}")
    parser.add_argument("--repeats", type=int, default=5, help="timed processes per command")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the timed ptspin package "
                             "(default: this checkout's src)")
    args = parser.parse_args(argv)
    commands = args.commands.split(",")
    if not set(commands) <= set(COMMANDS) or args.repeats < 1:
        parser.error(f"--commands must name some of {', '.join(COMMANDS)}, "
                     f"and --repeats be at least 1")

    with tempfile.TemporaryDirectory() as scratch:
        shutil.copytree(args.src.resolve() / "ptspin", Path(scratch) / "ptspin",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": scratch, "PYTHONDONTWRITEBYTECODE": "1",
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        env.pop("PTSPIN_TOL", None)
        print(f"{'command':<15}  {'ms':>8}  modules")
        for name in commands:
            ms = median_ms(env, COMMANDS[name], args.repeats)
            print(f"{name:<15}  {ms:>8.1f}  {','.join(loaded(env, COMMANDS[name]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Start-up cost per subcommand: wall time and loaded modules of fresh processes.

For each subcommand, runs `python -m ptspin <command>` on a fixture document
in fresh processes with bytecode caching off, as the benchmark runs: the
package is copied without its __pycache__ into a temporary directory and
PYTHONDONTWRITEBYTECODE is set, so every process compiles the modules it
imports.  Prints the median wall ms over --repeats processes, then the ptspin
modules that one more process, run under -X importtime, loaded, and the other
modules it loaded beyond those of a bare `python -c "import numpy"`, with a
package's submodules folded into it.  A module that a command loads lazily,
like csv for the sweep commands or numpy.ma, shows up there.
With --src the package is taken from another checkout's src, so two trees can
be timed on the same machine.

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


def imported(stderr: str) -> set[str]:
    """The module names that an -X importtime log lists."""
    return {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def numpy_modules(env: dict) -> set[str]:
    """The modules that a bare `python -c "import numpy"` imports."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import numpy"],
                          env=env, capture_output=True, text=True, check=True)
    return imported(done.stderr)


def loaded(env: dict, argv: tuple[str, ...], baseline: set[str]) -> tuple[list[str], list[str]]:
    """The ptspin modules a process imports, and its other modules beyond `baseline`."""
    names = imported(run(env, argv, "-X", "importtime").stderr)
    extra = {name for name in names - baseline if name.split(".")[0] != "ptspin"}
    return (sorted(name.split(".", 1)[1] for name in names if name.startswith("ptspin.")),
            sorted(name for name in extra if name.rpartition(".")[0] not in extra))


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
        baseline = numpy_modules(env)
        print(f"{'command':<15}  {'ms':>8}  modules  extra")
        for name in commands:
            ms = median_ms(env, COMMANDS[name], args.repeats)
            modules, extra = loaded(env, COMMANDS[name], baseline)
            print(f"{name:<15}  {ms:>8.1f}  {','.join(modules)}  {','.join(extra)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

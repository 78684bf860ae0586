"""ptspin benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload bethe-scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
client sends each task only after the previous one has finished.  Tasks run
in whole cycles of a fixed mix until --seconds have passed (and, untraced,
at least 100 tasks have run).  Every task checks its own output and a miss
counts as a failed task.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
traced and untraced rotations of the mix in turn and reports the per-layer
metrics from the traced ones, plus the tracing overhead.  Per-layer metrics
of layers a workload does not call read 0.  The last line of stdout is the
result as one JSON object; the lines before it repeat the metrics by name and
unit and record the run settings.

Each workload module (see WORKLOADS) defines Workload(seed, workdir,
child_env, traced) with `cycles` (lists of tasks), `warmup` (tasks run once
during set-up), `run(task, tracer)` (raises OracleMiss on a wrong output) and
`layer_metrics(tracer, traced_rotations)`.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child process: the 2-core
# hosts this runs on have shown 15x swings with threaded BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from common import OracleMiss  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {"bethe-scan": "bethe_scan", "bound-search": "bound_search", "cli-corpus": "cli_corpus"}
MIN_TASKS = 100
SETUP_CHILDREN = 4
SETUP_TIMEOUT_S = 150
FAILURES_SHOWN = 5


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env.pop("PTSPIN_TOL", None)
    return env


def set_up(workload: str, seed: int, traced: bool, workdir: Path):
    """Import ptspin, generate the seeded inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    module = importlib.import_module(WORKLOADS[workload])
    bench = module.Workload(seed, str(workdir), child_env(), traced)
    null = NullTracer()
    for task in bench.warmup:
        try:
            bench.run(task, null)
        except Exception:  # counted when the same task runs timed
            pass
    return bench, time.perf_counter() - start


def setup_in_child(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(bench, seconds: float, traced: bool, tracer: Tracer | None,
            setup_child=None) -> dict:
    """Run whole rotations of the mix until the run is long enough.

    With setup_child, SETUP_CHILDREN set-up samples are taken from it at
    evenly spaced points of the run, between cycles and off the clock: the
    host's speed changes from one second to the next, and samples taken back
    to back would all see the same moment.  Returns the latencies of traced
    and untraced tasks, the number of failed tasks and the set-up samples.
    """
    cycles = bench.cycles
    rotation = len(cycles) * (2 if traced else 1)
    null = NullTracer()
    samples: dict[bool, list[float]] = {True: [], False: []}
    failures = 0
    setups: list[float] = []
    wanted = SETUP_CHILDREN if setup_child else 0
    paused = 0.0
    k = 0
    start = time.perf_counter()
    while True:
        trace_now = traced and (k // len(cycles)) % 2 == 0
        tr = tracer if trace_now else null
        for task in cycles[k % len(cycles)]:
            tr.start_task()
            t0 = time.perf_counter()
            try:
                with tr.span("task"):
                    bench.run(task, tr)
            except OracleMiss as exc:
                failures += 1
                if failures <= FAILURES_SHOWN:
                    print(f"perfbench: oracle miss: {exc}", file=sys.stderr)
            except Exception:
                failures += 1
                if failures <= FAILURES_SHOWN:
                    traceback.print_exc()
            samples[trace_now].append(time.perf_counter() - t0)
        k += 1
        elapsed = time.perf_counter() - start - paused
        if len(setups) < wanted and elapsed >= seconds * (len(setups) + 1) / (wanted + 1):
            pause = time.perf_counter()
            setups.append(setup_child())
            paused += time.perf_counter() - pause
        attempted = len(samples[True]) + len(samples[False])
        if (k % rotation == 0 and elapsed >= seconds and len(setups) == wanted
                and (traced or attempted >= MIN_TASKS)):
            break
    return {"samples": samples, "failures": failures, "attempted": attempted,
            "elapsed": elapsed, "cycles": k, "setups": setups}


def environment() -> dict:
    import numpy as np
    info = {var: os.environ[var] for var in THREAD_VARS}
    info.update(python=platform.python_version(), numpy=np.__version__, nproc=os.cpu_count())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "ptspin" / "__init__.py").is_file():
        print(f"perfbench: no ptspin sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    traced = args.trace == 1
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench, setup_s = set_up(args.workload, args.seed, traced, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer() if traced else None
        child = None if traced else (lambda: setup_in_child(args.workload, args.seed))
        run = measure(bench, args.seconds, traced, tracer, child)
        setup_samples = [setup_s] + run["setups"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted, failed = run["attempted"], run["failures"]
    info = environment()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, cycles=run["cycles"],
                elapsed_s=run["elapsed"], attempted=attempted, failed=failed)
    print("# " + json.dumps(info))

    if traced:
        traced_rotations = run["cycles"] // (2 * len(bench.cycles))
        values = {name: 0.0 for name in (m["name"] for m in spec["per_layer"])}
        values.update(bench.layer_metrics(tracer, traced_rotations))
        task_s = tracer.total_seconds("task")
        values["bethe.share"] = tracer.total_seconds("bethe.") / task_s if task_s else 0.0
        # Traced and untraced halves ran the same rotations of the mix.
        values["trace.overhead_frac"] = 1.0 - sum(run["samples"][False]) / sum(run["samples"][True])
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        declared = spec["per_layer"]
    else:
        latencies = sorted(run["samples"][False])
        values = {
            "tasks_per_s": (attempted - failed) / run["elapsed"],
            "task_p50_ms": 1e3 * statistics.median(latencies),
            "task_p90_ms": 1e3 * percentile(latencies, 0.9),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
        print(f"# fail_frac {failed / attempted!r} ratio (failed {failed} of {attempted})")
        print(f"# setup_s samples {setup_samples!r}")

    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        samples = f" (n={attempted})" if name.startswith("task_") else ""
        print(f"# {name} {metric['value']!r} {metric['unit']}{samples}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and save the results as a result set.

    python3 perfbench/series.py --out .perfbench_out/base.jsonl --seeds 1-10
    python3 perfbench/series.py --root ../parent --out parent.jsonl \\
                                --root . --out change.jsonl --seeds 1-10

Each line of an output file is one run: {"workload", "seed", "trace",
"result"}.  With several checkouts (--root, each with its own --out) every
seed runs on all of them, alternating which goes first, so that parent and
change form pairs for compare.py.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to run (repeatable; default: this one)")
    parser.add_argument("--out", action="append", required=True, type=Path,
                        help="result file, one per --root")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    roots = [r.resolve() for r in (args.root or [Path(__file__).resolve().parent.parent])]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    for out in args.out:
        out.parent.mkdir(parents=True, exist_ok=True)

    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(zip(roots, args.out))
        if i % 2:
            order.reverse()
        for workload in workloads:
            for root, out in order:
                result = run_once(root, workload, seed, seconds, args.trace)
                with open(out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"workload": workload, "seed": seed,
                                             "trace": args.trace, "result": result}) + "\n")
                print(f"{root.name} {workload} seed {seed}: failed {result['failed']} "
                      f"of {result['attempted']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write a checked-in perf record (BENCH_<n>.json) for a parent and a change.

    python3 perfbench/series.py --root ../parent --out parent.jsonl \\
                                --root . --out change.jsonl --seeds 1-10
    python3 scripts/bench_summary.py parent.jsonl change.jsonl --out BENCH_<n>.json

The two result sets are the ones series.py writes.  For every workload and
metric the record holds each side's run count, median and quartiles, the
ratio of the medians, how many seed pairs the change wins, and the verdict of
perfbench/compare.py, whose functions are reused here unchanged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import compare  # noqa: E402


def _side(values: dict[int, float]) -> dict:
    q1, median, q3 = compare.quartiles(list(values.values()))
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3}


def summarize(base_path: Path, change_path: Path) -> dict:
    spec = json.loads(compare.SPEC.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = compare.load(base_path), compare.load(change_path)
    workloads: dict[str, dict] = {}
    all_seeds: set[int] = set()
    for (workload, name), values in sorted(base["values"].items()):
        other = change["values"].get((workload, name))
        if not other:
            continue
        meta = declared.get(name, {"better": "lower"})
        seeds = sorted(set(values) & set(other))
        all_seeds.update(seeds)
        wins = sum(compare.better_than(other[s], values[s], meta["better"]) for s in seeds)
        base_median = statistics.median(values.values())
        workloads.setdefault(workload, {})[name] = {
            "unit": base["units"][name],
            "better": meta["better"],
            "bound": meta.get("bound"),
            "parent": _side(values),
            "change": _side(other),
            "ratio": statistics.median(other.values()) / base_median if base_median else None,
            "pair_wins": wins,
            "pairs": len(seeds),
            "verdict": compare.verdict(values, other, meta["better"], meta.get("bound"),
                                       base["units"][name]),
        }
    return {"seeds": sorted(all_seeds), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="result set of the parent commit")
    parser.add_argument("change", type=Path, help="result set of the change")
    parser.add_argument("--out", type=Path, required=True, help="record to write")
    args = parser.parse_args(argv)
    record = summarize(args.parent, args.change)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Summarise one result set, or compare a change against its base.

    python3 perfbench/compare.py BASE.jsonl            # medians and spreads
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # ratios and verdicts

Result sets are written by series.py.  For every workload and metric the
table gives the count, median and quartiles (statistics.quantiles, n=4) of
each side, the spread (q3 - q1) / median, the ratio new/base of the medians,
and a verdict:

- improved: at least 10 pairs (same workload and seed), the change wins at
  least nine tenths of them (ties count for neither), and the medians differ
  in the better direction by more than the base's quartile distance;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the spread of either side is wider than the bound and not
  every run of the change beats every run of the base, or a per-layer metric
  (which has no bound) is neither improved nor worse by the pair rule;
- no worse: otherwise.
A metric whose values are all equal on both sides reads "same"; a count
(unit "count") that differs anywhere reads "changed".
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict:
    """{(workload, metric): {seed: value}} plus units, from a result file."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    units: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                values.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
                units[name] = metric["unit"]
    return {"values": values, "units": units}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def better_than(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def pair_rule(base: dict[int, float], new: dict[int, float], better: str) -> bool:
    """The change wins 9/10 of at least 10 pairs and the medians differ by > base IQR."""
    seeds = sorted(set(base) & set(new))
    if len(seeds) < MIN_PAIRS:
        return False
    wins = sum(better_than(new[s], base[s], better) for s in seeds)
    q1, median_base, q3 = quartiles(list(base.values()))
    median_new = statistics.median(new.values())
    return (wins >= WIN_SHARE * len(seeds) and better_than(median_new, median_base, better)
            and abs(median_new - median_base) > q3 - q1)


def verdict(base: dict[int, float], new: dict[int, float], better: str,
            bound: float | None, unit: str) -> str:
    if len(set(base.values()) | set(new.values())) == 1:
        return "same"
    if unit == "count":
        return "changed"
    if pair_rule(base, new, better):
        return "improved"
    worse = "higher" if better == "lower" else "lower"
    if bound is None:
        return "worse" if pair_rule(base, new, worse) else "unresolved"
    median_base = statistics.median(base.values())
    median_new = statistics.median(new.values())
    all_better = all(better_than(n, b, better) for n in new.values() for b in base.values())
    if max(spread(list(base.values())), spread(list(new.values()))) > bound and not all_better:
        return "unresolved"
    loss = (median_new - median_base) / abs(median_base) if median_base else 0.0
    if better == "higher":
        loss = -loss
    return "worse" if loss > bound else "no worse"


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(args.base)
    new = load(args.new) if args.new else None

    header = ["workload", "metric", "unit", "n", "median", "q1", "q3", "spread"]
    if new:
        header += ["new_n", "new_median", "new_q1", "new_q3", "new_spread", "ratio", "verdict"]
    rows = [header]
    for (workload, name), values in sorted(base["values"].items()):
        meta = declared.get(name, {"better": "lower"})
        unit = base["units"][name]
        q1, med, q3 = quartiles(list(values.values()))
        row = [workload, name, unit, str(len(values)), _fmt(med), _fmt(q1), _fmt(q3),
               _fmt(spread(list(values.values())))]
        if new:
            other = new["values"].get((workload, name))
            if not other:
                row += ["0", "-", "-", "-", "-", "-", "missing"]
            else:
                n1, nmed, n3 = quartiles(list(other.values()))
                ratio = _fmt(nmed / med) if med else "-"
                row += [str(len(other)), _fmt(nmed), _fmt(n1), _fmt(n3),
                        _fmt(spread(list(other.values()))), f"{ratio} of {_fmt(med)}",
                        verdict(values, other, meta["better"], meta.get("bound"), unit)]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())

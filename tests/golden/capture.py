"""Regenerate the golden CLI corpus in tests/golden/cases.json.

Every case runs `ptspin.cli.main` in process, with PTSPIN_TOL unset and the
working directory set to tests/, so input paths (and any error message that
quotes them) are relative.  Each case records the exit code, stdout and
stderr.  Run it from the repository root against the checkout whose output
should be frozen:

    PYTHONPATH=src python tests/golden/capture.py

With --diff the cases are replayed against cases.json without writing it:
each case that would change is printed with the fields (exit, stdout,
stderr) that differ and, for JSON stdout, the largest move of a number, and
the exit status is 1 if any case differs.

tests/test_golden.py replays the corpus and requires byte identity.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from ptspin.cli import main as cli_main

TESTS = Path(__file__).resolve().parents[1]
OUTPUT = TESTS / "golden" / "cases.json"

FIXTURES = sorted(f"fixtures/{p.name}" for p in (TESTS / "fixtures").glob("*.json"))
EXTRA_INPUTS = sorted(f"golden/inputs/{p.name}" for p in (TESTS / "golden" / "inputs").glob("*.json"))
STATISTICS = ("boson", "fermion")

# Scalar parameter swept per input; inputs without one exercise the usage error.
SWEEP_PARAMS = {
    "fixtures/hspin_diag.json": "g=0.0:0.2:3",
    "fixtures/hspin_complex_spectrum.json": "a=-1.0:1.0:3",
    "fixtures/hspin_minus_identity.json": "f=-2.0:0.0:3",
    "fixtures/scalar_pt1.json": "c=3.0:5.0:3",
    "fixtures/scalar_pt2.json": "h1=-1.0:1.0:3",
    "fixtures/scalar_pt2_dirichlet.json": "h0=0.0:1.0:2",
    "golden/inputs/hspin_random.json": "e1=-1.0:1.0:3",
}
MOMENTA = "1.0,0.3,-0.7"
# N=4 is the smallest N whose word trie has interior nodes that are not words.
MOMENTA_N4 = "1.0,0.3,-0.7,-1.6"


def golden_argvs() -> list[list[str]]:
    argvs = []
    for path in FIXTURES + EXTRA_INPUTS:
        argvs.append(["validate", path])
        argvs.append(["classify", path])
        for stats in STATISTICS:
            argvs.append(["yop", path, "--k1", "1.0", "--k2", "-1.0", "--statistics", stats])
            argvs.append(["ybe", path, "--k", MOMENTA, "--statistics", stats])
            argvs.append(["bethe", path, "--k", "1.0,-1.0", "--statistics", stats])
            argvs.append(["bethe", path, "--k", MOMENTA, "--statistics", stats])
            argvs.append(["bethe", path, "--k", MOMENTA_N4, "--statistics", stats])
            for particles in range(2, 6):
                argvs.append(["bound", path, "--particles", str(particles), "--statistics", stats])
        param = SWEEP_PARAMS.get(path, "x=0.0:1.0:2")
        for run in ("classify", "validate", "ybe"):
            argvs.append(["sweep", path, "--run", run, "--param", param, "--k", MOMENTA])
    return argvs


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code or 0, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _numeric_leaves(doc, path=()) -> dict:
    """Map the path of every number in a decoded JSON document to its value."""
    if isinstance(doc, bool) or not isinstance(doc, (int, float, list, dict)):
        return {}
    if isinstance(doc, (int, float)):
        return {path: float(doc)}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return {leaf: value for key, item in items
            for leaf, value in _numeric_leaves(item, path + (key,)).items()}


def numeric_move(old: str, new: str) -> str:
    """Largest absolute change of a number between two JSON outputs."""
    try:
        before, after = _numeric_leaves(json.loads(old)), _numeric_leaves(json.loads(new))
    except json.JSONDecodeError:
        return "not JSON"
    if before.keys() != after.keys():
        return "numbers added or removed"
    move = max((abs(after[leaf] - before[leaf]) for leaf in before), default=0.0)
    return f"largest numeric move {move!r}"


def diff(stored: list[dict]) -> int:
    """Replay every stored case and print the ones that differ; 1 if any does."""
    differing = 0
    for before in stored:
        after = run_case(before["argv"])
        fields = [key for key in ("exit", "stdout", "stderr") if before[key] != after[key]]
        if "stdout" in fields:
            fields[fields.index("stdout")] = f"stdout ({numeric_move(before['stdout'], after['stdout'])})"
        if fields:
            differing += 1
            print(f"{' '.join(before['argv'])}: {', '.join(fields)}")
    print(f"{differing} of {len(stored)} cases differ", file=sys.stderr)
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="compare with cases.json instead of writing it")
    args = parser.parse_args(argv)
    os.environ.pop("PTSPIN_TOL", None)
    os.chdir(TESTS)
    if args.diff:
        return diff(json.loads(OUTPUT.read_text(encoding="utf-8")))
    cases = []
    for argv in golden_argvs():
        cases.append(run_case(argv))
        print(" ".join(argv), "->", cases[-1]["exit"], file=sys.stderr)
    OUTPUT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {OUTPUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate the golden CLI corpus in tests/golden/cases.json.

Every case runs `ptspin.cli.main` in process, with PTSPIN_TOL unset and the
working directory set to tests/, so input paths (and any error message that
quotes them) are relative.  Each case records the exit code, stdout and
stderr.  Run it from the repository root against the checkout whose output
should be frozen:

    PYTHONPATH=src python tests/golden/capture.py

tests/test_golden.py replays the corpus and requires byte identity.
"""
from __future__ import annotations

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

# Largest particle count for `bound` per input; the n=3 search at N=5 is too
# slow for the exhaustive reference to capture.
MAX_PARTICLES = {"golden/inputs/lambda_identity_n3.json": 4}

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
            for particles in range(2, MAX_PARTICLES.get(path, 5) + 1):
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


def main() -> None:
    os.environ.pop("PTSPIN_TOL", None)
    os.chdir(TESTS)
    cases = []
    for argv in golden_argvs():
        cases.append(run_case(argv))
        print(" ".join(argv), "->", cases[-1]["exit"], file=sys.stderr)
    OUTPUT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {OUTPUT}", file=sys.stderr)


if __name__ == "__main__":
    main()

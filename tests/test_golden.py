"""Byte-for-byte replay of the golden CLI corpus in tests/golden/cases.json.

Each case pins the exit code, stdout and stderr of one `ptspin` invocation;
tests/golden/capture.py regenerates the corpus.
"""
import json
from pathlib import Path

import pytest

from golden.capture import golden_argvs
from ptspin.cli import main

TESTS = Path(__file__).parent
CASES = json.loads((TESTS / "golden" / "cases.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _golden_env(monkeypatch):
    monkeypatch.delenv("PTSPIN_TOL", raising=False)
    monkeypatch.chdir(TESTS)


def test_golden_corpus_replays_byte_identically(capsys):
    mismatches = []
    for case in CASES:
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if (code or 0, out, err) != (case["exit"], case["stdout"], case["stderr"]):
            mismatches.append(" ".join(case["argv"]))
    assert len(CASES) > 300
    assert mismatches == []


def test_corpus_matches_the_capture_argv_list():
    assert [case["argv"] for case in CASES] == golden_argvs()

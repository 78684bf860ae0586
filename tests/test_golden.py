"""Byte-for-byte replay of the golden CLI corpus in tests/golden/cases.json.

Each case pins the exit code, stdout and stderr of one `ptspin` invocation;
tests/golden/capture.py regenerates the corpus.
"""
import json
from pathlib import Path

import pytest

from golden.capture import golden_argvs, numeric_move
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


def test_numeric_move_reports_the_largest_change():
    assert numeric_move('{"a":[1.0,2.0],"b":true}', '{"a":[1.0,2.5],"b":false}') == \
        "largest numeric move 0.5"
    assert numeric_move("[1]", "[1,2]") == "numbers added or removed"
    assert numeric_move("param,value\r\n", "param,other\r\n") == "not JSON"

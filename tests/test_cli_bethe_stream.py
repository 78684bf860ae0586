"""`ptspin bethe` writes its document one coefficient row at a time.

The streamed output must equal, byte for byte, the one-document encoder it
replaced (kept below as the reference), and a failing run must write only its
error JSON.
"""
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ptspin import cli
from ptspin.bethe import _bethe, _plan
from ptspin.boundary import load_boundary_condition, lower
from ptspin.linalg import SpinDims, matrix_to_json, vector_from_json

TESTS = Path(__file__).parent
DENSE = str(TESTS / "golden" / "inputs" / "hspin_random.json")
DIAG = str(TESTS / "fixtures" / "hspin_diag.json")
MOMENTA = (1.0, 0.3, -0.7, -1.6, 2.2, -2.9)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PTSPIN_TOL", raising=False)


def one_document(path, k, statistics, u_init):
    """The reference encoder: the whole bethe document as nested lists, then
    one json.dumps with the CLI's separators."""
    bc = lower(load_boundary_condition(path))
    momenta = [float(part) for part in k.split(",")]
    if u_init is None:
        u = np.zeros(SpinDims(bc.n, len(momenta)).total_dim, dtype=np.complex128)
        u[0] = 1.0
    else:
        u = vector_from_json(json.loads(u_init))
    state, consistency = _bethe(bc, momenta, u, statistics, consistency=True)
    doc = {
        "momenta": [float(k) for k in momenta],
        "statistics": state.statistics.value,
        "path_consistency": consistency,
        "coefficients": [{"perm": list(perm), "word": list(word), "u": row}
                         for (perm, word), row in zip(state.words.items(), matrix_to_json(state.array))],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def run_cli(capsys, *args):
    rc = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def u_init_text(N):
    entries = np.random.default_rng(N).normal(size=(2 ** N, 2))
    entries[0, 1] = -0.0
    return json.dumps(entries.tolist())


@pytest.mark.parametrize("with_u_init", [False, True], ids=["default_u", "u_init"])
@pytest.mark.parametrize("statistics", ["boson", "fermion"])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_streamed_document_equals_the_one_document_encoder(capsys, tmp_path, N, statistics,
                                                           with_u_init):
    k = ",".join(repr(m) for m in MOMENTA[:N])
    u_init = u_init_text(N) if with_u_init else None
    argv = ["bethe", DENSE, "--k", k, "--statistics", statistics]
    if u_init is not None:
        argv += ["--u-init", u_init]
    expected = one_document(DENSE, k, statistics, u_init)
    assert run_cli(capsys, *argv) == (0, expected, "")
    target = tmp_path / "bethe.json"
    assert run_cli(capsys, "--output", target, *argv) == (0, "", "")
    assert target.read_text(encoding="utf-8") == expected


def test_bethe_returns_one_piece_per_row_between_head_and_tail():
    N = 4
    args = cli._build_parser().parse_args(["bethe", DIAG, "--k", "1.0,0.3,-0.7,-1.6"])
    code, pieces = cli.cmd_bethe(args, None)
    assert code == 0 and not isinstance(pieces, str)
    pieces = list(pieces)
    assert len(pieces) == math.factorial(N) + 2
    assert pieces[0].endswith(',"coefficients":[') and pieces[-1] == "]}\n"
    assert all(piece.startswith(("{", ",{")) for piece in pieces[1:-1])


def test_failing_bethe_writes_only_its_error(capsys, tmp_path):
    separated_free = str(TESTS / "fixtures" / "separated_free.json")
    argv = ("bethe", separated_free, "--k", "1.0,1.0,0.3")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and err == ""
    assert out.count("\n") == 1 and out.startswith('{"error":"singular","detail":')
    assert json.loads(out)["detail"].startswith("momentum pair (1,2) gives a singular")
    target = tmp_path / "bethe.json"
    assert run_cli(capsys, "--output", target, *argv) == (1, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_bethe_output_memory_stays_near_the_coefficient_array(tmp_path):
    """The n=2 N=6 bethe --output call may hold the (720, 64) coefficient array
    and the path-consistency workspace, but not a document of Python objects
    (a nested-list document peaks near 14x the array)."""
    _plan(6)
    cli._build_parser()
    coefficients = math.factorial(6) * 2 ** 6 * 16
    argv = ["--output", str(tmp_path / "bethe.json"), "bethe", DIAG,
            "--k", ",".join(repr(m) for m in MOMENTA)]
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 2 * coefficients


def test_writing_the_pieces_holds_a_few_rows_not_the_document(tmp_path):
    """Once the coefficients exist, emitting them allocates what a few rows
    need; joining the rows first would hold the whole 1.8 MB text twice."""
    target = tmp_path / "bethe.json"
    args = cli._build_parser().parse_args(["--output", str(target), "bethe", DENSE,
                                           "--k", ",".join(repr(m) for m in MOMENTA)])
    code, pieces = cli.cmd_bethe(args, None)
    tracemalloc.start()
    try:
        cli._emit(args, pieces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size / 16

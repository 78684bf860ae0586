"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bethe_scan  # noqa: E402
import bound_search  # noqa: E402
import cli_corpus  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from ptspin import hspin  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The smallest task size of each workload, used to keep smoke runs short.
SMALLEST = {
    "bethe-scan": (bethe_scan, lambda t: t.N == 3),
    "bound-search": (bound_search, lambda t: t.N == 2),
    "cli-corpus": (cli_corpus, lambda t: t.argv[0] in ("validate", "classify")),
}


@pytest.fixture
def smallest(monkeypatch):
    """Cut every workload's cycles down to its smallest tasks; no minimum task count."""
    monkeypatch.setattr(run, "MIN_TASKS", 1)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)
    for module, keep in SMALLEST.values():
        original = module.Workload.__init__

        def init(self, *args, _original=original, _keep=keep, **kwargs):
            _original(self, *args, **kwargs)
            self.cycles = [[t for t in cycle if _keep(t)] for cycle in self.cycles]
            self.warmup = []
        monkeypatch.setattr(module.Workload, "__init__", init)


@pytest.mark.parametrize("workload", sorted(SMALLEST))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_unit(workload, trace, smallest, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert re.search(rf"^# {re.escape(m['name'])} \S+ {re.escape(m['unit'])}\b", out, re.M)
    if not trace:
        assert "# fail_frac 0.0 ratio" in out
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _bench(module, seed, tmp_path, keep):
    bench = module.Workload(seed, str(tmp_path), run.child_env(), False)
    bench.cycles = [[t for t in cycle if keep(t)] for cycle in bench.cycles]
    return bench


def test_corrupted_bethe_oracle_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_TASKS", 1)
    bench = _bench(bethe_scan, 3, tmp_path, lambda t: t.N == 3 and not t.scalar)
    # A random coupling labelled as a scalar control must miss the YBE = 0 oracle.
    bench.cycles = [[dataclasses.replace(t, scalar=True) for t in c] for c in bench.cycles]
    result = run.measure(bench, 0, False, None)
    assert result["failures"] == result["attempted"] > 0


def test_corrupted_bound_oracle_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_TASKS", 1)
    bench = _bench(bound_search, 3, tmp_path,
                   lambda t: t.N == 2 and t.coupling == "hspin_diag")
    monkeypatch.setattr(bound_search, "bound_energy", lambda lam, N: 1.0)
    result = run.measure(bench, 0, False, None)
    assert result["failures"] == result["attempted"] > 0


def test_corrupted_cli_oracle_and_crash_count_as_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_TASKS", 1)
    bench = _bench(cli_corpus, 3, tmp_path, lambda t: t.argv[0] == "classify")
    first, second = bench.cycles[0][:2]
    bench.cycles = [[cli_corpus.Task(first.argv, first.expected_code, b"corrupted\n"),
                     cli_corpus.Task(second.argv, 99, second.expected_stdout)]]
    result = run.measure(bench, 0, False, None)
    assert result["failures"] == 2

    monkeypatch.setattr(bench, "run", lambda task, tracer: 1 / 0)
    assert run.measure(bench, 0, False, None)["failures"] == 2


def test_generators_match_the_test_suite_helpers():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    for seed in range(5):
        for symmetric in (False, True):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = suite.random_hspin(a, symmetric=symmetric).F
            assert np.array_equal(hspin(**inputs.hspin_params(b, symmetric=symmetric)).F, expected)
            assert suite.separated_momenta(a, 5) == inputs.separated_momenta(b, 5)


def test_inputs_repeat_for_a_seed(tmp_path):
    a = bethe_scan.Workload(11, str(tmp_path), run.child_env(), False)
    b = bethe_scan.Workload(11, str(tmp_path), run.child_env(), False)
    c = bethe_scan.Workload(12, str(tmp_path), run.child_env(), False)
    first = [t.momenta for t in a.cycles[0]]
    assert first == [t.momenta for t in b.cycles[0]]
    assert first != [t.momenta for t in c.cycles[0]]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(SPEC["command"] + ["--workload", "bethe-scan", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _record(workload, seed, values):
    return {"workload": workload, "seed": seed, "trace": 0,
            "result": {"metrics": {name: {"value": v, "unit": "ms"} for name, v in values.items()}}}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return compare.load(path)


def test_compare_verdicts(tmp_path):
    rng = np.random.default_rng(0)
    base = {s: 100.0 + rng.uniform(-1, 1) for s in range(10)}
    faster = {s: 0.5 * v for s, v in base.items()}
    slower = {s: 1.3 * v for s, v in base.items()}
    near = {s: v + rng.uniform(-1, 1) for s, v in base.items()}
    noisy = {s: 100.0 * (1 + (0.5 if s % 2 else -0.3)) for s in range(10)}
    assert compare.verdict(base, faster, "lower", 0.1, "ms") == "improved"
    assert compare.verdict(base, slower, "lower", 0.1, "ms") == "worse"
    assert compare.verdict(base, near, "lower", 0.1, "ms") == "no worse"
    assert compare.verdict(base, noisy, "lower", 0.1, "ms") == "unresolved"
    assert compare.verdict(base, faster, "higher", 0.1, "1/s") == "worse"
    assert compare.verdict(base, faster, "lower", None, "ms") == "improved"
    assert compare.verdict({1: 2.0, 2: 2.0}, {1: 2.0}, "higher", None, "count") == "same"
    assert compare.verdict({1: 2.0}, {1: 3.0}, "higher", None, "count") == "changed"

    loaded = _write(tmp_path / "a.jsonl", [_record("w", s, {"task_p50_ms": v})
                                            for s, v in base.items()])
    assert loaded["values"][("w", "task_p50_ms")] == base
    assert loaded["units"]["task_p50_ms"] == "ms"


def test_fd_bound_is_second_order():
    for lam in (-0.5, -2.0):
        for N in (2, 3):
            assert bound_search.fd_bound(lam, N, 2e-3) > 3.9 * bound_search.fd_bound(lam, N, 1e-3)

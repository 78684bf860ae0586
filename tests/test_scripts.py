"""Smoke runs of the experiment scripts in scripts/."""
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ybe_report_writes_controls_and_draws(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert load_script("ybe_report").main(["--draws", "2", "--output", str(target)]) == 0
    report = json.loads(target.read_text())
    assert report["controls"]["scalar_coupling"] <= 1e-12
    assert report["controls"]["constant_swap"] <= 1e-12
    assert len(report["draws"]) == 2
    # hspin couplings commute with the pair exchange, so both diagnostics agree.
    assert all(draw["agreement"] <= 1e-12 for draw in report["draws"])
    assert f"wrote {target}" in capsys.readouterr().out


def test_fd_convergence_is_second_order(capsys):
    assert load_script("fd_convergence").main(["--spacings", "4e-3,2e-3"]) == 0
    ratios = [float(line.split()[-1]) for line in capsys.readouterr().out.splitlines()
              if line.strip().startswith("2.0e-03")]
    assert len(ratios) == 2
    assert all(abs(ratio - 4.0) <= 0.1 for ratio in ratios)


def write_runs(path, values):
    with open(path, "w", encoding="utf-8") as handle:
        for seed, value in enumerate(values, start=1):
            metrics = {"tasks_per_s": {"value": value, "unit": "1/s"},
                       "bethe.share": {"value": 0.5, "unit": "ratio"}}
            handle.write(json.dumps({"workload": "w", "seed": seed, "trace": 0,
                                     "result": {"metrics": metrics}}) + "\n")


def test_bench_summary_records_medians_wins_and_verdicts(tmp_path, capsys):
    parent, change, target = tmp_path / "parent.jsonl", tmp_path / "change.jsonl", tmp_path / "B.json"
    write_runs(parent, [10.0 + 0.1 * i for i in range(10)])
    write_runs(change, [20.0 + 0.1 * i for i in range(9)] + [5.0])
    assert load_script("bench_summary").main([str(parent), str(change), "--out", str(target)]) == 0
    record = json.loads(target.read_text())
    assert record["seeds"] == list(range(1, 11))
    rate = record["workloads"]["w"]["tasks_per_s"]
    assert rate["parent"]["median"] == 10.45 and rate["change"]["median"] == 20.35
    assert (rate["pair_wins"], rate["pairs"], rate["better"]) == (9, 10, "higher")
    assert rate["verdict"] == "improved"
    share = record["workloads"]["w"]["bethe.share"]
    assert (share["pair_wins"], share["verdict"], share["ratio"]) == (0, "same", 1.0)
    assert f"wrote {target}" in capsys.readouterr().out


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    (tmp_path / "mod.py").write_text('"""Module\ndocstring."""\n\n# comment\n'
                                     'def f(x):\n    """Doc."""\n    return (x +\n            1)\n')
    (tmp_path / "empty.py").write_text("")
    assert load_script("code_lines").main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["empty.py", "0", "0"], ["mod.py", "8", "3"],
                    ["total", "8", "3"]]
    assert load_script("code_lines").main([]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert "bethe.py" in names and names[-1] == "total"


def test_bethe_memory_measures_one_fresh_process_per_particle_count(capsys):
    assert load_script("bethe_memory").main(["--particles", "4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["N", "max_rss_mb", "wall_s", "output_mb"]
    N, rss, wall, size = row.split()
    assert N == "4" and float(rss) > 1.0 and float(wall) > 0.0
    # 24 coefficient rows of 16 [re, im] pairs each
    assert 0.001 < float(size) < 0.1
    scalar = Path(__file__).parent / "fixtures" / "scalar_pt2.json"
    assert load_script("bethe_memory").main(["--particles", "4", "--fixture", str(scalar)]) == 0
    # the same 24 rows of one [re, im] pair each
    assert float(capsys.readouterr().out.split()[-1]) < float(size) / 2


def test_startup_cost_times_fresh_processes_and_lists_their_modules(capsys):
    assert load_script("startup_cost").main(
        ["--commands", "validate,bound,bethe,sweep-validate", "--repeats", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["command", "ms", "modules", "extra"]
    cells = {row.split()[0]: row.split()[1:] for row in rows}
    assert {name: modules for name, (_, modules, _) in cells.items()} == {
        "validate": "boundary,cli,linalg", "bound": "boundary,cli,linalg,spectra",
        "bethe": "bethe,boundary,cli,linalg,scattering", "sweep-validate": "boundary,cli,linalg"}
    assert all(float(ms) > 0.0 for ms, _, _ in cells.values())
    # Beyond numpy's own modules: the cli's argparse and json, csv only where a
    # sweep writes it, submodules folded into their package, never numpy.ma.
    extra = {name: set(names.split(",")) for name, (_, _, names) in cells.items()}
    assert all({"argparse", "json"} <= names and "json.decoder" not in names
               and not names & {"numpy", "numpy.ma"} for names in extra.values())
    assert {name for name, names in extra.items() if "csv" in names} == {"sweep-validate"}

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

"""Smoke runs of the scripts at tiny sizes, so that a change to the library
calls they make shows up here."""

import importlib.util
from pathlib import Path

from lupus import dataprep

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_xor_seed_one_seed(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["search_xor_seed.py", "1"])
    _load("search_xor_seed").main()
    out = capsys.readouterr().out
    assert "seed 0: training accuracy 1.00" in out
    assert "perfect seeds: [0]" in out


def test_search_train_seed_evaluates_a_seed(heart_csv):
    ds = dataprep.clean(dataprep.load_table(heart_csv))
    report = _load("search_train_seed").evaluate_seed(ds, 0, swarm=5, iters=3, bp_epochs=2)
    assert 0.0 <= report.accuracy <= 1.0
    assert report.counts.tp + report.counts.tn + report.counts.fp + report.counts.fn == 89


def test_ordering_pass_rate_checks_a_base():
    passed = _load("ordering_pass_rate").check_base(42, n_runs=2, n_agents=5, max_iter=10)
    assert isinstance(passed, bool)

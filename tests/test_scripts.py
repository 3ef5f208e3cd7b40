"""Smoke runs of the scripts at tiny sizes, so that a change to the library
calls they make shows up here."""

import dataclasses
import json

from conftest import load_script
from lupus import dataprep
from lupus.cli import main as cli_main
from lupus.fileio import json_text
from lupus.optimizer import GwoConfig


def test_search_xor_seed_one_seed(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["search_xor_seed.py", "1"])
    load_script("search_xor_seed").main()
    out = capsys.readouterr().out
    assert "seed 0: training accuracy 1.00" in out
    assert "perfect seeds: [0]" in out


def test_search_train_seed_witness_accuracy(heart_csv, shared_fit):
    # The recorded seed-0 witness at the `lupus train` defaults; when
    # test_acceptance's criterion 6 ran first, its CLI run is shared here.
    ds = dataprep.clean(dataprep.load_table(heart_csv))
    report = load_script("search_train_seed").evaluate_seed(ds, 0)
    assert round(report.accuracy, 4) == 0.8876


def test_search_train_seed_matches_cli(heart_csv, tmp_path):
    assert cli_main(["train", "--data", str(heart_csv), "--out", str(tmp_path), "--seed", "0",
                     "--swarm", "5", "--iters", "3", "--bp-epochs", "2"]) == 0
    trained = json.loads((tmp_path / "train_report.json").read_text())
    ds = dataprep.clean(dataprep.load_table(heart_csv))
    report = load_script("search_train_seed").evaluate_seed(
        ds, 0, swarm=GwoConfig(n_agents=5, max_iter=3), bp_epochs=2)
    assert json.loads(json_text(dataclasses.asdict(report))) == trained["test_metrics"]


def test_ordering_pass_rate_checks_a_base():
    passed = load_script("ordering_pass_rate").check_base(42, n_runs=2, n_agents=5, max_iter=10)
    assert isinstance(passed, bool)

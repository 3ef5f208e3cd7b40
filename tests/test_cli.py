import contextlib
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lupus import cli, dataprep, mlp
from lupus.cli import main
from lupus.errors import DataError

BENCH_SMALL = ["bench", "--functions", "f1", "--dims", "4", "--algs", "gwo,acgwo",
               "--runs", "2", "--agents", "5", "--iters", "15", "--seed", "42"]
BENCH_SMALL_NO_RUNS = BENCH_SMALL[:7] + BENCH_SMALL[9:]
TRAIN_SMALL = ["train", "--mode", "acgwo-bp", "--swarm", "10", "--iters", "30",
               "--bp-epochs", "20", "--learning-rate", "0.1", "--seed", "3"]


@pytest.fixture()
def workdir(tmp_path, monkeypatch, heart_csv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    shutil.copy(heart_csv, tmp_path / "data" / "heart.csv")
    return tmp_path


def run_cli(args):
    return main(list(args))


class TestCurvesCommand:
    def test_schedule_dump(self, workdir):
        assert run_cli(["curves"]) == 0
        lines = Path("results/curves.csv").read_text().splitlines()
        assert lines[0] == "iter,wa,ww,fi_unit"
        assert len(lines) == 1002
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[2]) == pytest.approx(2.336620, abs=1e-6)
        assert float(last[1]) == 0.0
        ww = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b < a for a, b in zip(ww, ww[1:]))

    def test_rerun_byte_identical(self, workdir):
        assert run_cli(["curves", "--iters", "100"]) == 0
        first = Path("results/curves.csv").read_bytes()
        assert run_cli(["curves", "--iters", "100"]) == 0
        assert Path("results/curves.csv").read_bytes() == first

    def test_invalid_iters_exit_one(self, workdir):
        assert run_cli(["curves", "--iters", "0"]) == 1


class TestCurveFlags:
    @pytest.mark.parametrize("args,flag", [
        (["bench", "--algs", "cgwo", "--inertia", "1,nan,2,1.7"], "--inertia"),
        (["bench", "--algs", "agwo", "--leader", "1,0,2,nan"], "--leader"),
        (["curves", "--inertia", "1,nan,2,1.7"], "--inertia"),
        (["curves", "--inertia", "inf,0,2,1.7"], "--inertia"),
        (["curves", "--leader", "1,0,-inf,2.1"], "--leader"),
        # Finite, but a * a underflows to 0, so the curve's peak is inf.
        (["curves", "--inertia", "1e-300,0,0,1.7"], "--inertia"),
        (["bench", "--algs", "cgwo", "--functions", "f1", "--runs", "1",
          "--inertia", "1e-300,0,2,1.7"], "--inertia"),
        # Finite, but d + c/pi overflows, so every inertia weight is inf.
        (["curves", "--inertia", "1,0,1.7e308,1.7e308"], "--inertia"),
    ], ids=["bench-inertia-nan", "bench-leader-nan", "curves-inertia-nan",
            "curves-inertia-inf", "curves-leader-minus-inf", "curves-inertia-tiny-scale",
            "bench-inertia-tiny-scale", "curves-inertia-overflow"])
    def test_non_finite_parameter_exit_one(self, workdir, capsys, args, flag):
        assert run_cli(args + ["--iters", "3"]) == 1
        err = capsys.readouterr().err
        assert flag in err and "must be finite" in err
        assert not Path("results").exists()


def _no_work(*_args):
    raise AssertionError("work started before the output location was checked")


class TestOutputLocation:
    """An output location that cannot be written exits 1, naming the flag and
    the path, before any work starts: a stub for the work would exit 3."""

    @pytest.fixture()
    def blocked(self, workdir, monkeypatch):
        for module, name in ((cli.harness, "run_plan"), (cli.dataprep, "load_table"),
                             (cli.curves, "cauchy_inertia")):
            monkeypatch.setattr(module, name, _no_work)
        Path("afile").write_text("x")
        Path("adir/table.csv").mkdir(parents=True)

    @pytest.mark.parametrize("args,named", [
        (["bench", "--out", "afile"], "'--out': 'afile'"),
        (["bench", "--out", "adir"], "'--out': 'adir/table.csv'"),
        (["train", "--out", "afile"], "'--out': 'afile'"),
        (["curves", "--out", "adir"], "'--out': 'adir'"),
        (["curves", "--out", "afile/x.csv"], "'--out': 'afile'"),
        (["eval", "--out", "afile"], "'--out': 'afile'"),
        (["eda", "--out", "afile/corr.csv"], "'--out': 'afile'"),
        (["eda", "--clean-out", "adir/table.csv"], "'--clean-out': 'adir/table.csv'"),
    ], ids=["bench-file", "bench-table-dir", "train-file", "curves-dir", "curves-under-file",
            "eval-file", "eda-under-file", "eda-clean-dir"])
    def test_exit_one_before_work(self, blocked, capsys, args, named):
        assert run_cli(args) == 1
        assert named in capsys.readouterr().err


class TestIntegerFlagRanges:
    """An integer flag below its least value exits 1, naming the flag, before
    any work starts."""

    @pytest.mark.parametrize("args", [
        BENCH_SMALL + ["--agents", "2"],
        BENCH_SMALL + ["--runs", "0"],
        BENCH_SMALL + ["--iters", "0"],
        TRAIN_SMALL + ["--swarm", "2"],
        TRAIN_SMALL + ["--iters", "0"],
        # acgwo mode runs no gradient steps, yet the value is still checked.
        TRAIN_SMALL + ["--mode", "acgwo", "--bp-epochs", "-1"],
        ["curves", "--iters", "0"],
    ], ids=["bench-agents", "bench-runs", "bench-iters", "train-swarm", "train-iters",
            "train-bp-epochs", "curves-iters"])
    def test_below_least_value_exit_one(self, workdir, capsys, args):
        assert run_cli(args) == 1
        assert args[-2] in capsys.readouterr().err
        assert not Path("results").exists()


class TestBenchCommand:
    def test_small_sweep(self, workdir):
        assert run_cli(BENCH_SMALL) == 0
        lines = Path("results/table.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per (alg, fn, dim)
        series = sorted(Path("results/convergence").glob("*.csv"))
        assert [p.name for p in series] == [
            "acgwo_f1_4_0.csv", "acgwo_f1_4_1.csv", "gwo_f1_4_0.csv", "gwo_f1_4_1.csv"]
        assert len(series[0].read_text().splitlines()) == 16

    def test_rerun_byte_identical(self, workdir):
        assert run_cli(BENCH_SMALL) == 0
        table = Path("results/table.csv").read_bytes()
        series = {p.name: p.read_bytes() for p in Path("results/convergence").glob("*.csv")}
        assert run_cli(BENCH_SMALL) == 0
        assert Path("results/table.csv").read_bytes() == table
        for p in Path("results/convergence").glob("*.csv"):
            assert p.read_bytes() == series[p.name]

    def test_smaller_sweep_removes_earlier_series(self, workdir):
        # gwo_f1_5_1.csv would otherwise read as run 1 of a one-run cell.
        sweep = ["bench", "--algs", "gwo", "--dims", "5", "--agents", "5", "--iters", "10",
                 "--out", "OUT"]
        assert run_cli(sweep + ["--functions", "f1,f2", "--runs", "2"]) == 0
        assert len(list(Path("OUT/convergence").iterdir())) == 4
        assert run_cli(sweep + ["--functions", "f1", "--runs", "1"]) == 0
        assert len(Path("OUT/table.csv").read_text().splitlines()) == 2
        assert sorted(p.name for p in Path("OUT/convergence").iterdir()) == ["gwo_f1_5_0.csv"]

    def test_unknown_function_names_id(self, workdir, capsys):
        assert run_cli(["bench", "--functions", "f77"]) == 1
        assert "f77" in capsys.readouterr().err

    def test_usage_error_exit_one(self, workdir):
        assert run_cli(["bench", "--runs", "notanint"]) == 1

    def test_dim_below_function_minimum_exit_one(self, workdir, capsys):
        assert run_cli(["bench", "--functions", "f1,f4", "--dims", "1",
                        "--runs", "1", "--agents", "5", "--iters", "3"]) == 1
        err = capsys.readouterr().err
        assert "f4" in err and "dim 1" in err
        assert not Path("results").exists()

    @pytest.mark.parametrize("algs,leader,code", [
        ("agwo", "1,0,10,0", 1),
        ("gwo,acgwo", "1,0,2,0.5", 1),
        ("agwo", "1,0,-2,0", 1),
        ("agwo", "1.0,0.0,2.0,2.1", 0),  # the default curve
        ("gwo,cgwo", "1,0,10,0", 0),  # no adaptive variant reads the curve
    ])
    def test_leader_curve_must_keep_weights_positive(self, workdir, capsys,
                                                     algs, leader, code):
        assert run_cli(["bench", "--algs", algs, "--functions", "f1", "--dims", "5",
                        "--runs", "1", "--agents", "5", "--iters", "5",
                        "--leader", leader]) == code
        if code:
            err = capsys.readouterr().err
            assert "leader curve a,b,c,d" in err and "d - c/(pi*a)" in err
            assert not Path("results").exists()

    def test_seed_changes_results(self, workdir):
        assert run_cli(BENCH_SMALL) == 0
        first = Path("results/table.csv").read_bytes()
        assert run_cli(BENCH_SMALL[:-1] + ["43"]) == 0
        assert Path("results/table.csv").read_bytes() != first

    def test_env_seed_matches_flag_seed(self, workdir, monkeypatch):
        assert run_cli(BENCH_SMALL) == 0
        flagged = Path("results/table.csv").read_bytes()
        monkeypatch.setenv("LUPUS_SEED", "42")
        assert run_cli(BENCH_SMALL[:-2]) == 0
        assert Path("results/table.csv").read_bytes() == flagged

    def test_config_file_overrides_env_but_not_flag(self, workdir, monkeypatch):
        Path("cfg.json").write_text(json.dumps({"bench": {"iters": 15}, "seed": 42}))
        monkeypatch.setenv("LUPUS_SEED", "7")
        base = [a for a in BENCH_SMALL if a not in ("--iters", "15", "--seed", "42")]
        assert run_cli(base + ["--config", "cfg.json"]) == 0
        from_config = Path("results/table.csv").read_bytes()
        assert run_cli(BENCH_SMALL) == 0
        assert Path("results/table.csv").read_bytes() == from_config


    @pytest.mark.parametrize("args,named", [
        (["--algs", "pso,gwo", "--agents", "2"], "--agents"),
        (["--algs", "pso,cgwo", "--inertia", f"1,0,{math.pi!r},-1"],
         "inertia curve is 0"),
    ], ids=["gwo-agents", "cgwo-inertia-zero-at-start"])
    def test_every_algorithm_checked_before_any_run(self, workdir, monkeypatch, capsys,
                                                    args, named):
        # pso's cells run first; the settings of a later algorithm were
        # checked only when its own first cell started.
        monkeypatch.setattr(cli.optimizer, "pso_run", _no_work)
        assert run_cli(["bench", "--functions", "f1", "--dims", "2", "--runs", "1",
                        "--iters", "3"] + args) == 1
        assert named in capsys.readouterr().err
        assert not Path("results").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_one(self, workdir, capsys, workers):
        assert run_cli(BENCH_SMALL + ["--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not Path("results").exists()

    @pytest.mark.parametrize("flag,value", [("--functions", "f1,f1"), ("--algs", "gwo,acgwo,gwo"),
                                            ("--dims", "4,3,4")])
    def test_repeated_entry_exit_one(self, workdir, capsys, flag, value):
        # A repeat ran its cells twice and wrote its table rows twice (exit 0).
        assert run_cli(BENCH_SMALL + [flag, value]) == 1
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err
        assert not Path("results").exists()

    def test_worker_pool_writes_serial_bytes(self, workdir, capsys):
        # f5 draws from each cell-run's stream, so a stream handed to the
        # wrong cell-run shows in its bytes.
        sweep = ["bench", "--functions", "f1,f4,f5", "--dims", "2,5", "--algs", "acgwo,pso",
                 "--runs", "2", "--agents", "5", "--iters", "10"]
        written = {}
        for workers in ("1", "2"):
            assert run_cli(sweep + ["--workers", workers, "--out", f"w{workers}"]) == 0
            out = capsys.readouterr().out.replace(f"w{workers}", "OUT")
            files = {p.relative_to(f"w{workers}"): p.read_bytes()
                     for p in Path(f"w{workers}").rglob("*.csv")}
            written[workers] = (out, files)
        assert written["1"] == written["2"]
        out, files = written["1"]
        assert out.startswith("wrote OUT/table.csv (12 rows) and 24 convergence series")
        assert len(files) == 25


class TestConfigFile:
    """Config-file values pass the checks their flags pass, before any work."""

    @pytest.mark.parametrize("args,config,named", [
        pytest.param([a for a in TRAIN_SMALL if a not in ("--mode", "acgwo-bp")],
                     {"train": {"mode": "xx"}}, ["train.mode", "'xx'"], id="choice"),
        pytest.param(BENCH_SMALL[:-2], {"seed": "abc"}, ["seed", "'abc'"], id="seed"),
        pytest.param(["bench"], {"bench": {"runs": "x"}}, ["bench.runs", "'x'"], id="int"),
        pytest.param(["bench"], {"bench": {"workers": 0}}, ["bench.workers"], id="range"),
        pytest.param(["bench"], {"bench": {"agents": 2}}, ["bench.agents"], id="range-min"),
        pytest.param(["bench"], {"bench": {"agents": None}}, ["bench.agents", "null"],
                     id="null"),
        pytest.param(BENCH_SMALL, {"bench": {"unknown_key": 1}},
                     ["'bench'", "'unknown_key'"], id="unknown-key"),
        pytest.param(["curves", "--iters", "3"], {"curves": {"seed": 1}},
                     ["'curves'", "'seed'"], id="key-of-another-command"),
        pytest.param(BENCH_SMALL, {"bnech": {"runs": 1}}, ["'bnech'"], id="unknown-section"),
        pytest.param(BENCH_SMALL_NO_RUNS, {"bench": {"runs": 2.5}}, ["bench.runs", "2.5"],
                     id="int-float"),
        pytest.param(BENCH_SMALL_NO_RUNS, {"bench": {"runs": True}}, ["bench.runs", "true"],
                     id="int-bool"),
        pytest.param(BENCH_SMALL, {"bench": {"workers": 1.5}}, ["bench.workers", "1.5"],
                     id="range-float"),
        pytest.param(BENCH_SMALL[:-2], {"seed": 3.0}, ["seed", "3.0"], id="seed-float"),
        pytest.param([a for a in TRAIN_SMALL if a not in ("--learning-rate", "0.1")],
                     {"train": {"learning_rate": True}}, ["train.learning_rate", "true"],
                     id="float-bool"),
        # Values that a check in the command body used to report under a flag
        # that was never typed.
        pytest.param([a for a in TRAIN_SMALL if a not in ("--learning-rate", "0.1")],
                     {"train": {"learning_rate": 0}},
                     ["config file cfg.json: train.learning_rate", "got 0.0"], id="learning-rate"),
        pytest.param(TRAIN_SMALL, {"train": {"bounds": "5,-5"}},
                     ["config file cfg.json: train.bounds", "[5.0, -5.0]"], id="bounds-order"),
        pytest.param(TRAIN_SMALL, {"train": {"bounds": "a,b"}},
                     ["config file cfg.json: train.bounds", "'a'"], id="bounds-text"),
        pytest.param(TRAIN_SMALL, {"train": {"threshold": 1.5}},
                     ["config file cfg.json: train.threshold", "1.5"], id="threshold"),
        pytest.param(TRAIN_SMALL, {"train": {"hidden": "16,0"}},
                     ["config file cfg.json: train.hidden", "'16,0'"], id="hidden"),
        pytest.param(["bench"], {"bench": {"dims": "x"}},
                     ["config file cfg.json: bench.dims", "'x'"], id="dims"),
        pytest.param(["bench"], {"bench": {"algs": ""}},
                     ["config file cfg.json: bench.algs", "''"], id="algs-empty"),
        pytest.param(["bench"], {"bench": {"functions": "f1,f1"}},
                     ["config file cfg.json: bench.functions", "'f1,f1'"],
                     id="functions-repeated"),
        pytest.param(["bench"], {"bench": {"dims": "4,4"}},
                     ["config file cfg.json: bench.dims", "'4,4'"], id="dims-repeated"),
        pytest.param(["bench"], {"bench": {"inertia": "1,nan,2,1.7"}},
                     ["config file cfg.json: bench.inertia", "must be finite"], id="inertia"),
        pytest.param(["bench"], {"bench": {"out": "afile"}},
                     ["config file cfg.json: bench.out", "'afile': not a directory"],
                     id="out-file"),
        pytest.param(["eda"], {"eda": {"clean_out": "adir"}},
                     ["config file cfg.json: eda.clean_out", "'adir': is a directory"],
                     id="clean-out-dir"),
        # No path can hold a NUL character; open() raised ValueError (exit 3).
        pytest.param(["eda"], {"eda": {"out": "a\0b"}},
                     ["config file cfg.json: eda.out", "NUL"], id="out-nul"),
        pytest.param(TRAIN_SMALL, {"train": {"data": "a\0b"}},
                     ["config file cfg.json: train.data", "NUL"], id="data-nul"),
    ])
    def test_bad_value_or_key_exit_one(self, workdir, capsys, args, config, named):
        Path("afile").write_text("x")
        Path("adir").mkdir()
        Path("cfg.json").write_text(json.dumps(config))
        assert run_cli(args + ["--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert "cfg.json" in err and "--" not in err
        for text in named:
            assert text in err
        assert not Path("results").exists()

    def test_curves_checked_against_algorithms_name_the_curve(self, workdir, capsys):
        # Whether a leader curve is valid depends on --algs too, so the
        # message names the curve rather than one flag or key.
        Path("cfg.json").write_text(json.dumps({"bench": {"algs": "agwo",
                                                          "leader": "1,0,10,0"}}))
        assert run_cli(["bench", "--config", "cfg.json"]) == 1
        err = capsys.readouterr().err
        assert "leader curve a,b,c,d = 1.0,0.0,10.0,0.0" in err and "--" not in err
        assert not Path("results").exists()

    def test_number_beyond_int_limit_exit_one(self, workdir, capsys):
        # json.loads raised a ValueError that is no JSONDecodeError (exit 3).
        Path("cfg.json").write_text('{"seed": ' + "1" * 5000 + "}")
        assert run_cli(["curves", "--config", "cfg.json"]) == 1
        assert "cfg.json" in capsys.readouterr().err

    def test_config_output_replaces_blocked_default(self, workdir):
        # The default location is a file, but the config file moves the output.
        Path("results").write_text("x")
        Path("cfg.json").write_text(json.dumps({"curves": {"out": "elsewhere/c.csv"}}))
        assert run_cli(["curves", "--iters", "3", "--config", "cfg.json"]) == 0
        assert len(Path("elsewhere/c.csv").read_text().splitlines()) == 5

    def test_nesting_too_deep_exit_one(self, workdir, capsys):
        Path("cfg.json").write_text('{"seed": ' + "[" * 100000 + "]" * 100000 + "}")
        assert run_cli(["curves", "--config", "cfg.json"]) == 1
        assert "cfg.json" in capsys.readouterr().err

    def test_config_values_typed_like_flags(self, workdir):
        assert run_cli(TRAIN_SMALL) == 0
        from_flags = Path("results/train_report.json").read_bytes()
        Path("cfg.json").write_text(json.dumps({"seed": "3", "train": {
            "swarm": "10", "learning_rate": "0.1", "mode": "acgwo-bp", "impute": "false"}}))
        args = [a for a in TRAIN_SMALL
                if a not in ("--seed", "3", "--swarm", "10", "--learning-rate", "0.1")]
        assert run_cli(args + ["--config", "cfg.json"]) == 0
        assert Path("results/train_report.json").read_bytes() == from_flags


class TestEdaCommand:
    def test_outputs(self, workdir):
        assert run_cli(["eda"]) == 0
        corr = Path("results/corr.csv").read_text().splitlines()
        assert len(corr) == 15  # label row + 14 rows
        header = corr[0].split(",")
        assert header[0] == "" and header[-1] == "target"
        matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in corr[1:]])
        assert matrix.shape == (14, 14)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 1.0)
        clean_lines = Path("data/clean.csv").read_text().splitlines()
        assert len(clean_lines) == 298  # header + 297 rows

    def test_missing_file_exit_two(self, workdir):
        assert run_cli(["eda", "--data", "data/nope.csv"]) == 2

    def test_rerun_byte_identical(self, workdir):
        assert run_cli(["eda"]) == 0
        first = Path("results/corr.csv").read_bytes()
        assert run_cli(["eda"]) == 0
        assert Path("results/corr.csv").read_bytes() == first


class TestNonFiniteData:
    @pytest.mark.parametrize("command", [["eda"], TRAIN_SMALL], ids=["eda", "train"])
    @pytest.mark.parametrize("column,value", [(4, "nan"), (0, "inf"), (9, "1e999")])
    def test_cell_exit_two_naming_row_and_column(self, workdir, capsys, command, column,
                                                 value):
        # float() reads all three; eda wrote NaN correlations and train a model
        # with held-out AUC 0, both with exit 0.
        path = Path("data/heart.csv")
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[column] = value
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(command) == 2
        name = dataprep.COLUMN_NAMES[column]
        assert f"row 6: column {name!r}" in capsys.readouterr().err
        assert not Path("results").exists() and not Path("data/clean.csv").exists()


    @pytest.mark.parametrize("command", [["eda"], TRAIN_SMALL], ids=["eda", "train"])
    def test_cell_in_dropped_row_exit_two(self, workdir, capsys, command):
        # Line 23 holds a "?" in 'ca'; its 'chol' was never parsed, so the
        # row was dropped with exit 0.
        path = Path("data/heart.csv")
        lines = path.read_text().splitlines()
        fields = lines[22].split(",")
        assert "?" in fields
        fields[4] = "abc"
        lines[22] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(command) == 2
        assert "row 23: column 'chol'" in capsys.readouterr().err
        assert not Path("results").exists() and not Path("data/clean.csv").exists()


class TestFirstLine:
    @pytest.mark.parametrize("age", ["x", ""], ids=["text", "blank"])
    def test_only_the_column_names_make_a_header(self, workdir, capsys, age):
        # A first line whose age was not a number was dropped as a header, so
        # eda wrote 296 rows with exit 0.
        path = Path("data/heart.csv")
        lines = path.read_text().splitlines()
        lines[0] = age + lines[0][lines[0].index(","):]
        path.write_text("\n".join(lines) + "\n")
        assert run_cli(["eda"]) == 2
        assert "row 1: column 'age'" in capsys.readouterr().err


class TestTrainCommand:
    def test_hybrid_small(self, workdir):
        assert run_cli(TRAIN_SMALL) == 0
        model = json.loads(Path("results/model.json").read_text())
        assert model["layer_sizes"] == [13, 16, 1]
        assert model["mode"] == "hybrid"
        report = json.loads(Path("results/train_report.json").read_text())
        assert len(report["loss_history"]) == 30 + 20
        assert 0.0 <= report["test_metrics"]["accuracy"] <= 1.0

    def test_bp_mode_writes_valid_model(self, workdir):
        assert run_cli(["train", "--mode", "bp", "--bp-epochs", "20",
                        "--learning-rate", "0.5", "--seed", "1"]) == 0
        model = json.loads(Path("results/model.json").read_text())
        assert model["mode"] == "bp"

    def test_acgwo_mode(self, workdir):
        assert run_cli(["train", "--mode", "acgwo", "--swarm", "8",
                        "--iters", "20", "--seed", "2"]) == 0
        report = json.loads(Path("results/train_report.json").read_text())
        assert report["mode"] == "acgwo"
        losses = report["loss_history"]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_missing_dataset_exit_two(self, workdir):
        assert run_cli(TRAIN_SMALL + ["--data", "data/nope.csv"]) == 2

    @pytest.mark.parametrize("flag,value", [("--threshold", "1.5"), ("--threshold", "0"),
                                            ("--bounds", "a,b"), ("--bounds", "0,inf"),
                                            ("--bounds", "-inf,inf"), ("--bounds", "5,-5"),
                                            ("--learning-rate", "nan"),
                                            ("--learning-rate", "inf"),
                                            ("--learning-rate", "0"),
                                            ("--hidden", "0"), ("--hidden", "16,0")])
    def test_bad_option_exit_one_before_loading(self, workdir, capsys, flag, value):
        # A missing dataset exits 2, so exit 1 shows the option was checked first.
        assert run_cli(TRAIN_SMALL + [flag, value, "--data", "data/nope.csv"]) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["0.9999", "0.0001"])
    def test_fraction_leaving_a_part_empty_exit_one(self, workdir, capsys, fraction):
        assert run_cli(TRAIN_SMALL + ["--train-fraction", fraction]) == 1
        assert "train_fraction" in capsys.readouterr().err
        assert not Path("results").exists()

    def test_repeated_hidden_size_accepted(self, workdir):
        # Unlike bench's --dims, two hidden layers may have one size.
        assert run_cli(TRAIN_SMALL + ["--hidden", "4,4"]) == 0
        model = json.loads(Path("results/model.json").read_text())
        assert model["layer_sizes"] == [13, 4, 4, 1]

    def test_bad_option_message_names_flag(self, workdir, capsys):
        for flag, value in (("--bounds", "0,inf"), ("--learning-rate", "nan")):
            assert run_cli(TRAIN_SMALL + [flag, value]) == 1
            assert flag in capsys.readouterr().err

    def test_rerun_byte_identical(self, workdir):
        assert run_cli(TRAIN_SMALL) == 0
        model = Path("results/model.json").read_bytes()
        report = Path("results/train_report.json").read_bytes()
        assert run_cli(TRAIN_SMALL) == 0
        assert Path("results/model.json").read_bytes() == model
        assert Path("results/train_report.json").read_bytes() == report


def _flag_text(ordinary):
    """A number as typed on the command line. One draw in four is any float
    (nan, +-inf, 0 and negatives included); the rest come from the flag's
    ordinary range, so that most examples train and write a model."""
    return st.integers(0, 3).flatmap(lambda k: ordinary if k else st.floats()).map(repr)


class TestTrainNeverInternalError:
    @given(
        mode=st.sampled_from(["acgwo", "bp", "acgwo-bp"]),
        swarm=st.integers(3, 6),
        iters=st.integers(1, 3),
        bp_epochs=st.integers(0, 2),
        lo=_flag_text(st.floats(-10.0, 0.0)),
        hi=_flag_text(st.floats(0.0, 10.0)),
        learning_rate=_flag_text(st.floats(0.0, 10.0)),
        threshold=_flag_text(st.floats(0.0, 1.0)),
        hidden=st.lists(st.integers(-1, 8), max_size=2).map(lambda v: ",".join(map(str, v))),
        missing=st.sampled_from(["--impute", "--drop-missing"]),
    )
    @example(mode="acgwo-bp", swarm=3, iters=1, bp_epochs=1, lo="0", hi="inf",
             learning_rate="0.1", threshold="0.5", hidden="4", missing="--drop-missing")
    @example(mode="acgwo-bp", swarm=3, iters=1, bp_epochs=1, lo="-5", hi="5",
             learning_rate="nan", threshold="0.5", hidden="4", missing="--drop-missing")
    @example(mode="bp", swarm=3, iters=1, bp_epochs=1, lo="-5", hi="5",
             learning_rate="inf", threshold="0.5", hidden="4", missing="--drop-missing")
    @example(mode="bp", swarm=3, iters=1, bp_epochs=2, lo="-5", hi="5",
             learning_rate="0.1", threshold="0.5", hidden="4", missing="--impute")
    def test_exit_code_never_three_and_model_evaluates(
            self, heart_csv, tmp_path_factory, mode, swarm, iters, bp_epochs, lo, hi,
            learning_rate, threshold, hidden, missing):
        out = tmp_path_factory.mktemp("train")
        code = run_cli([
            "train", "--data", str(heart_csv), "--out", str(out), f"--mode={mode}",
            f"--swarm={swarm}", f"--iters={iters}", f"--bp-epochs={bp_epochs}",
            f"--bounds={lo},{hi}", f"--learning-rate={learning_rate}",
            f"--threshold={threshold}", f"--hidden={hidden}", missing, "--seed=0",
        ])
        assert code != 3
        if code == 0:
            # model.json alone lets eval rebuild the inputs train scored.
            assert run_cli(["eval", "--model", str(out / "model.json"),
                            "--data", str(heart_csv), "--out", str(out)]) == 0
            report = json.loads((out / "train_report.json").read_text())
            assert json.loads((out / "eval.json").read_text()) == report["test_metrics"]


def _curve_text():
    """Four numbers a,b,c,d, each drawn as by :func:`_flag_text`."""
    return st.lists(_flag_text(st.floats(-3.0, 3.0)), min_size=4, max_size=4).map(",".join)


def _subset_text(items, max_size):
    return st.lists(st.sampled_from(items), min_size=1, max_size=max_size,
                    unique=True).map(lambda v: ",".join(map(str, v)))


class TestBenchNeverInternalError:
    @given(
        algs=_subset_text(["gwo", "cgwo", "agwo", "acgwo", "pso"], 5),
        functions=_subset_text(["f1", "f2", "f3", "f4", "f5", "f6"], 3),
        dims=_subset_text([1, 2, 3], 2),
        agents=st.integers(0, 6),
        iters=st.integers(0, 3),
        runs=st.integers(0, 2),
        inertia=_curve_text(),
        leader=_curve_text(),
    )
    # Curves whose bump overflowed or divided by zero in cauchy_pdf (exit 3).
    @example(algs="cgwo", functions="f1", dims="1", agents=3, iters=1, runs=1,
             inertia="1.0,1.3407807929942597e+154,0.0,0.0", leader="1.0,0.0,0.0,0.0")
    @example(algs="agwo", functions="f1", dims="2", agents=3, iters=1, runs=1,
             inertia="1.0,0.0,2.0,1.7", leader="1.0,1e+300,2.0,2.1")
    @example(algs="acgwo", functions="f1", dims="2", agents=3, iters=1, runs=1,
             inertia="1e-300,0.0,2.0,1.7", leader="1.0,0.0,2.0,2.1")
    def test_exit_code_never_three(self, tmp_path_factory, algs, functions, dims, agents,
                                   iters, runs, inertia, leader):
        # f4 (Rosenbrock) needs dim >= 2, so dim 1 draws a plan below its minimum.
        code = run_cli([
            "bench", "--out", str(tmp_path_factory.mktemp("bench")), f"--algs={algs}",
            f"--functions={functions}", f"--dims={dims}", f"--agents={agents}",
            f"--iters={iters}", f"--runs={runs}", f"--inertia={inertia}",
            f"--leader={leader}", "--seed=0",
        ])
        assert code != 3


def _curve_number_text():
    return st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-300, 1e300]),
                     st.floats()).map(repr)


def _output_path(root, kind, name):
    """A fresh path, an existing directory, or a path under a file."""
    return {"fresh": root / "new" / name, "directory": root,
            "under-file": root / "file" / name}[kind]


_OUTPUT_KINDS = st.sampled_from(["fresh", "directory", "under-file"])


class TestCurvesNeverInternalError:
    @given(
        iters=st.integers(-2, 5),
        inertia=st.lists(_curve_number_text(), min_size=4, max_size=4).map(",".join),
        leader=st.lists(_curve_number_text(), min_size=4, max_size=4).map(",".join),
        out=_OUTPUT_KINDS,
    )
    # Output locations that exited 3 after the whole schedule was computed.
    @example(iters=3, inertia=cli._INERTIA_DEFAULT, leader=cli._LEADER_DEFAULT, out="directory")
    @example(iters=3, inertia=cli._INERTIA_DEFAULT, leader=cli._LEADER_DEFAULT, out="under-file")
    # A NaN curve parameter, which wrote NaN rows with exit 0.
    @example(iters=3, inertia="1,nan,2,1.7", leader=cli._LEADER_DEFAULT, out="fresh")
    def test_exit_code_never_three(self, tmp_path_factory, iters, inertia, leader, out):
        root = tmp_path_factory.mktemp("curves")
        (root / "file").write_text("x")
        path = _output_path(root, out, "curves.csv")
        code = run_cli(["curves", f"--iters={iters}", f"--inertia={inertia}",
                        f"--leader={leader}", "--out", str(path)])
        assert code in (0, 1, 2)


class TestEdaNeverInternalError:
    @given(
        keep=st.one_of(st.none(), st.integers(0, 3)),
        cells=st.lists(st.tuples(st.integers(0, 302), st.integers(0, 13),
                                 st.sampled_from(["?", "nan", "inf", "1e999", "", "x"])),
                       max_size=3),
        constant=st.one_of(st.none(), st.integers(0, 13)),
        impute=st.booleans(),
        out=_OUTPUT_KINDS,
        clean_out=_OUTPUT_KINDS,
    )
    # Cells that float() reads but are no number; eda wrote NaN correlations.
    @example(keep=None, cells=[(5, 4, "nan")], constant=None, impute=False,
             out="fresh", clean_out="fresh")
    @example(keep=None, cells=[(7, 0, "inf")], constant=None, impute=True,
             out="fresh", clean_out="fresh")
    # A blank cell that --impute's mode tie-break passed to float() (exit 3).
    @example(keep=1, cells=[(0, 1, "")], constant=None, impute=True,
             out="fresh", clean_out="fresh")
    def test_exit_code_never_three(self, heart_csv, tmp_path_factory, keep, cells,
                                   constant, impute, out, clean_out):
        # keep=None keeps every bundled row; 0-3 rows leave too few to correlate.
        rows = [line.split(",") for line in heart_csv.read_text().splitlines()][:keep]
        if constant is not None:
            for row in rows:
                row[constant] = rows[0][constant]
        for i, j, value in cells:
            if rows:
                rows[i % len(rows)][j] = value
        root = tmp_path_factory.mktemp("eda")
        (root / "file").write_text("x")
        (root / "data.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        corr = _output_path(root, out, "corr.csv")
        code = run_cli(["eda", "--data", str(root / "data.csv"),
                        "--impute" if impute else "--drop-missing", "--out", str(corr),
                        "--clean-out", str(_output_path(root, clean_out, "clean.csv"))])
        assert code in (0, 1, 2)
        if code == 0:
            values = [v for line in corr.read_text().splitlines()[1:]
                      for v in line.split(",")[1:]]
            assert all(math.isfinite(float(v)) for v in values)


# Any JSON document: NaN and infinities included, as json.loads reads them.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


@pytest.fixture(scope="class")
def small_model(heart_csv, tmp_path_factory):
    """A trained model.json's fields and the directory eval writes to."""
    out = tmp_path_factory.mktemp("eval")
    assert run_cli(["train", "--data", str(heart_csv), "--out", str(out), "--mode=bp",
                    "--bp-epochs=2", "--seed=0"]) == 0
    return json.loads((out / "model.json").read_text()), out


class TestEvalNeverInternalError:
    @settings(max_examples=50)
    @given(field=st.sampled_from([f.name for f in dataclasses.fields(mlp.TrainedModel)]),
           value=_json_values)
    @example(field="train_fraction", value=0.9999999)
    @example(field="split_seed", value=-1)
    @example(field="split_seed", value=1.5)
    @example(field="impute", value="no")
    @example(field="threshold", value=10 ** 400)
    @example(field="layer_sizes", value=[13, math.inf, 1])
    @example(field="layer_sizes", value=[13.9, 16, 1])
    @example(field="threshold", value="0.5")
    @example(field="train_fraction", value="0.7")
    @example(field="mode", value=[1])
    @example(field="layer_sizes", value=[10 ** 2200, 10 ** 2200, 1])
    def test_exit_code_never_three(self, heart_csv, small_model, field, value):
        fields, out = small_model
        edited = dict(fields, **{field: value})
        (out / "edited.json").write_text(json.dumps(edited))
        code = run_cli(["eval", "--model", str(out / "edited.json"),
                        "--data", str(heart_csv), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            # eval accepted the file, so it read every field as written.
            model = mlp.model_from_json(json.dumps(edited))
            assert json.loads(mlp.model_to_json(model)) == edited


def _stub_work(*_args, **_kwargs):
    raise DataError("work reached")


_COMMAND_KEYS = {name: [p.name for p in command.params if p.name != "config"]
                 for name, command in cli.cli.commands.items()}
# Flags that keep bench's cross-parameter checks (a function's least dim, the
# curves that an algorithm reads) passing for any one value of any other key.
_BENCH_FLAGS = {"functions": "f1", "algs": "gwo"}
_ANY_KEY = sorted({k for keys in _COMMAND_KEYS.values() for k in keys} | {"config", "unknown_key"})


@st.composite
def _config_files(draw):
    """A subcommand and its config file: section keys of its own, of another
    command or of none, any JSON values, and top-level keys."""
    command = draw(st.sampled_from(sorted(_COMMAND_KEYS)))
    keys = st.sampled_from(_COMMAND_KEYS[command]) | st.sampled_from(_ANY_KEY)
    section = draw(st.dictionaries(keys, _json_values, max_size=2))
    top = draw(st.dictionaries(st.sampled_from(["seed", "bench", "train", "bnech"]),
                               _json_values, max_size=1))
    return command, section, top


class TestConfigNeverInternalError:
    """Any config file exits 1 or 2, never 3; an exit 1 names the file and
    the key at fault. Valid values reach stubs for the work, which exit 2."""

    @given(config=_config_files())
    # Values that a check in the command body reported under a flag.
    @example(config=("train", {"learning_rate": 0}, {}))
    @example(config=("train", {"bounds": "5,-5"}, {}))
    @example(config=("train", {"threshold": 1.5}, {}))
    @example(config=("train", {"hidden": "16,0"}, {}))
    @example(config=("bench", {"dims": "x"}, {}))
    @example(config=("bench", {"algs": ""}, {}))
    @example(config=("bench", {"inertia": "1,nan,2,1.7"}, {}))
    @example(config=("bench", {"out": "afile"}, {}))
    @example(config=("eda", {"clean_out": "."}, {}))
    # A NUL character, which no path can hold.
    @example(config=("eda", {"out": "a\0b"}, {}))
    @example(config=("eval", {"model_path": "a\0b"}, {}))
    @example(config=("curves", {"iters": 3}, {"seed": math.nan}))
    def test_exit_one_names_file_and_key(self, tmp_path_factory, config):
        command, section, top = config
        root = tmp_path_factory.mktemp("config")
        (root / "afile").write_text("x")
        (root / "cfg.json").write_text(json.dumps({**top, command: section}))
        flags = _BENCH_FLAGS if command == "bench" else {}
        args = [command, "--config", "cfg.json"]
        for key, value in flags.items():
            if key not in section:
                args += [f"--{key}", value]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.chdir(root)
            for module, name in ((cli.harness, "run_plan"), (cli.dataprep, "load_table"),
                                 (cli.optimizer, "control_wa")):
                mp.setattr(module, name, _stub_work)
            code = run_cli(args)
        assert code in (1, 2)
        if code == 1:
            at_fault = ["seed: ", "unknown top-level key", "has unknown key"]
            at_fault += [f"{command}.{key}: " for key in section]
            assert err.getvalue().startswith("error: config file cfg.json: ")
            assert any(label in err.getvalue() for label in at_fault)


class TestEvalCommand:
    def test_reproduces_training_metrics(self, workdir):
        assert run_cli(TRAIN_SMALL) == 0
        trained = json.loads(Path("results/train_report.json").read_text())
        assert run_cli(["eval"]) == 0
        evaluated = json.loads(Path("results/eval.json").read_text())
        assert evaluated == trained["test_metrics"]
        csv_lines = Path("results/eval.csv").read_text().splitlines()
        assert csv_lines[0] == "ACC,AUC,PRE,Recall,F1"
        assert float(csv_lines[1].split(",")[0]) == evaluated["accuracy"]

    def test_corrupted_model_exit_two(self, workdir):
        Path("results").mkdir(exist_ok=True)
        Path("results/model.json").write_text("{broken")
        assert run_cli(["eval"]) == 2

    def test_missing_model_exit_two(self, workdir):
        assert run_cli(["eval", "--model", "results/absent.json"]) == 2

    def test_feature_width_mismatch_exit_two(self, workdir, capsys):
        # A consistent 12-16-1 model: the first 16 parameters are the weights
        # out of input 0.
        assert run_cli(TRAIN_SMALL) == 0
        capsys.readouterr()
        payload = json.loads(Path("results/model.json").read_text())
        payload["layer_sizes"][0] = 12
        payload["params"] = payload["params"][16:]
        payload["scaler_mean"] = payload["scaler_mean"][:12]
        payload["scaler_std"] = payload["scaler_std"][:12]
        Path("results/model.json").write_text(json.dumps(payload))
        assert run_cli(["eval"]) == 2
        assert "model expects 12 features but the data has 13" in capsys.readouterr().err
        assert not Path("results/eval.json").exists()


    @pytest.mark.parametrize("field,value", [
        ("scaler_mean", lambda v: v[:-1]),
        ("threshold", lambda v: 1.5),
        ("params", lambda v: [math.nan] + v[1:]),
        ("train_fraction", lambda v: 0.9999999),
    ])
    def test_invalid_model_field_exit_two(self, workdir, capsys, field, value):
        assert run_cli(TRAIN_SMALL) == 0
        capsys.readouterr()
        payload = json.loads(Path("results/model.json").read_text())
        payload[field] = value(payload[field])
        Path("results/model.json").write_text(json.dumps(payload))
        assert run_cli(["eval"]) == 2
        err = capsys.readouterr().err
        assert field in err and "results/model.json" in err
        assert not Path("results/eval.json").exists()


class TestHelp:
    @pytest.mark.parametrize("cmd", ["bench", "curves", "train", "eval", "eda"])
    def test_help_lists_defaults(self, cmd, capsys):
        assert run_cli([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "default" in out

    def test_train_help_shows_reference_defaults(self, capsys):
        run_cli(["train", "--help"])
        out = capsys.readouterr().out
        assert "100" in out and "1000" in out and "0.7" in out

    def test_unknown_subcommand_exit_one(self):
        assert run_cli(["frobnicate"]) == 1


class TestInternalError:
    @pytest.mark.parametrize("debug", [None, "0", "1"])
    def test_traceback_only_with_debug(self, workdir, monkeypatch, capsys, debug):
        def boom(*_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.curves, "leader_weight", boom)
        if debug is None:
            monkeypatch.delenv("LUPUS_DEBUG", raising=False)
        else:
            monkeypatch.setenv("LUPUS_DEBUG", debug)
        assert run_cli(["curves"]) == 3
        err = capsys.readouterr().err
        assert "internal error: boom" in err
        assert ("Traceback (most recent call last)" in err) == (debug == "1")

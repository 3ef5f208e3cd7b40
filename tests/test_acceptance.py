"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without ``-s`` they appear in pytest's captured-output section of any
failure. Criteria run at the documented default protocol (base seed 42 for
benchmark sweeps; recorded witness seed 0 for the classifier).
"""

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from lupus import curves, dataprep, harness, metrics, mlp, optimizer
from lupus.cli import main as cli_main
from lupus.curves import INERTIA_DEFAULTS, LEADER_WEIGHT_DEFAULTS
from lupus.seeding import derive_seed

from test_metrics import brute_force_auc

BASE_SEED = 42
# Recorded witness seed for the classifier reproduction (criterion 6); found
# by scripts/search_train_seed.py with the documented defaults.
WITNESS_SEED = 0


def _report(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {title}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {title}{suffix}"


class TestAcceptance:
    def test_01_benchmark_reproduction(self):
        start = time.monotonic()
        plan = harness.ExperimentPlan(
            algorithms=("acgwo",), functions=("f1", "f2", "f3"), dims=(30,),
            n_runs=10, base_seed=BASE_SEED, n_agents=40, max_iter=500,
        )
        finals = harness.cell_finals(harness.run_plan(plan))
        elapsed = time.monotonic() - start
        means = {fn: x.mean() for (_, fn, _), x in finals.items()}
        ok = all(means[f] <= 1e-10 for f in ("f1", "f2", "f3")) and elapsed < 60.0
        detail = ("means " + " ".join(f"{f}={means[f]:.2e}" for f in ("f1", "f2", "f3"))
                  + f", {elapsed:.1f}s")
        _report(1, "benchmark reproduction f1-f3 dim=30", ok, detail)

    def test_02_ordering_reproduction(self):
        plan = harness.ExperimentPlan(
            algorithms=("gwo", "cgwo", "agwo", "acgwo", "pso"),
            functions=("f1", "f6"), dims=(30,),
            n_runs=10, base_seed=BASE_SEED, n_agents=40, max_iter=500,
        )
        finals = harness.cell_finals(harness.run_plan(plan))
        means = {(alg, fn): x.mean() for (alg, fn, _), x in finals.items()}
        checks = []
        for fn in ("f1", "f6"):
            checks.append(means[("acgwo", fn)] <= means[("cgwo", fn)])
            checks.append(means[("agwo", fn)] <= means[("gwo", fn)])
            checks.append(means[("gwo", fn)] <= means[("pso", fn)])
        detail = " ".join(
            f"{fn}:acgwo={means[('acgwo', fn)]:.2e},cgwo={means[('cgwo', fn)]:.2e},"
            f"agwo={means[('agwo', fn)]:.2e},gwo={means[('gwo', fn)]:.2e},"
            f"pso={means[('pso', fn)]:.2e}" for fn in ("f1", "f6"))
        _report(2, "ranking direction on f1 and f6", all(checks), detail)

    def test_03_schedule_closed_forms(self):
        start_ok = abs(curves.cauchy_inertia(0, 1000, INERTIA_DEFAULTS)
                       - (2.0 / math.pi + 1.7)) < 1e-9
        end_ok = abs(curves.cauchy_inertia(1000, 1000, INERTIA_DEFAULTS)
                     - (1.0 / math.pi + 1.7)) < 1e-9
        values = [curves.cauchy_inertia(i, 1000, INERTIA_DEFAULTS) for i in range(1001)]
        mono_ok = all(b < a for a, b in zip(values, values[1:]))
        weight_ok = abs(curves.leader_weight(3.0, 3.0, LEADER_WEIGHT_DEFAULTS)
                        - (2.1 - 1.0 / math.pi)) < 1e-9
        _report(3, "schedule closed-form suite",
                start_ok and end_ok and mono_ok and weight_ok)

    def test_04_cauchy_pdf_normalization_and_symmetry(self):
        from scipy.integrate import quad

        mass, _ = quad(lambda x: curves.cauchy_pdf(x, 0.0, 1.0), -1e4, 1e4, limit=400)
        norm_ok = abs(mass - 1.0) < 1e-3
        rng = np.random.default_rng(BASE_SEED)
        sym_ok = True
        for _ in range(1000):
            x = float(rng.uniform(-50, 50))
            x0 = float(rng.uniform(-50, 50))
            gamma = float(rng.uniform(0.05, 20.0))
            a = curves.cauchy_pdf(x, x0, gamma)
            b = curves.cauchy_pdf(2 * x0 - x, x0, gamma)
            if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300):
                sym_ok = False
                break
        _report(4, "cauchy pdf normalization and symmetry", norm_ok and sym_ok,
                f"mass={mass:.6f}")

    def test_05_gradient_oracle(self):
        from test_mlp import finite_difference

        start = time.monotonic()
        rng = np.random.default_rng(BASE_SEED)
        worst = 0.0
        ok = True
        for _ in range(50):
            sizes = (int(rng.integers(2, 14)), int(rng.integers(2, 17)), 1)
            arch = mlp.MlpArchitecture(sizes)
            params = rng.normal(scale=0.8, size=arch.n_params)
            X = rng.normal(size=(20, sizes[0]))
            y = rng.integers(0, 2, 20)
            grad = mlp.backward(arch, params, X, y)
            fd = finite_difference(arch, params, X, y)
            # relative error 1e-5 per coordinate, with an absolute floor for
            # vanishing coordinates: the oracle's own rounding/truncation
            # noise reaches ~2e-10 at h=1e-5, so 1e-8 sits 50x above it and
            # five orders below any real gradient bug
            tolerance = np.maximum(1e-5 * np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
            excess = np.abs(grad - fd) / tolerance
            if np.any(excess > 1.0):
                ok = False
            worst = max(worst, float(np.max(excess)))
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 10.0
        _report(5, "gradient matches finite differences",
                ok, f"worst err/tolerance {worst:.2f}, {elapsed:.1f}s")

    def test_06_classifier_reproduction(self, heart_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        shutil.copy(heart_csv, tmp_path / "data" / "heart.csv")
        rc = cli_main(["train", "--mode", "acgwo-bp", "--seed", str(WITNESS_SEED)])
        assert rc == 0
        payload = json.loads(Path("results/train_report.json").read_text())
        test_metrics = payload["test_metrics"]
        acc = test_metrics["accuracy"]
        in_range = all(0.0 <= test_metrics[k] <= 1.0
                       for k in ("accuracy", "auc", "precision", "recall", "f1"))
        p, r = test_metrics["precision"], test_metrics["recall"]
        harmonic_ok = (p + r == 0 or abs(test_metrics["f1"] - 2 * p * r / (p + r)) < 1e-12)
        band_ok = acc >= 0.80
        witness_ok = acc >= 0.868
        _report(6, "classifier reproduction band and witness",
                band_ok and witness_ok and in_range and harmonic_ok,
                f"seed {WITNESS_SEED}: acc={acc:.4f} auc={test_metrics['auc']:.4f} "
                f"pre={p:.4f} rec={r:.4f} f1={test_metrics['f1']:.4f}")

    def test_07_metrics_oracle(self):
        # tp=3, tn=4, fp=1, fn=2 as labels and thresholded scores
        report = metrics.evaluate([1, 1, 1, 0, 0, 0, 0, 0, 1, 1],
                                  [0.9, 0.8, 0.7, 0.1, 0.2, 0.3, 0.4, 0.6, 0.2, 0.3])
        fixture_ok = (
            report.counts == metrics.ConfusionCounts(tp=3, tn=4, fp=1, fn=2)
            and abs(report.accuracy - 0.7) < 1e-9
            and abs(report.precision - 0.75) < 1e-9
            and abs(report.recall - 0.6) < 1e-9
            and abs(report.f1 - 2.0 / 3.0) < 1e-9
        )
        rng = np.random.default_rng(BASE_SEED)
        auc_ok = True
        for _ in range(100):
            n = int(rng.integers(2, 201))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.random(n), 2)
            if abs(metrics.roc_auc(y, s) - brute_force_auc(y, s)) >= 1e-12:
                auc_ok = False
                break
        _report(7, "metrics fixture and AUC oracle", fixture_ok and auc_ok)

    def test_08_determinism_suite(self, heart_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        shutil.copy(heart_csv, tmp_path / "data" / "heart.csv")
        workflows = [
            ["bench", "--functions", "f1,f5", "--dims", "4", "--algs", "acgwo,pso",
             "--runs", "2", "--agents", "5", "--iters", "15", "--seed", "42"],
            ["curves", "--iters", "200"],
            ["train", "--mode", "acgwo-bp", "--swarm", "8", "--iters", "20",
             "--bp-epochs", "10", "--seed", "5"],
            ["eval"],
            ["eda"],
        ]
        def snapshot():
            return {
                str(p.relative_to(tmp_path)): p.read_bytes()
                for p in sorted(tmp_path.rglob("*"))
                if p.is_file() and p.suffix in (".csv", ".json")
            }
        for argv in workflows:
            assert cli_main(list(argv)) == 0
        first = snapshot()
        for argv in workflows:
            assert cli_main(list(argv)) == 0
        identical = snapshot() == first

        # removing a cell leaves every other cell byte-identical
        wide = dict((k, v) for k, v in first.items() if "convergence" in k)
        shutil.rmtree(tmp_path / "results")
        assert cli_main(["bench", "--functions", "f1", "--dims", "4",
                         "--algs", "acgwo,pso", "--runs", "2", "--agents", "5",
                         "--iters", "15", "--seed", "42"]) == 0
        independent = all(
            (tmp_path / k).read_bytes() == v
            for k, v in wide.items() if "_f1_" in k
        )
        _report(8, "byte-identical reruns and cell independence",
                identical and independent)

    def test_09_data_pipeline(self, heart_csv):
        raw = dataprep.load_table(heart_csv)
        ds = dataprep.clean(raw)
        counts_ok = len(raw) == 303 and ds.n == 297
        train, test = dataprep.stratified_split(ds, 0.70, derive_seed(BASE_SEED, "split"))
        prop_ok = True
        for cls in (0, 1):
            total = int((ds.y == cls).sum())
            got = int((train.y == cls).sum())
            if abs(got - 0.70 * total) > 1.0:
                prop_ok = False
        matrix, names = dataprep.pearson_corr_matrix(ds)
        corr_ok = (
            matrix.shape == (14, 14)
            and np.allclose(matrix, matrix.T, atol=1e-12)
            and np.all(np.diag(matrix) == 1.0)
            and np.all((matrix >= -1.0) & (matrix <= 1.0))
        )
        _report(9, "data pipeline counts, split and correlation",
                counts_ok and prop_ok and corr_ok,
                f"raw={len(raw)} clean={ds.n} train={train.n} test={test.n}")

    def test_10_property_suite_standalone(self):
        # runs on synthetic fixtures only; no dataset file is touched
        rng = np.random.default_rng(BASE_SEED)

        space = optimizer.SearchSpace(3, -2.0, 2.0)
        seen = []

        def recording(X, _rng):
            seen.append(X.copy())
            return np.square(X).sum(axis=1)

        result = optimizer.run(
            recording, space,
            optimizer.GwoConfig(variant="acgwo", n_agents=5, max_iter=25, seed=1))
        stacked = np.stack(seen)
        clamp_ok = bool(np.all(stacked >= -2.0) and np.all(stacked <= 2.0))
        history_ok = bool(np.all(np.diff(result.history) <= 0))

        positions = np.random.default_rng(2).uniform(space.lower, space.upper, (6, 3))
        scores, leaders = [math.inf] * 3, [np.zeros(3)] * 3
        ordering_ok = True
        for _ in range(20):
            optimizer._update_leaders(rng.uniform(0, 10, 6), positions, scores, leaders)
            if not scores[0] <= scores[1] <= scores[2]:
                ordering_ok = False
            positions = rng.uniform(-2, 2, (6, 3))

        arch = mlp.MlpArchitecture((6, 4, 1))
        flatten_ok = all(
            np.array_equal(
                mlp.flatten(mlp.unflatten(arch, v)), v)
            for v in rng.normal(size=(200, arch.n_params))
        )

        auc_ok = True
        for _ in range(50):
            n = int(rng.integers(4, 60))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            s = np.round(rng.uniform(-3, 3, n), 3)
            if abs(metrics.roc_auc(y, s)
                   - metrics.roc_auc(y, np.exp(s))) >= 1e-12:
                auc_ok = False
                break

        _report(10, "module invariants on synthetic fixtures only",
                clamp_ok and history_ok and ordering_ok and flatten_ok and auc_ok)

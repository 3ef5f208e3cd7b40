import numpy as np
import pytest

from lupus import curves, harness
from lupus.errors import ConfigError
from lupus.harness import (
    ExperimentPlan,
    cell_finals,
    export_convergence,
    export_table,
    run_plan,
    run_single,
)
from lupus.seeding import derive_seed

SMALL = dict(dims=(4,), n_runs=2, n_agents=5, max_iter=15)


class TestPlanValidation:
    def test_unknown_algorithm_named(self):
        with pytest.raises(ConfigError, match="zwo"):
            ExperimentPlan(algorithms=("zwo",), functions=("f1",), dims=(5,))

    def test_unknown_function_named(self):
        with pytest.raises(ConfigError, match="f99"):
            ExperimentPlan(algorithms=("gwo",), functions=("f99",), dims=(5,))

    def test_runs_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(algorithms=("gwo",), functions=("f1",), dims=(5,), n_runs=0)

    def test_dims_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(algorithms=("gwo",), functions=("f1",), dims=(0,))

    def test_agents_checked_for_every_algorithm(self):
        # pso accepts 2 particles; gwo needs 3 wolves.
        with pytest.raises(ConfigError, match="n_agents must be >= 3"):
            ExperimentPlan(algorithms=("pso", "gwo"), functions=("f1",), dims=(5,),
                           n_agents=2)

    @pytest.mark.parametrize("field,plan", [
        ("algorithms", dict(algorithms=("gwo", "pso", "gwo"), functions=("f1",), dims=(5,))),
        ("functions", dict(algorithms=("gwo",), functions=("f1", "f1"), dims=(5,))),
        ("dims", dict(algorithms=("gwo",), functions=("f1",), dims=(3, 5, 3))),
    ], ids=["algorithms", "functions", "dims"])
    def test_repeated_entry_rejected(self, field, plan):
        # A repeat ran its cells twice and wrote its table rows twice.
        with pytest.raises(ConfigError, match=f"{field} must not repeat"):
            ExperimentPlan(**plan)

    def test_leader_curve_checked_before_any_cell(self):
        bad = curves.CurveParams(a=1.0, b=0.0, c=10.0, d=0.0)
        with pytest.raises(ConfigError, match="leader curve"):
            ExperimentPlan(algorithms=("gwo", "agwo"), functions=("f1",), dims=(5,),
                           leader=bad)


class TestDerivedSeeds:
    def test_stable_and_distinct(self):
        a = derive_seed(42, "gwo", "f1", 30, 0)
        assert a == derive_seed(42, "gwo", "f1", 30, 0)
        assert a != derive_seed(42, "gwo", "f1", 30, 1)
        assert a != derive_seed(43, "gwo", "f1", 30, 0)
        assert 0 <= a < 2 ** 64


class TestRunPlan:
    def test_single_run_std_zero(self):
        plan = ExperimentPlan(algorithms=("gwo",), functions=("f1",),
                              dims=(3,), n_runs=1, n_agents=5, max_iter=10)
        finals = cell_finals(run_plan(plan))
        assert list(finals) == [("gwo", "f1", 3)]
        assert finals["gwo", "f1", 3].std() == 0.0

    def test_deterministic(self):
        plan = ExperimentPlan(algorithms=("gwo", "pso"), functions=("f1", "f5"),
                              **SMALL)
        a = run_plan(plan)
        b = run_plan(plan)
        assert list(a) == list(b)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_cell_independence(self):
        wide = ExperimentPlan(algorithms=("gwo", "acgwo"), functions=("f1", "f3"),
                              **SMALL)
        narrow = ExperimentPlan(algorithms=("acgwo",), functions=("f3",), **SMALL)
        wide_result = run_plan(wide)
        narrow_result = run_plan(narrow)
        for key, history in narrow_result.items():
            assert np.array_equal(history, wide_result[key])

    def test_rows_match_recomputation_from_finals(self, tmp_path):
        plan = ExperimentPlan(algorithms=("gwo",), functions=("f1", "f6"), **SMALL)
        histories = run_plan(plan)
        export_table(histories, tmp_path / "table.csv")
        rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
        cells = [("gwo", "f1", 4), ("gwo", "f6", 4)]
        assert list(cell_finals(histories)) == cells
        for (alg, fn_id, dim), row in zip(cells, rows):
            finals = np.array([histories[(alg, fn_id, dim, r)][-1]
                               for r in range(plan.n_runs)])
            assert np.array_equal(cell_finals(histories)[alg, fn_id, dim], finals)
            assert row == (f"{alg},{fn_id},{dim},{float(finals.mean()):.2E},"
                           f"{float(finals.std()):.2E},{finals.size}")

    def test_worker_pool_matches_serial(self):
        plan = ExperimentPlan(algorithms=("gwo", "pso"), functions=("f1",), **SMALL)
        serial = run_plan(plan, workers=1)
        pooled = run_plan(plan, workers=2)
        assert list(serial) == list(pooled)
        for key in serial:
            assert np.array_equal(serial[key], pooled[key])

    def test_histories_non_increasing(self):
        plan = ExperimentPlan(algorithms=("acgwo", "pso"), functions=("f1",), **SMALL)
        for history in run_plan(plan).values():
            assert np.all(np.diff(history) <= 0)

    def test_run_single_uses_cell_seed(self):
        plan = ExperimentPlan(algorithms=("gwo",), functions=("f1",), **SMALL)
        h = run_single(plan, "gwo", "f1", 4, 1)
        assert h.shape == (15,)
        assert np.array_equal(h, run_single(plan, "gwo", "f1", 4, 1))


class TestDeskScaleOrdering:
    def test_curve_variant_beats_plain_beats_pso_on_f1_f3(self):
        plan = ExperimentPlan(
            algorithms=("gwo", "acgwo", "pso"), functions=("f1", "f3"),
            dims=(30,), n_runs=10, base_seed=42, n_agents=40, max_iter=500,
        )
        means = {(alg, fn): x.mean() for (alg, fn, _), x in cell_finals(run_plan(plan)).items()}
        for fn in ("f1", "f3"):
            assert means[("acgwo", fn)] <= means[("gwo", fn)] <= means[("pso", fn)]


class TestExportTable:
    def test_formatting_mirrors_published_table(self, tmp_path):
        histories = {("gwo", fn_id, 2, 0): np.array([1e3, final])
                     for fn_id, final in (("f1", 0.0), ("f2", 749.3), ("f3", 3.51e-2))}
        export_table(histories, tmp_path / "table.csv")
        means = [line.split(",")[3] for line in
                 (tmp_path / "table.csv").read_text().splitlines()[1:]]
        assert means == ["0.00E+00", "7.49E+02", "3.51E-02"]

    def test_written_table(self, tmp_path):
        # Run 1 is listed first; the finals are still taken in run order.
        histories = {("pso", "f1", 30, 1): np.array([803.0]),
                     ("pso", "f1", 30, 0): np.array([900.0, 695.6]),
                     ("acgwo", "f1", 30, 0): np.array([0.0]),
                     ("acgwo", "f1", 30, 1): np.array([0.0])}
        assert np.array_equal(cell_finals(histories)["pso", "f1", 30], [695.6, 803.0])
        path = tmp_path / "table.csv"
        export_table(histories, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,function,dim,mean,std,n_runs"
        assert lines[1] == "pso,f1,30,7.49E+02,5.37E+01,2"
        assert lines[2] == "acgwo,f1,30,0.00E+00,0.00E+00,2"

    def test_empty_rows_rejected_without_file(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError):
            export_table({}, path)
        assert not path.exists()


class TestExportConvergence:
    def test_one_row_per_iteration(self, tmp_path):
        plan = ExperimentPlan(algorithms=("gwo",), functions=("f1",),
                              dims=(3,), n_runs=1, n_agents=5, max_iter=20)
        assert export_convergence(run_plan(plan), tmp_path) is None
        assert [p.name for p in tmp_path.iterdir()] == ["gwo_f1_3_0.csv"]
        lines = (tmp_path / "gwo_f1_3_0.csv").read_text().splitlines()
        assert lines[0] == "iter,alpha_score"
        assert len(lines) == 21
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_byte_identical_on_rerun(self, tmp_path):
        plan = ExperimentPlan(algorithms=("acgwo",), functions=("f5",),
                              dims=(2,), n_runs=2, n_agents=5, max_iter=10)
        export_convergence(run_plan(plan), tmp_path / "a")
        export_convergence(run_plan(plan), tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["acgwo_f5_2_0.csv", "acgwo_f5_2_1.csv"]
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_histories_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_convergence({}, tmp_path)

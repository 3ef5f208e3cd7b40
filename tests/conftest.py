import concurrent.futures
import dataclasses
import importlib.util
import inspect
import os
import pickle
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from lupus import harness, mlp

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

REPO_ROOT = Path(__file__).resolve().parent.parent
HEART_CSV = REPO_ROOT / "data" / "heart.csv"


def load_script(name):
    """The module ``scripts/<name>.py``, freshly executed; the scripts are not a
    package, so tests import them by path."""
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def heart_csv() -> Path:
    if not HEART_CSV.exists():
        pytest.skip("bundled heart.csv not present")
    return HEART_CSV


@pytest.fixture(scope="session")
def _fit_results():
    return {}


@pytest.fixture()
def shared_fit(monkeypatch, _fit_results):
    """``mlp.fit_classifier`` returns what an earlier call with equal arguments,
    in a test that used this fixture, returned. The seed-0 witness run at the
    ``lupus train`` defaults takes seconds; the CLI and the seed script both
    make it. Equal arguments pickle to equal bytes, so no call gets another's
    result."""
    fit = mlp.fit_classifier
    signature = inspect.signature(fit)

    def shared(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = pickle.dumps(bound.arguments)
        if key not in _fit_results:
            _fit_results[key] = fit(*args, **kwargs)
        return _fit_results[key]

    monkeypatch.setattr(mlp, "fit_classifier", shared)


@pytest.fixture(scope="session")
def shared_sweep():
    """``shared_sweep(plan)`` is ``harness.run_plan(plan)``, except that a
    cell-run that an earlier call ran is taken from it. A cell-run's seed
    derives from the plan's base seed and its own algorithm, function, dim and
    run index, not from the rest of the grid, so the seeded sweeps of several
    tests share cells. ``reuse=False`` runs every cell-run, and keeps it for
    later calls."""
    results = {}
    single = harness.run_single

    def sweep(plan, reuse=True):
        def shared(plan, algorithm, fn_id, dim, run_index):
            key = (dataclasses.replace(plan, algorithms=(algorithm,), functions=(fn_id,),
                                       dims=(dim,), n_runs=1), run_index)
            if not reuse or key not in results:
                results[key] = single(plan, algorithm, fn_id, dim, run_index)
            return results[key]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "run_single", shared)
            return harness.run_plan(plan)
    return sweep


class _LatePool(concurrent.futures.ThreadPoolExecutor):
    """A thread pool whose worker starts each job 30 ms late, so the thread
    that hands it a job is done with its own work long before the job is."""

    def submit(self, fn, /, *args, **kwargs):
        def late():
            time.sleep(0.03)
            return fn(*args, **kwargs)
        return super().submit(late)


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)`` has ``optimizer.worker`` see a process that may run on ``n``
    CPUs, through the affinity mask it reads, so that a one-CPU host can still
    run the worker path; ``cpus(n, late=True)`` also has the pool it yields
    start each job 30 ms late."""
    def report(n, late=False):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        if late:
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _LatePool)
    return report

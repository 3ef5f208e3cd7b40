"""Wrappers around lupus's public module functions: run timing and spans.

Nothing in the library is edited. For the length of one run, :func:`patched`
replaces a function object everywhere a ``lupus`` module refers to it (its
own module, plus any module that imported it by name), and puts the
originals back afterwards.

A span is (name, start, end, parent). Spans are kept in flat arrays, so a
sweep with over a million objective calls costs tens of megabytes, and are
written out once the run is over.
"""

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Traced functions per module; "*" means every public function the module
# defines. The objective returned by benchfns.get_function is wrapped too.
TRACED = {
    "lupus.mlp": ("bce_loss", "backward", "forward_batch"),
    "lupus.optimizer": ("run", "pso_run", "clamp"),
    "lupus.curves": "*",
    "lupus.harness": ("run_single", "export_table", "export_convergence"),
    "lupus.fileio": ("write_text_atomic",),
    "lupus.dataprep": "*",
    "lupus.metrics": ("evaluate",),
}

ROOT_SPAN = "cli.main"


def _public_functions(module_name, names):
    module = sys.modules[module_name]
    if names == "*":
        names = sorted(
            n for n, v in vars(module).items()
            if not n.startswith("_") and callable(v)
            and getattr(v, "__module__", None) == module_name
            and not isinstance(v, type)
        )
    return [(f"{module_name.split('.', 1)[1]}.{n}", getattr(module, n)) for n in names]


@contextmanager
def patched(replacements):
    """Swap each original function for its wrapper in every lupus module.

    ``replacements`` maps original function objects to wrappers.
    """
    undo = []
    try:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lupus" or mod_name.startswith("lupus.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    setattr(module, attr, wrapper[1])
                    undo.append((module, attr, value))
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


@contextmanager
def run_timer(durations):
    """Append the wall time of every optimizer run to ``durations``."""
    clock = time.perf_counter

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(clock() - t0)
        return wrapper

    optimizer = sys.modules["lupus.optimizer"]
    with patched({id(f): (f, timed(f)) for f in (optimizer.run, optimizer.pso_run)}):
        yield


class Tracer:
    """Span recorder for one traced run of the CLI."""

    def __init__(self):
        self.names = []          # span name per name id
        self._ids = {}
        self.name = array("i")   # name id per span
        self.parent = array("q")  # parent span index, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.bytes_written = 0

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return wrapper

    def _wrap_writer(self, fn, name):
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def wrapper(path, content):
            traced(path, content)
            self.bytes_written += len(content.encode())
        return wrapper

    def _wrap_get_function(self, fn):
        @functools.wraps(fn)
        def get_function(fn_id):
            bf = fn(fn_id)
            return _TracedObjective(bf, self.wrap(bf, f"benchfns.{bf.id}"))
        return get_function

    @contextmanager
    def installed(self):
        """Wrap every traced function for the length of the block."""
        replacements = {}
        for module_name, names in TRACED.items():
            for name, fn in _public_functions(module_name, names):
                wrap = self._wrap_writer if name == "fileio.write_text_atomic" else self.wrap
                replacements[id(fn)] = (fn, wrap(fn, name))
        get_function = sys.modules["lupus.benchfns"].get_function
        replacements[id(get_function)] = (get_function, self._wrap_get_function(get_function))
        with patched(replacements):
            yield

    def call(self, fn, *args):
        """Call ``fn`` inside the root span."""
        return self.wrap(fn, ROOT_SPAN)(*args)

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def durations(self):
        """(name id, parent, duration, self time) per span."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        return name, parent, dur, dur - child

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


class _TracedObjective:
    """A benchmark function whose calls are traced; other attributes pass through."""

    def __init__(self, bf, traced_call):
        self._bf = bf
        self._call = traced_call

    def __getattr__(self, attr):
        return getattr(self._bf, attr)

    def __call__(self, x, rng=None):
        return self._call(x, rng)


def span_table(tracer):
    """(name, calls, total_s, self_s) per called span name, largest self time first."""
    name, _, dur, self_time = tracer.durations()
    k = len(tracer.names)
    rows = zip(tracer.names, np.bincount(name, minlength=k).tolist(),
               np.bincount(name, weights=dur, minlength=k).tolist(),
               np.bincount(name, weights=self_time, minlength=k).tolist())
    return sorted((row for row in rows if row[1]), key=lambda row: -row[3])


def layer_metrics(tracer, n_iterations, trace_overhead_s):
    """Per-layer counts, busy times and self times from the recorded spans.

    busy_s of a function or group is the time inside its outermost spans;
    self_s subtracts the time of the traced spans nested directly inside, so
    the wrappers' own cost around those nested calls stays in it.
    """
    name, parent, dur, self_time = tracer.durations()
    n = name.size

    def select(match):
        return np.array([match(s) for s in tracer.names], dtype=bool)[name]

    def outermost(sel):
        # Drop spans nested inside another span of the same selection.
        nested = np.zeros(n, dtype=bool)
        cur = parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return sel & ~nested
            nested[live] |= sel[cur[live]]
            cur[live] = parent[cur[live]]

    def count(sel):
        return int(sel.sum())

    def busy(sel):
        return float(dur[outermost(sel)].sum())

    def own(sel):
        return float(self_time[sel].sum())

    def per_call_us(sel):
        calls = count(sel)
        return busy(sel) / calls * 1e6 if calls else 0.0

    exact = lambda s: select(lambda x: x == s)
    prefix = lambda p: select(lambda x: x.startswith(p))
    bce, bench, clamp = exact("mlp.bce_loss"), prefix("benchfns."), exact("optimizer.clamp")
    curves, writes = prefix("curves."), exact("fileio.write_text_atomic")
    opt_self = own(exact("optimizer.run")) + own(exact("optimizer.pso_run"))
    return {
        "mlp.bce_loss.calls": (count(bce), "count"),
        "mlp.bce_loss.busy_s": (busy(bce), "s"),
        "mlp.bce_loss.us_per_call": (per_call_us(bce), "us"),
        "mlp.backward.busy_s": (busy(exact("mlp.backward")), "s"),
        "mlp.forward_batch.busy_s": (busy(exact("mlp.forward_batch")), "s"),
        "benchfns.calls": (count(bench), "count"),
        "benchfns.busy_s": (busy(bench), "s"),
        "benchfns.us_per_call": (per_call_us(bench), "us"),
        "optimizer.run.self_s": (own(exact("optimizer.run")), "s"),
        "optimizer.pso_run.self_s": (own(exact("optimizer.pso_run")), "s"),
        "optimizer.self_us_per_iter": (opt_self / n_iterations * 1e6, "us"),
        "optimizer.clamp.calls": (count(clamp), "count"),
        "optimizer.clamp.busy_s": (busy(clamp), "s"),
        "curves.calls": (count(curves), "count"),
        "curves.busy_s": (busy(curves), "s"),
        "harness.run_single.calls": (count(exact("harness.run_single")), "count"),
        "harness.export_s": (busy(prefix("harness.export_")), "s"),
        "fileio.writes": (count(writes), "count"),
        "fileio.bytes_written": (tracer.bytes_written, "bytes"),
        "fileio.busy_s": (busy(writes), "s"),
        "dataprep.busy_s": (busy(prefix("dataprep.")), "s"),
        "metrics.evaluate.busy_s": (busy(exact("metrics.evaluate")), "s"),
        "cli.self_s": (own(exact(ROOT_SPAN)), "s"),
        "trace_overhead_s": (trace_overhead_s, "s"),
    }

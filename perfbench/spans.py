"""Span tracing around tvarseq's public layer functions, from outside the package.

`Tracer.install()` replaces each layer function at every name it is bound
under in the loaded `tvarseq` modules (for example both
`signals.generate_trajectory` and `harness.generate_trajectory`) with a
wrapper that records a span (name, start, end, parent). Classes are traced
through their `__init__`. Counters are taken at the same boundaries, from the
call's arguments and result. `uninstall()` restores every original binding.

Spans stay in memory; `summary()` turns one pass worth of them into per-layer
metrics: busy time (sum of span durations), self time (duration minus the
time covered by direct child spans) and call counts.
"""

import inspect
import os
import sys
import time

import tvarseq  # noqa: F401  (loads every submodule the layers live in)


def _arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_make_context(c, fn, args, kwargs, res):
    c["pipeline.make_context.calls"] += 1


def _count_build_weight_grid(c, fn, args, kwargs, res):
    # computed from array sizes: nu x d float64 weights
    c["selection.lam_bytes"] += res.lam.size * res.lam.itemsize


def _count_select(c, fn, args, kwargs, res):
    c["selection.criterion_evals"] += res.J_values.size


def _count_generate_trajectory(c, fn, args, kwargs, res):
    c["signals.steps"] += res.n


def _count_validate_stability(c, fn, args, kwargs, res):
    c["signals.validate_stability.points"] += 10 * _arg(fn, "n", args, kwargs) + 1


def _count_build_regression(c, fn, args, kwargs, res):
    c["sequential.points"] += len(res.Y)
    c["sequential.stopped_points"] += sum(1 for p in res.points if p.gamma)
    c["sequential.regressions"] += 1
    c["sequential.gamma_all"] += int(res.gamma_all)


def _count_write(c, fn, args, kwargs, res):
    path = _arg(fn, "path", args, kwargs)
    c["io.bytes_written"] += os.path.getsize(path)
    if fn.__name__ == "write_csv":
        with open(path, encoding="utf-8") as fh:
            # minus the config-hash line and the column header
            c["io.rows_written"] += sum(1 for _ in fh) - 2


def _count_sigma_star(c, fn, args, kwargs, res):
    c["theory.sigma_star.calls"] += 1


# (span name, module, attribute, counter hook); a class is traced via __init__
LAYERS = (
    ("cli.main", "cli", "main", None),
    ("harness.run_table", "harness", "run_table", None),
    ("harness.run_cell", "harness", "run_cell", None),
    ("harness.export_report", "harness", "export_report", None),
    ("pipeline.make_context", "pipeline", "make_context", _count_make_context),
    ("pipeline.estimate_signal", "pipeline", "estimate_signal", None),
    ("pipeline.estimate_from_regression", "pipeline", "estimate_from_regression", None),
    ("sequential.compute_partition", "sequential", "compute_partition", None),
    ("sequential.build_regression", "sequential", "build_regression", _count_build_regression),
    ("signals.validate_stability", "signals", "validate_stability", _count_validate_stability),
    ("signals.generate_trajectory", "signals", "generate_trajectory", _count_generate_trajectory),
    ("basis.TrigBasis", "basis", "TrigBasis", None),
    ("basis.fourier_coefficients", "basis", "fourier_coefficients", None),
    ("selection.build_weight_grid", "selection", "build_weight_grid", _count_build_weight_grid),
    ("selection.select", "selection", "select", _count_select),
    ("theory.sigma_star", "theory", "sigma_star", _count_sigma_star),
    ("theory.upsilon", "theory", "upsilon", None),
    ("beta.project_coefficients", "beta", "project_coefficients", None),
    ("io.write_csv", "io", "write_csv", _count_write),
    ("io.write_json", "io", "write_json", _count_write),
)

COUNTERS = ("pipeline.make_context.calls", "selection.lam_bytes",
            "selection.criterion_evals", "signals.steps",
            "signals.validate_stability.points", "sequential.points",
            "sequential.stopped_points", "sequential.regressions",
            "sequential.gamma_all", "io.bytes_written", "io.rows_written",
            "theory.sigma_star.calls")


def _tvarseq_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tvarseq" or name.startswith("tvarseq."))]


class Tracer:
    """Records spans and counters for the layers in LAYERS while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index]
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patches = []  # (owner, attribute, original)

    def reset(self):
        self.spans = []
        self._stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__: m for m in _tvarseq_modules()}
        for name, module, attr, count in LAYERS:
            original = getattr(modules["tvarseq." + module], attr)
            if inspect.isclass(original):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init, count)
                continue
            wrapped = self._wrap(name, original, count)
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def summary(self):
        """Per-layer busy/self seconds and calls for the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, parent), inner in zip(self.spans, child_time):
            layer = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            layer["busy_s"] += end - start
            layer["self_s"] += end - start - inner
            layer["calls"] += 1
        for name, _, _, _ in LAYERS:
            out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        return out

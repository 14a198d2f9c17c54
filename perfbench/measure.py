"""Run a workload's passes, check every call's output, and reduce the timings
to the benchmark's metrics.

In an untraced run every pass is untraced. In a traced run passes alternate
untraced, traced, untraced, ...; the per-layer metrics come from the traced
passes and `trace.overhead_s` is the median traced pass minus the untraced
wall_s.
"""

import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import reference
import spans
import workloads


@dataclass
class Outcome:
    key: str
    latency: float
    reps: tuple = None        # (replications, seconds)
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    outcomes: list
    layers: dict = None       # Tracer.summary() of a traced pass
    counts: dict = None

    @property
    def wall(self):
        return sum(o.latency for o in self.outcomes)


def run_call(call):
    """Time one call, then read its output back (untimed)."""
    start = time.perf_counter()
    try:
        raw = call.run()
    except Exception:  # a call that raises is a failed op, not the end of the run
        return Outcome(call.key, time.perf_counter() - start,
                       problems=[f"{call.key}: raised\n{traceback.format_exc()}"])
    latency = time.perf_counter() - start
    try:
        values, problems = call.read(raw)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        values, problems = {}, [f"{call.key}: output unreadable: {exc!r}"]
    reps = None
    if call.reps is not None:
        count, seconds = call.reps(raw)
        reps = (count, latency if seconds is None else seconds)
    return Outcome(call.key, latency, reps, values, problems)


def _check(outcomes, expected, first=None):
    """Add reference and repeat problems to each outcome in place."""
    for i, o in enumerate(outcomes):
        if o.problems:
            continue
        if expected is not None:
            o.problems += reference.compare(o.key, o.values, expected.get(o.key))
        if first is not None and o.values != first[i].values:
            o.problems.append(f"{o.key}: output differs from the first pass")


@dataclass
class Result:
    attempted: int
    failed: int
    problems: list
    end_to_end: dict          # name -> (value, unit); setup_s is added by run.py
    per_layer: dict           # name -> (value, unit); empty unless traced
    notes: dict
    values: dict              # key -> {field: value} of the first pass


def measure(name, seed, seconds, trace, out, tiny=False, expected=None, anchor_expected=None):
    """Closed loop of passes for `seconds`, then the anchor calls once.

    `expected` holds the recorded values for this seed (None: not recorded);
    `anchor_expected` those of the anchor calls.
    """
    workload = workloads.build(name, seed, out, tiny)
    tracer = spans.Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            outcomes = [run_call(call) for call in workload.calls]
        finally:
            if traced:
                tracer.uninstall()
        _check(outcomes, expected, passes[0].outcomes if passes else None)
        passes.append(Pass(outcomes, tracer.summary() if traced else None,
                           dict(tracer.counts) if traced else None))
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within the time given
        if elapsed * (len(passes) + 1) / len(passes) > seconds and (not trace or len(passes) >= 2):
            break

    anchor = [run_call(call) for call in workloads.anchor(out)]
    _check(anchor, anchor_expected or {})
    every = [o for p in passes for o in p.outcomes] + anchor
    failed = [o for o in every if o.problems]

    plain = [p for p in passes if p.layers is None]
    latencies = [o.latency for p in plain for o in p.outcomes]
    # per call of the pass, the median over passes: robust to bursts of
    # machine noise shorter than a pass
    calls = range(len(workload.calls))
    per_call = [statistics.median(p.outcomes[i].latency for p in plain) for i in calls]
    reps, rep_seconds = 0, 0.0
    for i in calls:
        samples = [p.outcomes[i].reps for p in plain if p.outcomes[i].reps is not None]
        if samples:
            reps += samples[0][0]
            rep_seconds += statistics.median(s[1] for s in samples)
    tail = (max(per_call) if workload.tail == "max"
            else statistics.quantiles(latencies, n=100)[workload.tail - 1])
    end_to_end = {
        "wall_s": (sum(per_call), "s"),
        "reps_per_s": (reps / rep_seconds if rep_seconds else 0.0, "1/s"),
        "cmd_p50_ms": (1e3 * statistics.median(per_call), "ms"),
        "cmd_tail_ms": (1e3 * tail, "ms"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    per_layer = {}
    traced = [p for p in passes if p.layers is not None]
    if traced:
        overhead = statistics.median(p.wall for p in traced) - end_to_end["wall_s"][0]
        per_layer = layer_metrics(traced, overhead)
    notes = {
        "passes": len(passes), "traced_passes": len(traced),
        "pass_wall_s": [p.wall for p in passes],
        "calls_per_pass": len(workload.calls), "latency_samples": len(latencies),
        "cmd_tail": ("max of per-call medians" if workload.tail == "max"
                     else f"p{workload.tail} of all calls"),
        "reference": "recorded" if expected is not None
        else "not recorded for this seed: anchor and invariants only",
        "fail_rate": len(failed) / len(every),
    }
    return Result(len(every), len(failed), [p for o in failed for p in o.problems],
                  end_to_end, per_layer, notes,
                  {o.key: o.values for o in passes[0].outcomes})


def layer_metrics(traced, overhead):
    """Per-pass layer metrics: medians of times over the traced passes; counts
    from the first traced pass (inputs repeat, so every pass counts the same)."""

    def med(layer, stat):
        return statistics.median(p.layers[layer][stat] for p in traced)

    c = traced[0].counts
    out = {}
    for layer in ("selection.select", "signals.generate_trajectory",
                  "signals.validate_stability", "sequential.build_regression",
                  "pipeline.make_context", "selection.build_weight_grid",
                  "basis.TrigBasis", "basis.fourier_coefficients", "io.write_csv",
                  "io.write_json", "beta.project_coefficients", "theory.sigma_star"):
        out[layer + ".busy_s"] = (med(layer, "busy_s"), "s")
    for layer in ("pipeline.make_context", "pipeline.estimate_from_regression",
                  "harness.run_cell", "harness.run_table", "harness.export_report",
                  "cli.main", "theory.upsilon"):
        out[layer + ".self_s"] = (med(layer, "self_s"), "s")
    for name in ("pipeline.make_context.calls", "selection.criterion_evals",
                 "signals.steps", "signals.validate_stability.points",
                 "sequential.points", "io.rows_written", "theory.sigma_star.calls"):
        out[name] = (c[name], "count")
    out["selection.lam_bytes"] = (c["selection.lam_bytes"], "bytes")
    out["io.bytes_written"] = (c["io.bytes_written"], "bytes")
    out["sequential.stop_rate"] = (
        c["sequential.stopped_points"] / c["sequential.points"] if c["sequential.points"] else 0.0,
        "ratio")
    out["sequential.gamma_all_rate"] = (
        c["sequential.gamma_all"] / c["sequential.regressions"]
        if c["sequential.regressions"] else 0.0, "ratio")
    out["trace.overhead_s"] = (overhead, "s")
    return out

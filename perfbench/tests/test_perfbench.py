"""Tests of the benchmark itself, at tiny sizes."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import measure  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# every metric the benchmark's definition names, by mode
NAMED_END_TO_END = {"setup_s", "wall_s", "reps_per_s", "cmd_p50_ms", "cmd_tail_ms",
                    "peak_rss_mb"}
NAMED_PER_LAYER = {
    "selection.select.busy_s", "selection.criterion_evals",
    "signals.generate_trajectory.busy_s", "signals.steps",
    "signals.validate_stability.busy_s", "signals.validate_stability.points",
    "sequential.build_regression.busy_s", "sequential.points", "sequential.stop_rate",
    "sequential.gamma_all_rate", "pipeline.make_context.busy_s",
    "pipeline.make_context.self_s", "pipeline.make_context.calls",
    "selection.build_weight_grid.busy_s", "selection.lam_bytes", "basis.TrigBasis.busy_s",
    "basis.fourier_coefficients.busy_s", "pipeline.estimate_from_regression.self_s",
    "harness.run_cell.self_s", "harness.run_table.self_s", "harness.export_report.self_s",
    "io.write_csv.busy_s", "io.write_json.busy_s", "io.bytes_written", "io.rows_written",
    "cli.main.self_s", "beta.project_coefficients.busy_s", "theory.sigma_star.busy_s",
    "theory.sigma_star.calls", "theory.upsilon.self_s", "trace.overhead_s"}


def bench(*args, cwd=ROOT, bench_dir=BENCH):
    return subprocess.run([sys.executable, os.path.join(bench_dir, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    detail_line, last_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(last_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}

    detail = json.loads(detail_line.split(": ", 1)[1])
    named = NAMED_PER_LAYER if trace else NAMED_END_TO_END
    assert named <= set(detail["metrics"])
    assert all(detail["metrics"][k]["unit"] for k in named)
    assert detail["fail_rate"] == 0.0
    assert detail["machine"]["blas_threads"] in (1, None)


def run_tiny(name, out, expected):
    anchor = reference.load("anchor")["calls"]
    return measure.measure(name, 5, 0, False, str(out), tiny=True,
                           expected=expected, anchor_expected=anchor)


@pytest.mark.parametrize("name,field", [("mc-table", "rbar"), ("cli-oneshot", "alpha_t")])
def test_perturbed_reference_fails(tmp_path, name, field):
    recorded = run_tiny(name, tmp_path, None).values
    assert run_tiny(name, tmp_path, recorded).failed == 0

    perturbed = copy.deepcopy(recorded)
    for values in perturbed.values():
        for target in [values, *(v for v in values.values() if isinstance(v, dict))]:
            if field in target:
                target[field] *= 1 + 1e-9
    result = run_tiny(name, tmp_path, perturbed)
    assert result.failed > 0 and result.notes["fail_rate"] > 0
    assert any(field in p for p in result.problems)


def test_tolerances():
    quad, parseval = 0.98626122274, 0.98626122265
    assert reference.compare("k", {"sigma_star": parseval}, {"sigma_star": quad}) == []
    assert reference.compare("k", {"rbar": float("nan")}, {"rbar": 0.1})
    assert reference.compare("k", {"alpha_k": 2}, {"alpha_k": 1})
    assert reference.compare("k", {}, {"rbar": 0.1})


def test_tracer_wraps_every_binding_and_restores_it():
    from tvarseq import harness, signals
    original = signals.generate_trajectory
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.generate_trajectory is signals.generate_trajectory is not original
    finally:
        tracer.uninstall()
    assert harness.generate_trajectory is signals.generate_trajectory is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc-table", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, bench_dir=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

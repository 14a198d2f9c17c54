"""tvarseq benchmark.

    python3 perfbench/run.py --workload {mc-table,large-n,cli-oneshot} \
        --seed N --seconds S --trace {0,1} [--size tiny]

Run from the root of a source checkout; it imports tvarseq from `src/` of
that checkout. With `--trace 0` it prints the end-to-end metrics named in
BENCHMARK.json, with `--trace 1` the per-layer ones. The line before the last
is a detail report (every metric, machine facts, failures); the last line is
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5

PROBE = ("import sys; sys.path[:0] = {paths!r}; import tvarseq, workloads; "
         "workloads.build({name!r}, {seed!r}, {out!r}, {tiny!r})")


def pin_blas():
    """One BLAS thread, so timings do not depend on thread scheduling; set
    before numpy loads, and inherited by the set-up probes."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_checkout():
    """Import tvarseq from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [SRC, HERE]
    try:
        import tvarseq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tvarseq from {SRC}: {exc}")
    if not os.path.abspath(tvarseq.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: tvarseq was imported from {tvarseq.__file__}, not {SRC}")


def declared_metrics():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        return ([m["name"] for m in spec["end_to_end"]],
                [m["name"] for m in spec["per_layer"]])
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"perfbench: cannot read BENCHMARK.json: {exc}")


def setup_seconds(name, seed, out, tiny):
    """Median wall time of fresh processes that import tvarseq and build the
    workload's inputs."""
    code = PROBE.format(paths=[SRC, HERE], name=name, seed=seed, out=out, tiny=tiny)
    times = []
    for _ in range(1 if tiny else SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    pin_blas()
    import_checkout()
    end_to_end_names, per_layer_names = declared_metrics()
    import machine
    import measure
    import reference
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(workloads.NAMES)}")

    tiny = args.size == "tiny"
    recorded = {} if tiny else reference.load(args.workload).get("seeds", {})
    anchor = reference.load("anchor").get("calls")
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    out = tempfile.mkdtemp(dir=scratch_root)
    try:
        setup = None if args.trace else setup_seconds(args.workload, args.seed, out, tiny)
        result = measure.measure(args.workload, args.seed, args.seconds, bool(args.trace), out,
                                 tiny, recorded.get(str(args.seed)), anchor)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if not os.listdir(scratch_root):
            os.rmdir(scratch_root)

    every = dict(result.end_to_end)
    if setup is not None:
        every["setup_s"] = (setup, "s")
    every.update(result.per_layer)
    chosen = per_layer_names if args.trace else end_to_end_names
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine.info(),
        **result.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(every.items())},
        "problems": result.problems[:20],
    }
    print("perfbench detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": every[k][0], "unit": every[k][1]} for k in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record_reference.py --anchor
    python3 perfbench/record_reference.py --workload mc-table --seeds 0-31

Run it only on a commit whose outputs are known to be right: every later
run is checked against what it writes. Seeds are merged into the existing
file, so workloads can be recorded by separate processes at once.
"""

import argparse
import os
import shutil
import subprocess
import sys

import run

run.pin_blas()
run.import_checkout()

import reference  # noqa: E402  (needs the checkout on sys.path)
import workloads  # noqa: E402
from measure import run_call  # noqa: E402


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def one_pass(calls):
    values = {}
    for call in calls:
        o = run_call(call)
        if o.problems:
            raise SystemExit("refusing to record a failing call:\n" + "\n".join(o.problems))
        values[o.key] = o.values
    return values


def record(args, out):
    if args.anchor:
        reference.save("anchor", {"recorded_from": commit(),
                                  "calls": one_pass(workloads.anchor(out))})
    if args.workload:
        lo, hi = (int(v) for v in args.seeds.split("-"))
        doc = reference.load(args.workload) or {"seeds": {}}
        doc["recorded_from"] = commit()
        for seed in range(lo, hi + 1):
            doc["seeds"][str(seed)] = one_pass(workloads.build(args.workload, seed, out).calls)
            reference.save(args.workload, doc)
            print(f"{args.workload} seed {seed} recorded", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seeds", default="0-31", help="inclusive range a-b")
    parser.add_argument("--anchor", action="store_true")
    args = parser.parse_args()
    out = os.path.join(run.ROOT, ".perfbench_tmp", f"record-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    try:
        record(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

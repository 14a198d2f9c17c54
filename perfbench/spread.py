"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound.

    python3 perfbench/spread.py --seeds 0-9 [--workload NAME ...]
        [--traced-seed S] [--held-out S] [--append LABEL]

Spread is (q3 - q1) / median with `statistics.quantiles(values, n=4)`; a
metric is steady when its spread is below a third of its bound (setup_s is
exempt). `--traced-seed` adds one `--trace 1` run per workload,
`--held-out` one untraced run on a seed outside the range, and `--append`
writes all of it, every run included, as one line of trajectory.jsonl.
Run from the root of the checkout.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_once(workload, seed, trace):
    proc = subprocess.run(SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(SPEC["run_seconds"]),
                                             "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].split(": ", 1)[1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: INCORRECT {detail['problems'][:3]}", file=sys.stderr)
    return result, detail


def summarize(runs):
    out = {}
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        out[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "spread": spread, "bound": m["bound"], "unit": m["unit"],
                          "steady": m["name"] == "setup_s" or spread < m["bound"] / 3,
                          "values": values}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    names = args.workload or [w["name"] for w in SPEC["workloads"]]

    entry = {"label": args.append,
             "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "run_seconds": SPEC["run_seconds"], "seeds": [lo, hi], "workloads": {}}
    for name in names:
        runs, detail = [], None
        for seed in range(lo, hi + 1):
            result, detail = run_once(name, seed, 0)
            runs.append(result)
        entry["machine"] = detail["machine"]
        summary = summarize(runs)
        row = {"end_to_end": summary,
               "failed": sum(r["failed"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs)}
        print(f"{name}: failed {row['failed']} of {row['attempted']}")
        for metric, s in summary.items():
            print(f"  {metric:12s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}) "
                  f"{'ok' if s['steady'] else 'WIDE'}")
        if args.traced_seed is not None:
            result, detail = run_once(name, args.traced_seed, 1)
            row["traced"] = {"seed": args.traced_seed, "correct": result["correct"],
                             "metrics": detail["metrics"]}
        if args.held_out is not None:
            result, detail = run_once(name, args.held_out, 0)
            row["held_out"] = {"seed": args.held_out, "correct": result["correct"],
                               "reference": detail["reference"],
                               "metrics": result["metrics"]}
        entry["workloads"][name] = row

    if args.append:
        with open(os.path.join(HERE, "trajectory.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")


if __name__ == "__main__":
    main()

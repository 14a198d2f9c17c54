"""The benchmark's workloads: the calls each one makes into tvarseq, and how
each call's output is read back for checking.

Every workload is a closed loop: one caller in one process makes its calls
back to back. A *pass* is the workload's full list of calls; the runner
repeats passes with identical inputs until its time is used. Inputs come
only from the workload seed.

- mc-table: the acceptance risk table (S1 and S2, Gaussian noise,
  n in {200, 500, 10^4, 7*10^4}, M = 50), as `harness.run_table` followed by
  `harness.export_report`, one call per signal. The context is built once
  per n and amortised over 50 replications.
- large-n: one `harness.run_cell` per signal at n = 10^6, M = 4, building its
  own context. Per-n set-up (context, stability scan) and memory dominate.
- cli-oneshot: 60 in-process `cli.main` commands (estimate, beta, pinsker).
  Every command builds its context again, the way a one-shot user pays.

Calls go through module attributes (`harness.run_table`, not an imported
name) so that the tracer's wrappers see them.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from tvarseq import cli, harness, signals

NAMES = ("mc-table", "large-n", "cli-oneshot")


@dataclass
class Call:
    """One call a workload makes.

    `run()` is the timed part. `read(raw)` turns its result into
    {field: value} for the reference check plus a list of problems found
    without a reference. `reps(raw)` gives (replications, seconds) for
    reps_per_s, or None when the call simulates nothing.
    """

    key: str
    run: object
    read: object
    reps: object = None


@dataclass
class Workload:
    name: str
    calls: list
    tail: object  # cmd_tail_ms: "max" (slowest call's median) or a percentile


# ---- cells (mc-table, large-n) -------------------------------------------

CELL_FIELDS = ("rbar", "rbar_star", "gamma_frequency", "mean_k", "mean_t")


def cell_key(c):
    return f"{c.signal_id}/n={c.n}/{c.noise_family}/M={c.M}"


def cell_values(c):
    problems = []
    vals = {f: float(getattr(c, f)) for f in CELL_FIELDS}
    if not all(math.isfinite(v) for v in vals.values()):
        problems.append(f"{cell_key(c)}: non-finite summary {vals}")
    elif not (vals["rbar"] > 0 and vals["rbar_star"] > 0
              and 0.0 <= vals["gamma_frequency"] <= 1.0 and vals["mean_k"] >= 1):
        problems.append(f"{cell_key(c)}: summary out of range {vals}")
    return vals, problems


def _spec(sig):
    return signals.signal_s1() if sig == "s1" else signals.signal_s2()


def _risk_table_call(sig, n_list, M, seed, out):
    spec = _spec(sig)
    noise = signals.NoiseSpec("gaussian_std")
    cfg = {"command": "risk-table", "signal": spec.to_dict(),
           "noise": [noise.to_dict()], "n_list": list(n_list), "M": M,
           "seed": seed, "delta": None, "mu0": 0.5}
    prefix = f"risk_table_{sig}"

    def run():
        report = harness.run_table(spec, [noise], n_list, M, seed, signal_id=sig)
        harness.export_report(report, cfg, out, prefix=prefix)
        return report

    def read(report):
        values, problems = {}, []
        for c in report.cells:
            values[cell_key(c)], p = cell_values(c)
            problems += p
        with open(os.path.join(out, prefix + ".json"), encoding="utf-8") as fh:
            exported = json.load(fh)["cells"]
        if exported != [c.summary() for c in report.cells]:
            problems.append(f"{prefix}.json does not match the returned report")
        return values, problems

    def reps(report):
        return sum(c.M for c in report.cells), sum(c.wall_time for c in report.cells)

    return Call(f"risk-table {sig}", run, read, reps)


def _run_cell_call(sig, n, M, seed):
    spec = _spec(sig)
    noise = signals.NoiseSpec("gaussian_std")

    def run():
        return harness.run_cell(spec, noise, n, M, seed, signal_id=sig)

    def read(c):
        vals, problems = cell_values(c)
        return {cell_key(c): vals}, problems

    return Call(f"run-cell {sig} n={n}", run, read, lambda c: (c.M, c.wall_time))


# ---- CLI commands (cli-oneshot) ------------------------------------------

def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def digest(prefix, values):
    """Sum, sum of squares and sum of |.|: enough to pin a vector to 1e-12."""
    v = np.asarray(values, dtype=float)
    return {prefix + "_sum": float(v.sum()), prefix + "_sumsq": float(v @ v),
            prefix + "_abs_sum": float(np.abs(v).sum())}


def sigma_star_closed_form(sig):
    """Parseval value of the integral of 1 - S^2 over [0, 1]."""
    if sig == "s1":
        return 1.0 - 0.125
    j = np.arange(1, signals.S2_SERIES_CUTOFF + 1, dtype=float)
    return 1.0 - 0.01 - 0.5 * float(np.sum((j + 3.0) ** -4))


def _cli_call(argv, out):
    command = argv[0]
    sig = argv[argv.index("--signal") + 1] if "--signal" in argv else None

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--out", out])
        return code, buf.getvalue()

    def read(raw):
        code, stdout = raw
        if code != 0:
            return {}, [f"{' '.join(argv)}: exit code {code}"]
        problems = []
        if command == "estimate":
            with open(os.path.join(out, "selection.json"), encoding="utf-8") as fh:
                sel = json.load(fh)
            values = {"alpha_k": sel["selected_k"], "alpha_t": sel["selected_t"]}
            header, rows = _read_csv(os.path.join(out, "s_star.csv"))
            values.update(digest("S_star", [float(r[header.index("S_star")]) for r in rows]))
        elif command == "beta":
            header, rows = _read_csv(os.path.join(out, "beta.csv"))
            values = digest("beta_hat", [float(r[1]) for r in rows])
        else:
            with open(os.path.join(out, "pinsker.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            values = {"pinsker_constant": doc["pinsker_constant"]}
            if sig is not None:
                values.update(sigma_star=doc["sigma_star"], upsilon=doc["upsilon"])
                exact = sigma_star_closed_form(sig)
                if abs(doc["sigma_star"] - exact) > 1e-8 * exact:
                    problems.append(f"{' '.join(argv)}: sigma_star {doc['sigma_star']!r}"
                                    f" differs from the Parseval value {exact!r}")
        if not stdout.strip():
            problems.append(f"{' '.join(argv)}: printed nothing")
        return values, problems

    # estimate and beta each estimate one simulated trajectory
    reps = (lambda raw: (1, None)) if command in ("estimate", "beta") else None
    return Call(" ".join(argv), run, read, reps)


def cli_mix(seed, rounds, n_small, n_large, pinsker_s2_rounds):
    """The cli-oneshot command list: per round, four estimates, one beta and
    one pinsker; the round's seed is the workload seed plus the round."""
    mix = []
    for r in range(rounds):
        s = str(seed + r)
        for sig, n in (("s1", n_small), ("s2", n_small), ("s1", n_large), ("s2", n_large)):
            mix.append(["estimate", "--signal", sig, "--noise", "gaussian", "--n", str(n),
                        "--seed", s])
        mix.append(["beta", "--signal", "s2", "--noise", "gaussian", "--n", str(n_large),
                    "--seed", s])
        sig = "s2" if r in pinsker_s2_rounds else "s1"
        mix.append(["pinsker", "--k", "2", "--r", "1", "--signal", sig])
    return mix


# ---- workloads -----------------------------------------------------------

def build(name, seed, out, tiny=False):
    """The workload's calls for this seed; `tiny` shrinks every size for tests."""
    if name == "mc-table":
        n_list = (200, 500) if tiny else (200, 500, 10_000, 70_000)
        M = 3 if tiny else 50
        calls = [_risk_table_call(sig, n_list, M, seed, out) for sig in ("s1", "s2")]
        return Workload(name, calls, tail="max")
    if name == "large-n":
        n, M = (2_000, 2) if tiny else (1_000_000, 4)
        return Workload(name, [_run_cell_call(sig, n, M, seed) for sig in ("s1", "s2")],
                        tail="max")
    if name == "cli-oneshot":
        mix = (cli_mix(seed, 1, 500, 1_000, ()) if tiny
               else cli_mix(seed, 10, 2_000, 10_000, (4, 9)))
        return Workload(name, [_cli_call(argv, out) for argv in mix], tail=80)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")


def anchor(out):
    """Small fixed-seed calls checked on every run, whatever the workload
    seed, so that a seed without recorded values is still checked against
    recorded numbers."""
    return [_run_cell_call("s1", 500, 10, 0), _run_cell_call("s2", 500, 10, 0),
            _cli_call(["estimate", "--signal", "s2", "--noise", "gaussian", "--n", "2000",
                       "--seed", "0"], out)]

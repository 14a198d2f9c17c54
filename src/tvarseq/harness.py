"""Monte-Carlo evaluation of empirical and relative risks across
(signal, n, noise) cells.

Each replication simulates a fresh trajectory from its own deterministically
derived seed.  A chunk of replications is one call of signals.trajectory_groups,
the one place that cuts paths into groups: as many whole paths as fit
signals.GROUP_BYTES, the whole chunk at small n and one path from n = 2^17 on.
Its stage, regression_columns, runs each group's windows through the
sequential stage at once, and the groups' columns are joined here: one group's
paths are alive at a time, and each path keeps the bits it gets on its own.
The scan runs a step (one group of blocks) at a time, and the chunk's own
worker thread draws the next step's noise while this one is scanned and its
group staged; the worker ends with the chunk.  The first step of a chunk
draws on the calling thread, so a chunk of one step (a chunk of 50 at
n <= 500) starts no second thread; a 7*10^4 chunk of 50 is 17 steps of 3
paths.
The regression samples of a chunk are then estimated together: one
coefficient product and one pass over the weight grid per chunk, so the
weight profiles are built once per chunk, not once per replication.  A
chunk's (m, nu) criterion values take at most CHUNK_VALUES floats (8 MB).
Each replication's empirical error Er_d and selection are summed in
replication order, so a cell is reproducible bit-for-bit.
"""

from dataclasses import dataclass, field
import math
import time

import numpy as np

from . import pipeline as pl
from .io import write_artifacts
from .selection import empirical_error
# generate_trajectory is unused here; perfbench's tracer test asserts this binding
from .signals import (ValidationError, generate_trajectory,  # noqa: F401
                      replication_seed, trajectory_groups)
from .sequential import compute_partition, regression_columns


@dataclass(frozen=True)
class CellResult:
    """One (signal, n, noise) cell of a risk table."""

    signal_id: str
    n: int
    noise_family: str
    M: int
    rbar: float
    rbar_star: float
    gamma_frequency: float
    mean_k: float
    mean_t: float
    wall_time: float  # seconds of this cell's replications and estimation, not its context
    z: np.ndarray = field(repr=False)
    S_grid: np.ndarray = field(repr=False)
    mean_estimate: np.ndarray = field(repr=False)

    def summary(self):
        return {"signal": self.signal_id, "n": self.n, "noise": self.noise_family,
                "M": self.M, "rbar": self.rbar, "rbar_star": self.rbar_star,
                "gamma_frequency": self.gamma_frequency, "mean_k": self.mean_k,
                "mean_t": self.mean_t}


@dataclass(frozen=True)
class RiskReport:
    """All cells of a run plus the max-over-noise robust risk column."""

    cells: tuple
    base_seed: int
    robust: dict  # n -> max rbar over noise families


# (m, nu) criterion values of one chunk, at most: 8 MB of float64
CHUNK_VALUES = 2 ** 20


def run_cell(spec, noise, n, M, base_seed, signal_id=""):
    """Monte-Carlo risk for one cell: a run_table of one n and one noise family."""
    return run_table(spec, [noise], [n], M, base_seed, signal_id).cells[0]


def _cell(ctx, norm_n, noise, M, base_seed, signal_id):
    """The M replications of one cell on fixed inputs that run_table has checked;
    norm_n is ||S||_n^2, the divisor of rbar_star."""
    t0 = time.perf_counter()
    n, d = ctx.part.n, ctx.part.d
    a, b = ctx.spec.a, ctx.spec.b
    err_sum = 0.0
    mean_est = np.zeros(d)
    gamma_count = 0
    k_sum = 0.0
    t_sum = 0.0
    chunk = max(1, min(M, CHUNK_VALUES // ctx.grid.nu))
    for first in range(1, M + 1, chunk):
        seeds = [replication_seed(base_seed, r) for r in range(first, min(first + chunk, M + 1))]
        cols = trajectory_groups(ctx.spec, noise, n, seeds,
                                 lambda traj: regression_columns(traj, ctx.part), ctx.S_design)
        _, H, _, _, gamma, Y = map(np.concatenate, zip(*cols))
        gamma_count += int(np.count_nonzero(gamma.all(axis=1)))
        _, chosen = pl.estimate_from_sample(ctx, Y, 1.0 / H)
        for S_star, (k, t) in zip(chosen.S_star, chosen.alpha_hat):
            err_sum += empirical_error(ctx.S_grid, S_star, a, b, d)
            mean_est += S_star
            k_sum += k
            t_sum += t

    rbar = err_sum / M
    return CellResult(signal_id=signal_id, n=n, noise_family=noise.family, M=M,
                      rbar=rbar, rbar_star=rbar / norm_n,
                      gamma_frequency=gamma_count / M,
                      mean_k=k_sum / M, mean_t=t_sum / M,
                      wall_time=time.perf_counter() - t0,
                      z=ctx.part.z, S_grid=ctx.S_grid, mean_estimate=mean_est / M)


def run_table(spec, noise_specs, n_list, M, base_seed, signal_id=""):
    """One cell per (n, noise family), one context per n; robust column is the max over families.

    Every input is checked before the first context is built, and each n's
    ||S||_n^2 before that n's cells run: rbar_star divides by it.  A cell whose
    rbar_star overflows (a subnormal ||S||_n^2) is rejected before anything
    is returned.
    """
    if not n_list or not noise_specs:
        raise ValidationError("need nonempty n_list and noise set")
    if len(set(n_list)) != len(n_list):
        raise ValidationError(f"repeated sample size in n_list {list(n_list)}")
    if len(set(noise_specs)) != len(noise_specs):
        raise ValidationError(f"repeated noise family in {[nz.family for nz in noise_specs]}")
    if M < 1:
        raise ValidationError("need M >= 1")
    if base_seed < 0:
        raise ValidationError(f"need base_seed >= 0, got {base_seed}")
    if any(noise.family == "none" for noise in noise_specs):
        raise ValidationError("a noise-free risk cell is degenerate: every replication is the same")
    for n in n_list:  # each n's partition rejects a bad n in O(d), before any context
        compute_partition(n, spec.a, spec.b)
    cells = []
    for n in n_list:
        ctx = pl.make_context(spec, n)
        # ||S||_n^2 on [a, b], the divisor of this n's rbar_star
        norm_n = (spec.b - spec.a) * float(ctx.S_design[1:] @ ctx.S_design[1:]) / n
        if norm_n == 0.0:
            seen = "S^2 underflows to 0" if ctx.S_design[1:].any() else "S is zero"
            raise ValidationError(f"{seen} on the n={n} design points: ||S||_n^2 = 0, "
                                  "so the relative risk rbar_star is undefined")
        for noise in noise_specs:
            cells.append(_cell(ctx, norm_n, noise, M, base_seed, signal_id))
            if not math.isfinite(cells[-1].rbar_star):
                raise ValidationError(f"||S||_n^2 = {norm_n:.3g} on the n={n} design points is "
                                      "too small: the relative risk rbar_star overflows")
        del ctx  # free this n's context before the next one is built
    robust = {n: max(c.rbar for c in cells if c.n == n) for n in n_list}
    return RiskReport(cells=tuple(cells), base_seed=base_seed, robust=robust)


def export_report(report, cfg, out_dir, prefix="risk_table"):
    """Emit the report as CSV and JSON plus a plot-ready grid CSV per cell.

    A row of the table is a cell's summary() plus its robust_rbar; wall_time
    stays out of both files so reruns are byte-identical.
    """
    rows = [{**c.summary(), "robust_rbar": report.robust[c.n]} for c in report.cells]
    files = {f"{prefix}.csv": {name: [row[name] for row in rows] for name in rows[0]}}
    for c in report.cells:
        files[f"{prefix}_{c.signal_id}_n{c.n}_{c.noise_family}.csv"] = {
            "l": range(1, len(c.z) + 1), "z_l": c.z, "S": c.S_grid,
            "mean_estimate": c.mean_estimate}
    files[f"{prefix}.json"] = {
        "base_seed": report.base_seed,
        "robust_rbar": {str(n): v for n, v in sorted(report.robust.items())},
        "cells": [c.summary() for c in report.cells],
    }
    return write_artifacts(out_dir, cfg, files)

"""Monte-Carlo evaluation of empirical and relative risks across
(signal, n, noise) cells.

Each replication simulates a fresh trajectory from a deterministically derived
seed and runs the sequential stage on it, one replication at a time.  The
regression samples of a chunk of replications are then estimated together:
one coefficient product and one criterion product over the whole weight grid
per chunk, so the grid is read once per chunk, not once per replication.  A
chunk's criterion block holds at most CHUNK_VALUES values (8 MB).  Squared
errors and selections are aggregated in replication order, so a cell is
reproducible bit-for-bit.
"""

from dataclasses import dataclass, field
import os
import time

import numpy as np

from . import pipeline as pl
from .io import write_csv, write_json
from .signals import generate_trajectory, replication_seed
from .sequential import build_regression


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
    wall_time: float
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


# values in one chunk's (m, nu) criterion block: 8 MB of float64
CHUNK_VALUES = 2 ** 20


def run_cell(spec, noise, n, M, base_seed, mu0=0.5, delta=None, signal_id=""):
    """Monte-Carlo risk for one cell: R_bar, R_bar_star, Gamma frequency."""
    t0 = time.perf_counter()
    return _cell(pl.make_context(spec, n, mu0, delta), noise, M, base_seed, signal_id, t0)


def _cell(ctx, noise, M, base_seed, signal_id, t0):
    """The M replications of one cell on its fixed inputs; wall_time counts from t0."""
    if M < 1:
        raise ValueError("need M >= 1")
    n, d = ctx.part.n, ctx.part.d
    S_grid = pl.signal_values_on_grid(ctx.spec, ctx.part)
    norm_n = float(ctx.S_design[1:] @ ctx.S_design[1:]) / n

    sq_err = np.zeros(d)
    mean_est = np.zeros(d)
    gamma_count = 0
    k_sum = 0.0
    t_sum = 0.0
    chunk = max(1, min(M, CHUNK_VALUES // ctx.grid.nu))
    Y = np.empty((chunk, d))
    sigma2 = np.empty((chunk, d))
    for first in range(1, M + 1, chunk):
        m = min(chunk, M + 1 - first)
        for i in range(m):
            # the path is dropped once its regression sample is built, so that
            # the next replication simulates with one path alive, not two
            seed = replication_seed(base_seed, first + i)
            reg = build_regression(generate_trajectory(ctx.spec, noise, n, seed,
                                                       signal_values=ctx.S_design), ctx.part)
            Y[i] = reg.Y
            sigma2[i] = reg.sigma2
            gamma_count += int(reg.gamma_all)
        _, chosen = pl.estimate_from_sample(ctx, Y[:m], sigma2[:m])
        for S_star, (k, t) in zip(chosen.S_star, chosen.alpha_hat):
            diff = S_star - S_grid
            sq_err += diff * diff
            mean_est += S_star
            k_sum += k
            t_sum += t

    rbar = float(np.mean(sq_err / M))
    return CellResult(signal_id=signal_id, n=n, noise_family=noise.family, M=M,
                      rbar=rbar, rbar_star=rbar / norm_n,
                      gamma_frequency=gamma_count / M,
                      mean_k=k_sum / M, mean_t=t_sum / M,
                      wall_time=time.perf_counter() - t0,
                      z=ctx.part.z, S_grid=S_grid, mean_estimate=mean_est / M)


def run_table(spec, noise_specs, n_list, M, base_seed, mu0=0.5, delta=None,
              signal_id=""):
    """One cell per (n, noise family), one context per n; robust column is the max over families."""
    if not n_list or not noise_specs:
        raise ValueError("need nonempty n_list and noise set")
    if len(set(n_list)) != len(n_list):
        raise ValueError(f"repeated sample size in n_list {list(n_list)}")
    cells = []
    for n in n_list:
        ctx = pl.make_context(spec, n, mu0, delta)
        for noise in noise_specs:
            cells.append(_cell(ctx, noise, M, base_seed, signal_id, time.perf_counter()))
    robust = {}
    for c in cells:
        robust[c.n] = max(robust.get(c.n, 0.0), c.rbar)
    return RiskReport(cells=tuple(cells), base_seed=base_seed, robust=robust)


def export_report(report, cfg, out_dir, formats=("csv", "json"), prefix="risk_table"):
    """Emit the report as CSV/JSON plus a plot-ready grid CSV per cell.

    A row of the table is a cell's summary() plus its robust_rbar; wall_time
    stays out of both files so reruns are byte-identical.
    """
    paths = []
    if "csv" in formats:
        path = os.path.join(out_dir, f"{prefix}.csv")
        rows = [{**c.summary(), "robust_rbar": report.robust[c.n]} for c in report.cells]
        write_csv(path, cfg, {name: [row[name] for row in rows] for name in rows[0]})
        paths.append(path)
        for c in report.cells:
            cell_path = os.path.join(out_dir, f"{prefix}_{c.signal_id}_n{c.n}_{c.noise_family}.csv")
            write_csv(cell_path, cfg, {"l": range(1, len(c.z) + 1), "z_l": c.z, "S": c.S_grid,
                                       "mean_estimate": c.mean_estimate})
            paths.append(cell_path)
    if "json" in formats:
        path = os.path.join(out_dir, f"{prefix}.json")
        write_json(path, cfg, {
            "base_seed": report.base_seed,
            "robust_rbar": {str(n): v for n, v in sorted(report.robust.items())},
            "cells": [c.summary() for c in report.cells],
        })
        paths.append(path)
    return paths

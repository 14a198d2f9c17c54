"""End-to-end wiring: trajectory -> regression sample -> coefficients -> selection."""

from dataclasses import dataclass, field

import numpy as np

from . import basis as fb
from . import selection as sel
from . import sequential as seq
from .signals import SignalSpec, generate_trajectory, signal_values_uniform


@dataclass(frozen=True)
class PipelineContext:
    """A cell's fixed inputs: the signal, S(x_j) for j = 0..n, S on the z grid, and
    what depends only on (n, a, b).  Only the noise draw changes across replications."""

    spec: SignalSpec
    S_design: np.ndarray = field(repr=False)
    S_grid: np.ndarray = field(repr=False)
    part: seq.GridPartition
    basis: fb.TrigBasis
    grid: sel.WeightGrid
    delta: float


def make_context(spec, n):
    """Everything a cell reuses, with the penalty delta_n of default_delta.  The
    spec was certified stable when it was built.  Once the partition has checked
    n, S is evaluated first: its inverse FFT is the context's largest transient,
    so it runs before the grid is held.  Both evaluations read the amplitudes
    that the spec's certificate computed.  S_grid (S at z_1..z_d) is read-only,
    as every cell of this n shares it."""
    part = seq.compute_partition(n, spec.a, spec.b)
    S_design = signal_values_uniform(spec, n)
    S_grid = signal_values_uniform(spec, part.d)[1:]
    S_grid.setflags(write=False)
    return PipelineContext(spec=spec, S_design=S_design, S_grid=S_grid, part=part,
                           basis=fb.TrigBasis(spec.a, spec.b, part.d),
                           grid=sel.build_weight_grid(n, spec.a, spec.b), delta=sel.default_delta(n))


@dataclass(frozen=True)
class EstimateResult:
    """Output of one full run of the estimation pipeline on a context."""

    reg: seq.RegressionSample
    coeffs: fb.FourierCoeffs
    selection: sel.SelectionResult


def estimate_from_regression(reg, ctx):
    coeffs, selection = estimate_from_sample(ctx, reg.Y, reg.sigma2)
    return EstimateResult(reg=reg, coeffs=coeffs, selection=selection)


def estimate_from_sample(ctx, Y, sigma2):
    """Coefficients and selected estimate for one sample (Y, sigma2) on the z grid,
    or for an (m, d) stack of samples, selected in one criterion product."""
    coeffs = fb.fourier_coefficients(ctx.basis, Y, sigma2)
    return coeffs, sel.select(coeffs, ctx.grid, ctx.delta, ctx.basis)


def estimate_signal(ctx, noise, seed):
    """Run the whole pipeline on one simulated trajectory.

    Noise family "none" is the noise-free limit: a simulated path would be
    y = 0 throughout, so the sequential stage is skipped and the regression
    sample is the true S on the z grid with zero variance proxies and
    Gamma = true.  Every downstream artifact is then independent of seed.
    """
    if noise.family == "none":
        reg = seq.noiseless_regression(ctx.part, ctx.S_grid)
    else:
        traj = generate_trajectory(ctx.spec, noise, ctx.part.n, seed,
                                   signal_values=ctx.S_design)
        reg = seq.build_regression(traj, ctx.part)
    return estimate_from_regression(reg, ctx)


"""End-to-end wiring: trajectory -> regression sample -> coefficients -> selection."""

from dataclasses import dataclass, field

import numpy as np

from . import basis as fb
from . import selection as sel
from . import sequential as seq
from .signals import SignalSpec, generate_trajectory, signal_values_uniform, validate_stability


@dataclass(frozen=True)
class PipelineContext:
    """A cell's fixed inputs: the signal, S(x_j) for j = 0..n, and what depends only
    on (n, a, b, mu0, delta).  Only the noise draw changes across replications."""

    spec: SignalSpec
    S_design: np.ndarray = field(repr=False)
    part: seq.GridPartition
    basis: fb.TrigBasis
    grid: sel.WeightGrid
    delta: float


def make_context(spec, n, mu0=0.5, delta=None):
    """Everything a cell reuses; S must pass the stability check."""
    part = seq.compute_partition(n, spec.a, spec.b, mu0)
    basis = fb.TrigBasis(spec.a, spec.b, part.d)
    grid = sel.build_weight_grid(n, spec.a, spec.b)
    validate_stability(spec, n)
    return PipelineContext(spec=spec, S_design=signal_values_uniform(spec, n), part=part,
                           basis=basis, grid=grid,
                           delta=sel.default_delta(n) if delta is None else delta)


@dataclass(frozen=True)
class EstimateResult:
    """Output of one full run of the estimation pipeline."""

    context: PipelineContext
    reg: seq.RegressionSample
    coeffs: fb.FourierCoeffs
    selection: sel.SelectionResult


def estimate_from_regression(reg, ctx):
    coeffs = fb.fourier_coefficients(ctx.basis, reg.Y, reg.sigma2)
    selection = sel.select(coeffs, ctx.grid, ctx.delta, ctx.basis)
    return EstimateResult(context=ctx, reg=reg, coeffs=coeffs, selection=selection)


def estimate_signal(ctx, noise, seed):
    """Run the whole pipeline on one simulated trajectory.

    Noise family "none" is the noise-free limit: a simulated path would be
    y = 0 throughout, so the sequential stage is skipped and the regression
    sample is the true S on the z grid with zero variance proxies and
    Gamma = true.  Every downstream artifact is then independent of seed.
    """
    if noise.family == "none":
        reg = seq.noiseless_regression(ctx.part, signal_values_on_grid(ctx.spec, ctx.part))
    else:
        traj = generate_trajectory(ctx.spec, noise, ctx.part.n, seed,
                                   signal_values=ctx.S_design)
        reg = seq.build_regression(traj, ctx.part)
    return estimate_from_regression(reg, ctx)


def signal_values_on_grid(spec, part):
    """True S at the z grid, via the same fast uniform-grid evaluation.

    z_l = a + l*(b-a)/d are the points i/d for i = 1..d of the uniform grid.
    """
    return signal_values_uniform(spec, part.d)[1:]

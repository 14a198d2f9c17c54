"""End-to-end wiring: trajectory -> regression sample -> coefficients -> selection."""

from dataclasses import dataclass

from . import basis as fb
from . import selection as sel
from . import sequential as seq
from .signals import generate_trajectory, signal_values_uniform, validate_stability


@dataclass(frozen=True)
class PipelineContext:
    """Everything that depends only on (n, a, b) and is reused across replications."""

    part: seq.GridPartition
    basis: fb.TrigBasis
    grid: sel.WeightGrid
    delta: float


def make_context(n, a=0.0, b=1.0, mu0=0.5, delta=None):
    part = seq.compute_partition(n, a, b, mu0)
    if delta is None:
        delta = sel.default_delta(n)
    return PipelineContext(part=part,
                           basis=fb.TrigBasis(a, b, part.d),
                           grid=sel.build_weight_grid(n, a, b),
                           delta=delta)


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


def estimate_signal(spec, noise, n, seed, mu0=0.5, delta=None, ctx=None,
                    debug_noiseless=False):
    """Run the whole pipeline on one simulated trajectory.

    debug_noiseless bypasses simulation and the sequential stage entirely:
    the regression sample is the true S on the z grid with zero variance
    proxies and Gamma = true, which makes every downstream artifact
    deterministic.  S must pass the stability check on either path.
    """
    if ctx is None:
        ctx = make_context(n, spec.a, spec.b, mu0, delta)
    validate_stability(spec, n)
    if debug_noiseless:
        reg = seq.noiseless_regression(ctx.part, signal_values_on_grid(spec, ctx.part))
    else:
        traj = generate_trajectory(spec, noise, n, seed, validate=False)
        reg = seq.build_regression(traj, ctx.part)
    return estimate_from_regression(reg, ctx)


def signal_values_on_grid(spec, part):
    """True S at the z grid, via the same fast uniform-grid evaluation.

    z_l = a + l*(b-a)/d are the points i/d for i = 1..d of the uniform grid.
    """
    return signal_values_uniform(spec, part.d)[1:]

"""Simulate one AR(1) path with a time-varying coefficient and estimate it.

The observation model is y_j = S(x_j) y_{j-1} + xi_j on the design
x_j = j/n.  The estimator works in two layers: sequential pointwise
estimates on a sqrt(n)-sized grid, then penalized shrinkage of their
Fourier coefficients.
"""

import numpy as np

import tvarseq as tv
from tvarseq.pipeline import estimate_signal, make_context
from tvarseq.selection import empirical_error

n = 2000
spec = tv.signal_s1()                 # S(x) = 0.5 cos(2 pi x)
noise = tv.NoiseSpec("gaussian_std")

ctx = make_context(spec, n)           # fixed inputs: grid, windows, weights, S(x_j)
print(f"n = {n}: grid of d = {ctx.part.d} points, "
      f"windows of ~{int(ctx.part.k2[0] - ctx.part.k1[0]) + 1} observations each, "
      f"penalty delta = {ctx.delta:.4f}")

res = estimate_signal(ctx, noise, seed=7)

# how often did the stopping rule terminate before the window boundary?
early = int(res.reg.points.gamma.sum())
print(f"early stopping at {early}/{ctx.part.d} grid points")

k, t = res.selection.alpha_hat
print(f"selected weight profile: k = {k}, t = {t:.4f}")

S_grid = ctx.S_grid
err = empirical_error(S_grid, res.selection.S_star, 0.0, 1.0, ctx.part.d)
print(f"empirical squared error of the final estimate: {err:.5f}")

print("\n  z_l     S(z_l)   estimate")
for l in range(0, ctx.part.d, 4):
    print(f"  {ctx.part.z[l]:.3f}  {S_grid[l]:+.4f}  {res.selection.S_star[l]:+.4f}")

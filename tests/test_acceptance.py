"""Acceptance gate: ten criteria, one printed pass/fail line each.

The heavy Monte-Carlo runs (both risk tables, the oracle-inequality sweep,
the early-stopping rates) are shared across criteria through
module-scoped fixtures, so the whole gate runs in a few minutes.
"""

import json
import math

import numpy as np
import pytest

import tvarseq as tv
from conftest import ACCEPTANCE_LINES
from tvarseq.basis import TrigBasis, fourier_coefficients
from tvarseq.beta import project_coefficients
from tvarseq.cli import main as cli_main
from tvarseq.harness import run_cell, run_table
from tvarseq.pipeline import (
    estimate_from_regression,
    estimate_signal,
    make_context,
)
from tvarseq.selection import empirical_error
from tvarseq.sequential import build_regression, compute_partition
from tvarseq.signals import (
    NoiseSpec,
    SignalSpec,
    generate_trajectory,
    replication_seed,
    signal_values_uniform,
)
from tvarseq.theory import pinsker_constant, sigma_star

BASE_SEED = 12345
N_TABLE = (200, 500, 10000, 70000)
TABLE1_RBAR = {200: 0.135, 500: 0.0893, 10000: 0.043, 70000: 0.03523}
TABLE2_RBAR = {200: 0.0821, 500: 0.0386, 10000: 0.0071, 70000: 0.0067}
TABLE1_RSTAR = {200: 0.98, 500: 0.624, 10000: 0.362, 70000: 0.281}
TABLE2_RSTAR = {200: 5.685, 500: 2.623, 10000: 0.516, 70000: 0.419}
GAMMA_REPS = {1000: 200, 10000: 200, 100000: 50}
# The acceptance cells as this implementation computes them (Gaussian noise,
# M = 50, seed 12345): (rbar, rbar_star, gamma_frequency, mean_k, mean_t).
# A change that only makes the pipeline faster must reproduce them.
PINNED_CELLS = {
    ("s1", 200): (0.07355089089308771, 0.5884071271447017, 0.0, 1.06, 1.8156707751668015),
    ("s1", 500): (0.055892919134875964, 0.4471433530790076, 0.0, 1.02, 2.8320369878944445),
    ("s1", 10000): (0.030911960253622986, 0.2472956820289839, 0.0, 1.0, 9.120184119968298),
    ("s1", 70000): (0.02247189821383226, 0.1797751857106581, 0.0, 1.0, 11.114845419277573),
    ("s2", 200): (0.017657833535369125, 1.2823828061760163, 0.0, 1.02, 0.4378748646971909),
    ("s2", 500): (0.011381122563270365, 0.8280934274620014, 0.0, 1.02, 0.23171211719136345),
    ("s2", 10000): (0.00493091139231885, 0.35890436312475876, 0.0, 1.7, 0.6948711710452027),
    ("s2", 70000): (0.0029691722606859047, 0.2161161907876847, 0.0, 1.4, 5.037534778737096),
}


def record(num, name, ok, detail=""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def within_band(value, target, rel=0.5):
    return abs(value - target) <= rel * target


@pytest.fixture(scope="module")
def s1_table(s1, gaussian):
    return run_table(s1, [gaussian], list(N_TABLE), M=50, base_seed=BASE_SEED,
                     signal_id="s1")


@pytest.fixture(scope="module")
def s2_table(s2, gaussian):
    return run_table(s2, [gaussian], list(N_TABLE), M=50, base_seed=BASE_SEED,
                     signal_id="s2")


@pytest.fixture(scope="module")
def oracle_runs(s1, gaussian):
    """200 replications at n=1000: selected risk and per-grid minimum risk."""
    ctx = make_context(s1, 1000)
    S_grid = ctx.S_grid
    theta_d = (1.0 / ctx.part.d) * (ctx.basis.phi.T @ S_grid)
    lam = ctx.grid.lam  # every candidate profile on the band j = 1..W
    W = lam.shape[1]
    sel_er = []
    min_er = []
    for r in range(1, 201):
        traj = generate_trajectory(s1, gaussian, 1000, replication_seed(BASE_SEED, r),
                                   signal_values=ctx.S_design)
        reg = build_regression(traj, ctx.part)
        res = estimate_from_regression(reg, ctx)
        th = res.coeffs.theta_hat
        # empirical risk of every candidate, via grid orthonormality; the
        # weights beyond the band W are 0, so those terms are theta_d^2
        er_all = (np.sum((lam * th[:W] - theta_d[:W]) ** 2, axis=1)
                  + float(theta_d[W:] @ theta_d[W:]))
        sel_er.append(float(np.sum((res.selection.lambda_hat * th - theta_d) ** 2)))
        min_er.append(float(er_all.min()))
    return ctx.delta, np.asarray(sel_er), np.asarray(min_er)


@pytest.fixture(scope="module")
def gamma_runs(s1, gaussian):
    """Per-point early-stopping rate and the all-points event Gamma, per replication.

    Keyed by n; GAMMA_REPS replications each, seeded as in the risk tables.
    """
    runs = {}
    for n, reps in GAMMA_REPS.items():
        part = compute_partition(n)
        S_design = signal_values_uniform(s1, n)
        rates, flags = [], []
        for r in range(1, reps + 1):
            traj = generate_trajectory(s1, gaussian, n, replication_seed(BASE_SEED, r),
                                       signal_values=S_design)
            reg = build_regression(traj, part)
            rates.append(np.mean([p.gamma for p in reg.points]))
            flags.append(reg.gamma_all)
        runs[n] = (part.d, np.asarray(rates), np.asarray(flags))
    return runs


def table_check(report, targets):
    rbars = {c.n: c.rbar for c in report.cells}
    in_band = {n: within_band(rbars[n], targets[n]) for n in N_TABLE}
    seq = [rbars[n] for n in N_TABLE]
    decreasing = all(x > y for x, y in zip(seq, seq[1:]))
    detail = ", ".join(f"n={n}: {rbars[n]:.4f} vs {targets[n]}" for n in N_TABLE)
    return all(in_band.values()) and decreasing, detail + f"; decreasing={decreasing}"


def test_criterion_01_s1_risks(s1_table):
    ok, detail = table_check(s1_table, TABLE1_RBAR)
    record(1, "S1 empirical risks vs reference (+-50%, decreasing)", ok, detail)
    assert ok, detail


def test_criterion_02_s2_risks(s2_table):
    ok, detail = table_check(s2_table, TABLE2_RBAR)
    record(2, "S2 empirical risks vs reference (+-50%, decreasing)", ok, detail)
    assert ok, detail


def test_criterion_03_relative_risks(s1_table, s2_table):
    details = []
    ok = True
    for report, targets, tag in ((s1_table, TABLE1_RSTAR, "S1"),
                                 (s2_table, TABLE2_RSTAR, "S2")):
        stars = {c.n: c.rbar_star for c in report.cells}
        good = all(within_band(stars[n], targets[n]) for n in N_TABLE)
        ok = ok and good
        details.append(tag + " " + ", ".join(f"n={n}: {stars[n]:.3f} vs {targets[n]}"
                                             for n in N_TABLE))
    detail = "; ".join(details)
    record(3, "relative risks vs reference (+-50%, both signals)", ok, detail)
    assert ok, detail


def test_acceptance_cells_pinned(s1_table, s2_table):
    # risks may move by float reordering only; selection and stopping not at all
    for report in (s1_table, s2_table):
        for c in report.cells:
            rbar, rbar_star, gamma_frequency, mean_k, mean_t = PINNED_CELLS[c.signal_id, c.n]
            assert c.rbar == pytest.approx(rbar, rel=1e-12, abs=0.0)
            assert c.rbar_star == pytest.approx(rbar_star, rel=1e-12, abs=0.0)
            assert (c.gamma_frequency, c.mean_k, c.mean_t) == (gamma_frequency, mean_k, mean_t)


def test_criterion_04_structural_identities(s1, gaussian):
    worst_gram = max(float(np.max(np.abs(TrigBasis(0.0, 1.0, d).gram() - np.eye(d))))
                     for d in (5, 15, 201))
    ok = worst_gram < 1e-10

    part = compute_partition(1000)
    worst_stop = 0.0
    for r in range(1, 26):
        traj = generate_trajectory(s1, gaussian, 1000, replication_seed(BASE_SEED, r))
        for l, p in enumerate(build_regression(traj, part).points, start=1):
            iota, k2 = int(part.iota[l - 1]), int(part.k2[l - 1])
            u = np.concatenate([traj.y[iota:k2 - 1] ** 2, [p.H]])
            mass = float(np.sum(u[:p.tau - iota - 1])) + p.kappa ** 2 * u[p.tau - iota - 1]
            worst_stop = max(worst_stop, abs(mass - p.H) / p.H)
            ok = ok and 0.0 < p.kappa <= 1.0 and iota < p.tau <= k2
    ok = ok and worst_stop < 1e-9

    lam = make_context(s1, 1000).grid.lam
    lam_ok = bool(np.all(lam >= 0.0) and np.all(lam <= 1.0)
                  and np.all(np.diff(lam, axis=1) <= 1e-14))
    ok = ok and lam_ok
    detail = f"gram={worst_gram:.2e}, stop={worst_stop:.2e}, weights_ok={lam_ok}"
    record(4, "structural identities (Gram, stopping, kappa/tau, weights)", ok, detail)
    assert ok, detail


def test_criterion_05_parseval_reconstruction(s1, gaussian):
    ctx = make_context(s1, 200)
    phi = ctx.basis.phi
    worst_p = worst_r = 0.0
    for r in range(1, 101):
        traj = generate_trajectory(s1, gaussian, 200, replication_seed(BASE_SEED, r),
                                   signal_values=ctx.S_design)
        reg = build_regression(traj, ctx.part)
        c = fourier_coefficients(ctx.basis, reg.Y, reg.sigma2)
        norm_d = float(reg.Y @ reg.Y) / ctx.part.d
        if norm_d > 0:
            worst_p = max(worst_p, abs(float(c.theta_hat @ c.theta_hat) - norm_d) / norm_d)
        worst_r = max(worst_r, float(np.max(np.abs(phi @ c.theta_hat - reg.Y))))
    ok = worst_p < 1e-9 and worst_r < 1e-8
    detail = f"parseval={worst_p:.2e}, reconstruction={worst_r:.2e}"
    record(5, "Parseval and grid reconstruction (100 samples)", ok, detail)
    assert ok, detail


def test_criterion_06_oracle_inequality(oracle_runs):
    delta, sel_er, min_er = oracle_runs
    const = (1.0 + 4.0 * delta) * (1.0 + delta) ** 2 / (1.0 - 6.0 * delta)
    lhs = float(sel_er.mean())
    rhs = const * float(min_er.mean()) + 0.05
    ok = lhs <= rhs
    detail = f"mean selected={lhs:.4f} <= {rhs:.4f} (const={const:.3f})"
    record(6, "oracle inequality at n=1000 (200 replications)", ok, detail)
    assert ok, detail


def test_criterion_07_gamma_frequency(gamma_runs):
    # P(Gamma) -> 1 is asymptotic: at n=10^4 Gamma needs all d=101 points to
    # stop early, a per-point rate of 0.95^(1/d) = 0.9995, while the threshold
    # rule gives about 0.52 there.  What is checked is the convergence that
    # the guarantee rests on: the per-point rate rises with n, each step by
    # more than 3 standard errors across replications.
    stats = {n: (float(rates.mean()), float(rates.std(ddof=1)) / math.sqrt(len(rates)))
             for n, (_, rates, _) in gamma_runs.items()}
    ns = sorted(stats)
    steps = []
    for lo, hi in zip(ns, ns[1:]):
        step = stats[hi][0] - stats[lo][0]
        se = math.hypot(stats[lo][1], stats[hi][1])
        steps.append((step, se))
    ok = all(step > 3.0 * se for step, se in steps)
    d, _, flags = gamma_runs[10000]
    detail = ("per-point rate " + ", ".join(f"n={n}: {m:.3f}+-{se:.3f}"
                                            for n, (m, se) in stats.items())
              + "; steps " + ", ".join(f"{step:.3f} (3se={3.0 * se:.3f})"
                                       for step, se in steps)
              + f"; Gamma frequency at n=10000={float(flags.mean()):.3f}"
              f" (0.95 needs per-point {0.95 ** (1.0 / d):.5f})")
    record(7, "per-point early-stopping rate rises with n (P(Gamma) -> 1)", ok, detail)
    assert ok, detail


def test_criterion_08_theory_constants(s1):
    lk = pinsker_constant(1, 1.0)
    oracle = ((1.0 + 2.0) * 1.0) ** (1.0 / 3.0) * (1.0 / (2.0 * math.pi)) ** (2.0 / 3.0)
    ok1 = abs(lk - oracle) < 1e-12 and abs(lk - 0.423565) <= 1e-5
    ok2 = abs(sigma_star(s1) - 0.875) <= 1e-6
    worst = 0.0
    for k in (1, 2, 4):
        for rho in (0.5, 2.0):
            worst = max(worst, abs(pinsker_constant(k, rho * 1.7)
                                   - rho ** (1.0 / (2 * k + 1)) * pinsker_constant(k, 1.7)))
    ok3 = worst < 1e-10
    ok = ok1 and ok2 and ok3
    detail = f"l_1(1)={lk:.6f}, sigma*={sigma_star(s1):.6f}, scaling={worst:.1e}"
    record(8, "theory constants (Pinsker, sigma*, scaling)", ok, detail)
    assert ok, detail


def test_criterion_09_beta_recovery(gaussian):
    beta_true = (0.0, 0.3, 0.0, 0.0, 0.1)
    spec = SignalSpec(kind="series", coefficients=beta_true,
                      stability_eps=0.3, lipschitz_L=10.0)
    ctx = make_context(spec, 10000)
    d = ctx.part.d

    res0 = estimate_signal(ctx, NoiseSpec("none"), 0)
    est0 = project_coefficients(res0.selection.S_star, 0.0, 1.0, i_max=d)
    e2 = abs(est0[1] - 0.3)
    e5 = abs(est0[4] - 0.1)
    ok_noiseless = e2 < 2.0 / d and e5 < 2.0 / d

    res = estimate_signal(ctx, gaussian, replication_seed(BASE_SEED, 1))
    i_max = 4000
    bhat = project_coefficients(res.selection.S_star, 0.0, 1.0, i_max=i_max)
    btru = np.zeros(i_max)
    btru[:5] = beta_true
    coeff_err = float((bhat - btru) @ (bhat - btru))
    # exact continuous norm: the truth has a finite expansion, so
    # ||S_hat - S||^2 = ||S_hat||^2 - 2 sum beta_i bhat_i + sum beta_i^2
    S_star = res.selection.S_star
    func_err = (float(S_star @ S_star) / d - 2.0 * float(bhat[:5] @ btru[:5])
                + float(btru[:5] @ btru[:5]))
    gap = abs(coeff_err - func_err) / func_err
    ok_noisy = gap < 0.01
    ok = ok_noiseless and ok_noisy
    detail = (f"noiseless |b2-0.3|={e2:.4f}, |b5-0.1|={e5:.4f} (< {2.0 / d:.4f}); "
              f"Parseval gap={gap:.2%}")
    record(9, "series-coefficient recovery and Parseval link", ok, detail)
    assert ok, detail


def test_criterion_10_determinism(tmp_path):
    bodies = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        out.mkdir()
        code = cli_main(["risk-table", "--signal", "s1", "--n", "200,500",
                         "--M", "5", "--seed", str(BASE_SEED), "--out", str(out)])
        assert code == 0
        bodies.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = bodies[0] == bodies[1]
    detail = f"{len(bodies[0])} artifacts byte-compared"
    record(10, "risk-table rerun is byte-identical", ok, detail)
    assert ok, detail

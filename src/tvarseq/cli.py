"""Command-line entry point.

Subcommands: simulate, estimate, risk-table, pinsker, beta.
Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import beta as beta_mod
from . import pipeline as pl
from . import theory
from .harness import export_report, run_cell, run_table
from .io import write_csv, write_json
from .selection import ConfigurationError, check_delta
from .signals import (NoiseSpec, SignalSpec, ValidationError, generate_trajectory,
                      signal_s1, signal_s2)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

SIGNAL_NAMES = ("s1", "s2", "series:<file>")
NOISE_NAMES = {"gaussian": "gaussian_std", "uniform": "uniform_unit_variance",
               "none": "none"}


def resolve_signal(name):
    if name == "s1":
        return signal_s1()
    if name == "s2":
        return signal_s2()
    if name.startswith("series:"):
        return SignalSpec.from_file(name.split(":", 1)[1])
    raise ValidationError(f"unknown signal {name!r}; valid: {', '.join(SIGNAL_NAMES)}")


def resolve_noise(name):
    if name == "all":
        return [NoiseSpec("gaussian_std"), NoiseSpec("uniform_unit_variance")]
    if name in NOISE_NAMES:
        return [NoiseSpec(NOISE_NAMES[name])]
    raise ValidationError(f"unknown noise {name!r}; valid: gaussian, uniform, none, all")


def merged_option(args, cfg, key, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def resolve_formats(args, cfg):
    formats = str(merged_option(args, cfg, "format", "csv,json")).split(",")
    if not set(formats) <= {"csv", "json"}:
        raise ValidationError(f"--format takes a comma list of csv, json; got {formats}")
    return formats


def ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_simulate(args, cfg):
    spec = resolve_signal(merged_option(args, cfg, "signal", "s1"))
    noise = resolve_noise(merged_option(args, cfg, "noise", "gaussian"))[0]
    n = int(merged_option(args, cfg, "n", 200))
    seed = int(merged_option(args, cfg, "seed", 0))
    out = ensure_out(merged_option(args, cfg, "out", "."))
    traj = generate_trajectory(spec, noise, n, seed)
    run_cfg = {"command": "simulate", "signal": spec.to_dict(),
               "noise": noise.to_dict(), "n": n, "seed": seed}
    path = os.path.join(out, "trajectory.csv")
    write_csv(path, run_cfg, ("j", "x_j", "y_j"), traj.rows())
    print(path)
    return EXIT_OK


def _run_estimate(args, cfg):
    spec = resolve_signal(merged_option(args, cfg, "signal", "s1"))
    noise = resolve_noise(merged_option(args, cfg, "noise", "gaussian"))[0]
    n = int(merged_option(args, cfg, "n", 500))
    if n < 100:
        raise ValidationError(f"estimate needs n >= 100, got {n}")
    seed = int(merged_option(args, cfg, "seed", 0))
    delta = merged_option(args, cfg, "delta")
    check_delta(delta)
    mu0 = float(merged_option(args, cfg, "mu0", 0.5))
    debug = bool(getattr(args, "debug_noiseless", False))
    res = pl.estimate_signal(spec, noise, n, seed, mu0=mu0, delta=delta,
                             debug_noiseless=debug)
    run_cfg = {"command": args.command, "signal": spec.to_dict(),
               "noise": noise.to_dict(), "n": n, "seed": seed,
               "delta": res.context.delta, "mu0": mu0, "debug_noiseless": debug}
    return spec, res, run_cfg


def cmd_estimate(args, cfg):
    formats = resolve_formats(args, cfg)
    spec, res, run_cfg = _run_estimate(args, cfg)
    out = ensure_out(merged_option(args, cfg, "out", "."))
    tables = {
        "seq_points.csv": (("l", "z_l", "Y_l", "sigma2_l", "tau_l", "gamma_l"),
                           res.reg.rows() if res.reg.points else
                           ((l + 1, res.reg.z[l], res.reg.Y[l], res.reg.sigma2[l], 0, 1)
                            for l in range(len(res.reg.z)))),
        "coefficients.csv": (("j", "theta_hat_j", "s_jd"),
                             zip(range(1, len(res.coeffs.theta_hat) + 1),
                                 res.coeffs.theta_hat, res.coeffs.s_jd)),
        "criterion.csv": (("k", "t", "J"), ((k, t, J) for (k, t), J in
                                           zip(res.context.grid.alphas, res.selection.J_values))),
        "s_star.csv": (("l", "z_l", "S_star"), zip(range(1, res.context.part.d + 1),
                                                  res.context.part.z, res.selection.S_star)),
    }
    paths = [os.path.join(out, name) for name in tables if "csv" in formats]
    for p, table in zip(paths, tables.values()):
        write_csv(p, run_cfg, *table)
    if "json" in formats:
        p = os.path.join(out, "selection.json")
        write_json(p, run_cfg, {
            "selected_k": res.selection.alpha_hat[0],
            "selected_t": res.selection.alpha_hat[1],
            "delta": res.selection.delta,
            "gamma": res.reg.gamma_all,
            "J_min": float(res.selection.J_values[res.selection.alpha_index]),
        })
        paths.append(p)
    k, t = res.selection.alpha_hat
    print(f"selected (k, t) = ({k}, {t:.6g}); gamma={res.reg.gamma_all}")
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_risk_table(args, cfg):
    spec_name = merged_option(args, cfg, "signal", "s1")
    spec = resolve_signal(spec_name)
    noises = resolve_noise(merged_option(args, cfg, "noise", "gaussian"))
    n_raw = merged_option(args, cfg, "n", "200,500")
    n_list = [int(v) for v in str(n_raw).split(",")]
    M = int(merged_option(args, cfg, "M", 50))
    seed = int(merged_option(args, cfg, "seed", 0))
    delta = merged_option(args, cfg, "delta")
    check_delta(delta)
    mu0 = float(merged_option(args, cfg, "mu0", 0.5))
    formats = resolve_formats(args, cfg)
    out = ensure_out(merged_option(args, cfg, "out", "."))
    signal_id = spec_name if not spec_name.startswith("series:") else "series"
    report = run_table(spec, noises, n_list, M, seed, mu0=mu0, delta=delta,
                       signal_id=signal_id)
    run_cfg = {"command": "risk-table", "signal": spec.to_dict(),
               "noise": [nz.to_dict() for nz in noises], "n_list": n_list,
               "M": M, "seed": seed, "delta": delta, "mu0": mu0}
    for p in export_report(report, run_cfg, out, formats):
        print(p)
    return EXIT_OK


def cmd_pinsker(args, cfg):
    k = merged_option(args, cfg, "k")
    r = merged_option(args, cfg, "r")
    if k is None or r is None:
        raise ValidationError("pinsker requires --k and --r")
    k, r = int(k), float(r)
    lk = theory.pinsker_constant(k, r)
    payload = {"k": k, "r": r, "pinsker_constant": lk}
    print(f"l_{k}({r:g}) = {lk:.6f}")
    name = merged_option(args, cfg, "signal")
    if name is not None:
        spec = resolve_signal(name)
        ss = theory.sigma_star(spec)
        ups = theory.upsilon(spec, k)
        payload.update({"signal": name, "sigma_star": ss, "upsilon": ups})
        print(f"sigma_star = {ss:.6f}")
        print(f"upsilon = {ups:.6f}")
    out = getattr(args, "out", None)
    if out is not None:
        ensure_out(out)
        path = os.path.join(out, "pinsker.json")
        write_json(path, {"command": "pinsker", **payload}, payload)
        print(path)
    return EXIT_OK


def cmd_beta(args, cfg):
    spec, res, run_cfg = _run_estimate(args, cfg)
    i_max = int(merged_option(args, cfg, "i_max", res.context.part.d))
    est = beta_mod.project_coefficients(res.selection.S_star, spec.a, spec.b, i_max)
    out = ensure_out(merged_option(args, cfg, "out", "."))
    path = os.path.join(out, "beta.csv")
    write_csv(path, run_cfg, ("i", "beta_hat_i"), est.rows())
    payload = {"i_max": i_max}
    if spec.kind == "series":
        payload["l2_error"] = beta_mod.beta_error(est, spec.coefficients)
    write_json(os.path.join(out, "beta.json"), run_cfg, payload)
    print(path)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="tvarseq",
                                     description="Adaptive sequential estimation "
                                                 "of a time-varying AR(1) coefficient")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--signal", help="s1 | s2 | series:<file>")
    common.add_argument("--noise", help="gaussian | uniform | none | all")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", help="comma list of csv,json")
    common.add_argument("--config", help="JSON config file (flags take precedence)")

    p = sub.add_parser("simulate", parents=[common], help="write one trajectory CSV")
    p.add_argument("--n", type=int)

    for name in ("estimate", "beta"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--n", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--mu0", type=float)
        p.add_argument("--debug-noiseless", action="store_true")
        if name == "beta":
            p.add_argument("--i-max", type=int, dest="i_max")

    p = sub.add_parser("risk-table", parents=[common], help="Monte-Carlo risk tables")
    p.add_argument("--n", help="comma list of sample sizes")
    p.add_argument("--M", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--mu0", type=float)

    p = sub.add_parser("pinsker", parents=[common], help="sharp-bound constants")
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=float)
    return parser


COMMANDS = {"simulate": cmd_simulate, "estimate": cmd_estimate,
            "risk-table": cmd_risk_table, "pinsker": cmd_pinsker, "beta": cmd_beta}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = {}
        if getattr(args, "config", None):
            with open(args.config) as fh:
                cfg = json.load(fh)
        return COMMANDS[args.command](args, cfg)
    except (ValidationError, ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

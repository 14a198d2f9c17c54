"""Command-line entry point.

Subcommands: simulate, estimate, risk-table, pinsker, beta.
Exit codes: 0 success, 2 validation error or an input too large for memory,
3 I/O error.
"""

import argparse
import json
import os
import sys

from . import beta as beta_mod
from . import pipeline as pl
from . import theory
from .harness import export_report, run_table
from .io import write_csv, write_json
from .selection import check_delta
from .signals import (NoiseSpec, SignalSpec, ValidationError, generate_trajectory,
                      signal_s1, signal_s2, validate_stability)

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
    return NoiseSpec(NOISE_NAMES[name])


def _int_list(text):
    return [int(v) for v in text.split(",")]


def _formats(text):
    formats = text.split(",")
    if not set(formats) <= {"csv", "json"}:
        raise argparse.ArgumentTypeError(f"takes a comma list of csv, json; got {formats}")
    return formats


def ensure_out(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_simulate(args):
    spec = resolve_signal(args.signal)
    noise = resolve_noise(args.noise)
    traj = generate_trajectory(spec, noise, args.n, args.seed)
    out = ensure_out(args.out)
    run_cfg = {"command": "simulate", "signal": spec.to_dict(),
               "noise": noise.to_dict(), "n": args.n, "seed": args.seed}
    path = os.path.join(out, "trajectory.csv")
    write_csv(path, run_cfg, {"j": range(traj.n + 1), "x_j": traj.x, "y_j": traj.y})
    print(path)
    return EXIT_OK


def _run_estimate(args):
    spec = resolve_signal(args.signal)
    noise = resolve_noise(args.noise)
    check_delta(args.delta)
    ctx = pl.make_context(spec, args.n, args.mu0, args.delta)
    res = pl.estimate_signal(ctx, noise, args.seed)
    run_cfg = {"command": args.command, "signal": spec.to_dict(),
               "noise": noise.to_dict(), "n": args.n, "seed": args.seed,
               "delta": res.context.delta, "mu0": args.mu0}
    return spec, res, run_cfg


def cmd_estimate(args):
    spec, res, run_cfg = _run_estimate(args)
    out = ensure_out(args.out)
    pts, grid, one_to_d = res.reg.points, res.context.grid, range(1, res.context.part.d + 1)
    tables = {
        "seq_points.csv": {"l": pts.l, "z_l": res.reg.z, "Y_l": pts.s_star,
                           "sigma2_l": pts.sigma2, "tau_l": pts.tau, "gamma_l": pts.gamma},
        "coefficients.csv": {"j": one_to_d, "theta_hat_j": res.coeffs.theta_hat,
                             "s_jd": res.coeffs.s_jd},
        "criterion.csv": {"k": grid.k, "t": grid.t, "J": res.selection.J_values},
        "s_star.csv": {"l": one_to_d, "z_l": res.context.part.z, "S_star": res.selection.S_star},
    }
    paths = [os.path.join(out, name) for name in tables if "csv" in args.format]
    for path, table in zip(paths, tables.values()):
        write_csv(path, run_cfg, table)
    if "json" in args.format:
        path = os.path.join(out, "selection.json")
        write_json(path, run_cfg, {
            "selected_k": res.selection.alpha_hat[0],
            "selected_t": res.selection.alpha_hat[1],
            "delta": res.context.delta,
            "gamma": res.reg.gamma_all,
            "J_min": float(res.selection.J_values[res.selection.alpha_index]),
        })
        paths.append(path)
    k, t = res.selection.alpha_hat
    print(f"selected (k, t) = ({k}, {t:.6g}); gamma={res.reg.gamma_all}")
    for path in paths:
        print(path)
    return EXIT_OK


def cmd_risk_table(args):
    spec = resolve_signal(args.signal)
    names = ("gaussian", "uniform") if args.noise == "all" else (args.noise,)
    noises = [resolve_noise(name) for name in names]
    check_delta(args.delta)
    out = ensure_out(args.out)
    signal_id = args.signal if not args.signal.startswith("series:") else "series"
    report = run_table(spec, noises, args.n, args.M, args.seed, mu0=args.mu0,
                       delta=args.delta, signal_id=signal_id)
    run_cfg = {"command": "risk-table", "signal": spec.to_dict(),
               "noise": [nz.to_dict() for nz in noises], "n_list": args.n,
               "M": args.M, "seed": args.seed, "delta": args.delta, "mu0": args.mu0}
    for p in export_report(report, run_cfg, out, args.format):
        print(p)
    return EXIT_OK


def cmd_pinsker(args):
    k, r = args.k, args.r
    if k is None or r is None:
        raise ValidationError("pinsker requires --k and --r")
    if args.signal is not None:
        spec = resolve_signal(args.signal)
        validate_stability(spec, 0)  # the certificate covers all of [a, b], so every n
    lk = theory.pinsker_constant(k, r)
    payload = {"k": k, "r": r, "pinsker_constant": lk}
    print(f"l_{k}({r:g}) = {lk:.6f}")
    if args.signal is not None:
        ss = theory.sigma_star(spec)
        ups = theory.upsilon(spec, k)
        payload.update({"signal": args.signal, "sigma_star": ss, "upsilon": ups})
        print(f"sigma_star = {ss:.6f}")
        print(f"upsilon = {ups:.6f}")
    if args.out is not None:
        ensure_out(args.out)
        path = os.path.join(args.out, "pinsker.json")
        write_json(path, {"command": "pinsker", **payload}, payload)
        print(path)
    return EXIT_OK


def cmd_beta(args):
    spec, res, run_cfg = _run_estimate(args)
    i_max = res.context.part.d if args.i_max is None else args.i_max
    est = beta_mod.project_coefficients(res.selection.S_star, spec.a, spec.b, i_max)
    out = ensure_out(args.out)
    path = os.path.join(out, "beta.csv")
    write_csv(path, run_cfg, {"i": range(1, i_max + 1), "beta_hat_i": est.coefficients})
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

    parsers = {}

    def add(name, noises=tuple(NOISE_NAMES), signal="s1", out=".", **kwargs):
        p = parsers[name] = sub.add_parser(name, **kwargs)
        p.add_argument("--signal", default=signal, help="s1 | s2 | series:<file>")
        p.add_argument("--out", default=out, help="output directory")
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        if noises:
            p.add_argument("--noise", default="gaussian", choices=noises)
            p.add_argument("--seed", type=int, default=0)
        if name in ("estimate", "risk-table"):
            p.add_argument("--format", type=_formats, default="csv,json",
                           help="comma list of csv,json")
        if name in ("estimate", "beta", "risk-table"):
            p.add_argument("--delta", type=float)
            p.add_argument("--mu0", type=float, default=0.5)
        return p

    add("simulate", help="write one trajectory CSV").add_argument("--n", type=int, default=200)
    for name in ("estimate", "beta"):
        add(name).add_argument("--n", type=int, default=500)
    parsers["beta"].add_argument("--i-max", type=int, dest="i_max")

    # a noise-free risk table is degenerate: every replication is the same
    p = add("risk-table", noises=("gaussian", "uniform", "all"), help="Monte-Carlo risk tables")
    p.add_argument("--n", type=_int_list, default="200,500", help="comma list of sample sizes")
    p.add_argument("--M", type=int, default=50)

    p = add("pinsker", noises=(), signal=None, out=None, help="sharp-bound constants")
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=float)
    return parser


COMMANDS = {"simulate": cmd_simulate, "estimate": cmd_estimate,
            "risk-table": cmd_risk_table, "pinsker": cmd_pinsker, "beta": cmd_beta}


def parse_args(argv):
    """Flags, then --config values read as the text of their flag, then defaults.

    Each config value is passed to the parser as its flag ahead of the
    command line, so it gets the flag's checks and a flag given later wins.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {args.config} must hold a JSON object")
    flags = []
    for key, val in cfg.items():
        if key in ("command", "config") or key not in vars(args):
            raise ValidationError(f"config key {key!r} is not an option of {args.command}")
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise ValidationError(f"config key {key!r} takes a string or a number, "
                                  f"got {json.dumps(val)}")
        flags.append(f"--{key.replace('_', '-')}={val}")
    argv = sys.argv[1:] if argv is None else list(argv)
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def main(argv=None):
    try:
        args = parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse has printed its message
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    except ValueError as exc:  # ValidationError and ConfigurationError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # an input too large for memory, e.g. numpy's allocation error
        print(f"error: input too large for memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

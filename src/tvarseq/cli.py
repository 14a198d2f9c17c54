"""Command-line entry point.

Subcommands: simulate, estimate, risk-table, pinsker, beta.
Exit codes: 0 success, 2 validation error or an input too large for memory,
3 I/O error.
"""

import argparse
import json
import sys

from . import beta as beta_mod
from . import pipeline as pl
from . import theory
from .harness import export_report, run_table
from .io import write_artifacts
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
    return NoiseSpec(NOISE_NAMES[name])


def _int_list(text):
    return [int(v) for v in text.split(",")]


def _seed(text):
    """A base seed: an integer >= 0, as numpy's SeedSequence takes."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"need a seed >= 0, got {seed}")
    return seed


def cmd_simulate(args):
    spec = resolve_signal(args.signal)
    noise = resolve_noise(args.noise)
    traj = generate_trajectory(spec, noise, args.n, args.seed)
    run_cfg = {"command": "simulate", "signal": spec.to_dict(),
               "noise": noise.to_dict(), "n": args.n, "seed": args.seed}
    print(*write_artifacts(args.out, run_cfg, {
        "trajectory.csv": {"j": range(traj.n + 1), "x_j": traj.x, "y_j": traj.y}}))
    return EXIT_OK


def _run_estimate(args):
    """The context this command's options build, the estimate on it, and the config echo."""
    noise = resolve_noise(args.noise)
    ctx = pl.make_context(resolve_signal(args.signal), args.n)
    run_cfg = {"command": args.command, "signal": ctx.spec.to_dict(),
               "noise": noise.to_dict(), "n": args.n, "seed": args.seed}
    return ctx, pl.estimate_signal(ctx, noise, args.seed), run_cfg


def cmd_estimate(args):
    ctx, res, run_cfg = _run_estimate(args)
    pts, sel, one_to_d = res.reg.points, res.selection, range(1, ctx.part.d + 1)
    paths = write_artifacts(args.out, run_cfg, {
        "seq_points.csv": {"l": pts.l, "z_l": ctx.part.z, "Y_l": pts.s_star,
                           "sigma2_l": res.reg.sigma2, "tau_l": pts.tau, "gamma_l": pts.gamma},
        "coefficients.csv": {"j": one_to_d, "theta_hat_j": res.coeffs.theta_hat,
                             "s_jd": res.coeffs.s_jd},
        "criterion.csv": {"k": ctx.grid.k, "t": ctx.grid.t, "J": sel.J_values},
        "s_star.csv": {"l": one_to_d, "z_l": ctx.part.z, "S_star": sel.S_star},
        "selection.json": {"selected_k": sel.alpha_hat[0], "selected_t": sel.alpha_hat[1],
                           "delta": ctx.delta, "gamma": res.reg.gamma_all,
                           "J_min": float(sel.J_values[sel.alpha_index])},
    })
    k, t = sel.alpha_hat
    print(f"selected (k, t) = ({k}, {t:.6g}); gamma={res.reg.gamma_all}")
    print(*paths, sep="\n")
    return EXIT_OK


def cmd_risk_table(args):
    spec = resolve_signal(args.signal)
    names = ("gaussian", "uniform") if args.noise == "all" else (args.noise,)
    noises = [resolve_noise(name) for name in names]
    signal_id = args.signal if not args.signal.startswith("series:") else "series"
    report = run_table(spec, noises, args.n, args.M, args.seed, signal_id=signal_id)
    run_cfg = {"command": "risk-table", "signal": spec.to_dict(),
               "noise": [nz.to_dict() for nz in noises], "n_list": args.n,
               "M": args.M, "seed": args.seed}
    print(*export_report(report, run_cfg, args.out), sep="\n")
    return EXIT_OK


def cmd_pinsker(args):
    k, r = args.k, args.r
    if k is None or r is None:
        raise ValidationError("pinsker requires --k and --r")
    # everything is computed before anything is printed or written
    run_cfg = {"command": "pinsker", "k": k, "r": r}
    payload = {"k": k, "r": r, "pinsker_constant": theory.pinsker_constant(k, r)}
    lines = [f"l_{k}({r:g}) = {payload['pinsker_constant']:.6f}"]
    if args.signal is not None:
        spec = resolve_signal(args.signal)
        run_cfg["signal"] = spec.to_dict()
        payload.update({"signal": args.signal, "sigma_star": theory.sigma_star(spec),
                        "upsilon": theory.upsilon(spec, k)})
        lines += [f"{name} = {payload[name]:.6f}" for name in ("sigma_star", "upsilon")]
    if args.out is not None:
        lines += write_artifacts(args.out, run_cfg, {"pinsker.json": payload})
    print("\n".join(lines))
    return EXIT_OK


def cmd_beta(args):
    ctx, res, run_cfg = _run_estimate(args)
    spec = ctx.spec
    i_max = ctx.part.d if args.i_max is None else args.i_max
    beta_hat = beta_mod.project_coefficients(res.selection.S_star, spec.a, spec.b, i_max)
    run_cfg["i_max"] = args.i_max  # as given: None stands for d
    payload = {"i_max": i_max}
    if spec.kind == "series":
        payload["l2_error"] = beta_mod.beta_error(beta_hat, spec.coefficients)
    print(*write_artifacts(args.out, run_cfg, {
        "beta.csv": {"i": range(1, i_max + 1), "beta_hat_i": beta_hat}, "beta.json": payload}),
        sep="\n")
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
            p.add_argument("--seed", type=_seed, default=0)
        return p

    add("simulate", help="write one trajectory CSV").add_argument("--n", type=int, default=200)
    for name in ("estimate", "beta"):
        add(name).add_argument("--n", type=int, default=500)
    parsers["beta"].add_argument("--i-max", type=int, dest="i_max")

    # no "none": harness.run_table rejects a noise-free cell, whose replications are all one run
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
    except ValueError as exc:  # ValidationError, or a file that is not JSON
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

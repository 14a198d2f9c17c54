"""Command-line interface: artifacts, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import tempfile
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import tvarseq.beta as beta_mod
import tvarseq.cli as cli
import tvarseq.pipeline as pl
from tvarseq.cli import (COMMANDS, EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main,
                         parse_args)
from tvarseq.signals import NoiseSpec


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestSimulate:
    def test_row_count(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--signal", "s1", "--n", "200",
                   "--seed", "1") == EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        # header comment + column names + 201 rows
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "j,x_j,y_j"
        assert len(lines) == 203

    def test_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            run(tmp_path / sub, "simulate", "--signal", "s1", "--n", "150",
                "--seed", "4")
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    def test_invalid_signal(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--signal", "s9") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "s1" in err and "s2" in err  # message lists valid names


class TestEstimate:
    def test_smoke(self, tmp_path, capsys):
        assert run(tmp_path, "estimate", "--signal", "s1", "--n", "500",
                   "--seed", "7") == EXIT_OK
        for name in ("seq_points.csv", "coefficients.csv", "criterion.csv",
                     "s_star.csv", "selection.json"):
            assert (tmp_path / name).exists()
        assert "selected (k, t)" in capsys.readouterr().out

    def test_debug_noiseless(self, tmp_path):
        for sub, seed in (("a", "3"), ("b", "71")):
            (tmp_path / sub).mkdir()
            assert run(tmp_path / sub, "estimate", "--signal", "s1", "--n", "500",
                       "--seed", seed, "--noise", "none") == EXIT_OK
        # seeds differ yet every artifact agrees but for its config lines
        for name in ("seq_points.csv", "coefficients.csv", "criterion.csv", "s_star.csv"):
            a = (tmp_path / "a" / name).read_text().splitlines()[1:]
            b = (tmp_path / "b" / name).read_text().splitlines()[1:]
            assert a == b
        sel_a, sel_b = (json.loads((tmp_path / sub / "selection.json").read_text())
                        for sub in ("a", "b"))
        for sel in (sel_a, sel_b):
            del sel["config_hash"], sel["config"]
        assert sel_a == sel_b
        assert sel_a["gamma"] is True

    def test_noise_none_writes_the_signal(self, tmp_path):
        from tvarseq.signals import signal_s1, signal_values_uniform
        assert run(tmp_path, "estimate", "--signal", "s1", "--n", "500",
                   "--noise", "none") == EXIT_OK
        lines = (tmp_path / "seq_points.csv").read_text().splitlines()
        assert lines[1] == "l,z_l,Y_l,sigma2_l,tau_l,gamma_l"
        rows = [line.split(",") for line in lines[2:]]
        S = signal_values_uniform(signal_s1(), len(rows))[1:]  # S(z_l) = S(l/d)
        assert [float(r[2]) for r in rows] == S.tolist()
        assert all(r[5] == "1" for r in rows)

    def test_unknown_spec_key_rejected(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "series", "coefficients": [0.0, 0.3],
                                    "stability_eps": 0.3, "lipschitz_L": 10.0, "bogus": 1}))
        assert run(tmp_path, "estimate", "--signal", f"series:{spec}",
                   "--n", "500") == EXIT_VALIDATION
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(tmp_path, "estimate", "--config", str(cfg)) == EXIT_VALIDATION

    def test_small_n_rejected(self, tmp_path):
        assert run(tmp_path, "estimate", "--signal", "s1", "--n", "50") == EXIT_VALIDATION


class TestRiskTable:
    def test_two_row_table(self, tmp_path):
        assert run(tmp_path, "risk-table", "--signal", "s1", "--n", "200,500",
                   "--M", "3", "--seed", "3") == EXIT_OK
        lines = (tmp_path / "risk_table.csv").read_text().splitlines()
        assert len(lines) == 4  # header comment + columns + 2 cells

    def test_rerun_identical(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            run(tmp_path / sub, "risk-table", "--signal", "s1", "--n", "200",
                "--M", "2", "--seed", "3")
        assert ((tmp_path / "a" / "risk_table.csv").read_bytes()
                == (tmp_path / "b" / "risk_table.csv").read_bytes())
        assert ((tmp_path / "a" / "risk_table.json").read_bytes()
                == (tmp_path / "b" / "risk_table.json").read_bytes())

    def test_repeated_n_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "risk-table", "--signal", "s1", "--n", "200,500,200",
                   "--M", "2", "--seed", "3") == EXIT_VALIDATION
        assert "repeated sample size" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_noise_all(self, tmp_path):
        assert run(tmp_path, "risk-table", "--signal", "s1", "--n", "200",
                   "--M", "2", "--seed", "1", "--noise", "all") == EXIT_OK
        lines = (tmp_path / "risk_table.csv").read_text().splitlines()
        assert len(lines) >= 4  # one row per noise family


class TestPinsker:
    def test_constant_only(self, capsys):
        assert main(["pinsker", "--k", "1", "--r", "1"]) == EXIT_OK
        assert "0.423565" in capsys.readouterr().out

    def test_with_signal(self, capsys):
        assert main(["pinsker", "--k", "1", "--r", "1", "--signal", "s1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sigma_star = 0.875000" in out
        assert "upsilon = 1.093104" in out

    def test_missing_r(self, capsys):
        assert main(["pinsker", "--k", "1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_r_rejected(self, tmp_path, capsys, r):
        assert main(["pinsker", "--k", "2", "--r", r, "--out", str(tmp_path / "out")]) \
            == EXIT_VALIDATION
        assert "finite r" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOptions:
    """Each command takes only the options it reads; `all` noise is for risk-table."""

    @pytest.mark.parametrize("argv, named", [
        (["estimate", "--noise", "all"], "--noise"),
        (["simulate", "--noise", "all"], "--noise"),
        (["beta", "--noise", "all"], "--noise"),
        (["pinsker", "--k", "2", "--r", "1", "--seed", "1"], "--seed"),
        (["pinsker", "--k", "2", "--r", "1", "--noise", "banana"], "--noise"),
        (["pinsker", "--k", "2", "--r", "1", "--format", "csv"], "--format"),
        (["simulate", "--format", "json"], "--format"),
        (["beta", "--format", "csv"], "--format"),
        (["risk-table", "--noise", "none"], "--noise"),
        (["estimate", "--delta", "0.05"], "--delta"),  # the procedure sets delta_n and mu0
        (["estimate", "--mu0", "0.4"], "--mu0"),
    ])
    def test_option_rejected(self, tmp_path, capsys, argv, named):
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, named", [
        ("simulate", {"format": "json"}, "'format'"),
        ("pinsker", {"seed": 1}, "'seed'"),
    ])
    def test_config_key_rejected(self, tmp_path, capsys, command, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate"], ["simulate", "--noise", "none"], ["estimate"], ["estimate", "--noise", "none"],
    ["beta"], ["beta", "--noise", "none"], ["risk-table", "--n", "200", "--M", "2"],
])
def test_negative_seed_rejected(tmp_path, capsys, argv):
    """Every command that takes --seed rejects one below 0 as it parses, before any work."""
    out = tmp_path / "out"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "--seed" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("content", [[["kind", "closed_form_S1"]], "ab"], ids=["pairs", "string"])
def test_spec_file_must_hold_an_object(tmp_path, capsys, content):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(content))
    out = tmp_path / "out"
    assert main(["estimate", "--signal", f"series:{spec}", "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "JSON object" in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestUnstableSignal:
    # sup|S| <= 1.697 on [0, 1]: outside the stability set |S| <= 1 - eps
    SPEC = {"kind": "series", "coefficients": [0.0, 1.2], "stability_eps": 0.1,
            "lipschitz_L": 100.0}

    @pytest.mark.parametrize("argv", [
        ["estimate", "--noise", "none"],
        ["beta", "--noise", "none"],
        ["pinsker", "--k", "2", "--r", "1"],
    ])
    def test_rejected(self, tmp_path, capsys, argv):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        out = tmp_path / "out"
        assert main([*argv, "--signal", f"series:{spec}", "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "stability" in captured.err
        assert captured.out == ""
        assert not out.exists()


# sup|S| is tiny on these intervals, so S passes the stability check; the
# interval alone is too wide for the arithmetic of the grids
WIDE = {"kind": "series", "a": -1e308, "b": 1e308, "coefficients": [0.0, 0.3],
        "stability_eps": 0.3, "lipschitz_L": 10.0}
FAR = {**WIDE, "a": 1e300}
FAR_TABULATED = {"kind": "tabulated", "a": 1e300, "b": 1e308, "values": [0.1, 0.2],
                 "stability_eps": 0.3, "lipschitz_L": 10.0}
UNIT = {**WIDE, "a": 0.0, "b": 1.0}
BEYOND_FLOAT = str(10 ** 400)  # an n that no float holds
# amplitudes whose sum (psi_1 + psi_2 terms), or whose sqrt(2) scaling, overflows
HUGE_SUM = {"kind": "series", "coefficients": [1e308, 1e308]}
HUGE_SCALED = {"kind": "series", "coefficients": [0.0, 1.3e308]}


class TestIntervalOverflow:
    """An interval whose width, or 2 pi n (b-a), overflows is a validation error,
    and so is an empty interval, an n too large for a float, and a series whose
    amplitudes overflow the stability check's arithmetic."""

    @pytest.mark.parametrize("spec, argv, named", [
        (WIDE, ["estimate", "--n", "500"], "b - a"),
        (WIDE, ["pinsker", "--k", "2", "--r", "1"], "b - a"),
        (FAR, ["estimate", "--n", "500"], "2 pi n"),
        (FAR, ["risk-table", "--n", "200", "--M", "2"], "2 pi n"),
        (FAR, ["simulate"], "2 pi n"),
        (FAR, ["beta", "--n", "500"], "2 pi n"),
        (FAR_TABULATED, ["estimate", "--n", "500"], "2 pi n"),
        (FAR_TABULATED, ["simulate"], "2 pi n"),
        (UNIT, ["estimate", "--n", BEYOND_FLOAT], "2 pi n"),
        (UNIT, ["simulate", "--n", BEYOND_FLOAT], "2 pi n"),
        ({**UNIT, "a": 1.0}, ["estimate", "--n", "500"], "need b > a"),
        (HUGE_SUM, ["estimate", "--n", "500"], "stability"),
        (HUGE_SCALED, ["estimate", "--n", "500"], "stability"),
    ], ids=["wide-estimate", "wide-pinsker", "far-estimate", "far-risk-table",
            "far-simulate", "far-beta", "far-tabulated-estimate", "far-tabulated-simulate",
            "huge-n-estimate", "huge-n-simulate", "empty-interval", "huge-amplitude-sum",
            "huge-scaled-amplitude"])
    def test_exit_2(self, tmp_path, capsys, spec, argv, named):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--signal", f"series:{path}", "--out", str(out)])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.err.count("\n") == 1  # one line: no warning or traceback before it
        assert captured.out == ""
        assert not out.exists()


# a valid series spec, for one field to be set outside its range
SERIES = {"kind": "series", "coefficients": [0.0, 0.3], "stability_eps": 0.3, "lipschitz_L": 10.0}


@pytest.mark.parametrize("spec, argv, named", [
    ({**SERIES, "stability_eps": 1.0}, ["estimate"], "stability_eps"),
    ({**SERIES, "lipschitz_L": 0.0}, ["estimate"], "lipschitz_L"),
    ({**SERIES, "coefficients": []}, ["estimate"], "series kind needs coefficients"),
    ({"kind": "tabulated", "values": [0.1]}, ["estimate"], "at least 2 values"),
    (None, ["simulate", "--n", "9"], "need n >= 10"),
    (None, ["pinsker", "--k", "0", "--r", "1"], "need k >= 1"),
    # a field of the wrong type, and a key that the spec's kind never reads
    ({**SERIES, "coefficients": "5"}, ["estimate"], "coefficients must be"),
    ({"kind": "tabulated", "values": "12"}, ["estimate"], "values must be"),
    ({**SERIES, "a": True}, ["estimate"], "a must be a real number"),
    ({**SERIES, "coefficients": "abc"}, ["estimate"], "coefficients must be"),
    ({"kind": "closed_form_S1", "coefficients": [0.9]}, ["estimate"], "coefficients is read"),
    ({**SERIES, "values": [5, 6]}, ["estimate"], "values is read"),
], ids=["eps", "lipschitz", "no-coefficients", "one-value", "simulate-n", "pinsker-k",
        "coefficients-str", "values-str", "a-bool", "coefficients-word", "s1-coefficients",
        "series-values"])
def test_outside_input_named(tmp_path, capsys, spec, argv, named):
    """An input outside its range exits 2 with one error line that names it,
    prints no result and writes nothing."""
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [*argv, "--signal", f"series:{path}"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and named in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("spec, seen", [
    ({"kind": "tabulated", "values": [0.0, 0.0], "stability_eps": 0.5}, "S is zero"),
    ({"kind": "series", "coefficients": [0.0], "stability_eps": 0.5}, "S is zero"),
    # ||S||_n^2 = 2e-320 is subnormal: rbar / ||S||_n^2 overflows to inf
    ({"kind": "tabulated", "values": [1e-160, 1e-160], "stability_eps": 0.5}, "overflows"),
    # S = 1e-170 is not zero, but S^2 = 1e-340 underflows to 0
    ({"kind": "tabulated", "values": [1e-170, 1e-170], "stability_eps": 0.5}, "underflows"),
], ids=["tabulated", "series", "subnormal", "underflow"])
def test_zero_signal_has_no_relative_risk(tmp_path, capsys, spec, seen):
    """rbar_star divides by ||S||_n^2: a risk table of a signal that is zero, or
    too small for that ratio to be finite, on the design exits 2 with a message
    that says which, while an estimate of it runs."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["risk-table", "--signal", f"series:{path}", "--n", "200", "--M", "2",
                 "--out", str(out)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "n=200" in captured.err
    assert seen in captured.err, captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
    assert main(["estimate", "--signal", f"series:{path}", "--n", "200",
                 "--out", str(out)]) == EXIT_OK


def test_out_that_is_a_file_exits_3(tmp_path, capsys):
    """An output directory that cannot be made is an I/O error: exit 3, after
    the estimate is computed and before anything is written."""
    out = tmp_path / "out"
    out.write_text("kept\n")
    assert main(["estimate", "--n", "200", "--out", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "File exists" in captured.err
    assert str(out) in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert out.read_text() == "kept\n" and list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("spec, argv, expected", [
    (None, ["--r", "1e308"], EXIT_OK),  # (1+2k) r overflows; each factor's power does not
    (None, ["--k", BEYOND_FLOAT], EXIT_VALIDATION),
    (FAR, ["--signal"], EXIT_VALIDATION),  # (b - a) sigma_star overflows
    (FAR_TABULATED, ["--signal"], EXIT_VALIDATION),
    # (b - a) sigma_star = 1e-300 * 0.99e-300 underflows to 0
    ({"kind": "series", "a": 0, "b": 1e-300, "coefficients": [1e-151]}, ["--signal"],
     EXIT_VALIDATION),
    # (b - a) sigma_star = 0.99e-320 is subnormal: its power of about -1 overflows
    ({"kind": "series", "a": 0, "b": 1e-160, "coefficients": [1e-81]},
     ["--k", "100000000000000", "--signal"], EXIT_VALIDATION),
], ids=["huge-r", "huge-k", "far-series", "far-tabulated", "vanishing-scale", "subnormal-scale"])
def test_pinsker_outside_inputs(tmp_path, capsys, spec, argv, expected):
    """A finite constant or exit 2, never inf, 0 or a traceback; a rejected
    command prints no result and writes nothing."""
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [*argv, f"series:{path}"]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["pinsker", "--k", "2", "--r", "1", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == expected
    if expected == EXIT_OK:
        lk = json.loads((out / "pinsker.json").read_text())["pinsker_constant"]
        # l_2(r) = (5 r)^(1/5) (2/(3 pi))^(4/5), the first factor taken through logs
        assert lk == pytest.approx(math.exp((math.log(5) + math.log(1e308)) / 5)
                                   * (2 / (3 * math.pi)) ** 0.8)
    else:
        assert captured.err.startswith("error:") and captured.out == ""
        assert not out.exists()


class TestOutOfMemory:
    """An input too large for memory is a validation error, and nothing is written."""

    @pytest.mark.parametrize("argv,module,name", [
        (["estimate", "--n", "400000000"], pl, "make_context"),
        (["beta", "--n", "500", "--i-max", "100000000"], beta_mod, "project_coefficients"),
        (["simulate", "--n", "400000000"], cli, "generate_trajectory"),
    ])
    def test_exit_2(self, tmp_path, capsys, monkeypatch, argv, module, name):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 17.9 GiB for an array")

        monkeypatch.setattr(module, name, too_large)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "17.9 GiB" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists() or not any(out.iterdir())


    def test_exit_2_from_the_draw_worker(self, tmp_path, capsys, monkeypatch):
        # simulate --n 300000 is one path of two steps: the worker draws the
        # second, and its MemoryError reaches main as the calling thread's would
        threads, real = [], NoiseSpec.draw_into

        def draw_into(self, rng, out):
            threads.append(threading.current_thread())
            if len(threads) == 2:
                raise MemoryError("Unable to allocate 17.9 GiB for an array")
            return real(self, rng, out)

        monkeypatch.setattr(NoiseSpec, "draw_into", draw_into)
        out = tmp_path / "out"
        assert main(["simulate", "--n", "300000", "--out", str(out)]) == EXIT_VALIDATION
        assert threads[1] is not threading.main_thread()
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "17.9 GiB" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists() or not any(out.iterdir())


class TestBeta:
    def test_series_error_reported(self, tmp_path):
        series = tmp_path / "series.json"
        series.write_text(json.dumps({
            "kind": "series", "coefficients": [0.0, 0.3, 0.0, 0.0, 0.1],
            "stability_eps": 0.3, "lipschitz_L": 10.0,
        }))
        assert run(tmp_path, "beta", "--signal", f"series:{series}", "--n", "10000",
                   "--noise", "none") == EXIT_OK
        payload = json.loads((tmp_path / "beta.json").read_text())
        assert payload["l2_error"] < 1e-3
        rows = (tmp_path / "beta.csv").read_text().splitlines()[2:]
        beta2 = float(rows[1].split(",")[1])
        assert abs(beta2 - 0.3) < 0.02

    def test_prints_every_path_it_writes(self, tmp_path, capsys):
        assert run(tmp_path, "beta", "--n", "200", "--noise", "none") == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / "beta.csv"), str(tmp_path / "beta.json")]


class TestConfigFile:
    def test_flags_take_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signal": "s1", "n": 150, "seed": 5}))
        assert run(tmp_path, "simulate", "--config", str(cfg), "--n", "120") == EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 123  # flag n=120 wins over config n=150

    @pytest.mark.parametrize("cfg, named", [
        ({"n": [500]}, "'n'"),
        ({"seed": None}, "'seed'"),
        ({"signal": 5}, "signal"),
        ({"n": "abc"}, "--n"),
        ({"debug_noiseless": True}, "'debug_noiseless'"),  # a retired switch
        ({"seeds": 3}, "'seeds'"),
        ([1, 2], "JSON object"),
        ({"noise": "all"}, "--noise"),
        ({"seed": -1}, "--seed"),
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(tmp_path, "estimate", "--config", str(path)) == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, flags", [
        ({"noise": "uniform", "n": "500", "seed": 7},
         ["--noise", "uniform", "--n", "500", "--seed", "7"]),
        ({"noise": "none", "n": 600}, ["--noise", "none", "--n", "600"]),
    ])
    def test_values_read_as_their_flag(self, tmp_path, cfg, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for sub, argv in (("config", ["--config", str(path)]), ("flags", flags)):
            (tmp_path / sub).mkdir()
            assert run(tmp_path / sub, "estimate", *argv) == EXIT_OK
        for name in ("seq_points.csv", "selection.json"):
            assert ((tmp_path / "config" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes())


def test_readme_option_table_matches_parser():
    """Each row of README's command table names exactly its parser's options."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", fh.read(), flags=re.M)
    documented = {command: set(re.findall(r"--[A-Za-z0-9-]+", options))
                  for command, options in rows}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {command: {flag for action in p._actions for flag in action.option_strings
                        if flag.startswith("--")} - {"--help"}
              for command, p in sub.choices.items()}
    assert documented == parsed


NUMERIC_KEYS = {"n", "seed", "M", "k", "r", "i_max"}
# no digits, and none of the letters of "nan", "inf" or an exponent
NOT_A_NUMBER = st.text(alphabet="abcdghjklmopqrsuvwxyz ,;:!?-_", max_size=8)


@st.composite
def malformed_configs(draw):
    """A command and a config entry that parse_args rejects before the command runs."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = sorted(set(vars(parse_args([command]))) - {"command", "config"})
    kind = draw(st.sampled_from(("container", "boolean", "text", "unknown")))
    if kind == "container":
        key = draw(st.sampled_from(options))
        value = draw(st.one_of(st.none(), st.lists(st.integers() | st.text(max_size=3), max_size=3),
                               st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)))
    elif kind == "boolean":
        key, value = draw(st.sampled_from(options)), draw(st.booleans())
    elif kind == "text":
        key, value = draw(st.sampled_from([o for o in options if o in NUMERIC_KEYS])), \
            draw(NOT_A_NUMBER)
    else:
        key = draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
                   .filter(lambda k: k not in options))
        value = draw(st.integers() | st.text(max_size=3))
    return command, {key: value}


@settings(deadline=None, max_examples=80, derandomize=True, database=None)
@given(malformed_configs())
def test_malformed_config_exits_2(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", out])
        assert code == EXIT_VALIDATION, (command, cfg)
        assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()
        assert not os.path.exists(out)


def _config_hashes(out):
    """The config_hash of every artifact under out, by file name."""
    hashes = {}
    for path in out.iterdir():
        text = path.read_text()
        hashes[path.name] = (json.loads(text)["config_hash"] if path.suffix == ".json"
                             else text.split("\n", 1)[0].removeprefix("# config_hash="))
    return hashes


# per command: a base command line, and a second value for each of its options
HASH_CASES = {
    "simulate": (["--n", "150"], {"signal": "s2", "noise": "uniform", "seed": "1", "n": "160"}),
    "estimate": (["--n", "500"], {"signal": "s2", "noise": "uniform", "seed": "1", "n": "600"}),
    "beta": (["--n", "500"], {"signal": "s2", "noise": "uniform", "seed": "1", "n": "600",
                              "i_max": "5"}),
    "risk-table": (["--n", "200", "--M", "2"], {"signal": "s2", "noise": "uniform", "seed": "1",
                                                "n": "300", "M": "3"}),
    "pinsker": (["--k", "2", "--r", "1"], {"signal": "s1", "k": "3", "r": "2"}),
}


@pytest.mark.parametrize("command, option",
                         [(c, o) for c, (_, values) in HASH_CASES.items() for o in values])
def test_config_hash_tracks_every_option(tmp_path, command, option):
    """Two runs that differ in one option share no config_hash: the config echo
    holds every option but --out and --config."""
    base, values = HASH_CASES[command]
    assert set(vars(parse_args([command]))) - {"command", "out", "config"} == set(values)
    assert run(tmp_path / "base", command, *base) == EXIT_OK
    assert run(tmp_path / "changed", command, *base,
               f"--{option.replace('_', '-')}", values[option]) == EXIT_OK
    before, after = _config_hashes(tmp_path / "base"), _config_hashes(tmp_path / "changed")
    assert before and after and not set(before.values()) & set(after.values())


# columns of whole numbers (counts, indices, 0/1 flags) and of names; every
# other CSV column holds floats
INT_COLUMNS = {"j", "l", "i", "k", "tau_l", "gamma_l", "n", "M"}
TEXT_COLUMNS = {"signal", "noise"}


def _canonical_rows(path):
    """The data rows of a CSV, after checking each field is written canonically:
    a float as repr(float), an integer or 0/1 flag as str(int), a name as is."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("# config_hash=") and lines[-1] == ""
    names, rows = lines[1].split(","), [line.split(",") for line in lines[2:-1]]
    for row in rows:
        assert len(row) == len(names)
        for name, field in zip(names, row):
            if name in INT_COLUMNS:
                assert str(int(field)) == field, (path.name, name, field)
            elif name in TEXT_COLUMNS:
                assert field and field.strip() == field, (path.name, name, field)
            else:
                assert repr(float(field)) == field, (path.name, name, field)
    return rows


def test_real_artifacts_are_canonical_field_by_field(tmp_path):
    """Every field of every CSV the commands write, and each file's row count."""
    from tvarseq.signals import signal_s1, signal_s2
    grids = {name: pl.make_context(spec, 2000) for name, spec in
             (("s1", signal_s1()), ("s2", signal_s2()))}
    for name, ctx in grids.items():
        out = tmp_path / f"estimate_{name}"
        assert run(out, "estimate", "--signal", name, "--n", "2000", "--seed", "3") == EXIT_OK
        d = ctx.part.d
        assert len(_canonical_rows(out / "criterion.csv")) == ctx.grid.k.size  # nu
        for csv in ("seq_points.csv", "coefficients.csv", "s_star.csv"):
            assert len(_canonical_rows(out / csv)) == d
    assert run(tmp_path / "beta", "beta", "--signal", "s2", "--n", "2000") == EXIT_OK
    assert len(_canonical_rows(tmp_path / "beta" / "beta.csv")) == grids["s2"].part.d
    assert run(tmp_path / "sim", "simulate", "--signal", "s2", "--n", "300") == EXIT_OK
    assert len(_canonical_rows(tmp_path / "sim" / "trajectory.csv")) == 301
    out = tmp_path / "table"
    assert run(out, "risk-table", "--signal", "s1", "--n", "200,300", "--M", "2",
               "--noise", "all") == EXIT_OK
    assert len(_canonical_rows(out / "risk_table.csv")) == 4  # 2 n x 2 noise families
    cells = sorted(out.glob("risk_table_s1_n*.csv"))
    assert len(cells) == 4
    for cell in cells:
        n = int(re.search(r"_n(\d+)_", cell.name).group(1))
        assert len(_canonical_rows(cell)) == pl.make_context(signal_s1(), n).part.d

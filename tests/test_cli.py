"""Command-line interface: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import tvarseq.beta as beta_mod
import tvarseq.cli as cli
import tvarseq.pipeline as pl
from tvarseq.cli import COMMANDS, EXIT_OK, EXIT_VALIDATION, main, parse_args


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

    def test_delta_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "estimate", "--signal", "s1", "--n", "500",
                   "--delta", "0.2") == EXIT_VALIDATION

    @pytest.mark.parametrize("formats", ["xml", "csv,xml"])
    def test_format_rejected(self, tmp_path, formats):
        assert run(tmp_path, "estimate", "--signal", "s1", "--n", "500",
                   "--format", formats) == EXIT_VALIDATION
        assert list(tmp_path.iterdir()) == []

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

    def test_format_rejected(self, tmp_path):
        assert run(tmp_path, "risk-table", "--signal", "s1", "--n", "200", "--M", "2",
                   "--format", "csv,xml") == EXIT_VALIDATION
        assert list(tmp_path.iterdir()) == []

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
        ({"delta": "abc"}, "--delta"),
        ({"debug_noiseless": True}, "'debug_noiseless'"),  # a retired switch
        ({"seeds": 3}, "'seeds'"),
        ([1, 2], "JSON object"),
        ({"noise": "all"}, "--noise"),
    ])
    def test_bad_value_rejected(self, tmp_path, capsys, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(tmp_path, "estimate", "--config", str(path)) == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, flags", [
        ({"delta": "0.05", "n": "500", "seed": 7}, ["--delta", "0.05", "--n", "500", "--seed", "7"]),
        ({"noise": "none", "mu0": 0.4}, ["--noise", "none", "--mu0", "0.4"]),
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


NUMERIC_KEYS = {"n", "seed", "delta", "mu0", "M", "k", "r", "i_max"}
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

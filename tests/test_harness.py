"""Monte-Carlo risk harness: cells, tables, exports, reproducibility."""

import json
import os

import numpy as np
import pytest

import tvarseq
import tvarseq.pipeline as pl
from tvarseq import cli, harness, signals
from tvarseq.basis import trig_fn
from tvarseq.harness import export_report, run_cell, run_table
from tvarseq.io import config_hash
from tvarseq.selection import empirical_error
from tvarseq.signals import SignalSpec


class TestRunCell:
    def test_reproducible(self, s1, gaussian):
        c1 = run_cell(s1, gaussian, 200, 5, base_seed=99, signal_id="s1")
        c2 = run_cell(s1, gaussian, 200, 5, base_seed=99, signal_id="s1")
        assert c1.rbar == c2.rbar
        assert c1.rbar_star == c2.rbar_star
        np.testing.assert_array_equal(c1.mean_estimate, c2.mean_estimate)

    def test_seed_matters(self, s1, gaussian):
        c1 = run_cell(s1, gaussian, 200, 5, base_seed=99)
        c2 = run_cell(s1, gaussian, 200, 5, base_seed=100)
        assert c1.rbar != c2.rbar

    def test_m_validation(self, s1, gaussian):
        with pytest.raises(signals.ValidationError):
            run_cell(s1, gaussian, 200, 0, base_seed=1)

    def test_noise_free_cell_rejected(self, s1, gaussian):
        # the replications of a noise-free cell are all one run (Y = 0 at every
        # point), so run_cell and run_table refuse it, as risk-table's --noise does
        none = signals.NoiseSpec("none")
        with pytest.raises(signals.ValidationError, match="noise-free"):
            run_cell(s1, none, 200, 3, base_seed=0)
        with pytest.raises(signals.ValidationError, match="noise-free"):
            run_table(s1, [gaussian, none], [200], 3, base_seed=0)

    def test_zero_signal_rejected_before_its_cells(self, gaussian, monkeypatch):
        # rbar_star = rbar / ||S||_n^2 has no value when S is zero on the design
        def refuse(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_cell", refuse)
        zero = SignalSpec(kind="series", coefficients=(0.0,), stability_eps=0.5)
        with pytest.raises(signals.ValidationError, match="n=200"):
            run_cell(zero, gaussian, 200, 2, base_seed=0)

    def test_cell_fields(self, s1, uniform_noise):
        c = run_cell(s1, uniform_noise, 200, 3, base_seed=5, signal_id="s1")
        assert c.noise_family == "uniform_unit_variance"
        assert c.rbar >= 0.0
        assert c.rbar_star == pytest.approx(c.rbar / 0.125, rel=0.05)
        assert len(c.z) == len(c.S_grid) == len(c.mean_estimate) == 15
        assert 0.0 <= c.gamma_frequency <= 1.0


class TestRunTable:
    @staticmethod
    @pytest.fixture(scope="class")
    def small_report(s1, gaussian, uniform_noise):
        return run_table(s1, [gaussian, uniform_noise], [200, 500], M=5,
                         base_seed=42, signal_id="s1")

    def test_layout(self, small_report, tmp_path):
        assert len(small_report.cells) == 4
        export_report(small_report, {}, str(tmp_path))
        header, *rows = (tmp_path / "risk_table.csv").read_text().splitlines()[1:]
        assert header == "signal,n,noise,M,rbar,rbar_star,gamma_frequency,mean_k,mean_t,robust_rbar"
        assert len(rows) == 4
        assert all(len(row.split(",")) == len(header.split(",")) for row in rows)

    def test_robust_column(self, small_report):
        for n in (200, 500):
            per_noise = [c.rbar for c in small_report.cells if c.n == n]
            assert small_report.robust[n] == max(per_noise)

    def test_single_cell_table(self, s1, gaussian):
        rep = run_table(s1, [gaussian], [200], M=2, base_seed=1, signal_id="s1")
        assert len(rep.cells) == 1

    def test_empty_inputs_rejected(self, s1, gaussian):
        with pytest.raises(ValueError):
            run_table(s1, [gaussian], [], M=2, base_seed=1)
        with pytest.raises(ValueError):
            run_table(s1, [], [200], M=2, base_seed=1)

    def test_repeated_n_rejected(self, s1, gaussian):
        with pytest.raises(ValueError, match="repeated sample size"):
            run_table(s1, [gaussian], [200, 500, 200], M=2, base_seed=1)

    def test_rejected_inputs_build_no_context(self, s1, s2, gaussian, monkeypatch):
        # a bad input fails at once, not after a context (0.1 s at n = 10^6) or
        # the cells of an earlier n are built
        calls = []
        make_context = pl.make_context

        def counted(*args):
            calls.append(args)
            return make_context(*args)

        monkeypatch.setattr(pl, "make_context", counted)
        none = signals.NoiseSpec("none")
        rejected = [
            lambda: run_cell(s2, gaussian, 10**6, 0, base_seed=0),
            lambda: run_table(s2, [gaussian, none], [70000, 200], 50, base_seed=0),
            lambda: run_table(s1, [gaussian, gaussian], [200], 3, base_seed=0),
            lambda: run_table(s1, [gaussian], [200], 3, base_seed=-1),
            lambda: run_table(s1, [gaussian], [70000, 50], 50, base_seed=0),
        ]
        for call in rejected:
            with pytest.raises(signals.ValidationError):
                call()
            assert calls == []


class TestChunks:
    """A cell estimates its replications in chunks; the result is the per-replication pipeline's."""

    def test_cell_across_chunks_equals_replications(self, s1, gaussian):
        seed, M = 17, 250
        ctx = pl.make_context(s1, 200)
        assert harness.CHUNK_VALUES // ctx.grid.nu < M  # two chunks: 246 + 4
        cell = run_cell(s1, gaussian, 200, M, seed)
        S_grid = ctx.S_grid
        sq_err = np.zeros(ctx.part.d)
        gamma, k_sum, t_sum = 0, 0.0, 0.0
        for r in range(1, M + 1):
            res = pl.estimate_signal(ctx, gaussian, signals.replication_seed(seed, r))
            sq_err += (res.selection.S_star - S_grid) ** 2
            gamma += int(res.reg.gamma_all)
            k_sum += res.selection.alpha_hat[0]
            t_sum += res.selection.alpha_hat[1]
        rbar = float(np.mean(sq_err / M))
        assert cell.rbar == pytest.approx(rbar, rel=1e-12, abs=0.0)
        norm_n = float(ctx.S_design[1:] @ ctx.S_design[1:]) / 200
        assert cell.rbar_star == pytest.approx(rbar / norm_n, rel=1e-12, abs=0.0)
        assert cell.gamma_frequency == gamma / M
        assert cell.mean_k == k_sum / M
        assert cell.mean_t == t_sum / M


class TestContext:
    """A cell's fixed inputs come from one context, built once per (signal, n)."""

    # S = 0.3 psi_2 + 0.1 psi_5 on [1, 3], off the default interval
    SERIES = SignalSpec(kind="series", a=1.0, b=3.0, coefficients=(0.0, 0.3, 0.0, 0.0, 0.1),
                        stability_eps=0.3, lipschitz_L=10.0)

    def test_one_stability_check_per_n(self, gaussian, uniform_noise, monkeypatch):
        # the one check runs when the spec is built; no n, cell or estimate repeats it
        seen = []
        check = signals.validate_stability

        def spy(spec, n):
            seen.append(n)
            return check(spec, n)

        for module in (tvarseq, signals, pl, harness, cli):  # every binding there is
            if hasattr(module, "validate_stability"):
                monkeypatch.setattr(module, "validate_stability", spy)
        s1 = signals.signal_s1()
        assert seen == [0]
        run_table(s1, [gaussian, uniform_noise], [200, 500], M=1, base_seed=1)
        ctx = pl.make_context(s1, 200)
        for noise in (gaussian, signals.NoiseSpec("none")):
            pl.estimate_signal(ctx, noise, seed=1)
        assert seen == [0]

    def test_estimate_on_the_spec_interval(self, gaussian):
        ctx = pl.make_context(self.SERIES, 500)
        pl.estimate_signal(ctx, gaussian, seed=3)
        z = ctx.part.z
        assert np.all((z > 1.0) & (z <= 3.0)) and z[-1] == 3.0
        assert ctx.basis.a == 1.0

    def test_cell_risk_is_the_empirical_norm(self, gaussian):
        # rbar is ||S_star - S||_d^2 on [a, b], the mean of empirical_error over replications
        M, seed = 6, 3
        cell = run_cell(self.SERIES, gaussian, 500, M, base_seed=seed)
        ctx = pl.make_context(self.SERIES, 500)
        errors = [empirical_error(ctx.S_grid, pl.estimate_signal(
                      ctx, gaussian, signals.replication_seed(seed, r)).selection.S_star,
                      1.0, 3.0, ctx.part.d)
                  for r in range(1, M + 1)]
        assert cell.rbar == pytest.approx(np.mean(errors), rel=1e-12, abs=0.0)
        # rbar_star divides by ||S||_n^2, the same norm on the n design points
        norm_n = empirical_error(np.zeros(500), ctx.S_design[1:], 1.0, 3.0, 500)
        assert cell.rbar_star == pytest.approx(cell.rbar / norm_n, rel=1e-12, abs=0.0)

    def test_cell_on_the_spec_interval(self, gaussian):
        c = run_cell(self.SERIES, gaussian, 500, 2, base_seed=3)
        assert np.all((c.z > 1.0) & (c.z <= 3.0)) and c.z[-1] == 3.0
        # S = 0.3 psi_2 + 0.1 psi_5, summed term by term at z
        S = 0.3 * trig_fn(2, c.z, 1.0, 3.0) + 0.1 * trig_fn(5, c.z, 1.0, 3.0)
        np.testing.assert_allclose(c.S_grid, S, rtol=0, atol=1e-14)


class TestExport:
    def test_export_files(self, s1, gaussian, tmp_path):
        rep = run_table(s1, [gaussian], [200], M=2, base_seed=3, signal_id="s1")
        cfg = {"signal": "s1", "seed": 3}
        paths = export_report(rep, cfg, str(tmp_path))
        names = sorted(os.path.basename(p) for p in paths)
        assert "risk_table.csv" in names
        assert "risk_table.json" in names
        assert "risk_table_s1_n200_gaussian_std.csv" in names
        head = open(paths[0]).readline()
        assert head.startswith("# config_hash=")
        assert config_hash(cfg) in head
        payload = json.load(open(os.path.join(tmp_path, "risk_table.json")))
        assert payload["config"] == cfg
        assert payload["robust_rbar"]["200"] == rep.robust[200]

    def test_byte_identical_reruns(self, s1, gaussian, tmp_path):
        cfg = {"signal": "s1", "seed": 3}
        out = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            rep = run_table(s1, [gaussian], [200], M=2, base_seed=3, signal_id="s1")
            export_report(rep, cfg, str(d))
            out.append((d / "risk_table.csv").read_bytes())
        assert out[0] == out[1]

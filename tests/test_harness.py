"""Monte-Carlo risk harness: cells, tables, exports, reproducibility."""

import json
import os

import numpy as np
import pytest

import tvarseq.pipeline as pl
from tvarseq import harness, signals
from tvarseq.harness import export_report, run_cell, run_table
from tvarseq.io import config_hash
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
        with pytest.raises(ValueError):
            run_cell(s1, gaussian, 200, 0, base_seed=1)

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
        export_report(small_report, {}, str(tmp_path), formats=("csv",))
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


class TestChunks:
    """A cell estimates its replications in chunks; the result is the per-replication pipeline's."""

    def test_cell_across_chunks_equals_replications(self, s1, gaussian):
        seed, M = 17, 250
        ctx = pl.make_context(s1, 200)
        assert harness.CHUNK_VALUES // ctx.grid.nu < M  # two chunks: 246 + 4
        cell = harness._cell(ctx, gaussian, M, seed, "s1", 0.0)
        S_grid = pl.signal_values_on_grid(s1, ctx.part)
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

    def test_one_stability_check_per_n(self, s1, gaussian, uniform_noise, monkeypatch):
        seen = []
        check = pl.validate_stability

        def spy(spec, n):
            seen.append(n)
            return check(spec, n)

        for module in (signals, pl, harness):  # every binding a cell could call
            if hasattr(module, "validate_stability"):
                monkeypatch.setattr(module, "validate_stability", spy)
        run_table(s1, [gaussian, uniform_noise], [200, 500], M=1, base_seed=1)
        assert seen == [200, 500]

    def test_estimate_on_the_spec_interval(self, gaussian):
        res = pl.estimate_signal(pl.make_context(self.SERIES, 500), gaussian, seed=3)
        z = res.context.part.z
        assert np.all((z > 1.0) & (z <= 3.0)) and z[-1] == 3.0
        assert res.context.basis.a == res.context.grid.a == 1.0

    def test_cell_on_the_spec_interval(self, gaussian):
        c = run_cell(self.SERIES, gaussian, 500, 2, base_seed=3)
        part = pl.make_context(self.SERIES, 500).part
        assert np.all((c.z > 1.0) & (c.z <= 3.0)) and c.z[-1] == 3.0
        np.testing.assert_array_equal(c.S_grid, pl.signal_values_on_grid(self.SERIES, part))


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

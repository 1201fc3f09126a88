import csv

import pytest

from slicegap.cli import main
from slicegap.config import load_config_text
from slicegap.errors import ConfigError
from slicegap.samplers import SamplerKind

MINIMAL = """
[target]
preset = twin_triangles

[sampler]
kind = so_sh
w = 3.0

[run]
n = 10
seed = 7

[oracle]
cells = 200
levels_m = 50
k_list = 1,2
k_max = 3
tv_n_max = 10
norm_bins = 128
"""


def diagnostics_exit_code(out) -> int:
    """Exit code that ``sample`` and ``diag`` owe the pass column of ``out/diagnostics.csv``."""
    rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()[1:]))
    assert rows
    return 0 if all(r["pass"] == "True" for r in rows) else 4


class TestConfigParsing:
    def test_minimal(self):
        cfg = load_config_text(MINIMAL)
        assert cfg.target.name == "twin-triangles"
        assert cfg.sampler.kind is SamplerKind.SO_SH
        assert cfg.sampler.w == 3.0
        assert cfg.n == 10 and cfg.seed == 7
        assert cfg.cells == (200,)
        assert cfg.x0 == (-1.0,)

    def test_defaults_for_2d(self):
        cfg = load_config_text("[target]\npreset = gaussian_pair\n\n[sampler]\nkind = har_so_sh\nw = 3.0\n")
        assert cfg.cells == (40, 40)
        assert cfg.levels_m == 32
        assert cfg.kstep_cells == (24, 24)

    def test_explicit_components(self):
        text = """
[target]
dim = 1
name = custom

[target.component1]
shape = triangular
mode = 0.0
height = 1.0
scale = 2.0

[sampler]
kind = simple
"""
        cfg = load_config_text(text)
        assert cfg.target.components[0].scale == 2.0

    def test_unknown_key_named(self):
        bad = MINIMAL.replace("w = 3.0", "w = 3.0\nstep_width = 2")
        with pytest.raises(ConfigError, match="sampler.step_width"):
            load_config_text(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="mystery"):
            load_config_text(MINIMAL + "\n[mystery]\nx = 1\n")

    def test_nonpositive_width_names_key(self):
        bad = MINIMAL.replace("w = 3.0", "w = -1.0")
        with pytest.raises(ConfigError, match="sampler.w"):
            load_config_text(bad)

    def test_missing_width_for_so_sh(self):
        bad = MINIMAL.replace("w = 3.0", "")
        with pytest.raises(ConfigError):
            load_config_text(bad)

    def test_preset_and_components_exclusive(self):
        text = MINIMAL + "\n[target.component1]\nshape = gaussian\nmode = 0\nheight = 1\nscale = 1\n"
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config_text(text)

    def test_bad_shape(self):
        text = """
[target.component1]
shape = square
mode = 0.0
height = 1.0
scale = 1.0

[sampler]
kind = simple
"""
        with pytest.raises(ConfigError, match="shape"):
            load_config_text(text)

    def test_zero_density_start(self):
        with pytest.raises(ConfigError, match="x0"):
            load_config_text(MINIMAL.replace("seed = 7", "seed = 7\nx0 = 9.0"))

    def test_unsupported_format(self):
        with pytest.raises(ConfigError, match="formats"):
            load_config_text(MINIMAL + "\n[output]\nformats = parquet\n")


class TestCliSample:
    def test_trace_rows_and_rerun_identical(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out1)]) == diagnostics_exit_code(out1)
        assert main(["sample", "--config", str(cfg_path), "--out", str(out2)]) == diagnostics_exit_code(out2)
        t1_bytes = (out1 / "trace.csv").read_bytes()
        assert t1_bytes == (out2 / "trace.csv").read_bytes()
        lines = t1_bytes.decode().splitlines()
        assert lines[0].startswith("# config=") and "seed=7" in lines[0]
        assert lines[1] == "step,level,x1"
        assert len(lines) == 2 + 11  # comment, header, x0 plus ten steps
        assert (out1 / "diagnostics.csv").read_text().splitlines()[1] == "metric,value,threshold,pass"

    def test_failing_diagnostics_exit_4(self, tmp_path):
        # three steps cannot reach the ESS threshold
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace("n = 10", "n = 3"))
        out = tmp_path / "s"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 4
        assert diagnostics_exit_code(out) == 4
        assert (out / "trace.csv").exists()

    def test_seed_override_changes_trace(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", str(cfg_path), "--out", str(out1)])
        main(["sample", "--config", str(cfg_path), "--out", str(out2), "--seed", "8"])
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(MINIMAL.replace("w = 3.0", "w = 0.0"))
        assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "sampler.w" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_runtime_error_exit_3(self, tmp_path, capsys):
        text = MINIMAL.replace("w = 3.0", "w = 0.01\nmax_loop = 2")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3


class TestCliGap:
    def test_reference_run_passes(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "gap"
        assert main(["gap", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "gap_report.csv").read_text().splitlines()
        assert lines[1] == "check,lhs,rhs,margin,pass"
        passing = [ln for ln in lines[2:] if ln.endswith("True")]
        assert len(passing) >= 8
        assert len(passing) == len(lines) - 2
        assert "ALL CHECKS PASS" in (out / "gap_summary.txt").read_text()

    def test_zero_tolerance_negative_control(self, tmp_path):
        text = MINIMAL + "\n[oracle]\ntol_exact = 0\ntol_tv = 0\ntol_theorem = 0\ntol_mt = 0\n".replace(
            "[oracle]\n", ""
        )
        merged = MINIMAL.replace(
            "norm_bins = 128",
            "norm_bins = 128\ntol_exact = 0\ntol_tv = 0\ntol_theorem = 0\ntol_mt = 0",
        )
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(merged)
        out = tmp_path / "gap"
        assert main(["gap", "--config", str(cfg_path), "--out", str(out)]) == 4
        lines = (out / "gap_report.csv").read_text().splitlines()
        assert any(ln.endswith("False") for ln in lines[2:])

    def test_gap_reaching_width_is_runtime_error(self, tmp_path):
        # the twin triangles' level sets split by gaps up to 1.8, so w = 1.0 leaves the class R_w
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace("w = 3.0", "w = 1.0"))
        assert main(["gap", "--config", str(cfg_path), "--out", str(tmp_path / "gap")]) == 3


class TestGapReportSharing:
    TEXT = MINIMAL.replace("levels_m = 50", "levels_m = 40").replace("k_list = 1,2", "k_list = 1,2,5").replace(
        "k_max = 3", "k_max = 5"
    )

    @staticmethod
    def _reference_checks(cfg):
        """The report composed from the verifiers, each given kernels assembled for it alone."""
        from slicegap import spectral_oracle as oracle
        from slicegap.cli import _kernel_kind
        from slicegap.spectral_oracle import Check, Grid, KernelKind

        target, kind, w, m = cfg.target, _kernel_kind(cfg), cfg.sampler.w, cfg.levels_m
        grid = Grid.for_target(target, cfg.cells, cfg.eps_cut)
        k_list = sorted(set(cfg.k_list))

        def full(kk):
            return oracle.build_full_matrix(target, grid, kk, w, m)

        def ksteps(ks):
            return oracle.build_k_step_matrices(target, grid, kind, w, ks, m)

        beta = oracle.beta_k_numeric_many(target, grid, kind, w, k_list, m, cfg.norm_bins)[0]
        top = float(oracle.density_on_grid(target, grid).max())
        levels = [(j + 0.5) * top / cfg.psd_probe_levels for j in range(cfg.psd_probe_levels)]
        min_eig = min(oracle.psd_check(oracle.build_level_matrix(target, grid, t, kind, w)) for t in levels)
        checks = [Check("psd_level_kernels", lhs=-min_eig, rhs=0.0, tol=min(1e-10, cfg.tol_exact))]
        checks += oracle.verify_sandwich(full(KernelKind.UNIFORM), full(kind), beta, tol=cfg.tol_theorem)
        gap_u, kmats = oracle.spectral_gap(full(KernelKind.UNIFORM)), ksteps(k_list)
        for k in k_list:
            gap_k = oracle.spectral_gap(kmats[k])
            checks.append(Check(f"corollary_kstep_gap_k{k}", lhs=gap_u - beta[k], rhs=gap_k, tol=cfg.tol_theorem))
        rev_tol = min(1e-8, cfg.tol_exact)
        for name, kk in (("reversibility_U", KernelKind.UNIFORM), ("reversibility_H", kind)):
            checks.append(Check(name, lhs=oracle.reversibility_check(full(kk)), rhs=0.0, tol=rev_tol))
        checks += oracle.verify_monotonicity(ksteps(range(1, cfg.k_max + 1)), cfg.k_max, tol=cfg.tol_exact)
        checks += oracle.verify_power_bound(ksteps(range(1, cfg.k_max + 1)), cfg.k_max, tol=cfg.tol_exact)
        checks.append(oracle.verify_mt_bound(target, grid, full(KernelKind.UNIFORM), tol=cfg.tol_mt))
        checks += oracle.verify_tv_bound(full(kind), n_max=cfg.tv_n_max, tol=cfg.tol_tv)
        return checks

    def test_each_kernel_assembled_and_solved_once(self, monkeypatch):
        from collections import Counter

        from slicegap import spectral_oracle as oracle
        from slicegap.cli import _gap_report

        cfg = load_config_text(self.TEXT)
        reference = self._reference_checks(cfg)
        assembled, solved, kernels = Counter(), Counter(), []
        build, similarity = oracle._build_power_matrix, oracle._centered_similarity

        def counting_build(target, grid, kind, w, k_list, m):
            for k in set(k_list):
                assembled[(grid.bounds, grid.shape, kind, m, k)] += 1
            return build(target, grid, kind, w, k_list, m)

        def counting_similarity(K):
            kernels.append(K)  # keeps every kernel alive, so ids stay unique
            solved[id(K)] += 1
            return similarity(K)

        monkeypatch.setattr(oracle, "_build_power_matrix", counting_build)
        monkeypatch.setattr(oracle, "_centered_similarity", counting_similarity)
        report = _gap_report(cfg)
        assert len(assembled) == 1 + 5  # U and the k-step kernels 1..5, k=1 being H
        assert set(assembled.values()) == {1}
        assert set(solved.values()) == {1}
        assert [(c.name, c.passed) for c in report.checks] == [(c.name, c.passed) for c in reference]
        for got, ref in zip(report.checks, reference):
            assert got.lhs == pytest.approx(ref.lhs, abs=1e-12)
            assert got.rhs == pytest.approx(ref.rhs, abs=1e-12)


class TestCliVerify:
    def test_suite_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "verify_report.csv").read_text()
        assert "so_sh_norm_identity" in report

    def test_gamma_sign_flip_fails_norm_identity(self, monkeypatch):
        # negative control: corrupting the mixture weight must break the
        # operator-norm identity check
        from slicegap import kernels, suite
        from slicegap.spectral_oracle import Grid
        from slicegap.targets import twin_triangles

        true_gamma = kernels.gamma_t
        monkeypatch.setattr(kernels, "gamma_t", lambda ls, w: 1.0 - true_gamma(ls, w))
        t1 = twin_triangles()
        grid = Grid.for_target(t1, 300)
        res = suite._norm_identity_results(t1, grid, 3.0, [0.3, 0.5], tol=1e-6)
        assert not res.passed


class TestCliDiag:
    def test_diag_from_existing_trace(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace("n = 10", "n = 2000"))
        out = tmp_path / "s"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == diagnostics_exit_code(out)
        out2 = tmp_path / "d"
        code = main(
            ["diag", "--config", str(cfg_path), "--out", str(out2), "--trace", str(out / "trace.csv")]
        )
        assert code == diagnostics_exit_code(out2)

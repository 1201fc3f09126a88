import csv
import re
from pathlib import Path

import numpy as np
import pytest

from slicegap.cli import _read_trace, main
from slicegap.config import _SCHEMA, load_config_text
from slicegap.errors import ConfigError, SliceGapError, TraceFormatError
from slicegap.samplers import SamplerKind

ROOT = Path(__file__).resolve().parents[1]

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

#: MINIMAL on the 2D reference target, valid but for the axis kind
SO_SH_2D = MINIMAL.replace("twin_triangles", "gaussian_pair").replace("cells = 200", "cells = 12,12")


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

    def test_so_sh_needs_a_one_dimensional_target(self):
        with pytest.raises(ConfigError, match="use har_so_sh on a 2D target"):
            load_config_text(SO_SH_2D)

    @pytest.mark.parametrize("command", ["sample", "gap"])
    def test_so_sh_on_a_2d_target_exits_2(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SO_SH_2D)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "use har_so_sh" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_preset_and_components_exclusive(self):
        text = MINIMAL + "\n[target.component1]\nshape = gaussian\nmode = 0\nheight = 1\nscale = 1\n"
        with pytest.raises(ConfigError, match="mutually exclusive"):
            load_config_text(text)

    @pytest.mark.parametrize("shape", ["square", "flat"])
    def test_bad_shape(self, shape):
        # flat components are fixtures of the uniform_* factories: the config accepts the smooth shapes only
        text = f"""
[target.component1]
shape = {shape}
mode = 0.0
height = 1.0
scale = 1.0

[sampler]
kind = simple
"""
        with pytest.raises(ConfigError, match=r"component1\.shape.*\(options: \['triangular', 'gaussian'\]\)$"):
            load_config_text(text)

    def test_zero_density_start(self):
        with pytest.raises(ConfigError, match="x0"):
            load_config_text(MINIMAL.replace("seed = 7", "seed = 7\nx0 = 9.0"))

    def test_unsupported_format(self):
        with pytest.raises(ConfigError, match="formats"):
            load_config_text(MINIMAL + "\n[output]\nformats = parquet\n")

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("kind = so_sh", "kind = k_step\ninner_kind = so_sh", "sampler.kind"),
            ("w = 3.0", "w = 3.0\ninner_kind = so_sh", "unknown key sampler.inner_kind"),
            ("preset = twin_triangles", "preset = twin_triangles\ndim = 1", "unknown key target.dim"),
            ("norm_bins = 128", "norm_bins = 128\n[output]\nformats = csv", "unknown key output.formats"),
        ],
        ids=["k_step", "inner_kind", "dim", "formats"],
    )
    def test_removed_settings_exit_2(self, tmp_path, capsys, old, new, message):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace(old, new))
        assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("norm_bins = 128", "norm_bins = 128\nkstep_cells = 200,200", "kstep_cells"),
            ("cells = 200", "cells = 0", "cells"),
            ("norm_bins = 128", "norm_bins = 128\nkstep_cells = 0", "kstep_cells"),
            ("levels_m = 50", "levels_m = 0", "levels_m"),
            ("norm_bins = 128", "norm_bins = 128\nkstep_m = 0", "kstep_m"),
            ("k_list = 1,2", "k_list = 1,0", "k_list"),
            ("norm_bins = 128", "norm_bins = 0", "norm_bins"),
            ("norm_bins = 128", "norm_bins = 128\neps_cut = 0", "eps_cut"),
            ("norm_bins = 128", "norm_bins = 128\neps_cut = 1.0", "eps_cut"),
            ("k_max = 3", "k_max = 0", "k_max"),
            ("tv_n_max = 10", "tv_n_max = -1", "tv_n_max"),
        ],
        ids=[
            "kstep_cells_count",
            "cells_zero",
            "kstep_cells_zero",
            "levels_m_zero",
            "kstep_m_zero",
            "k_list_zero",
            "norm_bins_zero",
            "eps_cut_zero",
            "eps_cut_at_max_density",
            "k_max_zero",
            "tv_n_max_negative",
        ],
    )
    def test_invalid_oracle_value_exits_2(self, tmp_path, capsys, old, new, key):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace(old, new))
        assert main(["gap", "--config", str(cfg_path), "--out", str(tmp_path / "gap")]) == 2
        assert f"oracle.{key}" in capsys.readouterr().err
        assert not (tmp_path / "gap").exists()

    def test_readme_block_documents_every_key(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("```ini\n")[1].split("```")[0]
        cfg = load_config_text(block)
        assert cfg.sampler.kind is SamplerKind.SO_SH and cfg.directory == "out"
        documented, section = set(), None
        for line in block.splitlines():
            header = re.match(r"#?\s*\[([\w.]+)\]", line)
            key = re.match(r"#?\s*(\w+)\s*=", line)
            if header:
                section = header.group(1)
            elif key:
                documented.add((section, key.group(1)))
        assert documented == {(s, k) for s, keys in _SCHEMA.items() for k in keys}


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

    def test_zero_tolerance_negative_control(self, tmp_path, monkeypatch):
        from slicegap import spectral_oracle as oracle

        for name in ("TOL_EXACT", "TOL_TV", "TOL_THEOREM", "TOL_MT"):
            monkeypatch.setattr(oracle, name, 0.0)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "gap"
        assert main(["gap", "--config", str(cfg_path), "--out", str(out)]) == 4
        lines = (out / "gap_report.csv").read_text().splitlines()
        assert any(ln.endswith("False") for ln in lines[2:])

    def test_report_covers_sampler_k_inner(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace("w = 3.0", "w = 3.0\nk_inner = 3"))
        out = tmp_path / "gap"
        assert main(["gap", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = {r["check"]: r for r in csv.DictReader((out / "gap_report.csv").read_text().splitlines()[1:])}
        for k in (1, 2, 3):
            assert rows[f"sandwich_lower_k{k}"]["pass"] == rows[f"corollary_kstep_gap_k{k}"]["pass"] == "True"
        assert "sandwich_lower_k5" not in rows

    def test_gap_reaching_width_is_runtime_error(self, tmp_path):
        # the twin triangles' level sets split by gaps up to 1.8, so w = 1.0 leaves the class R_w
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL.replace("w = 3.0", "w = 1.0"))
        assert main(["gap", "--config", str(cfg_path), "--out", str(tmp_path / "gap")]) == 3


    @pytest.mark.parametrize(
        "config, rows, vacuous",
        [
            ("configs/t1_so_sh.cfg", 84, []),
            ("bench/gap2d.cfg", 70, [f"{row}_k{k}" for row in ("sandwich_lower", "corollary_kstep_gap") for k in (1, 2)]),
        ],
        ids=["t1", "gap2d"],
    )
    def test_summary_flags_vacuous_lower_bounds(self, tmp_path, config, rows, vacuous):
        out = tmp_path / "gap"
        assert main(["gap", "--config", str(ROOT / config), "--out", str(out)]) == 0
        # bench/run.py expects these row counts (GAP_ROWS)
        assert len((out / "gap_report.csv").read_text().splitlines()) == 2 + rows
        summary = (out / "gap_summary.txt").read_text().splitlines()
        assert [ln.split("] ")[1].split(":")[0] for ln in summary if ln.endswith(" (vacuous)")] == vacuous
        assert summary[-1] == f"result: ALL CHECKS PASS; {len(vacuous)} vacuous lower bounds"


class TestGapReportSharing:
    TEXT = MINIMAL.replace("levels_m = 50", "levels_m = 40").replace("k_list = 1,2", "k_list = 1,2,5").replace(
        "k_max = 3", "k_max = 5"
    )
    # 2D, with the k-step set on the main grid: its kernels come from the joint strip power pass
    TEXT_2D = (
        TEXT.replace("twin_triangles", "gaussian_pair")
        .replace("so_sh", "har_so_sh")
        .replace("cells = 200", "cells = 10,10\nkstep_cells = 10,10\nkstep_m = 8")
        .replace("levels_m = 40", "levels_m = 8")
    )

    @staticmethod
    def _reference_checks(cfg):
        """The report composed from the verifiers, each given kernels assembled for it alone."""
        from slicegap import spectral_oracle as oracle
        from slicegap.cli import _KIND_MAP
        from slicegap.spectral_oracle import Check, Grid, KernelKind

        target, kind, w, m = cfg.target, _KIND_MAP[cfg.sampler.kind], cfg.sampler.w, cfg.levels_m
        grid = Grid.for_target(target, cfg.cells, cfg.eps_cut)
        k_list = sorted(set(cfg.k_list))

        def full(kk):
            return oracle.build_full_matrix(target, grid, kk, w, m)

        def ksteps(ks):
            return oracle.build_k_step_matrices(target, grid, kind, w, ks, m)

        beta = oracle.beta_k_numeric_many(target, grid, kind, w, k_list, m, cfg.norm_bins)
        checks = [Check("psd_H", lhs=-full(kind).positivity(), rhs=0.0, tol=min(1e-10, oracle.TOL_EXACT))]
        gap_u, kmats = oracle.spectral_gap(full(KernelKind.UNIFORM)), ksteps(k_list)
        checks += oracle.verify_sandwich(gap_u, oracle.spectral_gap(full(kind)), beta, tol=oracle.TOL_THEOREM)
        for k in k_list:
            gap_k = oracle.spectral_gap(kmats[k])
            checks.append(Check(f"corollary_kstep_gap_k{k}", lhs=gap_u - beta[k], rhs=gap_k, tol=oracle.TOL_THEOREM))
        rev_tol = min(1e-8, oracle.TOL_EXACT)
        for name, kk in (("reversibility_U", KernelKind.UNIFORM), ("reversibility_H", kind)):
            checks.append(Check(name, lhs=oracle.reversibility_residual(full(kk)), rhs=0.0, tol=rev_tol))
        norms = {k: oracle.op_norm_centered(K) for k, K in ksteps(range(1, cfg.k_max + 1)).items()}
        checks += oracle.verify_monotonicity(norms, cfg.k_max, tol=oracle.TOL_EXACT)
        checks += oracle.verify_power_bound(norms, cfg.k_max, tol=oracle.TOL_EXACT)
        checks.append(oracle.verify_mt_bound(target, grid, gap_u, tol=oracle.TOL_MT))
        checks += oracle.verify_tv_bound(full(kind), n_max=cfg.tv_n_max, tol=oracle.TOL_TV)
        return checks

    @pytest.mark.parametrize("dim", ["1d", "2d"])
    def test_two_runs_in_one_process_give_the_same_bytes(self, tmp_path, dim):
        # the cached plans and the walk's views are shared by the beta profile, the level probes and the
        # kernels: no run may leave state that changes the next (``verify`` is run twice at one seed by
        # TestCliVerify::test_config_only_supplies_the_seed)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.TEXT if dim == "1d" else self.TEXT_2D)
        outputs = []
        for run in ("a", "b"):
            assert main(["gap", "--config", str(cfg_path), "--out", str(tmp_path / run)]) == 0
            outputs.append([(tmp_path / run / name).read_bytes() for name in ("gap_report.csv", "gap_summary.txt")])
        assert outputs[0] == outputs[1]

    def test_each_kernel_assembled_and_solved_once(self):
        from collections import Counter

        from slicegap import spectral_oracle as oracle
        from slicegap.cli import _KIND_MAP, _gap_report

        power_kernels, similarity = oracle._power_kernels, oracle._similarity
        for text in (self.TEXT, self.TEXT_2D):
            cfg = load_config_text(text)
            reference = self._reference_checks(cfg)
            calls, assembled, solved, kernels = [], Counter(), Counter(), []

            def counting_kernels(target, grid, kind, w, k_list, m):
                calls.append(kind)
                for k in set(k_list):
                    assembled[(grid.bounds, grid.shape, kind, m, k)] += 1
                return power_kernels(target, grid, kind, w, k_list, m)

            def counting_similarity(K):
                kernels.append(K)  # keeps every kernel alive, so ids stay unique
                solved[id(K)] += 1
                return similarity(K)

            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(oracle, "_power_kernels", counting_kernels)
                monkeypatch.setattr(oracle, "_similarity", counting_similarity)
                report = _gap_report(cfg)
            # U, then the k-step set 1..5 in one pass, k=1 being H
            assert calls == [oracle.KernelKind.UNIFORM, _KIND_MAP[cfg.sampler.kind]]
            assert len(assembled) == 1 + 5
            assert set(assembled.values()) == {1}
            assert set(solved.values()) == {1}
            assert [(c.name, c.passed) for c in report.checks] == [(c.name, c.passed) for c in reference]
            for got, ref in zip(report.checks, reference):
                assert got.lhs == pytest.approx(ref.lhs, abs=1e-12)
                assert got.rhs == pytest.approx(ref.rhs, abs=1e-12)

    def test_above_800_cells_every_norm_is_arpack_on_a_product(self):
        from collections import Counter

        from slicegap import spectral_oracle as oracle
        from slicegap.cli import _gap_report

        # above 800 cells every norm, H's included, comes from ARPACK on a level plan's product, psd_H from
        # H's weight certificate and the reversibility and TV rows from products: no kernel has its P assembled
        cfg = load_config_text(self.TEXT.replace("cells = 200", "cells = 900").replace("levels_m = 40", "levels_m = 20"))
        arpack, similarity, spectrum = oracle.eigsh, oracle._similarity, oracle.spectrum
        arpack_calls, built, dense, made = [], Counter(), [], []

        class RecordedKernel(oracle._PlanKernel):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)  # keeps every kernel alive, so ids stay unique

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(oracle, "_PlanKernel", RecordedKernel)
            monkeypatch.setattr(oracle, "eigsh", lambda *a, **kw: arpack_calls.append(a[0].shape) or arpack(*a, **kw))
            monkeypatch.setattr(oracle, "_similarity", lambda K: built.update([K.label]) or similarity(K))
            monkeypatch.setattr(oracle, "spectrum", lambda K: dense.append(K.label) or spectrum(K))
            report = _gap_report(cfg)
        assert report.all_passed
        # U and the k-step set 1..5, k=1 being H, each made once and each solved once by ARPACK
        assert sorted(K.label for K in made) == ["so_sh-k1-m20", *(f"so_sh-k{k}-m20" for k in range(2, 6)), "uniform-k1-m20"]
        assert min(K.n for K in made) > 800
        assert [K.label for K in made if "P" in vars(K)] == []
        assert built == Counter()
        assert dense == []
        assert len(arpack_calls) == 6

    def test_t1_report_makes_no_square_array(self, tmp_path):
        # the gap-1d benchmark workload, with the dense gather of a plan kernel and the similarity that
        # a dense solve builds both made to raise; numpy's buffers stay below one 2000 x 2000 array
        import tracemalloc

        from slicegap import spectral_oracle as oracle

        def forbidden(*args, **kwargs):
            raise AssertionError("an n x n array was made")

        out = tmp_path / "gap"
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(oracle._LevelPlan, "kernel", forbidden)
            monkeypatch.setattr(oracle, "_similarity", forbidden)
            tracemalloc.start()
            try:
                assert main(["gap", "--config", str(ROOT / "configs/t1_so_sh.cfg"), "--out", str(out)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len((out / "gap_report.csv").read_text().splitlines()) == 2 + 84
        assert peak < 2000**2 * 8


class TestCliVerify:
    def test_suite_passes(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "verify_report.csv").read_text()
        assert "so_sh_norm_identity" in report
        # bench/run.py expects this row count (VERIFY_ROWS)
        assert len(report.splitlines()) == 2 + 19

    def test_config_only_supplies_the_seed(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        alone, with_config = tmp_path / "alone", tmp_path / "config"
        assert main(["verify", "--seed", "11", "--out", str(alone)]) == 0
        assert main(["verify", "--config", str(cfg_path), "--seed", "11", "--out", str(with_config)]) == 0
        report = (alone / "verify_report.csv").read_bytes()
        assert report.startswith(b"# seed=11\n")
        assert report == (with_config / "verify_report.csv").read_bytes()

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
        identity, _ = suite.level_probes_1d(t1, grid, 3.0, [0.3, 0.5])
        assert not identity.passed

    def test_shifted_beta_fails_closed_vs_numeric(self, monkeypatch):
        from slicegap import kernels, suite
        from slicegap.spectral_oracle import Grid
        from slicegap.targets import twin_triangles

        t1 = twin_triangles()
        grid = Grid.for_target(t1, 1600)
        assert all(c.passed for c in suite.beta_closed_vs_numeric(t1, grid, 3.0, [1, 5], m=300, norm_bins=1536))
        true_beta = kernels.beta_k_so_sh_closed_form
        monkeypatch.setattr(kernels, "beta_k_so_sh_closed_form", lambda target, w, k: true_beta(target, w, k) + 1e-2)
        closeness, *_ = suite.beta_closed_vs_numeric(t1, grid, 3.0, [1, 5], m=300, norm_bins=1536)
        assert not closeness.passed

    def test_non_psd_level_kernels_fail(self, monkeypatch):
        # averaging each level kernel with the order-reversing permutation keeps it symmetric and stochastic
        from slicegap import spectral_oracle as oracle, suite
        from slicegap.targets import gaussian_pair, twin_triangles

        walk = oracle.level_kernels

        def reversed_half(*args):
            for K in walk(*args):
                yield oracle.DiscreteKernel(P=0.5 * (K.P + np.eye(K.n)[::-1]), pi=K.pi, label=K.label)

        t1, t2 = twin_triangles(), gaussian_pair()
        g1, g2 = oracle.Grid.for_target(t1, 200), oracle.Grid.for_target(t2, (12, 12))
        assert suite.level_probes_1d(t1, g1, 3.0, [0.3, 0.6])[1].passed
        assert suite.strip_level_probes(t2, g2, 3.0, [0.2, 0.6])[0].passed
        monkeypatch.setattr(oracle, "level_kernels", reversed_half)
        assert not suite.level_probes_1d(t1, g1, 3.0, [0.3, 0.6])[1].passed
        assert not suite.strip_level_probes(t2, g2, 3.0, [0.2, 0.6])[0].passed

    def test_level_probes_walk_once_per_kind_and_solve_each_kernel_once(self, monkeypatch):
        from slicegap import spectral_oracle as oracle, suite
        from slicegap.targets import gaussian_pair, twin_triangles

        walks, solves = [], []
        walk, eigvalsh = oracle._StripPlan.level_matrices, np.linalg.eigvalsh

        def counting_walk(plan, w, nodes):
            walks.append(nodes)
            return walk(plan, w, nodes)

        def counting_eigvalsh(a, *args, **kwargs):
            solves.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(oracle._StripPlan, "level_matrices", counting_walk)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        t1, t2 = twin_triangles(), gaussian_pair()
        g2 = oracle.Grid.for_target(t2, (16, 16))
        assert all(c.passed for c in suite.strip_level_probes(t2, g2, 3.0, [(j + 0.5) / 6 for j in range(6)]))
        # one walk per kind over the six levels, one solve per level kernel
        assert len(walks) == 2
        assert len(solves) == 12
        solves.clear()
        assert all(c.passed for c in suite.level_probes_1d(t1, oracle.Grid.for_target(t1, 300), 3.0, [0.2, 0.5, 0.9]))
        assert len(solves) == 3

    def test_suite_takes_its_kernel_rows_from_theorem_bounds(self, monkeypatch):
        from collections import Counter

        from slicegap import spectral_oracle as oracle, suite

        calls, inside = Counter(), []
        bounds = oracle.verify_theorem_bounds

        def counting_bounds(*args, **kwargs):
            calls["verify_theorem_bounds"] += 1
            inside.append(True)
            try:
                return bounds(*args, **kwargs)
            finally:
                inside.pop()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                if not inside:  # the builders that verify_theorem_bounds calls are its own
                    calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(oracle, "verify_theorem_bounds", counting_bounds)
        for name in ("build_full_matrix", "build_k_step_matrices"):
            monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
        rows = suite.run_verification_suite()
        assert calls == Counter(verify_theorem_bounds=1)
        assert [c.name for c in rows[2:8]] == [
            "full_kernel_reversibility",
            "gap_sandwich",
            "kstep_monotonicity",
            "kstep_power_bound",
            "doeblin_gap_bound",
            "tv_decay_bound",
        ]

    def test_biased_level_move_fails_law(self, monkeypatch):
        # a move that never leaves the part of the level set it starts in
        from slicegap import samplers, suite
        from slicegap.slice_geometry import level_set_1d
        from slicegap.targets import twin_triangles

        t1 = twin_triangles()
        (check,) = suite.level_move_law(t1, 0.5, -1.0, 3.0, bins=12, n=5000, rng=np.random.default_rng(3))
        assert check.passed
        left = level_set_1d(t1, 0.5).parts.intervals[0]
        monkeypatch.setattr(samplers, "level_move", lambda target, config, t, x, rng: (rng.uniform(left.lo, left.hi, 1), 1.0))
        (check,) = suite.level_move_law(t1, 0.5, -1.0, 3.0, bins=12, n=5000, rng=np.random.default_rng(3))
        assert not check.passed

    def test_squared_p_values_fail_calibration(self, monkeypatch):
        import dataclasses

        from slicegap import diagnostics, suite

        assert suite.chi2_null_calibration(30, n=5000, replicates=200, rng=np.random.default_rng(4))[0].passed
        test = diagnostics.chi_square_invariance

        def squared(cells, pi):
            res = test(cells, pi)
            return dataclasses.replace(res, p_value=res.p_value**2)

        monkeypatch.setattr(diagnostics, "chi_square_invariance", squared)
        assert not suite.chi2_null_calibration(30, n=5000, replicates=200, rng=np.random.default_rng(4))[0].passed

    def test_ar1_series_fails_ess_iid(self):
        from scipy.signal import lfilter

        from slicegap import suite

        noise = np.random.default_rng(5).standard_normal(20_000)
        assert suite.ess_iid(noise)[0].passed
        # x_i = 0.5 x_(i-1) + e_i has an integrated autocorrelation time of 3
        assert not suite.ess_iid(lfilter([1.0], [1.0, -0.5], noise))[0].passed


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

    def test_trace_of_wrong_width_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("step,level,x1\r\n0,0,0.5\r\n1,0.3,0.4\r\n")
        cfg = str(ROOT / "configs" / "t2_har_so_sh.cfg")
        assert main(["diag", "--config", cfg, "--out", str(tmp_path / "d"), "--trace", str(trace)]) == 3
        err = capsys.readouterr().err
        assert "shape (2, 1)" in err and "expected (n, 2)" in err

    def test_trace_without_rows_exits_3(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("# header only\nstep,level,x1\r\n")
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MINIMAL)
        assert main(["diag", "--config", str(cfg_path), "--out", str(tmp_path / "d"), "--trace", str(trace)]) == 3
        err = capsys.readouterr().err
        assert "shape (0,)" in err and "expected (n, 1)" in err

    def test_bad_trace_raises_a_package_error(self, tmp_path):
        cfg = load_config_text(MINIMAL)
        for name, text in (("wide", "step,level,x1,x2\r\n0,0,0.5,0\r\n"), ("ragged", "step,level,x1\r\n0,0\r\n1,0,0.4,1\r\n")):
            (tmp_path / name).write_text(text)
            with pytest.raises(TraceFormatError):
                _read_trace(cfg, str(tmp_path / name))
        assert issubclass(TraceFormatError, SliceGapError)

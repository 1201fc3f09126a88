"""Command-line entry point.

Subcommands: ``sample`` runs a chain and writes trace plus diagnostics,
``gap`` runs the full discretized-operator verification and writes a gap
report, ``verify`` runs the theory criteria at desk scale, and ``diag``
computes diagnostics for a fresh or existing trace.

Exit codes: 0 success, 2 configuration error, 3 runtime error, 4 a theory
check or, for ``sample`` and ``diag``, a diagnostics row failed.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import diagnostics, spectral_oracle as oracle, suite
from .config import ExperimentConfig, load_config
from .errors import ConfigError, SliceGapError, TraceFormatError
from .samplers import _BLOCK, SamplerKind, Trace, read_trace_csv, run_chain
from .spectral_oracle import GapReport, Grid, KernelKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK_FAILED = 4

_KIND_MAP = {
    SamplerKind.SIMPLE: KernelKind.UNIFORM,
    SamplerKind.SO_SH: KernelKind.SO_SH,
    SamplerKind.HAR: KernelKind.HIT_AND_RUN,
    SamplerKind.HAR_SO_SH: KernelKind.COMBINED,
}


def _write_atomic(path: Path, write_body) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        write_body(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _header(cfg: ExperimentConfig) -> str:
    return f"config={cfg.config_hash[:16]} seed={cfg.seed}"


def _write_check_csv(path: Path, rows: list[tuple], header: list[str], comment: str) -> None:
    def body(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write(f"# {comment}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    _write_atomic(path, body)


def _diagnostic_rows(cfg: ExperimentConfig, trace: Trace) -> list[tuple]:
    states = trace.states[cfg.burn_in :]
    series = states[:, 0]
    rows: list[tuple] = []
    try:
        a = diagnostics.acf_ess(series)
        ess, iact, acf1 = a.ess, a.iact, float(a.acf[1])
    except SliceGapError:
        ess, iact, acf1 = float("nan"), float("nan"), float("nan")
    rows.append(("ess", f"{ess:.17g}", ">=10", ess >= 10))
    rows.append(("integrated_autocorr_time", f"{iact:.17g}", "", True))
    rows.append(("acf_lag1", f"{acf1:.17g}", "", True))
    shape = tuple(min(c, 50) for c in cfg.cells)
    grid = Grid.for_target(cfg.target, shape, cfg.eps_cut)
    pi = oracle.discretize_target(cfg.target, grid)
    counts = np.zeros(grid.n)
    for start in range(0, states.shape[0], _BLOCK):  # a block of states at a time: no trace-long index is made
        counts += np.bincount(grid.locate(states[start : start + _BLOCK]), minlength=grid.n)
    tv = diagnostics.tv_on_grid(diagnostics.BinnedHistogram(counts=counts, n=states.shape[0]), pi)
    n_eff = max(ess if np.isfinite(ess) else 1.0, 1.0)
    noise = 0.5 * float(np.sum(np.sqrt(pi * (1.0 - pi) / n_eff)))
    threshold = 3.0 * noise + 1e-3
    rows.append(("tv_to_stationary", f"{tv:.17g}", f"<={threshold:.6g}", tv <= threshold))
    return rows


def _write_diagnostics(cfg: ExperimentConfig, trace: Trace, out_dir: Path) -> int:
    """Write diagnostics.csv; the exit code fails when any of its rows fails."""
    rows = _diagnostic_rows(cfg, trace)
    _write_check_csv(out_dir / "diagnostics.csv", rows, ["metric", "value", "threshold", "pass"], _header(cfg))
    return EXIT_OK if all(r[3] for r in rows) else EXIT_CHECK_FAILED


def cmd_sample(cfg: ExperimentConfig, out_dir: Path) -> int:
    trace = run_chain(cfg.target, cfg.sampler, np.asarray(cfg.x0), cfg.n, cfg.seed)
    _write_atomic(out_dir / "trace.csv", lambda tmp: trace.to_csv(tmp, comment=_header(cfg)))
    code = _write_diagnostics(cfg, trace, out_dir)
    print(f"wrote {out_dir / 'trace.csv'} and {out_dir / 'diagnostics.csv'}")
    return code


def _read_trace(cfg: ExperimentConfig, path: str) -> Trace:
    """A trace file as a ``Trace`` of the config, with one state column per target axis and rows past burn-in."""
    try:
        states, levels = read_trace_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    d = cfg.target.dim
    if states.ndim != 2 or states.shape[1] != d or states.shape[0] <= cfg.burn_in:
        raise TraceFormatError(
            f"trace {path} holds states of shape {states.shape}; expected (n, {d}) with n > burn_in = {cfg.burn_in}"
        )
    return Trace(states=states, levels=levels, seed=cfg.seed, config=cfg.sampler)


def cmd_diag(cfg: ExperimentConfig, out_dir: Path, trace_path: str | None) -> int:
    if trace_path:
        trace = _read_trace(cfg, trace_path)
    else:
        trace = run_chain(cfg.target, cfg.sampler, np.asarray(cfg.x0), cfg.n, cfg.seed)
    code = _write_diagnostics(cfg, trace, out_dir)
    print(f"wrote {out_dir / 'diagnostics.csv'}")
    return code


def _gap_report(cfg: ExperimentConfig) -> GapReport:
    """The gap report of the sampler's kind, over ``k_list`` and the sampler's own ``k_inner``."""
    grid = Grid.for_target(cfg.target, cfg.cells, cfg.eps_cut)
    same_cells = tuple(cfg.kstep_cells) == tuple(cfg.cells)
    return oracle.verify_theorem_bounds(
        cfg.target,
        grid,
        _KIND_MAP[cfg.sampler.kind],
        cfg.sampler.w,
        (*cfg.k_list, cfg.sampler.k_inner),
        cfg.levels_m,
        k_max=cfg.k_max,
        tv_n_max=cfg.tv_n_max,
        norm_bins=cfg.norm_bins,
        kstep_grid=grid if same_cells else Grid.for_target(cfg.target, cfg.kstep_cells, cfg.eps_cut),
        kstep_m=cfg.kstep_m,
    )


def cmd_gap(cfg: ExperimentConfig, out_dir: Path) -> int:
    report = _gap_report(cfg)
    rows = [(c.name, f"{c.lhs:.17g}", f"{c.rhs:.17g}", f"{c.margin:.17g}", c.passed) for c in report.checks]
    _write_check_csv(out_dir / "gap_report.csv", rows, ["check", "lhs", "rhs", "margin", "pass"], _header(cfg))

    def body(tmp):
        with open(tmp, "w") as fh:
            fh.write(f"# {_header(cfg)}\n")
            fh.write(report.summary() + "\n")

    _write_atomic(out_dir / "gap_summary.txt", body)
    print(report.summary())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_verify(out_dir: Path, seed: int) -> int:
    checks = suite.run_verification_suite(seed=seed)
    print(suite.format_suite_table(checks))
    rows = [(c.name, f"{c.lhs:.17g}", f"{c.rhs:.17g}", c.passed) for c in checks]
    _write_check_csv(out_dir / "verify_report.csv", rows, ["check", "lhs", "rhs", "pass"], f"seed={seed}")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slicegap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("sample", True), ("gap", True), ("verify", False), ("diag", True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="path to the experiment config file")
        p.add_argument("--out", default=None, help="output directory (defaults to the config's output.directory)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        if name == "diag":
            p.add_argument("--trace", default=None, help="existing trace CSV to analyse instead of sampling")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config is not None else None
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = args.seed if args.seed is not None else suite.VERIFY_SEED if cfg is None else cfg.seed
    out_dir = Path(args.out or (cfg.directory if cfg is not None else "."))
    try:
        if args.command == "verify":
            return cmd_verify(out_dir, seed)
        cfg.seed = seed  # every other command requires --config
        if args.command == "sample":
            return cmd_sample(cfg, out_dir)
        if args.command == "gap":
            return cmd_gap(cfg, out_dir)
        return cmd_diag(cfg, out_dir, args.trace)
    except SliceGapError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

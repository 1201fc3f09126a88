"""Correctness checks on the outputs of slicegap commands, and their negative controls.

Every check returns ``Op`` records; a failed check is counted, never
raised.  Each check is a plain function of parsed outputs, so a negative
control runs the same function on a corrupted copy and must see it fail.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

#: relative slack between the package's density and the reference density (rounding only)
DENSITY_RTOL = 1e-12
#: false-alarm rate of the binned TV allowance for chains
TV_FALSE_ALARM = 1e-4
#: largest allowed |beta_k(report) - beta_k(reference)|
BETA_TOL = 2e-3
#: corruptions applied by the negative controls
BETA_SHIFT = 1e-2
HISTOGRAM_SHIFT = 0.5
#: TV bins per axis for the chain histograms, and Riemann points per bin and axis for their masses
CHAIN_BINS = {1: (40, 400), 2: (12, 40)}


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))[1:]


def read_trace(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """States (n+1, d) and levels (n+1,) of a ``step,level,x1,...`` trace file."""
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return data[:, 2:], data[:, 1]


def _data_lines(path: Path, count: int) -> list[str]:
    """The first ``count`` data rows of a trace file, as written."""
    with open(path) as fh:
        return list(itertools.islice((line for line in fh if not line.startswith("#")), 1, count + 1))


def trace_prefix_op(label: str, full: Path, short: Path, steps: int) -> Op:
    """The short trace's rows 0..steps must equal the full trace's first rows byte for byte."""
    if not full.exists() or not short.exists():
        return Op(f"{label}.trace_reproducible", False, "trace missing")
    same = _data_lines(full, steps + 1) == _data_lines(short, steps + 1)
    return Op(f"{label}.trace_reproducible", same, f"first {steps} steps sampled again in another process")


# -- chains -----------------------------------------------------------------------


def slice_violations(target: ref.Target, states: np.ndarray, levels: np.ndarray) -> int:
    """Rows i >= 1 breaking 0 < level_i <= rho(x_{i-1}) or rho(x_i) >= level_i."""
    rho = target.density(states)
    lev = levels[1:]
    ok = (lev > 0.0) & (lev <= rho[:-1] * (1.0 + DENSITY_RTOL)) & (rho[1:] >= lev * (1.0 - DENSITY_RTOL))
    return int((~ok).sum())


def chain_ess(states: np.ndarray, burn_in: int) -> float:
    """Smallest per-coordinate ESS after burn-in."""
    return min(ref.ess(states[burn_in:, j]) for j in range(states.shape[1]))


def binned_tv(target: ref.Target, states: np.ndarray, n_eff: float) -> tuple[float, float]:
    """Binned TV of the states to the reference bin masses, and its allowance at ``n_eff`` draws."""
    bins, sub = CHAIN_BINS[target.dim]
    edges = ref.bin_edges(target, bins)
    masses = ref.bin_masses(target, edges, sub)
    counts = np.bincount(ref.bin_index(states, edges), minlength=masses.size)
    return ref.tv(counts / counts.sum(), masses), ref.tv_allowance(masses, n_eff, TV_FALSE_ALARM)


def chain_ops(label: str, target: ref.Target, trace: Path, diagnostics: Path, n: int, burn_in: int) -> tuple[list[Op], float]:
    """Checks on one ``sample`` run, with the chain's ESS for the throughput metrics."""
    if not trace.exists() or not diagnostics.exists():
        return [Op(f"{label}.outputs", False, "trace.csv or diagnostics.csv missing")], 0.0
    states, levels = read_trace(trace)
    ops = [Op(f"{label}.trace_rows", states.shape[0] == n + 1, f"{states.shape[0]} rows for n={n}")]
    bad = slice_violations(target, states, levels)
    ops.append(Op(f"{label}.rows_on_slice", bad == 0, f"{bad} rows off their slice"))
    n_eff = chain_ess(states, burn_in)
    tv, allow = binned_tv(target, states[burn_in:], n_eff)
    ops.append(Op(f"{label}.binned_tv", tv <= allow, f"tv={tv:.4f} allowance={allow:.4f} ess={n_eff:.0f}"))
    for row in _rows(diagnostics):
        ops.append(Op(f"{label}.diagnostics.{row[0]}", row[3] == "True", f"value={row[1]} threshold={row[2]}"))

    # negative controls: the same checks on corrupted copies must fail
    moved = states.copy()
    moved[len(moved) // 2] = 20.0
    ops.append(Op(f"{label}.control.row_off_slice", slice_violations(target, moved, levels) > 0))
    shifted = states[burn_in:].copy()
    shifted[:, 0] += HISTOGRAM_SHIFT
    tv_s, allow_s = binned_tv(target, shifted, n_eff)
    ops.append(Op(f"{label}.control.shifted_histogram", tv_s > allow_s, f"tv={tv_s:.4f} allowance={allow_s:.4f}"))
    return ops, n_eff


# -- report rows (verify and gap) ----------------------------------------------------


def row_ops(prefix: str, rows: list[tuple[str, bool, str]]) -> list[Op]:
    """One operation per report row, passing when the row's own ``pass`` column is True."""
    return [Op(f"{prefix}.{name}", ok, detail) for name, ok, detail in rows]


def flipped_report(report: Path, pass_column: int) -> Path:
    """A copy of ``report`` with the pass cell of its first passing row changed from True to False."""
    lines = report.read_text().splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    for i in data:
        cells = next(csv.reader([lines[i]]))
        if cells[pass_column] == "True":
            cells[pass_column] = "False"
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(cells)
            lines[i] = buf.getvalue()
            break
    copy = report.with_name(report.stem + ".flipped.csv")
    copy.write_text("".join(lines))
    return copy


def read_verify(report: Path) -> list[tuple[str, bool, str]]:
    return [(r[0], r[3] == "True", "") for r in _rows(report)]


def verify_ops(report: Path, expected_rows: int) -> list[Op]:
    if not report.exists():
        return [Op("verify.outputs", False, "verify_report.csv missing")]
    rows = read_verify(report)
    ops = [Op("verify.row_count", len(rows) == expected_rows, f"{len(rows)} rows, expected {expected_rows}")]
    # negative control: the same reading of a copy with one pass cell flipped must see one more failure
    flipped = read_verify(flipped_report(report, 3))
    return ops + row_ops("verify", rows) + [
        Op("verify.control.flipped_row", sum(not ok for _, ok, _ in flipped) > sum(not ok for _, ok, _ in rows))
    ]


# -- gap ------------------------------------------------------------------------------


@dataclass(frozen=True)
class GapOutputs:
    rows: list[tuple[str, float, float, bool]]
    beta: dict[int, float]

    def row(self, name: str) -> tuple[str, float, float, bool]:
        return next(r for r in self.rows if r[0] == name)


def read_gap(report: Path, summary: Path) -> GapOutputs:
    rows = [(r[0], float(r[1]), float(r[2]), r[4] == "True") for r in _rows(report)]
    beta = {int(k): float(v) for k, v in re.findall(r"^beta_(\d+) = (\S+)$", summary.read_text(), re.M)}
    return GapOutputs(rows, beta)


def beta_misses(beta: dict[int, float], ks) -> list[int]:
    return [k for k in ks if k not in beta or abs(beta[k] - ref.twin_beta(k)) > BETA_TOL]


def gap_ops(
    out: Path, target: ref.Target, expected_rows: int, tol_theorem: float, kernel: dict, beta_ks=()
) -> list[Op]:
    """Checks on one ``gap`` run; ``kernel`` holds the assembled-kernel figures of the capture child."""
    report, summary = out / "gap_report.csv", out / "gap_summary.txt"
    if not report.exists() or not summary.exists():
        return [Op("gap.outputs", False, "gap_report.csv or gap_summary.txt missing")]
    g = read_gap(report, summary)
    ops = [Op("gap.row_count", len(g.rows) == expected_rows, f"{len(g.rows)} rows, expected {expected_rows}")]
    rows = [(name, ok, f"lhs={lhs:.6g} rhs={rhs:.6g}") for name, lhs, rhs, ok in g.rows]
    ops += row_ops("gap.report", rows)
    _, gap_h, gap_u, _ = g.row("sandwich_upper_gapH_le_gapU")
    for k in beta_ks:
        miss = beta_misses(g.beta, [k])
        ops.append(Op(f"gap.beta_{k}_vs_reference", not miss, f"report={g.beta.get(k)} reference={ref.twin_beta(k):.6f}"))
    bound = ref.doeblin_bound(target)
    ops.append(Op("gap.doeblin_le_gapU", bound <= gap_u, f"bound={bound:.6f} gap_U={gap_u:.6f}"))
    ops.append(Op("gap.sandwich_upper", 0.0 < gap_h <= gap_u + tol_theorem, f"gap_H={gap_h:.6f} gap_U={gap_u:.6f}"))
    ops.append(Op("gap.stationary_law_tv", kernel["tv_pi"] <= tol_theorem, f"tv={kernel['tv_pi']:.3e}"))
    ops.append(
        Op("gap.assembled_kernel_positivity", kernel["min_eig"] >= -tol_theorem, f"min eigenvalue={kernel['min_eig']:.4g}")
    )

    # negative controls
    if beta_ks:
        shifted = {k: v + BETA_SHIFT for k, v in g.beta.items()}
        ops.append(Op("gap.control.beta_shifted", bool(beta_misses(shifted, beta_ks))))
    flipped = read_gap(flipped_report(report, 4), summary).rows
    ops.append(Op("gap.control.flipped_row", sum(not r[3] for r in flipped) > sum(not r[3] for r in g.rows)))
    return ops

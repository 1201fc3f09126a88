#!/usr/bin/env python3
"""Benchmark for slicegap: chain throughput, time to a verified gap report, per-layer costs.

Run from the repository root:

    python3 bench/run.py --workload chains --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --repeat 10      # median, quartiles, spread

Each run repeats whole rounds of its workload until ``--seconds`` have
passed (at least one round).  A round runs the workload's ``slicegap``
commands, each in a fresh child process as a user would, then checks
every output against reference computations (``reference.py``, which
never imports slicegap) and runs negative controls on corrupted copies.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` an untraced, a traced and another
untraced round run, and the per-layer metrics of the traced round are
reported with the tracing overhead.
Outputs and results go under ``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import reference as ref

CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("chains", "verify", "gap-1d", "gap-2d")
T1_CONFIG, T2_CONFIG = "configs/t1_so_sh.cfg", "configs/t2_har_so_sh.cfg"
GAP2D_CONFIG = "bench/gap2d.cfg"
#: the verify suite always runs at its default seed; see README.md
VERIFY_SEED = 20_240_817
VERIFY_ROWS = 19
GAP_ROWS = {"gap-1d": 84, "gap-2d": 70}
BETA_KS = (1, 2, 5, 10, 20)
#: steps re-sampled in another process to check that traces are reproducible
SHORT_CHAIN_STEPS = 2000
SETUP_PROBES = 5
#: every child must end by this many seconds after the run started
RUN_DEADLINE_S = 170.0
#: (workload, operation) pairs that fail at the parent commit because of a known fault
KNOWN_FAULTS = {("gap-2d", "gap.assembled_kernel_positivity")}

PER_LAYER = (
    ("targets.density_calls", "count"),
    ("targets.points_per_call", "count"),
    ("targets.self_s", "s"),
    ("samplers.steps", "count"),
    ("samplers.step_us_p50", "us"),
    ("samplers.step_us_p99", "us"),
    ("samplers.density_calls_per_step", "count"),
    ("samplers.stepping_out_evals_per_step", "count"),
    ("samplers.shrinkage_proposals_per_step", "count"),
    ("samplers.ess_per_1k_density_calls", "count"),
    ("samplers.self_s", "s"),
    ("chain_steps_per_s", "steps/s"),
    ("ess_per_s", "1/s"),
    ("slice_geometry.calls", "count"),
    ("slice_geometry.self_s", "s"),
    ("kernels.calls", "count"),
    ("kernels.self_s", "s"),
    ("spectral_oracle.assembly_s", "s"),
    ("spectral_oracle.matrices_assembled", "count"),
    ("spectral_oracle.assembled_mib", "MiB"),
    ("spectral_oracle.level_matrix_s", "s"),
    ("spectral_oracle.level_matrices", "count"),
    ("spectral_oracle.spectra_s", "s"),
    ("spectral_oracle.spectral_solves", "count"),
    ("spectral_oracle.arpack_calls", "count"),
    ("spectral_oracle.arpack_no_convergence", "count"),
    ("spectral_oracle.beta_profile_s", "s"),
    ("spectral_oracle.beta_bins", "count"),
    ("spectral_oracle.tv_s", "s"),
    ("diagnostics.calls", "count"),
    ("diagnostics.self_s", "s"),
    ("cli.write_s", "s"),
    ("cli.output_mib", "MiB"),
    ("config.load_s", "s"),
    ("suite.checks", "count"),
    ("suite.self_s", "s"),
    ("tracing.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, crashed or hung child)."""


def read_config(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(path)
    return {
        "preset": parser.get("target", "preset"),
        "n": parser.getint("run", "n"),
        "burn_in": parser.getint("run", "burn_in", fallback=0),
        "tol_theorem": parser.getfloat("oracle", "tol_theorem", fallback=5e-3),
    }


class Runner:
    """Spawns child processes with a deadline and measures their wall time and peak memory."""

    def __init__(self, root: Path, work: Path, blas_threads: int):
        self.root, self.work = root, work
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), OMP_NUM_THREADS=str(blas_threads))
        self.n_spawned = 0

    def spawn(self, spec: dict) -> tuple[float, float, dict]:
        """Run one child; returns (wall seconds from spawn to exit, its peak RSS in MiB, its report)."""
        self.n_spawned += 1
        stem = self.work / f"child{self.n_spawned:03d}"
        spec = dict(spec, src=str(self.root / "src"), report=str(stem) + ".json")
        spec_path = Path(str(stem) + ".spec.json")
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed before all children ran")
        with open(str(stem) + ".log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path)], stdout=log, stderr=subprocess.STDOUT, cwd=self.root, env=self.env
            )
            try:
                proc.wait(timeout=timeout)
            except BaseException as exc:
                proc.kill()
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise BenchError(f"child {spec['mode']} still running at the run deadline") from exc
                raise
            wall = time.monotonic() - t0
        report = Path(spec["report"])
        if proc.returncode != 0 or not report.exists():
            tail = Path(str(stem) + ".log").read_text(errors="replace")[-2000:]
            raise BenchError(f"child {spec['mode']} exited with {proc.returncode}:\n{tail}")
        out = json.loads(report.read_text())
        return wall, out["peak_rss_mib"], out


# -- workloads ------------------------------------------------------------------------


def setup_configs(workload: str) -> list[str]:
    return {"chains": [T1_CONFIG, T2_CONFIG], "verify": [], "gap-1d": [T1_CONFIG], "gap-2d": [GAP2D_CONFIG]}[workload]


def commands(workload: str, seed: int, out: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of the workload's ``slicegap`` commands, in order."""
    if workload == "chains":
        return [
            (label, ["sample", "--config", cfg, "--out", str(out / label), "--seed", str(seed)])
            for label, cfg in (("t1", T1_CONFIG), ("t2", T2_CONFIG))
        ]
    if workload == "verify":
        return [("verify", ["verify", "--out", str(out / "verify"), "--seed", str(VERIFY_SEED)])]
    return [("gap", ["gap", "--config", gap_config(workload), "--out", str(out / "gap"), "--seed", str(seed)])]


def gap_config(workload: str) -> str:
    return T1_CONFIG if workload == "gap-1d" else GAP2D_CONFIG


def short_chain_ops(runner: Runner, seed: int, out: Path) -> list[checks.Op]:
    """Sample the first steps of both chains again in another process; the rows must match byte for byte.

    A chain of n steps draws the same random numbers as the first n steps of
    a longer chain with the same seed and start, so its trace is a prefix of
    the timed round's trace.
    """
    argvs = []
    for label, cfg in (("t1", T1_CONFIG), ("t2", T2_CONFIG)):
        text = re.sub(r"(?m)^n = .*$", f"n = {SHORT_CHAIN_STEPS}", (runner.root / cfg).read_text())
        short = out / f"short_{label}.cfg"
        short.write_text(re.sub(r"(?m)^burn_in = .*$", "burn_in = 100", text))
        argvs.append(["sample", "--config", str(short), "--out", str(out / f"short_{label}"), "--seed", str(seed)])
    runner.spawn({"mode": "run", "argvs": argvs, "trace": False})
    return [
        checks.trace_prefix_op(label, out / label / "trace.csv", out / f"short_{label}" / "trace.csv", SHORT_CHAIN_STEPS)
        for label in ("t1", "t2")
    ]


def check_round(workload: str, runner: Runner, seed: int, out: Path, rcs: dict, kernel: dict | None) -> tuple[list[checks.Op], dict]:
    """All checks of one round; also returns chain facts (steps, summed ESS) for the throughput figures."""
    ops = [checks.Op(f"{label}.exit_code", rc == 0, f"exit {rc}") for label, rc in rcs.items()]
    facts = {"chain_steps": 0, "ess": 0.0}
    if workload == "chains":
        for label, cfg in (("t1", T1_CONFIG), ("t2", T2_CONFIG)):
            c = read_config(runner.root / cfg)
            d = out / label
            chain, n_eff = checks.chain_ops(
                label, ref.TARGETS[c["preset"]], d / "trace.csv", d / "diagnostics.csv", c["n"], c["burn_in"]
            )
            ops += chain
            facts["chain_steps"] += c["n"]
            facts["ess"] += n_eff
        ops += short_chain_ops(runner, seed, out)
    elif workload == "verify":
        ops += checks.verify_ops(out / "verify" / "verify_report.csv", VERIFY_ROWS)
    else:
        c = read_config(runner.root / gap_config(workload))
        ops += checks.gap_ops(
            out / "gap",
            ref.TARGETS[c["preset"]],
            GAP_ROWS[workload],
            c["tol_theorem"],
            kernel,
            BETA_KS if workload == "gap-1d" else (),
        )
    return ops, facts


def run_round(workload: str, runner: Runner, seed: int, trace: bool, index: int) -> dict:
    """Run the workload's commands once, then check their outputs."""
    out = runner.work / f"round{index}"
    kernel = None
    if workload.startswith("gap"):
        # the kernel check does not read the round's outputs; run before the commands, its
        # multi-threaded BLAS work wakes both cores, which otherwise slows the first
        # multi-threaded command after idle by about 20%
        cfg = gap_config(workload)
        _, _, kernel = runner.spawn({"mode": "kernel", "config": cfg, "target": read_config(runner.root / cfg)["preset"]})
    walls, rss, rcs, reports, steps = [], [], {}, [], []
    for label, argv in commands(workload, seed, out):
        wall, peak, report = runner.spawn({"mode": "run", "argvs": [argv], "trace": trace})
        walls.append(wall)
        rss.append(peak)
        rcs[label] = report["rc"][0]
        if trace:
            reports.append(report["trace"][0])
            steps.append(np.load(report["steps"][0]))
    ops, facts = check_round(workload, runner, seed, out, rcs, kernel)
    return {
        "wall_s": sum(walls),
        "command_wall_s": walls,
        "peak_rss_mib": max(rss),
        "ops": ops,
        "facts": facts,
        "traces": reports,
        "step_us": np.concatenate(steps) if steps else np.empty(0),
    }


# -- metrics --------------------------------------------------------------------------


def merge_traces(reports: list[dict]) -> dict:
    merged = {"functions": {}, "stage_s": {}, "stage_calls": {}, "counts": {}, "density_by_caller": {}, "spans": []}
    for rep in reports:
        for key, (calls, incl, self_s) in rep["functions"].items():
            acc = merged["functions"].setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for part in ("stage_s", "stage_calls", "counts", "density_by_caller"):
            for key, value in rep[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        base = len(merged["spans"])
        merged["spans"].extend([name, t0, t1, parent + base if parent >= 0 else -1] for name, t0, t1, parent in rep["spans"])
    return merged


def layer_metrics(traced: dict, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced round; throughput and overhead use the untraced rounds' mean wall time."""
    t = merge_traces(traced["traces"])
    fn, counts, stage_s, stage_calls = t["functions"], t["counts"], t["stage_s"], t["stage_calls"]
    by_caller = t["density_by_caller"]

    def layer(name: str, column: int) -> float:
        return sum(v[column] for k, v in fn.items() if k.split(".")[0] == name)

    steps = counts["steps"]
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    step_us = traced["step_us"]
    shrink_calls = fn.get("samplers.shrinkage", [0])[0]
    density_calls = counts["density_calls"]
    chain_steps, ess_total = traced["facts"]["chain_steps"], traced["facts"]["ess"]
    values = {
        "targets.density_calls": density_calls,
        "targets.points_per_call": counts["density_points"] / density_calls if density_calls else 0.0,
        "targets.self_s": layer("targets", 2),
        "samplers.steps": steps,
        "samplers.step_us_p50": float(np.percentile(step_us, 50)) if step_us.size else 0.0,
        "samplers.step_us_p99": float(np.percentile(step_us, 99)) if step_us.size else 0.0,
        "samplers.density_calls_per_step": per_step(counts["density_in_steps"]),
        "samplers.stepping_out_evals_per_step": per_step(by_caller.get("samplers.stepping_out", 0)),
        "samplers.shrinkage_proposals_per_step": per_step(by_caller.get("samplers.shrinkage", 0) - shrink_calls),
        "samplers.ess_per_1k_density_calls": (
            1000.0 * ess_total / counts["density_in_steps"] if chain_steps and counts["density_in_steps"] else 0.0
        ),
        "samplers.self_s": layer("samplers", 2),
        "chain_steps_per_s": chain_steps / untraced_wall,
        "ess_per_s": ess_total / untraced_wall,
        "slice_geometry.calls": layer("slice_geometry", 0),
        "slice_geometry.self_s": layer("slice_geometry", 2),
        "kernels.calls": layer("kernels", 0),
        "kernels.self_s": layer("kernels", 2),
        "spectral_oracle.assembly_s": stage_s.get("assembly", 0.0),
        "spectral_oracle.matrices_assembled": counts["matrices_assembled"],
        "spectral_oracle.assembled_mib": counts["assembled_bytes"] / 2**20,
        "spectral_oracle.level_matrix_s": stage_s.get("level_matrix", 0.0),
        "spectral_oracle.level_matrices": fn.get("spectral_oracle.build_level_matrix", [0])[0],
        "spectral_oracle.spectra_s": stage_s.get("spectra", 0.0),
        "spectral_oracle.spectral_solves": stage_calls.get("spectra", 0),
        "spectral_oracle.arpack_calls": counts["arpack_calls"],
        "spectral_oracle.arpack_no_convergence": counts["arpack_no_convergence"],
        "spectral_oracle.beta_profile_s": stage_s.get("beta_profile", 0.0),
        "spectral_oracle.beta_bins": counts["beta_bins"],
        "spectral_oracle.tv_s": stage_s.get("tv", 0.0),
        "diagnostics.calls": layer("diagnostics", 0),
        "diagnostics.self_s": layer("diagnostics", 2),
        "cli.write_s": stage_s.get("write", 0.0),
        "cli.output_mib": counts["output_bytes"] / 2**20,
        "config.load_s": stage_s.get("config_load", 0.0),
        "suite.checks": counts["suite_checks"],
        "suite.self_s": layer("suite", 2),
        "tracing.overhead_s": traced["wall_s"] - untraced_wall,
    }
    return {name: float(values[name]) for name, _ in PER_LAYER}


def machine_facts(root: Path, workload: str, seed: int, blas_threads: int) -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "verify_suite_seed": VERIFY_SEED,
    }


def machine_gauge_s() -> float:
    """Seconds for a fixed pure-Python loop in this process.

    Not a metric of slicegap: it records how fast the machine ran at the
    time, so that a slow phase of a shared machine can be told apart from a
    slower program when runs are compared.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(5_000_000):
        total += i & 7
    return time.perf_counter() - t0


def blas_thread_count() -> int:
    nproc = os.cpu_count() or 1
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        requested = nproc
    return max(1, min(requested, nproc))


def run_once(args, root: Path) -> dict:
    for needed in ("src/slicegap/cli.py", T1_CONFIG, T2_CONFIG, GAP2D_CONFIG):
        if not (root / needed).is_file():
            raise BenchError(f"{needed} not found under {root}; run from the repository root")
    threads = blas_thread_count()
    facts = machine_facts(root, args.workload, args.seed, threads)
    results = root / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = root / ".bench_out" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, threads)
    gauges = [machine_gauge_s()]
    try:
        # set-up probes run in both modes, so the first timed command never starts cold
        setups = []
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            _, _, report = runner.spawn({"mode": "setup", "configs": setup_configs(args.workload)})
            setups.append(report["ready"] - t0)
        if args.trace:
            # untraced rounds on both sides of the traced one: a later round in a run tends to be faster
            rounds = [run_round(args.workload, runner, args.seed, trace, i) for i, trace in enumerate((False, True, False))]
            values = layer_metrics(rounds[1], (rounds[0]["wall_s"] + rounds[2]["wall_s"]) / 2)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
            spans = merge_traces(rounds[1]["traces"])["spans"]
            (results / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans))
        else:
            rounds, start = [], time.monotonic()
            while not rounds or time.monotonic() - start < args.seconds:
                rounds.append(run_round(args.workload, runner, args.seed, False, len(rounds)))
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
                "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in rounds), "unit": "MiB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gauges.append(machine_gauge_s())
    facts["machine_gauge_s"] = gauges
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if not op.ok]
    for op in failed:
        known = (args.workload, op.name) in KNOWN_FAULTS
        print(f"FAILED{' (known fault)' if known else ''}: {op.name} {op.detail}")
    for i, r in enumerate(rounds):
        line = f"round {i}: wall {r['wall_s']:.3f} s ({', '.join(f'{w:.3f}' for w in r['command_wall_s'])})"
        if r["facts"]["chain_steps"]:
            f = r["facts"]
            line += f", {f['chain_steps'] / r['wall_s']:.1f} steps/s, ess {f['ess']:.0f} ({f['ess'] / r['wall_s']:.1f}/s)"
        print(line)
    result = {
        "correct": all(op.ok or (args.workload, op.name) in KNOWN_FAULTS for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    detail = dict(result, facts=facts, rounds=len(rounds), ops=[op.__dict__ for op in ops])
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print("facts: " + json.dumps(facts))
    return result


def repeat(args, root: Path) -> None:
    """Run each workload ``--repeat`` times on consecutive seeds and print median, quartiles and spread."""
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        runs = []
        for i in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed + i)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                raise BenchError(f"{workload} seed {args.seed + i} failed:\n{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            facts = json.loads(next(line for line in lines if line.startswith("facts: "))[len("facts: ") :])
            runs[-1]["metrics"]["machine_gauge_s"] = {"value": statistics.mean(facts["machine_gauge_s"])}
        print(f"{workload}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        print(f"  correct: {sum(r['correct'] for r in runs)}/{len(runs)}  failed/attempted: {', '.join(shares)}")
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {name:42s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.3%}")
        out = root / ".bench_out" / "results" / f"repeat-{workload}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N times on consecutive seeds and summarise")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.repeat:
            repeat(args, root)
            return 0
        if args.workload == "all":
            parser.error("--workload all needs --repeat")
        result = run_once(args, root)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

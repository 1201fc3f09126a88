"""One child process of the benchmark, described by a JSON spec file.

    python3 bench/child.py SPEC.json

Modes:

- ``setup``: import the package, parse the workload's configs and build
  their targets and oracle grids, then record the monotonic clock (the
  parent subtracts its spawn time).
- ``run``: run the ``slicegap`` command line in this process, with the
  tracer installed when ``trace`` is set.
- ``kernel``: assemble the config's hybrid kernel H once more and compare
  it against the reference computations (positivity and stationary law).

The result goes to the spec's ``report`` path as JSON, with the process's
peak resident memory (``VmHWM``) read just before exit.  The address space
made at exec starts a fresh high-water mark, so this is the program's own
peak; the parent's ``wait4`` rusage would also carry the RSS of the process
that spawned it.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

#: sampler kind of a config -> oracle kernel kind of its hybrid chain (the CLI keeps its own map private)
KERNEL_OF_SAMPLER = {"simple": "uniform", "so_sh": "so_sh", "har": "hit_and_run", "har_so_sh": "combined"}


def setup(spec: dict) -> dict:
    import slicegap.cli  # noqa: F401  (the import is part of set-up)
    import slicegap.suite  # noqa: F401
    from slicegap.config import load_config
    from slicegap.spectral_oracle import Grid
    from slicegap.targets import gaussian_pair, twin_triangles

    for path in spec["configs"]:
        cfg = load_config(path)
        Grid.for_target(cfg.target, cfg.cells, cfg.eps_cut)
    if not spec["configs"]:
        twin_triangles()
        gaussian_pair()
    return {"ready": time.monotonic()}


def run(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import slicegap.cli as cli

    out = {"rc": [cli.main(argv) for argv in spec["argvs"]]}
    if tracer is not None:
        import numpy as np

        steps = spec["report"] + ".steps.npy"
        np.save(steps, np.frombuffer(tracer.step_us, dtype=float))
        out["trace"], out["steps"] = [tracer.summary()], [steps]
    return out


def kernel(spec: dict) -> dict:
    import reference as ref
    from slicegap.config import load_config
    from slicegap.spectral_oracle import Grid, KernelKind, build_full_matrix

    cfg = load_config(spec["config"])
    grid = Grid.for_target(cfg.target, cfg.cells, cfg.eps_cut)
    kind = KernelKind(KERNEL_OF_SAMPLER[cfg.sampler.kind.value])
    H = build_full_matrix(cfg.target, grid, kind, cfg.sampler.w, cfg.levels_m)
    target = ref.TARGETS[spec["target"]]
    pi_ref = ref.discretized_target(target, cfg.cells)
    support = H.support if H.support is not None else slice(None)
    pi_ref = pi_ref[support] / pi_ref[support].sum()
    return {"n": H.n, "min_eig": ref.min_similarity_eigenvalue(H.P, H.pi), "tv_pi": ref.tv(H.pi, pi_ref)}


def peak_rss_mib() -> float:
    """``VmHWM`` of this process, in MiB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    out = {"setup": setup, "run": run, "kernel": kernel}[spec["mode"]](spec)
    out["peak_rss_mib"] = peak_rss_mib()
    Path(spec["report"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

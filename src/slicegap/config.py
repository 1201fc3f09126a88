"""Experiment configuration: flat sectioned key=value files.

The grammar is deliberately minimal: ``[section]`` headers, one ``key =
value`` per line, ``#`` comments.  Lists are comma-separated.  Unknown
sections or keys are rejected, and every value is validated before any
computation starts.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .errors import ConfigError
from .samplers import SamplerConfig, SamplerKind
from .targets import (
    QuasiConcaveComponent,
    Shape,
    TargetDensity,
    eval_density,
    gaussian_pair,
    twin_triangles,
)

PRESETS = {
    "twin_triangles": twin_triangles,
    "gaussian_pair": gaussian_pair,
}


def _parse_float(text: str) -> float:
    return float(text)


def _parse_int(text: str) -> int:
    return int(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_str(text: str) -> str:
    return text.strip()


# section -> key -> parser
_SCHEMA = {
    "target": {"preset": _parse_str, "dim": _parse_int, "name": _parse_str},
    "target.component1": {"shape": _parse_str, "mode": _parse_floats, "height": _parse_float, "scale": _parse_float},
    "target.component2": {"shape": _parse_str, "mode": _parse_floats, "height": _parse_float, "scale": _parse_float},
    "sampler": {
        "kind": _parse_str,
        "w": _parse_float,
        "k_inner": _parse_int,
        "inner_kind": _parse_str,
        "max_loop": _parse_int,
    },
    "run": {"n": _parse_int, "seed": _parse_int, "burn_in": _parse_int, "x0": _parse_floats},
    "oracle": {
        "cells": _parse_ints,
        "levels_m": _parse_int,
        "k_list": _parse_ints,
        "k_max": _parse_int,
        "tv_n_max": _parse_int,
        "norm_bins": _parse_int,
        "eps_cut": _parse_float,
        "psd_probe_levels": _parse_int,
        "kstep_cells": _parse_ints,
        "kstep_m": _parse_int,
        "tol_exact": _parse_float,
        "tol_theorem": _parse_float,
        "tol_mt": _parse_float,
        "tol_tv": _parse_float,
    },
    "output": {"directory": _parse_str, "formats": _parse_str},
}


@dataclass
class ExperimentConfig:
    """Validated experiment description plus a hash of the raw file."""

    target: TargetDensity
    sampler: SamplerConfig
    n: int = 1000
    seed: int = 1
    burn_in: int = 0
    x0: tuple[float, ...] | None = None
    cells: tuple[int, ...] | None = None
    levels_m: int | None = None
    k_list: tuple[int, ...] = (1, 2, 5, 10, 20)
    k_max: int = 10
    tv_n_max: int = 50
    norm_bins: int | None = None
    eps_cut: float = 1e-4
    psd_probe_levels: int = 8
    kstep_cells: tuple[int, ...] | None = None
    kstep_m: int | None = None
    tol_exact: float = 1e-6
    tol_theorem: float = 5e-3
    tol_mt: float = 1e-3
    tol_tv: float = 1e-8
    out_dir: str = "."
    formats: str = "csv"
    config_hash: str = field(default="", repr=False)

    def __post_init__(self):
        d = self.target.dim
        if self.cells is None:
            self.cells = (2000,) if d == 1 else (40,) * d
        if len(self.cells) != d:
            raise ConfigError(f"oracle.cells needs {d} entries, got {len(self.cells)}")
        if self.levels_m is None:
            self.levels_m = 400 if d == 1 else 32
        if self.norm_bins is None:
            self.norm_bins = 1024 if d == 1 else 512
        if self.kstep_cells is None:
            self.kstep_cells = self.cells if d == 1 else (24,) * d
        if self.kstep_m is None:
            self.kstep_m = self.levels_m if d == 1 else 8
        if self.x0 is None:
            self.x0 = self.target.components[0].mode
        if len(self.x0) != d:
            raise ConfigError(f"run.x0 needs {d} coordinates, got {len(self.x0)}")
        if self.n < 0 or self.burn_in < 0 or self.burn_in > self.n:
            raise ConfigError("run.n and run.burn_in must satisfy 0 <= burn_in <= n")
        if eval_density(self.target, self.x0) <= 0.0:
            raise ConfigError("run.x0 has zero target density")
        if self.formats != "csv":
            raise ConfigError(f"output.formats supports only 'csv', got {self.formats!r}")


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"), inline_comment_prefixes=("#",), strict=True
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def _parse_values(sections: dict[str, dict[str, str]]) -> dict[str, dict[str, object]]:
    values: dict[str, dict[str, object]] = {}
    for section, entries in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            try:
                values[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {section}.{key}: {raw!r}") from exc
    return values


def _build_target(values: dict) -> TargetDensity:
    tgt = values.get("target", {})
    comp_sections = [s for s in ("target.component1", "target.component2") if s in values]
    if "preset" in tgt:
        if comp_sections:
            raise ConfigError("target.preset and explicit components are mutually exclusive")
        preset = tgt["preset"]
        if preset not in PRESETS:
            raise ConfigError(f"unknown target.preset {preset!r}; options: {sorted(PRESETS)}")
        return PRESETS[preset]()
    if not comp_sections:
        raise ConfigError("no target given: set target.preset or [target.component1]")
    comps = []
    for section in comp_sections:
        entry = values[section]
        for required in ("shape", "mode", "height", "scale"):
            if required not in entry:
                raise ConfigError(f"missing key {section}.{required}")
        try:
            shape = Shape(entry["shape"])
        except ValueError:
            raise ConfigError(f"{section}.shape must be one of {[s.value for s in Shape]}") from None
        if entry["height"] <= 0:
            raise ConfigError(f"{section}.height must be positive")
        if entry["scale"] <= 0:
            raise ConfigError(f"{section}.scale must be positive")
        comps.append(QuasiConcaveComponent(shape, tuple(entry["mode"]), entry["height"], entry["scale"]))
    dim = tgt.get("dim", comps[0].dim)
    if any(c.dim != dim for c in comps):
        raise ConfigError("component modes disagree with target.dim")
    name = tgt.get("name", "custom")
    try:
        return TargetDensity(dim=dim, components=tuple(comps), name=name)
    except Exception as exc:
        raise ConfigError(f"invalid target: {exc}") from exc


def _build_sampler(values: dict) -> SamplerConfig:
    spl = values.get("sampler", {})
    kind_text = spl.get("kind", "simple")
    try:
        kind = SamplerKind(kind_text)
    except ValueError:
        raise ConfigError(f"sampler.kind must be one of {[k.value for k in SamplerKind]}") from None
    w = spl.get("w")
    if w is not None and w <= 0:
        raise ConfigError("sampler.w must be positive")
    inner = spl.get("inner_kind")
    if inner is not None:
        try:
            inner = SamplerKind(inner)
        except ValueError:
            raise ConfigError(f"sampler.inner_kind must be one of {[k.value for k in SamplerKind]}") from None
    try:
        return SamplerConfig(
            kind=kind,
            w=w,
            k_inner=spl.get("k_inner", 1),
            inner_kind=inner,
            max_loop=spl.get("max_loop", 10_000),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid sampler block: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return load_config_text(raw.decode("utf-8"))


def load_config_text(text: str) -> ExperimentConfig:
    values = _parse_values(_read_sections(text))
    target = _build_target(values)
    sampler = _build_sampler(values)
    run = values.get("run", {})
    oracle = values.get("oracle", {})
    output = values.get("output", {})
    try:
        return ExperimentConfig(
            target=target,
            sampler=sampler,
            n=run.get("n", 1000),
            seed=run.get("seed", 1),
            burn_in=run.get("burn_in", 0),
            x0=run.get("x0"),
            cells=oracle.get("cells"),
            levels_m=oracle.get("levels_m"),
            k_list=oracle.get("k_list", (1, 2, 5, 10, 20)),
            k_max=oracle.get("k_max", 10),
            tv_n_max=oracle.get("tv_n_max", 50),
            norm_bins=oracle.get("norm_bins"),
            eps_cut=oracle.get("eps_cut", 1e-4),
            psd_probe_levels=oracle.get("psd_probe_levels", 8),
            kstep_cells=oracle.get("kstep_cells"),
            kstep_m=oracle.get("kstep_m"),
            tol_exact=oracle.get("tol_exact", 1e-6),
            tol_theorem=oracle.get("tol_theorem", 5e-3),
            tol_mt=oracle.get("tol_mt", 1e-3),
            tol_tv=oracle.get("tol_tv", 1e-8),
            out_dir=output.get("directory", "."),
            formats=output.get("formats", "csv"),
            config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

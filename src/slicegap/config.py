"""Experiment configuration: flat sectioned key=value files.

The grammar is deliberately minimal: ``[section]`` headers, one ``key =
value`` per line, ``#`` comments.  Lists are comma-separated.  Unknown
sections or keys are rejected, and every value is validated before any
computation starts.  The keys of ``[sampler]`` are ``SamplerConfig``
fields and those of ``[run]``, ``[oracle]`` and ``[output]`` are
``ExperimentConfig`` fields; a key left out takes its field's default.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from enum import EnumMeta

from . import spectral_oracle as oracle
from .errors import ConfigError, SliceGapError
from .samplers import SamplerConfig, SamplerKind
from .targets import QuasiConcaveComponent, Shape, TargetDensity, eval_density, gaussian_pair, twin_triangles

PRESETS = {
    "twin_triangles": twin_triangles,
    "gaussian_pair": gaussian_pair,
}


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _parse_shape(text: str) -> Shape:
    """The smooth shapes only; flat components are test fixtures of the ``uniform_*`` factories."""
    if text not in ("triangular", "gaussian"):
        raise ValueError("options: ['triangular', 'gaussian']")
    return Shape(text)


# in the order of QuasiConcaveComponent's fields
_COMPONENT = {"shape": _parse_shape, "mode": _parse_floats, "height": float, "scale": float}

# section -> key -> parser
_SCHEMA = {
    "target": {"preset": str, "name": str},
    "target.component1": _COMPONENT,
    "target.component2": _COMPONENT,
    "sampler": {"kind": SamplerKind, "w": _parse_positive, "k_inner": int, "max_loop": int},
    "run": {"n": int, "seed": int, "burn_in": int, "x0": _parse_floats},
    "oracle": {
        "cells": _parse_ints,
        "levels_m": int,
        "k_list": _parse_ints,
        "k_max": int,
        "tv_n_max": int,
        "norm_bins": int,
        "eps_cut": float,
        "kstep_cells": _parse_ints,
        "kstep_m": int,
    },
    "output": {"directory": str},
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
    tv_n_max: int = oracle.TV_N_MAX
    norm_bins: int | None = None
    eps_cut: float = oracle.EPS_CUT
    kstep_cells: tuple[int, ...] | None = None
    kstep_m: int | None = None
    directory: str = "."
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
        if len(self.kstep_cells) != d:
            raise ConfigError(f"oracle.kstep_cells needs {d} entries, got {len(self.kstep_cells)}")
        for key in ("cells", "kstep_cells", "k_list"):
            if any(v < 1 for v in getattr(self, key)):
                raise ConfigError(f"oracle.{key} entries must be at least 1, got {getattr(self, key)}")
        for key in ("levels_m", "kstep_m", "k_max", "tv_n_max", "norm_bins"):
            if getattr(self, key) < 1:
                raise ConfigError(f"oracle.{key} must be at least 1, got {getattr(self, key)}")
        if not 0.0 < self.eps_cut < self.target.sup_norm:
            raise ConfigError(f"oracle.eps_cut must lie in (0, {self.target.sup_norm:g}), the target's density range")
        if self.x0 is None:
            self.x0 = self.target.components[0].mode
        if len(self.x0) != d:
            raise ConfigError(f"run.x0 needs {d} coordinates, got {len(self.x0)}")
        if self.n < 0 or self.burn_in < 0 or self.burn_in > self.n:
            raise ConfigError("run.n and run.burn_in must satisfy 0 <= burn_in <= n")
        if eval_density(self.target, self.x0) <= 0.0:
            raise ConfigError("run.x0 has zero target density")


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
            parse = _SCHEMA[section][key]
            try:
                values[section][key] = parse(raw)
            except ValueError as exc:
                hint = f"options: {[v.value for v in parse]}" if isinstance(parse, EnumMeta) else exc
                raise ConfigError(f"invalid value for {section}.{key}: {raw!r} ({hint})") from exc
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
    for section in comp_sections:
        for required in _COMPONENT:
            if required not in values[section]:
                raise ConfigError(f"missing key {section}.{required}")
    try:
        comps = tuple(QuasiConcaveComponent(*(values[s][key] for key in _COMPONENT)) for s in comp_sections)
        return TargetDensity(dim=comps[0].dim, components=comps, name=tgt.get("name", "custom"))
    except (ValueError, SliceGapError) as exc:
        raise ConfigError(f"invalid target: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return load_config_text(raw.decode("utf-8"))


def load_config_text(text: str) -> ExperimentConfig:
    values = _parse_values(_read_sections(text))
    target = _build_target(values)
    try:
        sampler = SamplerConfig(**values.get("sampler", {}))
    except ValueError as exc:
        raise ConfigError(f"invalid sampler block: {exc}") from exc
    settings = {key: value for section in ("run", "oracle", "output") for key, value in values.get(section, {}).items()}
    try:
        return ExperimentConfig(
            target, sampler, config_hash=hashlib.sha256(text.encode("utf-8")).hexdigest(), **settings
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

"""Strict INI-style run configuration.

Sections describe the dataset ([data]), the temperature policy
([policy]), distillation training ([kd]), selection strategies
([aco]/[pso]/[grid]/[random]) and the output directory ([out]). Unknown
sections or keys are hard errors naming the offender, so typos cannot
silently fall back to defaults. All randomness is seeded from here.
"""

from __future__ import annotations

import configparser
import dataclasses
import typing
from pathlib import Path

from .errors import ConfigParseError
from .selection import AcoConfig, PsoConfig
from .temperature import POLICIES
from .tinynet import TrainConfig


def _floats(s: str) -> list[float]:
    return [float(v) for v in s.split(",")]


def _ints(s: str) -> list[int]:
    return [int(v) for v in s.split(",")]


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _fields(cls) -> dict:
    """key -> parser of every field of a config dataclass: its annotated type,
    which must be int or float."""
    hints = typing.get_type_hints(cls)
    return {f.name: {int: int, float: float}[hints[f.name]] for f in dataclasses.fields(cls)}


# keys that are dataclass fields are read from the dataclass; the rest
# are listed here
_SCHEMA = {
    "data": {
        "samples": int,
        "classes": int,
        "dim": int,
        "complexity": _floats,
        "noise_kind": str,
        "noise_level": float,
        "noise_fraction": float,
        "seed": int,
    },
    "policy": {
        "variant": str,
        **{key: parse for cls in POLICIES.values() for key, parse in _fields(cls).items()},
    },
    "kd": {
        "t_base": float,
        **_fields(TrainConfig),
        "teacher_hidden": _ints,
        "student_hidden": _ints,
    },
    "aco": {
        "pool": str,
        **_fields(AcoConfig),
        "pair_mode": _bool,
        "init_pheromone": _floats,
        "init_heuristic": _floats,
    },
    "pso": {"pool": str, **_fields(PsoConfig)},
    "grid": {
        "pool": str,
        "pair_mode": _bool,
    },
    "random": {
        "pool": str,
        "n_picks": int,
        "seed": int,
    },
    "out": {
        "dir": str,
    },
}


class RunConfig:
    """Parsed sections plus the config file's own location (for relative paths)."""

    def __init__(self, sections: dict, path: Path):
        self.sections = sections
        self.path = path

    def has(self, section: str) -> bool:
        return section in self.sections

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigParseError(f"missing required section [{name}]")
        return self.sections[name]

    def get(self, section: str, key: str, default=None):
        sec = self.section(section)
        if key not in sec:
            if default is None:
                raise ConfigParseError(f"missing required key {key!r} in section [{section}]")
            return default
        return sec[key]

    def resolve(self, relpath: str) -> Path:
        """Paths in the config are relative to the config file itself."""
        p = Path(relpath)
        return p if p.is_absolute() else self.path.parent / p


def load_config(path) -> RunConfig:
    path = Path(path)
    # no section header can be empty, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc

    sections: dict = {}
    for name in parser.sections():
        if name not in _SCHEMA:
            raise ConfigParseError(f"{path}: unknown section [{name}]")
        schema = _SCHEMA[name]
        parsed = {}
        for key, raw in parser.items(name):
            if key not in schema:
                raise ConfigParseError(f"{path}: unknown key {key!r} in section [{name}]")
            try:
                parsed[key] = schema[key](raw)
            except ValueError as exc:
                raise ConfigParseError(
                    f"{path}: bad value for {key!r} in [{name}]: {exc}"
                ) from exc
            if key == "seed" and parsed[key] < 0:
                raise ConfigParseError(f"{path}: 'seed' in [{name}] must be >= 0, got {raw}")
        sections[name] = parsed
    cfg = RunConfig(sections, path)
    if cfg.has("policy"):
        _check_policy_keys(cfg.sections["policy"], path)
    return cfg


def _check_policy_keys(section: dict, path) -> None:
    variant = section.get("variant")
    if variant not in POLICIES:
        raise ConfigParseError(
            f"{path}: [policy] variant must be one of {sorted(POLICIES)}, got {variant!r}"
        )
    extra = set(section) - {"variant"} - _fields(POLICIES[variant]).keys()
    if extra:
        raise ConfigParseError(
            f"{path}: keys {sorted(extra)} not valid for policy variant {variant!r}"
        )


def from_section(cls, section: dict, **extra):
    """A cls built from the keys of section that are its fields, plus extra;
    the fields left out take cls's defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in section.items() if k in names}, **extra)


def build_policy(section: dict):
    """[policy] section -> policy object; keys left out take the class defaults."""
    return from_section(POLICIES[section["variant"]], section)

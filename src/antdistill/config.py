"""Strict INI-style run configuration.

Sections describe the dataset ([data]), the temperature policy
([policy]), distillation training ([kd]), selection strategies
([aco]/[pso]/[grid]/[random]) and the output directory ([out]). SECTIONS
lists the classes and functions whose parameters a section's keys are:
a parameter's annotation gives the key's type, and its default the
key's default. Unknown sections or keys are hard errors naming the
offender, so typos cannot silently fall back to defaults.
All randomness is seeded from here.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import io
import typing
from dataclasses import dataclass
from pathlib import Path

from .distill import KdConfig
from .errors import ConfigParseError
from .selection import AcoConfig, PsoConfig, run_aco, run_grid, run_pso, run_random
from .temperature import POLICIES
from .tinynet import NOISE_KINDS, TrainConfig


@dataclass(frozen=True)
class DataConfig:
    """[data]: the synthetic dataset, and the noise added to it unless noise_kind is "none"."""

    samples: int
    classes: int
    dim: int
    complexity: tuple[float, ...] = (0.0,)  # one value for every class, or one per class
    noise_kind: str = "none"
    noise_level: float = 0.0
    noise_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.noise_kind not in ("none", *NOISE_KINDS):
            raise ConfigParseError(f"[data] noise_kind must be one of {['none', *NOISE_KINDS]}, "
                                   f"got {self.noise_kind!r}")
        if len(self.complexity) not in (1, self.classes):
            raise ConfigParseError(f"[data] complexity must have 1 or {self.classes} entries, "
                                   f"got {len(self.complexity)}")
        for key in ("noise_level", "noise_fraction"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:  # NaN too
                raise ConfigParseError(f"[data] {key} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class NetConfig:
    """[kd]: the hidden layer sizes of the teacher and of the student."""

    teacher_hidden: tuple[int, ...] = (32, 32)
    student_hidden: tuple[int, ...] = (16, 16)

    def __post_init__(self):
        for key in ("teacher_hidden", "student_hidden"):
            sizes = getattr(self, key)
            if any(size < 1 for size in sizes):
                raise ConfigParseError(f"[kd] {key} sizes must be >= 1, got {list(sizes)}")


def _bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# the parser of each type a key can have
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _bool,
    tuple[int, ...]: lambda s: tuple(int(v) for v in s.split(",")),
    tuple[float, ...]: lambda s: tuple(float(v) for v in s.split(",")),
}


# read once per owner: every command builds its configs with them
@functools.cache
def _fields(owner) -> dict:
    """key -> (type, required) of each parameter of owner that a key sets:
    those annotated with a type in _PARSERS. The caller passes the others,
    such as run_aco's pool and cfg."""
    hints = typing.get_type_hints(owner)
    fields = {}
    for name, param in inspect.signature(owner).parameters.items():
        hint = hints.get(name)
        if hint in _PARSERS:
            fields[name] = (hint, param.default is param.empty)
    return fields


# `select --strategy` name -> (its run function, its config class or
# None), in the order the option lists them; each has a section of its name
STRATEGIES = {
    "aco": (run_aco, AcoConfig),
    "random": (run_random, None),
    "grid": (run_grid, None),
    "pso": (run_pso, PsoConfig),
}
# section -> the classes and functions whose parameters its keys are, and
# a {key: type} dict of its keys that are not: the paths and the variant
SECTIONS = {
    "data": (DataConfig,),
    "policy": ({"variant": str}, *POLICIES.values()),
    "kd": (TrainConfig, KdConfig, NetConfig),
    **{name: ({"pool": str}, *filter(None, owners)) for name, owners in STRATEGIES.items()},
    "out": ({"dir": str},),
}
# section -> key -> type, derived once: every command parses a config
_KEYS = {section: {key: hint for owner in owners for key, hint in (
             owner.items() if isinstance(owner, dict) else
             ((name, hint) for name, (hint, _) in _fields(owner).items()))}
         for section, owners in SECTIONS.items()}


class RunConfig:
    """Parsed sections, the config file's location (for relative paths) and its text."""

    def __init__(self, sections: dict, path: Path, text: str):
        self.sections = sections
        self.path = path
        self.text = text

    def has(self, section: str) -> bool:
        return section in self.sections

    def section(self, name: str, *required: str) -> dict:
        """The keys of [name], which must hold each of required."""
        if name not in self.sections:
            raise ConfigParseError(f"missing required section [{name}]")
        sec = self.sections[name]
        for key in required:
            if key not in sec:
                raise ConfigParseError(f"missing required key {key!r} in section [{name}]")
        return sec

    def build(self, section: str, owner, **extra):
        """owner called with the keys of [section] that are its parameters,
        plus extra; a parameter left out takes owner's default."""
        fields = _fields(owner)
        sec = self.section(section, *(name for name, (_, required) in fields.items() if required))
        return owner(**{k: v for k, v in sec.items() if k in fields}, **extra)

    def resolve(self, section: str, key: str) -> Path:
        """The path [section] key names, relative to the config file unless absolute."""
        p = Path(self.section(section, key)[key])
        return p if p.is_absolute() else self.path.parent / p


def load_config(path) -> RunConfig:
    path = Path(path)
    # no section header can be empty, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        data = path.read_bytes()  # once, so that a pipe's text is parsed and kept
        # decoded as open(path, encoding="utf-8") decodes, newlines and errors alike
        parser.read_file(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc

    sections: dict = {}
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigParseError(f"{path}: unknown section [{name}]")
        keys = _KEYS[name]
        parsed = {}
        for key, raw in parser.items(name):
            if key not in keys:
                raise ConfigParseError(f"{path}: unknown key {key!r} in section [{name}]")
            try:
                parsed[key] = _PARSERS[keys[key]](raw)
            except ValueError as exc:
                raise ConfigParseError(
                    f"{path}: bad value for {key!r} in [{name}]: {exc}"
                ) from exc
            if key == "seed" and parsed[key] < 0:
                raise ConfigParseError(f"{path}: 'seed' in [{name}] must be >= 0, got {raw}")
        sections[name] = parsed
    cfg = RunConfig(sections, path, data.decode("utf-8"))
    if cfg.has("policy"):
        _check_policy_keys(cfg.section("policy", "variant"), path)
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

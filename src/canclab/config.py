"""Experiment configuration: a sectioned INI file parsed into typed configs.

Each section's keys are exactly the field names of its config class
([data] data.DataConfig, [noise] NoiseConfig, [train]
training.TrainConfig, [output] OutputConfig), and a key left out keeps the
field's default. Each class checks its own values, so a bad value, such as
an empty [data] building_count range, fails at load. A value is read
as the type of that default: bool, int, float, str, or a comma-separated
tuple of the same length and element types; a float that is nan or inf is
rejected. All randomness flows from the three seeds (data, noise, train);
train() fans [train] seed out into a shuffle seed and two init seeds. A
relative [data] path resolves against the config file's directory.
Unknown sections or keys are configuration errors, not warnings.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import asdict, dataclass, field, fields

from .data import DataConfig
from .errors import ConfigError
from .training import TrainConfig


@dataclass(frozen=True)
class NoiseConfig:
    type: str = "none"
    epsilon: float = 0.0
    seed: int = 1
    noise_modelsel: bool = False

    def __post_init__(self):
        if self.type not in ("none", "symmetric", "antisymmetric"):
            raise ConfigError(f"noise type must be none/symmetric/antisymmetric, got {self.type!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must be in [0,1]")
        if self.seed < 0:
            raise ConfigError(f"[noise] seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "run"

    def __post_init__(self):
        if not self.dir:
            raise ConfigError("[output] dir must not be empty")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
# section -> key -> default, one key per field of the section's class
_KEYS = asdict(ExperimentConfig())


def _convert(text: str, default, where: str):
    """Read text as the type of default; a float, alone or in a tuple,
    must be finite."""
    try:
        if isinstance(default, bool):
            if text.lower() not in _BOOLEANS:
                raise ValueError(f"not a boolean: {text!r}")
            return _BOOLEANS[text.lower()]
        defaults = default if isinstance(default, tuple) else (default,)
        parts = text.split(",") if isinstance(default, tuple) else [text]
        if len(parts) != len(defaults):
            raise ValueError(f"needs {len(defaults)} comma-separated values, got {text!r}")
        values = tuple(type(d)(p) for d, p in zip(defaults, parts))
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError(f"not a finite number: {text!r}")
        return values if isinstance(default, tuple) else values[0]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc

    values = {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(cp[section]) - set(_KEYS[section])
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        values[section] = {
            key: _convert(cp[section][key], _KEYS[section][key], f"[{section}] {key}")
            for key in cp[section]
        }

    data = values.get("data", {})
    if data.get("path") and not os.path.isabs(data["path"]):
        data["path"] = os.path.join(base_dir, data["path"])
    cfg = ExperimentConfig(
        **{f.name: f.default_factory(**values.get(f.name, {})) for f in fields(ExperimentConfig)}
    )
    if cfg.data.source == "file" and not os.path.isfile(cfg.data.path):
        raise ConfigError(f"[data] path does not exist: {cfg.data.path}")
    return cfg


def load_config(path) -> ExperimentConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))

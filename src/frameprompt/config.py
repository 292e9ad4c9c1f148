"""Flat json run configuration.

Unknown keys, duplicate keys, numbers that are not finite and constraint
violations are hard errors; an empty file means all defaults. The file is
parsed, like every json input, only in atomic. The command
line resolves tau "calibrate" to a number before the library reads it, so
the snapshot that rides along in prompt bundles reproduces the run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, replace

from .atomic import is_finite, is_int, is_text, parse_json_object, read_text
from .errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    # adaptation
    epochs: int = 10
    optimizer: str = "adam"
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    warmup_epochs: int = 10
    batch_size: int = 64
    probe_size: int = 1000
    tau: float | str = "calibrate"
    max_clusters: int | None = None
    prompt_init_sigma: float = 0.01
    force_single_prompt: bool = False
    # meta initialization
    eta: float = 0.5
    gamma: float = 0.5
    inner_steps: int = 4
    meta_epochs: int = 20
    meta_batch_size: int = 16
    meta_use_adam: bool = True
    # encoder pretraining
    pretrain_epochs: int = 10
    pretrain_lr: float = 1e-3
    pretrain_batch_size: int = 64
    # diversity and data
    pairs: int = 10000
    noise_count: int = 256
    split_fractions: tuple = (0.7, 0.15, 0.15)

    def snapshot(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


_DEFAULTS = RunConfig()
# the type of each default; tau and split_fractions take their own branches
# in _coerce, and max_clusters (default None) is the optional int
_TYPES = {f.name: type(getattr(_DEFAULTS, f.name)) for f in fields(RunConfig)}


def _finite(key: str, value) -> float:
    if is_finite(value):
        return float(value)
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _coerce(key: str, value):
    want = _TYPES[key]
    if key == "split_fractions":
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ConfigError(f"split_fractions must be a 3-element list, got {value!r}")
        return tuple(_finite(key, v) for v in value)
    if key == "tau":
        if value == "calibrate":
            return value
        if isinstance(value, str):
            raise ConfigError(f"tau must be a number or \"calibrate\", got {value!r}")
        return _finite(key, value)
    if want is int:
        if not is_int(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return value
    if want is float:
        return _finite(key, value)
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return value
    if want is str:
        if not is_text(value):
            raise ConfigError(f"{key} must be UTF-8 text, got {value!r}")
        return value
    # optional int
    if value is not None and not is_int(value):
        raise ConfigError(f"{key} must be an integer or null, got {value!r}")
    return value


def validate(cfg: RunConfig) -> RunConfig:
    if not 0.0 < cfg.gamma < 1.0:
        raise ConfigError(f"gamma must lie strictly inside (0,1), got {cfg.gamma}")
    if cfg.eta < 0:
        raise ConfigError(f"eta must be >= 0, got {cfg.eta}")
    for key in ("epochs", "inner_steps", "meta_epochs", "meta_batch_size",
                "batch_size", "probe_size", "pairs", "pretrain_epochs",
                "pretrain_batch_size"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")
    for key in ("lr", "pretrain_lr"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be > 0, got {getattr(cfg, key)}")
    for key, value in asdict(cfg).items():
        if isinstance(value, int) and value > sys.maxsize:
            raise ConfigError(f"{key} is {value}, more than any array extent "
                              f"({sys.maxsize})")
    if cfg.noise_count < 2:
        raise ConfigError(f"noise_count must be >= 2, got {cfg.noise_count}")
    if cfg.weight_decay < 0 or not 0 <= cfg.momentum < 1:
        raise ConfigError("bad weight_decay/momentum")
    if cfg.optimizer not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")
    if cfg.warmup_epochs < 0:
        raise ConfigError(f"warmup_epochs must be >= 0, got {cfg.warmup_epochs}")
    if isinstance(cfg.tau, float) and cfg.tau <= 0:
        raise ConfigError(f"tau must be positive, got {cfg.tau}")
    if cfg.max_clusters is not None and cfg.max_clusters < 1:
        raise ConfigError(f"max_clusters must be >= 1, got {cfg.max_clusters}")
    fr = cfg.split_fractions
    if min(fr) < 0 or abs(sum(fr) - 1.0) > 1e-9:
        raise ConfigError(f"split_fractions must be nonnegative and sum to 1: {fr}")
    return cfg


def from_dict(raw: dict) -> RunConfig:
    unknown = set(raw) - set(_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    coerced = {k: _coerce(k, v) for k, v in raw.items()}
    return validate(replace(_DEFAULTS, **coerced))


def load_config(path: str) -> RunConfig:
    text = read_text(path, ConfigError)
    if not text.strip():
        return RunConfig()
    return from_dict(parse_json_object(text, path, "config", ConfigError))

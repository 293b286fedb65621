"""Experiment configuration: flat key = value files with explicit seeds.

Unknown keys fail fast. Every random choice in a run traces back to one of
the four named seeds (plus the synthetic data seed), never the wall clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .metrics import METRICS
from .retrain import CONFIG_KINDS


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    dataset: str = "synthetic"  # "synthetic" or "idx"
    synthetic_classes: int = 4
    synthetic_per_class_train: int = 500
    synthetic_per_class_test: int = 125
    synthetic_image_size: int = 16
    synthetic_noise_sigma: float = 1.0
    synthetic_seed: int = 1234
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    # original training
    train_epochs: int = 20
    train_batch_size: int = 32
    train_lr: float = 0.01
    train_momentum: float = 0.9
    # retraining (per data point)
    retrain_epochs: int = 5
    retrain_batch_size: int = 32
    retrain_lr: float = 0.01
    retrain_momentum: float = 0.9
    # attack
    attack_epsilon: float = 0.1
    attack_fraction: float = 0.16
    # guidance metrics
    nc_threshold: float = 0.5
    lsa_layer: str = ""  # resolved by metrics.guidance_layers
    lsa_variance_threshold: float = 1e-5
    dsa_layers: str = ""  # comma separated; resolved by metrics.guidance_layers
    # experiment plan
    metrics: tuple = ("LSA", "DSA", "NC", "RANDOM")
    configs: tuple = ("C1", "C2", "C3")
    # seeds
    seed_init: int = 11
    seed_shuffle: int = 22
    seed_attack: int = 33
    seed_random_metric: int = 44
    # output
    out: str = "out"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{_key(f.name)} must be finite, got {value!r}")
        if self.dataset not in ("synthetic", "idx"):
            raise ConfigError(f"dataset must be synthetic or idx, got {self.dataset!r}")
        if not self.metrics:
            raise ConfigError("at least one metric required")
        if not self.configs:
            raise ConfigError("at least one retraining configuration required")
        for name in ("metrics", "configs"):
            entries = getattr(self, name)
            dupes = sorted({e for e in entries if entries.count(e) > 1})
            if dupes:
                raise ConfigError(f"{name} lists {', '.join(dupes)} more than once")
        for m in self.metrics:
            if m not in METRICS:
                raise ConfigError(f"unknown metric {m!r} (choices: {', '.join(METRICS)})")
        for k in self.configs:
            if k not in CONFIG_KINDS:
                raise ConfigError(f"unknown configuration {k!r} (choices: {', '.join(CONFIG_KINDS)})")
        for stage in ("train", "retrain"):
            _require(self, f"{stage}_lr", lambda v: v > 0, "> 0")
            _require(self, f"{stage}_momentum", lambda v: 0 <= v < 1, "in [0, 1)")
            _require(self, f"{stage}_batch_size", lambda v: v >= 1, ">= 1")
            _require(self, f"{stage}_epochs", lambda v: v >= 0, ">= 0")
        _require(self, "synthetic_noise_sigma", lambda v: v >= 0, ">= 0")
        _require(self, "attack_epsilon", lambda v: 0 <= v <= 1, "in [0, 1]")
        _require(self, "attack_fraction", lambda v: 0 < v <= 1, "in (0, 1]")
        _require(self, "nc_threshold", lambda v: 0 <= v <= 1, "in [0, 1]")
        if self.dataset == "idx":
            missing = [name for name in ("idx_train_images", "idx_train_labels",
                                         "idx_test_images", "idx_test_labels")
                       if not getattr(self, name)]
            if missing:
                raise ConfigError(f"idx dataset needs {', '.join(missing)}")


def _require(cfg: ExperimentConfig, field_name: str, ok, bound: str) -> None:
    """ConfigError naming the config key unless ok(value); NaN never passes."""
    value = getattr(cfg, field_name)
    if not ok(value):
        raise ConfigError(f"{_key(field_name)} must be {bound}, got {value!r}")


def _parse_list(value: str) -> tuple:
    """Comma-separated names, upper-cased; empty entries dropped."""
    return tuple(p.strip().upper() for p in value.split(",") if p.strip())


def _key(field_name: str) -> str:
    """A field's config-file key: its name with the first '_' made a '.'."""
    return field_name.replace("_", ".", 1)


# config-file key -> (field, parser); the parser follows the field's annotation
_PARSERS = {"int": int, "float": float, "str": str, "tuple": _parse_list}
_KEYS = {_key(f.name): (f.name, _PARSERS[f.type]) for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; '#' starts a comment; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, parser = _KEYS[key]
        if field_name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field_name] = parser(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_echo(cfg: ExperimentConfig) -> list[str]:
    """Canonical `key = value` lines of the full effective configuration."""
    lines = []
    for key in sorted(_KEYS):
        field_name, _ = _KEYS[key]
        value = getattr(cfg, field_name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return lines


def with_overrides(cfg: ExperimentConfig, **fields) -> ExperimentConfig:
    return replace(cfg, **fields)

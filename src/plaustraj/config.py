"""Declarative run configuration: one JSON document covering every tunable,
validated strictly (unknown keys rejected) and echoed back next to outputs."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, asdict

from .datakit import SyntheticConfig
from .errors import (BELOW_ONE, NON_NEGATIVE, UNIT, Checked, ConfigError, Rule, at_least, is_int,
                     is_real, rule)
from .gradcore import TrainConfig
from .oracle import OracleParams

_WIDTHS = Rule(lambda v: all(is_int(w) and w >= 1 for w in v), "a list of integers >= 1")
_LAMBDAS = Rule(lambda v: len(v) > 0 and all(is_real(x) and UNIT.ok(x) for x in v),
                "a non-empty list of numbers in [0, 1]")


@dataclass
class DataSection(Checked):
    n_tracks: int = rule(at_least(1), default=60)
    n_eval_tracks: int = rule(at_least(1), default=30)
    pose_bank_size: int = rule(at_least(1), default=64)
    seed: int = rule(at_least(0), default=1)
    eval_seed: int = rule(at_least(0), default=1001)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)


@dataclass
class PlausibilitySection(Checked):
    n_plausible: int = rule(at_least(0), default=200)
    n_implausible: int = rule(at_least(0), default=200)
    seed: int = rule(at_least(0), default=2)


@dataclass
class LocoValSection(Checked):
    hidden: list = rule(_WIDTHS, default_factory=lambda: [128, 128, 128])
    include_pose: bool = True
    include_velocity: bool = True
    holdout_fraction: float = rule(BELOW_ONE, default=0.1)
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            learning_rate=1e-3, total_steps=3000, batch_size=64, seed=3,
            schedule="cosine",
        )
    )


@dataclass
class PredictorSection(Checked):
    past_frames: int = rule(at_least(2), default=9)
    future_frames: int = rule(at_least(2), default=12)
    stride: int = rule(at_least(1), default=3)
    window_seed: int = rule(at_least(0), default=4)
    n_heads: int = rule(at_least(1), default=1)
    alpha: float = rule(NON_NEGATIVE, default=0.0)
    trunk_hidden: list = rule(_WIDTHS, default_factory=lambda: [256, 256])
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            learning_rate=1e-4, total_steps=2000, batch_size=32, seed=5,
            schedule="constant",
        )
    )


@dataclass
class EvalSection(Checked):
    threshold: float = rule(UNIT, default=0.7)
    score_bins: int = rule(at_least(1), default=10)
    chi2_bins: int = rule(at_least(2), default=50)
    lambdas: list = rule(_LAMBDAS, default_factory=lambda: [0.5, 0.6, 0.7, 0.8])


@dataclass
class RunConfig(Checked):
    oracle: OracleParams = field(default_factory=OracleParams)
    data: DataSection = field(default_factory=DataSection)
    plausibility: PlausibilitySection = field(default_factory=PlausibilitySection)
    locoval: LocoValSection = field(default_factory=LocoValSection)
    predictor: PredictorSection = field(default_factory=PredictorSection)
    eval: EvalSection = field(default_factory=EvalSection)


def _from_dict(default, data, path="config"):
    """default with the fields data gives set: a partial nested section keeps
    the other defaults of the field that holds it, not its class's."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object, got {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(default)}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        section = getattr(default, name)
        if dataclasses.is_dataclass(section):
            value = _from_dict(section, value, f"{path}.{name}")
        kwargs[name] = list(value) if isinstance(value, list) else value
    try:
        return dataclasses.replace(default, **kwargs)
    except ConfigError as exc:  # each section names the field, this the section
        raise ConfigError(f"{path}.{exc}")


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig(), data)


def override(section, path: str, **values):
    """A copy of a config section with the given values set, checked as at
    load; a value of None leaves its field as it is."""
    try:
        return dataclasses.replace(
            section, **{k: v for k, v in values.items() if v is not None})
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}")


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return config_from_dict(data)


def resolved_config_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def save_resolved_config(cfg: RunConfig, path):
    with open(path, "w") as fh:
        json.dump(resolved_config_dict(cfg), fh, indent=2, default=list)

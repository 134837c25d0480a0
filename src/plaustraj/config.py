"""Declarative run configuration: one JSON document covering every tunable,
validated strictly (unknown keys rejected) and echoed back next to outputs."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, asdict

from .datakit import SyntheticConfig
from .errors import ConfigError
from .gradcore import TrainConfig
from .oracle import OracleParams


@dataclass
class DataSection:
    n_tracks: int = 60
    n_eval_tracks: int = 30
    pose_bank_size: int = 64
    seed: int = 1
    eval_seed: int = 1001
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)


@dataclass
class PlausibilitySection:
    n_plausible: int = 200
    n_implausible: int = 200
    seed: int = 2

    def __post_init__(self):
        for name in ("n_plausible", "n_implausible", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, int) and value >= 0):
                raise ConfigError(f"plausibility.{name} must be an integer >= 0, got {value!r}")


def _check_widths(name: str, widths):
    if not all(isinstance(w, int) and w >= 1 for w in widths):
        raise ConfigError(f"{name} widths must be integers >= 1, got {list(widths)}")


@dataclass
class LocoValSection:
    hidden: list = field(default_factory=lambda: [128, 128, 128])
    include_pose: bool = True
    include_velocity: bool = True
    holdout_fraction: float = 0.1
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            learning_rate=1e-3, total_steps=3000, batch_size=64, seed=3,
            schedule="cosine",
        )
    )

    def __post_init__(self):
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("locoval.holdout_fraction must be in [0, 1)")
        _check_widths("locoval.hidden", self.hidden)


@dataclass
class PredictorSection:
    past_frames: int = 9
    future_frames: int = 12
    stride: int = 3
    window_seed: int = 4
    n_heads: int = 1
    alpha: float = 0.0
    emloco_form: str = "squared"
    trunk_hidden: list = field(default_factory=lambda: [256, 256])
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            learning_rate=1e-4, total_steps=2000, batch_size=32, seed=5,
            schedule="constant",
        )
    )

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError("predictor.stride must be >= 1")
        if self.future_frames < 2:
            raise ConfigError("predictor.future_frames must be >= 2")
        _check_widths("predictor.trunk_hidden", self.trunk_hidden)


@dataclass
class EvalSection:
    threshold: float = 0.7
    score_bins: int = 10
    chi2_bins: int = 50
    lambdas: list = field(default_factory=lambda: [0.5, 0.6, 0.7, 0.8])


@dataclass
class RunConfig:
    oracle: OracleParams = field(default_factory=OracleParams)
    data: DataSection = field(default_factory=DataSection)
    plausibility: PlausibilitySection = field(default_factory=PlausibilitySection)
    locoval: LocoValSection = field(default_factory=LocoValSection)
    predictor: PredictorSection = field(default_factory=PredictorSection)
    eval: EvalSection = field(default_factory=EvalSection)


def _from_dict(cls, data, path="config"):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    field_map = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(field_map)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        nested = _NESTED_TYPES.get((cls, name))
        if nested is not None:
            kwargs[name] = _from_dict(nested, value, f"{path}.{name}")
        elif isinstance(value, list):
            kwargs[name] = list(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")


_NESTED_TYPES = {
    (RunConfig, "oracle"): OracleParams,
    (RunConfig, "data"): DataSection,
    (RunConfig, "plausibility"): PlausibilitySection,
    (RunConfig, "locoval"): LocoValSection,
    (RunConfig, "predictor"): PredictorSection,
    (RunConfig, "eval"): EvalSection,
    (DataSection, "synthetic"): SyntheticConfig,
    (LocoValSection, "train"): TrainConfig,
    (PredictorSection, "train"): TrainConfig,
}


def config_from_dict(data: dict) -> RunConfig:
    return _from_dict(RunConfig, data)


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

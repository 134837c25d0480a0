"""Declarative run configuration: one JSON document covering every tunable,
validated strictly (unknown keys rejected) and echoed back next to outputs."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
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
            _check_int(name, getattr(self, name), 0)


def _check_widths(name: str, widths):
    if not all(isinstance(w, int) and w >= 1 for w in widths):
        raise ConfigError(f"{name} widths must be integers >= 1, got {list(widths)}")


def _check_int(name: str, value, low: int):
    if isinstance(value, bool) or not (isinstance(value, int) and value >= low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_unit(name: str, value):
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value!r}")


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
            raise ConfigError("holdout_fraction must be in [0, 1)")
        _check_widths("hidden", self.hidden)


@dataclass
class PredictorSection:
    past_frames: int = 9
    future_frames: int = 12
    stride: int = 3
    window_seed: int = 4
    n_heads: int = 1
    alpha: float = 0.0
    trunk_hidden: list = field(default_factory=lambda: [256, 256])
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(
            learning_rate=1e-4, total_steps=2000, batch_size=32, seed=5,
            schedule="constant",
        )
    )

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.future_frames < 2:
            raise ConfigError("future_frames must be >= 2")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        _check_widths("trunk_hidden", self.trunk_hidden)


@dataclass
class EvalSection:
    threshold: float = 0.7
    score_bins: int = 10
    chi2_bins: int = 50
    lambdas: list = field(default_factory=lambda: [0.5, 0.6, 0.7, 0.8])

    def __post_init__(self):
        _check_unit("threshold", self.threshold)
        if not self.lambdas:
            raise ConfigError("lambdas must be a non-empty list, got []")
        for value in self.lambdas:
            if not _is_number(value):
                raise ConfigError(f"lambdas must be numbers, got {value!r}")
            _check_unit("lambdas", value)
        _check_int("score_bins", self.score_bins, 1)
        _check_int("chi2_bins", self.chi2_bins, 2)


@dataclass
class RunConfig:
    oracle: OracleParams = field(default_factory=OracleParams)
    data: DataSection = field(default_factory=DataSection)
    plausibility: PlausibilitySection = field(default_factory=PlausibilitySection)
    locoval: LocoValSection = field(default_factory=LocoValSection)
    predictor: PredictorSection = field(default_factory=PredictorSection)
    eval: EvalSection = field(default_factory=EvalSection)


def _is_number(value) -> bool:
    """A real number; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# (type of a field's default, check on a value, what the value must be); bool
# comes first because a bool is also an integer, and int before real
_KINDS = (
    (bool, lambda v: isinstance(v, bool), "true or false"),
    (int, lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    (numbers.Real, _is_number, "a real number"),
    (str, lambda v: isinstance(v, str), "a string"),
    ((list, tuple), lambda v: isinstance(v, (list, tuple)), "a list"),
    (dict, lambda v: isinstance(v, dict), "an object"),
)


def _check_kind(f: dataclasses.Field, value, path: str):
    """A value of the kind of its field's default, so a section's own checks
    compare like with like."""
    default = f.default_factory() if f.default is dataclasses.MISSING else f.default
    for kind, ok, what in _KINDS:
        if isinstance(default, kind):
            if not ok(value):
                raise ConfigError(f"{path}.{f.name} must be {what}, got {value!r}")
            return


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
            continue
        _check_kind(field_map[name], value, path)
        kwargs[name] = list(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")
    except ConfigError as exc:  # each section names the field, this the section
        raise ConfigError(f"{path}.{exc}")


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

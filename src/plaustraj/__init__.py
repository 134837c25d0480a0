"""Plausibility-aware trajectory prediction: a differentiable locomotion
scorer, regularized multi-head predictors, and score-threshold filtering."""

from .errors import (
    ConfigError,
    DataError,
    InputShapeError,
    NumericError,
    ParseError,
    PlausTrajError,
)
from .gradcore import TrainConfig
from .oracle import ObservableState, OracleParams, Trajectory, rollout
from .locoval import (
    FeatureLayout,
    LocoValModel,
    build_locoval,
    load_locoval,
    save_locoval,
    score,
    train_locoval,
)
from .datakit import TrainingInstance
from .predictor import (
    InputLayout,
    PredictionSet,
    PredictorModel,
    build_predictor,
    load_predictor,
    predict,
    save_predictor,
    train_predictor,
)
from .filtering import FilterResult, locoval_filter, sweep_lambda
from .metrics import MetricsReport, chi2_distance, evaluate_predictions
from .config import RunConfig, load_config

__all__ = [
    "ConfigError",
    "DataError",
    "InputShapeError",
    "NumericError",
    "ParseError",
    "PlausTrajError",
    "TrainConfig",
    "ObservableState",
    "OracleParams",
    "Trajectory",
    "rollout",
    "FeatureLayout",
    "LocoValModel",
    "build_locoval",
    "load_locoval",
    "save_locoval",
    "score",
    "train_locoval",
    "InputLayout",
    "PredictionSet",
    "PredictorModel",
    "TrainingInstance",
    "build_predictor",
    "load_predictor",
    "predict",
    "save_predictor",
    "train_predictor",
    "FilterResult",
    "locoval_filter",
    "sweep_lambda",
    "MetricsReport",
    "chi2_distance",
    "evaluate_predictions",
    "RunConfig",
    "load_config",
]

__version__ = "0.1.0"

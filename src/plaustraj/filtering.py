"""Threshold-based rejection of implausible candidate trajectories with an
argmax fallback, the one evaluation of a predictor on a window set, and
threshold sweeps over it."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import metrics, predictor
from .datakit import WindowSet
from .errors import ConfigError, DataError, InputShapeError
from .locoval import LocoValModel, score_batch, score_heads
from .oracle import ObservableState, Trajectory, TrajectorySet


@dataclass(slots=True)
class FilterResult:
    """The partition of one candidate set: its candidates, their (K,) scores
    and a (K,) keep mask. kept and rejected are (head, Trajectory, score)
    lists in head order, built each time they are read."""

    candidates: Sequence[Trajectory]
    scores: np.ndarray
    keep: np.ndarray
    fallback_used: bool
    threshold: float

    @property
    def kept(self) -> list[tuple[int, Trajectory, float]]:
        return [(k, self.candidates[k], s) for k, s in self._scored(self.keep)]

    @property
    def rejected(self) -> list[tuple[int, Trajectory, float]]:
        return [(k, self.candidates[k], s) for k, s in self._scored(~self.keep)]

    def _scored(self, mask: np.ndarray):
        """(head, score) pairs of the masked heads, in head order."""
        return zip(np.flatnonzero(mask).tolist(), self.scores[mask].tolist())

    def kept_indices(self) -> list[int]:
        return np.flatnonzero(self.keep).tolist()

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.threshold,
            "kept": [{"head": k, "score": s} for k, s in self._scored(self.keep)],
            "rejected": [{"head": k, "score": s} for k, s in self._scored(~self.keep)],
            "fallback_used": self.fallback_used,
        }


def locoval_filter(
    scorer: LocoValModel,
    candidates: Sequence[Trajectory],
    obs: ObservableState,
    threshold: float,
) -> FilterResult:
    """Keep candidates scoring >= threshold; if none do, keep the single
    argmax-score candidate (ties to the lowest head index)."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("threshold must lie in [0, 1]")
    return _partition(candidates, score_batch(scorer, candidates, obs), threshold)


def _partition(candidates: Sequence[Trajectory], scores, threshold: float) -> FilterResult:
    if not len(candidates):
        raise InputShapeError("empty candidate set")
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(candidates),):
        raise InputShapeError(f"{len(candidates)} candidates but scores of shape {scores.shape}")
    keep, fallback = _filter_rule(scores, threshold)
    return FilterResult(candidates, scores, keep, bool(fallback), threshold)


def _filter_rule(scores: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The filter rule over the last axis of scores (..., K): keep every head
    scoring >= threshold, or where none does only the argmax (ties to the
    lowest head index). Returns the keep mask and the fallback flags (...)."""
    keep = scores >= threshold
    fallback = ~keep.any(axis=-1)
    if fallback.any():
        keep[fallback, np.argmax(scores[fallback], axis=-1)] = True
    return keep, fallback


@dataclass
class WindowEval:
    """A predictor's heads on a window set, each head's score and ADE, and the
    metrics report of all the heads, as arrays."""

    heads: np.ndarray               # (N, K, T_f, 2) predicted heads
    truths: np.ndarray              # (N, T_f, 2) ground-truth futures
    dt: float                       # the windows' frame interval
    scores: np.ndarray | None       # (N, K) score_heads scores; None without a scorer
    ades: np.ndarray                # (N, K) ADE of each head
    report: metrics.MetricsReport
    n_bins: int                     # the report's chi2 histogram bins


def evaluate_windows(model: predictor.PredictorModel, windows: WindowSet,
                     scorer: LocoValModel | None = None,
                     n_bins: int = metrics.DEFAULT_N_BINS) -> WindowEval:
    """One predict_heads call over the window set, one score_heads call when a
    scorer is given, and every head's ADE and the report from (N*K, T, 2)
    rows, with the bits of metrics.ade and evaluate_predictions. The set must
    be non-empty, with the model's past length and horizon."""
    if not len(windows):
        raise DataError("the window set has 0 windows; evaluation needs at least 1")
    if windows.past_frames != model.input_layout.past_frames:
        raise DataError(f"the windows have {windows.past_frames} past frames; "
                        f"the predictor takes {model.input_layout.past_frames}")
    if windows.horizon != model.horizon:
        raise DataError(f"the windows have {windows.horizon} future frames; "
                        f"the predictor predicts {model.horizon}")
    heads = predictor.predict_heads(model, windows.past, windows.joints)
    n, k = heads.shape[:2]
    rows = heads.reshape(n * k, model.horizon, 2)
    TrajectorySet(rows, windows.dt)  # every head checked once, by predict's rule
    scores = score_heads(scorer, heads, windows.joints, windows.velocity) if scorer else None
    _, ades, _ = metrics._displacement_errors(rows, np.repeat(windows.future, k, axis=0))
    report = metrics.evaluate_arrays(rows, np.full(n, k), windows.future, windows.dt, n_bins)
    return WindowEval(heads, windows.future, windows.dt, scores, ades.reshape(n, k), report,
                      n_bins)


@dataclass
class SweepEntry:
    threshold: float
    kept_report: metrics.MetricsReport
    rejected_report: metrics.MetricsReport | None
    rejection_rate: float
    fallback_cases: int


def sweep_lambda(evaluation: WindowEval, thresholds: list[float]) -> list[SweepEntry]:
    """For each threshold, metrics of the kept and the rejected heads of a
    scored window set, at its chi2 bin count. Every window is partitioned by
    the locoval_filter rule at once, which keeps at least one head."""
    for lam in thresholds:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError("every threshold must lie in [0, 1]")
    heads, truths, dt, n_bins = (evaluation.heads, evaluation.truths, evaluation.dt,
                                 evaluation.n_bins)
    entries = []
    for lam in thresholds:
        keep, fallback = _filter_rule(evaluation.scores, lam)
        rejected = ~keep
        some = rejected.any(axis=1)  # the windows with a rejected head
        entries.append(SweepEntry(
            threshold=lam,
            kept_report=metrics.evaluate_arrays(heads[keep], keep.sum(axis=1), truths, dt, n_bins),
            rejected_report=(metrics.evaluate_arrays(heads[rejected], rejected.sum(axis=1)[some],
                                                     truths[some], dt, n_bins)
                             if some.any() else None),
            rejection_rate=int(rejected.sum()) / rejected.size,
            fallback_cases=int(fallback.sum()),
        ))
    return entries

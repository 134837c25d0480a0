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
from .locoval import LocoValModel, score_batch
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
    keep = scores >= threshold
    fallback = not keep.any()
    if fallback:
        keep[np.argmax(scores)] = True
    return FilterResult(candidates, scores, keep, fallback, threshold)


@dataclass
class WindowEval:
    """A predictor's heads on a window set, each head's score and ADE, and the
    metrics report of all the heads."""

    heads: list[TrajectorySet]      # per window, its K predicted heads
    truths: list[Trajectory]        # per window, its ground-truth future
    scores: np.ndarray | None       # (N, K) score_batch scores; None without a scorer
    ades: np.ndarray                # (N, K) ADE of each head
    report: metrics.MetricsReport
    n_bins: int                     # the report's chi2 histogram bins


def evaluate_windows(model: predictor.PredictorModel, windows: WindowSet,
                     scorer: LocoValModel | None = None,
                     n_bins: int = metrics.DEFAULT_N_BINS) -> WindowEval:
    """Predict each window, score its heads with one score_batch call when a
    scorer is given, and take every head's ADE in one (N*K, T, 2) pass, which
    has the bits of metrics.ade head by head. The window set must be
    non-empty, with the model's past length and horizon."""
    layout = model.input_layout
    if not len(windows):
        raise DataError("the window set has 0 windows; evaluation needs at least 1")
    if windows.past_frames != layout.past_frames:
        raise DataError(f"the windows have {windows.past_frames} past frames; "
                        f"the predictor takes {layout.past_frames}")
    if windows.horizon != model.horizon:
        raise DataError(f"the windows have {windows.horizon} future frames; "
                        f"the predictor predicts {model.horizon}")
    heads, scores, truths = [], [], []
    for past, future, obs in windows:
        heads.append(predictor.predict(model, past, obs).trajectories)
        if scorer is not None:
            scores.append(score_batch(scorer, heads[-1], obs))
        truths.append(future)
    report = metrics.evaluate_predictions(heads, truths, n_bins=n_bins)
    k = len(heads[0])
    _, ades, _ = metrics._displacement_errors(
        np.concatenate([h.points for h in heads]), np.repeat(windows.future, k, axis=0))
    return WindowEval(heads, truths, np.array(scores) if scorer is not None else None,
                      ades.reshape(-1, k), report, n_bins)


@dataclass
class SweepEntry:
    threshold: float
    kept_report: metrics.MetricsReport
    rejected_report: metrics.MetricsReport | None
    rejection_rate: float
    fallback_cases: int


def sweep_lambda(evaluation: WindowEval, thresholds: list[float]) -> list[SweepEntry]:
    """For each threshold, metrics of the kept and the rejected heads of a
    scored window set, at its chi2 bin count. Each window is partitioned by
    the locoval_filter rule per threshold, which keeps at least one head."""
    for lam in thresholds:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError("every threshold must lie in [0, 1]")
    total = sum(len(candidates) for candidates in evaluation.heads)
    n_bins = evaluation.n_bins
    entries = []
    for lam in thresholds:
        kept_sets, rej_sets, rej_gts = [], [], []
        n_rejected = fallback_cases = 0
        for candidates, scores, gt in zip(evaluation.heads, evaluation.scores, evaluation.truths):
            result = _partition(candidates, scores, lam)
            n_kept = int(result.keep.sum())
            n_rejected += len(candidates) - n_kept
            fallback_cases += int(result.fallback_used)
            kept_sets.append([t for _, t, _ in result.kept])
            if n_kept < len(candidates):
                rej_sets.append([t for _, t, _ in result.rejected])
                rej_gts.append(gt)
        entries.append(SweepEntry(
            threshold=lam,
            kept_report=metrics.evaluate_predictions(kept_sets, evaluation.truths, n_bins=n_bins),
            rejected_report=(metrics.evaluate_predictions(rej_sets, rej_gts, n_bins=n_bins)
                             if rej_sets else None),
            rejection_rate=n_rejected / total,
            fallback_cases=fallback_cases,
        ))
    return entries

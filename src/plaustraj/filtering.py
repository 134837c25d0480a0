"""Threshold-based rejection of implausible candidate trajectories with an
argmax fallback, plus threshold sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputShapeError
from .locoval import LocoValModel, score_batch
from .metrics import MetricsReport, evaluate_predictions
from .oracle import ObservableState, Trajectory


@dataclass
class FilterResult:
    kept: list[tuple[int, Trajectory, float]]
    rejected: list[tuple[int, Trajectory, float]]
    fallback_used: bool
    threshold: float

    def kept_indices(self) -> list[int]:
        return [k for k, _, _ in self.kept]

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.threshold,
            "kept": [{"head": k, "score": s} for k, _, s in self.kept],
            "rejected": [{"head": k, "score": s} for k, _, s in self.rejected],
            "fallback_used": self.fallback_used,
        }


def locoval_filter(
    scorer: LocoValModel,
    candidates: list[Trajectory],
    obs: ObservableState,
    threshold: float,
) -> FilterResult:
    """Keep candidates scoring >= threshold; if none do, keep the single
    argmax-score candidate (ties to the lowest head index)."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError("threshold must lie in [0, 1]")
    return _partition(candidates, score_batch(scorer, candidates, obs), threshold)


def _partition(candidates: list[Trajectory], scores: list[float],
               threshold: float) -> FilterResult:
    if not candidates:
        raise InputShapeError("empty candidate set")
    kept, rejected = [], []
    fallback = False
    if any(s >= threshold for s in scores):
        for k, (traj, s) in enumerate(zip(candidates, scores)):
            (kept if s >= threshold else rejected).append((k, traj, s))
    else:
        fallback = True
        best = int(np.argmax(scores))
        for k, (traj, s) in enumerate(zip(candidates, scores)):
            (kept if k == best else rejected).append((k, traj, s))
    return FilterResult(kept=kept, rejected=rejected, fallback_used=fallback,
                        threshold=threshold)


@dataclass
class SweepEntry:
    threshold: float
    kept_report: MetricsReport | None
    rejected_report: MetricsReport | None
    rejection_rate: float
    fallback_cases: int


def sweep_lambda(
    cases: list[tuple[list[Trajectory], list[float], Trajectory]],
    thresholds: list[float],
) -> list[SweepEntry]:
    """For each threshold, metrics of kept and rejected candidate sets over
    (candidates, scores, ground truth) evaluation cases, the scores being
    score_batch's for the candidates. Each case is partitioned by the
    locoval_filter rule per threshold."""
    for lam in thresholds:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError("every threshold must lie in [0, 1]")
    entries = []
    for lam in thresholds:
        kept_sets, kept_gts = [], []
        rej_sets, rej_gts = [], []
        total, n_rejected, fallback_cases = 0, 0, 0
        for candidates, scores, gt in cases:
            result = _partition(candidates, scores, lam)
            total += len(candidates)
            n_rejected += len(result.rejected)
            fallback_cases += int(result.fallback_used)
            kept_sets.append([t for _, t, _ in result.kept])
            kept_gts.append(gt)
            if result.rejected:
                rej_sets.append([t for _, t, _ in result.rejected])
                rej_gts.append(gt)
        kept_report = evaluate_predictions(kept_sets, kept_gts)
        rejected_report = (
            evaluate_predictions(rej_sets, rej_gts) if rej_sets else None
        )
        entries.append(
            SweepEntry(
                threshold=lam,
                kept_report=kept_report,
                rejected_report=rejected_report,
                rejection_rate=n_rejected / total if total else 0.0,
                fallback_cases=fallback_cases,
            )
        )
    return entries

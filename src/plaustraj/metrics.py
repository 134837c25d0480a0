"""Evaluation metrics: displacement errors, min-of-K variants, chi-square
distances over physics primitives, per-timestep errors, and score-binned
summaries."""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigError, InputShapeError
from .oracle import Trajectory, _map, _row_norms, candidate_arrays, wrap_angles


@dataclass
class HistogramSpec:
    n_bins: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.n_bins < 2:
            raise ConfigError("n_bins must be >= 2")
        if not self.lo < self.hi:
            raise ConfigError("histogram range must satisfy lo < hi")


PRIMITIVES = ("velocity", "acceleration", "angular_velocity", "angular_acceleration")
CHI2_BINS = 50  # bins of every chi2 histogram
CHI2_RANGE_MARGIN = 0.05  # of the ground-truth sample range, added at each end
STATIONARY_EPS = 1e-6


@dataclass
class MetricsReport:
    ade: float
    fde: float
    min_ade: float
    min_fde: float
    chi2: dict
    per_timestep: list[float]
    n_samples: int
    histogram_specs: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Array core
#
# Every metric is computed for n trajectories of one length at once, from
# (n, T, 2) points; the one-trajectory functions below are one-row calls into
# the same core. Each row gets the bits of the per-trajectory computation:
# - errors and speeds are np.linalg.norm over the last axis, the same
#   x*x + y*y per row, and ADE is a mean along the contiguous last axis,
#   the same pairwise sum as the mean of one row;
# - the final-frame error and the stationary test are np.linalg.norm of one
#   2-vector, a BLAS dot (which may fuse to an FMA), so they use the
#   one-dot-per-row matmul of _row_norms rather than x*x + y*y;
# - headings go through math.atan2 per element and angle differences through
#   wrap_angles, which match wrap_angle bit for bit.

# samples per trajectory of each primitive are T minus these
_LOST_STEPS = {"velocity": 1, "acceleration": 2, "angular_velocity": 2,
               "angular_acceleration": 3}
EVAL_BLOCK = 1024  # trajectories per array pass of evaluate_predictions


def _displacement_errors(pred: np.ndarray, gt: np.ndarray):
    """Per-frame errors (n, T), ADEs (n,) and FDEs (n,) of predictions
    against ground truths, both (n, T, 2)."""
    err = np.linalg.norm(pred - gt, axis=-1)
    return err, np.mean(err, axis=1), _row_norms(pred[:, -1] - gt[:, -1])


def _primitives(points: np.ndarray, dt: np.ndarray) -> dict:
    """Speed, tangential acceleration, angular velocity and angular
    acceleration sequences of each row of points (n, T, 2) with its dt (n,).
    Stationary steps carry the previous heading forward."""
    dt = dt[:, None]
    disp = np.diff(points, axis=1)
    speeds = np.linalg.norm(disp, axis=-1) / dt
    n, steps = speeds.shape
    # each step takes the heading of the last moving step up to it in its
    # row (1 + its flat index into the atan2s), or 0.0 before the first one
    moving = _row_norms(disp.reshape(-1, 2)) >= STATIONARY_EPS
    last = np.where(moving, np.arange(1, n * steps + 1), 0).reshape(n, steps)
    np.maximum.accumulate(last, axis=1, out=last)
    atans = _map(math.atan2, disp[..., 1].ravel(), disp[..., 0].ravel())
    headings = np.concatenate([[0.0], atans])[last]
    ang_vel = wrap_angles(np.diff(headings, axis=1)) / dt
    return {
        "velocity": speeds,
        "acceleration": np.diff(speeds, axis=1) / dt,
        "angular_velocity": ang_vel,
        "angular_acceleration": np.diff(ang_vel, axis=1) / dt,
    }


def _one_row(pred: Trajectory, gt: Trajectory):
    if len(pred) != len(gt):
        raise InputShapeError("prediction/ground-truth length mismatch")
    return pred.points[None], gt.points[None]


def ade(pred: Trajectory, gt: Trajectory) -> float:
    """Mean Euclidean distance over frames."""
    return float(_displacement_errors(*_one_row(pred, gt))[1][0])


def fde(pred: Trajectory, gt: Trajectory) -> float:
    """Euclidean distance at the final frame."""
    return float(_displacement_errors(*_one_row(pred, gt))[2][0])


def chi2_distance(pred_samples, gt_samples, spec: HistogramSpec) -> float:
    """Chi-square distance between the normalized histograms of two sample
    sets; symmetric and bounded in [0, 2]."""
    pred_samples = np.asarray(pred_samples, dtype=float)
    gt_samples = np.asarray(gt_samples, dtype=float)
    if pred_samples.size == 0 or gt_samples.size == 0:
        raise InputShapeError("chi2_distance needs non-empty sample sets")
    edges = np.linspace(spec.lo, spec.hi, spec.n_bins + 1)
    p = np.histogram(np.clip(pred_samples, spec.lo, spec.hi), bins=edges)[0].astype(float)
    q = np.histogram(np.clip(gt_samples, spec.lo, spec.hi), bins=edges)[0].astype(float)
    p /= p.sum()
    q /= q.sum()
    denom = p + q
    num = (p - q) ** 2
    mask = denom > 0
    return float(np.sum(num[mask] / denom[mask]))


def histogram_spec_from_samples(samples) -> HistogramSpec:
    """CHI2_BINS uniform bins over the ground-truth sample range with a safety margin."""
    samples = np.asarray(samples, dtype=float)
    lo, hi = float(samples.min()), float(samples.max())
    pad = CHI2_RANGE_MARGIN * max(hi - lo, 1e-9)
    return HistogramSpec(n_bins=CHI2_BINS, lo=lo - pad, hi=hi + pad)


def bin_by_plausibility(scores, ades, n_bins: int = 10) -> list[dict]:
    """Uniform score bins over [0, 1]; each entry carries count and mean ADE."""
    scores = np.asarray(scores, dtype=float)
    ades = np.asarray(ades, dtype=float)
    if scores.shape != ades.shape:
        raise InputShapeError("scores and ADEs must have matching lengths")
    if scores.size and (scores.min() < 0 or scores.max() > 1):
        raise InputShapeError("scores must lie in [0, 1]")
    bins = []
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        # each bin is [lo, hi), the last one [lo, 1]
        mask = (scores >= lo) & ((scores < hi) | (b == n_bins - 1) & (scores <= hi))
        count = int(mask.sum())
        bins.append({"bin": b, "lo": lo, "hi": hi, "count": count,
                     "mean_ade": float(ades[mask].mean()) if count else 0.0})
    return bins


def spearman_rho(x, y) -> float:
    """Spearman rank correlation, average ranks on ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InputShapeError("need at least two points for a correlation")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(len(v), dtype=float)
        # average tied ranks
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    return pearson_r(ranks(x), ranks(y))


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InputShapeError("need at least two points for a correlation")
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


# ---------------------------------------------------------------------------
# Aggregation


def evaluate_predictions(
    prediction_sets: list[Sequence[Trajectory]],
    ground_truths: list[Trajectory],
) -> MetricsReport:
    """Aggregate metrics over a list of evaluation cases, each a candidate set
    (a TrajectorySet or a sequence of Trajectory objects). ADE/FDE are
    averaged over every head of every case; minADE/minFDE take the best head
    per case. Chi-square distances compare pooled physics primitives of
    predictions against those of the ground truths.

    A case's heads are read as one array (oracle.candidate_arrays), and
    whole cases are scored in blocks of up to EVAL_BLOCK trajectories."""
    if len(prediction_sets) != len(ground_truths) or not prediction_sets:
        raise InputShapeError("need matching, non-empty prediction and ground-truth lists")
    counts = np.array([len(heads) for heads in prediction_sets])
    if not counts.all():
        raise InputShapeError(f"case {np.argmin(counts)} has no heads")
    horizon = len(ground_truths[0])
    for c, gt in enumerate(ground_truths):
        if len(gt) != horizon:
            raise InputShapeError(
                f"case {c}: ground truth has {len(gt)} points, case 0's has {horizon}"
            )
    arrays = [_case_arrays(c, heads, horizon) for c, heads in enumerate(prediction_sets)]
    # whole cases per block, at most EVAL_BLOCK trajectories unless one case has more
    step = max(1, EVAL_BLOCK // int(counts.max()))
    blocks = (tuple(np.concatenate(a) for a in zip(*arrays[first:first + step]))
              for first in range(0, len(arrays), step))
    return _report(blocks, counts, np.stack([g.points for g in ground_truths]),
                   np.array([g.dt for g in ground_truths]))


def evaluate_arrays(points: np.ndarray, counts: np.ndarray, truths: np.ndarray,
                    dt: float) -> MetricsReport:
    """evaluate_predictions of N cases held as arrays, bit for bit: head rows
    (n, T, 2), counts[c] >= 1 of them for case c in case order, and ground
    truths (N, T, 2), all at one dt. Rows are scored in blocks of EVAL_BLOCK."""
    dts = np.full(len(points), dt)
    blocks = ((points[lo:lo + EVAL_BLOCK], dts[lo:lo + EVAL_BLOCK])
              for lo in range(0, len(points), EVAL_BLOCK))
    return _report(blocks, counts, truths, np.full(len(truths), dt))


def _report(blocks, counts: np.ndarray, truths: np.ndarray,
            truth_dts: np.ndarray) -> MetricsReport:
    """The report of N cases whose head rows come as (points, dts) blocks in
    row order. Rows are scored independently and per-timestep errors summed
    in row order, so the bits are those of scoring one trajectory at a time."""
    horizon = truths.shape[1]
    if horizon < 4:
        raise InputShapeError("need at least 4 points for all physics primitives")
    case_of = np.repeat(np.arange(len(counts)), counts)
    n = len(case_of)
    ades, fdes = np.empty(n), np.empty(n)
    per_ts_sum = np.zeros(horizon)
    pred_prims = {p: np.empty((n, horizon - k)) for p, k in _LOST_STEPS.items()}
    lo = 0
    for pred, dts in blocks:
        hi = lo + len(pred)
        err, ades[lo:hi], fdes[lo:hi] = _displacement_errors(pred, truths[case_of[lo:hi]])
        # an axis-0 sum adds the rows one at a time, in trajectory order
        per_ts_sum = np.vstack([per_ts_sum, err]).sum(axis=0)
        for p, v in _primitives(pred, dts).items():
            pred_prims[p][lo:hi] = v
        lo = hi
    gt_prims = _primitives(truths, truth_dts)

    chi2 = {}
    specs = {}
    for p in PRIMITIVES:
        gt_all = gt_prims[p].ravel()
        spec = histogram_spec_from_samples(gt_all)
        specs[p] = asdict(spec)
        chi2[p] = chi2_distance(pred_prims[p].ravel(), gt_all, spec)

    starts = np.cumsum(counts) - counts
    return MetricsReport(
        ade=float(np.mean(ades)),
        fde=float(np.mean(fdes)),
        min_ade=float(np.mean(np.minimum.reduceat(ades, starts))),
        min_fde=float(np.mean(np.minimum.reduceat(fdes, starts))),
        chi2=chi2,
        per_timestep=(per_ts_sum / n).tolist(),
        n_samples=len(counts),
        histogram_specs=specs,
    )


def _case_arrays(case: int, heads, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """candidate_arrays of one case's heads, each of the ground truth's length."""
    try:
        points, dts = candidate_arrays(heads)
        if points.shape[1] == horizon:
            return points, dts
    except InputShapeError:  # heads of two lengths
        pass
    raise InputShapeError(f"case {case}: prediction/ground-truth length mismatch")


def save_report_json(report: MetricsReport, path):
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)


def save_csv(path, header: list, rows):
    """A header row, then the rows, as csv.writer writes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_report_csv(report: MetricsReport, path):
    rows = [[name, repr(getattr(report, name))] for name in ("ade", "fde", "min_ade", "min_fde")]
    rows += [[f"chi2_{p}", repr(v)] for p, v in report.chi2.items()]
    save_csv(path, ["metric", "value"], rows + [["n_samples", report.n_samples]])


def save_per_timestep_csv(report: MetricsReport, path):
    save_csv(path, ["timestep", "mean_error"],
             [[t, repr(v)] for t, v in enumerate(report.per_timestep)])


def save_bins_csv(bins: list[dict], path):
    save_csv(path, ["bin", "lo", "hi", "count", "mean_ade"],
             [[b["bin"], b["lo"], b["hi"], b["count"], repr(b["mean_ade"])] for b in bins])

"""Differentiable plausibility scorer.

A sigmoid-headed MLP regressed onto the locomotion oracle's reward. Inputs are
canonicalized (root at the origin, facing direction rotated to +x) and the
trajectory is encoded as per-step displacements, so the score is invariant to
rigid motions and the speed cue is explicit. Feature rows are linear in the
displacements, which is what lets a predictor train against the scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gradcore
from .errors import ConfigError, DataError, InputShapeError
from .gradcore import AdamW, MlpModel, TrainConfig
from .oracle import (PELVIS, REQUIRED_JOINTS, ObservableState, PairSet, Trajectory,
                     candidate_arrays, headings, rotation_matrices, rotation_matrix)

DEFAULT_HIDDEN = (128, 128, 128)


@dataclass(frozen=True)
class FeatureLayout:
    horizon: int              # trajectory length T_f
    joint_count: int = len(REQUIRED_JOINTS)
    include_pose: bool = True
    include_velocity: bool = True

    @property
    def feature_size(self) -> int:
        n = 2 * self.horizon
        if self.include_pose:
            n += 3 * self.joint_count
        if self.include_velocity:
            n += 2
        return n


@dataclass
class LocoValModel:
    net: MlpModel
    layout: FeatureLayout

    def __post_init__(self):
        if self.net.layer_sizes[0] != self.layout.feature_size:
            raise ConfigError(
                f"net input size {self.net.layer_sizes[0]} != "
                f"feature size {self.layout.feature_size}"
            )
        if self.net.layer_sizes[-1] != 1 or self.net.output_activation != "sigmoid":
            raise ConfigError("scorer net must have a single sigmoid output")


def build_locoval(layout: FeatureLayout, hidden=DEFAULT_HIDDEN, seed: int = 0) -> LocoValModel:
    rng = np.random.default_rng(seed)
    net = gradcore.init_mlp(
        [layout.feature_size, *hidden, 1], rng,
        hidden_activation="relu", output_activation="sigmoid",
    )
    return LocoValModel(net=net, layout=layout)


# ---------------------------------------------------------------------------
# Canonicalization
#
# A feature row is the trajectory block (per-step displacements rotated into
# the canonical frame) then the observation tail. All scorer features are built
# by encode_steps, one block of step sequences per observable frame.


def canonical_frame(obs: ObservableState) -> tuple[np.ndarray, np.ndarray]:
    """(root position, rotation by -heading) defining the canonical frame."""
    return obs.root_position, rotation_matrix(-obs.heading())


def observation_frame(joints: np.ndarray, velocity: np.ndarray, layout: FeatureLayout
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(roots, rots, tails) of N observables, joints (N, 8, 3) and root
    velocities (N, 2): their canonical frames and the features after the
    trajectory block in those frames, which are the root-relative rotated
    joints (x, y, z per joint), then the rotated root velocity."""
    roots, rots = joints[:, PELVIS, :2], rotation_matrices(-headings(joints, velocity))
    n = len(joints)
    parts = []
    if layout.include_pose:
        if joints.shape[1] != layout.joint_count:
            raise InputShapeError(f"expected {layout.joint_count} joints, got {joints.shape[1]}")
        pose = joints.copy()
        pose[:, :, :2] = (rots[:, None] @ (joints[:, :, :2] - roots[:, None])[..., None])[..., 0]
        parts.append(pose.reshape(n, -1))
    if layout.include_velocity:
        parts.append((rots @ velocity[:, :, None])[:, :, 0])
    return roots, rots, np.concatenate(parts, axis=1) if parts else np.empty((n, 0))


def encode_steps(steps: np.ndarray, rot: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Feature rows (N, M, F) of N blocks of M world-frame step sequences
    (N, M, T_f, 2), block i in the canonical frame of observable i: rotation
    rot[i] (2, 2) and observation tail tail[i] (F - 2 T_f). One (M·T_f, 2)
    matmul per block rotates its steps."""
    n, m, horizon = steps.shape[:3]
    width = 2 * horizon
    rows = np.empty((n, m, width + tail.shape[1]), dtype=np.result_type(steps, rot, tail))
    rows[:, :, :width] = (steps.reshape(n, m * horizon, 2)
                          @ np.swapaxes(rot, 1, 2)).reshape(n, m, width)
    rows[:, :, width:] = tail[:, None]
    return rows


def _feature_rows(points: np.ndarray, frame, joints: np.ndarray, velocity: np.ndarray,
                  layout: FeatureLayout) -> np.ndarray:
    """Feature rows (N, M, F) of N blocks of trajectories (N, M, T_f, 2), block
    i in the frame that frame[i] indexes from one observation_frame call on the
    observables (joints (S, 8, 3), velocities (S, 2)); the first step is from
    the root."""
    if points.shape[-2] != layout.horizon:
        raise InputShapeError(f"trajectory length {points.shape[-2]} != layout horizon "
                              f"{layout.horizon}")
    roots, rots, tails = observation_frame(joints, velocity, layout)
    steps = np.empty_like(points)
    steps[:, :, 0] = points[:, :, 0] - roots[frame][:, None]
    steps[:, :, 1:] = points[:, :, 1:] - points[:, :, :-1]
    return encode_steps(steps, rots[frame], tails[frame])


def canonicalize(traj: Trajectory, obs: ObservableState, layout: FeatureLayout) -> np.ndarray:
    """Feature vector: rotated per-step displacements (first step taken from
    the root), then root-relative rotated joints, then rotated root velocity."""
    return _feature_rows(traj.points[None, None], np.s_[:], obs.joint_array()[None],
                         obs.root_velocity[None], layout)[0, 0]


# ---------------------------------------------------------------------------
# Scoring
#
# The scoring contract: score_heads scores the N·K feature rows of N windows'
# heads with one forward, so its scores are that forward's rows bit for bit;
# score_batch is its one-window call and score(traj, obs) score_batch([traj],
# obs)[0]. A row's last bits can depend on how many rows share the pass (gemm
# against gemv), so it agrees with a forward of fewer rows within rounding.


def score(model: LocoValModel, traj: Trajectory, obs: ObservableState) -> float:
    """The score of one trajectory."""
    return score_batch(model, [traj], obs)[0]


def score_heads(model: LocoValModel, heads: np.ndarray, joints: np.ndarray,
                velocity: np.ndarray) -> np.ndarray:
    """Scores (N, K) of N windows' heads (N, K, T_f, 2), each window's heads
    in the canonical frame of its observable (joints (N, 8, 3), root
    velocities (N, 2)), from one forward over the N·K rows."""
    n, k = heads.shape[:2]
    X = _feature_rows(heads, np.s_[:], joints, velocity, model.layout)
    return gradcore.forward(model.net, X.reshape(n * k, -1))[:, 0].reshape(n, k)


def score_batch(model: LocoValModel, candidates, obs: ObservableState) -> list[float]:
    """Scores of candidates (a TrajectorySet or a sequence of Trajectory
    objects) sharing one observable: score_heads of that one window."""
    if not len(candidates):
        return []
    points, _ = candidate_arrays(candidates)
    return score_heads(model, points[None], obs.joint_array()[None],
                       obs.root_velocity[None])[0].tolist()


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainingCurvePoint:
    step: int
    lr: float
    train_mse: float
    holdout_mse: float


@dataclass
class LocoValTrainResult:
    model: LocoValModel
    curve: list[TrainingCurvePoint]
    best_holdout_mse: float
    holdout_indices: np.ndarray


def features_and_targets(pairs: PairSet, layout: FeatureLayout) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows, canonicalized in one batch of one-pair blocks, each in the
    frame of its pair's state, and oracle rewards."""
    X = _feature_rows(pairs.points[:, None], pairs.state, pairs.joints, pairs.velocity, layout)
    return X[:, 0], pairs.rewards


def train_locoval(
    pairs: PairSet,
    config: TrainConfig,
    layout: FeatureLayout | None = None,
    hidden=DEFAULT_HIDDEN,
    holdout_fraction: float = 0.1,
) -> LocoValTrainResult:
    """Regression against oracle rewards with best-checkpoint selection on a
    held-out split, checked at each curve point of gradcore.TrainingSteps,
    whose numeric rule the steps run under."""
    if not len(pairs):
        raise DataError("empty training dataset")
    if layout is None:
        layout = FeatureLayout(horizon=pairs.horizon)

    model = build_locoval(layout, hidden=hidden, seed=config.seed)
    X, y = features_and_targets(pairs, layout)

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(X))
    n_hold = max(1, int(round(holdout_fraction * len(X))))
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    if holdout_fraction == 0 or len(train_idx) == 0:
        # a fraction of 0, or too few pairs to hold any out: select the
        # checkpoint on the training pairs
        train_idx = hold_idx = perm
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_ho, y_ho = X[hold_idx], y[hold_idx]

    opt = AdamW(model.net, config)
    best_params = model.net.copy()
    best_mse = math.inf
    curve = []

    with gradcore.TrainingSteps(config.total_steps) as training:
        for step, closes_interval in training:
            idx = rng.integers(len(X_tr), size=min(config.batch_size, len(X_tr)))
            xb, yb = X_tr[idx], y_tr[idx]
            out, cache = gradcore.forward_cached(model.net, xb)
            err = out[:, 0] - yb
            upstream = (2.0 * err / len(err))[:, None]
            opt.step(model.net, gradcore.backward(model.net, cache, upstream))

            if closes_interval:
                ho = float(np.mean((gradcore.forward(model.net, X_ho)[:, 0] - y_ho) ** 2))
                train_mse = float(np.mean(err**2))
                curve.append(TrainingCurvePoint(step + 1, opt.current_lr(), train_mse, ho))
                if ho < best_mse:
                    best_mse = ho
                    best_params = model.net.copy()

    model = LocoValModel(net=best_params, layout=layout)
    return LocoValTrainResult(
        model=model, curve=curve, best_holdout_mse=best_mse, holdout_indices=hold_idx
    )


# ---------------------------------------------------------------------------
# Checkpoint I/O


def save_locoval(model: LocoValModel, path, train_config: TrainConfig | None = None):
    gradcore.save_checkpoint({"net": gradcore.model_to_dict(model.net),
                              "feature_layout": model.layout, "train_config": train_config}, path)


def load_locoval(path) -> LocoValModel:
    def build(doc):
        if "feature_layout" not in doc:
            raise ConfigError("not a scorer checkpoint (missing feature_layout)")
        return LocoValModel(net=gradcore.model_from_dict(doc["net"]),
                            layout=gradcore.read_field(doc, "feature_layout", FeatureLayout))

    return gradcore.load_checkpoint(path, build)

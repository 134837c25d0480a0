"""Differentiable plausibility scorer.

A sigmoid-headed MLP regressed onto the locomotion oracle's reward. Inputs are
canonicalized (root at the origin, facing direction rotated to +x) and the
trajectory is encoded as per-step displacements, so the score is invariant to
rigid motions and the speed cue is explicit. Feature rows are linear in the
displacements and encode_steps_adjoint pulls gradients back to them, which is
what lets a predictor train against the scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import gradcore
from .errors import ConfigError, DataError, InputShapeError
from .gradcore import AdamW, MlpModel, TrainConfig
from .oracle import (
    REQUIRED_JOINTS,
    ObservableState,
    PlausibilitySample,
    Trajectory,
    rotation_matrix,
)

CHECKPOINT_SCHEMA_VERSION = 1
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
# by encode_steps, and all gradients to the steps by encode_steps_adjoint.


def canonical_frame(obs: ObservableState) -> tuple[np.ndarray, np.ndarray]:
    """(root position, rotation by -heading) defining the canonical frame."""
    return obs.root_position, rotation_matrix(-obs.heading())


def observation_frame(obs: ObservableState, layout: FeatureLayout
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(root, rot, tail) of one observable: its canonical frame and the
    features after the trajectory block in that frame, which are the
    root-relative rotated joints (x, y, z per joint in the observable's joint
    order), then the rotated root velocity."""
    root, rot = canonical_frame(obs)
    parts = []
    if layout.include_pose:
        names = obs.joint_order()
        if len(names) != layout.joint_count:
            raise InputShapeError(f"expected {layout.joint_count} joints, got {len(names)}")
        joints = np.stack([obs.joints[n] for n in names])
        xy = (rot[None] @ (joints[:, :2] - root)[:, :, None])[:, :, 0]
        parts.append(np.column_stack([xy, joints[:, 2]]).reshape(-1))
    if layout.include_velocity:
        parts.append(rot @ obs.root_velocity)
    return root, rot, np.concatenate(parts) if parts else np.empty(0)


def encode_steps(steps: np.ndarray, rot: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Feature rows (N, F) for N world-frame step sequences (N, T_f, 2).

    rot is one (2, 2) canonical rotation or one per row (N, 2, 2); tail is one
    observation tail or one per row (N, F - 2 T_f)."""
    n, horizon = steps.shape[:2]
    rotated = (steps @ np.swapaxes(rot, -1, -2)).reshape(n, 2 * horizon)
    tail = np.broadcast_to(tail, (n, tail.shape[-1]))
    return np.concatenate([rotated, tail], axis=1)


def encode_steps_adjoint(feature_grad: np.ndarray, rot: np.ndarray,
                         horizon: int) -> np.ndarray:
    """Pull gradients w.r.t. feature rows (N, F) back to the world-frame steps
    (N, T_f, 2) passed to encode_steps with the same rot."""
    g = feature_grad[:, : 2 * horizon].reshape(len(feature_grad), horizon, 2)
    return g @ rot


def _check_horizon(traj: Trajectory, layout: FeatureLayout):
    if len(traj) != layout.horizon:
        raise InputShapeError(
            f"trajectory length {len(traj)} != layout horizon {layout.horizon}"
        )


def _steps_from(root: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per-step displacements of points (N, T, 2), the first step taken from
    root, which is one (2,) position or one per row (N, 2)."""
    steps = np.empty_like(points)
    steps[:, 0] = points[:, 0] - root
    steps[:, 1:] = points[:, 1:] - points[:, :-1]
    return steps


def canonicalize(traj: Trajectory, obs: ObservableState, layout: FeatureLayout) -> np.ndarray:
    """Feature vector: rotated per-step displacements (first step taken from
    the root), then root-relative rotated joints, then rotated root velocity."""
    return _canonicalize_shared([traj], obs, layout)[0]


def _canonicalize_shared(trajs: list[Trajectory], obs: ObservableState,
                         layout: FeatureLayout) -> np.ndarray:
    """Feature rows of trajectories in the canonical frame of one observable."""
    for traj in trajs:
        _check_horizon(traj, layout)
    root, rot, tail = observation_frame(obs, layout)
    return encode_steps(_steps_from(root, np.stack([t.points for t in trajs])), rot, tail)


# ---------------------------------------------------------------------------
# Scoring


def score(model: LocoValModel, traj: Trajectory, obs: ObservableState) -> float:
    feats = canonicalize(traj, obs, model.layout)
    return float(gradcore.forward(model.net, feats)[0])


def score_batch(model: LocoValModel, candidates: list[Trajectory],
                obs: ObservableState) -> list[float]:
    """Scores of candidates sharing one observable. The candidates are
    canonicalized together; each row gets its own forward pass so a score
    does not depend on the batch it came in."""
    if not candidates:
        return []
    X = _canonicalize_shared(candidates, obs, model.layout)
    return [float(gradcore.forward(model.net, x)[0]) for x in X]


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


def features_and_targets(dataset: list[PlausibilitySample],
                         layout: FeatureLayout) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows, canonicalized in one batch, and oracle rewards. Samples
    may share one ObservableState, which nothing mutates; the canonical frame
    and observation tail are computed once per distinct observable."""
    n = len(dataset)
    points = np.empty((n, layout.horizon, 2))
    which = np.empty(n, dtype=np.intp)
    observables = {}  # id of an observable -> (its index, the observable)
    for i, s in enumerate(dataset):
        _check_horizon(s.trajectory, layout)
        points[i] = s.trajectory.points
        which[i] = observables.setdefault(id(s.observable), (len(observables), s.observable))[0]
    roots, rots, tails = map(np.stack, zip(*(observation_frame(obs, layout)
                                             for _, obs in observables.values())))
    X = encode_steps(_steps_from(roots[which], points), rots[which], tails[which])
    y = np.array([s.reward for s in dataset])
    return X, y


def train_locoval(
    dataset: list[PlausibilitySample],
    config: TrainConfig,
    layout: FeatureLayout | None = None,
    hidden=DEFAULT_HIDDEN,
    holdout_fraction: float = 0.1,
    eval_every: int = 50,
) -> LocoValTrainResult:
    """Regression against oracle rewards with best-checkpoint selection on a
    held-out split."""
    if not dataset:
        raise DataError("empty training dataset")
    horizon = len(dataset[0].trajectory)
    n_joints = len(dataset[0].observable.joints)
    for s in dataset:
        if len(s.trajectory) != horizon or len(s.observable.joints) != n_joints:
            raise InputShapeError("inconsistent trajectory/joint shapes in dataset")
    if layout is None:
        layout = FeatureLayout(horizon=horizon, joint_count=n_joints)

    model = build_locoval(layout, hidden=hidden, seed=config.seed)
    X, y = features_and_targets(dataset, layout)

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(X))
    n_hold = max(1, int(round(holdout_fraction * len(X)))) if len(X) > 1 else 0
    hold_idx, train_idx = perm[:n_hold], perm[n_hold:]
    if len(train_idx) == 0:
        train_idx, hold_idx = perm, perm
    if len(hold_idx) == 0:
        # no held-out split requested: select the checkpoint on training data
        hold_idx = train_idx
    X_tr, y_tr = X[train_idx], y[train_idx]
    X_ho, y_ho = X[hold_idx], y[hold_idx]

    opt = AdamW(model.net, config)
    best_params = model.net.copy()
    best_mse = math.inf
    curve = []

    def holdout_mse(net: MlpModel) -> float:
        pred = gradcore.forward(net, X_ho)[:, 0]
        return float(np.mean((pred - y_ho) ** 2))

    for step in range(config.total_steps):
        idx = rng.integers(len(X_tr), size=min(config.batch_size, len(X_tr)))
        xb, yb = X_tr[idx], y_tr[idx]
        out, cache = gradcore.forward_cached(model.net, xb)
        err = out[:, 0] - yb
        train_mse = float(np.mean(err**2))
        upstream = (2.0 * err / len(err))[:, None]
        grads = gradcore.backward(model.net, cache, upstream)
        opt.step(model.net, grads)

        if (step + 1) % eval_every == 0 or step == config.total_steps - 1:
            ho = holdout_mse(model.net)
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


def save_locoval(model: LocoValModel, path, seed: int | None = None,
                 train_config: TrainConfig | None = None):
    doc = gradcore.model_to_dict(model.net, seed=seed, train_config=train_config)
    doc["feature_layout"] = asdict(model.layout)
    doc["locoval_schema_version"] = CHECKPOINT_SCHEMA_VERSION
    gradcore.save_checkpoint(doc, path)


def load_locoval(path) -> LocoValModel:
    def build(doc):
        if "feature_layout" not in doc:
            raise ConfigError(f"{path}: not a scorer checkpoint (missing feature_layout)")
        return LocoValModel(net=gradcore.model_from_dict(doc),
                            layout=FeatureLayout(**doc["feature_layout"]))

    return gradcore.load_checkpoint(path, build)

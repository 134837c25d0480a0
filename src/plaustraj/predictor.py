"""Compact multi-head trajectory predictor.

A shared MLP trunk feeds K linear heads that each emit future per-step
displacements; predicted trajectories are cumulative sums anchored at the
last observed position. Training combines the ground-truth loss (MSE for one
head, min-of-K MSE for several) with a plausibility regularizer evaluated by
a frozen scorer on every head.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import gradcore, locoval as locoval_mod
from .datakit import TrainingInstance
from .errors import ConfigError, DataError, InputShapeError
from .gradcore import AdamW, MlpModel, TrainConfig
from .locoval import LocoValModel, canonical_frame
from .oracle import ObservableState, Trajectory

CHECKPOINT_SCHEMA_VERSION = 1
EMLOCO_FORMS = ("squared", "negative")


@dataclass(frozen=True)
class InputLayout:
    past_frames: int            # T_p
    include_pose: bool = True
    joint_count: int = 8

    @property
    def feature_size(self) -> int:
        n = 2 * self.past_frames
        if self.include_pose:
            n += 3 * self.joint_count
        return n


@dataclass
class PredictorModel:
    trunk: MlpModel
    heads: list[MlpModel]
    horizon: int                # T_f
    input_layout: InputLayout

    @property
    def n_heads(self) -> int:
        return len(self.heads)

    def __post_init__(self):
        if not self.heads:
            raise ConfigError("need at least one prediction head")
        trunk_out = self.trunk.layer_sizes[-1]
        for k, head in enumerate(self.heads):
            if head.layer_sizes[0] != trunk_out:
                raise ConfigError(f"head {k} input != trunk output")
            if head.layer_sizes[-1] != 2 * self.horizon:
                raise ConfigError(f"head {k} must emit {2 * self.horizon} displacements")
        if self.trunk.layer_sizes[0] != self.input_layout.feature_size:
            raise ConfigError("trunk input size != input layout feature size")


@dataclass
class PredictionSet:
    trajectories: list[Trajectory]
    anchor: np.ndarray  # last observed position

    @property
    def n_heads(self) -> int:
        return len(self.trajectories)

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float)
        for traj in self.trajectories:
            if not np.all(np.isfinite(traj.points)):
                raise InputShapeError("non-finite predicted trajectory")


def build_predictor(
    input_layout: InputLayout,
    horizon: int,
    n_heads: int,
    trunk_hidden=(256, 256),
    seed: int = 0,
) -> PredictorModel:
    """Trunk and heads drawn from head-specific seeds so heads start diverse."""
    rng = np.random.default_rng(seed)
    trunk = gradcore.init_mlp(
        [input_layout.feature_size, *trunk_hidden], rng,
        hidden_activation="relu", output_activation="identity",
    )
    heads = []
    for k in range(n_heads):
        head_rng = np.random.default_rng(np.random.SeedSequence([seed, k + 1]))
        heads.append(
            gradcore.init_mlp(
                [trunk_hidden[-1], 2 * horizon], head_rng,
                hidden_activation="relu", output_activation="identity",
            )
        )
    return PredictorModel(trunk=trunk, heads=heads, horizon=horizon,
                          input_layout=input_layout)


# ---------------------------------------------------------------------------
# Forward path


def build_input(past: Trajectory, obs: ObservableState | None,
                layout: InputLayout) -> np.ndarray:
    """Past positions relative to the last observed point, plus root-relative
    pose joints (world orientation kept so heading stays observable)."""
    if len(past) != layout.past_frames:
        raise InputShapeError(
            f"past length {len(past)} != layout past_frames {layout.past_frames}"
        )
    rel = (past.points - past.points[-1]).reshape(-1)
    if not layout.include_pose:
        return rel
    if obs is None:
        raise InputShapeError("layout includes pose but no observable state given")
    names = obs.joint_order()
    if len(names) != layout.joint_count:
        raise InputShapeError(f"expected {layout.joint_count} joints, got {len(names)}")
    parts = [rel]
    root = obs.root_position
    for name in names:
        j = obs.joints[name]
        parts.append(np.array([j[0] - root[0], j[1] - root[1], j[2]]))
    return np.concatenate(parts)


def head_displacements(model: PredictorModel, features: np.ndarray) -> np.ndarray:
    """All-head displacements for a batch, shape (K, B, T_f, 2)."""
    single = features.ndim == 1
    X = features[None, :] if single else features
    trunk_out, _ = gradcore.forward_cached(model.trunk, X)
    out = np.stack(
        [
            gradcore.forward(head, trunk_out).reshape(len(X), model.horizon, 2)
            for head in model.heads
        ]
    )
    return out[:, 0] if single else out


def predict(model: PredictorModel, past: Trajectory,
            obs: ObservableState | None = None) -> PredictionSet:
    feats = build_input(past, obs, model.input_layout)
    disp = head_displacements(model, feats)  # (K, T_f, 2)
    anchor = past.points[-1]
    trajectories = [
        Trajectory(anchor + np.cumsum(d, axis=0), past.dt) for d in disp
    ]
    return PredictionSet(trajectories=trajectories, anchor=anchor)


# ---------------------------------------------------------------------------
# Losses


def _traj_mse(pred: Trajectory, gt: Trajectory) -> float:
    if len(pred) != len(gt):
        raise InputShapeError("prediction/ground-truth length mismatch")
    return float(np.mean((pred.points - gt.points) ** 2))


def loss_mse(pred: PredictionSet, gt: Trajectory) -> float:
    """Deterministic-setting MSE; requires a single head."""
    if pred.n_heads != 1:
        raise InputShapeError("loss_mse expects a single-head prediction set")
    return _traj_mse(pred.trajectories[0], gt)


def loss_minmse(pred: PredictionSet, gt: Trajectory) -> tuple[float, int]:
    """Min over heads of per-head MSE; ties go to the lowest head index."""
    values = [_traj_mse(t, gt) for t in pred.trajectories]
    k = int(np.argmin(values))
    return values[k], k


def loss_emloco(scorer: LocoValModel, pred: PredictionSet, obs: ObservableState,
                form: str = "squared") -> float:
    """Plausibility regularizer averaged over every head.

    squared: mean_k (score_k - 1)^2, bounded in [0, 1];
    negative: mean_k -score_k.
    """
    if form not in EMLOCO_FORMS:
        raise ConfigError(f"unknown regularizer form {form!r}")
    scores = locoval_mod.score_batch(scorer, pred.trajectories, obs)
    if form == "squared":
        return float(np.mean([(s - 1.0) ** 2 for s in scores]))
    return float(np.mean([-s for s in scores]))


def loss_total(l_t: float, l_e: float, alpha: float) -> float:
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    return l_t + alpha * l_e


# ---------------------------------------------------------------------------
# Training


@dataclass
class PredictorCurvePoint:
    step: int
    loss_gt: float
    loss_plaus: float
    ratio: float  # alpha * loss_plaus / loss_gt
    regularizer_dominates: bool


@dataclass
class PredictorTrainResult:
    model: PredictorModel
    curve: list[PredictorCurvePoint]
    alpha: float
    n_heads: int


def _prepare_training_arrays(dataset: list[TrainingInstance], model: PredictorModel,
                             scorer: LocoValModel | None):
    layout = model.input_layout
    X = np.stack([build_input(inst.past, inst.observable, layout) for inst in dataset])
    gt = np.stack([inst.future.points for inst in dataset])
    anchors = np.stack([inst.past.points[-1] for inst in dataset])
    rots = offsets = tails = None
    if scorer is not None:
        frames = [canonical_frame(inst.observable) for inst in dataset]
        rots = np.stack([rot for _, rot in frames])
        offsets = anchors - np.stack([root for root, _ in frames])
        tails = np.stack([
            locoval_mod.observation_tail(inst.observable, root, rot, scorer.layout)
            for inst, (root, rot) in zip(dataset, frames)
        ])
    return X, gt, anchors, rots, offsets, tails


def train_predictor(
    dataset: list[TrainingInstance],
    scorer: LocoValModel | None,
    config: TrainConfig,
    alpha: float = 0.0,
    n_heads: int = 1,
    trunk_hidden=(256, 256),
    emloco_form: str = "squared",
    model: PredictorModel | None = None,
    eval_every: int = 50,
    include_gt_loss: bool = True,
) -> PredictorTrainResult:
    """Train with loss_gt + alpha * regularizer; the scorer's weights stay
    frozen. At alpha == 0 the regularizer term is fully detached so results
    are bit-identical to a run without a scorer."""
    if not dataset:
        raise DataError("empty training dataset")
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    if alpha > 0 and scorer is None:
        raise ConfigError("alpha > 0 requires a scorer")
    if emloco_form not in EMLOCO_FORMS:
        raise ConfigError(f"unknown regularizer form {emloco_form!r}")

    horizon = len(dataset[0].future)
    if model is None:
        layout = InputLayout(
            past_frames=len(dataset[0].past),
            include_pose=True,
            joint_count=len(dataset[0].observable.joints),
        )
        model = build_predictor(layout, horizon, n_heads, trunk_hidden, seed=config.seed)
    if model.horizon != horizon:
        raise ConfigError("model horizon does not match dataset future length")
    if scorer is not None and scorer.layout.horizon != horizon:
        raise ConfigError("scorer horizon does not match dataset future length")
    K = model.n_heads

    X, gt, anchors, rots, offsets, tails = _prepare_training_arrays(dataset, model, scorer)
    n = len(X)
    rng = np.random.default_rng(config.seed)
    opt_trunk = AdamW(model.trunk, config)
    opt_heads = [AdamW(h, config) for h in model.heads]

    curve = []
    acc_gt, acc_pl, acc_n = 0.0, 0.0, 0

    for step in range(config.total_steps):
        idx = rng.integers(n, size=min(config.batch_size, n))
        xb = X[idx]
        gtb = gt[idx]          # (B, T_f, 2)
        anchb = anchors[idx]   # (B, 2)
        B = len(idx)

        trunk_out, trunk_cache = gradcore.forward_cached(model.trunk, xb)
        head_caches = []
        disp = np.empty((K, B, horizon, 2))
        for k, head in enumerate(model.heads):
            out, cache = gradcore.forward_cached(head, trunk_out)
            head_caches.append(cache)
            disp[k] = out.reshape(B, horizon, 2)
        points = anchb[None, :, None, :] + np.cumsum(disp, axis=2)  # (K, B, T_f, 2)

        # upstream gradients on displacements, per head
        d_disp = np.zeros_like(disp)
        loss_gt_val = 0.0
        if include_gt_loss:
            err = points - gtb[None]                       # (K, B, T_f, 2)
            per_head_mse = np.mean(err**2, axis=(2, 3))    # (K, B)
            if K == 1:
                loss_gt_val = float(np.mean(per_head_mse))
                d_points = 2.0 * err[0] / (2 * horizon) / B
                d_disp[0] += np.flip(np.cumsum(np.flip(d_points, axis=1), axis=1), axis=1)
            else:
                sel = np.argmin(per_head_mse, axis=0)      # (B,)
                loss_gt_val = float(np.mean(per_head_mse[sel, np.arange(B)]))
                for k in range(K):
                    mask = sel == k
                    if not np.any(mask):
                        continue
                    d_points = np.zeros((B, horizon, 2))
                    d_points[mask] = 2.0 * err[k, mask] / (2 * horizon) / B
                    d_disp[k] += np.flip(
                        np.cumsum(np.flip(d_points, axis=1), axis=1), axis=1
                    )

        loss_pl_val = 0.0
        if scorer is not None:
            rb, ob, tb = rots[idx], offsets[idx], tails[idx]
            for k in range(K):
                steps = disp[k].copy()
                steps[:, 0, :] += ob
                feats = locoval_mod.encode_steps(steps, rb, tb)
                s_out, s_cache = gradcore.forward_cached(scorer.net, feats)
                s = s_out[:, 0]
                if emloco_form == "squared":
                    loss_pl_val += float(np.mean((s - 1.0) ** 2))
                    ds = 2.0 * (s - 1.0) / B / K
                else:
                    loss_pl_val += float(np.mean(-s))
                    ds = np.full(B, -1.0 / B / K)
                if alpha > 0.0:
                    s_grads = gradcore.backward(scorer.net, s_cache, ds[:, None])
                    d_disp[k] += alpha * locoval_mod.encode_steps_adjoint(
                        s_grads.inputs, rb, horizon
                    )
            loss_pl_val /= K

        # backprop heads into the trunk
        d_trunk_out = np.zeros_like(trunk_out)
        for k, head in enumerate(model.heads):
            upstream = d_disp[k].reshape(B, 2 * horizon)
            g = gradcore.backward(head, head_caches[k], upstream)
            d_trunk_out += g.inputs
            opt_heads[k].step(head, g)
        g_trunk = gradcore.backward(model.trunk, trunk_cache, d_trunk_out)
        opt_trunk.step(model.trunk, g_trunk)

        acc_gt += loss_gt_val
        acc_pl += loss_pl_val
        acc_n += 1
        if (step + 1) % eval_every == 0 or step == config.total_steps - 1:
            mean_gt = acc_gt / acc_n
            mean_pl = acc_pl / acc_n
            ratio = alpha * mean_pl / mean_gt if mean_gt > 0 else math.inf
            dominates = bool(alpha * mean_pl > mean_gt) and include_gt_loss
            curve.append(
                PredictorCurvePoint(step + 1, mean_gt, mean_pl, ratio, dominates)
            )
            acc_gt, acc_pl, acc_n = 0.0, 0.0, 0

    return PredictorTrainResult(model=model, curve=curve, alpha=alpha, n_heads=K)


# ---------------------------------------------------------------------------
# Checkpoint I/O


def save_predictor(result_or_model, path, alpha: float | None = None,
                   locoval_checksum: str | None = None,
                   train_config: TrainConfig | None = None):
    model = result_or_model.model if isinstance(result_or_model, PredictorTrainResult) else result_or_model
    if isinstance(result_or_model, PredictorTrainResult) and alpha is None:
        alpha = result_or_model.alpha
    doc = {
        "predictor_schema_version": CHECKPOINT_SCHEMA_VERSION,
        "trunk": gradcore.model_to_dict(model.trunk, train_config=train_config),
        "heads": [gradcore.model_to_dict(h) for h in model.heads],
        "horizon": model.horizon,
        "input_layout": asdict(model.input_layout),
        "alpha": alpha,
        "locoval_checksum": locoval_checksum,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_predictor(path) -> PredictorModel:
    with open(path) as fh:
        doc = json.load(fh)
    if "trunk" not in doc or "heads" not in doc:
        raise ConfigError(f"{path}: not a predictor checkpoint")
    return PredictorModel(
        trunk=gradcore.model_from_dict(doc["trunk"]),
        heads=[gradcore.model_from_dict(h) for h in doc["heads"]],
        horizon=int(doc["horizon"]),
        input_layout=InputLayout(**doc["input_layout"]),
    )

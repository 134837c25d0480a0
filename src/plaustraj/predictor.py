"""Compact multi-head trajectory predictor.

A shared MLP trunk feeds one linear head layer whose column block k holds
head k's future per-step displacements; predicted trajectories are cumulative
sums anchored at the last observed position. Training combines the min-of-K
MSE (plain MSE for one head) with a plausibility regularizer evaluated by a
frozen scorer on every head. Checkpoints store one single-layer entry per head.
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
    head: MlpModel              # one linear layer [H, K·2·T_f]; column block k is head k
    horizon: int                # T_f
    input_layout: InputLayout

    @property
    def n_heads(self) -> int:
        return self.head.layer_sizes[-1] // (2 * self.horizon)

    def __post_init__(self):
        width = self.head.layer_sizes[-1]
        if (self.horizon < 1 or self.head.n_layers != 1 or width < 1
                or width % (2 * self.horizon)):
            raise ConfigError(
                f"the head must be one linear layer emitting a multiple of "
                f"{2 * self.horizon} displacements"
            )
        if self.head.layer_sizes[0] != self.trunk.layer_sizes[-1]:
            raise ConfigError("head input != trunk output")
        if self.trunk.layer_sizes[0] != self.input_layout.feature_size:
            raise ConfigError("trunk input size != input layout feature size")


def _fuse_heads(heads: list[MlpModel], horizon: int) -> MlpModel:
    """One linear layer whose column block k is heads[k]'s only layer."""
    if not heads:
        raise ConfigError("need at least one prediction head")
    first, sizes = heads[0], [heads[0].layer_sizes[0], 2 * horizon]
    for k, h in enumerate(heads):
        if h.layer_sizes != sizes or h.output_activation != first.output_activation:
            raise ConfigError(f"head {k} must be one linear layer {sizes} like head 0")
    return MlpModel([sizes[0], len(heads) * sizes[1]],
                    [np.concatenate([h.weights[0] for h in heads], axis=1)],
                    [np.concatenate([h.biases[0] for h in heads])],
                    first.hidden_activation, first.output_activation)


def _split_head(model: PredictorModel) -> list[MlpModel]:
    """One single-layer model per column block: the inverse of _fuse_heads."""
    h, K = model.head, model.n_heads
    return [MlpModel([len(w), w.shape[1]], [w], [b], h.hidden_activation, h.output_activation)
            for w, b in zip(np.split(h.weights[0], K, axis=1), np.split(h.biases[0], K))]


def _head_blocks(out: np.ndarray, horizon: int) -> np.ndarray:
    """(B, K·2T_f) head-layer rows as a (K, B, T_f, 2) view of the same memory."""
    return out.reshape(len(out), -1, horizon, 2).transpose(1, 0, 2, 3)


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
    """Trunk and heads drawn from head-specific seeds so heads start diverse:
    head k's column block from SeedSequence([seed, k + 1])."""
    rng = np.random.default_rng(seed)
    trunk = gradcore.init_mlp(
        [input_layout.feature_size, *trunk_hidden], rng,
        hidden_activation="relu", output_activation="identity",
    )
    heads = [
        gradcore.init_mlp(
            [trunk_hidden[-1], 2 * horizon],
            np.random.default_rng(np.random.SeedSequence([seed, k + 1])),
            hidden_activation="relu", output_activation="identity",
        )
        for k in range(n_heads)
    ]
    return PredictorModel(trunk=trunk, head=_fuse_heads(heads, horizon),
                          horizon=horizon, input_layout=input_layout)


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


def predict(model: PredictorModel, past: Trajectory,
            obs: ObservableState | None = None) -> PredictionSet:
    feats = build_input(past, obs, model.input_layout)
    trunk_out = gradcore.forward(model.trunk, feats[None])
    disp = _head_blocks(gradcore.forward(model.head, trunk_out), model.horizon)[:, 0]
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
    opt_head = AdamW(model.head, config)

    curve = []
    acc_gt, acc_pl, acc_n = 0.0, 0.0, 0

    for step in range(config.total_steps):
        idx = rng.integers(n, size=min(config.batch_size, n))
        xb = X[idx]
        gtb = gt[idx]          # (B, T_f, 2)
        anchb = anchors[idx]   # (B, 2)
        B = len(idx)

        trunk_out, trunk_cache = gradcore.forward_cached(model.trunk, xb)
        out, head_cache = gradcore.forward_cached(model.head, trunk_out)
        disp = _head_blocks(out, horizon)                            # (K, B, T_f, 2)
        points = anchb[None, :, None, :] + np.cumsum(disp, axis=2)  # (K, B, T_f, 2)

        # upstream gradients on the head layer's output, written through d_disp
        d_out = np.zeros_like(out)
        d_disp = _head_blocks(d_out, horizon)
        loss_gt_val = 0.0
        if include_gt_loss:
            # min-of-K: each sample's gradient goes to its argmin head only
            err = points - gtb[None]                       # (K, B, T_f, 2)
            per_head_mse = np.mean(err**2, axis=(2, 3))    # (K, B)
            sel = np.argmin(per_head_mse, axis=0)          # (B,)
            rows = np.arange(B)
            loss_gt_val = float(np.mean(per_head_mse[sel, rows]))
            d_points = 2.0 * err[sel, rows] / (2 * horizon) / B
            d_disp[sel, rows] = np.flip(np.cumsum(np.flip(d_points, axis=1), axis=1), axis=1)

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

        g_head = gradcore.backward(model.head, head_cache, d_out)
        opt_head.step(model.head, g_head)
        g_trunk = gradcore.backward(model.trunk, trunk_cache, g_head.inputs)
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
        "heads": [gradcore.model_to_dict(h) for h in _split_head(model)],
        "horizon": model.horizon,
        "input_layout": asdict(model.input_layout),
        "alpha": alpha,
        "locoval_checksum": locoval_checksum,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_predictor(path) -> PredictorModel:
    def build(doc):
        if "trunk" not in doc or "heads" not in doc:
            raise ConfigError(f"{path}: not a predictor checkpoint")
        horizon = int(doc["horizon"])
        return PredictorModel(
            trunk=gradcore.model_from_dict(doc["trunk"]),
            head=_fuse_heads([gradcore.model_from_dict(h) for h in doc["heads"]], horizon),
            horizon=horizon,
            input_layout=InputLayout(**doc["input_layout"]),
        )

    return gradcore.load_checkpoint(path, build)

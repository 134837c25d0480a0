"""Compact multi-head trajectory predictor.

A shared MLP trunk feeds one linear head layer whose column block k holds
head k's future per-step displacements; predicted trajectories are cumulative
sums anchored at the last observed position. Training minimizes the min-of-K
MSE (plain MSE for one head) plus alpha * mean_k (score_k - 1)^2, the scores
coming from a frozen scorer on every head. Checkpoints store one single-layer
entry per head.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import gradcore, locoval as locoval_mod
from .datakit import TrainingInstance
from .errors import ConfigError, DataError, InputShapeError
from .gradcore import AdamW, MlpModel, TrainConfig
# canonical_frame is imported for the traced benchmark, which wraps
# predictor.canonical_frame
from .locoval import LocoValModel, canonical_frame  # noqa: F401
from .oracle import ObservableState, Trajectory

CHECKPOINT_SCHEMA_VERSION = 1


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
        roots, rots, tails = map(np.stack, zip(*(
            locoval_mod.observation_frame(inst.observable, scorer.layout) for inst in dataset)))
        offsets = anchors - roots
    return X, gt, anchors, rots, offsets, tails


def min_of_k_mse(points: np.ndarray, gt: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Min-of-K MSE of head points (K, B, T_f, 2) against ground truths
    (B, T_f, 2), plain MSE for one head. Returns the mean over samples of the
    smallest per-head MSE, the argmin head per sample (ties go to the lowest
    index) and the gradient w.r.t. points[sel[b], b] (B, T_f, 2); every other
    head's points get zero gradient."""
    B, horizon = points.shape[1:3]
    rows = np.arange(B)
    err = points - gt[None]
    per_head = np.mean(err**2, axis=(2, 3))  # (K, B)
    sel = np.argmin(per_head, axis=0)
    return (float(np.mean(per_head[sel, rows])), sel,
            2.0 * err[sel, rows] / (2 * horizon) / B)


def emloco_loss(scorer: LocoValModel, steps: np.ndarray, rots: np.ndarray,
                tails: np.ndarray) -> tuple[float, tuple]:
    """The Embodied Locomotion term mean_k mean_b (score - 1)^2 of K heads on
    B samples, from one frozen-scorer pass over the K·B rows (row k·B + b).

    steps (K, B, T_f, 2) are world-frame displacements, the first taken from
    sample b's root; rots (B, 2, 2) and tails (B, F - 2 T_f) are each sample's
    canonical rotation and observation tail. Returns the loss and the scorer
    pass, from which emloco_grad takes the gradient."""
    K, B, horizon = steps.shape[:3]
    rb = np.tile(rots, (K, 1, 1))
    feats = locoval_mod.encode_steps(steps.reshape(K * B, horizon, 2), rb,
                                     np.tile(tails, (K, 1)))
    out, cache = gradcore.forward_cached(scorer.net, feats)
    s = out[:, 0].reshape(K, B)
    # added in head order: np.sum's pairwise order would move loss_plaus in the last bits
    loss = sum(float(v) for v in np.mean((s - 1.0) ** 2, axis=1)) / K
    return loss, (s, rb, cache)


def emloco_grad(scorer: LocoValModel, scorer_pass: tuple) -> np.ndarray:
    """Gradient of emloco_loss w.r.t. its steps (K, B, T_f, 2), from the
    scorer pass it returned, with one input-only backward."""
    s, rb, cache = scorer_pass
    K, B = s.shape
    g_feats = gradcore.input_grad(scorer.net, cache, (2.0 * (s - 1.0) / B / K).reshape(K * B, 1))
    horizon = scorer.layout.horizon
    return locoval_mod.encode_steps_adjoint(g_feats, rb, horizon).reshape(K, B, horizon, 2)


def train_predictor(
    dataset: list[TrainingInstance],
    scorer: LocoValModel | None,
    config: TrainConfig,
    alpha: float = 0.0,
    n_heads: int = 1,
    trunk_hidden=(256, 256),
    model: PredictorModel | None = None,
    eval_every: int = 50,
    include_gt_loss: bool = True,
) -> PredictorTrainResult:
    """Train with min_of_k_mse + alpha * emloco_loss; the scorer's weights
    stay frozen. At alpha == 0 the regularizer term is fully detached so
    results are bit-identical to a run without a scorer."""
    if not dataset:
        raise DataError("empty training dataset")
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha > 0 and scorer is None:
        raise ConfigError("alpha > 0 requires a scorer")

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
            loss_gt_val, sel, d_points = min_of_k_mse(points, gtb)
            d_disp[sel, np.arange(B)] = np.flip(np.cumsum(np.flip(d_points, axis=1), axis=1),
                                                axis=1)

        loss_pl_val = 0.0
        if scorer is not None:
            steps = disp.copy()
            steps[:, :, 0, :] += offsets[idx]
            # the pass stays bound until the next one replaces it: freed within a
            # step, its 2.6 MB of activations (K=20, B=32) went back to the
            # system and faulted in again, 630 minor page faults a step, not 15
            loss_pl_val, scorer_pass = emloco_loss(scorer, steps, rots[idx], tails[idx])
            if alpha > 0.0:
                d_disp += alpha * emloco_grad(scorer, scorer_pass)

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
    gradcore.save_checkpoint(doc, path)


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

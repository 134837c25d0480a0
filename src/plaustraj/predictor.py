"""Compact multi-head trajectory predictor.

A shared MLP trunk feeds one linear head layer whose column block k holds
head k's future per-step displacements; predicted trajectories are cumulative
sums anchored at the last observed position. Training minimizes the min-of-K
MSE (plain MSE for one head) plus alpha * mean_k (score_k - 1)^2, the scores
coming from a frozen scorer on every head. Training computes in float32;
the model it returns, checkpoints and predict are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gradcore
from .datakit import WindowSet
from .errors import ConfigError, DataError, InputShapeError
from .gradcore import AdamW, MlpModel, TrainConfig
# canonical_frame is imported for the traced benchmark, which wraps
# predictor.canonical_frame
from .locoval import EmLocoTerm, LocoValModel, canonical_frame  # noqa: F401
from .oracle import PELVIS, REQUIRED_JOINTS, ObservableState, Trajectory, TrajectorySet


@dataclass(frozen=True)
class InputLayout:
    past_frames: int            # T_p
    include_pose: bool = True

    @property
    def feature_size(self) -> int:
        n = 2 * self.past_frames
        if self.include_pose:
            n += 3 * len(REQUIRED_JOINTS)
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


def _fuse_heads(heads: list[MlpModel]) -> MlpModel:
    """One linear layer whose column block k is heads[k]'s only layer."""
    if not heads:
        raise ConfigError("need at least one prediction head")
    return MlpModel([heads[0].layer_sizes[0], sum(h.layer_sizes[1] for h in heads)],
                    [np.concatenate([h.weights[0] for h in heads], axis=1)],
                    [np.concatenate([h.biases[0] for h in heads])])


@dataclass
class PredictionSet:
    trajectories: TrajectorySet  # the K heads, one (K, T_f, 2) array


def build_predictor(
    input_layout: InputLayout,
    horizon: int,
    n_heads: int,
    trunk_hidden=(256, 256),
    seed: int = 0,
) -> PredictorModel:
    """Trunk and heads drawn from head-specific seeds so heads start diverse:
    head k's column block from SeedSequence([seed, k + 1])."""
    trunk = gradcore.init_mlp([input_layout.feature_size, *trunk_hidden],
                              np.random.default_rng(seed))
    heads = [gradcore.init_mlp([trunk_hidden[-1], 2 * horizon],
                               np.random.default_rng(np.random.SeedSequence([seed, k + 1])))
             for k in range(n_heads)]
    return PredictorModel(trunk=trunk, head=_fuse_heads(heads),
                          horizon=horizon, input_layout=input_layout)


# ---------------------------------------------------------------------------
# Forward path


def build_input(past: np.ndarray, joints: np.ndarray | None,
                layout: InputLayout) -> np.ndarray:
    """Input rows (N, F) of N windows: past positions (N, T_p, 2) relative to
    the last observed point, then joints (N, 8, 3) relative to the root on the
    ground plane (world orientation kept so heading stays observable)."""
    if past.shape[1] != layout.past_frames:
        raise InputShapeError(f"past length {past.shape[1]} != layout past_frames "
                              f"{layout.past_frames}")
    rel = (past - past[:, -1:]).reshape(len(past), -1)
    if not layout.include_pose:
        return rel
    if joints is None:
        raise InputShapeError("layout includes pose but no observable state given")
    pose = joints.copy()
    pose[:, :, :2] -= joints[:, PELVIS, None, :2]
    return np.concatenate([rel, pose.reshape(len(pose), -1)], axis=1)


def predict_heads(model: PredictorModel, past: np.ndarray,
                  joints: np.ndarray | None) -> np.ndarray:
    """The K heads (N, K, T_f, 2) of N windows, pasts (N, T_p, 2) and joints
    (N, 8, 3) (None without pose input): one trunk and one head forward over
    the N input rows, and one cumsum of the head rows anchored at each
    window's last observed position."""
    trunk_out = gradcore.forward(model.trunk, build_input(past, joints, model.input_layout))
    out = gradcore.forward(model.head, trunk_out)
    return past[:, -1, None, None] + np.cumsum(out.reshape(len(past), -1, model.horizon, 2),
                                               axis=2)


def predict(model: PredictorModel, past: Trajectory,
            obs: ObservableState | None = None) -> PredictionSet:
    """The K heads of one window: predict_heads of its one row, as a TrajectorySet."""
    joints = None if obs is None else obs.joint_array()[None]
    # copied, so a served set holds one (K, T_f, 2) array and not a view of the batch
    heads = predict_heads(model, past.points[None], joints)[0].copy()
    return PredictionSet(TrajectorySet(heads, past.dt))


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


def min_of_k_mse(points: np.ndarray, gt: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Min-of-K MSE of head points (B, K, T_f, 2) against ground truths
    (B, T_f, 2), plain MSE for one head. Returns the mean over samples of the
    smallest per-head MSE, the argmin head per sample (ties go to the lowest
    index) and the gradient w.r.t. points[b, sel[b]] (B, T_f, 2); every other
    head's points get zero gradient."""
    B, _, horizon = points.shape[:3]
    rows = np.arange(B)
    err = points - gt[:, None]
    per_head = np.mean(err**2, axis=(2, 3))  # (B, K)
    sel = np.argmin(per_head, axis=1)
    return (float(np.mean(per_head[rows, sel])), sel,
            2.0 * err[rows, sel] / (2 * horizon) / B)


def train_predictor(
    dataset: WindowSet,
    scorer: LocoValModel | None,
    config: TrainConfig,
    alpha: float = 0.0,
    n_heads: int = 1,
    trunk_hidden=(256, 256),
) -> PredictorTrainResult:
    """Train with min_of_k_mse + alpha * locoval.EmLocoTerm; the scorer's weights
    stay frozen. At alpha == 0 the regularizer term is fully detached so
    results are bit-identical to a run without a scorer.

    Training computes in float32, on float32 copies of the scorer's net and
    of the model that build_predictor draws from the config seed, then writes
    the trained values back into that float64 model, which the result holds;
    float32 to float64 is exact, so serving it computes with those values.

    The steps run under gradcore.TrainingSteps. A curve point records its
    interval's mean loss_gt, and its mean loss_plaus at alpha > 0; at alpha
    == 0, where the scorer only reports, it runs on the interval's last batch
    alone and loss_plaus is that batch's loss (0.0 without a scorer)."""
    if not len(dataset):
        raise DataError("the window set has 0 windows; training needs at least 1")
    if not (alpha >= 0 and math.isfinite(alpha)):
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha > 0 and scorer is None:
        raise ConfigError("alpha > 0 requires a scorer")

    horizon = dataset.horizon
    if scorer is not None and scorer.layout.horizon != horizon:
        raise ConfigError("scorer horizon does not match dataset future length")
    layout = InputLayout(past_frames=dataset.past_frames)
    target = build_predictor(layout, horizon, n_heads, trunk_hidden, seed=config.seed)
    K = target.n_heads
    model = PredictorModel(target.trunk.astype(np.float32), target.head.astype(np.float32),
                           horizon, layout)
    X = build_input(dataset.past, dataset.joints, layout)
    gt, anchors = dataset.future, dataset.past[:, -1]
    term = None if scorer is None else EmLocoTerm(
        LocoValModel(scorer.net.astype(np.float32), scorer.layout), dataset.joints,
        dataset.velocity, anchors)
    n = len(X)
    rng = np.random.default_rng(config.seed)
    opt_trunk = AdamW(model.trunk, config)
    opt_head = AdamW(model.head, config)

    curve = []
    acc_gt, acc_pl, acc_n = 0.0, 0.0, 0

    with gradcore.TrainingSteps(config.total_steps) as training:
        for step, closes_interval in training:
            idx = rng.integers(n, size=min(config.batch_size, n))
            gtb = gt[idx]          # (B, T_f, 2)
            anchb = anchors[idx]   # (B, 2)
            B = len(idx)

            trunk_out, trunk_cache = gradcore.forward_cached(model.trunk, X[idx])
            out, head_cache = gradcore.forward_cached(model.head, trunk_out)
            disp = out.reshape(B, K, horizon, 2)
            points = anchb[:, None, None] + np.cumsum(disp, axis=2)  # (B, K, T_f, 2)

            # upstream gradients on the head layer's output, written through d_disp
            d_out = np.zeros_like(out)
            d_disp = d_out.reshape(B, K, horizon, 2)
            loss_gt_val, sel, d_points = min_of_k_mse(points, gtb)
            d_disp[np.arange(B), sel] = np.flip(np.cumsum(np.flip(d_points, axis=1), axis=1), axis=1)

            loss_pl_val = 0.0
            if term is not None and (alpha > 0.0 or closes_interval):
                loss_pl_val = term.loss(disp, idx)
                if alpha > 0.0:
                    d_disp += alpha * term.grad()

            g_head = gradcore.backward(model.head, head_cache, d_out)
            d_trunk = gradcore.input_grad(model.head, head_cache, d_out)
            opt_head.step(model.head, g_head)
            opt_trunk.step(model.trunk, gradcore.backward(model.trunk, trunk_cache, d_trunk))

            acc_gt += loss_gt_val
            acc_pl += loss_pl_val
            acc_n += 1
            if closes_interval:
                mean_gt = acc_gt / acc_n
                mean_pl = acc_pl / acc_n if alpha > 0.0 else loss_pl_val
                ratio = alpha * mean_pl / mean_gt if mean_gt > 0 else math.inf
                dominates = bool(alpha * mean_pl > mean_gt)
                curve.append(PredictorCurvePoint(step + 1, mean_gt, mean_pl, ratio, dominates))
                acc_gt, acc_pl, acc_n = 0.0, 0.0, 0

    target.trunk.params[...] = model.trunk.params
    target.head.params[...] = model.head.params
    return PredictorTrainResult(model=target, curve=curve, alpha=alpha, n_heads=K)


# ---------------------------------------------------------------------------
# Checkpoint I/O


def save_predictor(result_or_model, path, locoval_checksum: str | None = None,
                   train_config: TrainConfig | None = None):
    """A train result's model and alpha, or a bare model with no alpha.
    locoval_checksum: gradcore.params_sha256 of the scorer the model was
    trained against, None without one."""
    model, alpha = result_or_model, None
    if isinstance(model, PredictorTrainResult):
        model, alpha = model.model, model.alpha
    gradcore.save_checkpoint({
        "trunk": gradcore.model_to_dict(model.trunk),
        "head": gradcore.model_to_dict(model.head),
        "horizon": model.horizon,
        "input_layout": model.input_layout,
        "alpha": alpha,
        "train_config": train_config,
        "locoval_checksum": locoval_checksum,
    }, path)


def predictor_from_dict(doc: dict) -> PredictorModel:
    """The model of a predictor checkpoint document, as gradcore.load_checkpoint
    hands it to its build function."""
    if "trunk" not in doc or "head" not in doc:
        raise ConfigError("not a predictor checkpoint")
    return PredictorModel(gradcore.model_from_dict(doc["trunk"]),
                          gradcore.model_from_dict(doc["head"]),
                          gradcore.read_field(doc, "horizon", int),
                          gradcore.read_field(doc, "input_layout", InputLayout))


def load_predictor(path) -> PredictorModel:
    return gradcore.load_checkpoint(path, predictor_from_dict)

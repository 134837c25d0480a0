"""Minimal differentiable feed-forward layer: MLPs, hand-written backprop,
AdamW, a cosine schedule, and finite-difference gradient verification.

Everything is float64 numpy. Weight matrices are stored (fan_in, fan_out) so a
batch X of shape (B, fan_in) propagates as X @ W + b.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, InputShapeError, NumericError

HIDDEN_ACTIVATIONS = ("relu", "tanh")
OUTPUT_ACTIVATIONS = ("identity", "sigmoid")

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    total_steps: int = 1000
    batch_size: int = 64
    seed: int = 0
    schedule: str = "constant"  # constant | cosine
    min_lr: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"unknown schedule {self.schedule!r}")


@dataclass
class MlpModel:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"
    output_activation: str = "identity"

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def validate(self):
        if len(self.layer_sizes) < 2:
            raise ConfigError("need at least an input and an output layer")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ConfigError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            n_in, n_out = self.layer_sizes[i], self.layer_sizes[i + 1]
            if w.shape != (n_in, n_out) or b.shape != (n_out,):
                raise ConfigError(
                    f"layer {i}: expected W{(n_in, n_out)} b{(n_out,)}, "
                    f"got W{w.shape} b{b.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError("non-finite parameter", layer_index=i)

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_sizes=list(self.layer_sizes),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
        )


def init_mlp(
    layer_sizes: list[int],
    rng: np.random.Generator,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
) -> MlpModel:
    """Glorot-uniform weights, zero biases."""
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = math.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    model = MlpModel(list(layer_sizes), weights, biases, hidden_activation, output_activation)
    model.validate()
    return model


def _apply_hidden(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _hidden_derivative(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    return 1.0 - a * a


def forward_cached(model: MlpModel, x: np.ndarray):
    """Batched forward pass; returns (output, cache) with cache usable by backward().

    x may be (n_in,) or (B, n_in); the output matches the leading shape.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise InputShapeError(
            f"expected input of size {model.layer_sizes[0]}, got shape {x.shape}"
        )
    activations = [X]
    pre = []
    a = X
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        if i < last:
            a = _apply_hidden(z, model.hidden_activation)
        elif model.output_activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
        activations.append(a)
    cache = {"pre": pre, "activations": activations, "single": single}
    out = activations[-1][0] if single else activations[-1]
    return out, cache


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    out, _ = forward_cached(model, x)
    return out


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray  # gradient of the loss w.r.t. the network input


def backward(model: MlpModel, cache: dict, upstream: np.ndarray) -> Gradients:
    """Backpropagate upstream = dL/d(output) through a cached forward pass."""
    upstream = np.asarray(upstream, dtype=float)
    if cache["single"]:
        upstream = upstream[None, :]
    pre, acts = cache["pre"], cache["activations"]
    last = model.n_layers - 1
    if upstream.shape != acts[-1].shape:
        raise InputShapeError(
            f"upstream gradient shape {upstream.shape} != output shape {acts[-1].shape}"
        )

    if model.output_activation == "sigmoid":
        y = acts[-1]
        delta = upstream * y * (1.0 - y)
    else:
        delta = upstream

    w_grads = [None] * model.n_layers
    b_grads = [None] * model.n_layers
    for i in range(last, -1, -1):
        w_grads[i] = acts[i].T @ delta
        b_grads[i] = delta.sum(axis=0)
        if not (np.all(np.isfinite(w_grads[i])) and np.all(np.isfinite(b_grads[i]))):
            raise NumericError("non-finite gradient", layer_index=i)
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * _hidden_derivative(
                pre[i - 1], acts[i], model.hidden_activation
            )
    input_grad = delta[0] if cache["single"] else delta
    return Gradients(weights=w_grads, biases=b_grads, inputs=input_grad)


def cosine_lr(base_lr: float, step: int, total_steps: int, min_lr: float = 0.0) -> float:
    """Half-cosine decay from base_lr at step 0 to min_lr at total_steps."""
    if step < 0:
        raise ConfigError("step must be non-negative")
    if step >= total_steps:
        return min_lr
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """Decoupled-weight-decay Adam over an MlpModel's parameters.

    Moments persist across step() calls; the step counter is internal and
    starts at 1 on the first update.
    """

    def __init__(self, model: MlpModel, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in model.weights]
        self.v_w = [np.zeros_like(w) for w in model.weights]
        self.m_b = [np.zeros_like(b) for b in model.biases]
        self.v_b = [np.zeros_like(b) for b in model.biases]

    def current_lr(self) -> float:
        if self.config.schedule == "cosine":
            return cosine_lr(
                self.config.learning_rate, self.t, self.config.total_steps,
                self.config.min_lr,
            )
        return self.config.learning_rate

    def step(self, model: MlpModel, grads: Gradients, lr: float | None = None):
        cfg = self.config
        if lr is None:
            lr = self.current_lr()
        self.t += 1
        t = self.t
        b1, b2, eps = cfg.beta1, cfg.beta2, cfg.eps
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for params, gs, ms, vs in (
            (model.weights, grads.weights, self.m_w, self.v_w),
            (model.biases, grads.biases, self.m_b, self.v_b),
        ):
            for i in range(len(params)):
                g = gs[i]
                ms[i] = b1 * ms[i] + (1.0 - b1) * g
                vs[i] = b2 * vs[i] + (1.0 - b2) * (g * g)
                m_hat = ms[i] / bc1
                v_hat = vs[i] / bc2
                params[i] = params[i] * (1.0 - lr * cfg.weight_decay) - lr * m_hat / (
                    np.sqrt(v_hat) + eps
                )


# ---------------------------------------------------------------------------
# Gradient verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_layer: int
    passed: bool
    tolerance: float


def grad_check(
    model: MlpModel,
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic parameter gradients against central finite differences.

    loss_fn maps the network output to (loss, dloss/doutput).
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    out, cache = forward_cached(model, x)
    _, upstream = loss_fn(out)
    analytic = backward(model, cache, upstream)

    def loss_at() -> float:
        y = forward(model, x)
        return loss_fn(y)[0]

    max_rel = 0.0
    worst_layer = -1
    for layer in range(model.n_layers):
        for params, grads in (
            (model.weights[layer], analytic.weights[layer]),
            (model.biases[layer], analytic.biases[layer]),
        ):
            flat = params.reshape(-1)
            gflat = grads.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + epsilon
                up = loss_at()
                flat[j] = orig - epsilon
                down = loss_at()
                flat[j] = orig
                numeric = (up - down) / (2.0 * epsilon)
                rel = abs(gflat[j] - numeric) / max(abs(gflat[j]), abs(numeric), 1e-6)
                if rel > max_rel:
                    max_rel = rel
                    worst_layer = layer
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_layer=worst_layer,
        passed=max_rel < tolerance,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Checkpoint serialization


def model_to_dict(model: MlpModel, seed: int | None = None,
                  train_config: TrainConfig | None = None) -> dict:
    return {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "hidden_activation": model.hidden_activation,
        "output_activation": model.output_activation,
        "parameters": [
            {"weights": w.reshape(-1).tolist(), "biases": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
        "seed": seed,
        "train_config": asdict(train_config) if train_config is not None else None,
    }


def model_from_dict(doc: dict) -> MlpModel:
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise ConfigError(f"unsupported checkpoint schema {doc.get('schema_version')!r}")
    sizes = [int(s) for s in doc["layer_sizes"]]
    weights, biases = [], []
    for i, layer in enumerate(doc["parameters"]):
        n_in, n_out = sizes[i], sizes[i + 1]
        weights.append(np.array(layer["weights"], dtype=float).reshape(n_in, n_out))
        biases.append(np.array(layer["biases"], dtype=float))
    model = MlpModel(
        sizes, weights, biases,
        hidden_activation=doc["hidden_activation"],
        output_activation=doc["output_activation"],
    )
    model.validate()
    return model


def save_model(model: MlpModel, path, seed: int | None = None,
               train_config: TrainConfig | None = None):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model, seed, train_config), fh)


def load_checkpoint(path, build: Callable[[dict], object]):
    """build(doc) from the JSON document at path. A file that is not JSON, or
    whose structure build cannot read, is a DataError naming the path; the
    ConfigErrors build raises for well-formed but wrong documents pass through."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not a JSON file ({exc})") from None
    try:
        return build(doc)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None


def load_model(path) -> MlpModel:
    return load_checkpoint(path, model_from_dict)

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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive and finite")
        if not math.isfinite(self.min_lr):
            raise ConfigError("min_lr must be finite")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError("eps must be positive and finite")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.total_steps < 1:
            raise ConfigError("total_steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.schedule not in ("constant", "cosine"):
            raise ConfigError(f"schedule must be constant or cosine, got {self.schedule!r}")


def _views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views of the flat array buf, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(buf[start:stop].reshape(shape))
        start = stop
    return views


def _pack(weights, biases) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Copy every weight array, then every bias array, into one new contiguous
    float64 buffer; return it and per-layer views of it with the same shapes."""
    arrays = [np.asarray(a, dtype=float) for a in (*weights, *biases)]
    buf = np.empty(sum(a.size for a in arrays))
    views = _views(buf, [a.shape for a in arrays])
    for view, a in zip(views, arrays):
        view[...] = a
    return buf, views[: len(weights)], views[len(weights) :]


@dataclass
class MlpModel:
    """A feed-forward net that owns its parameters in one flat buffer.

    Construction copies the given weights and biases into `params`, one
    contiguous float64 array holding every weight matrix in layer order, then
    every bias vector, and rebinds weights[i] and biases[i] to views of it: a
    write through a view is a write to params, and an optimizer updates the
    whole model in one pass over params. backward() writes parameter
    gradients into a second buffer with the same layout, allocated on the
    model's first backward, so a model that only serves never has one.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    hidden_activation: str = "relu"
    output_activation: str = "identity"
    params: np.ndarray = field(init=False, repr=False, compare=False)
    _grad: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        self.params, self.weights, self.biases = _pack(self.weights, self.biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """(weights, biases): per-layer views of a flat array in the layout of params."""
        views = _views(flat, [a.shape for a in (*self.weights, *self.biases)])
        return views[: self.n_layers], views[self.n_layers :]

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
        # a layer rebound to another array would silently stop training
        expected_w, expected_b = self.split(self.params)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            for got, view in ((w, expected_w[i]), (b, expected_b[i])):
                if not (got.base is self.params and got.flags.c_contiguous
                        and got.ctypes.data == view.ctypes.data):
                    raise ConfigError(f"layer {i}: parameters are no longer a view of params")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError("non-finite parameter", layer_index=i)

    def copy(self) -> "MlpModel":
        """A model with its own copy of the parameters (and no gradient buffer)."""
        return MlpModel(
            layer_sizes=list(self.layer_sizes),
            weights=self.weights,
            biases=self.biases,
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


def _apply_hidden(z: np.ndarray, kind: str) -> None:
    """Apply the hidden activation to z in place."""
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    else:
        np.tanh(z, out=z)


def _times_hidden_derivative(delta: np.ndarray, a: np.ndarray, kind: str) -> None:
    """Multiply delta in place by the hidden activation's derivative, read
    from the activation a. relu: by the boolean mask a > 0, which equals
    z > 0 for every pre-activation z, -0.0 and NaN included, and gives the
    bits of a 0/1 float mask."""
    if kind == "relu":
        delta *= a > 0.0
    else:
        delta *= 1.0 - a * a


def forward_cached(model: MlpModel, x: np.ndarray):
    """Batched forward pass; returns (output, cache) with cache usable by backward().

    x may be (n_in,) or (B, n_in); the output matches the leading shape. The
    cache holds each layer's input and the output ("activations"); hidden
    activations are computed in place over the pre-activations.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != model.layer_sizes[0]:
        raise InputShapeError(
            f"expected input of size {model.layer_sizes[0]}, got shape {x.shape}"
        )
    activations = [X]
    a = X
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w
        z += b
        if i < last:
            _apply_hidden(z, model.hidden_activation)
            a = z
        elif model.output_activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
        activations.append(a)
    cache = {"activations": activations, "single": single}
    out = activations[-1][0] if single else activations[-1]
    return out, cache


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    out, _ = forward_cached(model, x)
    return out


@dataclass
class Gradients:
    """Parameter gradients as per-layer views of one flat array, `flat`, in
    the layout of MlpModel.params, plus the input gradient. Gradients built
    from per-layer arrays copy them into a new flat array."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray  # gradient of the loss w.r.t. the network input
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.weights, self.biases = _pack(self.weights, self.biases)

    @classmethod
    def _over(cls, flat, weights, biases, inputs) -> "Gradients":
        """Gradients already laid out in flat, wrapped without a copy."""
        grads = cls.__new__(cls)
        grads.weights, grads.biases, grads.inputs, grads.flat = weights, biases, inputs, flat
        return grads


def _output_delta(model: MlpModel, cache: dict, upstream: np.ndarray) -> np.ndarray:
    """dL/d(pre-activation of the last layer), as a (B, n_out) array."""
    upstream = np.asarray(upstream, dtype=float)
    if cache["single"]:
        upstream = upstream[None, :]
    y = cache["activations"][-1]
    if upstream.shape != y.shape:
        raise InputShapeError(
            f"upstream gradient shape {upstream.shape} != output shape {y.shape}"
        )
    if model.output_activation == "sigmoid":
        return upstream * y * (1.0 - y)
    return upstream


def backward(model: MlpModel, cache: dict, upstream: np.ndarray) -> Gradients:
    """Backpropagate upstream = dL/d(output) through a cached forward pass.

    The parameter gradients are written into the model's gradient buffer and
    returned as views of it, so the next backward() of the same model
    overwrites them. A non-finite gradient raises NumericError naming the
    highest layer that has one.
    """
    acts = cache["activations"]
    delta = _output_delta(model, cache, upstream)
    if model._grad is None:
        flat = np.empty_like(model.params)
        model._grad = (flat, *model.split(flat))
    flat, w_grads, b_grads = model._grad
    for i in range(model.n_layers - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=w_grads[i])
        np.sum(delta, axis=0, out=b_grads[i])
        delta = delta @ model.weights[i].T
        if i > 0:
            _times_hidden_derivative(delta, acts[i], model.hidden_activation)
    if not np.isfinite(flat).all():
        layer = max(i for i in range(model.n_layers)
                    if not (np.isfinite(w_grads[i]).all() and np.isfinite(b_grads[i]).all()))
        raise NumericError("non-finite gradient", layer_index=layer)
    input_grad = delta[0] if cache["single"] else delta
    return Gradients._over(flat, list(w_grads), list(b_grads), input_grad)


def input_grad(model: MlpModel, cache: dict, upstream: np.ndarray) -> np.ndarray:
    """dL/d(input) of a cached forward pass through a frozen model: the
    inputs of backward(), bit for bit, without any parameter gradient."""
    acts = cache["activations"]
    delta = _output_delta(model, cache, upstream)
    for i in range(model.n_layers - 1, -1, -1):
        delta = delta @ model.weights[i].T
        if i > 0:
            _times_hidden_derivative(delta, acts[i], model.hidden_activation)
    if not np.all(np.isfinite(delta)):
        raise NumericError("non-finite input gradient")
    return delta[0] if cache["single"] else delta


def cosine_lr(base_lr: float, step: int, total_steps: int, min_lr: float = 0.0) -> float:
    """Half-cosine decay from base_lr at step 0 to min_lr at total_steps."""
    if step < 0:
        raise ConfigError("step must be non-negative")
    if step >= total_steps:
        return min_lr
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """Decoupled-weight-decay Adam over an MlpModel's flat parameter buffer.

    Moments persist across step() calls as two flat arrays, m and v, in the
    layout of params; m_w, m_b, v_w and v_b are their per-layer views. The
    step counter is internal and starts at 1 on the first update. step()
    updates the moments and model.params in place, with a fixed number of
    whole-buffer numpy calls whatever the number of layers.
    """

    def __init__(self, model: MlpModel, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)
        self.m_w, self.m_b = model.split(self.m)
        self.v_w, self.v_b = model.split(self.v)
        self._scratch = (np.empty_like(model.params), np.empty_like(model.params))

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
        decay = 1.0 - lr * cfg.weight_decay
        p, g, m, v = model.params, grads.flat, self.m, self.v
        denom, update = self._scratch
        # in place, in the operation order of p * decay - lr * (m / bc1) / (sqrt(v / bc2) + eps),
        # so results are bit-identical to computing that expression out of place
        m *= b1
        np.multiply(g, 1.0 - b1, out=update)
        m += update
        v *= b2
        np.multiply(g, g, out=update)
        update *= 1.0 - b2
        v += update
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        if bc1 == 1.0:  # m / 1.0 is m exactly (from t ~ 350 at beta1 0.9)
            np.multiply(m, lr, out=update)
        else:
            np.divide(m, bc1, out=update)
            update *= lr
        update /= denom
        if decay != 1.0:  # p * 1.0 is p exactly (weight_decay 0)
            p *= decay
        p -= update


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
    if len(doc["parameters"]) != len(sizes) - 1:
        raise DataError(
            f"{len(doc['parameters'])} parameter layers for layer sizes {sizes}"
        )
    weights, biases = [], []
    for i, layer in enumerate(doc["parameters"]):
        n_in, n_out = sizes[i], sizes[i + 1]
        try:
            w = np.array(layer["weights"], dtype=float)
            b = np.array(layer["biases"], dtype=float)
        except ValueError as exc:
            raise DataError(f"layer {i}: parameters are not lists of numbers ({exc})") from None
        if w.size != n_in * n_out or b.shape != (n_out,):
            raise DataError(
                f"layer {i}: expected {n_in * n_out} weights and {n_out} biases, "
                f"got {w.size} and {b.size}"
            )
        weights.append(w.reshape(n_in, n_out))
        biases.append(b)
    model = MlpModel(
        sizes, weights, biases,
        hidden_activation=doc["hidden_activation"],
        output_activation=doc["output_activation"],
    )
    model.validate()
    return model


def save_checkpoint(doc: dict, path):
    """Write doc to path with the bytes json.dump(doc, fh) writes, but
    faster: json.dump runs json's pure-Python encoder, this runs its C encoder
    piece by piece (see _write_json), so the encoded text of a large
    checkpoint is never held in memory at once."""
    with open(path, "w") as fh:
        _write_json(fh, doc)


# list items encoded per json.dumps call when a list of scalars is written
_JSON_CHUNK = 4096


def _write_json(fh, value):
    """json.dump's text of value: a dict with string keys, or a list of
    containers, one item at a time; a list of scalars _JSON_CHUNK items at a
    time; anything else in one json.dumps call."""
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        fh.write("[")
        for i, item in enumerate(value):
            fh.write(", " if i else "")
            _write_json(fh, item)
        fh.write("]")
    elif isinstance(value, list) and len(value) > _JSON_CHUNK:
        for i in range(0, len(value), _JSON_CHUNK):
            fh.write(("[" if i == 0 else ", ") + json.dumps(value[i : i + _JSON_CHUNK])[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(value))


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
    except DataError as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc})") from None
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None

"""Minimal differentiable feed-forward layer: MLPs, hand-written backprop,
AdamW, a cosine schedule, and finite-difference gradient verification.

A model computes at the dtype of its parameter buffer: float64, or float32
when it is built from float32 arrays (MlpModel.astype). Inputs and upstream
gradients are cast to that dtype, and gradients, optimizer moments and
activations follow it. Weight matrices are stored (fan_in, fan_out) so a
batch X of shape (B, fan_in) propagates as X @ W + b.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Callable, get_type_hints

import numpy as np

from .errors import (POSITIVE, Checked, ConfigError, DataError, InputShapeError, NumericError,
                     PlausTrajError, at_least, check_value, one_of, rule)

HIDDEN_ACTIVATIONS = ("relu", "tanh")
OUTPUT_ACTIVATIONS = ("identity", "sigmoid")

CHECKPOINT_SCHEMA_VERSION = 4
CURVE_EVERY = 50  # training steps per curve point; the last step closes one too
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW's moment decays and denominator floor


@dataclass
class TrainConfig(Checked):
    learning_rate: float = rule(POSITIVE, default=1e-3)
    total_steps: int = rule(at_least(1), default=1000)
    batch_size: int = rule(at_least(1), default=64)
    seed: int = rule(at_least(0), default=0)
    schedule: str = rule(one_of("constant", "cosine"), default="constant")


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
    buffer; return it and per-layer views of it with the same shapes. The
    buffer is float32 when every array is float32, and float64 otherwise."""
    arrays = [np.asarray(a) for a in (*weights, *biases)]
    dtype = np.float32 if all(a.dtype == np.float32 for a in arrays) else np.float64
    buf = np.empty(sum(a.size for a in arrays), dtype=dtype)
    views = _views(buf, [a.shape for a in arrays])
    for view, a in zip(views, arrays):
        view[...] = a
    return buf, views[: len(weights)], views[len(weights) :]


@dataclass
class MlpModel:
    """A feed-forward net that owns its parameters in one flat buffer.

    Construction copies the given weights and biases into `params`, one
    contiguous array holding every weight matrix in layer order, then every
    bias vector, and rebinds weights[i] and biases[i] to views of it: a write
    through a view is a write to params, and an optimizer updates the whole
    model in one pass over params. params is float32 when every given array is
    float32 and float64 otherwise; the model computes at that dtype.
    backward() writes parameter gradients into a second buffer with the same
    layout, allocated on the model's first backward, so a model that only
    serves never has one.
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

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor: restoring the
        # fields one by one would leave weights and biases detached from params
        return (MlpModel, (self.layer_sizes, self.weights, self.biases,
                           self.hidden_activation, self.output_activation))

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
        return self.astype(self.params.dtype)

    def astype(self, dtype) -> "MlpModel":
        """A copy of the model that computes at dtype, float32 or float64.
        float32 rounds the parameters; float32 to float64 is exact."""
        return MlpModel(list(self.layer_sizes),
                        [w.astype(dtype) for w in self.weights],
                        [b.astype(dtype) for b in self.biases],
                        self.hidden_activation, self.output_activation)


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
    activations are computed in place over the pre-activations. x is cast to
    the model's dtype.
    """
    x = np.asarray(x, dtype=model.params.dtype)
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
            if z.dtype == np.float32:
                # exp(-z) overflows float32 below z = -88.7; at -87 the
                # output, about 1.6e-38, is still a normal float32
                np.maximum(z, -87.0, out=z)
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
    the layout of MlpModel.params. Gradients built from per-layer arrays copy
    them into a new flat array."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.weights, self.biases = _pack(self.weights, self.biases)

    @classmethod
    def _over(cls, flat, weights, biases) -> "Gradients":
        """Gradients already laid out in flat, wrapped without a copy."""
        grads = cls.__new__(cls)
        grads.weights, grads.biases, grads.flat = weights, biases, flat
        return grads


def _output_delta(model: MlpModel, cache: dict, upstream: np.ndarray) -> np.ndarray:
    """dL/d(pre-activation of the last layer), as a (B, n_out) array of the
    output's dtype."""
    y = cache["activations"][-1]
    upstream = np.asarray(upstream, dtype=y.dtype)
    if cache["single"]:
        upstream = upstream[None, :]
    if upstream.shape != y.shape:
        raise InputShapeError(
            f"upstream gradient shape {upstream.shape} != output shape {y.shape}"
        )
    if model.output_activation == "sigmoid":
        return upstream * y * (1.0 - y)
    return upstream


def backward(model: MlpModel, cache: dict, upstream: np.ndarray) -> Gradients:
    """Backpropagate upstream = dL/d(output) through a cached forward pass
    to the parameter gradients; input_grad() gives the input gradient.

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
        if i > 0:
            delta = delta @ model.weights[i].T
            _times_hidden_derivative(delta, acts[i], model.hidden_activation)
    if not np.isfinite(flat).all():
        layer = max(i for i in range(model.n_layers)
                    if not (np.isfinite(w_grads[i]).all() and np.isfinite(b_grads[i]).all()))
        raise NumericError("non-finite gradient", layer_index=layer)
    return Gradients._over(flat, list(w_grads), list(b_grads))


def input_grad(model: MlpModel, cache: dict, upstream: np.ndarray) -> np.ndarray:
    """dL/d(input) of a cached forward pass, without any parameter gradient.
    It reads the model's current weights, so call it before an optimizer step
    changes the weights the forward pass used."""
    acts = cache["activations"]
    delta = _output_delta(model, cache, upstream)
    for i in range(model.n_layers - 1, -1, -1):
        delta = delta @ model.weights[i].T
        if i > 0:
            _times_hidden_derivative(delta, acts[i], model.hidden_activation)
    if not np.all(np.isfinite(delta)):
        raise NumericError("non-finite input gradient")
    return delta[0] if cache["single"] else delta


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr at step 0 to 0.0 at total_steps."""
    if step >= total_steps:
        return 0.0
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """AdamW with no weight decay, that is Adam, over an MlpModel's flat
    parameter buffer, at the constant moment decays BETA1 and BETA2 and
    denominator floor EPS.

    Moments persist across step() calls as two flat arrays, m and v, in the
    layout of params (model.split gives their per-layer views). The step
    counter is internal and starts at 1 on the first update. step() updates
    the moments and model.params in place, with a fixed number of
    whole-buffer numpy calls whatever the number of layers.
    """

    def __init__(self, model: MlpModel, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)
        self._scratch = (np.empty_like(model.params), np.empty_like(model.params))

    def current_lr(self) -> float:
        if self.config.schedule == "cosine":
            return cosine_lr(self.config.learning_rate, self.t, self.config.total_steps)
        return self.config.learning_rate

    def step(self, model: MlpModel, grads: Gradients):
        lr = self.current_lr()
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        p, g, m, v = model.params, grads.flat, self.m, self.v
        denom, update = self._scratch
        # in place, in the operation order of p - lr * (m / bc1) / (sqrt(v / bc2) + EPS),
        # so results are bit-identical to computing that expression out of place
        m *= BETA1
        np.multiply(g, 1.0 - BETA1, out=update)
        m += update
        v *= BETA2
        np.multiply(g, g, out=update)
        update *= 1.0 - BETA2
        v += update
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        if bc1 == 1.0:  # m / 1.0 is m exactly (from t ~ 350)
            np.multiply(m, lr, out=update)
        else:
            np.divide(m, bc1, out=update)
            update *= lr
        update /= denom
        p -= update


class TrainingSteps:
    """The steps of a training loop and their one contract. Iterating gives
    (step, closes_interval) for step in range(total_steps), closes_interval
    true every CURVE_EVERY steps and at the last, where a curve point is due.
    In the with block numpy's overflow, invalid-value and divide-by-zero flags
    raise (an overflowing AdamW moment would freeze its parameters silently),
    and leave it as NumericError "training step <n>: <what numpy reports>"."""

    def __init__(self, total_steps: int):
        self.last, self.step = total_steps - 1, 0

    def __iter__(self):
        for self.step in range(self.last + 1):
            yield self.step, (self.step + 1) % CURVE_EVERY == 0 or self.step == self.last

    def __enter__(self) -> "TrainingSteps":
        self._saved = np.seterr(over="raise", invalid="raise", divide="raise")
        return self

    def __exit__(self, kind, exc, traceback):
        np.seterr(**self._saved)
        if isinstance(exc, FloatingPointError):
            raise NumericError(f"training step {self.step + 1}: {exc}") from None


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

    loss_fn maps the network output to (loss, dloss/doutput). The check runs
    on a float64 copy of the model, whatever its dtype: finite differences
    need float64, and the gradient code is the same at both precisions.
    """
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    model = model.astype(np.float64)
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


def model_to_dict(model: MlpModel) -> dict:
    """The model as a JSON-ready model entry: layer sizes, activations and
    "params", the base64 of the params buffer as little-endian float64 in
    params order. A float32 model is widened to float64, which is exact."""
    raw = model.params.astype("<f8", copy=False)
    return {
        "layer_sizes": list(model.layer_sizes),
        "hidden_activation": model.hidden_activation,
        "output_activation": model.output_activation,
        "params": base64.b64encode(raw).decode("ascii"),
    }


def params_sha256(model: MlpModel) -> str:
    """The sha256 of the bytes that model_to_dict's "params" base64-encodes."""
    return hashlib.sha256(model.params.astype("<f8", copy=False)).hexdigest()


def model_from_dict(doc: dict) -> MlpModel:
    """The float64 model of a model_to_dict dict, once MlpModel.validate has
    passed it. Bad layer sizes or a params payload that does not hold one
    float64 per parameter raise; load_checkpoint decides how each fails."""
    sizes = doc["layer_sizes"]
    if not (isinstance(sizes, list) and all(type(s) is int and s >= 1 for s in sizes)):
        raise DataError(f"layer sizes {sizes!r} must be a list of integers >= 1")
    shapes = [*zip(sizes[:-1], sizes[1:]), *((s,) for s in sizes[1:])]
    count = sum(math.prod(shape) for shape in shapes)
    payload = doc["params"]
    if not isinstance(payload, str):
        raise DataError(f"params is a {type(payload).__name__}, not a base64 string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:
        raise DataError(f"params is not base64 ({exc})") from None
    if len(raw) != 8 * count:
        raise DataError(f"params holds {len(raw)} bytes; layer sizes {sizes} "
                        f"need {count} float64, {8 * count} bytes")
    views = _views(np.frombuffer(raw, "<f8"), shapes)
    n = len(sizes) - 1
    model = MlpModel(sizes, views[:n], views[n:], doc["hidden_activation"],
                     doc["output_activation"])
    model.validate()
    return model


def read_field(doc: dict, key: str, kind, prefix: str = ""):
    """doc[key] as kind: an integer >= 1, true or false, or a dataclass of such
    fields (a layout) from an object giving each once; else an error naming it."""
    value, name = doc[key], prefix + key
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        if not (isinstance(value, dict) and set(value) == set(hints)):
            raise DataError(f"{name} must be an object of {', '.join(hints)}, got {value!r}")
        return kind(**{k: read_field(value, k, t, name + ".") for k, t in hints.items()})
    check_value(name, value, kind(), at_least(1) if kind is int else None)
    return value


def save_checkpoint(doc: dict, path):
    """Write the schema version and doc, its dataclasses (layouts, a
    TrainConfig) as objects, to path as JSON in one call of json's C encoder."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema_version": CHECKPOINT_SCHEMA_VERSION, **doc}, default=asdict))


def load_checkpoint(path, build: Callable[[dict], object]):
    """build(doc) from the JSON document at path, once its schema version is
    checked: the one place that decides how a bad checkpoint fails, naming
    path. Another schema is a ConfigError, a non-finite parameter a
    NumericError, and any other fault (not JSON, another kind of checkpoint, a
    field missing or of the wrong kind, parts that disagree) a DataError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not a JSON file ({exc})") from None
    try:
        # predictor files before schema 3 kept their version under another key
        version = doc.get("schema_version", doc.get("predictor_schema_version"))
        if version == CHECKPOINT_SCHEMA_VERSION:
            return build(doc)
    except NumericError as exc:
        raise NumericError(f"{path}: {exc}") from None
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        # every other toolkit error is a ValueError, named by its message alone
        what = exc if isinstance(exc, PlausTrajError) else f"{type(exc).__name__}: {exc}"
        raise DataError(f"{path}: malformed checkpoint ({what})") from None
    raise ConfigError(f"{path}: checkpoint schema {version!r}, but this version reads only "
                      f"schema {CHECKPOINT_SCHEMA_VERSION}; retrain to write a new one")

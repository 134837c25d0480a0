import base64
import copy
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaustraj import gradcore
from plaustraj.errors import ConfigError, DataError, InputShapeError, NumericError
from plaustraj.gradcore import (
    AdamW,
    MlpModel,
    TrainConfig,
    backward,
    cosine_lr,
    forward,
    forward_cached,
    grad_check,
    init_mlp,
    input_grad,
    load_checkpoint,
    model_from_dict,
    model_to_dict,
    params_sha256,
    save_checkpoint,
)


def save_model(model, path):
    save_checkpoint(model_to_dict(model), path)


def load_model(path):
    return load_checkpoint(path, model_from_dict)


def small_model(seed=0, sizes=(4, 8, 3), hidden="tanh", output="identity"):
    rng = np.random.default_rng(seed)
    return init_mlp(list(sizes), rng, hidden_activation=hidden, output_activation=output)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_model_gives_zero():
    model = MlpModel(
        layer_sizes=[3, 2],
        weights=[np.zeros((3, 2))],
        biases=[np.zeros(2)],
        output_activation="identity",
    )
    assert np.array_equal(forward(model, np.array([1.0, -2.0, 5.0])), np.zeros(2))


def test_forward_identity_single_layer():
    model = MlpModel(
        layer_sizes=[3, 3],
        weights=[np.eye(3)],
        biases=[np.zeros(3)],
        output_activation="identity",
    )
    v = np.array([0.3, -1.2, 7.0])
    assert np.array_equal(forward(model, v), v)


def test_forward_matches_hand_evaluation():
    # 2-3-1 relu net evaluated scalar-by-scalar on paper; third hidden unit
    # is dead at this input.
    model = MlpModel(
        layer_sizes=[2, 3, 1],
        weights=[
            np.array([[0.5, -0.25, 0.1], [0.3, 0.8, -0.6]]),
            np.array([[1.2], [-0.7], [0.4]]),
        ],
        biases=[np.array([0.1, 0.2, 0.05]), np.array([-0.3])],
        hidden_activation="relu",
        output_activation="identity",
    )
    x = np.array([0.4, 0.9])
    assert forward(model, x)[0] == pytest.approx(-0.1899999999999999, abs=1e-12)
    model.output_activation = "sigmoid"
    assert forward(model, x)[0] == pytest.approx(0.45264238185691075, abs=1e-12)


def test_forward_sigmoid_output_in_open_unit_interval():
    model = small_model(seed=3, output="sigmoid", sizes=(4, 8, 2))
    rng = np.random.default_rng(4)
    out = forward(model, rng.normal(size=(50, 4)))
    assert np.all((out > 0.0) & (out < 1.0))


def test_forward_shape_mismatch():
    model = small_model()
    with pytest.raises(InputShapeError):
        forward(model, np.zeros(5))


def test_forward_batch_matches_singles():
    model = small_model(seed=7)
    X = np.random.default_rng(8).normal(size=(6, 4))
    batch = forward(model, X)
    for i in range(6):
        # gemm vs gemv may differ in the last ulp, so not array_equal
        np.testing.assert_allclose(batch[i], forward(model, X[i]), rtol=1e-12)


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream_gives_zero_grads():
    model = small_model(seed=1)
    x = np.ones(4)
    _, cache = forward_cached(model, x)
    grads = backward(model, cache, np.zeros(3))
    assert all(np.all(g == 0) for g in grads.weights)
    assert all(np.all(g == 0) for g in grads.biases)
    assert np.all(input_grad(model, cache, np.zeros(3)) == 0)


def test_backward_linear_squared_error_closed_form():
    # scalar model y = w*x + b, loss (y - t)^2; dW = 2(y-t)x, db = 2(y-t)
    w, b, x, t = 1.7, -0.4, 2.3, 0.9
    model = MlpModel(
        layer_sizes=[1, 1],
        weights=[np.array([[w]])],
        biases=[np.array([b])],
        output_activation="identity",
    )
    out, cache = forward_cached(model, np.array([x]))
    residual = out[0] - t
    grads = backward(model, cache, np.array([2.0 * residual]))
    assert grads.weights[0][0, 0] == pytest.approx(2.0 * residual * x, rel=1e-12)
    assert grads.biases[0][0] == pytest.approx(2.0 * residual, rel=1e-12)


def test_backward_rejects_nonfinite():
    model = small_model(seed=2)
    model.weights[1][0, 0] = np.inf
    _, cache = forward_cached(model, np.ones(4))
    with pytest.raises(NumericError):
        backward(model, cache, np.ones(3))


@pytest.mark.parametrize("rows", [None, 1, 7], ids=["single", "batch-1", "batch-7"])
@pytest.mark.parametrize("hidden, output", [("relu", "sigmoid"), ("relu", "identity"),
                                            ("tanh", "sigmoid"), ("tanh", "identity")])
def test_input_grad_equals_backward_inputs(hidden, output, rows):
    """input_grad equals the input gradient of the out-of-place reference
    backward pass bit for bit, and leaves the model's gradient buffer alone."""
    model = small_model(seed=3, sizes=(5, 9, 7, 2), hidden=hidden, output=output)
    rng = np.random.default_rng(4)
    shape = (5,) if rows is None else (rows, 5)
    x = rng.normal(size=shape)
    _, cache = forward_cached(model, x)
    upstream = rng.normal(size=shape[:-1] + (2,))
    got = input_grad(model, cache, upstream)
    assert got.shape == shape
    assert np.array_equal(got, reference_input_grad(model, reference_forward_cached(model, x)[1],
                                                    upstream))
    assert model._grad is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_input_grad_rejects_nonfinite_upstream(bad):
    model = small_model(seed=5, hidden="relu", output="sigmoid")
    _, cache = forward_cached(model, np.ones((2, 4)))
    upstream = np.ones((2, 3))
    upstream[1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        input_grad(model, cache, upstream)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_gradients_match_finite_differences(seed):
    """Property from the differentiability contract: analytic vs central
    differences under 1e-4 relative error, smooth activations."""
    model = small_model(seed=seed, sizes=(3, 6, 2), hidden="tanh")
    x = np.random.default_rng(seed + 1).normal(size=3)

    def loss_fn(y):
        return float(np.sum(y**2)), 2.0 * y

    report = grad_check(model, loss_fn, x)
    assert report.passed, report.max_rel_error


def test_grad_check_relu_away_from_kink():
    model = small_model(seed=5, sizes=(3, 8, 1), hidden="relu")
    # nudge the input so no pre-activation sits exactly at zero
    x = np.array([0.37, -0.81, 1.13])

    def loss_fn(y):
        return float(y[0] ** 2), 2.0 * y

    assert grad_check(model, loss_fn, x).passed


def test_grad_check_zero_tolerance_fails():
    model = small_model(seed=6, hidden="tanh")

    def loss_fn(y):
        return float(np.sum(np.sin(y))), np.cos(y)

    report = grad_check(model, loss_fn, np.ones(4), tolerance=0.0)
    assert not report.passed


def test_grad_check_linear_model_tight():
    model = MlpModel(
        layer_sizes=[2, 2],
        weights=[np.array([[1.0, 0.5], [-0.3, 2.0]])],
        biases=[np.array([0.1, -0.2])],
        output_activation="identity",
    )

    def loss_fn(y):
        return float(np.sum(y**2)), 2.0 * y

    report = grad_check(model, loss_fn, np.array([0.7, -1.4]), tolerance=1e-6)
    assert report.passed


# ---------------------------------------------------------------------------
# optimizer + schedule


def test_adamw_zero_grad_is_identity():
    model = small_model(seed=9)
    before = model.copy()
    opt = AdamW(model, TrainConfig(learning_rate=0.01))
    zero = gradcore.Gradients(
        weights=[np.zeros_like(w) for w in model.weights],
        biases=[np.zeros_like(b) for b in model.biases],
    )
    opt.step(model, zero)
    for w0, w1 in zip(before.weights, model.weights):
        assert np.array_equal(w0, w1)


def test_adamw_first_step_hand_recurrence():
    # from zero moments, one step: update = -lr * g / (|g| + eps)
    lr = 0.05
    model = MlpModel(
        layer_sizes=[1, 1],
        weights=[np.array([[1.0]])],
        biases=[np.array([0.5])],
        output_activation="identity",
    )
    g = 0.3
    grads = gradcore.Gradients(weights=[np.array([[g]])], biases=[np.array([0.0])])
    opt = AdamW(model, TrainConfig(learning_rate=lr))
    opt.step(model, grads)
    expected = 1.0 - lr * g / (abs(g) + gradcore.EPS)
    assert model.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
    assert model.biases[0][0] == 0.5


def test_adamw_moments_persist_across_steps():
    model = small_model(seed=11)
    opt = AdamW(model, TrainConfig(learning_rate=0.01))
    grads = gradcore.Gradients(
        weights=[np.ones_like(w) for w in model.weights],
        biases=[np.ones_like(b) for b in model.biases],
    )
    opt.step(model, grads)
    opt.step(model, grads)
    assert opt.t == 2
    assert np.all(model.split(opt.m)[0][0] != 0)


def test_adamw_in_place_equals_out_of_place_recurrence():
    """The whole-buffer update, over 420 cosine steps, equals the per-layer
    out-of-place recurrence bit for bit. 420 steps pass t ~ 350, where
    1 - BETA1**t rounds to 1 and the division by it is skipped, and run past
    total_steps, where the learning rate is 0.0."""
    b1, b2, eps = gradcore.BETA1, gradcore.BETA2, gradcore.EPS
    cfg = TrainConfig(learning_rate=0.03, total_steps=300, schedule="cosine")
    model = small_model(seed=12, sizes=(4, 8, 8, 3))
    ref = model.copy()
    opt = AdamW(model, cfg)
    m = [np.zeros_like(p) for p in ref.weights + ref.biases]
    v = [np.zeros_like(p) for p in ref.weights + ref.biases]
    rng = np.random.default_rng(13)
    for t in range(1, 421):
        g = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=p.shape)
             for p in ref.weights + ref.biases]
        lr = opt.current_lr()
        opt.step(model, gradcore.Gradients(g[:3], g[3:]))
        params = ref.weights + ref.biases
        for i in range(len(params)):
            m[i] = b1 * m[i] + (1.0 - b1) * g[i]
            v[i] = b2 * v[i] + (1.0 - b2) * (g[i] * g[i])
            m_hat = m[i] / (1.0 - b1**t)
            v_hat = v[i] / (1.0 - b2**t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        ref.weights, ref.biases = params[:3], params[3:]
        for got, want in zip(model.weights + model.biases, params, strict=True):
            assert np.array_equal(got, want)
    assert 1.0 - b1**opt.t == 1.0 and opt.current_lr() == 0.0
    for moments, want in ((opt.m, m), (opt.v, v)):
        weights, biases = model.split(moments)
        for got, layer in zip(weights + biases, want, strict=True):
            assert np.array_equal(got, layer)


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(1e-3, 0, 100) == pytest.approx(1e-3)
    assert cosine_lr(1e-3, 100, 100) == 0.0
    assert cosine_lr(1e-3, 50, 100) == pytest.approx(1e-3 / 2)
    assert cosine_lr(1e-3, 150, 100) == 0.0


@given(step=st.integers(0, 200), total=st.integers(1, 200))
def test_cosine_lr_bounded(step, total):
    lr = cosine_lr(0.01, step, total)
    assert 0.0 <= lr <= 0.01 + 1e-15


# ---------------------------------------------------------------------------
# flat buffers against per-layer out-of-place references


def reference_forward_cached(model, x):
    """Out-of-place forward at the model's dtype that caches every
    pre-activation; a float32 sigmoid's pre-activation is floored at -87."""
    x = np.asarray(x, dtype=model.params.dtype)
    single = x.ndim == 1
    a = x[None, :] if single else x
    acts, pre = [a], []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre.append(z)
        if i < model.n_layers - 1:
            a = np.maximum(z, 0.0) if model.hidden_activation == "relu" else np.tanh(z)
        elif model.output_activation == "sigmoid":
            if z.dtype == np.float32:
                z = np.maximum(z, -87.0)
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
        acts.append(a)
    return (acts[-1][0] if single else acts[-1]), {"pre": pre, "activations": acts,
                                                  "single": single}


def reference_deltas(model, cache, upstream):
    """Yield dL/d(pre-activation) of each layer from the top layer down, then
    dL/d(input): per-layer out-of-place backprop with relu masks from the
    pre-activations."""
    pre, acts = cache["pre"], cache["activations"]
    upstream = np.asarray(upstream, dtype=acts[-1].dtype)
    delta = upstream[None, :] if cache["single"] else upstream
    if model.output_activation == "sigmoid":
        delta = delta * acts[-1] * (1.0 - acts[-1])
    for i in range(model.n_layers - 1, -1, -1):
        yield delta
        delta = delta @ model.weights[i].T
        if i > 0:
            if model.hidden_activation == "relu":
                delta = delta * (pre[i - 1] > 0.0).astype(delta.dtype)
            else:
                delta = delta * (1.0 - acts[i] * acts[i])
    yield delta[0] if cache["single"] else delta


def reference_backward(model, cache, upstream):
    """Parameter gradients from reference_deltas; raises at the first layer
    whose gradient is not finite."""
    acts = cache["activations"]
    w_grads, b_grads = [None] * model.n_layers, [None] * model.n_layers
    deltas = reference_deltas(model, cache, upstream)
    for i, delta in zip(range(model.n_layers - 1, -1, -1), deltas):
        w_grads[i] = acts[i].T @ delta
        b_grads[i] = delta.sum(axis=0)
        if not (np.all(np.isfinite(w_grads[i])) and np.all(np.isfinite(b_grads[i]))):
            raise NumericError("non-finite gradient", layer_index=i)
    return gradcore.Gradients(w_grads, b_grads)


def reference_input_grad(model, cache, upstream):
    """The input gradient, the last of reference_deltas."""
    *_, grad = reference_deltas(model, cache, upstream)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite input gradient")
    return grad


def reference_adamw_step(opt, model, grads):
    """Out-of-place AdamW over each layer's arrays; the moments live on opt."""
    b1, b2 = gradcore.BETA1, gradcore.BETA2
    lr = opt.current_lr()
    opt.t += 1
    params = model.weights + model.biases
    if opt.t == 1:
        opt.ref_m = [np.zeros_like(p) for p in params]
        opt.ref_v = [np.zeros_like(p) for p in params]
    for i, (p, g) in enumerate(zip(params, grads.weights + grads.biases, strict=True)):
        opt.ref_m[i] = b1 * opt.ref_m[i] + (1.0 - b1) * g
        opt.ref_v[i] = b2 * opt.ref_v[i] + (1.0 - b2) * (g * g)
        m_hat = opt.ref_m[i] / (1.0 - b1**opt.t)
        v_hat = opt.ref_v[i] / (1.0 - b2**opt.t)
        p[...] = p - lr * m_hat / (np.sqrt(v_hat) + gradcore.EPS)


@pytest.mark.parametrize("poison", [None, "input", "hidden-weight", "output-weight", "upstream"])
@pytest.mark.parametrize("rows", [None, 1, 7], ids=["single", "batch-1", "batch-7"])
@pytest.mark.parametrize("hidden, output", [("relu", "sigmoid"), ("relu", "identity"),
                                            ("tanh", "sigmoid"), ("tanh", "identity")])
def test_forward_and_backward_equal_out_of_place_reference(hidden, output, rows, poison):
    """Outputs, parameter gradients and input gradients bit for bit; with a
    non-finite value planted, the same NumericError layer index."""
    model = small_model(seed=31, sizes=(5, 9, 7, 2), hidden=hidden, output=output)
    rng = np.random.default_rng(32)
    shape = (5,) if rows is None else (rows, 5)
    x = rng.normal(size=shape)
    if rows == 7:
        x[1] = -0.0  # with zero biases, every pre-activation of this row is exactly 0
    upstream = rng.normal(size=shape[:-1] + (2,))
    if poison == "input":
        x.reshape(-1, 5)[0, 3] = np.inf
    elif poison == "hidden-weight":
        model.weights[1][2, 4] = np.nan
    elif poison == "output-weight":
        model.weights[2][3, 1] = np.inf
    elif poison == "upstream":
        upstream.reshape(-1, 2)[-1, 0] = np.nan
    with np.errstate(all="ignore"):
        want_out, want_cache = reference_forward_cached(model, x)
        got_out, got_cache = forward_cached(model, x)
        assert np.array_equal(got_out, want_out, equal_nan=True)
        try:
            want = reference_backward(model, want_cache, upstream)
        except NumericError as exc:
            with pytest.raises(NumericError) as got_exc:
                backward(model, got_cache, upstream)
            assert got_exc.value.layer_index == exc.layer_index
            assert str(got_exc.value) == str(exc)
            return
        got = backward(model, got_cache, upstream)
        got_inputs = input_grad(model, got_cache, upstream)
    for g, w in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert np.array_equal(got_inputs, reference_input_grad(model, want_cache, upstream))
    assert np.array_equal(got.flat, want.flat)


def test_relu_mask_from_activation_equals_mask_from_pre_activation():
    z = np.array([-0.0, 0.0, np.nan, -np.nan, -np.inf, np.inf, 5e-324, -5e-324, 1.0, -1.0])
    a = z.copy()
    np.maximum(a, 0.0, out=a)
    assert np.array_equal(a > 0.0, z > 0.0)


def test_parameters_and_gradients_are_views_of_flat_buffers():
    model = small_model(seed=33, sizes=(4, 8, 3))
    assert model.params.size == 4 * 8 + 8 * 3 + 8 + 3
    model.weights[1][2, 0] = 5.0
    model.biases[0][7] = -2.0
    assert model.params[4 * 8 + 2 * 3] == 5.0 and model.params[4 * 8 + 8 * 3 + 7] == -2.0
    twin = model.copy()
    twin.params[:] = 0.0
    assert model.weights[1][2, 0] == 5.0
    assert model._grad is None
    _, cache = forward_cached(model, np.ones((3, 4)))
    assert model._grad is None  # serving allocates no gradient buffer
    grads = backward(model, cache, np.ones((3, 3)))
    assert np.shares_memory(grads.weights[0], grads.flat)
    assert np.array_equal(grads.flat, np.concatenate(
        [a.ravel() for a in grads.weights + grads.biases]))
    packed = gradcore.Gradients([np.ones((4, 8)), np.ones((8, 3))], [np.zeros(8), np.zeros(3)])
    assert np.array_equal(packed.flat, np.r_[np.ones(56), np.zeros(11)])


@pytest.mark.parametrize("attr, layer", [("weights", 0), ("weights", 1), ("biases", 1)])
def test_rebound_layer_fails_validate(attr, layer):
    model = small_model(seed=34, sizes=(4, 8, 3))
    model.validate()
    getattr(model, attr)[layer] = getattr(model, attr)[layer].copy()
    with pytest.raises(ConfigError, match=f"layer {layer}: .*no longer a view of params"):
        model.validate()


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_copied_model_keeps_training(round_trip):
    model = small_model(seed=37, sizes=(4, 8, 3), hidden="tanh", output="sigmoid")
    x = np.random.default_rng(37).normal(size=(5, 4))
    before = forward(model, x)
    twin = round_trip(model)
    twin.validate()
    assert twin.hidden_activation == "tanh" and twin.output_activation == "sigmoid"
    assert np.array_equal(forward(twin, x), before)
    out, cache = forward_cached(twin, x)
    AdamW(twin, TrainConfig()).step(twin, backward(twin, cache, np.ones_like(out)))
    assert not np.array_equal(forward(twin, x), before)
    assert np.array_equal(forward(model, x), before)


# ---------------------------------------------------------------------------
# precision: a model computes at the dtype of its params


def test_init_and_loader_give_float64(tmp_path):
    model = small_model(seed=40)
    assert model.params.dtype == np.float64
    save_model(model.astype(np.float32), tmp_path / "m.json")
    assert load_model(tmp_path / "m.json").params.dtype == np.float64


@pytest.mark.parametrize("hidden, output", [("relu", "sigmoid"), ("tanh", "identity")])
def test_float32_model_stays_float32(hidden, output):
    """Forward, backward, input_grad, AdamW moments, copy, pickle and the
    astype round trip of a float32 model all keep float32; the round trip
    through float64 keeps its values."""
    model = small_model(seed=41, sizes=(5, 9, 7, 2), hidden=hidden, output=output)
    m32 = model.astype(np.float32)
    assert m32.params.dtype == np.float32 and model.params.dtype == np.float64
    assert np.array_equal(m32.params, model.params.astype(np.float32))
    m32.validate()
    x = np.random.default_rng(41).normal(size=(6, 5))  # float64 input
    out, cache = forward_cached(m32, x)
    assert out.dtype == np.float32
    assert all(a.dtype == np.float32 for a in cache["activations"])
    upstream = np.ones((6, 2))  # float64 upstream
    grads = backward(m32, cache, upstream)
    assert grads.flat.dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads.weights + grads.biases)
    assert input_grad(m32, cache, upstream).dtype == np.float32
    opt = AdamW(m32, TrainConfig())
    opt.step(m32, grads)
    assert m32.params.dtype == opt.m.dtype == opt.v.dtype == np.float32
    m32.validate()
    for twin in (m32.copy(), pickle.loads(pickle.dumps(m32)), copy.deepcopy(m32)):
        twin.validate()
        assert twin.params.dtype == np.float32 and np.array_equal(twin.params, m32.params)
        assert np.array_equal(forward(twin, x), forward(m32, x))
    wide = m32.astype(np.float64)
    assert wide.params.dtype == np.float64 and np.array_equal(wide.params, m32.params)
    assert np.array_equal(wide.astype(np.float32).params, m32.params)


def test_float32_forward_and_backward_equal_out_of_place_reference():
    model = small_model(seed=42, sizes=(5, 9, 7, 2), hidden="relu",
                        output="sigmoid").astype(np.float32)
    rng = np.random.default_rng(42)
    x, upstream = rng.normal(size=(7, 5)), rng.normal(size=(7, 2))
    want_out, want_cache = reference_forward_cached(model, x)
    got_out, got_cache = forward_cached(model, x)
    assert got_out.dtype == want_out.dtype == np.float32
    assert np.array_equal(got_out, want_out)
    assert np.array_equal(backward(model, got_cache, upstream).flat,
                          reference_backward(model, want_cache, upstream).flat)
    assert np.array_equal(input_grad(model, got_cache, upstream),
                          reference_input_grad(model, want_cache, upstream))


def test_float32_sigmoid_does_not_overflow():
    """A float32 logit of -1000 gives a tiny score without any floating-point
    error; exp(1000) would overflow float32."""
    model = small_model(seed=43, sizes=(3, 4, 1), hidden="relu",
                        output="sigmoid").astype(np.float32)
    model.biases[-1][0] = -1000.0
    model.weights[-1][...] = 0.0
    with np.errstate(all="raise"):
        out = forward(model, np.ones((2, 3)))
    assert out.dtype == np.float32
    assert np.all((out >= 0.0) & (out <= 1e-30))


def test_float64_sigmoid_keeps_its_expression():
    """The float32 floor does not touch float64: a float64 logit of -800
    overflows exp as it always has and gives exactly 0."""
    model = small_model(seed=44, sizes=(3, 1), output="sigmoid")
    model.biases[0][0] = -800.0
    model.weights[0][...] = 0.0
    with np.errstate(over="ignore"):
        assert forward(model, np.ones(3))[0] == 0.0
    model.biases[0][0] = -30.0
    assert forward(model, np.ones(3))[0] == 1.0 / (1.0 + np.exp(30.0))


def test_grad_check_of_float32_model_runs_at_float64():
    model = small_model(seed=45, sizes=(3, 6, 2), hidden="tanh").astype(np.float32)
    before = model.params.copy()
    x = np.random.default_rng(45).normal(size=(4, 3))

    def loss_fn(y):
        return 0.5 * float(np.sum(y * y)), y

    report = grad_check(model, loss_fn, x, tolerance=1e-4)
    assert report.passed, report
    assert model.params.dtype == np.float32 and np.array_equal(model.params, before)


@pytest.fixture
def reference_gradcore(monkeypatch):
    """Route forward_cached, backward, input_grad and AdamW.step through the
    references."""
    monkeypatch.setattr(gradcore, "forward_cached", reference_forward_cached)
    monkeypatch.setattr(gradcore, "backward", reference_backward)
    monkeypatch.setattr(gradcore, "input_grad", reference_input_grad)
    monkeypatch.setattr(gradcore.AdamW, "step", reference_adamw_step)


def test_train_locoval_equals_reference_run(plausibility_dataset, request):
    from plaustraj import locoval

    cfg = TrainConfig(learning_rate=1e-3, total_steps=400, batch_size=32, seed=35,
                      schedule="cosine")

    def run():
        return locoval.train_locoval(plausibility_dataset, cfg, hidden=(16, 16))

    got = run()
    request.getfixturevalue("reference_gradcore")
    want = run()
    assert np.array_equal(got.model.net.params, want.model.net.params)
    assert got.curve == want.curve and got.best_holdout_mse == want.best_holdout_mse


def test_train_predictor_equals_reference_run(training_instances, trained_scorer, request):
    from plaustraj import predictor

    cfg = TrainConfig(learning_rate=1e-3, total_steps=60, batch_size=8, seed=36)

    def run():
        return predictor.train_predictor(training_instances[:30], trained_scorer.model, cfg,
                                         alpha=100.0, n_heads=3, trunk_hidden=(32, 32))

    got = run()
    request.getfixturevalue("reference_gradcore")
    want = run()
    assert np.array_equal(got.model.trunk.params, want.model.trunk.params)
    assert np.array_equal(got.model.head.params, want.model.head.params)
    assert got.curve == want.curve


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"total_steps": 0},
        {"batch_size": 0},
        {"learning_rate": float("nan")},
        {"schedule": "linear"},
        {"seed": -1},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# serialization


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = small_model(seed=20, sizes=(5, 16, 16, 2), hidden="relu", output="sigmoid")
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    x = np.random.default_rng(21).normal(size=(4, 5))
    assert np.array_equal(forward(model, x), forward(loaded, x))


def test_checkpoint_json_is_self_describing(tmp_path):
    model = small_model(seed=22)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema_version", "layer_sizes", "hidden_activation",
                         "output_activation", "params"]
    assert doc["schema_version"] == 3
    assert doc["layer_sizes"] == [4, 8, 3]
    # little-endian float64 in params order: every weight matrix, then every bias
    raw = base64.b64decode(doc["params"])
    assert raw == np.concatenate([*(w.ravel() for w in model.weights), *model.biases]).tobytes()
    assert params_sha256(model) == hashlib.sha256(raw).hexdigest()
    assert params_sha256(model.astype(np.float32)) == hashlib.sha256(
        model.astype(np.float32).params.astype("<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("version", [1, 2, 99, None, "3"])
def test_checkpoint_rejects_unknown_schema(tmp_path, version):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({**model_to_dict(small_model()), "schema_version": version}))
    with pytest.raises(ConfigError, match="retrain") as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: checkpoint schema {version!r}, but this "
                                      f"version reads only schema 3")


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def test_checkpoint_roundtrip_keeps_extreme_values(tmp_path):
    """-0.0, subnormals and +-1e300 come back with their bits."""
    special = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.0]
    model = MlpModel([2, 3, 2], [np.array(special).reshape(2, 3), np.full((3, 2), -0.0)],
                     [np.array([1e300, 5e-324, -0.0]), np.array([-1e300, 1e-310])])
    model.validate()
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.params.dtype == np.float64
    assert loaded.params.tobytes() == model.params.tobytes()


def test_checkpoint_of_float32_model_loads_as_equal_float64(tmp_path):
    model = small_model(seed=23).astype(np.float32)
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.params.dtype == np.float64
    assert np.array_equal(loaded.params, model.params)
    assert loaded.params.tobytes() == model.params.astype(np.float64).tobytes()


@pytest.mark.parametrize("change", ["float-short", "float-long", "layer-added"])
def test_checkpoint_count_mismatch_is_data_error(change):
    """A params payload one float short or one float long, or layer sizes
    that need more parameters than the payload holds."""
    doc = model_to_dict(small_model())
    raw = base64.b64decode(doc["params"])
    if change == "float-short":
        doc["params"] = b64(raw[:-8])
    elif change == "float-long":
        doc["params"] = b64(raw + raw[:8])
    else:
        doc["layer_sizes"] = [4, 8, 3, 3]
    with pytest.raises(DataError, match="params holds"):
        model_from_dict(doc)


@pytest.mark.parametrize("payload, reason", [
    (b64(b"\x00"), "params holds 1 bytes"),
    ("*" + b64(bytes(8 * 67))[1:], "not base64"),
    ("AAAAAAAAAAA", "not base64"),
    ([0.0] * 67, "not a base64 string"),
    (None, "not a base64 string"),
], ids=["one-byte", "non-base64-char", "bad-padding", "list", "null"])
def test_checkpoint_bad_payload_is_data_error(payload, reason):
    doc = model_to_dict(small_model())
    doc["params"] = payload
    with pytest.raises(DataError, match=reason):
        model_from_dict(doc)


@pytest.mark.parametrize("sizes", [[4, 8.9, 3], [4, True, 3], [4, 0, 3], "4 8 3"],
                         ids=["real", "bool", "zero", "string"])
def test_checkpoint_layer_sizes_must_be_positive_integers(sizes):
    doc = model_to_dict(small_model())
    doc["layer_sizes"] = sizes
    with pytest.raises(DataError, match="must be a list of integers >= 1"):
        model_from_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("hidden_activation", "sigmoid"), ("hidden_activation", None),
    ("output_activation", "relu"), ("output_activation", ["sigmoid"]),
], ids=["hidden-sigmoid", "hidden-null", "output-relu", "output-list"])
def test_checkpoint_unknown_activation_is_data_error(tmp_path, key, value):
    """MlpModel.validate refuses the activation, and load_checkpoint reports
    it as a malformed checkpoint that names the file and the activation."""
    path = tmp_path / "m.json"
    save_checkpoint({**model_to_dict(small_model()), key: value}, path)
    with pytest.raises(DataError) as info:
        load_model(path)
    kind = key.split("_")[0]
    assert str(info.value) == f"{path}: malformed checkpoint (unknown {kind} activation {value!r})"


def test_checkpoint_nan_payload_is_numeric_error():
    doc = model_to_dict(small_model())
    flat = np.frombuffer(base64.b64decode(doc["params"]), "<f8").copy()
    flat[5] = np.nan
    doc["params"] = b64(flat.tobytes())
    with pytest.raises(NumericError, match="non-finite parameter"):
        model_from_dict(doc)


def test_forward_deterministic():
    model = small_model(seed=30)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(forward(model, x), forward(model, x))

import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import awkward_observables, make_observable, straight_trajectory
from plaustraj import gradcore, locoval, predictor
from plaustraj.errors import ConfigError, DataError, InputShapeError
from plaustraj.gradcore import TrainConfig
from plaustraj.locoval import FeatureLayout, build_locoval
from plaustraj.oracle import Trajectory, TrajectorySet
from plaustraj.predictor import (
    InputLayout,
    PredictorModel,
    build_input,
    build_predictor,
    emloco_grad,
    emloco_loss,
    load_predictor,
    min_of_k_mse,
    predict,
    predict_heads,
    save_predictor,
    train_predictor,
)

LAYOUT = InputLayout(past_frames=9)
FIXTURE = Path(__file__).parent / "data" / "predictor_k2.json"


def head_block(head, k, horizon=12):
    """Head k's weight columns in the fused head layer."""
    return head.weights[0][:, k * 2 * horizon : (k + 1) * 2 * horizon]


def past_and_obs(speed=1.2, heading=0.0):
    past = straight_trajectory(n=9, speed=speed, heading=heading)
    obs = make_observable(heading=heading, speed=speed, root=tuple(past.points[-1]))
    return past, obs


# ---------------------------------------------------------------------------
# forward path


def test_predict_anchored_at_last_observation():
    model = build_predictor(LAYOUT, horizon=12, n_heads=1, seed=0)
    # zero out the single head so every displacement vanishes
    model.head.weights[0][:] = 0.0
    past, obs = past_and_obs()
    pred = predict(model, past, obs)
    assert len(pred.trajectories) == 1
    assert np.allclose(pred.trajectories[0].points, past.points[-1])


def test_predict_k1_single_trajectory():
    model = build_predictor(LAYOUT, horizon=12, n_heads=1, seed=1)
    past, obs = past_and_obs()
    pred = predict(model, past, obs)
    assert len(pred.trajectories) == 1
    assert len(pred.trajectories[0]) == 12


def test_heads_start_diverse():
    model = build_predictor(LAYOUT, horizon=12, n_heads=4, seed=2)
    past, obs = past_and_obs()
    pred = predict(model, past, obs)
    flat = [tuple(t.points.reshape(-1)) for t in pred.trajectories]
    assert len(set(flat)) == 4


def test_predict_anchor_exact():
    model = build_predictor(LAYOUT, horizon=12, n_heads=3, seed=3)
    past, obs = past_and_obs()
    pred = predict(model, past, obs)
    feats = build_input(past.points[None], obs.joint_array()[None], LAYOUT)
    out = gradcore.forward(model.head, gradcore.forward(model.trunk, feats))
    # each head's first point = the last observed point + its first displacement
    first = past.points[-1] + out.reshape(3, 12, 2)[:, 0]
    assert pred.trajectories.points[:, 0].tobytes() == first.tobytes()


def test_predict_nan_head_weight_is_an_input_shape_error():
    model = build_predictor(LAYOUT, horizon=12, n_heads=2, seed=4)
    head_block(model.head, 1)[0, 0] = np.nan
    past, obs = past_and_obs()
    with pytest.raises(InputShapeError, match="^trajectory contains non-finite coordinates$"):
        predict(model, past, obs)


def test_predict_holds_the_heads_as_one_array():
    """The K heads are one (K, T_f, 2) array, one cumsum of the head block
    anchored at the last observation; taking a head builds its Trajectory."""
    model = build_predictor(LAYOUT, horizon=12, n_heads=4, trunk_hidden=(16, 8), seed=12)
    past, obs = past_and_obs()
    heads = predict(model, past, obs).trajectories
    assert isinstance(heads, TrajectorySet) and heads.dt == past.dt
    feats = build_input(past.points[None], obs.joint_array()[None], LAYOUT)
    out = gradcore.forward(model.head, gradcore.forward(model.trunk, feats))
    want = past.points[-1] + np.cumsum(out.reshape(4, 12, 2), axis=1)
    assert heads.points.shape == (4, 12, 2) and heads.points.tobytes() == want.tobytes()
    assert [t.points.tobytes() for t in heads] == [p.tobytes() for p in want]


@pytest.mark.parametrize("include_pose", [True, False], ids=["pose", "no-pose"])
@pytest.mark.parametrize("k", [1, 2, 20])
def test_predict_is_the_one_row_call_of_predict_heads(k, include_pose):
    """predict gives the one row of predict_heads bit for bit, and
    predict_heads of N windows is one trunk and one head forward over the N
    input rows with each window's heads anchored at its last position."""
    layout = InputLayout(past_frames=9, include_pose=include_pose)
    model = build_predictor(layout, horizon=12, n_heads=k, trunk_hidden=(16, 8), seed=k)
    model.head.biases[0][:] = np.linspace(-1.0, 1.0, k * 24)
    windows = [past_and_obs(speed=0.4 + 0.3 * i, heading=0.5 * i) for i in range(5)]
    past = np.stack([p.points for p, _ in windows])
    joints = np.stack([o.joint_array() for _, o in windows])
    heads = predict_heads(model, past, joints if include_pose else None)
    out = gradcore.forward(model.head, gradcore.forward(model.trunk,
                                                        build_input(past, joints, layout)))
    want = past[:, -1, None, None] + np.cumsum(out.reshape(5, k, 12, 2), axis=2)
    assert heads.shape == (5, k, 12, 2) and heads.tobytes() == want.tobytes()
    for p, o in windows:
        one = predict_heads(model, p.points[None], o.joint_array()[None])
        pred = predict(model, p, o if include_pose else None)
        assert pred.trajectories.points.tobytes() == one[0].tobytes()


def test_head_blocks_are_the_per_head_seeded_draws():
    model = build_predictor(LAYOUT, horizon=12, n_heads=3, trunk_hidden=(16, 8), seed=7)
    assert model.n_heads == 3
    assert model.head.layer_sizes == [8, 3 * 24]
    for k in range(3):
        ref = gradcore.init_mlp([8, 24], np.random.default_rng(np.random.SeedSequence([7, k + 1])))
        assert np.array_equal(head_block(model.head, k), ref.weights[0])
    assert np.array_equal(model.head.biases[0], np.zeros(3 * 24))


def per_head_reference(trunk, heads, feats, anchor):
    """Trajectory points of each head, one gradcore.forward per head."""
    h = gradcore.forward(trunk, feats)
    return [anchor + np.cumsum(gradcore.forward(head, h).reshape(-1, 2), axis=0)
            for head in heads]


def test_predict_equals_per_head_forward():
    model = build_predictor(LAYOUT, horizon=12, n_heads=4, trunk_hidden=(16, 8), seed=8)
    model.head.biases[0][:] = np.linspace(-1.0, 1.0, 4 * 24)
    heads = [
        gradcore.MlpModel([8, 24], [head_block(model.head, k)],
                          [model.head.biases[0][k * 24 : (k + 1) * 24]])
        for k in range(4)
    ]
    past, obs = past_and_obs()
    pred = predict(model, past, obs)
    feats = build_input(past.points[None], obs.joint_array()[None], LAYOUT)
    ref = per_head_reference(model.trunk, heads, feats, past.points[-1])
    for traj, points in zip(pred.trajectories, ref, strict=True):
        assert np.array_equal(traj.points, points)


def test_k2_checkpoint_loads_and_resaves(tmp_path):
    """The K=2 fixture, first written when the heads were separate models,
    predicts as one forward per column block of its head entry and saves
    back to the same bytes."""
    doc = json.loads(FIXTURE.read_text())
    model = load_predictor(FIXTURE)
    assert model.n_heads == 2
    past, obs = past_and_obs()
    pred = predict(model, past, obs)
    head = gradcore.model_from_dict(doc["head"])
    ref = per_head_reference(
        gradcore.model_from_dict(doc["trunk"]),
        [gradcore.MlpModel([8, 24], [head_block(head, k)], [head.biases[0][k * 24 : (k + 1) * 24]])
         for k in range(2)],
        build_input(past.points[None], obs.joint_array()[None], model.input_layout),
        past.points[-1],
    )
    for traj, points in zip(pred.trajectories, ref, strict=True):
        assert np.array_equal(traj.points, points)
    path = tmp_path / "resaved.json"
    save_predictor(model, path)
    assert path.read_bytes() == FIXTURE.read_bytes()


def test_checkpoint_model_entries_hold_only_the_model(tmp_path, training_instances,
                                                      trained_scorer):
    """The schema version, train config and scorer hash are fields of each
    document; a model entry holds only its layer sizes, activations and params."""
    entry_keys = {"layer_sizes", "hidden_activation", "output_activation", "params"}
    result = train_predictor(training_instances[:20], None, _tiny_config(steps=2), n_heads=2)
    pred_path, scorer_path = tmp_path / "pred.json", tmp_path / "scorer.json"
    save_predictor(result, pred_path, locoval_checksum="ab" * 32, train_config=_tiny_config())
    locoval.save_locoval(trained_scorer.model, scorer_path, train_config=_tiny_config())
    pred, scorer = json.loads(pred_path.read_text()), json.loads(scorer_path.read_text())
    assert set(pred) == {"schema_version", "trunk", "head", "horizon", "input_layout", "alpha",
                         "train_config", "locoval_checksum"}
    assert set(scorer) == {"schema_version", "net", "feature_layout", "train_config"}
    for entry in (pred["trunk"], pred["head"], scorer["net"]):
        assert set(entry) == entry_keys
    assert pred["schema_version"] == scorer["schema_version"] == 3
    assert pred["train_config"]["total_steps"] == scorer["train_config"]["total_steps"] == 60
    assert pred["locoval_checksum"] == "ab" * 32 and pred["alpha"] == 0.0


def _head_width_36(doc):
    """A head entry 36 wide: not a multiple of 2 * horizon = 24."""
    head = doc["head"]
    flat = np.frombuffer(base64.b64decode(head["params"]), "<f8")
    weights, biases = flat[: 8 * 48].reshape(8, 48), flat[8 * 48 :]
    head["layer_sizes"] = [8, 36]
    narrow = np.concatenate([weights[:, :36].ravel(), biases[:36]])
    head["params"] = base64.b64encode(narrow.tobytes()).decode("ascii")


def _two_layer_head(doc):
    doc["head"] = gradcore.model_to_dict(
        gradcore.init_mlp([8, 8, 48], np.random.default_rng(0))
    )


@pytest.mark.parametrize("corrupt", [_head_width_36, _two_layer_head],
                         ids=["width-not-a-multiple", "two-layers"])
def test_load_predictor_rejects_a_bad_head(tmp_path, corrupt):
    doc = json.loads(FIXTURE.read_text())
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="the head must be one linear layer emitting a "
                                        "multiple of 24 displacements") as info:
        load_predictor(path)
    assert str(info.value).startswith(f"{path}: malformed checkpoint (")


def test_build_predictor_needs_a_head():
    with pytest.raises(ConfigError, match="need at least one prediction head"):
        build_predictor(LAYOUT, horizon=12, n_heads=0)


@pytest.mark.parametrize("field, value, message", [
    ("horizon", 0, "horizon must be an integer >= 1, got 0"),
    ("past_frames", 9.0, "input_layout.past_frames must be an integer, got 9.0"),
    ("joint_count", None, "input_layout.joint_count must be an integer, got None"),
], ids=["horizon-zero", "past-frames-real", "joint-count-null"])
def test_load_predictor_checks_its_fields(tmp_path, field, value, message):
    doc = json.loads(FIXTURE.read_text())
    (doc if field == "horizon" else doc["input_layout"])[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_predictor(path)
    assert str(info.value) == f"{path}: malformed checkpoint ({message})"


def test_load_predictor_needs_every_layout_field(tmp_path):
    doc = json.loads(FIXTURE.read_text())
    del doc["input_layout"]["include_pose"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="input_layout must be an object of "
                                        "past_frames, include_pose, joint_count, got"):
        load_predictor(path)


def test_build_input_shape_checks():
    joints = make_observable().joint_array()[None]
    with pytest.raises(InputShapeError):
        build_input(straight_trajectory(n=5).points[None], joints, LAYOUT)
    with pytest.raises(InputShapeError):
        build_input(straight_trajectory(n=9).points[None], None, LAYOUT)  # pose flag needs obs
    with pytest.raises(InputShapeError):
        build_input(straight_trajectory(n=9).points[None], joints[:, :7], LAYOUT)


def reference_build_input(past, obs, layout):
    """The per-window input row that build_input's rows must equal bit for
    bit: past positions relative to the last one, then each joint in joint
    order relative to the root on the ground plane."""
    rel = (past.points - past.points[-1]).reshape(-1)
    if not layout.include_pose:
        return rel
    root = obs.root_position
    parts = [rel]
    for name in obs.joint_order():
        j = obs.joints[name]
        parts.append(np.array([j[0] - root[0], j[1] - root[1], j[2]]))
    return np.concatenate(parts)


@pytest.mark.parametrize("extra_joint", [False, True], ids=["required-joints", "extra-joint"])
@pytest.mark.parametrize("include_pose", [True, False], ids=["pose", "no-pose"])
def test_build_input_rows_equal_per_window_reference(extra_joint, include_pose):
    observables = awkward_observables(extra_joint=extra_joint)
    rng = np.random.default_rng(7)
    pasts = [Trajectory(o.root_position + np.cumsum(rng.normal(0, 0.5, size=(9, 2)), axis=0), 0.4)
             for o in observables]
    layout = InputLayout(past_frames=9, include_pose=include_pose,
                         joint_count=len(observables[0].joints))
    got = build_input(np.stack([p.points for p in pasts]),
                      np.stack([o.joint_array() for o in observables]), layout)
    want = np.stack([reference_build_input(p, o, layout) for p, o in zip(pasts, observables)])
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


def test_input_layout_sizes():
    assert InputLayout(past_frames=9).feature_size == 18 + 24
    assert InputLayout(past_frames=2, include_pose=False).feature_size == 4


# ---------------------------------------------------------------------------
# losses


def test_loss_mse_zero_and_offset():
    gt = straight_trajectory(n=12).points
    value, sel, grad = min_of_k_mse(gt[None, None], gt[None])
    assert (value, int(sel[0])) == (0.0, 0)
    assert not grad.any()
    value, _, _ = min_of_k_mse((gt + [1.0, 0.0])[None, None], gt[None])
    assert value == pytest.approx(0.5)


def test_loss_mse_matches_double_loop():
    """K=1 is plain MSE, averaged over the batch."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 1, 12, 2))
    b = rng.normal(size=(3, 12, 2))
    got, _, grad = min_of_k_mse(a, b)
    total = 0.0
    for i in range(3):
        for t in range(12):
            for c in range(2):
                total += (a[i, 0, t, c] - b[i, t, c]) ** 2
    assert got == pytest.approx(total / (3 * 24))
    np.testing.assert_allclose(grad, 2.0 * (a[:, 0] - b) / (3 * 24))


def test_loss_minmse_picks_exact_head():
    gt = straight_trajectory(n=12).points
    value, sel, grad = min_of_k_mse(np.stack([gt + 2.0, gt])[None], gt[None])
    assert value == 0.0
    assert sel.tolist() == [1]
    assert not grad.any()


def test_loss_minmse_tie_breaks_low_index():
    gt = straight_trajectory(n=12).points
    dup = gt + 1.0
    _, sel, _ = min_of_k_mse(np.stack([dup, dup, dup])[None], gt[None])
    assert sel.tolist() == [0]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
def test_minmse_dominance(seed, k):
    rng = np.random.default_rng(seed)
    gt = rng.normal(size=(4, 8, 2))
    heads = rng.normal(size=(4, k, 8, 2))
    value, sel, _ = min_of_k_mse(heads, gt)
    per_head = [[min_of_k_mse(heads[i : i + 1, j : j + 1], gt[i : i + 1])[0]
                 for i in range(4)] for j in range(k)]
    for i in range(4):
        column = [per_head[j][i] for j in range(k)]
        assert column[sel[i]] == min(column)
    assert value == pytest.approx(np.mean(np.min(per_head, axis=0)))
    if k == 1:
        assert value == pytest.approx(np.mean(per_head[0]))


def _frames(observables, layout):
    """Each sample's canonical root (B, 2), rotation (B, 2, 2) and observation tail."""
    return locoval.observation_frame(np.stack([obs.joint_array() for obs in observables]),
                                     np.stack([obs.root_velocity for obs in observables]),
                                     layout)


def test_loss_emloco_trivial_values():
    """A scorer whose output layer is zeroed scores every row sigmoid(bias):
    the loss is (sigmoid(bias) - 1)^2 and no gradient reaches the steps."""
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=5)
    past, obs = past_and_obs()
    _, rots, tails = _frames([obs, obs], scorer.layout)
    steps = np.random.default_rng(6).uniform(0.1, 0.5, size=(2, 3, 12, 2))
    scorer.net.weights[-1][:] = 0.0
    for bias, expected in ((0.0, 0.25), (800.0, 0.0)):
        scorer.net.biases[-1][:] = bias
        value, scorer_pass = emloco_loss(scorer, steps, rots, tails)
        assert value == expected
        assert not emloco_grad(scorer, scorer_pass).any()


def _emloco_fd_check(scorer, observables, disp, anchors):
    """emloco_grad's step gradient against central finite differences of
    mean_k mean_b (score - 1)^2, each score from locoval.score."""
    B, K, horizon = disp.shape[:3]
    roots, rots, tails = _frames(observables, scorer.layout)
    steps = disp.copy()
    steps[:, :, 0] += (anchors - roots)[:, None]
    analytic = emloco_grad(scorer, emloco_loss(scorer, steps, rots, tails)[1])

    def emloco_of(d, b):
        pts = anchors[b] + np.cumsum(d, axis=0)
        s = locoval.score(scorer, Trajectory(pts, 0.4), observables[b])
        return (s - 1.0) ** 2 / (K * B)

    eps = 1e-6
    for b in range(B):
        for k in range(K):
            for t in range(horizon):
                for c in range(2):
                    bumped = disp[b, k].copy()
                    bumped[t, c] += eps
                    up = emloco_of(bumped, b)
                    bumped[t, c] -= 2 * eps
                    down = emloco_of(bumped, b)
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(analytic[b, k, t, c]), abs(numeric), 1e-6)
                    assert abs(analytic[b, k, t, c] - numeric) / denom < 1e-4


def test_emloco_gradient_through_scorer_finite_differences():
    """The regularizer gradient w.r.t. head displacements, from the functions
    train_predictor calls (one scorer pass over the rows of K heads), must
    match central finite differences of the composed score. This is the chain
    that makes the second training stage work."""
    horizon, K = 6, 3
    scorer = build_locoval(FeatureLayout(horizon=horizon), hidden=(10, 10), seed=9)
    past, obs = past_and_obs(speed=1.0, heading=0.2)
    disp = np.random.default_rng(10).uniform(0.05, 0.4, size=(1, K, horizon, 2))
    _emloco_fd_check(scorer, [obs], disp, past.points[-1][None])


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 5000))
def test_emloco_gradient_per_sample_frames(seed):
    """Samples of one batch each bring their own canonical frame and tail."""
    rng = np.random.default_rng(seed)
    scorer = build_locoval(FeatureLayout(horizon=6), hidden=(12, 12), seed=seed)
    observables = [make_observable(heading=h, speed=1.0, root=tuple(rng.normal(size=2)))
                   for h in rng.uniform(-np.pi, np.pi, size=2)]
    anchors = np.stack([o.root_position for o in observables]) + rng.normal(0, 0.2, size=(2, 2))
    disp = rng.uniform(0.1, 0.5, size=(2, 2, 6, 2))
    _emloco_fd_check(scorer, observables, disp, anchors)


# ---------------------------------------------------------------------------
# training


def _tiny_config(steps=60, seed=21):
    return TrainConfig(learning_rate=1e-3, total_steps=steps, batch_size=8, seed=seed)


def test_train_reduces_error(training_instances):
    cfg = TrainConfig(learning_rate=1e-3, total_steps=300, batch_size=16, seed=20)
    result = train_predictor(training_instances[:60], None, cfg)
    untrained = build_predictor(
        result.model.input_layout, 12, 1, seed=cfg.seed
    )

    def mean_ade(model):
        errs = []
        for inst in training_instances[:60]:
            pred = predict(model, inst.past, inst.observable)
            errs.append(
                np.mean(np.linalg.norm(pred.trajectories[0].points - inst.future.points, axis=1))
            )
        return np.mean(errs)

    assert mean_ade(result.model) < mean_ade(untrained)


def test_train_alpha_zero_bit_identical_to_no_scorer(training_instances, trained_scorer):
    """The regularizer must be fully detached at alpha=0: parameters come out
    bit-equal whether or not a scorer is wired in."""
    cfg = _tiny_config()
    with_scorer = train_predictor(
        training_instances[:40], trained_scorer.model, cfg, alpha=0.0, n_heads=2
    )
    without = train_predictor(training_instances[:40], None, cfg, alpha=0.0, n_heads=2)
    for wa, wb in zip(with_scorer.model.trunk.weights, without.model.trunk.weights):
        assert np.array_equal(wa, wb)
    assert np.array_equal(with_scorer.model.head.weights[0], without.model.head.weights[0])
    assert np.array_equal(with_scorer.model.head.biases[0], without.model.head.biases[0])


@pytest.mark.parametrize("alpha", [0.0, 100.0])
def test_one_scorer_pass_per_step(training_instances, trained_scorer, monkeypatch, alpha):
    """The frozen scorer runs over all K·B rows once per step at alpha 100.
    At alpha 0, where it only reports loss_plaus, it runs once per curve
    point: at a curve point every 2 steps, at steps 2, 4 and the last, 5."""
    scorer = trained_scorer.model
    calls = []
    forward_cached = gradcore.forward_cached

    def counting(model, x):
        # training runs a float32 copy of the scorer's net: match it by its sizes
        if model.layer_sizes == scorer.net.layer_sizes:
            calls.append(len(x))
        return forward_cached(model, x)

    monkeypatch.setattr(gradcore, "forward_cached", counting)
    monkeypatch.setattr(gradcore, "CURVE_EVERY", 2)
    cfg = _tiny_config(steps=5)
    result = train_predictor(training_instances[:20], scorer, cfg, alpha=alpha, n_heads=3)
    assert [p.step for p in result.curve] == [2, 4, 5]
    assert calls == [3 * cfg.batch_size] * (cfg.total_steps if alpha > 0 else 3)


@pytest.mark.parametrize("alpha", [0.0, 100.0])
def test_curve_points_against_per_step_curve(training_instances, trained_scorer, monkeypatch,
                                             alpha):
    """A run at the curve cadence of 50 steps against a run with a curve
    point every step, of the same seed. Parameters and batches do not
    depend on the cadence, so the per-step
    curve holds every step's losses. At alpha 0 each curve point's loss_plaus
    is the loss of its own step's batch; at alpha 100 it is the mean over its
    interval, as loss_gt is at both."""
    cfg = _tiny_config(steps=120)

    def run(curve_every):
        monkeypatch.setattr(gradcore, "CURVE_EVERY", curve_every)
        return train_predictor(training_instances[:30], trained_scorer.model, cfg, alpha=alpha,
                               n_heads=3, trunk_hidden=(32, 32))

    coarse, per_step = run(50), run(1)
    assert np.array_equal(coarse.model.trunk.params, per_step.model.trunk.params)
    assert np.array_equal(coarse.model.head.params, per_step.model.head.params)
    assert [p.step for p in coarse.curve] == [50, 100, 120]
    assert [p.step for p in per_step.curve] == list(range(1, 121))
    start = 0
    for point in coarse.curve:
        interval = per_step.curve[start : point.step]
        start = point.step
        assert point.loss_gt == sum(p.loss_gt for p in interval) / len(interval)
        want_plaus = (sum(p.loss_plaus for p in interval) / len(interval) if alpha > 0
                      else interval[-1].loss_plaus)
        assert point.loss_plaus == want_plaus > 0.0


def _k_major_train(dataset, scorer, config, alpha, n_heads, trunk_hidden, eval_every):
    """The training loop with the heads ordered K-major, (K, B, T_f, 2) with
    scorer row k·B + b and each sample's frame tiled K times: the reference
    that train_predictor, in the head layer's (B, K, T_f, 2) order, matches
    bit for bit while the B·K scorer rows fill whole row blocks. Returns the
    float32 trunk and head and the curve."""
    horizon, K = dataset.horizon, n_heads
    layout = InputLayout(past_frames=dataset.past_frames, joint_count=len(dataset.joint_names))
    built = build_predictor(layout, horizon, K, trunk_hidden, seed=config.seed)
    trunk, head = built.trunk.astype(np.float32), built.head.astype(np.float32)
    scorer = locoval.LocoValModel(scorer.net.astype(np.float32), scorer.layout)
    X, gt, anchors, rots, offsets, tails = predictor._prepare_training_arrays(
        dataset, PredictorModel(trunk, head, horizon, layout), scorer)
    rng = np.random.default_rng(config.seed)
    opt_trunk, opt_head = gradcore.AdamW(trunk, config), gradcore.AdamW(head, config)
    curve, acc_gt, acc_pl, acc_n = [], 0.0, 0.0, 0
    for step in range(config.total_steps):
        idx = rng.integers(len(X), size=min(config.batch_size, len(X)))
        B, rows = len(idx), np.arange(len(idx))
        trunk_out, trunk_cache = gradcore.forward_cached(trunk, X[idx])
        out, head_cache = gradcore.forward_cached(head, trunk_out)
        disp = out.reshape(B, K, horizon, 2).transpose(1, 0, 2, 3)
        points = anchors[idx][None, :, None, :] + np.cumsum(disp, axis=2)
        d_out = np.zeros_like(out)
        d_disp = d_out.reshape(B, K, horizon, 2).transpose(1, 0, 2, 3)
        err = points - gt[idx][None]
        per_head = np.mean(err**2, axis=(2, 3))  # (K, B)
        sel = np.argmin(per_head, axis=0)
        loss_gt = float(np.mean(per_head[sel, rows]))
        d_points = 2.0 * err[sel, rows] / (2 * horizon) / B
        d_disp[sel, rows] = np.flip(np.cumsum(np.flip(d_points, axis=1), axis=1), axis=1)
        closes = (step + 1) % eval_every == 0 or step == config.total_steps - 1
        loss_pl = 0.0
        if alpha > 0.0 or closes:
            steps = disp.copy()
            steps[:, :, 0, :] += offsets[idx]
            rb = np.tile(rots[idx], (K, 1, 1))
            # each of the K·B rows a one-row block in its own tiled frame
            feats = locoval.encode_steps(steps.reshape(K * B, 1, horizon, 2), rb,
                                         np.tile(tails[idx], (K, 1)))
            s_out, cache = gradcore.forward_cached(scorer.net, feats.reshape(K * B, -1))
            s = s_out[:, 0].reshape(K, B)
            loss_pl = sum(float(v) for v in np.mean((s - 1.0) ** 2, axis=1)) / K
            if alpha > 0.0:
                g = gradcore.input_grad(scorer.net, cache,
                                        (2.0 * (s - 1.0) / B / K).reshape(K * B, 1))
                d_disp += alpha * (g[:, :2 * horizon].reshape(K * B, horizon, 2) @ rb).reshape(
                    K, B, horizon, 2)
        g_head = gradcore.backward(head, head_cache, d_out)
        d_trunk = gradcore.input_grad(head, head_cache, d_out)
        opt_head.step(head, g_head)
        opt_trunk.step(trunk, gradcore.backward(trunk, trunk_cache, d_trunk))
        acc_gt, acc_pl, acc_n = acc_gt + loss_gt, acc_pl + loss_pl, acc_n + 1
        if closes:
            mean_gt = acc_gt / acc_n
            mean_pl = acc_pl / acc_n if alpha > 0.0 else loss_pl
            curve.append(predictor.PredictorCurvePoint(
                step + 1, mean_gt, mean_pl, alpha * mean_pl / mean_gt,
                bool(alpha * mean_pl > mean_gt)))
            acc_gt, acc_pl, acc_n = 0.0, 0.0, 0
    return trunk, head, curve


def _train_against_k_major(monkeypatch, instances, scorer, alpha, k, n, batch):
    cfg = TrainConfig(learning_rate=1e-3, total_steps=40, batch_size=batch, seed=23)
    monkeypatch.setattr(gradcore, "CURVE_EVERY", 10)
    result = train_predictor(instances[:n], scorer, cfg, alpha=alpha, n_heads=k,
                             trunk_hidden=(32, 32))
    trunk, head, curve = _k_major_train(instances[:n], scorer, cfg, alpha, k, (32, 32),
                                        eval_every=10)
    assert [p.step for p in curve] == [10, 20, 30, 40]
    return result, trunk, head, curve


@pytest.mark.parametrize("n, batch", [(30, 16), (16, 24)], ids=["batch-16", "batch-over-n"])
@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("alpha", [0.0, 10.0, 100.0])
def test_train_matches_k_major_reference(training_instances, trained_scorer, monkeypatch, alpha,
                                         k, n, batch):
    """Training in the head layer's (B, K) order gives the K-major loop's
    trunk, head and curve bit for bit, for a batch of 16 of 30 windows and
    for one larger than its 16 windows. Both give B·K scorer rows in whole
    blocks of 16 (see the partial-block test below)."""
    result, trunk, head, curve = _train_against_k_major(
        monkeypatch, training_instances, trained_scorer.model, alpha, k, n, batch)
    assert np.array_equal(result.model.trunk.params, trunk.params)
    assert np.array_equal(result.model.head.params, head.params)
    assert result.curve == curve


def test_train_k_major_reference_with_a_partial_row_block(training_instances, trained_scorer,
                                                          monkeypatch):
    """The scorer's output layer is one matrix-vector product over the B·K
    rows, and BLAS computes its last B·K mod 4 rows (on some builds mod 8 or
    16) on a remainder path that rounds differently. Which head of which
    sample lands there depends on the row order, so at B·K = 30·3 the two
    orders agree only to float32 rounding."""
    result, trunk, head, curve = _train_against_k_major(
        monkeypatch, training_instances, trained_scorer.model, 100.0, 3, 30, 40)
    np.testing.assert_allclose(result.model.trunk.params, trunk.params, rtol=0, atol=1e-6)
    np.testing.assert_allclose(result.model.head.params, head.params, rtol=0, atol=1e-6)
    for got, want in zip(result.curve, curve):
        assert got.step == want.step and got.loss_gt == pytest.approx(want.loss_gt, rel=1e-5)
        assert got.loss_plaus == pytest.approx(want.loss_plaus, rel=1e-5)


def test_train_deterministic(training_instances):
    cfg = _tiny_config(seed=33)
    a = train_predictor(training_instances[:30], None, cfg, n_heads=2)
    b = train_predictor(training_instances[:30], None, cfg, n_heads=2)
    for wa, wb in zip(a.model.trunk.weights, b.model.trunk.weights):
        assert np.array_equal(wa, wb)


def test_train_emloco_raises_score(training_instances, trained_scorer):
    """The same seed trained against the frozen scorer at alpha 100 reaches a
    higher mean plausibility score than at alpha 0."""
    cfg = TrainConfig(learning_rate=1e-3, total_steps=200, batch_size=16, seed=40)
    subset = training_instances[:40]

    def mean_score(alpha):
        model = train_predictor(subset, trained_scorer.model, cfg, alpha=alpha,
                                n_heads=2).model
        return np.mean([
            predictor.locoval_mod.score_batch(
                trained_scorer.model, predict(model, inst.past, inst.observable).trajectories,
                inst.observable)
            for inst in subset
        ])

    assert mean_score(100.0) > mean_score(0.0)


def test_train_validates_inputs(training_instances, trained_scorer):
    cfg = _tiny_config()
    with pytest.raises(DataError):
        train_predictor(training_instances[:0], None, cfg)
    with pytest.raises(ConfigError):
        train_predictor(training_instances[:5], None, cfg, alpha=-1.0)
    with pytest.raises(ConfigError):
        train_predictor(training_instances[:5], None, cfg, alpha=float("nan"))
    with pytest.raises(ConfigError):
        train_predictor(training_instances[:5], None, cfg, alpha=10.0)


def test_train_curve_logs_ratio(training_instances, trained_scorer, monkeypatch, caplog):
    cfg = _tiny_config(steps=100)
    monkeypatch.setattr(gradcore, "CURVE_EVERY", 1)
    result = train_predictor(
        training_instances[:30], trained_scorer.model, cfg, alpha=100.0, n_heads=2,
    )
    assert result.curve
    for point in result.curve:
        assert point.loss_plaus >= 0.0
        assert point.regularizer_dominates == (
            100.0 * point.loss_plaus > point.loss_gt
        )
    # the flag is recorded per interval; the summary is left to the caller
    assert sum(p.regularizer_dominates for p in result.curve) >= 2
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_minmse_routes_gradient_to_argmin_head_only(training_instances):
    """One optimization step on a batch where one head is uniformly closest:
    the other head's parameters must only move through the shared trunk, i.e.
    its own head weights stay put when the trunk is frozen."""
    inst = training_instances[0]
    layout = InputLayout(past_frames=9, joint_count=len(training_instances.joint_names))
    model = build_predictor(layout, 12, 2, seed=50)
    # make head 1 match the ground truth closely so head 0 is never argmin
    pred = predict(model, inst.past, inst.observable)
    points = np.stack([t.points for t in pred.trajectories])[None]
    _, sel, _ = min_of_k_mse(points, inst.future.points[None])

    cfg = TrainConfig(learning_rate=1e-3, total_steps=1, batch_size=1, seed=50)
    # training rounds the parameters to float32, then writes them back
    before = model.head.astype(np.float32).astype(np.float64)
    result = train_predictor(training_instances[:1], None, cfg, n_heads=2)
    winner = int(sel[0])
    loser = 1 - winner
    # loser head got a zero upstream gradient; AdamW leaves its columns untouched
    assert np.array_equal(head_block(before, loser), head_block(result.model.head, loser))
    assert not np.array_equal(head_block(before, winner), head_block(result.model.head, winner))


# ---------------------------------------------------------------------------
# checkpointing


def test_predictor_checkpoint_roundtrip(tmp_path, training_instances):
    cfg = _tiny_config()
    result = train_predictor(training_instances[:20], None, cfg, n_heads=3)
    path = tmp_path / "pred.json"
    save_predictor(result, path)
    loaded = load_predictor(path)
    inst = training_instances[0]
    a = predict(result.model, inst.past, inst.observable)
    b = predict(loaded, inst.past, inst.observable)
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.points, tb.points)


def test_train_writes_float32_values_into_the_float64_model(training_instances,
                                                            trained_scorer):
    """Training computes in float32 copies and writes the trained values back
    into the float64 model drawn from the config seed; the scorer is left as
    it was."""
    layout = InputLayout(past_frames=9, joint_count=len(training_instances.joint_names))
    initial = build_predictor(layout, 12, 3, trunk_hidden=(32, 32), seed=51)
    scorer = trained_scorer.model
    scorer_before = scorer.net.params.copy()
    result = train_predictor(training_instances[:20], scorer, _tiny_config(steps=10, seed=51),
                             alpha=100.0, n_heads=3, trunk_hidden=(32, 32))
    for net, start in ((result.model.trunk, initial.trunk), (result.model.head, initial.head)):
        assert net.params.dtype == np.float64
        assert np.array_equal(net.params.astype(np.float32).astype(np.float64), net.params)
        assert net.params.shape == start.params.shape
        assert not np.array_equal(net.params, start.params)
        net.validate()
    assert scorer.net.params.dtype == np.float64
    assert np.array_equal(scorer.net.params, scorer_before)


def test_trained_checkpoint_predicts_in_process_bits(tmp_path, training_instances,
                                                     trained_scorer):
    """Save, load and predict give the bits of predict on the model that
    train_predictor returned, at alpha 100 with the scorer wired in."""
    result = train_predictor(training_instances[:20], trained_scorer.model,
                             _tiny_config(steps=10), alpha=100.0, n_heads=3)
    path = tmp_path / "pred.json"
    save_predictor(result, path)
    loaded = load_predictor(path)
    assert loaded.trunk.params.dtype == loaded.head.params.dtype == np.float64
    assert np.array_equal(loaded.trunk.params, result.model.trunk.params)
    assert np.array_equal(loaded.head.params, result.model.head.params)
    for inst in training_instances[:5]:
        a = predict(result.model, inst.past, inst.observable)
        b = predict(loaded, inst.past, inst.observable)
        for ta, tb in zip(a.trajectories, b.trajectories, strict=True):
            assert ta.points.dtype == np.float64 and np.array_equal(ta.points, tb.points)


def test_load_predictor_rejects_wrong_doc(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    with pytest.raises(ConfigError):
        load_predictor(path)


@pytest.mark.parametrize("layout", ["schema-2", "version-2"])
def test_load_predictor_refuses_schema_2_naming_the_file(tmp_path, layout):
    """A schema-2 file (its version under predictor_schema_version), and this
    layout marked version 2, are refused once for the whole file."""
    doc = json.loads(FIXTURE.read_text())
    if layout == "schema-2":
        del doc["schema_version"]
        doc["predictor_schema_version"] = 2
    else:
        doc["schema_version"] = 2
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="retrain") as info:
        load_predictor(path)
    assert str(info.value).startswith(f"{path}: checkpoint schema 2")

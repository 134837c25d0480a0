import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_observable, straight_trajectory
from plaustraj import gradcore, predictor
from plaustraj.errors import ConfigError, DataError, InputShapeError
from plaustraj.gradcore import TrainConfig
from plaustraj.locoval import FeatureLayout, build_locoval
from plaustraj.oracle import Trajectory
from plaustraj.predictor import (
    InputLayout,
    PredictionSet,
    build_input,
    build_predictor,
    load_predictor,
    loss_emloco,
    loss_minmse,
    loss_mse,
    loss_total,
    predict,
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
    assert pred.n_heads == 1
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
    disp0 = pred.trajectories[0].points[0] - past.points[-1]
    # first predicted point = anchor + first displacement, by construction
    assert np.array_equal(pred.anchor, past.points[-1])
    assert np.all(np.isfinite(disp0))


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
    feats = build_input(past, obs, LAYOUT)
    ref = per_head_reference(model.trunk, heads, feats, past.points[-1])
    for traj, points in zip(pred.trajectories, ref, strict=True):
        assert np.array_equal(traj.points, points)


def test_checkpoint_written_per_head_loads_and_resaves(tmp_path):
    """A K=2 checkpoint written when the heads were separate models."""
    doc = json.loads(FIXTURE.read_text())
    model = load_predictor(FIXTURE)
    assert model.n_heads == 2
    past, obs = past_and_obs()
    pred = predict(model, past, obs)
    ref = per_head_reference(
        gradcore.model_from_dict(doc["trunk"]),
        [gradcore.model_from_dict(h) for h in doc["heads"]],
        build_input(past, obs, model.input_layout), past.points[-1],
    )
    for traj, points in zip(pred.trajectories, ref, strict=True):
        assert np.array_equal(traj.points, points)
    path = tmp_path / "resaved.json"
    save_predictor(model, path)
    assert path.read_bytes() == FIXTURE.read_bytes()


def _narrow_second_head(doc):
    head = doc["heads"][1]
    head["layer_sizes"] = [8, 12]
    layer = head["parameters"][0]
    layer["weights"] = layer["weights"][: 8 * 12]
    layer["biases"] = layer["biases"][:12]


def _two_layer_second_head(doc):
    doc["heads"][1] = gradcore.model_to_dict(
        gradcore.init_mlp([8, 8, 24], np.random.default_rng(0))
    )


@pytest.mark.parametrize("corrupt", [_narrow_second_head, _two_layer_second_head],
                         ids=["different-widths", "two-layers"])
def test_load_predictor_rejects_mismatched_heads(tmp_path, corrupt):
    doc = json.loads(FIXTURE.read_text())
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_predictor(path)


def test_build_input_shape_checks():
    with pytest.raises(InputShapeError):
        build_input(straight_trajectory(n=5), None, LAYOUT)
    with pytest.raises(InputShapeError):
        build_input(straight_trajectory(n=9), None, LAYOUT)  # pose flag needs obs


def test_input_layout_sizes():
    assert InputLayout(past_frames=9).feature_size == 18 + 24
    assert InputLayout(past_frames=2, include_pose=False).feature_size == 4


# ---------------------------------------------------------------------------
# losses


def test_loss_mse_zero_and_offset():
    gt = straight_trajectory(n=12)
    same = PredictionSet([Trajectory(gt.points.copy(), gt.dt)], gt.points[0])
    assert loss_mse(same, gt) == 0.0
    shifted = PredictionSet([Trajectory(gt.points + [1.0, 0.0], gt.dt)], gt.points[0])
    assert loss_mse(shifted, gt) == pytest.approx(0.5)


def test_loss_mse_matches_double_loop():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(12, 2))
    b = rng.normal(size=(12, 2))
    got = loss_mse(PredictionSet([Trajectory(a, 0.4)], a[0]), Trajectory(b, 0.4))
    total = 0.0
    for t in range(12):
        for c in range(2):
            total += (a[t, c] - b[t, c]) ** 2
    assert got == pytest.approx(total / 24)


def test_loss_mse_requires_single_head():
    gt = straight_trajectory(n=12)
    two = PredictionSet(
        [Trajectory(gt.points, gt.dt), Trajectory(gt.points + 1, gt.dt)], gt.points[0]
    )
    with pytest.raises(InputShapeError):
        loss_mse(two, gt)


def test_loss_minmse_picks_exact_head():
    gt = straight_trajectory(n=12)
    pred = PredictionSet(
        [Trajectory(gt.points + 2.0, gt.dt), Trajectory(gt.points.copy(), gt.dt)],
        gt.points[0],
    )
    value, k = loss_minmse(pred, gt)
    assert value == 0.0
    assert k == 1


def test_loss_minmse_tie_breaks_low_index():
    gt = straight_trajectory(n=12)
    dup = Trajectory(gt.points + 1.0, gt.dt)
    value, k = loss_minmse(PredictionSet([dup, dup], gt.points[0]), gt)
    assert k == 0


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
def test_minmse_dominance(seed, k):
    rng = np.random.default_rng(seed)
    gt = Trajectory(rng.normal(size=(8, 2)), 0.4)
    heads = [Trajectory(rng.normal(size=(8, 2)), 0.4) for _ in range(k)]
    pred = PredictionSet(heads, gt.points[0])
    value, _ = loss_minmse(pred, gt)
    per_head = [
        loss_mse(PredictionSet([h], gt.points[0]), gt) for h in heads
    ]
    assert value == min(per_head)
    if k == 1:
        assert value == per_head[0]


def test_loss_emloco_trivial_values(monkeypatch):
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=5)
    past, obs = past_and_obs()
    pred = predict(build_predictor(LAYOUT, 12, 2, seed=6), past, obs)

    monkeypatch.setattr("plaustraj.predictor.locoval_mod.score_batch",
                        lambda *a: [1.0, 1.0])
    assert loss_emloco(scorer, pred, obs) == 0.0
    monkeypatch.setattr("plaustraj.predictor.locoval_mod.score_batch",
                        lambda *a: [0.5, 0.5])
    assert loss_emloco(scorer, pred, obs) == pytest.approx(0.25)


def test_loss_emloco_negative_form():
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=7)
    past, obs = past_and_obs()
    pred = predict(build_predictor(LAYOUT, 12, 2, seed=8), past, obs)
    from plaustraj.locoval import score_batch

    expected = -np.mean(score_batch(scorer, pred.trajectories, obs))
    assert loss_emloco(scorer, pred, obs, form="negative") == pytest.approx(expected)
    with pytest.raises(ConfigError):
        loss_emloco(scorer, pred, obs, form="cubed")


def test_loss_total():
    assert loss_total(1.5, 0.2, 0.0) == 1.5
    assert loss_total(1.5, 0.2, 100.0) == pytest.approx(1.5 + 20.0)
    assert loss_total(0.0, 0.0, 3.0) == 0.0
    with pytest.raises(ConfigError):
        loss_total(1.0, 1.0, -0.5)


def test_emloco_gradient_through_scorer_finite_differences():
    """The regularizer gradient w.r.t. head displacements, as assembled inside
    the training loop, must match central finite differences of the composed
    score. This is the chain that makes the second training stage work."""
    horizon = 6
    scorer = build_locoval(FeatureLayout(horizon=horizon), hidden=(10, 10), seed=9)
    past, obs = past_and_obs(speed=1.0, heading=0.2)
    rng = np.random.default_rng(10)
    disp = rng.uniform(0.05, 0.4, size=(horizon, 2))
    anchor = past.points[-1]

    from plaustraj import gradcore
    from plaustraj.locoval import (
        canonical_frame,
        encode_steps,
        encode_steps_adjoint,
        observation_tail,
    )

    root, rot = canonical_frame(obs)
    offset = anchor - root

    def emloco_of(d):
        pts = anchor + np.cumsum(d, axis=0)
        s = predictor.locoval_mod.score(scorer, Trajectory(pts, 0.4), obs)
        return (s - 1.0) ** 2

    # analytic: the shared encoding and adjoint that train_predictor uses
    steps = disp.copy()
    steps[0] += offset
    tail = observation_tail(obs, root, rot, scorer.layout)
    feats = encode_steps(steps[None], rot[None], tail[None])
    out, cache = gradcore.forward_cached(scorer.net, feats)
    ds = 2.0 * (out[0, 0] - 1.0)
    grads = gradcore.backward(scorer.net, cache, np.full((1, 1), ds))
    analytic = encode_steps_adjoint(grads.inputs, rot[None], horizon)[0]

    eps = 1e-6
    for t in range(horizon):
        for c in range(2):
            bumped = disp.copy()
            bumped[t, c] += eps
            up = emloco_of(bumped)
            bumped[t, c] -= 2 * eps
            down = emloco_of(bumped)
            numeric = (up - down) / (2 * eps)
            denom = max(abs(analytic[t, c]), abs(numeric), 1e-6)
            assert abs(analytic[t, c] - numeric) / denom < 1e-4


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


def test_train_deterministic(training_instances):
    cfg = _tiny_config(seed=33)
    a = train_predictor(training_instances[:30], None, cfg, n_heads=2)
    b = train_predictor(training_instances[:30], None, cfg, n_heads=2)
    for wa, wb in zip(a.model.trunk.weights, b.model.trunk.weights):
        assert np.array_equal(wa, wb)


def test_train_emloco_only_improves_score(training_instances, trained_scorer):
    """With the ground-truth loss switched off, training against the frozen
    scorer alone should still raise the mean plausibility score."""
    cfg = TrainConfig(learning_rate=1e-3, total_steps=200, batch_size=16, seed=40)
    subset = training_instances[:40]
    result = train_predictor(
        subset, trained_scorer.model, cfg, alpha=1.0, n_heads=2,
        include_gt_loss=False,
    )
    init = build_predictor(result.model.input_layout, 12, 2, seed=cfg.seed)

    def mean_score(model):
        vals = []
        for inst in subset:
            pred = predict(model, inst.past, inst.observable)
            vals.extend(
                predictor.locoval_mod.score_batch(
                    trained_scorer.model, pred.trajectories, inst.observable
                )
            )
        return np.mean(vals)

    assert mean_score(result.model) > mean_score(init)


def test_train_validates_inputs(training_instances, trained_scorer):
    cfg = _tiny_config()
    with pytest.raises(DataError):
        train_predictor([], None, cfg)
    with pytest.raises(ConfigError):
        train_predictor(training_instances[:5], None, cfg, alpha=-1.0)
    with pytest.raises(ConfigError):
        train_predictor(training_instances[:5], None, cfg, alpha=10.0)


def test_train_curve_logs_ratio(training_instances, trained_scorer, caplog):
    cfg = _tiny_config(steps=100)
    result = train_predictor(
        training_instances[:30], trained_scorer.model, cfg, alpha=100.0, n_heads=2,
        eval_every=1,
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
    layout = InputLayout(past_frames=9, joint_count=len(inst.observable.joints))
    model = build_predictor(layout, 12, 2, seed=50)
    # make head 1 match the ground truth closely so head 0 is never argmin
    pred = predict(model, inst.past, inst.observable)
    m0, _ = loss_minmse(pred, inst.future)

    cfg = TrainConfig(learning_rate=1e-3, total_steps=1, batch_size=1, seed=50)
    before = model.head.copy()
    result = train_predictor([inst], None, cfg, n_heads=2, model=model)
    values = [
        loss_mse(PredictionSet([t], pred.anchor), inst.future)
        for t in pred.trajectories
    ]
    winner = int(np.argmin(values))
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


def test_load_predictor_rejects_wrong_doc(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    with pytest.raises(ConfigError):
        load_predictor(path)

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_observable, straight_trajectory
from plaustraj import gradcore, locoval, predictor
from plaustraj.errors import ConfigError, DataError, InputShapeError
from plaustraj.gradcore import TrainConfig
from plaustraj.locoval import FeatureLayout, build_locoval
from plaustraj.oracle import Trajectory
from plaustraj.predictor import (
    InputLayout,
    build_input,
    build_predictor,
    emloco_grad,
    emloco_loss,
    load_predictor,
    min_of_k_mse,
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
    gt = straight_trajectory(n=12).points
    value, sel, grad = min_of_k_mse(gt[None, None], gt[None])
    assert (value, int(sel[0])) == (0.0, 0)
    assert not grad.any()
    value, _, _ = min_of_k_mse((gt + [1.0, 0.0])[None, None], gt[None])
    assert value == pytest.approx(0.5)


def test_loss_mse_matches_double_loop():
    """K=1 is plain MSE, averaged over the batch."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=(1, 3, 12, 2))
    b = rng.normal(size=(3, 12, 2))
    got, _, grad = min_of_k_mse(a, b)
    total = 0.0
    for i in range(3):
        for t in range(12):
            for c in range(2):
                total += (a[0, i, t, c] - b[i, t, c]) ** 2
    assert got == pytest.approx(total / (3 * 24))
    np.testing.assert_allclose(grad, 2.0 * (a[0] - b) / (3 * 24))


def test_loss_minmse_picks_exact_head():
    gt = straight_trajectory(n=12).points
    value, sel, grad = min_of_k_mse(np.stack([gt + 2.0, gt])[:, None], gt[None])
    assert value == 0.0
    assert sel.tolist() == [1]
    assert not grad.any()


def test_loss_minmse_tie_breaks_low_index():
    gt = straight_trajectory(n=12).points
    dup = gt + 1.0
    _, sel, _ = min_of_k_mse(np.stack([dup, dup, dup])[:, None], gt[None])
    assert sel.tolist() == [0]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
def test_minmse_dominance(seed, k):
    rng = np.random.default_rng(seed)
    gt = rng.normal(size=(4, 8, 2))
    heads = rng.normal(size=(k, 4, 8, 2))
    value, sel, _ = min_of_k_mse(heads, gt)
    per_head = [[min_of_k_mse(heads[j : j + 1, i : i + 1], gt[i : i + 1])[0]
                 for i in range(4)] for j in range(k)]
    for i in range(4):
        column = [per_head[j][i] for j in range(k)]
        assert column[sel[i]] == min(column)
    assert value == pytest.approx(np.mean(np.min(per_head, axis=0)))
    if k == 1:
        assert value == pytest.approx(np.mean(per_head[0]))


def _frames(observables, layout):
    """Each sample's canonical root (B, 2), rotation (B, 2, 2) and observation tail."""
    return map(np.stack, zip(*(locoval.observation_frame(obs, layout) for obs in observables)))


def test_loss_emloco_trivial_values():
    """A scorer whose output layer is zeroed scores every row sigmoid(bias):
    the loss is (sigmoid(bias) - 1)^2 and no gradient reaches the steps."""
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=5)
    past, obs = past_and_obs()
    _, rots, tails = _frames([obs, obs], scorer.layout)
    steps = np.random.default_rng(6).uniform(0.1, 0.5, size=(3, 2, 12, 2))
    scorer.net.weights[-1][:] = 0.0
    for bias, expected in ((0.0, 0.25), (800.0, 0.0)):
        scorer.net.biases[-1][:] = bias
        value, scorer_pass = emloco_loss(scorer, steps, rots, tails)
        assert value == expected
        assert not emloco_grad(scorer, scorer_pass).any()


def _emloco_fd_check(scorer, observables, disp, anchors):
    """emloco_grad's step gradient against central finite differences of
    mean_k mean_b (score - 1)^2, each score from locoval.score."""
    K, B, horizon = disp.shape[:3]
    roots, rots, tails = _frames(observables, scorer.layout)
    steps = disp.copy()
    steps[:, :, 0] += anchors - roots
    analytic = emloco_grad(scorer, emloco_loss(scorer, steps, rots, tails)[1])

    def emloco_of(d, b):
        pts = anchors[b] + np.cumsum(d, axis=0)
        s = locoval.score(scorer, Trajectory(pts, 0.4), observables[b])
        return (s - 1.0) ** 2 / (K * B)

    eps = 1e-6
    for k in range(K):
        for b in range(B):
            for t in range(horizon):
                for c in range(2):
                    bumped = disp[k, b].copy()
                    bumped[t, c] += eps
                    up = emloco_of(bumped, b)
                    bumped[t, c] -= 2 * eps
                    down = emloco_of(bumped, b)
                    numeric = (up - down) / (2 * eps)
                    denom = max(abs(analytic[k, b, t, c]), abs(numeric), 1e-6)
                    assert abs(analytic[k, b, t, c] - numeric) / denom < 1e-4


def test_emloco_gradient_through_scorer_finite_differences():
    """The regularizer gradient w.r.t. head displacements, from the functions
    train_predictor calls (one scorer pass over the rows of K heads), must
    match central finite differences of the composed score. This is the chain
    that makes the second training stage work."""
    horizon, K = 6, 3
    scorer = build_locoval(FeatureLayout(horizon=horizon), hidden=(10, 10), seed=9)
    past, obs = past_and_obs(speed=1.0, heading=0.2)
    disp = np.random.default_rng(10).uniform(0.05, 0.4, size=(K, 1, horizon, 2))
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
    """The frozen scorer runs once per step over all K·B rows, at alpha 0
    (reporting loss_plaus only) as at alpha 100."""
    scorer = trained_scorer.model
    calls = []
    forward_cached = gradcore.forward_cached

    def counting(model, x):
        if model is scorer.net:
            calls.append(len(x))
        return forward_cached(model, x)

    monkeypatch.setattr(gradcore, "forward_cached", counting)
    cfg = _tiny_config(steps=5)
    train_predictor(training_instances[:20], scorer, cfg, alpha=alpha, n_heads=3)
    assert calls == [3 * cfg.batch_size] * cfg.total_steps


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
        train_predictor(training_instances[:5], None, cfg, alpha=float("nan"))
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
    points = np.stack([t.points for t in pred.trajectories])[:, None]
    _, sel, _ = min_of_k_mse(points, inst.future.points[None])

    cfg = TrainConfig(learning_rate=1e-3, total_steps=1, batch_size=1, seed=50)
    before = model.head.copy()
    result = train_predictor([inst], None, cfg, n_heads=2, model=model)
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


def test_save_checkpoint_writes_json_dump_bytes(tmp_path, trained_scorer):
    """save_checkpoint writes what json.dump writes, for a predictor and a
    scorer checkpoint."""
    scorer_path = tmp_path / "locoval.json"
    predictor.locoval_mod.save_locoval(trained_scorer.model, scorer_path, seed=14,
                                       train_config=TrainConfig())
    for source in (FIXTURE, scorer_path):
        doc = json.loads(source.read_text())
        gradcore.save_checkpoint(doc, tmp_path / "fast.json")
        with open(tmp_path / "dump.json", "w") as fh:
            json.dump(doc, fh)
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "dump.json").read_bytes()
        assert (tmp_path / "fast.json").read_bytes() == source.read_bytes()


def test_load_predictor_rejects_wrong_doc(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    with pytest.raises(ConfigError):
        load_predictor(path)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_observable, straight_trajectory
from plaustraj import gradcore, locoval
from plaustraj.errors import ConfigError, InputShapeError
from plaustraj.gradcore import TrainConfig
from plaustraj.locoval import (
    FeatureLayout,
    build_locoval,
    canonical_frame,
    canonicalize,
    encode_steps,
    encode_steps_adjoint,
    load_locoval,
    save_locoval,
    score,
    score_batch,
    train_locoval,
)
from plaustraj.metrics import pearson_r
from plaustraj.oracle import ObservableState, PlausibilitySample, Trajectory


LAYOUT = FeatureLayout(horizon=12)


# ---------------------------------------------------------------------------
# canonicalization


def test_canonical_input_is_passthrough():
    """Root at the origin, heading zero: the trajectory block should be the
    raw step displacements."""
    obs = make_observable(heading=0.0, speed=1.0, root=(0.0, 0.0))
    traj = straight_trajectory(n=12, speed=1.0)
    feats = canonicalize(traj, obs, LAYOUT)
    steps = np.diff(np.vstack([[0.0, 0.0], traj.points]), axis=0)
    np.testing.assert_allclose(feats[:24], steps.reshape(-1), atol=1e-9)


@settings(deadline=None, max_examples=30)
@given(
    angle=st.floats(-math.pi, math.pi),
    dx=st.floats(-30.0, 30.0),
    dy=st.floats(-30.0, 30.0),
)
def test_canonicalize_rigid_invariance(angle, dx, dy):
    obs = make_observable(heading=0.7, speed=1.3, root=(1.0, -2.0))
    traj = straight_trajectory(n=12, speed=1.3, heading=0.7, start=(1.0, -2.0))
    base = canonicalize(traj, obs, LAYOUT)

    from plaustraj.datakit import make_walking_pose

    state = make_walking_pose(0.7, 1.3)
    state = state.transformed(translation=np.array([1.0, -2.0]) - state.root_position)
    moved_state = state.transformed(angle=angle, translation=(dx, dy))
    moved_traj = traj.transformed(angle=angle, translation=(dx, dy))
    moved = canonicalize(moved_traj, moved_state.observable(), LAYOUT)
    np.testing.assert_allclose(moved, base, atol=1e-9)


def test_canonical_velocity_rotation():
    # heading pi/2 with velocity (0, 1) becomes (1, 0) in the canonical frame
    obs = make_observable(heading=math.pi / 2, speed=1.0)
    traj = straight_trajectory(n=12, speed=1.0, heading=math.pi / 2)
    feats = canonicalize(traj, obs, LAYOUT)
    np.testing.assert_allclose(feats[-2:], [1.0, 0.0], atol=1e-9)


def test_canonicalize_length_mismatch():
    obs = make_observable()
    with pytest.raises(InputShapeError):
        canonicalize(straight_trajectory(n=5), obs, LAYOUT)


def _reference_features(traj, obs, layout):
    """Per-row, per-joint canonicalization that the batched encoding must
    reproduce bit for bit."""
    root, rot = canonical_frame(obs)
    steps = np.diff(np.vstack([root, traj.points]), axis=0)
    parts = [(steps @ rot.T).reshape(-1)]
    if layout.include_pose:
        pose = []
        for name in obs.joint_order():
            j = obs.joints[name]
            xy = rot @ (j[:2] - root)
            pose.extend([xy[0], xy[1], j[2]])
        parts.append(np.array(pose))
    if layout.include_velocity:
        parts.append(rot @ obs.root_velocity)
    return np.concatenate(parts)


@settings(deadline=None, max_examples=40)
@given(
    headings=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=12),
    root=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    seed=st.integers(0, 10_000),
)
def test_batched_canonicalization_bit_identical(headings, root, seed):
    rng = np.random.default_rng(seed)
    samples = []
    for heading in headings:
        r = np.array(root) + rng.normal(0.0, 5.0, size=2)
        obs = make_observable(heading=heading, speed=rng.uniform(0.3, 2.0), root=tuple(r))
        pts = r + np.cumsum(rng.normal(0.0, 0.5, size=(12, 2)), axis=0)
        samples.append(PlausibilitySample(Trajectory(pts, 0.4), obs, 0.5, "plausible_pair"))
    reference = np.stack(
        [_reference_features(s.trajectory, s.observable, LAYOUT) for s in samples]
    )
    # one canonical frame per row
    X, _ = locoval.features_and_targets(samples, LAYOUT)
    assert np.array_equal(X, reference)
    singles = np.stack([canonicalize(s.trajectory, s.observable, LAYOUT) for s in samples])
    assert np.array_equal(singles, reference)
    # every candidate in the frame of one observable, as score_batch does
    model = build_locoval(LAYOUT, hidden=(8,), seed=seed)
    obs = samples[0].observable
    cands = [s.trajectory for s in samples]
    expected = [
        float(gradcore.forward(model.net, _reference_features(t, obs, LAYOUT))[0])
        for t in cands
    ]
    assert score_batch(model, cands, obs) == expected


@pytest.mark.parametrize(
    "layout",
    [LAYOUT, FeatureLayout(horizon=12, include_pose=False),
     FeatureLayout(horizon=12, include_velocity=False)],
    ids=["pose-and-velocity", "no-pose", "no-velocity"],
)
def test_features_and_targets_shared_observables_equal_per_row_reference(
        plausibility_dataset, layout):
    samples = list(plausibility_dataset)
    assert len({id(s.observable) for s in samples}) < len(samples)
    # an equal copy of a shared observable is another object with the same rows
    samples += [
        PlausibilitySample(s.trajectory, ObservableState(dict(s.observable.joints),
                                                         s.observable.root_velocity.copy()),
                           s.reward, s.label)
        for s in samples[:5]
    ]
    X, y = locoval.features_and_targets(samples, layout)
    reference = np.stack([_reference_features(s.trajectory, s.observable, layout)
                          for s in samples])
    assert X.shape == reference.shape and X.tobytes() == reference.tobytes()
    assert y.tolist() == [s.reward for s in samples]


def test_feature_layout_sizes():
    assert FeatureLayout(horizon=12).feature_size == 24 + 24 + 2
    assert FeatureLayout(horizon=12, include_pose=False).feature_size == 26
    assert FeatureLayout(horizon=12, include_velocity=False).feature_size == 48
    assert FeatureLayout(
        horizon=12, include_pose=False, include_velocity=False
    ).feature_size == 24


# ---------------------------------------------------------------------------
# scoring


def test_score_in_open_interval():
    model = build_locoval(LAYOUT, hidden=(16,), seed=1)
    obs = make_observable()
    for speed in (0.2, 1.0, 3.0):
        s = score(model, straight_trajectory(n=12, speed=speed), obs)
        assert 0.0 < s < 1.0


def test_score_batch_equals_mapped_singles():
    model = build_locoval(LAYOUT, hidden=(16,), seed=2)
    obs = make_observable()
    cands = [straight_trajectory(n=12, speed=s) for s in (0.5, 1.0, 2.0)]
    assert score_batch(model, cands, obs) == [score(model, c, obs) for c in cands]
    assert score_batch(model, [], obs) == []


def test_score_rigid_invariance():
    model = build_locoval(LAYOUT, hidden=(16,), seed=3)
    from plaustraj.datakit import make_walking_pose

    state = make_walking_pose(0.4, 1.1)
    traj = straight_trajectory(n=12, speed=1.1, heading=0.4)
    base = score(model, traj, state.observable())
    moved = score(
        model,
        traj.transformed(angle=1.9, translation=(5.0, -7.0)),
        state.transformed(angle=1.9, translation=(5.0, -7.0)).observable(),
    )
    assert moved == pytest.approx(base, abs=1e-9)


def test_score_deterministic():
    model = build_locoval(LAYOUT, hidden=(16,), seed=4)
    obs = make_observable()
    traj = straight_trajectory(n=12)
    assert score(model, traj, obs) == score(model, traj, obs)


def test_model_shape_validation():
    rng = np.random.default_rng(0)
    bad = gradcore.init_mlp([10, 8, 1], rng, output_activation="sigmoid")
    with pytest.raises(ConfigError):
        locoval.LocoValModel(net=bad, layout=LAYOUT)
    not_sigmoid = gradcore.init_mlp([LAYOUT.feature_size, 8, 1], rng)
    with pytest.raises(ConfigError):
        locoval.LocoValModel(net=not_sigmoid, layout=LAYOUT)


# ---------------------------------------------------------------------------
# feature gradients


def test_encode_steps_adjoint_identity():
    """encode_steps is linear in the steps (the tail held at zero), and
    encode_steps_adjoint is its transpose: <g, encode_steps(d)> equals
    <encode_steps_adjoint(g), d>, for one shared rotation and one per row."""
    layout = FeatureLayout(horizon=5)
    rng = np.random.default_rng(3)
    n = 7
    tail = np.zeros(layout.feature_size - 2 * layout.horizon)
    rots = np.stack([canonical_frame(make_observable(heading=a))[1]
                     for a in rng.uniform(-math.pi, math.pi, size=n)])
    for rot in (rots[0], rots):
        d = rng.normal(size=(n, layout.horizon, 2))
        g = rng.normal(size=(n, layout.feature_size))
        lhs = np.sum(g * encode_steps(d, rot, tail))
        rhs = np.sum(encode_steps_adjoint(g, rot, layout.horizon) * d)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# training


def _constant_dataset(n, reward, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        heading = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.5, 2.0)
        obs = make_observable(heading=heading, speed=speed)
        traj = straight_trajectory(n=12, speed=speed, heading=heading)
        samples.append(PlausibilitySample(traj, obs, reward, "plausible_pair"))
    return samples


def test_train_single_sample_memorizes():
    ds = _constant_dataset(1, 0.63)
    cfg = TrainConfig(learning_rate=1e-2, total_steps=400, batch_size=1, seed=0)
    result = train_locoval(ds, cfg, hidden=(16,), holdout_fraction=0.0)
    pred = score(result.model, ds[0].trajectory, ds[0].observable)
    assert (pred - 0.63) ** 2 < 1e-4


def test_train_constant_target_converges():
    ds = _constant_dataset(40, 0.8, seed=1)
    cfg = TrainConfig(learning_rate=1e-2, total_steps=500, batch_size=16, seed=1)
    result = train_locoval(ds, cfg, hidden=(16,))
    preds = [score(result.model, s.trajectory, s.observable) for s in ds]
    assert all(abs(p - 0.8) < 0.02 for p in preds)


def test_train_separates_labels(trained_scorer, plausibility_dataset):
    holdout = [plausibility_dataset[i] for i in trained_scorer.holdout_indices]
    plaus = [
        score(trained_scorer.model, s.trajectory, s.observable)
        for s in holdout
        if s.label == "plausible_pair"
    ]
    implaus = [
        score(trained_scorer.model, s.trajectory, s.observable)
        for s in holdout
        if s.label == "implausible_pair"
    ]
    assert np.mean(plaus) - np.mean(implaus) >= 0.15


def test_train_holdout_correlation(trained_scorer, plausibility_dataset):
    holdout = [plausibility_dataset[i] for i in trained_scorer.holdout_indices]
    preds = [score(trained_scorer.model, s.trajectory, s.observable) for s in holdout]
    targets = [s.reward for s in holdout]
    assert pearson_r(preds, targets) >= 0.8


def test_train_curve_recorded(trained_scorer):
    assert len(trained_scorer.curve) > 0
    assert trained_scorer.curve[-1].step == 600
    assert trained_scorer.best_holdout_mse <= min(p.holdout_mse for p in trained_scorer.curve)


def test_train_inconsistent_shapes_rejected():
    ds = _constant_dataset(3, 0.5)
    short = straight_trajectory(n=6)
    ds.append(PlausibilitySample(short, ds[0].observable, 0.5, "plausible_pair"))
    with pytest.raises(InputShapeError):
        train_locoval(ds, TrainConfig(total_steps=5))


# ---------------------------------------------------------------------------
# checkpointing


def test_locoval_checkpoint_roundtrip(tmp_path, trained_scorer):
    path = tmp_path / "scorer.json"
    save_locoval(trained_scorer.model, path, seed=14)
    loaded = load_locoval(path)
    obs = make_observable()
    traj = straight_trajectory(n=12)
    assert score(loaded, traj, obs) == score(trained_scorer.model, traj, obs)
    assert loaded.layout == trained_scorer.model.layout


def test_load_rejects_plain_model_checkpoint(tmp_path):
    path = tmp_path / "plain.json"
    rng = np.random.default_rng(0)
    gradcore.save_checkpoint(gradcore.model_to_dict(gradcore.init_mlp([4, 4, 1], rng)), path)
    with pytest.raises(ConfigError):
        load_locoval(path)

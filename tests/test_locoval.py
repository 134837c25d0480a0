import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SCHEMA_2_LOCOVAL, awkward_observables, make_observable, observable_of,
                      pair_of, pair_set, straight_trajectory, transformed_state,
                      transformed_trajectory)
from plaustraj import gradcore, locoval
from plaustraj.errors import ConfigError, DataError, InputShapeError
from plaustraj.gradcore import TrainConfig
from plaustraj.locoval import (
    FeatureLayout,
    build_locoval,
    canonical_frame,
    canonicalize,
    encode_steps,
    load_locoval,
    save_locoval,
    score,
    score_batch,
    score_heads,
    train_locoval,
)
from plaustraj.metrics import pearson_r
from plaustraj.oracle import (REQUIRED_JOINTS, PairSet, Trajectory, TrajectorySet, headings,
                              rotation_matrix)


LAYOUT = FeatureLayout(horizon=12)
# a score against a one-row forward of its features: a multi-row pass may
# round differently in the last bits, never by more than this
ONE_ROW_ATOL = 1e-12


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
    state = transformed_state(state, translation=np.array([1.0, -2.0]) - state.root_position)
    moved_state = transformed_state(state, angle=angle, translation=(dx, dy))
    moved_traj = transformed_trajectory(traj, angle=angle, translation=(dx, dy))
    moved = canonicalize(moved_traj, observable_of(moved_state), LAYOUT)
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


def reference_heading(obs):
    """The per-observable heading that headings() must equal bit for bit:
    the shoulder line's forward normal, else the root-velocity direction,
    else 0.0."""
    axis = obs.joints["left_shoulder"][:2] - obs.joints["right_shoulder"][:2]
    if np.linalg.norm(axis) > 1e-9:
        return math.atan2(-axis[0], axis[1])
    if np.linalg.norm(obs.root_velocity) > 1e-9:
        return math.atan2(obs.root_velocity[1], obs.root_velocity[0])
    return 0.0


def reference_observation_frame(obs, layout):
    """The per-observable (root, rot, tail) that observation_frame's rows
    must equal bit for bit."""
    root, rot = obs.root_position, rotation_matrix(-reference_heading(obs))
    parts = []
    if layout.include_pose:
        joints = np.stack([obs.joints[n] for n in REQUIRED_JOINTS])
        xy = (rot[None] @ (joints[:, :2] - root)[:, :, None])[:, :, 0]
        parts.append(np.column_stack([xy, joints[:, 2]]).reshape(-1))
    parts.append(rot @ obs.root_velocity)
    return root, rot, np.concatenate(parts)


def _reference_features(traj, obs, layout):
    """Per-row, per-joint canonicalization that the batched encoding must
    reproduce bit for bit."""
    root, rot = obs.root_position, rotation_matrix(-reference_heading(obs))
    steps = np.diff(np.vstack([root, traj.points]), axis=0)
    parts = [(steps @ rot.T).reshape(-1)]
    if layout.include_pose:
        pose = []
        for name in REQUIRED_JOINTS:
            j = obs.joints[name]
            xy = rot @ (j[:2] - root)
            pose.extend([xy[0], xy[1], j[2]])
        parts.append(np.array(pose))
    parts.append(rot @ obs.root_velocity)
    return np.concatenate(parts)


def test_headings_and_frames_equal_per_observable_references():
    """headings, canonical_frame and observation_frame on observables with
    degenerate shoulders and a standing root."""
    observables = awkward_observables()
    joints = np.stack([o.joint_array() for o in observables])
    velocity = np.stack([o.root_velocity for o in observables])
    want = [reference_heading(o) for o in observables]
    assert headings(joints, velocity).tolist() == [o.heading() for o in observables] == want
    # every branch is taken: the shoulders, the velocity and the 0.0 fallback
    facing = [math.atan2(-a[0], a[1]) for a in joints[:, 1, :2] - joints[:, 2, :2]]
    assert 0.0 in want and {w == f for w, f in zip(want, facing)} == {True, False}
    for o in observables:
        root, rot = canonical_frame(o)
        assert root.tobytes() == o.root_position.tobytes()
        assert rot.tobytes() == rotation_matrix(-reference_heading(o)).tobytes()
    for pose in (True, False):
        layout = FeatureLayout(horizon=12, include_pose=pose)
        got = locoval.observation_frame(joints, velocity, layout)
        refs = [reference_observation_frame(o, layout) for o in observables]
        for g, r in zip(got, zip(*refs)):
            assert g.tobytes() == np.stack(r).tobytes() and g.shape == np.stack(r).shape


@settings(deadline=None, max_examples=40)
@given(
    headings=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=12),
    root=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    seed=st.integers(0, 10_000),
)
def test_batched_canonicalization_bit_identical(headings, root, seed):
    rng = np.random.default_rng(seed)
    points, observables = [], []
    for heading in headings:
        r = np.array(root) + rng.normal(0.0, 5.0, size=2)
        observables.append(make_observable(heading=heading, speed=rng.uniform(0.3, 2.0),
                                           root=tuple(r)))
        points.append(r + np.cumsum(rng.normal(0.0, 0.5, size=(12, 2)), axis=0))
    n = len(points)
    pairs = pair_set(np.stack(points), np.full(n, 0.5), np.ones(n, bool), np.arange(n),
                     observables, 0.4)
    cands = [Trajectory(pts, 0.4) for pts in points]
    reference = np.stack(
        [_reference_features(t, obs, LAYOUT) for t, obs in zip(cands, observables)]
    )
    # one canonical frame per row
    X, _ = locoval.features_and_targets(pairs, LAYOUT)
    assert np.array_equal(X, reference)
    singles = np.stack([canonicalize(t, obs, LAYOUT) for t, obs in zip(cands, observables)])
    assert np.array_equal(singles, reference)
    # every candidate in the frame of one observable, as score_batch does:
    # exactly the rows of one forward over the reference rows, and within the
    # contract's tolerance of one-row forwards
    model = build_locoval(LAYOUT, hidden=(8,), seed=seed)
    obs = observables[0]
    rows = np.stack([_reference_features(t, obs, LAYOUT) for t in cands])
    got = score_batch(model, cands, obs)
    assert got == gradcore.forward(model.net, rows)[:, 0].tolist()
    one_row = [float(gradcore.forward(model.net, x)[0]) for x in rows]
    np.testing.assert_allclose(got, one_row, rtol=0.0, atol=ONE_ROW_ATOL)


@pytest.mark.parametrize(
    "layout",
    [LAYOUT, FeatureLayout(horizon=12, include_pose=False)],
    ids=["pose-and-velocity", "no-pose"],
)
def test_features_and_targets_shared_observables_equal_per_row_reference(
        plausibility_dataset, layout):
    pairs = plausibility_dataset
    assert len(pairs.joints) < len(pairs)
    # an equal copy of a shared state is another one with the same rows
    n_states, first = len(pairs.joints), np.arange(5)
    pairs = PairSet(np.concatenate([pairs.points, pairs.points[first]]),
                    np.concatenate([pairs.rewards, pairs.rewards[first]]),
                    np.concatenate([pairs.plausible, pairs.plausible[first]]),
                    np.concatenate([pairs.state, pairs.state[first] + n_states]),
                    np.concatenate([pairs.joints, pairs.joints]),
                    np.concatenate([pairs.velocity, pairs.velocity]), pairs.dt)
    X, y = locoval.features_and_targets(pairs, layout)
    reference = np.stack([_reference_features(*pair_of(pairs, i), layout)
                          for i in range(len(pairs))])
    assert X.shape == reference.shape and X.tobytes() == reference.tobytes()
    assert y.tolist() == pairs.rewards.tolist()


def test_feature_layout_sizes():
    assert FeatureLayout(horizon=12).feature_size == 24 + 24 + 2
    assert FeatureLayout(horizon=12, include_pose=False).feature_size == 26


# ---------------------------------------------------------------------------
# scoring


def test_score_in_open_interval():
    model = build_locoval(LAYOUT, hidden=(16,), seed=1)
    obs = make_observable()
    for speed in (0.2, 1.0, 3.0):
        s = score(model, straight_trajectory(n=12, speed=speed), obs)
        assert 0.0 < s < 1.0


@pytest.mark.parametrize("include_pose", [True, False], ids=["pose", "no-pose"])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 20])
def test_score_batch_scoring_contract(k, include_pose):
    """score_batch is one forward over the canonicalized rows, bit for bit,
    for a TrajectorySet and for a list of the same trajectories, and it is the
    one-window call of score_heads; score is its one-candidate call; one-row
    forwards agree within ONE_ROW_ATOL."""
    layout = FeatureLayout(horizon=12, include_pose=include_pose)
    model = build_locoval(layout, hidden=(16,), seed=2)
    obs = make_observable(heading=0.3, speed=1.1, root=(2.0, -1.0))
    rng = np.random.default_rng(k)
    points = obs.root_position + np.cumsum(rng.normal(0.3, 0.5, size=(k, 12, 2)), axis=1)
    heads = TrajectorySet(points, 0.4)
    rows = np.stack([canonicalize(t, obs, layout) for t in heads])
    got = score_batch(model, heads, obs)
    assert got == gradcore.forward(model.net, rows)[:, 0].tolist()
    one_window = score_heads(model, points[None], obs.joint_array()[None],
                             obs.root_velocity[None])
    assert one_window.shape == (1, k) and one_window[0].tolist() == got
    assert score_batch(model, list(heads), obs) == got
    for t in heads:
        assert score(model, t, obs) == score_batch(model, [t], obs)[0]
    one_row = [float(gradcore.forward(model.net, x)[0]) for x in rows]
    np.testing.assert_allclose(got, one_row, rtol=0.0, atol=ONE_ROW_ATOL)
    assert score_batch(model, [], obs) == []


def test_score_heads_is_one_forward_over_every_window():
    """score_heads of N windows is exactly one forward over the N·K rows,
    each window's heads canonicalized in its own frame, and within
    ONE_ROW_ATOL of score_batch window by window."""
    model = build_locoval(LAYOUT, hidden=(16,), seed=5)
    rng = np.random.default_rng(5)
    observables = [make_observable(heading=a, speed=rng.uniform(0.3, 2.0),
                                   root=tuple(rng.normal(0.0, 5.0, size=2)))
                   for a in rng.uniform(-math.pi, math.pi, size=7)]
    heads = np.stack([o.root_position + np.cumsum(rng.normal(0.3, 0.5, size=(4, 12, 2)), axis=1)
                      for o in observables])
    got = score_heads(model, heads, np.stack([o.joint_array() for o in observables]),
                      np.stack([o.root_velocity for o in observables]))
    rows = np.stack([canonicalize(Trajectory(h, 0.4), o, LAYOUT)
                     for window, o in zip(heads, observables) for h in window])
    assert got.shape == (7, 4)
    assert got.ravel().tolist() == gradcore.forward(model.net, rows)[:, 0].tolist()
    per_window = [score_batch(model, TrajectorySet(h, 0.4), o) for h, o in zip(heads, observables)]
    np.testing.assert_allclose(got, per_window, rtol=0.0, atol=ONE_ROW_ATOL)


def test_score_rigid_invariance():
    model = build_locoval(LAYOUT, hidden=(16,), seed=3)
    from plaustraj.datakit import make_walking_pose

    state = make_walking_pose(0.4, 1.1)
    traj = straight_trajectory(n=12, speed=1.1, heading=0.4)
    base = score(model, traj, observable_of(state))
    moved = score(
        model,
        transformed_trajectory(traj, angle=1.9, translation=(5.0, -7.0)),
        observable_of(transformed_state(state, angle=1.9, translation=(5.0, -7.0))),
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


def _block_inputs(rng, layout, n, m, dtype=np.float64):
    """n blocks of m step sequences, each block with the rotation of a random
    heading and a random tail."""
    rots = np.stack([canonical_frame(make_observable(heading=a))[1]
                     for a in rng.uniform(-math.pi, math.pi, size=n)])
    steps = rng.normal(size=(n, m, layout.horizon, 2)).astype(dtype)
    tails = rng.normal(size=(n, layout.feature_size - 2 * layout.horizon))
    return steps, rots, tails


@pytest.mark.parametrize("n, m", [(7, 1), (7, 4), (1, 4)], ids=["M=1", "M=K", "one-block"])
def test_encode_steps_block_pull_back_is_transpose(n, m):
    """encode_steps is linear in the steps (the tail held at zero), and the
    pull-back that EmLocoTerm.grad takes, each block's step columns
    (N, M·T_f, 2) times its rotation, is its transpose: <g, encode_steps(d)>
    equals <pull-back(g), d>."""
    layout = FeatureLayout(horizon=5)
    rng = np.random.default_rng(3)
    d, rots, tails = _block_inputs(rng, layout, n, m)
    g = rng.normal(size=(n, m, layout.feature_size))
    lhs = np.sum(g * encode_steps(d, rots, np.zeros_like(tails)))
    pulled = g[:, :, :2 * layout.horizon].reshape(n, m * layout.horizon, 2) @ rots
    rhs = np.sum(pulled.reshape(d.shape) * d)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n, m", [(7, 1), (7, 20), (1, 20)], ids=["M=1", "M=K", "one-block"])
def test_encode_steps_block_equals_each_row_encoded_alone(n, m, dtype):
    """A block's rows are bit for bit the rows of each sequence encoded alone
    as a one-row block in the same frame, for blocks of one sequence, of K
    heads and for one block, from float64 steps and from the float32 steps of
    the predictor's training step."""
    layout = FeatureLayout(horizon=12)
    steps, rots, tails = _block_inputs(np.random.default_rng(8), layout, n, m, dtype)
    got = encode_steps(steps, rots, tails)
    assert got.shape == (n, m, layout.feature_size) and got.dtype == np.float64
    for i in range(n):
        for j in range(m):
            want = encode_steps(steps[i, j][None, None], rots[i][None], tails[i][None])[0, 0]
            assert got[i, j].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# training


def _constant_dataset(n, reward, seed=0):
    rng = np.random.default_rng(seed)
    points, observables = [], []
    for _ in range(n):
        heading = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.5, 2.0)
        observables.append(make_observable(heading=heading, speed=speed))
        points.append(straight_trajectory(n=12, speed=speed, heading=heading).points)
    return pair_set(np.stack(points), np.full(n, reward), np.ones(n, bool), np.arange(n),
                    observables, 0.4)


def _scores(model, pairs):
    return [score(model, *pair_of(pairs, i)) for i in range(len(pairs))]


def test_train_single_sample_memorizes():
    ds = _constant_dataset(1, 0.63)
    cfg = TrainConfig(learning_rate=1e-2, total_steps=400, batch_size=1, seed=0)
    result = train_locoval(ds, cfg, hidden=(16,), holdout_fraction=0.0)
    (pred,) = _scores(result.model, ds)
    assert (pred - 0.63) ** 2 < 1e-4


def test_holdout_fraction_zero_selects_on_the_training_pairs():
    """On 10 pairs a fraction of 0.1 holds out one pair, and 0 holds out none:
    the checkpoint is selected on every pair, all of which train."""
    ds = _constant_dataset(10, 0.5, seed=2)
    cfg = TrainConfig(total_steps=5, batch_size=4, seed=0)
    held = {f: train_locoval(ds, cfg, hidden=(4,), holdout_fraction=f).holdout_indices
            for f in (0.0, 0.1)}
    assert len(held[0.1]) == 1
    assert sorted(held[0.0]) == list(range(10))


def test_train_constant_target_converges():
    ds = _constant_dataset(40, 0.8, seed=1)
    cfg = TrainConfig(learning_rate=1e-2, total_steps=500, batch_size=16, seed=1)
    result = train_locoval(ds, cfg, hidden=(16,))
    assert all(abs(p - 0.8) < 0.02 for p in _scores(result.model, ds))


def test_train_separates_labels(trained_scorer, plausibility_dataset):
    holdout = plausibility_dataset.subset(trained_scorer.holdout_indices)
    scores = np.array(_scores(trained_scorer.model, holdout))
    assert np.mean(scores[holdout.plausible]) - np.mean(scores[~holdout.plausible]) >= 0.15


def test_train_holdout_correlation(trained_scorer, plausibility_dataset):
    holdout = plausibility_dataset.subset(trained_scorer.holdout_indices)
    assert pearson_r(_scores(trained_scorer.model, holdout), holdout.rewards) >= 0.8


def test_train_curve_recorded(trained_scorer):
    assert len(trained_scorer.curve) > 0
    assert trained_scorer.curve[-1].step == 600
    assert trained_scorer.best_holdout_mse <= min(p.holdout_mse for p in trained_scorer.curve)


def test_train_inconsistent_shapes_rejected():
    ds = _constant_dataset(3, 0.5)
    with pytest.raises(InputShapeError, match="^trajectory length 12 != layout horizon 6$"):
        train_locoval(ds, TrainConfig(total_steps=5), layout=FeatureLayout(horizon=6))


# ---------------------------------------------------------------------------
# checkpointing


def test_locoval_checkpoint_roundtrip(tmp_path, trained_scorer):
    path = tmp_path / "scorer.json"
    save_locoval(trained_scorer.model, path, train_config=TrainConfig(seed=14))
    loaded = load_locoval(path)
    obs = make_observable()
    traj = straight_trajectory(n=12)
    assert score(loaded, traj, obs) == score(trained_scorer.model, traj, obs)
    assert loaded.layout == trained_scorer.model.layout


def test_load_refuses_schema_2_naming_the_file(tmp_path):
    path = tmp_path / "scorer.json"
    path.write_text(json.dumps(SCHEMA_2_LOCOVAL))
    with pytest.raises(ConfigError, match="retrain") as info:
        load_locoval(path)
    assert str(info.value).startswith(f"{path}: checkpoint schema 2")


@pytest.mark.parametrize("field, value, message", [
    ("horizon", 12.5, "feature_layout.horizon must be an integer, got 12.5"),
    ("horizon", True, "feature_layout.horizon must be an integer, got True"),
    # layout fields that schema 4 dropped: the layout is not one this version reads
    ("joint_count", 0, "feature_layout must be an object of horizon, include_pose, got "
                       "{'horizon': 12, 'include_pose': True, 'joint_count': 0}"),
    ("include_velocity", 1, "feature_layout must be an object of horizon, include_pose, got "
                            "{'horizon': 12, 'include_pose': True, 'include_velocity': 1}"),
], ids=["horizon-real", "horizon-bool", "joint-count-zero", "include-velocity-int"])
def test_load_checks_the_feature_layout(tmp_path, trained_scorer, field, value, message):
    path = tmp_path / "scorer.json"
    save_locoval(trained_scorer.model, path)
    doc = json.loads(path.read_text())
    doc["feature_layout"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_locoval(path)
    assert str(info.value) == f"{path}: malformed checkpoint ({message})"


def test_load_rejects_plain_model_checkpoint(tmp_path):
    path = tmp_path / "plain.json"
    rng = np.random.default_rng(0)
    gradcore.save_checkpoint(gradcore.model_to_dict(gradcore.init_mlp([4, 4, 1], rng)), path)
    with pytest.raises(DataError) as info:
        load_locoval(path)
    assert str(info.value) == (f"{path}: malformed checkpoint "
                               f"(not a scorer checkpoint (missing feature_layout))")

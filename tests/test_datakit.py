import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import observable_of, transformed_state
from plaustraj import datakit
from plaustraj.datakit import (
    PoseSequence,
    SyntheticConfig,
    filter_pose_sequence,
    generate_pose_bank,
    generate_synthetic,
    load_pose_bank,
    load_tsv,
    make_training_instances,
    make_walking_pose,
    pose_consistency_filter,
    pose_rule_filter,
    save_pose_bank,
    save_tsv,
)
from plaustraj.errors import ConfigError, DataError, InputShapeError
from plaustraj.oracle import (ObservableState, OracleParams, Trajectory, TrajectorySet, rollout,
                              wrap_angle)
from test_oracle import reference_rollout


# ---------------------------------------------------------------------------
# TSV loading


def test_load_tsv_single_track(tmp_path):
    p = tmp_path / "a.tsv"
    p.write_text("0 1 0.0 0.0\n1 1 0.5 0.0\n")
    ds = load_tsv(p)
    assert len(ds) == 1
    assert len(ds.tracks[0]) == 2


def test_load_tsv_demultiplexes_interleaved(tmp_path):
    # hand grouping: ped 1 -> (0,0),(1,0),(2,0); ped 2 -> (5,5),(5,6)
    p = tmp_path / "b.tsv"
    p.write_text(
        "0 1 0.0 0.0\n0 2 5.0 5.0\n1 1 1.0 0.0\n1 2 5.0 6.0\n2 1 2.0 0.0\n"
    )
    ds = load_tsv(p)
    assert len(ds) == 2
    np.testing.assert_allclose(
        ds.tracks[0].points, [[0, 0], [1, 0], [2, 0]]
    )
    np.testing.assert_allclose(ds.tracks[1].points, [[5, 5], [5, 6]])


def test_load_tsv_splits_on_frame_gap(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("0 1 0 0\n1 1 1 0\n5 1 9 9\n6 1 9 10\n")
    ds = load_tsv(p)
    assert len(ds) == 2


def test_load_tsv_repeated_row_is_a_located_data_error(tmp_path):
    # a repeated (frame, track) row is not a gap: it does not split the track
    p = tmp_path / "dup.tsv"
    p.write_text("0 1 0.0 0.0\n1 1 0.5 0.0\n1 1 0.6 0.0\n2 1 1.0 0.0\n")
    with pytest.raises(DataError) as info:
        load_tsv(p)
    assert str(info.value) == f"{p}:3: frame 1 of track 1 repeats line 2"


def test_load_tsv_parse_error_names_line(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("0 1 0.0 0.0\n1 1 abc 0.0\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(p))}:2: non-numeric field"):
        load_tsv(p)


@pytest.mark.parametrize("row", ["1.5 1 0.5 0.0", "inf 1 0.5 0.0", "nan 1 0.5 0.0",
                                 "1 2.5 0.5 0.0", "1 -inf 0.5 0.0"])
def test_load_tsv_rejects_a_non_integral_id(tmp_path, row):
    # a frame 1.5 must not be truncated into frame 1, nor inf overflow int()
    p = tmp_path / "ids.tsv"
    p.write_text(f"0 1 0.0 0.0\n{row}\n2 1 1.0 0.0\n")
    with pytest.raises(DataError) as info:
        load_tsv(p)
    message = str(info.value)
    assert message.startswith(f"{p}:2: frame and track ids must be integers, got ")
    assert "\n" not in message


def test_load_tsv_accepts_integral_float_ids(tmp_path):
    # ETH/UCY files write their frame and track ids as floats
    p = tmp_path / "eth.tsv"
    p.write_text("780.0 3.0 1.0 2.0\n790.0 3.0 1.5 2.0\n800.0 3.0 2.0 2.5\n")
    ds = load_tsv(p)
    assert len(ds) == 1
    assert ds.tracks[0].points.tolist() == [[1.0, 2.0], [1.5, 2.0], [2.0, 2.5]]


def test_load_tsv_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("# header comment\n\n0 1 0 0\n1 1 1 1\n")
    assert len(load_tsv(p)) == 1


def test_tsv_roundtrip_bit_exact(tmp_path):
    ds = generate_synthetic(SyntheticConfig(), 5, seed=3)
    path = tmp_path / "round.tsv"
    save_tsv(ds, path)
    loaded = load_tsv(path, dt=ds.dt)
    assert len(loaded) == len(ds)
    for tid in ds.tracks:
        assert np.array_equal(loaded.tracks[tid].points, ds.tracks[tid].points)


# ---------------------------------------------------------------------------
# pose bank


def test_walking_pose_heading_consistency():
    for h in (-2.0, 0.0, 1.3):
        state = make_walking_pose(h, 1.2)
        assert wrap_angle(observable_of(state).heading() - h) == pytest.approx(0.0, abs=1e-9)


def test_walking_pose_passes_rule_filter():
    state = make_walking_pose(0.3, 1.0, phase=1.1)
    seq = PoseSequence(frames=[(0.0, state.joints)])
    kept, rejected = pose_rule_filter(seq)
    assert kept == [0] and rejected == []


def test_pose_bank_roundtrip(tmp_path):
    bank = generate_pose_bank(8, seed=4)
    path = tmp_path / "bank.json"
    save_pose_bank(bank, path)
    loaded = load_pose_bank(path)
    assert len(loaded) == 8
    for a, b in zip(bank, loaded):
        assert a.heading == pytest.approx(b.heading)
        for name in a.joints:
            np.testing.assert_allclose(a.joints[name], b.joints[name])


def _joint(name, value):
    return lambda entry: {**entry, "joints": {**entry["joints"], name: value}}


def _field(name, value):
    return lambda entry: {**entry, name: value}


def _without_knee(entry):
    return {**entry, "joints": {k: v for k, v in entry["joints"].items() if k != "left_knee"}}


@pytest.mark.parametrize("corrupt, reason", [
    (_joint("pelvis", [0.0, float("nan"), 0.95]), "joint 'pelvis' must be a finite 3-vector"),
    (_joint("pelvis", [0.0, 0.0]), "joint 'pelvis' must be a finite 3-vector"),
    (_without_knee, "missing required joints: ['left_knee']"),
    (_field("heading", float("nan")), "heading and speed must be finite, got nan and "),
    (_field("speed", float("nan")), "heading and speed must be finite, got "),
    (lambda entry: {}, "'heading'"),
    (lambda entry: [1.0, 2.0], ""),
    (lambda entry: "pose", ""),
    (lambda entry: None, ""),
], ids=["nan-joint", "two-element-joint", "missing-joint", "nan-heading", "nan-speed",
        "no-fields", "list", "string", "null"])
def test_load_pose_bank_malformed_entry_is_one_line_data_error(tmp_path, corrupt, reason):
    path = tmp_path / "bank.json"
    save_pose_bank(generate_pose_bank(4, seed=4), path)
    doc = json.loads(path.read_text())
    doc[2] = corrupt(doc[2])
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as info:
        load_pose_bank(path)
    message = str(info.value)
    assert message.startswith(f"{path}: pose 2: malformed pose entry ({reason}")
    assert message.endswith(")") and "\n" not in message


def test_pose_bank_deterministic():
    a = generate_pose_bank(5, seed=9)
    b = generate_pose_bank(5, seed=9)
    for sa, sb in zip(a, b):
        for name in sa.joints:
            assert np.array_equal(sa.joints[name], sb.joints[name])


# ---------------------------------------------------------------------------
# synthetic generation


def test_synthetic_deterministic():
    cfg = SyntheticConfig()
    a = generate_synthetic(cfg, 6, seed=10)
    b = generate_synthetic(cfg, 6, seed=10)
    for tid in a.tracks:
        assert np.array_equal(a.tracks[tid].points, b.tracks[tid].points)


def test_synthetic_noiseless_straight_displacements():
    cfg = SyntheticConfig(
        noise_sigma=0.0,
        speed_range=(1.0, 1.0),
        scenario_weights={"straight": 1.0},
    )
    ds = generate_synthetic(cfg, 3, seed=11)
    for track in ds.tracks.values():
        norms = np.linalg.norm(np.diff(track.points, axis=0), axis=1)
        np.testing.assert_allclose(norms, cfg.dt * 1.0, atol=1e-9)


def test_synthetic_tracks_feasible():
    cfg = SyntheticConfig()
    params = OracleParams()
    ds = generate_synthetic(cfg, 30, seed=12, params=params)
    for track in ds.tracks.values():
        assert datakit._track_reward(track, params) >= cfg.min_reward


# Track synthesis and its feasibility probe on numpy 2-vectors: the reference
# that generate_synthetic (on Python floats) matches bit for bit


def _reference_synthesize_track(scenario, cfg, rng, params):
    speeds, turns = datakit._speed_profile(scenario, cfg, rng, params)
    heading = rng.uniform(-math.pi, math.pi)
    pos = rng.uniform(-5.0, 5.0, size=2)
    pts = [pos.copy()]
    h = heading
    for s, w in zip(speeds, turns):
        h = wrap_angle(h + w * cfg.dt)
        pos = pos + s * cfg.dt * np.array([math.cos(h), math.sin(h)])
        pts.append(pos.copy())
    pts = np.array(pts)
    if cfg.noise_sigma > 0:
        pts = pts + rng.normal(0.0, cfg.noise_sigma, size=pts.shape)
    return Trajectory(pts, cfg.dt)


def _reference_track_reward(traj, params):
    first = traj.points[1] - traj.points[0]
    speed = np.linalg.norm(first) / traj.dt
    heading = math.atan2(first[1], first[0]) if speed > 1e-9 else 0.0
    state = make_walking_pose(heading, min(speed, params.v_max))
    state = transformed_state(state, translation=traj.points[0] - state.root_position)
    return reference_rollout(Trajectory(traj.points[1:], traj.dt), state, params)


def _reference_synthetic(config, n_tracks, seed, params):
    """generate_synthetic's tracks, and the probe reward of every track it drew."""
    rng = np.random.default_rng(seed)
    names = [s for s in datakit.SCENARIOS if config.scenario_weights.get(s, 0.0) > 0]
    weights = np.array([config.scenario_weights[s] for s in names], dtype=float)
    weights /= weights.sum()
    tracks, probes = [], []
    for _ in range(n_tracks):
        scenario = names[rng.choice(len(names), p=weights)]
        for _ in range(config.max_retries):
            traj = _reference_synthesize_track(scenario, config, rng, params)
            probes.append((traj, _reference_track_reward(traj, params)))
            if probes[-1][1] >= config.min_reward:
                tracks.append(traj.points)
                break
        else:
            raise DataError(f"no feasible {scenario!r} track")
    return tracks, probes


@pytest.mark.parametrize("noise_sigma", [0.0, 0.02])
@pytest.mark.parametrize("scenario", [*datakit.SCENARIOS, "mixed"])
def test_synthetic_equals_numpy_reference(scenario, noise_sigma):
    weights = ({s: 1.0 for s in datakit.SCENARIOS} if scenario == "mixed"
               else {scenario: 1.0})
    cfg = SyntheticConfig(noise_sigma=noise_sigma, scenario_weights=weights)
    params = OracleParams()
    for seed in (0, 1, 2, 31):
        got = generate_synthetic(cfg, 12, seed=seed, params=params)
        want, probes = _reference_synthetic(cfg, 12, seed, params)
        assert sorted(got.tracks) == list(range(len(want)))
        for tid, points in enumerate(want):
            assert got.tracks[tid].points.tobytes() == points.tobytes()
        for traj, reward in probes:
            assert datakit._track_reward(traj, params) == reward


def _track_from(first, second, rest_step=(0.45, 0.1), n=10, dt=0.4):
    """A track through first and second, then n - 2 steps of rest_step."""
    rest = np.array(second) + np.cumsum(np.tile(rest_step, (n - 2, 1)), axis=0)
    return Trajectory(np.array([first, second, *rest]), dt)


@pytest.mark.parametrize("track", [
    # a standing start: a first step under 1e-9 m, so the walker faces +x
    _track_from([1.25, -0.75], [1.25, -0.75]),
    _track_from([1.25, -0.75], [1.25 + 2e-10, -0.75 - 1e-10]),
    # a first step faster than v_max: the start speed is capped
    _track_from([-3.0, 2.0], [-1.4, 2.9]),
    _track_from([-3.0, 2.0], [-3.3, 0.3], rest_step=(-0.2, -0.6)),
    # a first step along -x whose y step is -0.0 - 0.0 = -0.0: atan2 gives
    # -pi, the walker's heading wraps to pi and its velocity keeps sin(-pi)
    _track_from([2.0, 0.0], [1.5, -0.0], rest_step=(-0.45, 0.05)),
], ids=["standing", "standing-1e-10", "fast", "fast-turning", "minus-x"])
def test_track_reward_equals_reference(track):
    params = OracleParams()
    (x0, y0), (x1, y1) = track.points[:2].tolist()
    if y1 == y0 and x1 < x0:  # the -x case must reach the wrap
        assert math.atan2(y1 - y0, x1 - x0) == -math.pi
    assert datakit._track_reward(track, params) == _reference_track_reward(track, params)


def test_synthetic_rolls_out_once_per_probe(monkeypatch):
    # the count behind the benchmark's traced datakit.track_accept_ratio
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return rollout(*args, **kwargs)

    monkeypatch.setattr(datakit, "rollout", counted)
    cfg, params = SyntheticConfig(), OracleParams()
    for seed in (0, 7):
        calls = 0
        generate_synthetic(cfg, 20, seed=seed, params=params)
        _, probes = _reference_synthetic(cfg, 20, seed, params)
        assert len(probes) > 20  # some probes rejected their track
        assert calls == len(probes)


def test_synthetic_turn_rate_cap_enforced():
    cfg = SyntheticConfig(turn_rate_range=(3.0, 3.5), scenario_weights={"turn": 1.0})
    with pytest.raises(ConfigError):
        generate_synthetic(cfg, 3, seed=13)


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(n_frames=2)
    with pytest.raises(ConfigError):
        SyntheticConfig(scenario_weights={"moonwalk": 1.0})


# ---------------------------------------------------------------------------
# pose filters


def make_sequence(n=50, jitter=0.002, seed=0, drift=0.0, phase=0.9):
    """Fixed-phase pose translated uniformly: the smooth background against
    which injected anomalies should stand out."""
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(n):
        state = make_walking_pose(0.1, 1.0, phase=phase)
        joints = {
            k: v + np.array([drift * t, 0.0, 0.0]) + rng.normal(0, jitter, 3)
            for k, v in state.joints.items()
        }
        frames.append((float(t), joints))
    return PoseSequence(frames=frames)


def test_rule_filter_rejects_inverted_pose():
    seq = make_sequence(5, jitter=0.0)
    joints = {k: v * np.array([1.0, 1.0, -1.0]) for k, v in seq.frames[2][1].items()}
    frames = list(seq.frames)
    frames[2] = (frames[2][0], joints)
    kept, rejected = pose_rule_filter(PoseSequence(frames=frames))
    assert rejected == [2]
    assert kept == [0, 1, 3, 4]


def test_rule_filter_rejects_pelvis_above_shoulders():
    seq = make_sequence(3, jitter=0.0)
    joints = dict(seq.frames[1][1])
    joints["pelvis"] = joints["pelvis"] + np.array([0.0, 0.0, 1.0])
    frames = list(seq.frames)
    frames[1] = (frames[1][0], joints)
    _, rejected = pose_rule_filter(PoseSequence(frames=frames))
    assert 1 in rejected


def test_consistency_filter_constant_sequence_clean():
    state = make_walking_pose(0.0, 1.0)
    frames = [(float(t), dict(state.joints)) for t in range(20)]
    kept, rejected = pose_consistency_filter(PoseSequence(frames=frames))
    assert rejected == []


def test_consistency_filter_catches_single_jump():
    seq = make_sequence(50, jitter=0.0, seed=1)
    frames = list(seq.frames)
    joints = dict(frames[25][1])
    joints["head"] = joints["head"] + np.array([1.0, 0.0, 0.0])
    frames[25] = (frames[25][0], joints)
    kept, rejected = pose_consistency_filter(PoseSequence(frames=frames))
    assert rejected == [25]


def test_consistency_filter_tolerates_walking_drift():
    seq = make_sequence(40, jitter=0.0, seed=2, drift=0.02)
    _, rejected = pose_consistency_filter(seq)
    assert rejected == []


def test_consistency_filter_window_too_large():
    seq = make_sequence(5)
    with pytest.raises(InputShapeError):
        pose_consistency_filter(seq, window=9)


def test_filters_preserve_order():
    seq = make_sequence(30, seed=3)
    result = filter_pose_sequence(seq)
    combined = sorted(
        result["kept"] + result["rule_rejected"] + result["consistency_rejected"]
    )
    assert combined == list(range(30))
    assert result["kept"] == sorted(result["kept"])


def test_sequence_timestamp_validation():
    state = make_walking_pose(0.0, 1.0)
    with pytest.raises(InputShapeError):
        PoseSequence(frames=[(1.0, state.joints), (1.0, state.joints)])


# ---------------------------------------------------------------------------
# training instances


def test_exact_window_single_instance(pose_bank):
    ds = generate_synthetic(SyntheticConfig(n_frames=9 + 12), 1, seed=20)
    instances = make_training_instances(ds, pose_bank, 9, 12, stride=1)
    assert len(instances) == 1
    inst = instances[0]
    assert len(inst.past) == 9
    assert len(inst.future) == 12


def test_momentary_setting_two_past_frames(pose_bank):
    ds = generate_synthetic(SyntheticConfig(), 2, seed=21)
    instances = make_training_instances(ds, pose_bank, 2, 12, stride=2)
    assert instances
    for inst in instances:
        assert len(inst.past) == 2


def test_instance_velocity_consistent_with_past(pose_bank):
    ds = generate_synthetic(SyntheticConfig(), 3, seed=22)
    for inst in make_training_instances(ds, pose_bank, 9, 12, stride=4):
        derived = (inst.past.points[-1] - inst.past.points[-2]) / inst.past.dt
        np.testing.assert_allclose(inst.observable.root_velocity, derived, atol=1e-6)


def test_instance_pose_heading_matches_past(pose_bank):
    ds = generate_synthetic(SyntheticConfig(), 3, seed=23)
    for inst in make_training_instances(ds, pose_bank, 9, 12, stride=4):
        step = inst.past.points[-1] - inst.past.points[-2]
        target = math.atan2(step[1], step[0])
        assert wrap_angle(inst.observable.heading() - target) == pytest.approx(
            0.0, abs=1e-9
        )


def test_instance_pose_root_at_last_observation(pose_bank):
    ds = generate_synthetic(SyntheticConfig(), 2, seed=24)
    for inst in make_training_instances(ds, pose_bank, 9, 12, stride=6):
        np.testing.assert_allclose(
            inst.observable.root_position, inst.past.points[-1], atol=1e-12
        )


def test_short_tracks_counted_not_fatal(pose_bank):
    ds = generate_synthetic(SyntheticConfig(n_frames=6), 3, seed=25)
    instances = make_training_instances(ds, pose_bank, 9, 12, stride=1)
    assert len(instances) == 0
    assert sum(len(track) < 9 + 12 for track in ds.tracks.values()) == 3


def test_instance_parameter_validation(pose_bank):
    ds = generate_synthetic(SyntheticConfig(), 1, seed=26)
    with pytest.raises(ConfigError):
        make_training_instances(ds, pose_bank, 1, 12)
    with pytest.raises(ConfigError):
        make_training_instances(ds, pose_bank, 9, 0)
    with pytest.raises(ConfigError, match="future_frames must be >= 2"):
        make_training_instances(ds, pose_bank, 9, 1)
    with pytest.raises(DataError):
        make_training_instances(ds, [], 9, 12)


def reference_windows(dataset, pose_bank, past_frames, future_frames, stride, seed, stats):
    """The per-window construction that make_training_instances must equal
    bit for bit: one pose drawn per window, aligned joint by joint with
    transformed_state."""
    rng = np.random.default_rng(seed)
    window = past_frames + future_frames
    windows = []
    stats["skipped_tracks"] = 0
    for tid in sorted(dataset.tracks):
        track = dataset.tracks[tid]
        if len(track) < window:
            stats["skipped_tracks"] += 1
            continue
        for start in range(0, len(track) - window + 1, stride):
            past_pts = track.points[start : start + past_frames]
            last_step = past_pts[-1] - past_pts[-2]
            if np.linalg.norm(last_step) > 1e-9:
                target_heading = math.atan2(last_step[1], last_step[0])
            else:
                target_heading = 0.0
            pose = pose_bank[rng.integers(len(pose_bank))]
            aligned = transformed_state(
                pose,
                angle=wrap_angle(target_heading - pose.heading),
                pivot=pose.root_position,
                translation=past_pts[-1] - pose.root_position,
            )
            obs = ObservableState(joints=aligned.joints, root_velocity=last_step / dataset.dt)
            windows.append((past_pts, track.points[start + past_frames : start + window],
                            obs.joint_array(), obs.root_velocity))
    stats["instances"] = len(windows)
    return windows


@pytest.fixture(scope="module")
def mixed_tracks():
    """Tracks of 24 frames, every third cut to 9, and one standing still."""
    ds = generate_synthetic(SyntheticConfig(), 7, seed=27)
    ds.tracks = {tid: Trajectory(t.points[:9] if tid % 3 == 0 else t.points, ds.dt)
                 for tid, t in ds.tracks.items()}
    ds.tracks[7] = Trajectory(np.zeros((24, 2)) + [1.0, 2.0], ds.dt)
    return ds


@pytest.mark.parametrize("bank_size", [1, 12, 64])
def test_windows_equal_the_per_window_construction(mixed_tracks, bank_size):
    bank = generate_pose_bank(bank_size, seed=bank_size)
    for stride in (1, 2, 3, 4):
        for past_frames, future_frames in ((2, 12), (9, 12), (9, 15)):
            stats = {}
            got = make_training_instances(mixed_tracks, bank, past_frames, future_frames,
                                          stride=stride, seed=stride)
            want = reference_windows(mixed_tracks, bank, past_frames, future_frames, stride,
                                     stride, stats)
            assert len(got) == len(want) == stats["instances"] > 0
            if past_frames + future_frames > 9:
                assert stats["skipped_tracks"] == 3
            for name, arrays in zip(("past", "future", "joints", "velocity"), zip(*want)):
                assert getattr(got, name).tobytes() == np.stack(arrays).tobytes(), name


@pytest.mark.parametrize("bank_size", [1, 12, 32, 37, 64])
def test_one_pose_draw_per_set_equals_one_per_window(bank_size):
    """make_training_instances draws every window's pose in one call; the
    generator gives the values of one call per window, in order."""
    for n in (1, 5, 600):
        one, per = np.random.default_rng(n), np.random.default_rng(n)
        assert one.integers(bank_size, size=n).tolist() == [per.integers(bank_size)
                                                             for _ in range(n)]
        assert one.random() == per.random()


def _window_arrays(n=4, past=3, future=5, joints=8):
    rng = np.random.default_rng(0)
    return dict(past=rng.normal(size=(n, past, 2)), future=rng.normal(size=(n, future, 2)),
                joints=rng.normal(size=(n, joints, 3)), velocity=rng.normal(size=(n, 2)), dt=0.4)


def _with(**changes):
    return {**_window_arrays(), **changes}


@pytest.mark.parametrize("arrays, error", [
    (_with(past=np.zeros((4, 3))), InputShapeError),
    (_with(past=np.zeros((3, 3, 2))), InputShapeError),
    (_with(future=np.zeros((4, 5, 3))), InputShapeError),
    (_with(velocity=np.zeros((4, 3))), InputShapeError),
    (_with(joints=np.zeros((4, 7, 3))), InputShapeError),
    (_with(past=np.zeros((4, 1, 2))), InputShapeError),
    (_with(future=np.zeros((4, 1, 2))), InputShapeError),
    (_with(future=np.full((4, 5, 2), np.nan)), InputShapeError),
    (_with(joints=np.full((4, 8, 3), np.inf)), InputShapeError),
    (_with(velocity=np.full((4, 2), np.nan)), InputShapeError),
    (_with(dt=0.0), ConfigError),
    (_with(dt=-0.4), ConfigError),
], ids=["past-2d", "past-rows", "future-3-coords", "velocity-3", "joints-7", "past-1",
        "future-1", "future-nan", "joints-inf", "velocity-nan", "dt-zero", "dt-negative"])
def test_window_set_checks_every_rule(arrays, error):
    with pytest.raises(error):
        datakit.WindowSet(**arrays)


def test_window_set_subsets_slices_views_and_pickles(pose_bank):
    windows = make_training_instances(generate_synthetic(SyntheticConfig(), 4, seed=28),
                                      pose_bank, 9, 12, stride=1, seed=29)
    names = ("past", "future", "joints", "velocity")
    for index in (slice(2, 7), np.array([5, 0, 3]), np.arange(len(windows)) % 3 == 1):
        for part in (windows[index], windows.subset(index)):
            assert len(part) == len(windows.past[index])
            for name in names:
                assert np.array_equal(getattr(part, name), getattr(windows, name)[index])
            assert part.dt == windows.dt
    assert len(windows[:0]) == 0 and windows[:0].horizon == 12
    views = list(windows)
    assert len(views) == len(windows) > 10
    for i in (0, 4, -1):
        past, future, obs = windows[i]
        assert np.array_equal(past.points, windows.past[i]) and past.dt == windows.dt
        assert np.array_equal(future.points, windows.future[i])
        assert np.array_equal(obs.joint_array(), windows.joints[i])
        assert np.array_equal(obs.root_velocity, windows.velocity[i])
        assert np.array_equal(views[i].observable.joint_array(), windows.joints[i])
    again = pickle.loads(pickle.dumps(windows))
    for name in names:
        assert getattr(again, name).tobytes() == getattr(windows, name).tobytes()
    assert again.dt == windows.dt


def test_future_slices_equal_the_window_loop():
    dataset = generate_synthetic(SyntheticConfig(), 6, seed=3)
    dataset.tracks = dict(reversed(dataset.tracks.items()))
    expected = []
    for tid in sorted(dataset.tracks):
        pts = dataset.tracks[tid].points
        for start in range(0, len(pts) - 12 + 1, 3):
            expected.append(pts[start : start + 12])
    slices = datakit.future_slices(dataset, 12, 3)
    assert isinstance(slices, TrajectorySet) and slices.dt == dataset.dt
    assert slices.points.tobytes() == np.array(expected).tobytes() and len(expected) > 6
    none = datakit.future_slices(dataset, len(dataset.tracks[0]) + 1, 1)
    assert isinstance(none, TrajectorySet) and none.points.shape == (0, 25, 2)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from plaustraj.errors import ConfigError, DataError, InputShapeError, ParseError
from plaustraj.oracle import OracleParams, rollout, wrap_angle


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


def test_load_tsv_parse_error_names_line(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("0 1 0.0 0.0\n1 1 abc 0.0\n")
    with pytest.raises(ParseError) as exc:
        load_tsv(p)
    assert exc.value.line == 2


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
        assert wrap_angle(state.observable().heading() - h) == pytest.approx(0.0, abs=1e-9)


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
    stats = {}
    instances = make_training_instances(ds, pose_bank, 9, 12, stride=1, stats=stats)
    assert instances == []
    assert stats["skipped_tracks"] == 3


def test_instance_parameter_validation(pose_bank):
    ds = generate_synthetic(SyntheticConfig(), 1, seed=26)
    with pytest.raises(ConfigError):
        make_training_instances(ds, pose_bank, 1, 12)
    with pytest.raises(ConfigError):
        make_training_instances(ds, pose_bank, 9, 0)
    with pytest.raises(DataError):
        make_training_instances(ds, [], 9, 12)

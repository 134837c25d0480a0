import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_observable, straight_trajectory
from plaustraj import oracle
from plaustraj.errors import ConfigError, DataError, InputShapeError
from plaustraj.oracle import (
    PERTURBATIONS,
    HumanoidState,
    OracleParams,
    Trajectory,
    build_plausibility_dataset,
    load_plausibility_csv,
    rollout,
    rollout_batch,
    rollout_detailed,
    rotation_matrix,
    save_plausibility_csv,
    wrap_angle,
    wrap_angles,
)
from plaustraj.datakit import make_walking_pose


def walker(heading=0.0, speed=1.2, root=(0.0, 0.0)):
    state = make_walking_pose(heading, speed)
    return state.transformed(translation=np.asarray(root, dtype=float) - state.root_position)


def initial_heading(traj: Trajectory) -> float:
    """Direction of the first step."""
    d = traj.points[1] - traj.points[0]
    return math.atan2(d[1], d[0])


# ---------------------------------------------------------------------------
# Pair construction one pair at a time: the reference that
# build_plausibility_dataset matches bit for bit


def _count(stats, key):
    if stats is not None:
        stats[key] = stats.get(key, 0) + 1


def align_trajectory_to_pose(traj: Trajectory, state: HumanoidState) -> Trajectory:
    """Rotate the trajectory about its first point so its initial direction
    matches the pose heading, scale its displacements so the first-step speed
    equals the pose root speed, and move its start to the pose root."""
    disp = np.diff(traj.points, axis=0)
    first = disp[0]
    first_norm = np.linalg.norm(first)
    pose_speed = np.linalg.norm(state.root_velocity)
    if first_norm < 1e-12:
        raise DataError("cannot align a trajectory with a zero first step")
    angle = wrap_angle(state.heading - math.atan2(first[1], first[0]))
    rot = rotation_matrix(angle)
    scale = (pose_speed * traj.dt) / first_norm
    scaled = disp @ rot.T * scale
    pts = np.vstack([state.root_position, state.root_position + np.cumsum(scaled, axis=0)])
    return Trajectory(pts, traj.dt)


def translate_trajectory_to_root(traj: Trajectory, state: HumanoidState) -> Trajectory:
    return Trajectory(traj.points - traj.points[0] + state.root_position, traj.dt)


def perturb(traj: Trajectory, state: HumanoidState, kind: str,
            params: OracleParams, rng: np.random.Generator) -> Trajectory:
    disp = np.diff(traj.points, axis=0)
    if kind == "heading_flip":
        first = disp[0]
        angle = wrap_angle(state.heading + math.pi - math.atan2(first[1], first[0]))
        disp = disp @ rotation_matrix(angle).T
    elif kind == "speed_scale":
        disp = disp * rng.uniform(2.0, 4.0)
    elif kind == "sharp_turns":
        step = params.turn_rate_max * traj.dt * rng.uniform(1.2, 2.0)
        angles = np.cumsum(step * np.where(np.arange(len(disp)) % 2 == 0, 1.0, -1.0))
        norms = np.linalg.norm(disp, axis=1)
        base = math.atan2(disp[0][1], disp[0][0])
        disp = norms[:, None] * np.stack(
            [np.cos(base + angles), np.sin(base + angles)], axis=1
        )
    else:
        raise ValueError(f"unknown perturbation {kind!r}")
    pts = np.vstack(
        [state.root_position, state.root_position + np.cumsum(disp, axis=0)]
    )
    return Trajectory(pts, traj.dt)


def sample_plausible_pair(pose_bank, traj_bank, rng, max_resamples=32, stats=None):
    """Independent pose/trajectory draw with alignment; redraws a still
    trajectory, and a still pose under a moving one."""
    for attempt in range(max_resamples):
        state = pose_bank[rng.integers(len(pose_bank))]
        traj = traj_bank[rng.integers(len(traj_bank))]
        moving = np.linalg.norm(np.diff(traj.points, axis=0)[0]) > 1e-9
        if np.linalg.norm(state.root_velocity) < 1e-9 and moving:
            _count(stats, "zero_speed_resamples")
            continue
        if not moving:
            _count(stats, "zero_step_resamples")
            continue
        if stats is not None:
            stats["most_tries"] = max(stats.get("most_tries", 0), attempt + 1)
        return align_trajectory_to_pose(traj, state), state
    raise DataError("exhausted resampling attempts for a plausible pair")


def sample_implausible_pair(pose_bank, traj_bank, rng, params=OracleParams(),
                            perturbation=None, stats=None):
    """Unaligned pose/trajectory pair, started at the pose root, with one
    perturbation (drawn when not given)."""
    state = pose_bank[rng.integers(len(pose_bank))]
    traj = traj_bank[rng.integers(len(traj_bank))]
    if perturbation is None:
        perturbation = PERTURBATIONS[rng.integers(len(PERTURBATIONS))]
    _count(stats, perturbation)
    if not np.any(np.diff(traj.points, axis=0)[0]):
        _count(stats, f"{perturbation}_zero_step")
    return perturb(traj, state, perturbation, params, rng), state


def _reference_dataset(pose_bank, traj_bank, n_plausible, n_implausible, params, seed,
                       stats=None):
    """build_plausibility_dataset as a loop that builds and labels pair by pair."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_plausible):
        traj, state = sample_plausible_pair(pose_bank, traj_bank, rng, stats=stats)
        out.append((traj, state, rollout(traj, state, params), "plausible_pair"))
    for _ in range(n_implausible):
        traj, state = sample_implausible_pair(pose_bank, traj_bank, rng, params, stats=stats)
        out.append((traj, state, rollout(traj, state, params), "implausible_pair"))
    return out


# ---------------------------------------------------------------------------
# basic types


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


def test_trajectory_validation():
    with pytest.raises(InputShapeError):
        Trajectory(np.zeros((1, 2)))
    with pytest.raises(InputShapeError):
        Trajectory(np.array([[0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(InputShapeError):
        Trajectory(np.zeros((5, 3)))
    for dt in (0.0, -0.4, float("nan")):
        with pytest.raises(ConfigError, match="dt must be positive"):
            Trajectory(np.zeros((3, 2)), dt)


def test_observable_requires_all_joints():
    state = walker()
    joints = dict(state.joints)
    del joints["pelvis"]
    with pytest.raises(InputShapeError):
        oracle.ObservableState(joints=joints, root_velocity=np.zeros(2))


def test_heading_from_shoulder_line():
    for h in (0.0, 1.1, -2.4, math.pi / 2):
        obs = walker(heading=h).observable()
        assert wrap_angle(obs.heading() - h) == pytest.approx(0.0, abs=1e-9)


def test_heading_fallback_to_velocity():
    state = walker()
    joints = dict(state.joints)
    # collapse the shoulders onto each other
    joints["left_shoulder"] = joints["right_shoulder"].copy()
    obs = oracle.ObservableState(joints=joints, root_velocity=np.array([0.0, 2.0]))
    assert obs.heading() == pytest.approx(math.pi / 2)


# ---------------------------------------------------------------------------
# rollout


def test_rollout_stationary_perfect():
    state = make_walking_pose(0.0, 0.0)
    pts = np.tile(state.root_position, (12, 1))
    assert rollout(Trajectory(pts), state) >= 0.99


def test_rollout_double_vmax_scores_low():
    params = OracleParams()
    traj = straight_trajectory(n=12, speed=2.0 * params.v_max)
    assert rollout(traj, walker(speed=params.v_max), params) < 0.5


def test_rollout_feasible_walk_scores_high():
    traj = straight_trajectory(n=12, speed=1.2)
    assert rollout(traj, walker(speed=1.2)) > 0.8


def test_rollout_discount_weights_early_steps():
    """With small gamma, reward concentrates on the first steps: a trajectory
    that starts trackable and diverges late should beat its reverse."""
    params = OracleParams(gamma=0.3)
    good_early = np.vstack(
        [straight_trajectory(n=6, speed=1.0).points,
         straight_trajectory(n=6, speed=5.0, start=(2.4, 0.0)).points + [10.0, 0.0]]
    )
    bad_early = good_early[::-1].copy()
    state = walker(speed=1.0)
    assert rollout(Trajectory(good_early), state, params) > rollout(
        Trajectory(bad_early), state, params
    )


def test_rollout_deterministic_and_bounded(traj_bank, pose_bank):
    for traj, state in zip(traj_bank[:10], pose_bank[:10]):
        a = rollout(traj, state)
        b = rollout(traj, state)
        assert a == b
        assert 0.0 <= a <= 1.0


@settings(deadline=None, max_examples=30)
@given(
    angle=st.floats(-math.pi, math.pi),
    dx=st.floats(-20.0, 20.0),
    dy=st.floats(-20.0, 20.0),
    speed=st.floats(0.3, 2.2),
)
def test_rollout_rigid_invariance(angle, dx, dy, speed):
    traj = straight_trajectory(n=8, speed=speed)
    state = walker(speed=speed)
    base = rollout(traj, state)
    moved = rollout(
        traj.transformed(angle=angle, translation=(dx, dy)),
        state.transformed(angle=angle, translation=(dx, dy)),
    )
    assert moved == pytest.approx(base, abs=1e-9)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_rollout_respects_kinematic_caps(seed):
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.uniform(-1.5, 1.5, size=(10, 2)), axis=0)
    traj = Trajectory(pts, 0.4)
    params = OracleParams()
    state = walker(heading=rng.uniform(-math.pi, math.pi), speed=rng.uniform(0, 2.4))
    detail = rollout_detailed(traj, state, params)
    vels = detail["velocities"]
    speeds = np.linalg.norm(vels, axis=1)
    assert np.all(speeds <= params.v_max + 1e-9)
    dv = np.linalg.norm(np.diff(vels, axis=0), axis=1) / traj.dt
    assert np.all(dv <= params.a_max + 1e-9)
    headings = [math.atan2(v[1], v[0]) for v in vels if np.linalg.norm(v) > 1e-9]
    for h0, h1 in zip(headings, headings[1:]):
        assert abs(wrap_angle(h1 - h0)) / traj.dt <= params.turn_rate_max + 1e-9


def test_rollout_speed_cap_monotonicity():
    """Past the speed cap, asking for more speed never raises the reward."""
    params = OracleParams()
    state = walker(speed=params.v_max)
    rewards = [
        rollout(straight_trajectory(n=10, speed=s), state, params)
        for s in (params.v_max, 1.5 * params.v_max, 2.0 * params.v_max, 3.0 * params.v_max)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(rewards, rewards[1:]))


# ---------------------------------------------------------------------------
# batched rollout: the per-pair rollout is the reference, bit for bit


def _batch_rewards(pairs, params=OracleParams()):
    trajs, states = zip(*pairs)
    return rollout_batch(
        np.stack([t.points for t in trajs]),
        np.stack([s.root_position for s in states]),
        np.stack([s.root_velocity for s in states]),
        np.array([s.heading for s in states]),
        trajs[0].dt,
        params,
    )


def _assert_bits_equal(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.flatnonzero(got != want)


def test_wrap_angles_equals_wrap_angle_at_ties():
    pi = math.pi
    centres = [0.0, pi, -pi, 2 * pi, -2 * pi, 3 * pi, -3 * pi, 5 * pi, -5 * pi, 1e3 * pi]
    values = []
    for c in centres:
        below, above = c, c
        for _ in range(3):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            values += [below, above]
        values.append(c)
    values += [-0.0, 1e-300, -1e-300]
    values = np.array(values)
    _assert_bits_equal(wrap_angles(values), [wrap_angle(v) for v in values.tolist()])


@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=20))
def test_wrap_angles_equals_wrap_angle(values):
    values = np.array(values)
    _assert_bits_equal(wrap_angles(values), [wrap_angle(v) for v in values.tolist()])


def _probe_pair(heading, speed, kind, horizon, dt, seed, params):
    """One pair of a given kind: a random walk from the root, a walk whose
    first target is the root itself (distance 0), or a heading-flip walk,
    whose targets sit behind the walker on the +-pi turn tie."""
    rng = np.random.default_rng(seed)
    state = walker(heading=heading, speed=speed, root=rng.uniform(-5.0, 5.0, size=2))
    steps = rng.uniform(-1.5, 1.5, size=(horizon, 2))
    if kind == "still":
        steps[0] = 0.0
        steps[rng.integers(horizon)] = 0.0
    points = state.root_position + np.cumsum(steps, axis=0)
    traj = Trajectory(points, dt)
    if kind == "flip":
        traj = perturb(traj, state, "heading_flip", params, rng)
    return traj, state


@settings(deadline=None, max_examples=60)
@given(
    rows=st.lists(
        st.tuples(
            st.floats(-math.pi, math.pi),
            st.one_of(st.just(0.0), st.floats(0.0, 2.5), st.floats(2.5, 10.0)),
            st.sampled_from(["walk", "still", "flip"]),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=8,
    ),
    horizon=st.integers(2, 20),
    dt=st.sampled_from([0.1, 0.4, 0.5]),
)
# pairs whose reward changes when a square is taken as x * x instead of pow:
# the first two in the tracking term, the last two in the energy term
@example(rows=[(-1.8642575314417265, 0.7343883265450446, "walk", 1856926885)],
         horizon=2, dt=0.5)
@example(rows=[(-0.6248806835841116, 0.0, "walk", 556722921)], horizon=12, dt=0.1)
@example(rows=[(-2.527182333473754, 3.3155790506214173, "still", 3751821119)],
         horizon=15, dt=0.4)
@example(rows=[(2.5692969871512465, 4.455711493096713, "walk", 47661300)],
         horizon=13, dt=0.5)
def test_rollout_batch_equals_rollout(rows, horizon, dt):
    params = OracleParams()
    pairs = [_probe_pair(h, v, kind, horizon, dt, seed, params) for h, v, kind, seed in rows]
    _assert_bits_equal(_batch_rewards(pairs, params), [rollout(t, s, params) for t, s in pairs])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rollout_batch_equals_rollout_on_seeded_banks(pose_bank, traj_bank, seed):
    params = OracleParams()
    rng = np.random.default_rng(seed)
    pairs = [sample_plausible_pair(pose_bank, traj_bank, rng) for _ in range(100)]
    for kind in PERTURBATIONS:
        pairs += [
            sample_implausible_pair(pose_bank, traj_bank, rng, params, perturbation=kind)
            for _ in range(100)
        ]
    _assert_bits_equal(_batch_rewards(pairs, params), [rollout(t, s, params) for t, s in pairs])


def _assert_equals_reference(got, want):
    assert len(got) == len(want)
    for sample, (traj, state, reward, label) in zip(got, want):
        assert sample.label == label
        _assert_bits_equal(sample.reward, reward)
        assert sample.trajectory.dt == traj.dt
        _assert_bits_equal(sample.trajectory.points, traj.points)
        _assert_bits_equal(sample.observable.root_velocity, state.root_velocity)
        for name, pos in state.joints.items():
            _assert_bits_equal(sample.observable.joints[name], pos)


@pytest.mark.parametrize("mixed", [False, True])
def test_dataset_equals_per_pair_reference(pose_bank, traj_bank, mixed):
    params = OracleParams()
    bank = traj_bank
    if mixed:
        bank = (
            traj_bank[:20]
            + [Trajectory(t.points[:7], t.dt) for t in traj_bank[20:40]]
            + [Trajectory(t.points, 0.2) for t in traj_bank[40:60]]
        )
    got = build_plausibility_dataset(pose_bank, bank, 150, 150, params, seed=21)
    want = _reference_dataset(pose_bank, bank, 150, 150, params, seed=21)
    _assert_equals_reference(got, want)
    # the pairs of one horizon and dt are rows of one points array
    groups = {}
    for s in got:
        groups.setdefault((len(s.trajectory), s.trajectory.dt), set()).add(
            id(s.trajectory.points.base))
    assert len(groups) == (3 if mixed else 1)
    assert all(len(bases) == 1 for bases in groups.values())


def _degenerate_banks(pose_bank, traj_bank):
    """Banks with a still pose, tracks 10-14 whose first step (or every step)
    has length zero, and tracks of two and three points."""
    poses = pose_bank[:6] + [walker(heading=0.7, speed=0.0, root=(1.0, -2.0))]
    tracks = traj_bank[:10]
    for t in traj_bank[10:14]:
        tracks.append(Trajectory(np.vstack([t.points[:1], t.points[:1], t.points[2:]]), t.dt))
    tracks.append(Trajectory(np.tile(traj_bank[14].points[:1], (12, 1)), traj_bank[14].dt))
    tracks += [Trajectory(t.points[:2], t.dt) for t in traj_bank[15:17]]
    tracks += [Trajectory(t.points[:3], 0.25) for t in traj_bank[17:19]]
    return poses, tracks


@pytest.mark.parametrize("n_plausible, n_implausible", [(60, 300), (0, 60), (60, 0)])
def test_dataset_equals_reference_on_degenerate_banks(pose_bank, traj_bank, n_plausible,
                                                      n_implausible):
    params = OracleParams()
    poses, tracks = _degenerate_banks(pose_bank, traj_bank)
    stats = {}
    want = _reference_dataset(poses, tracks, n_plausible, n_implausible, params, 23, stats)
    got = build_plausibility_dataset(poses, tracks, n_plausible, n_implausible, params, seed=23)
    _assert_equals_reference(got, want)
    expected = []
    if n_plausible:
        expected += ["zero_speed_resamples", "zero_step_resamples"]
    if n_implausible:
        expected += [*PERTURBATIONS, "heading_flip_zero_step", "sharp_turns_zero_step"]
    assert all(stats.get(key, 0) > 0 for key in expected), stats


def test_plausible_pair_found_on_last_try(pose_bank, traj_bank):
    poses, tracks = _degenerate_banks(pose_bank, traj_bank)
    poses, tracks = poses[:1], tracks[:1] + tracks[10:14] * 2 + tracks[14:15]
    stats = {}
    want = _reference_dataset(poses, tracks, 3, 0, OracleParams(), 57, stats)
    assert stats["most_tries"] == 32
    _assert_equals_reference(build_plausibility_dataset(poses, tracks, 3, 0, seed=57), want)


@pytest.mark.parametrize("still", ["poses", "tracks"])
def test_plausible_draws_exhausted(pose_bank, traj_bank, still):
    poses, tracks = _degenerate_banks(pose_bank, traj_bank)
    if still == "poses":
        poses = poses[-1:]
    else:
        tracks = tracks[10:15]
    message = "^exhausted resampling attempts for a plausible pair$"
    with pytest.raises(DataError, match=message):
        _reference_dataset(poses, tracks, 3, 3, OracleParams(), 24)
    with pytest.raises(DataError, match=message):
        build_plausibility_dataset(poses, tracks, 3, 3, seed=24)


# ---------------------------------------------------------------------------
# pair construction


def test_alignment_rotates_to_pose_heading():
    state = walker(heading=0.0, speed=1.0)  # faces east
    north = straight_trajectory(n=6, speed=1.0, heading=math.pi / 2, start=(3.0, 3.0))
    aligned = align_trajectory_to_pose(north, state)
    assert initial_heading(aligned) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(aligned.points[0], state.root_position)


def test_alignment_scales_to_pose_speed():
    state = walker(speed=1.5)
    slow = straight_trajectory(n=6, speed=0.75)
    aligned = align_trajectory_to_pose(slow, state)
    np.testing.assert_allclose(
        np.diff(aligned.points, axis=0), np.diff(slow.points, axis=0) * 2.0, atol=1e-12
    )


def test_alignment_improves_reward_on_average(pose_bank, traj_bank):
    rng = np.random.default_rng(99)
    gains = []
    for _ in range(100):
        state = pose_bank[rng.integers(len(pose_bank))]
        traj = traj_bank[rng.integers(len(traj_bank))]
        aligned = align_trajectory_to_pose(traj, state)
        raw = translate_trajectory_to_root(traj, state)
        gains.append(rollout(aligned, state) - rollout(raw, state))
    assert np.mean(gains) > 0.0


def test_heading_flip_opposes_pose(pose_bank, traj_bank):
    rng = np.random.default_rng(5)
    traj, state = sample_implausible_pair(
        pose_bank, traj_bank, rng, perturbation="heading_flip"
    )
    assert abs(wrap_angle(initial_heading(traj) - state.heading)) == pytest.approx(
        math.pi, abs=1e-9
    )


def test_speed_scale_perturbation_lowers_reward(pose_bank):
    params = OracleParams()
    state = walker(speed=params.v_max)
    fast = straight_trajectory(n=10, speed=params.v_max)
    rng = np.random.default_rng(6)
    perturbed, _ = sample_implausible_pair(
        [state], [fast], rng, params, perturbation="speed_scale"
    )
    assert rollout(perturbed, state, params) < rollout(fast, state, params)


def test_reward_gap_between_labels(plausibility_dataset):
    plaus = [s.reward for s in plausibility_dataset if s.label == "plausible_pair"]
    implaus = [s.reward for s in plausibility_dataset if s.label == "implausible_pair"]
    assert np.mean(plaus) - np.mean(implaus) >= 0.2


def test_label_reward_point_biserial(plausibility_dataset):
    labels = np.array(
        [1.0 if s.label == "plausible_pair" else 0.0 for s in plausibility_dataset]
    )
    rewards = np.array([s.reward for s in plausibility_dataset])
    r = np.corrcoef(labels, rewards)[0, 1]
    assert r > 0.4


def test_dataset_deterministic(pose_bank, traj_bank):
    a = build_plausibility_dataset(pose_bank, traj_bank, 10, 10, seed=77)
    b = build_plausibility_dataset(pose_bank, traj_bank, 10, 10, seed=77)
    for sa, sb in zip(a, b):
        assert sa.reward == sb.reward
        assert np.array_equal(sa.trajectory.points, sb.trajectory.points)


def test_dataset_empty_counts():
    assert build_plausibility_dataset([], [], 0, 0) == []


def test_dataset_empty_banks_error():
    with pytest.raises(DataError):
        build_plausibility_dataset([], [], 5, 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_dataset_rejects_non_finite_pairs(traj_bank):
    # the pose speed overflows, so every aligned pair is scaled to infinity
    with pytest.raises(InputShapeError, match="non-finite"):
        build_plausibility_dataset([walker(speed=1e300)], traj_bank, 5, 0, seed=0)


def test_dataset_rows_are_checked_trajectories(pose_bank, traj_bank):
    for s in build_plausibility_dataset(pose_bank, traj_bank, 20, 20, seed=3):
        t = s.trajectory
        assert t.points.dtype == np.float64 and t.points.shape == (len(t), 2)
        assert isinstance(t.dt, float) and t.dt > 0
        assert np.isfinite(t.points).all()


def test_zero_speed_pose_resampling(traj_bank):
    stats = {}
    still = make_walking_pose(0.0, 0.0)
    moving = walker(speed=1.0)
    want = _reference_dataset([still, moving], traj_bank, 20, 0, OracleParams(), 8, stats)
    assert stats.get("zero_speed_resamples", 0) > 0
    got = build_plausibility_dataset([still, moving], traj_bank, 20, 0, seed=8)
    _assert_equals_reference(got, want)
    assert all(np.array_equal(s.observable.root_velocity, moving.root_velocity) for s in got)


# ---------------------------------------------------------------------------
# CSV round-trip


def test_plausibility_csv_roundtrip(tmp_path, plausibility_dataset):
    path = tmp_path / "pairs.csv"
    subset = plausibility_dataset[:15]
    save_plausibility_csv(subset, path)
    loaded = load_plausibility_csv(path)
    assert len(loaded) == 15
    for a, b in zip(subset, loaded):
        assert a.label == b.label
        assert a.reward == b.reward
        assert np.array_equal(a.trajectory.points, b.trajectory.points)
        for name in a.observable.joints:
            assert np.array_equal(a.observable.joints[name], b.observable.joints[name])


def test_plausibility_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,omega,dt,T_f,x0,y0\nplausible_pair,0.5,0.4,oops,1,2\n")
    with pytest.raises(DataError):
        load_plausibility_csv(path)


# The writer and reader share one ObservableState between the samples of a
# bank state. These references format and parse every row on its own.


def _reference_save(samples, path):
    """csv.writer over the repr of every value, one row per sample."""
    horizon = len(samples[0].trajectory)
    names = samples[0].observable.joint_order()
    header = ["label", "omega", "dt", "T_f"]
    header += [f"{ax}{t}" for t in range(horizon) for ax in ("x", "y")]
    header += ["heading", "root_vx", "root_vy"]
    header += [f"{n}_{ax}" for n in names for ax in ("x", "y", "z")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            row = [s.label, repr(float(s.reward)), repr(float(s.trajectory.dt)), len(s.trajectory)]
            row += [repr(float(v)) for v in s.trajectory.points.reshape(-1)]
            row += [repr(float(s.observable.heading()))]
            row += [repr(float(v)) for v in s.observable.root_velocity]
            for n in names:
                row += [repr(float(v)) for v in s.observable.joints[n]]
            writer.writerow(row)


def _reference_load(path):
    """(label, reward, dt, points, root velocity, joints) of every row, each
    row parsed on its own."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = [c[:-2] for c in header if c.endswith("_x") and c[:-2] != "root_v"]
        rows = []
        for row in reader:
            horizon = int(row[3])
            off = 4 + 2 * horizon
            pts = np.array([float(v) for v in row[4:off]]).reshape(horizon, 2)
            vel = np.array([float(row[off + 1]), float(row[off + 2])])
            off += 3
            joints = {}
            for n in names:
                joints[n] = np.array([float(v) for v in row[off : off + 3]])
                off += 3
            rows.append((row[0], float(row[1]), float(row[2]), pts, vel, joints))
    return rows


def _mixed_dataset(pose_bank, traj_bank):
    bank = (
        traj_bank[:20]
        + [Trajectory(t.points[:7], t.dt) for t in traj_bank[20:40]]
        + [Trajectory(t.points, 0.2) for t in traj_bank[40:60]]
    )
    return build_plausibility_dataset(pose_bank, bank, 40, 40, seed=21)


def _extra_joint_dataset(pose_bank, traj_bank):
    samples = build_plausibility_dataset(pose_bank[:5], traj_bank, 10, 10, seed=22)
    extended = {}
    for s in samples:
        if id(s.observable) not in extended:
            joints = dict(s.observable.joints)
            joints["neck"] = (joints["head"] + joints["pelvis"]) / 2
            joints["left_wrist"] = joints["left_shoulder"] - [0.0, 0.1, 0.5]
            extended[id(s.observable)] = oracle.ObservableState(joints, s.observable.root_velocity)
    return [oracle.PlausibilitySample(s.trajectory, extended[id(s.observable)], s.reward, s.label)
            for s in samples]


def _edge_value_dataset(pose_bank, traj_bank):
    edges = [-0.0, 5e-324, 1e22, 0.1 + 0.2]
    obs = pose_bank[0].observable()
    joints = dict(obs.joints)
    joints["head"] = np.array(edges[:3])
    joints["left_knee"] = np.array(edges[1:])
    edge_obs = oracle.ObservableState(joints, np.array(edges[2:]))
    pts = np.array(edges * 3).reshape(6, 2)
    return [
        oracle.PlausibilitySample(Trajectory(pts, 0.1 + 0.2), edge_obs, 0.1 + 0.2,
                                  "plausible_pair"),
        oracle.PlausibilitySample(Trajectory(-pts, 0.4), obs, 5e-324, "implausible_pair"),
        oracle.PlausibilitySample(Trajectory(pts[::-1], 0.4), edge_obs, -0.0,
                                  "implausible_pair"),
    ]


DATASETS = {"mixed-horizon": _mixed_dataset, "extra-joints": _extra_joint_dataset,
            "edge-values": _edge_value_dataset}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_save_plausibility_csv_bytes_equal_reference(tmp_path, pose_bank, traj_bank, name):
    samples = DATASETS[name](pose_bank, traj_bank)
    save_plausibility_csv(samples, tmp_path / "got.csv")
    _reference_save(samples, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_load_plausibility_csv_equals_per_row_reference(tmp_path, pose_bank, traj_bank, name):
    path = tmp_path / "pairs.csv"
    save_plausibility_csv(DATASETS[name](pose_bank, traj_bank), path)
    got = load_plausibility_csv(path)
    want = _reference_load(path)
    assert len(got) == len(want)
    for s, (label, reward, dt, pts, vel, joints) in zip(got, want):
        assert s.label == label
        _assert_bits_equal(s.reward, reward)
        _assert_bits_equal(s.trajectory.dt, dt)
        _assert_bits_equal(s.trajectory.points, pts)
        _assert_bits_equal(s.observable.root_velocity, vel)
        assert list(s.observable.joints) == list(joints)
        for n, pos in joints.items():
            _assert_bits_equal(s.observable.joints[n], pos)


def _state_key(obs):
    return (obs.root_velocity.tobytes(),
            tuple((n, p.tobytes()) for n, p in sorted(obs.joints.items())))


def test_one_observable_per_bank_state(tmp_path, pose_bank, traj_bank):
    built = build_plausibility_dataset(pose_bank, traj_bank, 150, 150, seed=21)
    drawn = _reference_dataset(pose_bank, traj_bank, 150, 150, OracleParams(), seed=21)
    n_states = len({id(state) for _, state, _, _ in drawn})
    assert len({_state_key(s.observable()) for s in pose_bank}) == len(pose_bank)
    path = tmp_path / "pairs.csv"
    save_plausibility_csv(built, path)
    for samples in (built, load_plausibility_csv(path)):
        by_state = {}
        for s in samples:
            by_state.setdefault(_state_key(s.observable), set()).add(id(s.observable))
        assert len(by_state) == n_states
        assert all(len(ids) == 1 for ids in by_state.values())

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (make_observable, observable_of, pair_set, state_of, straight_trajectory,
                      transformed_state, transformed_trajectory)
from plaustraj import oracle
from plaustraj.errors import ConfigError, DataError, InputShapeError
from plaustraj.oracle import (
    PERTURBATIONS,
    HumanoidState,
    OracleParams,
    Trajectory,
    TrajectorySet,
    build_plausibility_dataset,
    candidate_arrays,
    load_plausibility_csv,
    rollout,
    rollout_batch,
    rotation_matrix,
    save_plausibility_csv,
    wrap_angle,
    wrap_angles,
)
from plaustraj.datakit import make_walking_pose


def walker(heading=0.0, speed=1.2, root=(0.0, 0.0)):
    state = make_walking_pose(heading, speed)
    return transformed_state(state, translation=np.asarray(root, dtype=float)
                             - state.root_position)


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
        out.append((traj, state, reference_rollout(traj, state, params), "plausible_pair"))
    for _ in range(n_implausible):
        traj, state = sample_implausible_pair(pose_bank, traj_bank, rng, params, stats=stats)
        out.append((traj, state, reference_rollout(traj, state, params), "implausible_pair"))
    return out


# ---------------------------------------------------------------------------
# The walker on numpy 2-vectors: the reference that rollout (on Python
# floats) and rollout_batch (on (N, 2) arrays) match bit for bit; it also
# returns the per-step rewards, positions and velocities


def _reference_norm(v):
    return math.sqrt(v.dot(v))


def _reference_rollout_detailed(traj, state, params):
    dt = traj.dt
    pos = state.root_position.copy()
    vel = state.root_velocity.copy()
    speed = _reference_norm(vel)
    if speed > params.v_max:
        vel = vel * (params.v_max / speed)
    heading = state.heading

    positions = [pos.copy()]
    velocities = [vel.copy()]
    rewards = []
    for target in traj.points:
        to_target = target - pos
        dist = _reference_norm(to_target)
        if dist > 1e-12:
            desired_heading = math.atan2(to_target[1], to_target[0])
            turn = wrap_angle(desired_heading - heading)
            max_turn = params.turn_rate_max * dt
            turn = max(-max_turn, min(max_turn, turn))
            new_heading = wrap_angle(heading + turn)
            target_speed = min(dist / dt, params.v_max)
        else:
            new_heading = heading
            target_speed = 0.0
        target_vel = target_speed * np.array([math.cos(new_heading), math.sin(new_heading)])
        dv = target_vel - vel
        dv_norm = _reference_norm(dv)
        accel_cap = params.a_max * dt
        if dv_norm > accel_cap:
            dv = dv * (accel_cap / dv_norm)
        new_vel = vel + dv
        accel = _reference_norm(dv) / dt
        pos = pos + new_vel * dt
        new_speed = _reference_norm(new_vel)
        if new_speed > 1e-9:
            heading = math.atan2(new_vel[1], new_vel[0])
        vel = new_vel

        err = _reference_norm(pos - target)
        r = params.w_follow * math.exp(-(err / params.follow_scale) ** 2)
        r -= params.w_energy * (accel / params.a_max) ** 2
        rewards.append(min(1.0, max(0.0, r)))
        positions.append(pos.copy())
        velocities.append(vel.copy())

    T = len(rewards)
    discounts = params.gamma ** np.arange(T)
    omega = float(np.dot(discounts, rewards) / discounts.sum())
    return {
        "reward": omega,
        "step_rewards": np.array(rewards),
        "positions": np.array(positions),
        "velocities": np.array(velocities),
    }


def reference_rollout(traj, state, params=OracleParams()):
    return _reference_rollout_detailed(traj, state, params)["reward"]


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


def test_trajectory_set_is_a_sequence_over_one_array():
    points = np.arange(4 * 5 * 2, dtype=float).reshape(4, 5, 2)
    heads = TrajectorySet(points, 0.25)
    assert len(heads) == 4 and heads.points is not None
    for k, t in enumerate(heads):
        assert isinstance(t, Trajectory) and t.dt == 0.25
        assert t.points.tobytes() == points[k].tobytes()
        assert np.shares_memory(t.points, heads.points)
    assert heads[-1].points.tobytes() == points[3].tobytes()
    with pytest.raises(IndexError):
        heads[4]
    part = heads[1:3]
    assert isinstance(part, TrajectorySet) and part.dt == 0.25
    assert part.points.tobytes() == points[1:3].tobytes()
    got, dts = candidate_arrays(heads)
    assert got is heads.points and dts.tolist() == [0.25] * 4
    got, dts = candidate_arrays(list(heads))
    assert got.tobytes() == points.tobytes() and dts.tolist() == [0.25] * 4


def test_trajectory_set_checks_the_set_once_by_the_trajectory_rules():
    bad = np.zeros((3, 4, 2))
    bad[2, 1, 0] = np.inf
    with pytest.raises(InputShapeError, match="^trajectory contains non-finite coordinates$"):
        TrajectorySet(bad)
    with pytest.raises(InputShapeError, match="at least 2 points"):
        TrajectorySet(np.zeros((3, 1, 2)))
    with pytest.raises(InputShapeError, match=r"must be \(K, T, 2\)"):
        TrajectorySet(np.zeros((4, 2)))
    for dt in (0.0, -0.4, float("nan")):
        with pytest.raises(ConfigError, match="dt must be positive"):
            TrajectorySet(np.zeros((2, 3, 2)), dt)
    with pytest.raises(InputShapeError, match="differ in length"):
        candidate_arrays([Trajectory(np.zeros((3, 2))), Trajectory(np.zeros((4, 2)))])


@pytest.mark.parametrize("where", [0, 5, 59])
def test_trajectory_bank_of_two_horizons_is_refused_by_its_type(traj_bank, where):
    rows = list(traj_bank.points)
    rows[where] = rows[where][:7]
    message = "trajectory set points must be (K, T, 2), got rows of unequal length or non-numbers"
    with pytest.raises(InputShapeError, match=f"^{re.escape(message)}$"):
        TrajectorySet(rows, traj_bank.dt)


@pytest.mark.parametrize("index", [np.array([0, 2]), np.array([True, False, True, False]),
                                   [3, 0], np.int64(2)], ids=["indices", "mask", "list", "int64"])
def test_trajectory_set_index_arrays_give_sets(index):
    points = np.arange(4 * 5 * 2, dtype=float).reshape(4, 5, 2)
    got = TrajectorySet(points, 0.25)[index]
    if isinstance(index, np.integer):
        assert isinstance(got, Trajectory) and got.points.tobytes() == points[2].tobytes()
    else:
        assert isinstance(got, TrajectorySet) and got.dt == 0.25
        assert got.points.tobytes() == points[index].tobytes()


def _observable(joints, velocity):
    return oracle.ObservableState(joints=joints, root_velocity=velocity)


def _humanoid(joints, velocity):
    return HumanoidState(joints=joints, heading=0.3, root_velocity=velocity)


def _without_knee(joints):
    return {k: v for k, v in joints.items() if k != "left_knee"}


@pytest.mark.parametrize("make", [_observable, _humanoid], ids=["observable", "humanoid"])
@pytest.mark.parametrize("joints, velocity, message", [
    (_without_knee, None, "missing required joints: ['left_knee']"),
    (lambda j: {**j, "head": [0.0, np.nan, 1.7]}, None, "joint 'head' must be a finite 3-vector"),
    (lambda j: {**j, "pelvis": [0.0, 0.0]}, None, "joint 'pelvis' must be a finite 3-vector"),
    (lambda j: {**j, "right_ankle": "up"}, None, "joint 'right_ankle' must be a finite 3-vector"),
    (lambda j: {**j, "right_ankle": [np.inf] * 3, "head": [0.0]}, None,
     "joint 'head' must be a finite 3-vector"),
    (lambda j: {**j, "neck": [0.0, 0.0, 1.5]}, None, "unknown joints: ['neck']"),
    (None, [1.0, 0.0, 0.0], "root_velocity must be a finite 2-vector"),
    (None, [np.nan, 0.0], "root_velocity must be a finite 2-vector"),
], ids=["missing-joint", "nan-joint", "two-element-joint", "string-joint", "first-bad-joint",
        "unknown-joint", "three-element-velocity", "nan-velocity"])
def test_pose_checks_every_rule(make, joints, velocity, message):
    state = walker()
    joints = (joints or dict)(state.joints)
    velocity = state.root_velocity if velocity is None else np.array(velocity)
    with pytest.raises(InputShapeError, match=f"^{re.escape(message)}$"):
        make(joints, velocity)


@pytest.mark.parametrize("make", [_observable, _humanoid], ids=["observable", "humanoid"])
def test_pose_keeps_the_joints_bits_in_their_order(make):
    joints = {**walker(heading=0.4).joints, "head": [-0.0, 5e-324, 1.5]}
    got = make(joints, np.array([-0.0, 1.0]))
    assert list(got.joints) == list(joints)
    for name, pos in joints.items():
        assert got.joints[name].tobytes() == np.asarray(pos, dtype=float).tobytes()
    assert got.root_position.tobytes() == np.asarray(joints["pelvis"])[:2].tobytes()


def test_humanoid_heading_must_be_finite():
    state = walker()
    for heading in (np.nan, np.inf):
        with pytest.raises(InputShapeError, match="^heading must be finite$"):
            HumanoidState(joints=state.joints, heading=heading, root_velocity=np.zeros(2))


def test_observable_requires_all_joints():
    state = walker()
    joints = dict(state.joints)
    del joints["pelvis"]
    with pytest.raises(InputShapeError):
        oracle.ObservableState(joints=joints, root_velocity=np.zeros(2))


def test_heading_from_shoulder_line():
    for h in (0.0, 1.1, -2.4, math.pi / 2):
        obs = observable_of(walker(heading=h))
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
        transformed_trajectory(traj, angle=angle, translation=(dx, dy)),
        transformed_state(state, angle=angle, translation=(dx, dy)),
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
    detail = _reference_rollout_detailed(traj, state, params)
    _assert_bits_equal(rollout(traj, state, params), detail["reward"])
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
# the walker on Python floats and the batched walker: the numpy walker is the
# reference of both, bit for bit


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
    want = [reference_rollout(t, s, params) for t, s in pairs]
    _assert_bits_equal(_batch_rewards(pairs, params), want)
    _assert_bits_equal([rollout(t, s, params) for t, s in pairs], want)


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
    want = [reference_rollout(t, s, params) for t, s in pairs]
    _assert_bits_equal(_batch_rewards(pairs, params), want)
    _assert_bits_equal([rollout(t, s, params) for t, s in pairs], want)


def _norm_probes():
    """Vectors whose norm _norm must round as np.linalg.norm does: 100,000
    of random sign with log-uniform coordinates from 1e-9 to 1e3; every pair
    of halves from -4 to 4 (exact squares and sums); signed zeros; and
    coordinates whose squares underflow or overflow."""
    rng = np.random.default_rng(7)
    magnitudes = np.exp(rng.uniform(math.log(1e-9), math.log(1e3), size=(100_000, 2)))
    vectors = (magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.shape)).tolist()
    halves = [i / 2 for i in range(-8, 9)]
    vectors += [[x, y] for x in halves for y in halves]
    zeros = [0.0, -0.0]
    vectors += [[x, y] for x in zeros for y in zeros]
    extremes = [1e-300, -1e-160, 5e-324, 2.0 ** -485, 2.0 ** 510, 1.3e154, 1e150, -1e200, 1e300]
    vectors += [[x, y] for x in [*extremes, 0.0, 1.0] for y in extremes]
    return vectors


def test_norm_rounds_as_np_linalg_norm():
    """_norm reuses one work array for the BLAS dot that np.linalg.norm
    takes of a fresh 2-vector; the bits must not depend on which."""
    vectors = _norm_probes()
    buf = np.empty(2)
    with np.errstate(over="ignore"):  # the squares of 1e200 and 1e300
        _assert_bits_equal([oracle._norm(x, y, buf) for x, y in vectors],
                           [np.linalg.norm(v) for v in np.array(vectors)])


def _walker_probes(n, params, seed):
    """n probes of the walker, cycling through its branches: a random walk
    from the root, a walk with zero-distance targets, a heading flip (its
    targets behind the walker, on the +-pi turn tie), a standing start, a
    start above v_max, and a reversed and a rotated walk."""
    rng = np.random.default_rng(seed)
    kinds = ("walk", "still", "flip", "standing", "fast", "reversed", "rotated")
    probes = []
    for i in range(n):
        kind = kinds[i % len(kinds)]
        speed = {"standing": 0.0, "fast": rng.uniform(params.v_max, 4.0 * params.v_max)}.get(
            kind, rng.uniform(0.0, params.v_max))
        traj, state = _probe_pair(rng.uniform(-math.pi, math.pi), speed,
                                  kind if kind in ("still", "flip") else "walk",
                                  int(rng.integers(2, 21)), (0.1, 0.4, 0.5)[i % 3],
                                  int(rng.integers(2**32)), params)
        if kind == "reversed":
            traj = Trajectory(traj.points[::-1], traj.dt)
        elif kind == "rotated":
            angle, root = rng.uniform(-math.pi, math.pi), state.root_position
            traj = transformed_trajectory(traj, angle, pivot=root)
            state = transformed_state(state, angle, pivot=root)
        probes.append((traj, state))
    return probes


def _tie_probes():
    """Walkers at the origin facing along an axis, with targets exactly
    behind them, so that the first turn is +-pi before the wrap, some with a
    -0.0 coordinate."""
    probes = []
    for heading, behind in ((0.0, [[-1.0, 0.0], [-2.0, -0.0]]),
                            (0.0, [[-1.0, -0.0], [-1.5, 0.0], [-1.5, 0.0]]),
                            (math.pi, [[1.0, 0.0], [2.0, 0.0]]),
                            (math.pi, [[0.5, -0.0], [0.0, 0.0]]),
                            (-math.pi, [[1.0, -0.0], [3.0, 0.0]])):
        for speed in (0.0, 1.0, 3.0):
            for dt in (0.1, 0.4):
                probes.append((Trajectory(np.array(behind), dt), walker(heading, speed)))
    return probes


@pytest.mark.parametrize("params", [
    OracleParams(),
    OracleParams(v_max=1.0, a_max=0.5, turn_rate_max=0.5, gamma=0.5, w_energy=1.0),
], ids=["default", "tight"])
def test_rollout_equals_numpy_reference(params):
    probes = _walker_probes(3000, params, seed=5) + _tie_probes()
    _assert_bits_equal([rollout(traj, state, params) for traj, state in probes],
                       [reference_rollout(traj, state, params) for traj, state in probes])


def _assert_equals_reference(got, want):
    assert len(got) == len(want)
    assert got.points.shape == (len(want), got.horizon, 2)
    for i, (traj, state, reward, label) in enumerate(want):
        assert oracle.LABELS[int(got.plausible[i])] == label
        _assert_bits_equal(got.rewards[i], reward)
        assert got.dt == traj.dt
        _assert_bits_equal(got.points[i], traj.points)
        obs = state_of(got, got.state[i])
        _assert_bits_equal(obs.root_velocity, state.root_velocity)
        for name, pos in state.joints.items():
            _assert_bits_equal(obs.joints[name], pos)


def _short_bank(traj_bank):
    """The bank cut to its first 7 points, at dt 0.2."""
    return TrajectorySet(traj_bank.points[:, :7], 0.2)


@pytest.mark.parametrize("short", [False, True])
def test_dataset_equals_per_pair_reference(pose_bank, traj_bank, short):
    params = OracleParams()
    bank = _short_bank(traj_bank) if short else traj_bank
    got = build_plausibility_dataset(pose_bank, bank, 150, 150, params, seed=21)
    want = _reference_dataset(pose_bank, bank, 150, 150, params, seed=21)
    _assert_equals_reference(got, want)


def _degenerate_banks(pose_bank, traj_bank, horizon=12, dt=None):
    """Banks of one horizon and dt, with a still pose and tracks 10-14 whose
    first step (or every step) has length zero."""
    poses = pose_bank[:6] + [walker(heading=0.7, speed=0.0, root=(1.0, -2.0))]
    tracks = [t.points for t in traj_bank[:10]]
    for t in traj_bank[10:14]:
        tracks.append(np.vstack([t.points[:1], t.points[:1], t.points[2:]]))
    tracks.append(np.tile(traj_bank[14].points[:1], (12, 1)))
    tracks += [t.points for t in traj_bank[15:19]]
    return poses, TrajectorySet([pts[:horizon] for pts in tracks], dt or traj_bank.dt)


@pytest.mark.parametrize(
    "n_plausible, n_implausible, horizon, dt",
    [(60, 300, 12, None), (0, 60, 12, None), (60, 0, 12, None), (60, 300, 3, 0.25),
     (60, 300, 2, None)],
    ids=["60-300", "0-60", "60-0", "60-300-3-points", "60-300-2-points"],
)
def test_dataset_equals_reference_on_degenerate_banks(pose_bank, traj_bank, n_plausible,
                                                      n_implausible, horizon, dt):
    params = OracleParams()
    poses, tracks = _degenerate_banks(pose_bank, traj_bank, horizon, dt)
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
    poses, tracks = poses[:1], tracks[[0, *range(10, 14), *range(10, 14), 14]]
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
    rewards, plausible = plausibility_dataset.rewards, plausibility_dataset.plausible
    assert np.mean(rewards[plausible]) - np.mean(rewards[~plausible]) >= 0.2


def test_label_reward_point_biserial(plausibility_dataset):
    labels = plausibility_dataset.plausible.astype(float)
    r = np.corrcoef(labels, plausibility_dataset.rewards)[0, 1]
    assert r > 0.4


def test_dataset_deterministic(pose_bank, traj_bank):
    a = build_plausibility_dataset(pose_bank, traj_bank, 10, 10, seed=77)
    b = build_plausibility_dataset(pose_bank, traj_bank, 10, 10, seed=77)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.points, b.points)


def test_dataset_empty_counts():
    assert len(build_plausibility_dataset([], [], 0, 0)) == 0


def test_dataset_empty_banks_error():
    with pytest.raises(DataError):
        build_plausibility_dataset([], [], 5, 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_dataset_rejects_non_finite_pairs(traj_bank):
    # the pose speed overflows, so every aligned pair is scaled to infinity
    with pytest.raises(InputShapeError, match="non-finite"):
        build_plausibility_dataset([walker(speed=1e300)], traj_bank, 5, 0, seed=0)


def test_dataset_rows_are_checked_trajectories(pose_bank, traj_bank):
    pairs = build_plausibility_dataset(pose_bank, traj_bank, 20, 20, seed=3)
    assert pairs.points.dtype == np.float64 and pairs.points.shape == (40, 12, 2)
    assert np.isfinite(pairs.points).all()
    assert isinstance(pairs.dt, float) and pairs.dt > 0
    assert pairs.plausible.tolist() == [True] * 20 + [False] * 20
    assert pairs.rewards.shape == (40,) and pairs.state.dtype == np.intp


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("points", lambda p: p[:, :1], InputShapeError, "trajectory needs at least 2 points"),
        ("points", lambda p: p[..., :1], InputShapeError, "pair arrays must be points (N, T, 2)"),
        ("points", lambda p: np.where(np.arange(4)[:, None, None] == 2, np.nan, p),
         oracle.PairError, "pair 2: trajectory contains non-finite coordinates"),
        ("rewards", lambda r: np.where(np.arange(4) == 1, 1.5, r), oracle.PairError,
         "pair 1: reward must be in [0, 1], got 1.5"),
        ("rewards", lambda r: np.where(np.arange(4) == 3, np.nan, r), oracle.PairError,
         "pair 3: reward must be in [0, 1], got nan"),
        ("plausible", lambda b: b[:3], InputShapeError, "pair arrays must be points (N, T, 2)"),
        ("state", lambda k: k + 100, InputShapeError, "state indices must lie in"),
        ("dt", lambda dt: 0.0, ConfigError, "dt must be positive"),
        ("dt", lambda dt: float("nan"), ConfigError, "dt must be positive"),
        ("joints", lambda j: j[:, :7], InputShapeError,
         "state arrays must be joints (S, 8, 3) and velocity (S, 2), got"),
        ("velocity", lambda v: v[:, :1], InputShapeError,
         "state arrays must be joints (S, 8, 3) and velocity (S, 2), got"),
    ],
    ids=["one-point", "one-column", "nan-point", "reward-above-one", "reward-nan",
         "short-labels", "state-out-of-range", "dt-zero", "dt-nan", "seven-joints",
         "one-velocity-column"],
)
def test_pair_set_checks_every_rule(pose_bank, traj_bank, field, value, error, message):
    pairs = build_plausibility_dataset(pose_bank, traj_bank, 2, 2, seed=3)
    fields = dict(points=pairs.points, rewards=pairs.rewards, plausible=pairs.plausible,
                  state=pairs.state, joints=pairs.joints, velocity=pairs.velocity, dt=pairs.dt)
    fields[field] = value(fields[field])
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        oracle.PairSet(**fields)


@pytest.mark.parametrize(
    "array, joint, message",
    [("joints", 4, "joint 'left_knee' must be a finite 3-vector"),
     ("joints", 7, "joint 'right_ankle' must be a finite 3-vector"),
     ("velocity", 0, "root_velocity must be a finite 2-vector")],
    ids=["left-knee", "right-ankle", "root-velocity"],
)
def test_pair_set_bad_state_is_located_at_its_first_pair(plausibility_dataset, array, joint,
                                                         message):
    """A non-finite state is reported at the first pair that uses it, ahead
    of that pair's bad points; a non-finite state no pair uses is refused too."""
    pairs = plausibility_dataset
    k = pairs.state[100]
    first = int(np.argmax(pairs.state == k))
    fields = dict(points=pairs.points.copy(), rewards=pairs.rewards, plausible=pairs.plausible,
                  state=pairs.state, joints=pairs.joints.copy(), velocity=pairs.velocity.copy(),
                  dt=pairs.dt)
    fields[array][k, joint] = np.inf
    fields["points"][first, 3] = np.nan
    with pytest.raises(oracle.PairError, match=f"^pair {first}: {re.escape(message)}$"):
        oracle.PairSet(**fields)
    fields["state"] = np.where(pairs.state == k, (k + 1) % len(pairs.joints), pairs.state)
    fields["points"] = pairs.points
    with pytest.raises(InputShapeError, match="^state arrays must be finite$"):
        oracle.PairSet(**fields)


def test_pair_set_subset_shares_the_state_arrays(plausibility_dataset):
    index = np.array([5, 0, 200])
    sub = plausibility_dataset.subset(index)
    assert len(sub) == 3
    assert sub.joints is plausibility_dataset.joints
    assert sub.velocity is plausibility_dataset.velocity
    for field in ("points", "rewards", "plausible", "state"):
        assert np.array_equal(getattr(sub, field), getattr(plausibility_dataset, field)[index])


def test_zero_speed_pose_resampling(traj_bank):
    stats = {}
    still = make_walking_pose(0.0, 0.0)
    moving = walker(speed=1.0)
    want = _reference_dataset([still, moving], traj_bank, 20, 0, OracleParams(), 8, stats)
    assert stats.get("zero_speed_resamples", 0) > 0
    got = build_plausibility_dataset([still, moving], traj_bank, 20, 0, seed=8)
    _assert_equals_reference(got, want)
    assert len(got.joints) == len(got.velocity) == 1
    assert np.array_equal(got.velocity[0], moving.root_velocity)


# ---------------------------------------------------------------------------
# CSV round-trip


def test_plausibility_csv_roundtrip(tmp_path, plausibility_dataset):
    path = tmp_path / "pairs.csv"
    subset = plausibility_dataset.subset(np.arange(110, 125))
    save_plausibility_csv(subset, path)
    loaded = load_plausibility_csv(path)
    assert len(loaded) == 15 and loaded.dt == subset.dt
    assert np.array_equal(loaded.plausible, subset.plausible)
    assert np.array_equal(loaded.rewards, subset.rewards)
    assert np.array_equal(loaded.points, subset.points)
    for i in range(15):
        a, b = subset.state[i], loaded.state[i]
        assert np.array_equal(subset.joints[a], loaded.joints[b])
        assert np.array_equal(subset.velocity[a], loaded.velocity[b])


def test_plausibility_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,omega,dt,T_f,x0,y0\nplausible_pair,0.5,0.4,oops,1,2\n")
    with pytest.raises(DataError):
        load_plausibility_csv(path)


# The writer formats each state once and the reader parses each state
# once. These references format and parse every row on its own.


def _reference_save(pairs, path):
    """csv.writer over the repr of every value, one row per pair."""
    names = oracle.REQUIRED_JOINTS
    header = ["label", "omega", "dt", "T_f"]
    header += [f"{ax}{t}" for t in range(pairs.horizon) for ax in ("x", "y")]
    header += ["heading", "root_vx", "root_vy"]
    header += [f"{n}_{ax}" for n in names for ax in ("x", "y", "z")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(pairs)):
            obs = state_of(pairs, pairs.state[i])
            label = "plausible_pair" if pairs.plausible[i] else "implausible_pair"
            row = [label, repr(float(pairs.rewards[i])), repr(float(pairs.dt)), pairs.horizon]
            row += [repr(float(v)) for v in pairs.points[i].reshape(-1)]
            row += [repr(float(obs.heading()))]
            row += [repr(float(v)) for v in obs.root_velocity]
            for n in names:
                row += [repr(float(v)) for v in obs.joints[n]]
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


def _short_horizon_dataset(pose_bank, traj_bank):
    return build_plausibility_dataset(pose_bank, _short_bank(traj_bank), 40, 40, seed=21)


def _edge_value_dataset(pose_bank, traj_bank):
    edges = [-0.0, 5e-324, 1e22, 0.1 + 0.2]
    obs = observable_of(pose_bank[0])
    joints = dict(obs.joints)
    joints["head"] = np.array(edges[:3])
    joints["left_knee"] = np.array(edges[1:])
    edge_obs = oracle.ObservableState(joints, np.array(edges[2:]))
    pts = np.array(edges * 3).reshape(6, 2)
    return pair_set(np.stack([pts, -pts, pts[::-1]]), [0.1 + 0.2, 5e-324, -0.0],
                    [True, False, False], [1, 0, 1], [obs, edge_obs], 0.1 + 0.2)


DATASETS = {"short-horizon": _short_horizon_dataset, "edge-values": _edge_value_dataset}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_save_plausibility_csv_bytes_equal_reference(tmp_path, pose_bank, traj_bank, name):
    pairs = DATASETS[name](pose_bank, traj_bank)
    save_plausibility_csv(pairs, tmp_path / "got.csv")
    _reference_save(pairs, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_load_plausibility_csv_equals_per_row_reference(tmp_path, pose_bank, traj_bank, name):
    path, saved = tmp_path / "pairs.csv", tmp_path / "saved.csv"
    save_plausibility_csv(DATASETS[name](pose_bank, traj_bank), saved)
    path.write_bytes(saved.read_bytes())
    got = load_plausibility_csv(path)
    want = _reference_load(path)
    assert len(got) == len(want)
    for i, (label, reward, dt, pts, vel, joints) in enumerate(want):
        assert oracle.LABELS[int(got.plausible[i])] == label
        _assert_bits_equal(got.rewards[i], reward)
        _assert_bits_equal(got.dt, dt)
        _assert_bits_equal(got.points[i], pts)
        obs = state_of(got, got.state[i])
        _assert_bits_equal(obs.root_velocity, vel)
        assert list(joints) == list(oracle.REQUIRED_JOINTS)
        for n, pos in joints.items():
            _assert_bits_equal(obs.joints[n], pos)
    # saving what was loaded writes the saved file again
    save_plausibility_csv(got, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == saved.read_bytes()


def _state_key(obs):
    return (obs.root_velocity.tobytes(),
            tuple((n, p.tobytes()) for n, p in sorted(obs.joints.items())))


def test_one_observable_per_bank_state(tmp_path, pose_bank, traj_bank):
    built = build_plausibility_dataset(pose_bank, traj_bank, 150, 150, seed=21)
    drawn = _reference_dataset(pose_bank, traj_bank, 150, 150, OracleParams(), seed=21)
    n_states = len({id(state) for _, state, _, _ in drawn})
    assert len({_state_key(observable_of(s)) for s in pose_bank}) == len(pose_bank)
    path = tmp_path / "pairs.csv"
    save_plausibility_csv(built, path)
    for pairs in (built, load_plausibility_csv(path)):
        keys = [_state_key(state_of(pairs, k)) for k in range(len(pairs.joints))]
        assert len(set(keys)) == len(keys) == n_states
        assert sorted(set(pairs.state.tolist())) == list(range(n_states))


@pytest.mark.parametrize("column, value", [(3, "11"), (2, "0.2"), (2, "0.4000000000000001")],
                         ids=["horizon", "dt", "dt-one-ulp"])
def test_load_row_of_another_horizon_or_dt_is_located(tmp_path, plausibility_dataset, column,
                                                      value):
    path = tmp_path / "pairs.csv"
    save_plausibility_csv(plausibility_dataset.subset(np.arange(5)), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[4][column] = value
    if column == 3:  # a well-formed row of 11 points
        del rows[4][4:6]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    horizon, dt = ("11", "0.4") if column == 3 else ("12", value)
    message = (f"{path}:5: malformed row (T_f {horizon} at dt {dt} differs from the first row's "
               "T_f 12 at dt 0.4: a pair set has one horizon and one dt)")
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_plausibility_csv(path)


def _with_neck_columns(rows):
    """Each row with a neck joint's three columns after the required joints'."""
    return [[*rows[0], "neck_x", "neck_y", "neck_z"], *([*row, *row[-3:]] for row in rows[1:])]


def _reversed_joint_columns(rows):
    """Each row with its joint column triples in reverse order."""
    start = rows[0].index("root_vy") + 1
    triples = range(len(rows[0]) - 3, start - 3, -3)
    return [[*row[:start], *(v for j in triples for v in row[j : j + 3])] for row in rows]


def test_load_header_without_a_required_joint_is_located(tmp_path, plausibility_dataset):
    """A header must name the required joints' columns in their order: one
    renamed, one added or all reordered is a located data error."""
    path = tmp_path / "pairs.csv"
    save_plausibility_csv(plausibility_dataset.subset(np.arange(5)), path)
    with open(path, newline="") as fh:
        saved = list(csv.reader(fh))
    required = list(oracle.REQUIRED_JOINTS)
    for rows, reason in [
        ([[col.replace("pelvis_", "hips_") for col in saved[0]], *saved[1:]],
         "missing required joints: ['pelvis']"),
        (_with_neck_columns(saved),
         f"joint columns must be {required} in this order, got {[*required, 'neck']}"),
        (_reversed_joint_columns(saved),
         f"joint columns must be {required} in this order, got {required[::-1]}"),
    ]:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        message = f"{path}:2: malformed row ({reason})"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_plausibility_csv(path)

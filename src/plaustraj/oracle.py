"""Kinematic locomotion oracle.

A point-mass walker with speed, acceleration, and turn-rate caps greedily
tracks a candidate trajectory from an initial humanoid state. The discounted
cumulative tracking reward in [0, 1] is the plausibility label; misaligned
pose-trajectory pairs earn low reward because the walker cannot keep up.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import ConfigError, DataError, InputShapeError

REQUIRED_JOINTS = (
    "head",
    "left_shoulder",
    "right_shoulder",
    "pelvis",
    "left_knee",
    "right_knee",
    "left_ankle",
    "right_ankle",
)

DEFAULT_DT = 0.4  # seconds per frame, 2.5 fps


def wrap_angle(a: float) -> float:
    """Normalize into (-pi, pi]."""
    a = math.remainder(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass
class Trajectory:
    points: np.ndarray  # (T, 2) ground-plane positions in meters
    dt: float = DEFAULT_DT

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise InputShapeError(f"trajectory points must be (T, 2), got {self.points.shape}")
        if len(self.points) < 2:
            raise InputShapeError("trajectory needs at least 2 points")
        if not np.isfinite(self.points).all():
            raise InputShapeError("trajectory contains non-finite coordinates")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")

    @classmethod
    def _over(cls, points: np.ndarray, dt: float) -> "Trajectory":
        """A Trajectory around points already checked to be a finite float
        (T, 2) array with T >= 2, and a positive dt, without a copy."""
        traj = cls.__new__(cls)
        traj.points, traj.dt = points, dt
        return traj

    def __len__(self) -> int:
        return len(self.points)

    def transformed(self, angle: float = 0.0, translation=(0.0, 0.0),
                    pivot=(0.0, 0.0)) -> "Trajectory":
        """Rigid transform: rotate by angle about pivot, then translate."""
        rot = rotation_matrix(angle)
        pivot = np.asarray(pivot, dtype=float)
        pts = (self.points - pivot) @ rot.T + pivot + np.asarray(translation, dtype=float)
        return Trajectory(pts, self.dt)


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass
class ObservableState:
    """The observation-time subset of a humanoid state: named 3-D joints and
    the ground-plane root velocity."""

    joints: dict
    root_velocity: np.ndarray  # (2,) m/s

    def __post_init__(self):
        self.joints = {k: np.asarray(v, dtype=float) for k, v in self.joints.items()}
        self.root_velocity = np.asarray(self.root_velocity, dtype=float)
        missing = [j for j in REQUIRED_JOINTS if j not in self.joints]
        if missing:
            raise InputShapeError(f"missing required joints: {missing}")
        for name, pos in self.joints.items():
            if pos.shape != (3,) or not np.all(np.isfinite(pos)):
                raise InputShapeError(f"joint {name!r} must be a finite 3-vector")
        if self.root_velocity.shape != (2,) or not np.all(np.isfinite(self.root_velocity)):
            raise InputShapeError("root_velocity must be a finite 2-vector")

    @property
    def root_position(self) -> np.ndarray:
        return self.joints["pelvis"][:2]

    def heading(self) -> float:
        """Facing direction inferred from the shoulder line (perpendicular,
        pointing forward); falls back to the root-velocity direction when the
        shoulders are degenerate."""
        axis = self.joints["left_shoulder"][:2] - self.joints["right_shoulder"][:2]
        if np.linalg.norm(axis) > 1e-9:
            # left-to-right shoulder axis rotated -90 deg points forward
            return math.atan2(-axis[0], axis[1])
        speed = np.linalg.norm(self.root_velocity)
        if speed > 1e-9:
            return math.atan2(self.root_velocity[1], self.root_velocity[0])
        return 0.0

    def joint_order(self) -> list[str]:
        """The required joints in their fixed order, then any extra joints by
        name. Every flat encoding of the joints (plausibility CSV columns,
        scorer features, predictor input) uses this order."""
        extras = sorted(set(self.joints) - set(REQUIRED_JOINTS))
        return [*REQUIRED_JOINTS, *extras]


@dataclass
class HumanoidState:
    """Full oracle-side state: observable joints plus the heading that only
    the simulator sees."""

    joints: dict
    heading: float
    root_velocity: np.ndarray

    def __post_init__(self):
        self.joints = {k: np.asarray(v, dtype=float) for k, v in self.joints.items()}
        self.root_velocity = np.asarray(self.root_velocity, dtype=float)
        missing = [j for j in REQUIRED_JOINTS if j not in self.joints]
        if missing:
            raise InputShapeError(f"missing required joints: {missing}")
        if not math.isfinite(self.heading):
            raise InputShapeError("heading must be finite")
        self.heading = wrap_angle(self.heading)
        if self.root_velocity.shape != (2,) or not np.all(np.isfinite(self.root_velocity)):
            raise InputShapeError("root_velocity must be a finite 2-vector")

    @property
    def root_position(self) -> np.ndarray:
        return self.joints["pelvis"][:2]

    def observable(self) -> ObservableState:
        return ObservableState(joints=dict(self.joints), root_velocity=self.root_velocity.copy())

    def transformed(self, angle: float = 0.0, translation=(0.0, 0.0),
                    pivot=(0.0, 0.0)) -> "HumanoidState":
        """Rigid transform about the vertical axis."""
        rot = rotation_matrix(angle)
        pivot = np.asarray(pivot, dtype=float)
        translation = np.asarray(translation, dtype=float)
        joints = {}
        for name, pos in self.joints.items():
            xy = rot @ (pos[:2] - pivot) + pivot + translation
            joints[name] = np.array([xy[0], xy[1], pos[2]])
        return HumanoidState(
            joints=joints,
            heading=wrap_angle(self.heading + angle),
            root_velocity=rot @ self.root_velocity,
        )


@dataclass
class OracleParams:
    v_max: float = 2.5          # m/s
    a_max: float = 2.0          # m/s^2
    turn_rate_max: float = 2.0  # rad/s
    gamma: float = 0.95
    w_follow: float = 1.0
    w_energy: float = 0.25
    follow_scale: float = 0.5   # meters

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("v_max", "a_max", "turn_rate_max", "follow_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma!r}")
        for name in ("w_follow", "w_energy"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.w_follow + self.w_energy <= 0:
            raise ConfigError("w_follow and w_energy must not both be zero")


@dataclass
class PlausibilitySample:
    """One oracle-labelled pose-trajectory pair. Samples of one pose may
    share one ObservableState, which nothing mutates."""

    trajectory: Trajectory
    observable: ObservableState
    reward: float
    label: str  # plausible_pair | implausible_pair

    def __post_init__(self):
        if not (math.isfinite(self.reward) and 0.0 <= self.reward <= 1.0):
            raise InputShapeError(f"reward must be in [0, 1], got {self.reward}")
        if self.label not in ("plausible_pair", "implausible_pair"):
            raise ConfigError(f"unknown label {self.label!r}")


# ---------------------------------------------------------------------------
# Rollout


def rollout(traj: Trajectory, state: HumanoidState,
            params: OracleParams = OracleParams()) -> float:
    """Discounted cumulative tracking reward of the capped walker, in [0, 1]."""
    return rollout_detailed(traj, state, params)["reward"]


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 2-vector, bit for bit (the same BLAS dot), without
    its dispatch."""
    return math.sqrt(v.dot(v))


def rollout_detailed(traj: Trajectory, state: HumanoidState,
                     params: OracleParams) -> dict:
    """Rollout returning per-step positions, velocities, and rewards."""
    dt = traj.dt
    pos = state.root_position.copy()
    vel = state.root_velocity.copy()
    speed = _norm(vel)
    if speed > params.v_max:
        vel = vel * (params.v_max / speed)
    heading = state.heading

    positions = [pos.copy()]
    velocities = [vel.copy()]
    rewards = []
    for target in traj.points:
        to_target = target - pos
        dist = _norm(to_target)
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
        dv_norm = _norm(dv)
        accel_cap = params.a_max * dt
        if dv_norm > accel_cap:
            dv = dv * (accel_cap / dv_norm)
        new_vel = vel + dv
        accel = _norm(dv) / dt
        pos = pos + new_vel * dt
        new_speed = _norm(new_vel)
        if new_speed > 1e-9:
            heading = math.atan2(new_vel[1], new_vel[0])
        vel = new_vel

        err = _norm(pos - target)
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


# The batched walker below repeats rollout_detailed's arithmetic on (N, 2)
# arrays and must return its rewards bit for bit. Three things make that hold:
# - atan2, cos, sin, exp and the squares go through math (libm) per element,
#   because numpy's SIMD versions differ in the last bit and a heading-flip
#   pair sits on the +-pi tie of the turn, where one bit flips the direction
#   (numpy squares with x*x, the scalar code with pow);
# - row norms are one BLAS dot per row, as in np.linalg.norm;
# - the angle wrap is fmod plus one +-2pi correction: both steps are exact,
#   so it lands on the same representative in (-pi, pi] as wrap_angle.


def _map(f, *columns: np.ndarray) -> np.ndarray:
    """f applied to each element (or tuple of elements) through Python floats."""
    return np.fromiter(map(f, *(c.tolist() for c in columns)), dtype=float,
                       count=len(columns[0]))


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 of each element as the scalar code squares it (pow, not x * x)."""
    return np.fromiter(map(math.pow, x.tolist(), repeat(2.0)), dtype=float,
                       count=len(x))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of an (N, 2) array, bit for bit."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def _capped(v: np.ndarray, norms: np.ndarray, cap: float) -> np.ndarray:
    """Rows with norm above cap scaled down to it; cap / cap is exactly 1,
    so the other rows keep their bits."""
    return v * (cap / np.maximum(norms, cap))[:, None]


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle of each element, bit for bit."""
    two_pi = 2.0 * math.pi
    a = np.fmod(a, two_pi)
    a = np.where(a > math.pi, a - two_pi, a)
    return np.where(a <= -math.pi, a + two_pi, a)


def rollout_batch(points: np.ndarray, root: np.ndarray, velocity: np.ndarray,
                  heading: np.ndarray, dt: float,
                  params: OracleParams = OracleParams()) -> np.ndarray:
    """rollout() of N pairs of one horizon and dt at once, bit for bit.

    points is (N, T, 2), root and velocity are (N, 2) and heading is (N,);
    returns the N rewards. Each of the T steps moves all N walkers at once.
    """
    points = np.asarray(points, dtype=float)
    pos = np.asarray(root, dtype=float)
    vel = np.asarray(velocity, dtype=float)
    heading = np.asarray(heading, dtype=float)
    vel = _capped(vel, _row_norms(vel), params.v_max)
    max_turn = params.turn_rate_max * dt
    accel_cap = params.a_max * dt

    rewards = np.empty(points.shape[:2])
    for t in range(points.shape[1]):
        target = points[:, t]
        to_target = target - pos
        dist = _row_norms(to_target)
        moving = dist > 1e-12
        turn = wrap_angles(_map(math.atan2, to_target[:, 1], to_target[:, 0]) - heading)
        turn = np.where(turn < max_turn, turn, max_turn)
        turn = np.where(turn > -max_turn, turn, -max_turn)
        new_heading = np.where(moving, wrap_angles(heading + turn), heading)
        target_speed = np.where(moving, np.minimum(dist / dt, params.v_max), 0.0)
        target_vel = target_speed[:, None] * np.stack(
            [_map(math.cos, new_heading), _map(math.sin, new_heading)], axis=1
        )
        dv = target_vel - vel
        dv = _capped(dv, _row_norms(dv), accel_cap)
        new_vel = vel + dv
        accel = _row_norms(dv) / dt
        pos = pos + new_vel * dt
        heading = np.where(_row_norms(new_vel) > 1e-9,
                           _map(math.atan2, new_vel[:, 1], new_vel[:, 0]), heading)
        vel = new_vel

        err = _row_norms(pos - target)
        r = params.w_follow * _map(math.exp, -_squares(err / params.follow_scale))
        r -= params.w_energy * _squares(accel / params.a_max)
        r = np.where(r > 0.0, r, 0.0)
        rewards[:, t] = np.where(r < 1.0, r, 1.0)

    discounts = params.gamma ** np.arange(points.shape[1])
    return np.matmul(rewards[:, None, :], discounts[:, None])[:, 0, 0] / discounts.sum()


# ---------------------------------------------------------------------------
# Pair construction
#
# A plausible pair aligns a bank trajectory to a bank pose: it is rotated
# about its first point so that its first step faces the pose heading, its
# displacements are scaled so that the first step has the pose speed, and
# its start is moved to the pose root. An implausible pair starts an
# unaligned trajectory at the root after one perturbation. The pairs of one
# horizon and dt are built as arrays and match the per-pair construction
# (kept in the tests as the reference) bit for bit, because:
# - each rotation is a 2x2 matmul, disp @ rot.T with rot built from math.cos
#   and math.sin, and the stacked matmul makes the same BLAS call per pair;
# - the operation orders stay: (disp @ rot.T) * scale, heading + pi - angle;
# - sharp turns keep numpy's cumsum, norm, cos and sin, over (N, T-1) arrays.

PERTURBATIONS = ("heading_flip", "speed_scale", "sharp_turns")
# the kind of a pair: _ALIGNED for a plausible one, else its index in PERTURBATIONS
_ALIGNED, _FLIP, _SPEED, _SHARP = -1, 0, 1, 2


def _pair_points(disp: np.ndarray, root: np.ndarray, heading: np.ndarray,
                 speed: np.ndarray, first_norm: np.ndarray, first_angle: np.ndarray,
                 kind: np.ndarray, u: np.ndarray, dt: float,
                 params: OracleParams) -> np.ndarray:
    """Points (N, T, 2) of N pairs of one horizon and dt.

    disp (N, T-1, 2) holds the displacements of each pair's bank trajectory
    and is overwritten; first_norm and first_angle are the norm and atan2 of
    its first step. root (N, 2), heading and speed are those of the pair's
    bank state, kind is the pair's kind and u the uniform drawn for a
    speed_scale or sharp_turns pair.
    """
    turn = kind <= _FLIP
    angle = wrap_angles(np.where(kind == _FLIP, heading + math.pi, heading)[turn]
                        - first_angle[turn])
    c, s = _map(math.cos, angle), _map(math.sin, angle)
    rot = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
    disp[turn] = disp[turn] @ rot.transpose(0, 2, 1)
    aligned = kind == _ALIGNED
    disp[aligned] *= ((speed[aligned] * dt) / first_norm[aligned])[:, None, None]
    scaled = kind == _SPEED
    disp[scaled] *= u[scaled, None, None]
    # alternate heading changes at or beyond the walker's turn-rate cap
    sharp = kind == _SHARP
    step = params.turn_rate_max * dt * u[sharp]
    signs = np.where(np.arange(disp.shape[1]) % 2 == 0, 1.0, -1.0)
    theta = first_angle[sharp, None] + np.cumsum(step[:, None] * signs, axis=1)
    disp[sharp] = np.linalg.norm(disp[sharp], axis=2)[:, :, None] * np.stack(
        [np.cos(theta), np.sin(theta)], axis=2
    )
    points = np.empty((len(disp), disp.shape[1] + 1, 2))
    points[:, 0] = root
    np.cumsum(disp, axis=1, out=points[:, 1:])
    points[:, 1:] += root[:, None]  # root + cumsum: float addition commutes exactly
    return points


def build_plausibility_dataset(
    pose_bank: list[HumanoidState],
    traj_bank: list[Trajectory],
    n_plausible: int,
    n_implausible: int,
    params: OracleParams = OracleParams(),
    seed: int = 0,
) -> list[PlausibilitySample]:
    """Oracle-labeled pairs; deterministic given the seed.

    One loop draws every pair. A plausible pair redraws its pose and
    trajectory, up to 32 times, until the trajectory's first step moves and
    so does the pose. An implausible pair draws a perturbation and the
    uniform that it needs. Then the pairs of each horizon and dt are built
    as one array and labelled by one rollout_batch call. The pairs of one
    bank state share one ObservableState and those of one horizon and dt
    one points array, which nothing mutates.
    """
    if n_plausible < 0 or n_implausible < 0:
        raise ConfigError("sample counts must be non-negative")
    if n_plausible + n_implausible == 0:
        return []
    if not pose_bank or not traj_bank:
        raise DataError("pose and trajectory banks must be non-empty")
    heading = np.array([s.heading for s in pose_bank])
    root = np.stack([s.root_position for s in pose_bank])
    velocity = np.stack([s.root_velocity for s in pose_bank])
    speed = _row_norms(velocity)
    first = np.stack([t.points[1] - t.points[0] for t in traj_bank])
    first_norm = _row_norms(first)
    first_angle = _map(math.atan2, first[:, 1], first[:, 0])

    rng = np.random.default_rng(seed)
    draw = rng.integers
    n_poses, n_trajs = len(pose_bank), len(traj_bank)
    still = (speed < 1e-9).tolist()
    moving = (first_norm > 1e-9).tolist()
    pose_idx, traj_idx = [], []
    for _ in range(n_plausible):
        for _ in range(32):
            p, t = draw(n_poses), draw(n_trajs)
            if moving[t] and not still[p]:
                break
        else:
            raise DataError("exhausted resampling attempts for a plausible pair")
        pose_idx.append(p)
        traj_idx.append(t)
    kinds = [_ALIGNED] * n_plausible
    uniforms = [0.0] * n_plausible
    for _ in range(n_implausible):
        pose_idx.append(draw(n_poses))
        traj_idx.append(draw(n_trajs))
        kind = int(draw(len(PERTURBATIONS)))
        kinds.append(kind)
        uniforms.append(rng.uniform(2.0, 4.0) if kind == _SPEED
                        else rng.uniform(1.2, 2.0) if kind == _SHARP else 0.0)
    pose_idx, traj_idx = np.array(pose_idx), np.array(traj_idx)
    kinds, uniforms = np.array(kinds), np.array(uniforms)

    keys = {}  # (horizon, dt) -> group number, in bank order
    group_of = np.array([keys.setdefault((len(t), t.dt), len(keys)) for t in traj_bank])
    trajectories = [None] * len(pose_idx)
    rewards = np.empty(len(pose_idx))
    for g, (_, dt) in enumerate(keys):
        rows = np.flatnonzero(group_of[traj_idx] == g)
        if not len(rows):
            continue
        members = np.flatnonzero(group_of == g)
        bank_disp = np.diff(np.stack([traj_bank[j].points for j in members.tolist()]), axis=1)
        p, t = pose_idx[rows], traj_idx[rows]
        points = _pair_points(bank_disp[np.searchsorted(members, t)], root[p], heading[p],
                              speed[p], first_norm[t], first_angle[t], kinds[rows],
                              uniforms[rows], dt, params)
        # the bank trajectories fix the shape and dt; the pair points are
        # checked once per group, then each row is wrapped as it is
        if not np.isfinite(points).all():
            raise InputShapeError("trajectory contains non-finite coordinates")
        for i, pts in zip(rows.tolist(), points):
            trajectories[i] = Trajectory._over(pts, dt)
        rewards[rows] = rollout_batch(points, root[p], velocity[p], heading[p], dt, params)

    observables = {}  # index of a bank state -> its one ObservableState
    samples = []
    for i, (p, traj, reward) in enumerate(zip(pose_idx.tolist(), trajectories,
                                              rewards.tolist())):
        obs = observables.get(p)
        if obs is None:
            obs = observables[p] = pose_bank[p].observable()
        samples.append(PlausibilitySample(
            traj, obs, reward, "plausible_pair" if i < n_plausible else "implausible_pair"
        ))
    return samples


# ---------------------------------------------------------------------------
# Dataset file I/O


def save_plausibility_csv(samples: list[PlausibilitySample], path):
    """Write samples as CSV: the header, then one row per sample.

    Rows are the bytes csv.writer writes for the repr of each value: labels
    are one of two literals and a float repr never needs quoting. Samples
    that share one ObservableState share its formatted heading, root
    velocity and joint columns.
    """
    if not samples:
        raise DataError("refusing to write an empty plausibility dataset")
    horizon = len(samples[0].trajectory)
    names = samples[0].observable.joint_order()
    header = ["label", "omega", "dt", "T_f"]
    header += [f"{ax}{t}" for t in range(horizon) for ax in ("x", "y")]
    header += ["heading", "root_vx", "root_vy"]
    header += [f"{n}_{ax}" for n in names for ax in ("x", "y", "z")]
    state_columns = {}  # id of an observable -> its formatted columns
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for s in samples:
            obs = s.observable
            state = state_columns.get(id(obs))
            if state is None:
                values = [float(obs.heading()), *obs.root_velocity.tolist()]
                for n in names:
                    values += obs.joints[n].tolist()
                state = state_columns[id(obs)] = ",".join(map(repr, values))
            traj = s.trajectory
            fh.write(",".join([
                s.label, repr(float(s.reward)), repr(float(traj.dt)), str(len(traj)),
                *map(repr, traj.points.reshape(-1).tolist()), state,
            ]) + "\r\n")


def _parse_row(row: list[str], joint_names: list[str],
               observables: dict) -> PlausibilitySample:
    """One sample from a row of save_plausibility_csv's columns. Rows with
    the same state column strings share the ObservableState in observables."""
    horizon = int(row[3])
    heading_col = 4 + 2 * horizon
    n_columns = heading_col + 3 + 3 * len(joint_names)
    if len(row) != n_columns:
        raise InputShapeError(f"expected {n_columns} columns for T_f {horizon}, got {len(row)}")
    pts = np.array([float(v) for v in row[4:heading_col]]).reshape(horizon, 2)
    key = tuple(row[heading_col + 1 :])  # the heading column is derivable and not read
    obs = observables.get(key)
    if obs is None:
        values = [float(v) for v in key]
        joints = {n: np.array(values[2 + 3 * j : 5 + 3 * j]) for j, n in enumerate(joint_names)}
        obs = observables[key] = ObservableState(joints=joints, root_velocity=np.array(values[:2]))
    return PlausibilitySample(Trajectory(pts, float(row[2])), obs, float(row[1]), row[0])


def load_plausibility_csv(path) -> list[PlausibilitySample]:
    """Samples written by save_plausibility_csv. Rows with the same state
    columns share one ObservableState, which nothing mutates. A malformed row
    is a DataError naming the file and line."""
    samples = []
    observables = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty plausibility file")
        joint_names = [col[:-2] for col in header
                       if col.endswith("_x") and col[:-2] != "root_v"]
        for line_no, row in enumerate(reader, start=2):
            try:
                samples.append(_parse_row(row, joint_names, observables))
            except (ValueError, IndexError) as exc:  # the toolkit's errors are ValueErrors
                raise DataError(f"{path}:{line_no}: malformed row ({exc})")
    return samples

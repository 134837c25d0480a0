"""Kinematic locomotion oracle.

A point-mass walker with speed, acceleration, and turn-rate caps greedily
tracks a candidate trajectory from an initial humanoid state. The discounted
cumulative tracking reward in [0, 1] is the plausibility label; misaligned
pose-trajectory pairs earn low reward because the walker cannot keep up.

A pose has exactly the eight REQUIRED_JOINTS, and every joint array is
(..., 8, 3) with its rows in that order.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, Checked, ConfigError, DataError, InputShapeError,
                     Rule, rule)

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

# rows of a joint array (8, 3); every flat encoding of the joints (joint
# arrays, plausibility CSV columns, scorer features, predictor input) holds
# the REQUIRED_JOINTS in their order
PELVIS, LEFT_SHOULDER, RIGHT_SHOULDER = map(REQUIRED_JOINTS.index,
                                           ("pelvis", "left_shoulder", "right_shoulder"))

DEFAULT_DT = 0.4  # seconds per frame, 2.5 fps


def wrap_angle(a: float) -> float:
    """Normalize into (-pi, pi]."""
    a = math.remainder(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


def _checked_points(points, dt: float, ndim: int) -> np.ndarray:
    """points as a float array of ndim axes, checked by the trajectory rules:
    (T, 2) for a trajectory or (K, T, 2) for a set, T >= 2, every coordinate
    finite, and a positive dt."""
    name, layout = ("trajectory", "(T, 2)") if ndim == 2 else ("trajectory set", "(K, T, 2)")
    try:
        points = np.asarray(points, dtype=float)
    except ValueError:  # an inhomogeneous shape, or a string
        raise InputShapeError(f"{name} points must be {layout}, got rows of unequal length "
                              "or non-numbers")
    if points.ndim != ndim or points.shape[-1] != 2:
        raise InputShapeError(f"{name} points must be {layout}, got {points.shape}")
    if points.shape[-2] < 2:
        raise InputShapeError("trajectory needs at least 2 points")
    if not np.isfinite(points).all():
        raise InputShapeError("trajectory contains non-finite coordinates")
    if not dt > 0:
        raise ConfigError("dt must be positive")
    return points


@dataclass
class Trajectory:
    points: np.ndarray  # (T, 2) ground-plane positions in meters
    dt: float = DEFAULT_DT

    def __post_init__(self):
        self.points = _checked_points(self.points, self.dt, 2)

    def __len__(self) -> int:
        return len(self.points)


class TrajectorySet(Sequence):
    """K trajectories of one length and one dt, held as one points array
    (K, T, 2) and checked once for the set by Trajectory's rules. An integer
    index, and so iteration, builds a Trajectory over a view of its row when
    one is taken; a slice, index array or mask gives a set of those rows."""

    __slots__ = ("points", "dt")

    def __init__(self, points: np.ndarray, dt: float = DEFAULT_DT):
        self.points, self.dt = _checked_points(points, dt, 3), dt

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index):
        if not isinstance(index, (int, np.integer)):
            return TrajectorySet(self.points[index], self.dt)
        # the set's checks cover each of its rows
        traj = Trajectory.__new__(Trajectory)
        traj.points, traj.dt = self.points[index], self.dt
        return traj

    def __iter__(self):
        return map(self.__getitem__, range(len(self.points)))


def candidate_arrays(candidates) -> tuple[np.ndarray, np.ndarray]:
    """Points (K, T, 2) and dts (K,) of a candidate set: a TrajectorySet's own
    array, or a stack of a trajectory sequence's arrays, which must share one
    length."""
    if isinstance(candidates, TrajectorySet):
        return candidates.points, np.full(len(candidates), candidates.dt)
    if len({len(t.points) for t in candidates}) > 1:
        raise InputShapeError("the candidate trajectories differ in length")
    return np.stack([t.points for t in candidates]), np.array([t.dt for t in candidates])


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass
class _Pose:
    """Named 3-D joints, exactly the required ones, and the ground-plane root
    velocity: the check and the root that both state types share."""

    joints: dict
    root_velocity: np.ndarray  # (2,) m/s

    def __post_init__(self):
        missing = [j for j in REQUIRED_JOINTS if j not in self.joints]
        if missing:
            raise InputShapeError(f"missing required joints: {missing}")
        unknown = [j for j in self.joints if j not in REQUIRED_JOINTS]
        if unknown:
            raise InputShapeError(f"unknown joints: {unknown}")
        try:
            pts = np.array(list(self.joints.values()), dtype=float)
        except (TypeError, ValueError):  # joints of unequal length, or not numbers
            pts = None
        if pts is None or pts.shape != (len(self.joints), 3) or not np.isfinite(pts).all():
            bad = next(n for n, pos in self.joints.items() if not _is_joint(pos))
            raise InputShapeError(f"joint {bad!r} must be a finite 3-vector")
        self.joints = dict(zip(self.joints, pts))
        self.root_velocity = np.asarray(self.root_velocity, dtype=float)
        if self.root_velocity.shape != (2,) or not np.isfinite(self.root_velocity).all():
            raise InputShapeError("root_velocity must be a finite 2-vector")

    @property
    def root_position(self) -> np.ndarray:
        return self.joints["pelvis"][:2]


def _is_joint(pos) -> bool:
    """pos is a finite 3-vector."""
    try:
        pos = np.asarray(pos, dtype=float)
    except (TypeError, ValueError):
        return False
    return pos.shape == (3,) and bool(np.isfinite(pos).all())


@dataclass
class ObservableState(_Pose):
    """The observation-time subset of a humanoid state: named 3-D joints and
    the ground-plane root velocity."""

    def heading(self) -> float:
        """Facing direction: headings() of this one observable."""
        return float(headings(self.joint_array()[None], self.root_velocity[None])[0])

    def joint_array(self) -> np.ndarray:
        """The joints (8, 3), the REQUIRED_JOINTS in their order."""
        return np.array([self.joints[n] for n in REQUIRED_JOINTS])


@dataclass
class HumanoidState(_Pose):
    """Full oracle-side state: observable joints plus the heading that only
    the simulator sees."""

    heading: float

    def __post_init__(self):
        if not math.isfinite(self.heading):
            raise InputShapeError("heading must be finite")
        self.heading = wrap_angle(self.heading)
        super().__post_init__()


@dataclass
class OracleParams(Checked):
    v_max: float = rule(POSITIVE, default=2.5)          # m/s
    a_max: float = rule(POSITIVE, default=2.0)          # m/s^2
    turn_rate_max: float = rule(POSITIVE, default=2.0)  # rad/s
    gamma: float = rule(Rule(lambda v: 0 < v <= 1, "in (0, 1]"), default=0.95)
    w_follow: float = rule(NON_NEGATIVE, default=1.0)
    w_energy: float = rule(NON_NEGATIVE, default=0.25)
    follow_scale: float = rule(POSITIVE, default=0.5)   # meters

    def __post_init__(self):
        super().__post_init__()
        if self.w_follow + self.w_energy <= 0:
            raise ConfigError("w_follow and w_energy must not both be zero")


LABELS = ("implausible_pair", "plausible_pair")  # indexed by PairSet.plausible


class PairError(InputShapeError):
    """One pair of a PairSet breaks a rule of the set."""

    def __init__(self, pair: int, reason: str):
        self.pair, self.reason = pair, reason
        super().__init__(f"pair {pair}: {reason}")


@dataclass
class PairSet:
    """Oracle-labelled pose-trajectory pairs of one horizon and one dt.

    Pair i is the trajectory points[i], labelled rewards[i] by the oracle
    from the state state[i]: the joints[state[i]], the REQUIRED_JOINTS in
    their order, and the root velocity[state[i]]; it is a plausible_pair when plausible[i],
    else an implausible_pair. Pairs may share a state, which nothing mutates.
    """

    points: np.ndarray       # (N, T, 2) ground-plane positions, T >= 2
    rewards: np.ndarray      # (N,) in [0, 1]
    plausible: np.ndarray    # (N,) bool
    state: np.ndarray        # (N,) indices into joints and velocity
    joints: np.ndarray       # (S, 8, 3)
    velocity: np.ndarray     # (S, 2) m/s
    dt: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        self.plausible = np.asarray(self.plausible, dtype=bool)
        self.state = np.asarray(self.state, dtype=np.intp)
        self.joints = np.asarray(self.joints, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        n, s, J = len(self.rewards), len(self.joints), len(REQUIRED_JOINTS)
        shapes = [a.shape for a in (self.points, self.rewards, self.plausible, self.state)]
        if len(shapes[0]) != 3 or shapes[0][::2] != (n, 2) or set(shapes[1:]) != {(n,)}:
            raise InputShapeError("pair arrays must be points (N, T, 2) and rewards, plausible "
                                  f"and state (N,), got {shapes}")
        if (self.joints.shape, self.velocity.shape) != ((s, J, 3), (s, 2)):
            raise InputShapeError(f"state arrays must be joints (S, {J}, 3) and velocity (S, 2), "
                                  f"got {self.joints.shape} and {self.velocity.shape}")
        if n and self.horizon < 2:
            raise InputShapeError("trajectory needs at least 2 points")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if n and not 0 <= self.state.min() <= self.state.max() < s:
            raise InputShapeError(f"state indices must lie in [0, {s})")
        # the first pair that breaks a rule, its state checked before its points
        # and its points before its reward
        bad_joints = ~np.isfinite(self.joints).all(axis=2)
        bad_states = bad_joints.any(axis=1) | ~np.isfinite(self.velocity).all(axis=1)
        bad_points = ~np.isfinite(self.points).all(axis=(1, 2))
        bad_rewards = ~((self.rewards >= 0.0) & (self.rewards <= 1.0))
        bad = bad_states[self.state] | bad_points | bad_rewards
        if bad.any():
            i = int(np.argmax(bad))
            k = self.state[i]
            if bad_joints[k].any():
                name = REQUIRED_JOINTS[np.argmax(bad_joints[k])]
                reason = f"joint {name!r} must be a finite 3-vector"
            elif bad_states[k]:
                reason = "root_velocity must be a finite 2-vector"
            elif bad_points[i]:
                reason = "trajectory contains non-finite coordinates"
            else:
                reason = f"reward must be in [0, 1], got {float(self.rewards[i])}"
            raise PairError(i, reason)
        if bad_states.any():  # a state that no pair uses
            raise InputShapeError("state arrays must be finite")

    def __len__(self) -> int:
        return len(self.rewards)

    @property
    def horizon(self) -> int:
        return self.points.shape[1]

    def subset(self, index) -> "PairSet":
        """The pairs at an index array (or mask), sharing this set's state arrays."""
        return PairSet(self.points[index], self.rewards[index], self.plausible[index],
                       self.state[index], self.joints, self.velocity, self.dt)


# ---------------------------------------------------------------------------
# Rollout


def _norm(x: float, y: float, buf: np.ndarray) -> float:
    """np.linalg.norm((x, y)) bit for bit: the sqrt of the same BLAS dot,
    taken on buf, a 2-element work array the caller reuses."""
    buf[0] = x
    buf[1] = y
    return math.sqrt(buf.dot(buf))


class WalkerStart(NamedTuple):
    """The walker's start, the three values that rollout reads of a state."""

    root_position: tuple[float, float]  # (x, y) m
    root_velocity: tuple[float, float]  # (vx, vy) m/s
    heading: float                      # rad, in (-pi, pi]


def rollout(traj: Trajectory, state: HumanoidState | WalkerStart,
            params: OracleParams = OracleParams()) -> float:
    """Discounted cumulative tracking reward of the capped walker, in [0, 1].

    Of state it reads only root_position, root_velocity and heading, so a
    HumanoidState and a WalkerStart of its pelvis, velocity and heading roll
    out alike. The walker steps on Python floats with the bits of the same
    steps on numpy 2-vectors: each coordinate is one IEEE operation either
    way, _norm is np.linalg.norm's BLAS dot, and each clamp takes the value
    that min and max would."""
    dt, v_max, a_max = traj.dt, params.v_max, params.a_max
    w_follow, w_energy, follow_scale = params.w_follow, params.w_energy, params.follow_scale
    max_turn = params.turn_rate_max * dt
    accel_cap = a_max * dt
    atan2, cos, sin, exp = math.atan2, math.cos, math.sin, math.exp
    buf = np.empty(2)
    px, py = map(float, state.root_position)
    vx, vy = map(float, state.root_velocity)
    speed = _norm(vx, vy, buf)
    if speed > v_max:
        k = v_max / speed
        vx, vy = vx * k, vy * k
    heading = state.heading

    rewards = []
    for tx, ty in traj.points.tolist():
        dx, dy = tx - px, ty - py
        dist = _norm(dx, dy, buf)
        if dist > 1e-12:
            turn = wrap_angle(atan2(dy, dx) - heading)
            turn = turn if turn < max_turn else max_turn
            turn = turn if turn > -max_turn else -max_turn
            new_heading = wrap_angle(heading + turn)
            target_speed = dist / dt
            target_speed = target_speed if target_speed <= v_max else v_max
        else:
            new_heading = heading
            target_speed = 0.0
        dvx = target_speed * cos(new_heading) - vx
        dvy = target_speed * sin(new_heading) - vy
        dv_norm = _norm(dvx, dvy, buf)
        if dv_norm > accel_cap:
            k = accel_cap / dv_norm
            dvx, dvy = dvx * k, dvy * k
            dv_norm = _norm(dvx, dvy, buf)
        vx, vy = vx + dvx, vy + dvy
        px, py = px + vx * dt, py + vy * dt
        if _norm(vx, vy, buf) > 1e-9:
            heading = atan2(vy, vx)

        err = _norm(px - tx, py - ty, buf)
        r = w_follow * exp(-(err / follow_scale) ** 2)
        r -= w_energy * (dv_norm / dt / a_max) ** 2
        r = r if r > 0.0 else 0.0
        rewards.append(r if r < 1.0 else 1.0)

    discounts = params.gamma ** np.arange(len(rewards))
    return float(np.dot(discounts, rewards) / discounts.sum())


# The batched walker below repeats rollout's arithmetic on (N, 2) arrays
# and must return its rewards bit for bit. Three things make that hold:
# - atan2, cos, sin, exp and the squares go through math (libm) per element,
#   because numpy's SIMD versions differ in the last bit and a heading-flip
#   pair sits on the +-pi tie of the turn, where one bit flips the direction
#   (numpy squares with x*x, the scalar code with pow);
# - each walker takes its 2-vector norms as np.linalg.norm does, the sqrt of
#   one BLAS dot, so they round alike on any BLAS: here each row's norm is
#   that dot (a stacked matmul of (1, 2) by (2, 1) rows), and rollout's
#   _norm is the dot of its Python floats on a reused 2-element array;
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


def rotation_matrices(angles: np.ndarray) -> np.ndarray:
    """rotation_matrix of each angle (N,) as (N, 2, 2), bit for bit."""
    c, s = _map(math.cos, angles), _map(math.sin, angles)
    return np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)


def headings(joints: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """Facing direction (N,) of N observables, from their joints (N, 8, 3) and
    root velocities (N, 2): the shoulder line's normal pointing forward; the
    root-velocity direction where the shoulders are degenerate; 0.0 where the
    walker stands still too."""
    axis = joints[:, LEFT_SHOULDER, :2] - joints[:, RIGHT_SHOULDER, :2]
    # the left-to-right shoulder axis rotated -90 deg points forward
    facing = _map(math.atan2, -axis[:, 0], axis[:, 1])
    moving = np.where(_row_norms(velocity) > 1e-9,
                      _map(math.atan2, velocity[:, 1], velocity[:, 0]), 0.0)
    return np.where(_row_norms(axis) > 1e-9, facing, moving)


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
# unaligned trajectory at the root after one perturbation. The pairs are
# built as one array and match the per-pair construction (kept in the tests
# as the reference) bit for bit, because:
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
    disp[turn] = disp[turn] @ rotation_matrices(angle).transpose(0, 2, 1)
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


def _bank_arrays(pose_bank: list[HumanoidState]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The joints (P, J, 3), the root velocities (P, 2) and the headings (P,)
    of a non-empty bank of P poses."""
    joints = np.array([[pose.joints[n] for n in REQUIRED_JOINTS] for pose in pose_bank])
    velocity = np.array([pose.root_velocity for pose in pose_bank])
    return joints, velocity, np.array([pose.heading for pose in pose_bank])


def build_plausibility_dataset(
    pose_bank: list[HumanoidState],
    traj_bank: TrajectorySet,
    n_plausible: int,
    n_implausible: int,
    params: OracleParams = OracleParams(),
    seed: int = 0,
) -> PairSet:
    """Oracle-labeled pairs; deterministic given the seed.

    One loop draws every pair. A plausible pair redraws its pose and
    trajectory, up to 32 times, until the trajectory's first step moves and
    so does the pose. An implausible pair draws a perturbation and the
    uniform that it needs. Then every pair is built as one array from the
    bank's one horizon and dt, and labelled by one rollout_batch call. The
    pairs of one bank state share its row of the set's state arrays.
    """
    if n_plausible < 0 or n_implausible < 0:
        raise ConfigError("sample counts must be non-negative")
    if n_plausible + n_implausible == 0:
        return PairSet(np.empty((0, 0, 2)), [], [], [], np.empty((0, len(REQUIRED_JOINTS), 3)),
                       np.empty((0, 2)), DEFAULT_DT)
    if not pose_bank or not traj_bank:
        raise DataError("pose and trajectory banks must be non-empty")
    bank, dt = traj_bank.points, traj_bank.dt
    joints, velocity, heading = _bank_arrays(pose_bank)
    root = joints[:, PELVIS, :2]
    speed = _row_norms(velocity)
    first = bank[:, 1] - bank[:, 0]
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
    p, t = np.array(pose_idx), np.array(traj_idx)
    kinds = np.array(kinds)

    points = _pair_points(np.diff(bank, axis=1)[t], root[p], heading[p], speed[p],
                          first_norm[t], first_angle[t], kinds, np.array(uniforms), dt, params)
    rewards = rollout_batch(points, root[p], velocity[p], heading[p], dt, params)
    used, state = np.unique(p, return_inverse=True)
    return PairSet(points, rewards, kinds == _ALIGNED, state, joints[used], velocity[used], dt)


# ---------------------------------------------------------------------------
# Dataset file I/O


def save_plausibility_csv(pairs: PairSet, path):
    """Write pairs as CSV: the header, then one row per pair.

    Rows are the bytes csv.writer writes for the repr of each value: labels
    are one of two literals and a float repr never needs quoting. The
    heading, root velocity and joint columns of each state are formatted
    once.
    """
    if not len(pairs):
        raise DataError("refusing to write an empty plausibility dataset")
    header = ["label", "omega", "dt", "T_f"]
    header += [f"{ax}{t}" for t in range(pairs.horizon) for ax in ("x", "y")]
    header += ["heading", "root_vx", "root_vy"]
    header += [f"{n}_{ax}" for n in REQUIRED_JOINTS for ax in ("x", "y", "z")]
    states = [",".join(map(repr, [heading, *velocity, *joints])) for heading, velocity, joints
              in zip(headings(pairs.joints, pairs.velocity).tolist(), pairs.velocity.tolist(),
                     pairs.joints.reshape(len(pairs.joints), -1).tolist())]
    dt, horizon = repr(float(pairs.dt)), str(pairs.horizon)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for plausible, reward, pts, state in zip(
                pairs.plausible.tolist(), pairs.rewards.tolist(),
                pairs.points.reshape(len(pairs), -1).tolist(), pairs.state.tolist()):
            fh.write(",".join([LABELS[plausible], repr(reward), dt, horizon, *map(repr, pts),
                               states[state]]) + "\r\n")


def load_plausibility_csv(path) -> PairSet:
    """Pairs written by save_plausibility_csv. Rows with the same state
    columns share one state. The header names the REQUIRED_JOINTS' columns in
    their order, and every row must have the first row's T_f and dt. A
    malformed header or row is a DataError naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty plausibility file")
        row = next(reader, None)
        if row is None:
            raise DataError(f"{path}: no pairs after the header")
        columns = [col[:-2] for col in header if col.endswith("_x") and col[:-2] != "root_v"]
        flat, rewards, plausible, state = array("d"), [], [], []  # 8 bytes a coordinate
        states, index = [], {}  # state column strings -> index into states
        line_no = 2
        try:
            missing = [n for n in REQUIRED_JOINTS if n not in columns]
            if missing:
                raise InputShapeError(f"missing required joints: {missing}")
            if columns != list(REQUIRED_JOINTS):
                raise InputShapeError(f"joint columns must be {list(REQUIRED_JOINTS)} in this "
                                      f"order, got {columns}")
            first = row[2:4]
            dt, horizon = float(first[0]), int(first[1])
            heading_col = 4 + 2 * horizon
            n_columns = heading_col + 3 + 3 * len(REQUIRED_JOINTS)
            # each row is parsed as the reader yields it, so no row's strings are kept
            for line_no, row in enumerate(chain([row], reader), start=2):
                if row[2:4] != first and (float(row[2]), int(row[3])) != (dt, horizon):
                    raise InputShapeError(f"T_f {row[3]} at dt {row[2]} differs from the first "
                                          f"row's T_f {horizon} at dt {dt}: a pair set has one "
                                          "horizon and one dt")
                if len(row) != n_columns:
                    raise InputShapeError(f"expected {n_columns} columns for T_f {horizon}, "
                                          f"got {len(row)}")
                if row[0] not in LABELS:
                    raise ConfigError(f"unknown label {row[0]!r}")
                key = tuple(row[heading_col + 1 :])  # the heading column is derivable and not read
                k = index.get(key)
                if k is None:
                    states.append([float(v) for v in key])
                    k = index[key] = len(states) - 1
                flat.extend(map(float, row[4:heading_col]))
                rewards.append(float(row[1]))
                plausible.append(row[0] == "plausible_pair")
                state.append(k)
            line_no = 2  # a rule of the whole set is located at the first row
            states = np.array(states)  # (S, 2 + 3 J): root velocity, then joints
            return PairSet(np.array(flat).reshape(len(rewards), horizon, 2), np.array(rewards),
                           np.array(plausible), np.array(state),
                           states[:, 2:].reshape(len(states), -1, 3), states[:, :2], dt)
        except PairError as exc:
            raise DataError(f"{path}:{exc.pair + 2}: malformed row ({exc.reason})")
        except (ValueError, IndexError) as exc:  # the toolkit's errors are ValueErrors
            raise DataError(f"{path}:{line_no}: malformed row ({exc})")

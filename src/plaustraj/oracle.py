"""Kinematic locomotion oracle.

A point-mass walker with speed, acceleration, and turn-rate caps greedily
tracks a candidate trajectory from an initial humanoid state. The discounted
cumulative tracking reward in [0, 1] is the plausibility label; misaligned
pose-trajectory pairs earn low reward because the walker cannot keep up.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
        if not np.all(np.isfinite(self.points)):
            raise InputShapeError("trajectory contains non-finite coordinates")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")

    def __len__(self) -> int:
        return len(self.points)

    def displacements(self) -> np.ndarray:
        return np.diff(self.points, axis=0)

    def initial_heading(self) -> float:
        d = self.points[1] - self.points[0]
        return math.atan2(d[1], d[0])

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
        if min(self.v_max, self.a_max, self.turn_rate_max) <= 0:
            raise ConfigError("kinematic caps must be positive")
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must be in (0, 1]")
        if self.w_follow < 0 or self.w_energy < 0 or self.w_follow + self.w_energy <= 0:
            raise ConfigError("reward weights must be non-negative and not both zero")
        if self.follow_scale <= 0:
            raise ConfigError("follow_scale must be positive")


@dataclass
class PlausibilitySample:
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


def rollout_detailed(traj: Trajectory, state: HumanoidState,
                     params: OracleParams) -> dict:
    """Rollout returning per-step positions, velocities, and rewards."""
    dt = traj.dt
    pos = state.root_position.copy()
    vel = state.root_velocity.copy()
    speed = np.linalg.norm(vel)
    if speed > params.v_max:
        vel = vel * (params.v_max / speed)
    heading = state.heading

    positions = [pos.copy()]
    velocities = [vel.copy()]
    rewards = []
    for target in traj.points:
        to_target = target - pos
        dist = np.linalg.norm(to_target)
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
        dv_norm = np.linalg.norm(dv)
        accel_cap = params.a_max * dt
        if dv_norm > accel_cap:
            dv = dv * (accel_cap / dv_norm)
        new_vel = vel + dv
        accel = np.linalg.norm(dv) / dt
        pos = pos + new_vel * dt
        new_speed = np.linalg.norm(new_vel)
        if new_speed > 1e-9:
            heading = math.atan2(new_vel[1], new_vel[0])
        vel = new_vel

        err = np.linalg.norm(pos - target)
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


# ---------------------------------------------------------------------------
# Pair construction


def align_trajectory_to_pose(traj: Trajectory, state: HumanoidState) -> Trajectory:
    """Orientation + velocity alignment followed by translation to the root.

    The trajectory is rotated about its first point so its initial direction
    matches the pose heading, its displacements are uniformly scaled so the
    first-step speed equals the pose root speed, and its start is moved to
    the pose root position.
    """
    disp = traj.displacements()
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


PERTURBATIONS = ("heading_flip", "speed_scale", "sharp_turns")


def _perturb(traj: Trajectory, state: HumanoidState, kind: str,
             params: OracleParams, rng: np.random.Generator) -> Trajectory:
    disp = traj.displacements()
    if kind == "heading_flip":
        first = disp[0]
        angle = wrap_angle(state.heading + math.pi - math.atan2(first[1], first[0]))
        disp = disp @ rotation_matrix(angle).T
    elif kind == "speed_scale":
        disp = disp * rng.uniform(2.0, 4.0)
    elif kind == "sharp_turns":
        # alternate heading changes at or beyond the walker's turn-rate cap
        step = params.turn_rate_max * traj.dt * rng.uniform(1.2, 2.0)
        angles = np.cumsum(step * np.where(np.arange(len(disp)) % 2 == 0, 1.0, -1.0))
        norms = np.linalg.norm(disp, axis=1)
        base = math.atan2(disp[0][1], disp[0][0])
        disp = norms[:, None] * np.stack(
            [np.cos(base + angles), np.sin(base + angles)], axis=1
        )
    else:
        raise ConfigError(f"unknown perturbation {kind!r}")
    pts = np.vstack(
        [state.root_position, state.root_position + np.cumsum(disp, axis=0)]
    )
    return Trajectory(pts, traj.dt)


def sample_plausible_pair(
    pose_bank: list[HumanoidState],
    traj_bank: list[Trajectory],
    rng: np.random.Generator,
    max_resamples: int = 32,
    stats: dict | None = None,
) -> tuple[Trajectory, HumanoidState]:
    """Independent pose/trajectory draw with spatial alignment."""
    if not pose_bank or not traj_bank:
        raise DataError("pose and trajectory banks must be non-empty")
    for _ in range(max_resamples):
        state = pose_bank[rng.integers(len(pose_bank))]
        traj = traj_bank[rng.integers(len(traj_bank))]
        moving = np.linalg.norm(traj.displacements()[0]) > 1e-9
        if np.linalg.norm(state.root_velocity) < 1e-9 and moving:
            if stats is not None:
                stats["zero_speed_resamples"] = stats.get("zero_speed_resamples", 0) + 1
            continue
        if not moving:
            if stats is not None:
                stats["zero_step_resamples"] = stats.get("zero_step_resamples", 0) + 1
            continue
        return align_trajectory_to_pose(traj, state), state
    raise DataError("exhausted resampling attempts for a plausible pair")


def sample_implausible_pair(
    pose_bank: list[HumanoidState],
    traj_bank: list[Trajectory],
    rng: np.random.Generator,
    params: OracleParams = OracleParams(),
    perturbation: str | None = None,
) -> tuple[Trajectory, HumanoidState]:
    """Unaligned pose/trajectory pair with one randomly chosen perturbation.

    The trajectory start is still moved to the pose root so implausibility
    comes from orientation/speed mismatch rather than spatial separation.
    """
    if not pose_bank or not traj_bank:
        raise DataError("pose and trajectory banks must be non-empty")
    state = pose_bank[rng.integers(len(pose_bank))]
    traj = traj_bank[rng.integers(len(traj_bank))]
    if perturbation is None:
        perturbation = PERTURBATIONS[rng.integers(len(PERTURBATIONS))]
    return _perturb(traj, state, perturbation, params, rng), state


def build_plausibility_dataset(
    pose_bank: list[HumanoidState],
    traj_bank: list[Trajectory],
    n_plausible: int,
    n_implausible: int,
    params: OracleParams = OracleParams(),
    seed: int = 0,
) -> list[PlausibilitySample]:
    """Oracle-labeled pairs; deterministic given the seed."""
    if n_plausible < 0 or n_implausible < 0:
        raise ConfigError("sample counts must be non-negative")
    if n_plausible + n_implausible == 0:
        return []
    if not pose_bank or not traj_bank:
        raise DataError("pose and trajectory banks must be non-empty")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_plausible):
        traj, state = sample_plausible_pair(pose_bank, traj_bank, rng)
        samples.append(
            PlausibilitySample(traj, state.observable(), rollout(traj, state, params),
                               "plausible_pair")
        )
    for _ in range(n_implausible):
        traj, state = sample_implausible_pair(pose_bank, traj_bank, rng, params)
        samples.append(
            PlausibilitySample(traj, state.observable(), rollout(traj, state, params),
                               "implausible_pair")
        )
    return samples


# ---------------------------------------------------------------------------
# Dataset file I/O


def save_plausibility_csv(samples: list[PlausibilitySample], path):
    if not samples:
        raise DataError("refusing to write an empty plausibility dataset")
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


def load_plausibility_csv(path) -> list[PlausibilitySample]:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty plausibility file")
        joint_names = []
        for col in header:
            if col.endswith("_x") and col[:-2] not in ("root_v",):
                joint_names.append(col[:-2])
        for line_no, row in enumerate(reader, start=2):
            try:
                label = row[0]
                omega = float(row[1])
                dt = float(row[2])
                horizon = int(row[3])
                off = 4
                pts = np.array([float(v) for v in row[off : off + 2 * horizon]]).reshape(
                    horizon, 2
                )
                off += 2 * horizon
                off += 1  # heading column is derivable; kept for readability
                vel = np.array([float(row[off]), float(row[off + 1])])
                off += 2
                joints = {}
                for n in joint_names:
                    joints[n] = np.array([float(v) for v in row[off : off + 3]])
                    off += 3
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{line_no}: malformed row ({exc})")
            samples.append(
                PlausibilitySample(
                    Trajectory(pts, dt),
                    ObservableState(joints=joints, root_velocity=vel),
                    omega,
                    label,
                )
            )
    return samples

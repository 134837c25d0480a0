"""Data ingestion and synthesis: TSV trajectory files, synthetic scenario
generation, a procedural walking-pose bank, pose filtering, and sliding-window
training instances."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, InputShapeError, ParseError
from .oracle import (
    DEFAULT_DT,
    REQUIRED_JOINTS,
    HumanoidState,
    ObservableState,
    OracleParams,
    Trajectory,
    rollout,
    rotation_matrix,
    wrap_angle,
)


@dataclass
class TrajectoryDataset:
    tracks: dict
    dt: float
    source: str = ""

    def __len__(self) -> int:
        return len(self.tracks)


@dataclass
class PoseSequence:
    frames: list  # ordered (timestamp, joints dict) pairs

    def __post_init__(self):
        ts = [t for t, _ in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InputShapeError("timestamps must be strictly increasing")
        for t, joints in self.frames:
            missing = [j for j in REQUIRED_JOINTS if j not in joints]
            if missing:
                raise InputShapeError(f"frame at t={t} missing joints {missing}")

    def __len__(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# TSV trajectory files: whitespace-separated "frame ped_id x y" rows


def load_tsv(path, dt: float = DEFAULT_DT) -> TrajectoryDataset:
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"expected 4 fields, got {len(parts)}",
                                 path=path, line=line_no)
            try:
                frame = int(float(parts[0]))
                ped = int(float(parts[1]))
                x, y = float(parts[2]), float(parts[3])
            except ValueError:
                raise ParseError(f"non-numeric field in {parts!r}", path=path, line=line_no)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError("non-finite coordinate", path=path, line=line_no)
            rows.append((ped, frame, x, y))

    by_ped = {}
    for ped, frame, x, y in rows:
        by_ped.setdefault(ped, []).append((frame, x, y))

    tracks = {}
    next_id = 0
    for ped in sorted(by_ped):
        entries = sorted(by_ped[ped])
        frames = [f for f, _, _ in entries]
        diffs = [b - a for a, b in zip(frames, frames[1:])]
        step = min((d for d in diffs if d > 0), default=1)
        segment = [entries[0]]
        segments = []
        for prev, cur in zip(entries, entries[1:]):
            if cur[0] - prev[0] == step:
                segment.append(cur)
            else:
                segments.append(segment)
                segment = [cur]
        segments.append(segment)
        for seg in segments:
            if len(seg) < 2:
                continue
            pts = np.array([[x, y] for _, x, y in seg])
            tracks[next_id] = Trajectory(pts, dt)
            next_id += 1
    return TrajectoryDataset(tracks=tracks, dt=dt, source=str(path))


def save_tsv(dataset: TrajectoryDataset, path):
    with open(path, "w") as fh:
        for tid in sorted(dataset.tracks):
            for frame, (x, y) in enumerate(dataset.tracks[tid].points):
                fh.write(f"{frame} {tid} {float(x)!r} {float(y)!r}\n")


# ---------------------------------------------------------------------------
# Procedural walking poses


def make_walking_pose(
    heading: float,
    speed: float,
    phase: float = 0.0,
    jitter_rng: np.random.Generator | None = None,
) -> HumanoidState:
    """Parametric upright walker: shoulder line perpendicular to the heading,
    legs in a stride whose amplitude scales with speed."""
    rot = rotation_matrix(heading)

    def place(forward, lateral, z):
        xy = rot @ np.array([forward, lateral])
        return np.array([xy[0], xy[1], z])

    stride = min(0.35, 0.25 * max(speed, 0.0))
    swing = stride * math.sin(phase)
    joints = {
        "pelvis": place(0.0, 0.0, 0.95),
        "head": place(0.02, 0.0, 1.68),
        "left_shoulder": place(0.0, 0.20, 1.45),
        "right_shoulder": place(0.0, -0.20, 1.45),
        "left_knee": place(swing * 0.6, 0.10, 0.50),
        "right_knee": place(-swing * 0.6, -0.10, 0.50),
        "left_ankle": place(swing, 0.10, 0.08),
        "right_ankle": place(-swing, -0.10, 0.08),
    }
    if jitter_rng is not None:
        # shoulders and pelvis stay exact so the derived heading and root are
        # noise-free anchors for alignment
        for name in ("head", "left_knee", "right_knee", "left_ankle", "right_ankle"):
            joints[name] = joints[name] + np.array(
                [*jitter_rng.normal(0.0, 0.01, size=2), jitter_rng.normal(0.0, 0.005)]
            )
    direction = np.array([math.cos(heading), math.sin(heading)])
    return HumanoidState(joints=joints, heading=heading, root_velocity=speed * direction)


def generate_pose_bank(n: int, seed: int = 0,
                       speed_range=(0.6, 2.0)) -> list[HumanoidState]:
    rng = np.random.default_rng(seed)
    bank = []
    for _ in range(n):
        bank.append(
            make_walking_pose(
                heading=rng.uniform(-math.pi, math.pi),
                speed=rng.uniform(*speed_range),
                phase=rng.uniform(0.0, 2.0 * math.pi),
                jitter_rng=rng,
            )
        )
    return bank


def save_pose_bank(bank: list[HumanoidState], path):
    doc = []
    for i, state in enumerate(bank):
        doc.append(
            {
                "name": f"pose_{i:04d}",
                "joints": {k: v.tolist() for k, v in state.joints.items()},
                "heading": state.heading,
                "speed": float(np.linalg.norm(state.root_velocity)),
            }
        )
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_pose_bank(path) -> list[HumanoidState]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise DataError(f"{path}: pose bank must be a JSON list")
    bank = []
    for entry in doc:
        try:
            heading = float(entry["heading"])
            speed = float(entry["speed"])
            joints = {k: np.array(v, dtype=float) for k, v in entry["joints"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed pose entry ({exc})")
        bank.append(
            HumanoidState(
                joints=joints,
                heading=heading,
                root_velocity=speed * np.array([math.cos(heading), math.sin(heading)]),
            )
        )
    return bank


# ---------------------------------------------------------------------------
# Synthetic scenario generation


SCENARIOS = ("straight", "accelerate", "turn", "stop_and_go")


@dataclass
class SyntheticConfig:
    n_frames: int = 24
    dt: float = DEFAULT_DT
    noise_sigma: float = 0.02
    speed_range: tuple = (0.8, 1.8)
    accel_range: tuple = (0.2, 0.5)
    turn_rate_range: tuple = (0.3, 0.9)
    scenario_weights: dict = field(
        default_factory=lambda: {s: 1.0 for s in SCENARIOS}
    )
    min_reward: float = 0.7
    max_retries: int = 20

    def __post_init__(self):
        if self.n_frames < 4:
            raise ConfigError("n_frames must be at least 4")
        unknown = set(self.scenario_weights) - set(SCENARIOS)
        if unknown:
            raise ConfigError(f"scenario_weights has unknown scenarios {sorted(unknown)}")
        for name in ("speed_range", "accel_range", "turn_rate_range"):
            bounds = getattr(self, name)
            if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
                    and all(map(_finite, bounds)) and bounds[0] <= bounds[1]):
                raise ConfigError(
                    f"{name} must be two finite numbers, low <= high, got {bounds!r}")
            setattr(self, name, tuple(bounds))
        if not (_finite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (_finite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not (_finite(self.min_reward) and 0.0 <= self.min_reward <= 1.0):
            raise ConfigError(f"min_reward must be in [0, 1], got {self.min_reward!r}")
        if isinstance(self.max_retries, bool) or not (
                isinstance(self.max_retries, int) and self.max_retries >= 1):
            raise ConfigError(f"max_retries must be an integer >= 1, got {self.max_retries!r}")


def _finite(value) -> bool:
    """A finite real number; bools are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _speed_profile(scenario: str, cfg: SyntheticConfig, rng: np.random.Generator,
                   params: OracleParams) -> tuple[np.ndarray, np.ndarray]:
    """(speeds, turn rates) per step for one track."""
    T = cfg.n_frames - 1
    speeds = np.empty(T)
    turns = np.zeros(T)
    if scenario == "straight":
        speeds[:] = rng.uniform(*cfg.speed_range)
    elif scenario == "accelerate":
        s0 = rng.uniform(*cfg.speed_range)
        a = rng.uniform(*cfg.accel_range) * (1.0 if rng.random() < 0.5 else -1.0)
        speeds = np.clip(s0 + a * cfg.dt * np.arange(T), 0.2, params.v_max * 0.9)
    elif scenario == "turn":
        speeds[:] = rng.uniform(*cfg.speed_range)
        rate = rng.uniform(*cfg.turn_rate_range) * (1.0 if rng.random() < 0.5 else -1.0)
        if abs(rate) > params.turn_rate_max:
            raise ConfigError(
                f"turn rate {rate:.2f} rad/s exceeds the walker cap "
                f"{params.turn_rate_max:.2f}"
            )
        turns[:] = rate
    elif scenario == "stop_and_go":
        cruise = rng.uniform(*cfg.speed_range)
        third = max(T // 3, 1)
        speeds[:third] = cruise
        ramp = np.linspace(cruise, 0.0, num=max(T // 6, 2))
        stop_end = min(third + len(ramp), T)
        speeds[third:stop_end] = ramp[: stop_end - third]
        back = np.linspace(0.0, cruise, num=max(T - stop_end, 1))
        speeds[stop_end:] = back[: T - stop_end]
    else:
        raise ConfigError(f"unknown scenario {scenario!r}")
    return speeds, turns


def _synthesize_track(scenario: str, cfg: SyntheticConfig, rng: np.random.Generator,
                      params: OracleParams) -> Trajectory:
    speeds, turns = _speed_profile(scenario, cfg, rng, params)
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


def _track_reward(traj: Trajectory, params: OracleParams) -> float:
    """Feasibility probe: roll the walker along the track from an aligned start."""
    first = traj.points[1] - traj.points[0]
    speed = np.linalg.norm(first) / traj.dt
    heading = math.atan2(first[1], first[0]) if speed > 1e-9 else 0.0
    state = make_walking_pose(heading, min(speed, params.v_max))
    state = state.transformed(translation=traj.points[0] - state.root_position)
    return rollout(Trajectory(traj.points[1:], traj.dt), state, params)


def generate_synthetic(
    config: SyntheticConfig,
    n_tracks: int,
    seed: int = 0,
    params: OracleParams = OracleParams(),
) -> TrajectoryDataset:
    """Scenario-mixed tracks, each verified feasible by an oracle rollout."""
    if n_tracks < 1:
        raise ConfigError("n_tracks must be >= 1")
    rng = np.random.default_rng(seed)
    names = [s for s in SCENARIOS if config.scenario_weights.get(s, 0.0) > 0]
    weights = np.array([config.scenario_weights[s] for s in names], dtype=float)
    if not names:
        raise ConfigError("all scenario weights are zero")
    weights /= weights.sum()

    tracks = {}
    for tid in range(n_tracks):
        scenario = names[rng.choice(len(names), p=weights)]
        for attempt in range(config.max_retries):
            traj = _synthesize_track(scenario, config, rng, params)
            if _track_reward(traj, params) >= config.min_reward:
                tracks[tid] = traj
                break
        else:
            raise DataError(
                f"could not synthesize a feasible {scenario!r} track in "
                f"{config.max_retries} attempts"
            )
    return TrajectoryDataset(tracks=tracks, dt=config.dt, source=f"synthetic(seed={seed})")


# ---------------------------------------------------------------------------
# Pose filtering


def pose_rule_filter(seq: PoseSequence) -> tuple[list[int], list[int]]:
    """Upright-walker joint-height rules; returns (kept, rejected) frame
    indices in input order."""
    kept, rejected = [], []
    for i, (_, joints) in enumerate(seq.frames):
        head_z = joints["head"][2]
        pelvis_z = joints["pelvis"][2]
        knees = max(joints["left_knee"][2], joints["right_knee"][2])
        ankles = max(joints["left_ankle"][2], joints["right_ankle"][2])
        shoulders = min(joints["left_shoulder"][2], joints["right_shoulder"][2])
        bad = (
            head_z <= knees
            or head_z <= pelvis_z
            or pelvis_z <= ankles
            or pelvis_z >= shoulders
        )
        (rejected if bad else kept).append(i)
    return kept, rejected


def pose_consistency_filter(seq: PoseSequence, window: int = 9) -> tuple[list[int], list[int]]:
    """Reject frames where any joint sits more than 2 sigma from its centered
    moving average (sigma taken over the per-joint residual distances)."""
    if window > len(seq):
        raise InputShapeError(f"window {window} larger than sequence length {len(seq)}")
    if window < 1:
        raise ConfigError("window must be >= 1")
    T = len(seq)
    half = window // 2
    joint_names = list(seq.frames[0][1].keys())
    bad = np.zeros(T, dtype=bool)
    for name in joint_names:
        pos = np.stack([np.asarray(joints[name], dtype=float) for _, joints in seq.frames])
        dist = np.empty(T)
        for t in range(T):
            # shrink the window symmetrically at the edges so uniform drift
            # leaves zero residual there too
            reach = min(half, t, T - 1 - t)
            dist[t] = np.linalg.norm(pos[t] - pos[t - reach : t + reach + 1].mean(axis=0))
        std = dist.std()
        if std < 1e-12:
            continue
        z = (dist - dist.mean()) / std
        bad |= z > 2.0
    kept = [i for i in range(T) if not bad[i]]
    rejected = [i for i in range(T) if bad[i]]
    return kept, rejected


def filter_pose_sequence(seq: PoseSequence, window: int = 9) -> dict:
    """Rule-based then consistency-based filtering applied sequentially;
    reports per-stage rejection indices."""
    rule_kept, rule_rejected = pose_rule_filter(seq)
    surviving = [seq.frames[i] for i in rule_kept]
    consistency_rejected = []
    kept = list(rule_kept)
    if surviving and window <= len(surviving):
        sub = PoseSequence(surviving)
        sub_kept, sub_rejected = pose_consistency_filter(sub, window)
        consistency_rejected = [rule_kept[i] for i in sub_rejected]
        kept = [rule_kept[i] for i in sub_kept]
    return {
        "kept": kept,
        "rule_rejected": rule_rejected,
        "consistency_rejected": consistency_rejected,
    }


# ---------------------------------------------------------------------------
# Training instances


@dataclass
class TrainingInstance:
    past: Trajectory
    future: Trajectory
    observable: ObservableState


def make_training_instances(
    dataset: TrajectoryDataset,
    pose_bank: list[HumanoidState],
    past_frames: int,
    future_frames: int,
    stride: int = 1,
    seed: int = 0,
    stats: dict | None = None,
) -> list[TrainingInstance]:
    """Sliding windows over every track; each instance gets a bank pose
    rotated to the window's final heading, moved to the last observed
    position, with the root velocity derived from the past trajectory."""
    if past_frames < 2:
        raise ConfigError("past_frames must be >= 2 (velocity needs two frames)")
    if future_frames < 1:
        raise ConfigError("future_frames must be >= 1")
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if not pose_bank:
        raise DataError("empty pose bank")
    rng = np.random.default_rng(seed)
    window = past_frames + future_frames
    instances = []
    skipped = 0
    for tid in sorted(dataset.tracks):
        track = dataset.tracks[tid]
        if len(track) < window:
            skipped += 1
            continue
        for start in range(0, len(track) - window + 1, stride):
            past_pts = track.points[start : start + past_frames]
            future_pts = track.points[start + past_frames : start + window]
            last_step = past_pts[-1] - past_pts[-2]
            velocity = last_step / dataset.dt
            if np.linalg.norm(last_step) > 1e-9:
                target_heading = math.atan2(last_step[1], last_step[0])
            else:
                target_heading = 0.0
            pose = pose_bank[rng.integers(len(pose_bank))]
            aligned = pose.transformed(
                angle=wrap_angle(target_heading - pose.heading),
                pivot=pose.root_position,
                translation=past_pts[-1] - pose.root_position,
            )
            obs = ObservableState(joints=aligned.joints, root_velocity=velocity)
            instances.append(
                TrainingInstance(
                    past=Trajectory(past_pts, dataset.dt),
                    future=Trajectory(future_pts, dataset.dt),
                    observable=obs,
                )
            )
    if stats is not None:
        stats["skipped_tracks"] = skipped
        stats["instances"] = len(instances)
    return instances

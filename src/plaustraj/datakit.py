"""Data ingestion and synthesis: TSV trajectory files, synthetic scenario
generation, a procedural walking-pose bank, pose filtering, and sliding-window
training instances."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, Checked, ConfigError, DataError,
                     InputShapeError, Rule, at_least, is_finite, rule)
from .oracle import (
    DEFAULT_DT,
    PELVIS,
    REQUIRED_JOINTS,
    HumanoidState,
    ObservableState,
    OracleParams,
    Trajectory,
    TrajectorySet,
    WalkerStart,
    _bank_arrays,
    _map,
    _norm,
    _row_norms,
    rollout,
    rotation_matrices,
    rotation_matrix,
    wrap_angle,
    wrap_angles,
)


@dataclass
class TrajectoryDataset:
    tracks: dict
    dt: float

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
    rows, first_line = [], {}  # (track, frame) -> the line that gave it
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DataError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
            try:
                frame, ped, x, y = map(float, parts)
            except ValueError:
                raise DataError(f"{path}:{line_no}: non-numeric field in {parts!r}")
            # an ETH/UCY-style id such as 780.0 is an integer; 1.5, inf or nan is not
            if not (frame.is_integer() and ped.is_integer()):
                raise DataError(f"{path}:{line_no}: frame and track ids must be integers, "
                                f"got {parts[0]!r} and {parts[1]!r}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DataError(f"{path}:{line_no}: non-finite coordinate")
            key = (int(ped), int(frame))
            if key in first_line:
                raise DataError(f"{path}:{line_no}: frame {key[1]} of track {key[0]} "
                                f"repeats line {first_line[key]}")
            first_line[key] = line_no
            rows.append((*key, x, y))

    by_ped = {}
    for ped, frame, x, y in rows:
        by_ped.setdefault(ped, []).append((frame, x, y))

    tracks = {}
    next_id = 0
    for ped in sorted(by_ped):
        entries = sorted(by_ped[ped])
        step = min((b[0] - a[0] for a, b in zip(entries, entries[1:])), default=1)
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
    return TrajectoryDataset(tracks=tracks, dt=dt)


def save_tsv(dataset: TrajectoryDataset, path):
    with open(path, "w") as fh:
        for tid in sorted(dataset.tracks):
            fh.write("".join(f"{frame} {tid} {x!r} {y!r}\n" for frame, (x, y)
                             in enumerate(dataset.tracks[tid].points.tolist())))


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


def generate_pose_bank(n: int, seed: int = 0) -> list[HumanoidState]:
    rng = np.random.default_rng(seed)
    return [make_walking_pose(heading=rng.uniform(-math.pi, math.pi),
                              speed=rng.uniform(0.6, 2.0),  # m/s
                              phase=rng.uniform(0.0, 2.0 * math.pi), jitter_rng=rng)
            for _ in range(n)]


def save_pose_bank(bank: list[HumanoidState], path):
    doc = [{"name": f"pose_{i:04d}", "joints": {k: v.tolist() for k, v in state.joints.items()},
            "heading": state.heading, "speed": float(np.linalg.norm(state.root_velocity))}
           for i, state in enumerate(bank)]
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # json.dump's bytes, through the C encoder


def load_pose_bank(path) -> list[HumanoidState]:
    """The states of a file written by save_pose_bank. A malformed file or
    entry is a DataError naming the file and the pose index."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, list):
        raise DataError(f"{path}: pose bank must be a JSON list")
    bank = []
    for i, entry in enumerate(doc):
        try:
            heading, speed = float(entry["heading"]), float(entry["speed"])
            if not (math.isfinite(heading) and math.isfinite(speed)):
                raise ValueError(f"heading and speed must be finite, got {heading} and {speed}")
            velocity = speed * np.array([math.cos(heading), math.sin(heading)])
            bank.append(HumanoidState(joints=dict(entry["joints"]), heading=heading,
                                      root_velocity=velocity))
        except (KeyError, TypeError, ValueError) as exc:  # the toolkit's errors are ValueErrors
            raise DataError(f"{path}: pose {i}: malformed pose entry ({exc})")
    return bank


# ---------------------------------------------------------------------------
# Synthetic scenario generation


SCENARIOS = ("straight", "accelerate", "turn", "stop_and_go")
MIN_TRACK_REWARD = 0.7  # the oracle reward a synthetic track must reach
MAX_TRACK_ATTEMPTS = 20  # draws of one track before generate_synthetic gives up


# a (low, high) range of a scenario draw
_RANGE = Rule(lambda v: len(v) == 2 and all(map(is_finite, v)) and v[0] <= v[1],
              "two finite numbers, low <= high")
_WEIGHTS = Rule(
    lambda w: (set(w) <= set(SCENARIOS) and all(is_finite(x) and x >= 0 for x in w.values())
               and any(x > 0 for x in w.values())),
    f"an object mapping some of {', '.join(SCENARIOS)} to finite weights >= 0, not all zero")


@dataclass
class SyntheticConfig(Checked):
    n_frames: int = rule(at_least(4), default=24)
    dt: float = rule(POSITIVE, default=DEFAULT_DT)
    noise_sigma: float = rule(NON_NEGATIVE, default=0.02)
    speed_range: tuple = rule(_RANGE, default=(0.8, 1.8))
    accel_range: tuple = rule(_RANGE, default=(0.2, 0.5))
    turn_rate_range: tuple = rule(_RANGE, default=(0.3, 0.9))
    scenario_weights: dict = rule(_WEIGHTS, default_factory=lambda: {s: 1.0 for s in SCENARIOS})

    def __post_init__(self):
        super().__post_init__()
        for name in ("speed_range", "accel_range", "turn_rate_range"):
            setattr(self, name, tuple(getattr(self, name)))


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
    """One track of a scenario, stepped on Python floats: each coordinate has
    the bits of the same steps on numpy 2-vectors."""
    speeds, turns = _speed_profile(scenario, cfg, rng, params)
    h = rng.uniform(-math.pi, math.pi)
    x, y = rng.uniform(-5.0, 5.0, size=2).tolist()
    dt = cfg.dt
    pts = [(x, y)]
    for s, w in zip(speeds.tolist(), turns.tolist()):
        h = wrap_angle(h + w * dt)
        step = s * dt
        x, y = x + step * math.cos(h), y + step * math.sin(h)
        pts.append((x, y))
    pts = np.array(pts)
    if cfg.noise_sigma > 0:
        pts = pts + rng.normal(0.0, cfg.noise_sigma, size=pts.shape)
    return Trajectory(pts, cfg.dt)


def _track_reward(traj: Trajectory, params: OracleParams) -> float:
    """Feasibility probe: roll the walker along the track from its first
    point, moving along its first step at that step's speed, capped at
    v_max. The start has the bits of the pelvis, velocity and heading of
    make_walking_pose(heading, speed) moved onto the first point."""
    (x0, y0), (x1, y1) = traj.points[:2].tolist()
    dx, dy = x1 - x0, y1 - y0
    speed = _norm(dx, dy, np.empty(2)) / traj.dt
    heading = math.atan2(dy, dx) if speed > 1e-9 else 0.0
    speed = min(speed, params.v_max)
    start = WalkerStart((x0, y0), (speed * math.cos(heading), speed * math.sin(heading)),
                        wrap_angle(heading))
    return rollout(Trajectory(traj.points[1:], traj.dt), start, params)


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
    weights /= weights.sum()

    tracks = {}
    for tid in range(n_tracks):
        scenario = names[rng.choice(len(names), p=weights)]
        for attempt in range(MAX_TRACK_ATTEMPTS):
            traj = _synthesize_track(scenario, config, rng, params)
            if _track_reward(traj, params) >= MIN_TRACK_REWARD:
                tracks[tid] = traj
                break
        else:
            raise DataError(
                f"could not synthesize a feasible {scenario!r} track in "
                f"{MAX_TRACK_ATTEMPTS} attempts"
            )
    return TrajectoryDataset(tracks=tracks, dt=config.dt)


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
    bad = np.zeros(T, dtype=bool)
    for name in seq.frames[0][1]:
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


def _spans(dataset: TrajectoryDataset, length: int, stride: int) -> np.ndarray:
    """Every length-frame window (N, length, 2) of every track, one every
    stride frames, tracks in id order."""
    tracks = [dataset.tracks[tid].points for tid in sorted(dataset.tracks)]
    return np.array([pts[start : start + length] for pts in tracks
                     for start in range(0, len(pts) - length + 1, stride)]).reshape(-1, length, 2)


def future_slices(dataset: TrajectoryDataset, horizon: int, stride: int) -> TrajectorySet:
    """The horizon-frame _spans of the dataset as one set: the trajectory
    bank that oracle pairs draw from."""
    return TrajectorySet(_spans(dataset, horizon, stride), dataset.dt)


class Window(NamedTuple):
    """One window of a WindowSet as objects, for callers that take one at a time."""

    past: Trajectory
    future: Trajectory
    observable: ObservableState


@dataclass
class WindowSet:
    """Observation windows of one past length, one horizon and one dt.

    Window i is the observed past[i], the ground-truth future[i] that follows
    it, and the observable state at its last observed frame: the joints[i],
    the REQUIRED_JOINTS in their order, and the root velocity[i]. Indexing with an integer,
    and so iterating, gives Windows; a slice, index array or mask gives a set.
    """

    past: np.ndarray         # (N, T_p, 2), T_p >= 2
    future: np.ndarray       # (N, T_f, 2), T_f >= 2
    joints: np.ndarray       # (N, 8, 3)
    velocity: np.ndarray     # (N, 2)
    dt: float

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float)
                  for a in (self.past, self.future, self.joints, self.velocity)]
        self.past, self.future, self.joints, self.velocity = arrays
        n, J = len(self.past), len(REQUIRED_JOINTS)
        shapes = [a.shape for a in arrays]
        if ({self.past.ndim, self.future.ndim} != {3} or [s[::2] for s in shapes[:2]] + shapes[2:]
                != [(n, 2), (n, 2), (n, J, 3), (n, 2)]):
            raise InputShapeError(f"window arrays must be past (N, T_p, 2), future (N, T_f, 2), "
                                  f"joints (N, {J}, 3) and velocity (N, 2), got {shapes}")
        if self.past_frames < 2 or self.horizon < 2:
            raise InputShapeError("a window needs at least 2 past and 2 future points")
        if not all(np.isfinite(a).all() for a in arrays):
            raise InputShapeError("window arrays must be finite")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")

    def __len__(self) -> int:
        return len(self.past)

    @property
    def past_frames(self) -> int:
        return self.past.shape[1]

    @property
    def horizon(self) -> int:
        return self.future.shape[1]

    def subset(self, index) -> "WindowSet":
        return WindowSet(self.past[index], self.future[index], self.joints[index],
                         self.velocity[index], self.dt)

    def __getitem__(self, index):
        if not isinstance(index, (int, np.integer)):
            return self.subset(index)
        return Window(Trajectory(self.past[index], self.dt), Trajectory(self.future[index], self.dt),
                      ObservableState(dict(zip(REQUIRED_JOINTS, self.joints[index])),
                                      self.velocity[index]))


def make_training_instances(
    dataset: TrajectoryDataset,
    pose_bank: list[HumanoidState],
    past_frames: int,
    future_frames: int,
    stride: int = 1,
    seed: int = 0,
) -> WindowSet:
    """Sliding windows over every track, tracks in id order. Each window gets
    a bank pose, drawn in window order, rotated about its root to the
    window's final heading and moved to the last observed position, and the
    root velocity of the past's last step.

    The poses are aligned as arrays, with the bits of rotating each window's
    pose alone, joint by joint (reference_windows in tests/test_datakit.py):
    the angles go through math per element (wrap_angles, rotation_matrices)
    and each joint is rotated by a stacked matmul."""
    if past_frames < 2:
        raise ConfigError("past_frames must be >= 2 (velocity needs two frames)")
    if future_frames < 2:
        raise ConfigError("future_frames must be >= 2 (a trajectory needs two points)")
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    if not pose_bank:
        raise DataError("empty pose bank")
    bank_joints, _, bank_heading = _bank_arrays(pose_bank)
    spans = _spans(dataset, past_frames + future_frames, stride)
    past = spans[:, :past_frames]
    last_step = past[:, -1] - past[:, -2]
    target = np.where(_row_norms(last_step) > 1e-9,
                      _map(math.atan2, last_step[:, 1], last_step[:, 0]), 0.0)
    pose = np.random.default_rng(seed).integers(len(pose_bank), size=len(spans))
    bank = bank_joints[pose]
    rots = rotation_matrices(wrap_angles(target - bank_heading[pose]))
    pivot = bank[:, PELVIS, None, :2]
    joints = bank.copy()
    joints[:, :, :2] = ((rots[:, None] @ (bank[:, :, :2] - pivot)[..., None])[..., 0]
                        + pivot + (past[:, -1, None] - pivot))
    return WindowSet(past, spans[:, past_frames:], joints, last_step / dataset.dt, dataset.dt)

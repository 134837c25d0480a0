"""Shared fixtures. The expensive ones (trained scorer, labeled dataset) are
session-scoped so the property tests and the acceptance suite reuse them."""

import base64
import os

import numpy as np
import pytest
from hypothesis import settings

from plaustraj import datakit, locoval, oracle
from plaustraj.gradcore import TrainConfig

# GitHub Actions sets CI; there a failing property prints the blob that replays
# it locally with @reproduce_failure. Recent Hypothesis versions already load a
# built-in "ci" profile there, which this one derives from; older ones have none.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


# what the scorer writer wrote at schema 2: the model entry's fields, and the
# version twice, at the top and as locoval_schema_version
SCHEMA_2_LOCOVAL = {
    "schema_version": 2, "layer_sizes": [50, 1], "hidden_activation": "relu",
    "output_activation": "sigmoid", "params": base64.b64encode(bytes(8 * 51)).decode("ascii"),
    "seed": 14, "train_config": None, "locoval_schema_version": 2,
    "feature_layout": {"horizon": 12, "joint_count": 8, "include_pose": True,
                       "include_velocity": True},
}


def observable_of(state):
    """The observable part of a HumanoidState: its joints and root velocity."""
    return oracle.ObservableState(joints=state.joints, root_velocity=state.root_velocity.copy())


def transformed_state(state, angle=0.0, translation=(0.0, 0.0), pivot=(0.0, 0.0)):
    """A HumanoidState moved rigidly about the vertical axis: rotated by angle
    about pivot, then translated, each joint rotated alone by a (2, 2) by (2,)
    matmul. The arrays that datakit.make_training_instances aligns match it
    bit for bit."""
    rot = oracle.rotation_matrix(angle)
    pivot = np.asarray(pivot, dtype=float)
    translation = np.asarray(translation, dtype=float)
    joints = {}
    for name, pos in state.joints.items():
        xy = rot @ (pos[:2] - pivot) + pivot + translation
        joints[name] = np.array([xy[0], xy[1], pos[2]])
    return oracle.HumanoidState(joints=joints, heading=oracle.wrap_angle(state.heading + angle),
                                root_velocity=rot @ state.root_velocity)


def transformed_trajectory(traj, angle=0.0, translation=(0.0, 0.0), pivot=(0.0, 0.0)):
    """A Trajectory moved as transformed_state moves a state."""
    rot = oracle.rotation_matrix(angle)
    pivot = np.asarray(pivot, dtype=float)
    pts = (traj.points - pivot) @ rot.T + pivot + np.asarray(translation, dtype=float)
    return oracle.Trajectory(pts, traj.dt)


def make_observable(heading=0.0, speed=1.2, root=(0.0, 0.0)):
    """A clean walking pose as an ObservableState, placed and oriented."""
    state = datakit.make_walking_pose(heading, speed)
    state = transformed_state(state, translation=np.asarray(root, dtype=float)
                              - state.root_position)
    return observable_of(state)


def straight_trajectory(n=12, speed=1.2, heading=0.0, start=(0.0, 0.0), dt=0.4):
    direction = np.array([np.cos(heading), np.sin(heading)])
    pts = np.asarray(start, dtype=float) + np.outer(
        np.arange(1, n + 1) * speed * dt, direction
    )
    return oracle.Trajectory(pts, dt)


def state_of(pairs, k):
    """State k of a PairSet as an ObservableState."""
    return oracle.ObservableState(dict(zip(oracle.REQUIRED_JOINTS, pairs.joints[k])),
                                  pairs.velocity[k])


def pair_of(pairs, i):
    """(trajectory, observable) of pair i of a PairSet."""
    return oracle.Trajectory(pairs.points[i], pairs.dt), state_of(pairs, pairs.state[i])


def pair_set(points, rewards, plausible, state, observables, dt):
    """A PairSet whose states are the given ObservableStates."""
    return oracle.PairSet(points, rewards, plausible, state,
                          np.stack([o.joint_array() for o in observables]),
                          np.stack([o.root_velocity for o in observables]), dt)


@pytest.fixture(scope="session")
def pose_bank():
    return datakit.generate_pose_bank(32, seed=11)


@pytest.fixture(scope="session")
def traj_bank():
    cfg = datakit.SyntheticConfig()
    return datakit.future_slices(datakit.generate_synthetic(cfg, 20, seed=12), 12, 4)


@pytest.fixture(scope="session")
def plausibility_dataset(pose_bank, traj_bank):
    return oracle.build_plausibility_dataset(pose_bank, traj_bank, 120, 120, seed=13)


@pytest.fixture(scope="session")
def trained_scorer(plausibility_dataset):
    """Small scorer, enough training to separate plausible from implausible."""
    config = TrainConfig(learning_rate=1e-3, total_steps=600, batch_size=64,
                         seed=14, schedule="cosine")
    result = locoval.train_locoval(
        plausibility_dataset, config, hidden=(64, 64), holdout_fraction=0.1
    )
    return result


@pytest.fixture(scope="session")
def training_instances(pose_bank):
    cfg = datakit.SyntheticConfig()
    dataset = datakit.generate_synthetic(cfg, 15, seed=15)
    return datakit.make_training_instances(
        dataset, pose_bank, past_frames=9, future_frames=12, stride=3, seed=16
    )


def awkward_observables(n=12, seed=0):
    """Observables whose headings take every branch: a shoulder line, then
    the root velocity where the shoulders coincide on the ground plane (or
    lie within 1e-9 of each other), then 0.0 where the root stands still too."""
    rng = np.random.default_rng(seed)
    observables = []
    for i in range(n):
        obs = make_observable(heading=rng.uniform(-np.pi, np.pi), speed=rng.uniform(0.3, 2.0),
                              root=tuple(rng.normal(0.0, 5.0, size=2)))
        joints, velocity = dict(obs.joints), obs.root_velocity
        if i % 3 == 1:
            joints["left_shoulder"] = joints["right_shoulder"] + [0.0, 0.0, 0.1]
        if i % 5 == 4:
            joints["left_shoulder"] = joints["right_shoulder"] + [5e-10, -5e-10, 0.0]
        if i % 4 == 2:
            velocity = np.zeros(2)
        observables.append(oracle.ObservableState(joints, velocity))
    return observables

import dataclasses
import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_observable, straight_trajectory
from plaustraj import datakit, metrics
from plaustraj.errors import ConfigError, InputShapeError
from plaustraj.filtering import (WindowEval, _partition, evaluate_windows, locoval_filter,
                                 sweep_lambda)
from plaustraj.locoval import FeatureLayout, build_locoval, score_batch
from plaustraj.oracle import Trajectory, TrajectorySet
from plaustraj.predictor import InputLayout, build_predictor, predict


class StubScorer:
    """Stands in for a trained scorer: returns canned scores by candidate
    identity, so threshold behavior can be pinned exactly."""

    def __init__(self, scores):
        self.scores = list(scores)
        self.layout = FeatureLayout(horizon=12)


@pytest.fixture
def patched_score_batch(monkeypatch):
    def fake(scorer, candidates, obs):
        return list(scorer.scores[: len(candidates)])

    monkeypatch.setattr("plaustraj.filtering.score_batch", fake)
    return fake


def candidates(n=3):
    return [straight_trajectory(n=12, speed=0.5 + 0.3 * k) for k in range(n)]


def test_filter_threshold_branch(patched_score_batch):
    result = locoval_filter(StubScorer([0.9, 0.5]), candidates(2), make_observable(), 0.7)
    assert result.kept_indices() == [0]
    assert [k for k, _, _ in result.rejected] == [1]
    assert not result.fallback_used


def test_filter_fallback_branch(patched_score_batch):
    result = locoval_filter(
        StubScorer([0.3, 0.2, 0.1]), candidates(3), make_observable(), 0.7
    )
    assert result.fallback_used
    assert result.kept_indices() == [0]
    assert len(result.rejected) == 2


def test_filter_fallback_tie_low_index(patched_score_batch):
    result = locoval_filter(
        StubScorer([0.4, 0.4, 0.4]), candidates(3), make_observable(), 0.7
    )
    assert result.fallback_used
    assert result.kept_indices() == [0]


def test_filter_lambda_zero_keeps_everything():
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=0)
    result = locoval_filter(scorer, candidates(4), make_observable(), 0.0)
    assert len(result.kept) == 4
    assert not result.fallback_used


def test_filter_empty_candidates():
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=0)
    with pytest.raises(InputShapeError):
        locoval_filter(scorer, [], make_observable(), 0.5)


def test_filter_threshold_out_of_range():
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=0)
    with pytest.raises(ConfigError):
        locoval_filter(scorer, candidates(2), make_observable(), 1.5)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 8),
    lam=st.floats(0.0, 1.0),
)
def test_filter_partition_and_fallback_soundness(seed, k, lam):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.01, 0.99, size=k).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "plaustraj.filtering.score_batch", lambda s, c, o: scores[: len(c)]
        )
        result = locoval_filter(StubScorer(scores), candidates(k), make_observable(), lam)
    assert len(result.kept) + len(result.rejected) == k
    assert len(result.kept) >= 1
    assert result.fallback_used == (max(scores) < lam)
    if result.fallback_used:
        assert len(result.kept) == 1
        assert result.kept[0][0] == int(np.argmax(scores))
    indices = sorted(
        [i for i, _, _ in result.kept] + [i for i, _, _ in result.rejected]
    )
    assert indices == list(range(k))


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), lam1=st.floats(0.0, 1.0), lam2=st.floats(0.0, 1.0))
def test_kept_set_monotone_in_lambda(seed, lam1, lam2):
    lam1, lam2 = min(lam1, lam2), max(lam1, lam2)
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.01, 0.99, size=5).tolist()
    cands = candidates(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "plaustraj.filtering.score_batch", lambda s, c, o: scores[: len(c)]
        )
        r1 = locoval_filter(StubScorer(scores), cands, make_observable(), lam1)
        r2 = locoval_filter(StubScorer(scores), cands, make_observable(), lam2)
    if not r1.fallback_used and not r2.fallback_used:
        assert set(r2.kept_indices()) <= set(r1.kept_indices())


def test_filter_plug_and_play():
    """Output depends only on (candidates, observable, lambda), not on any
    model that produced them: identical inputs from different sources give
    identical results."""
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=5)
    obs = make_observable()
    cands_a = candidates(3)
    cands_b = [Trajectory(t.points.copy(), t.dt) for t in cands_a]
    ra = locoval_filter(scorer, cands_a, obs, 0.6)
    rb = locoval_filter(scorer, cands_b, obs, 0.6)
    assert ra.kept_indices() == rb.kept_indices()
    assert [s for _, _, s in ra.kept] == [s for _, _, s in rb.kept]


def test_evaluate_windows_equals_per_window_scores_and_per_head_ades(pose_bank):
    """The reference is the per-window score_batch and per-head metrics.ade
    loop that eval and criteria 5 and 8 once ran, on 60 windows x 20 heads."""
    dataset = datakit.generate_synthetic(datakit.SyntheticConfig(), 30, seed=21)
    windows = datakit.make_training_instances(dataset, pose_bank, 9, 12, stride=3, seed=22)[:60]
    model = build_predictor(InputLayout(past_frames=9), 12, 20, trunk_hidden=(32, 32), seed=9)
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(16,), seed=9)
    got = evaluate_windows(model, windows, scorer, n_bins=20)
    assert got.scores.shape == got.ades.shape == (60, 20)
    for w, inst in enumerate(windows):
        heads = predict(model, inst.past, inst.observable).trajectories
        assert [t.points.tobytes() for t in got.heads[w]] == [t.points.tobytes() for t in heads]
        assert got.truths[w].points.tobytes() == inst.future.points.tobytes()
        assert got.scores[w].tolist() == score_batch(scorer, heads, inst.observable)
        assert got.ades[w].tolist() == [metrics.ade(t, inst.future) for t in heads]
    assert got.report == metrics.evaluate_predictions(got.heads, got.truths, n_bins=20)
    # lambda 0 keeps every head, so the kept report is the report, bins and all
    assert sweep_lambda(got, [0.0])[0].kept_report == got.report
    assert evaluate_windows(model, windows).scores is None


def scored_windows(sets, scores, gt):
    """The evaluation of candidate sets with the given scores, every window
    with ground truth gt."""
    truths = [gt] * len(sets)
    return WindowEval(sets, truths, scores, [[metrics.ade(t, gt) for t in c] for c in sets],
                      metrics.evaluate_predictions(sets, truths), metrics.DEFAULT_N_BINS)


def test_sweep_lambda_matches_direct_filter():
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=6)
    obs = make_observable()
    gt = straight_trajectory(n=12, speed=1.0)
    sets = [candidates(4), candidates(3)[::-1]]
    evaluation = scored_windows(sets, [score_batch(scorer, c, obs) for c in sets], gt)
    for entry in sweep_lambda(evaluation, [0.3, 0.5, 0.7]):
        direct = [locoval_filter(scorer, c, obs, entry.threshold) for c in sets]
        assert entry.rejection_rate == pytest.approx(sum(len(r.rejected) for r in direct) / 7)
        assert entry.fallback_cases == sum(r.fallback_used for r in direct)


def test_sweep_rejection_rate_monotone():
    rng = np.random.default_rng(17)
    gt = straight_trajectory(n=12)
    scores = np.array([rng.uniform(0.05, 0.95, size=4) for _ in range(6)])
    entries = sweep_lambda(scored_windows([candidates(4) for _ in range(6)], scores, gt),
                           [0.2, 0.5, 0.8])
    rates = [e.rejection_rate for e in entries]
    assert rates == sorted(rates)


def test_sweep_validates_thresholds():
    with pytest.raises(ConfigError):
        sweep_lambda([], [0.5, 1.2])


def test_filter_report_json():
    """The per-case document the filter command writes survives JSON."""
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=8)
    result = locoval_filter(scorer, candidates(3), make_observable(), 0.5)
    doc = json.loads(json.dumps(result.to_json_dict()))
    assert doc["lambda"] == 0.5
    assert len(doc["kept"]) + len(doc["rejected"]) == 3
    assert {"head", "score"} <= set(doc["kept"][0])


# ---------------------------------------------------------------------------
# the array partition against the list rule it replaced


def reference_partition(candidates, scores, threshold):
    """The per-candidate list rule: (kept, rejected, fallback_used)."""
    kept, rejected = [], []
    if any(s >= threshold for s in scores):
        for k, (traj, s) in enumerate(zip(candidates, scores)):
            (kept if s >= threshold else rejected).append((k, traj, s))
        return kept, rejected, False
    best = int(np.argmax(scores))
    for k, (traj, s) in enumerate(zip(candidates, scores)):
        (kept if k == best else rejected).append((k, traj, s))
    return kept, rejected, True


def entry_bytes(entries):
    return [(k, t.points.tobytes(), t.dt, s) for k, t, s in entries]


@pytest.mark.parametrize("scores, threshold", [
    ([0.7, 0.6999999999999999, 0.9, 0.7, 0.2], 0.7),   # scores exactly at the threshold
    ([0.3, 0.5, 0.1, 0.5, 0.5], 0.7),                   # fallback, tied maxima
    ([0.4, 0.4, 0.4], 0.7),                             # fallback, all tied
    ([0.2], 0.7),                                       # K=1, fallback
    ([0.7], 0.7),                                       # K=1, at the threshold
    ([0.9], 0.7),                                       # K=1, kept
    ([0.0, 0.3], 0.0),                                  # lambda 0 keeps every head
    ([0.99, 1.0], 1.0),                                 # lambda 1
])
def test_partition_equals_the_list_rule(scores, threshold):
    points = np.cumsum(np.random.default_rng(len(scores)).normal(size=(len(scores), 12, 2)),
                       axis=1)
    heads = TrajectorySet(points, 0.4)
    kept, rejected, fallback = reference_partition(list(heads), scores, threshold)
    for candidates in (heads, list(heads)):
        result = _partition(candidates, scores, threshold)
        assert entry_bytes(result.kept) == entry_bytes(kept)
        assert entry_bytes(result.rejected) == entry_bytes(rejected)
        assert result.kept_indices() == [k for k, _, _ in kept]
        assert result.fallback_used is fallback
        assert json.dumps(result.to_json_dict()) == json.dumps({
            "lambda": threshold,
            "kept": [{"head": k, "score": s} for k, _, s in kept],
            "rejected": [{"head": k, "score": s} for k, _, s in rejected],
            "fallback_used": fallback,
        })


def test_partition_checks_the_score_count():
    with pytest.raises(InputShapeError, match="3 candidates but scores of shape"):
        _partition(candidates(3), [0.5, 0.9], 0.7)


def test_served_case_is_held_as_arrays():
    """predict gives one (K, T_f, 2) array; the filter result holds that set,
    a score array and a keep mask, and builds Trajectory objects only when
    kept or rejected is read, anew on each read."""
    model = build_predictor(InputLayout(past_frames=9), 12, 5, trunk_hidden=(16,), seed=3)
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=3)
    obs = make_observable()
    past = straight_trajectory(n=9)
    heads = predict(model, past, obs).trajectories
    assert isinstance(heads, TrajectorySet)
    assert heads.points.shape == (5, 12, 2) and heads.points.dtype == np.float64
    result = locoval_filter(scorer, heads, obs, 0.5)
    assert result.candidates is heads
    assert result.scores.shape == result.keep.shape == (5,)
    held = [getattr(result, f.name) for f in dataclasses.fields(result)]
    held += gc.get_referents(heads)
    assert not any(isinstance(o, (Trajectory, list)) for o in held)
    assert not any(isinstance(o, Trajectory) for o in gc.get_referents(result))
    first, again = result.kept + result.rejected, result.kept + result.rejected
    assert all(a is not b and np.shares_memory(a.points, heads.points)
               for (_, a, _), (_, b, _) in zip(first, again))
    assert sorted(k for k, _, _ in first) == list(range(5))

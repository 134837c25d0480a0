import dataclasses
import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_observable, straight_trajectory
from plaustraj import datakit, gradcore, metrics
from plaustraj.errors import ConfigError, InputShapeError
from plaustraj.filtering import (WindowEval, _filter_rule, _partition, evaluate_windows,
                                 locoval_filter, sweep_lambda)
from plaustraj.locoval import FeatureLayout, build_locoval, score_batch, score_heads
from plaustraj.oracle import Trajectory, TrajectorySet
from plaustraj.predictor import InputLayout, build_predictor, predict, predict_heads
from test_locoval import ONE_ROW_ATOL


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


def eval_set(pose_bank, n):
    """n windows, a K=20 predictor and a scorer for them."""
    dataset = datakit.generate_synthetic(datakit.SyntheticConfig(), 30, seed=21)
    windows = datakit.make_training_instances(dataset, pose_bank, 9, 12, stride=3, seed=22)[:n]
    model = build_predictor(InputLayout(past_frames=9), 12, 20, trunk_hidden=(32, 32), seed=9)
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(16,), seed=9)
    return windows, model, scorer


def test_evaluate_windows_is_one_set_forward_within_one_row_atol_of_per_window(pose_bank):
    """The eval contract on 60 windows x 20 heads: the heads and scores are
    one predict_heads and one score_heads over the set, bit for bit; they
    agree with per-window predict and score_batch within ONE_ROW_ATOL; the
    ADEs and the report are those of the heads, bit for bit."""
    windows, model, scorer = eval_set(pose_bank, 60)
    got = evaluate_windows(model, windows, scorer)
    heads = predict_heads(model, windows.past, windows.joints)
    assert got.heads.shape == (60, 20, 12, 2) and got.heads.tobytes() == heads.tobytes()
    assert got.scores.tobytes() == score_heads(scorer, heads, windows.joints,
                                               windows.velocity).tobytes()
    assert got.truths.tobytes() == windows.future.tobytes() and got.dt == windows.dt
    for w, inst in enumerate(windows):
        one = predict(model, inst.past, inst.observable).trajectories
        np.testing.assert_allclose(got.heads[w], one.points, rtol=0.0, atol=ONE_ROW_ATOL)
        np.testing.assert_allclose(got.scores[w], score_batch(scorer, one, inst.observable),
                                   rtol=0.0, atol=ONE_ROW_ATOL)
    sets = [TrajectorySet(h, windows.dt) for h in got.heads]
    truths = [Trajectory(g, windows.dt) for g in got.truths]
    assert got.ades.tolist() == [[metrics.ade(t, gt) for t in c] for c, gt in zip(sets, truths)]
    assert got.report == metrics.evaluate_predictions(sets, truths)
    # lambda 0 keeps every head, so the kept report is the report, bins and all
    assert sweep_lambda(got, [0.0])[0].kept_report == got.report
    assert evaluate_windows(model, windows).scores is None


@pytest.mark.parametrize("n", [1, 7, 60])
def test_evaluate_windows_runs_one_trunk_one_head_one_scorer_forward(pose_bank, monkeypatch, n):
    windows, model, scorer = eval_set(pose_bank, n)
    calls = []
    forward = gradcore.forward
    monkeypatch.setattr(gradcore, "forward", lambda m, x: calls.append(len(x)) or forward(m, x))
    evaluate_windows(model, windows, scorer)
    assert calls == [n, n, 20 * n]


def test_evaluate_windows_non_finite_head_is_an_input_shape_error(pose_bank):
    windows, model, scorer = eval_set(pose_bank, 7)
    model.head.biases[0][5] = np.inf
    with pytest.raises(InputShapeError, match="^trajectory contains non-finite coordinates$"):
        evaluate_windows(model, windows, scorer)


def scored_windows(sets, scores, gt):
    """The evaluation of candidate sets of one size with the given scores,
    every window with ground truth gt."""
    heads = np.stack([[t.points for t in c] for c in sets])
    n, k = heads.shape[:2]
    truths = np.repeat(gt.points[None], n, axis=0)
    report = metrics.evaluate_arrays(heads.reshape(n * k, -1, 2), np.full(n, k), truths, gt.dt)
    return WindowEval(heads, truths, gt.dt, np.asarray(scores),
                      np.array([[metrics.ade(t, gt) for t in c] for c in sets]), report)


def test_sweep_lambda_matches_direct_filter():
    """Each threshold's rejection rate, fallback count and kept and rejected
    reports are those of locoval_filter window by window."""
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=6)
    obs = make_observable()
    gt = straight_trajectory(n=12, speed=1.0)
    sets = [candidates(4), candidates(4)[::-1], candidates(5)[1:]]
    evaluation = scored_windows(sets, [score_batch(scorer, c, obs) for c in sets], gt)
    for entry in sweep_lambda(evaluation, [0.0, 0.3, 0.5, 0.7, 1.0]):
        direct = [locoval_filter(scorer, c, obs, entry.threshold) for c in sets]
        assert entry.rejection_rate == sum(len(r.rejected) for r in direct) / 12
        assert entry.fallback_cases == sum(r.fallback_used for r in direct)
        kept = [[t for _, t, _ in r.kept] for r in direct]
        assert entry.kept_report == metrics.evaluate_predictions(kept, [gt] * 3)
        rejected = [[t for _, t, _ in r.rejected] for r in direct if r.rejected]
        want = metrics.evaluate_predictions(rejected, [gt] * len(rejected)) if rejected else None
        assert entry.rejected_report == want


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


FIXED_VECTORS = [
    ([0.7, 0.6999999999999999, 0.9, 0.7, 0.2], 0.7),   # scores exactly at the threshold
    ([0.3, 0.5, 0.1, 0.5, 0.5], 0.7),                   # fallback, tied maxima
    ([0.4, 0.4, 0.4], 0.7),                             # fallback, all tied
    ([0.2], 0.7),                                       # K=1, fallback
    ([0.7], 0.7),                                       # K=1, at the threshold
    ([0.9], 0.7),                                       # K=1, kept
    ([0.0, 0.3], 0.0),                                  # lambda 0 keeps every head
    ([0.99, 1.0], 1.0),                                 # lambda 1
]


@pytest.mark.parametrize("scores, threshold", FIXED_VECTORS)
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


def test_filter_rule_over_a_score_matrix_equals_the_list_rule_row_by_row():
    """The rule over (N, K) scores, as sweep_lambda applies it, keeps each
    row's heads of the list rule, at every fixed vector's threshold."""
    for threshold in sorted({t for _, t in FIXED_VECTORS}):
        for k in sorted({len(s) for s, _ in FIXED_VECTORS}):
            rows = np.array([s for s, _ in FIXED_VECTORS if len(s) == k])
            keep, fallback = _filter_rule(rows, threshold)
            assert keep.shape == rows.shape and fallback.shape == (len(rows),)
            for scores, mask, fell_back in zip(rows, keep, fallback):
                kept, _, want = reference_partition(range(k), scores.tolist(), threshold)
                assert np.flatnonzero(mask).tolist() == [i for i, _, _ in kept]
                assert fell_back == want


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

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_observable, straight_trajectory
from plaustraj.errors import ConfigError, InputShapeError
from plaustraj.filtering import locoval_filter, sweep_lambda
from plaustraj.locoval import FeatureLayout, build_locoval, score_batch
from plaustraj.oracle import Trajectory


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


def test_sweep_lambda_matches_direct_filter():
    scorer = build_locoval(FeatureLayout(horizon=12), hidden=(8,), seed=6)
    obs = make_observable()
    gt = straight_trajectory(n=12, speed=1.0)
    sets = [candidates(4), candidates(3)[::-1]]
    cases = [(c, score_batch(scorer, c, obs), gt) for c in sets]
    for entry in sweep_lambda(cases, [0.3, 0.5, 0.7]):
        direct = [locoval_filter(scorer, c, obs, entry.threshold) for c in sets]
        assert entry.rejection_rate == pytest.approx(sum(len(r.rejected) for r in direct) / 7)
        assert entry.fallback_cases == sum(r.fallback_used for r in direct)


def test_sweep_rejection_rate_monotone():
    rng = np.random.default_rng(17)
    gt = straight_trajectory(n=12)
    cases = [(candidates(4), rng.uniform(0.05, 0.95, size=4).tolist(), gt) for _ in range(6)]
    entries = sweep_lambda(cases, [0.2, 0.5, 0.8])
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

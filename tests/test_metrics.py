import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaustraj import metrics
from plaustraj.errors import ConfigError, InputShapeError
from plaustraj.metrics import (
    DEFAULT_N_BINS,
    PRIMITIVES,
    STATIONARY_EPS,
    EVAL_BLOCK,
    HistogramSpec,
    MetricsReport,
    ade,
    bin_by_plausibility,
    chi2_distance,
    evaluate_predictions,
    fde,
    histogram_spec_from_samples,
    pearson_r,
    per_timestep_errors,
    physics_primitives,
    spearman_rho,
)
from plaustraj.oracle import Trajectory, wrap_angle


def traj(pts, dt=0.4):
    return Trajectory(np.asarray(pts, dtype=float), dt)


def random_traj(rng, n=8):
    return traj(rng.normal(scale=2.0, size=(n, 2)))


def min_over_heads(metric, trajectories, gt):
    if not trajectories:
        raise InputShapeError("need at least one head")
    return min(metric(t, gt) for t in trajectories)


# ---------------------------------------------------------------------------
# Reference: every metric one trajectory at a time. The array core in
# plaustraj.metrics must reproduce it bit for bit.


def ref_errors(pred, gt):
    if len(pred) != len(gt):
        raise InputShapeError("prediction/ground-truth length mismatch")
    return np.linalg.norm(pred.points - gt.points, axis=1)


def ref_ade(pred, gt):
    return float(np.mean(ref_errors(pred, gt)))


def ref_fde(pred, gt):
    ref_errors(pred, gt)
    return float(np.linalg.norm(pred.points[-1] - gt.points[-1]))


def ref_physics_primitives(t):
    if len(t) < 4:
        raise InputShapeError("need at least 4 points for all physics primitives")
    dt = t.dt
    disp = np.diff(t.points, axis=0)
    speeds = np.linalg.norm(disp, axis=1) / dt
    accel = np.diff(speeds) / dt
    headings = np.empty(len(disp))
    prev = 0.0
    for i, d in enumerate(disp):
        if np.linalg.norm(d) >= STATIONARY_EPS:
            prev = math.atan2(d[1], d[0])
        headings[i] = prev
    ang_vel = np.array(
        [wrap_angle(headings[i + 1] - headings[i]) / dt for i in range(len(headings) - 1)]
    )
    ang_acc = np.diff(ang_vel) / dt
    return {"velocity": speeds, "acceleration": accel, "angular_velocity": ang_vel,
            "angular_acceleration": ang_acc}


def ref_evaluate_predictions(prediction_sets, ground_truths, n_bins=DEFAULT_N_BINS):
    if len(prediction_sets) != len(ground_truths) or not prediction_sets:
        raise InputShapeError("need matching, non-empty prediction and ground-truth lists")
    per_ts_sum = np.zeros(len(ground_truths[0]))
    ades, fdes, min_ades, min_fdes = [], [], [], []
    pred_prims = {p: [] for p in PRIMITIVES}
    gt_prims = {p: [] for p in PRIMITIVES}
    n_traj = 0
    for heads, gt in zip(prediction_sets, ground_truths):
        case_ades = [ref_ade(t, gt) for t in heads]
        case_fdes = [ref_fde(t, gt) for t in heads]
        for t in heads:
            per_ts_sum += ref_errors(t, gt)
            n_traj += 1
            for p, v in ref_physics_primitives(t).items():
                pred_prims[p].append(v)
        ades.extend(case_ades)
        fdes.extend(case_fdes)
        min_ades.append(min(case_ades))
        min_fdes.append(min(case_fdes))
        for p, v in ref_physics_primitives(gt).items():
            gt_prims[p].append(v)
    chi2, specs = {}, {}
    for p in PRIMITIVES:
        gt_all = np.concatenate(gt_prims[p])
        spec = histogram_spec_from_samples(gt_all, n_bins=n_bins)
        specs[p] = asdict(spec)
        chi2[p] = chi2_distance(np.concatenate(pred_prims[p]), gt_all, spec)
    return MetricsReport(
        ade=float(np.mean(ades)), fde=float(np.mean(fdes)),
        min_ade=float(np.mean(min_ades)), min_fde=float(np.mean(min_fdes)),
        chi2=chi2, per_timestep=(per_ts_sum / n_traj).tolist(),
        n_samples=len(prediction_sets), histogram_specs=specs,
    )


def report_bytes(report):
    return json.dumps(report.to_json_dict(), indent=2)


def assert_matches_reference(cases, gts, **kwargs):
    got = evaluate_predictions(cases, gts, **kwargs)
    assert report_bytes(got) == report_bytes(ref_evaluate_predictions(cases, gts, **kwargs))
    return got


# ---------------------------------------------------------------------------
# displacement errors


def test_ade_fde_zero_on_identical():
    t = traj([[0, 0], [1, 0], [2, 0]])
    assert ade(t, t) == 0.0
    assert fde(t, t) == 0.0


def test_ade_uniform_offset():
    a = traj([[0, 0], [1, 0], [2, 0]])
    b = traj([[0, 1], [1, 1], [2, 1]])
    assert ade(a, b) == pytest.approx(1.0)


def test_fde_three_four_five():
    a = traj([[0, 0], [1, 1]])
    b = traj([[0, 0], [4, 5]])
    assert fde(a, b) == pytest.approx(5.0)


def test_ade_fde_hand_instance():
    # distances per frame: 0.5, 1.0, 1.5 → ade 1.0, fde 1.5 (worked by hand)
    a = traj([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    b = traj([[0.5, 0.0], [1.0, 0.0], [2.0, -1.5]])
    assert ade(a, b) == pytest.approx(1.0)
    assert fde(a, b) == pytest.approx(1.5)
    np.testing.assert_allclose(per_timestep_errors(a, b), [0.5, 1.0, 1.5])


def test_length_mismatch_raises():
    with pytest.raises(InputShapeError):
        ade(traj([[0, 0], [1, 0]]), traj([[0, 0], [1, 0], [2, 0]]))


def test_min_over_heads():
    gt = traj([[0, 0], [1, 0], [2, 0]])
    exact = traj(gt.points.copy())
    off = traj(gt.points + 3.0)
    assert min_over_heads(ade, [off, exact], gt) == 0.0
    assert min_over_heads(ade, [off], gt) == ade(off, gt)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 5))
def test_min_over_heads_brute_force(seed, k):
    rng = np.random.default_rng(seed)
    gt = random_traj(rng)
    heads = [random_traj(rng) for _ in range(k)]
    assert min_over_heads(ade, heads, gt) == min(ade(h, gt) for h in heads)


# ---------------------------------------------------------------------------
# physics primitives


def test_primitives_straight_line():
    pts = np.outer(np.arange(10), [1.0, 0.0])
    prims = physics_primitives(traj(pts, dt=0.5))
    np.testing.assert_allclose(prims["velocity"], 2.0)
    np.testing.assert_allclose(prims["acceleration"], 0.0, atol=1e-12)
    np.testing.assert_allclose(prims["angular_velocity"], 0.0, atol=1e-12)
    np.testing.assert_allclose(prims["angular_acceleration"], 0.0, atol=1e-12)


def test_primitives_circle_angular_velocity():
    # closed form: constant speed v on a radius-r circle turns at v/r rad/s
    r, omega, dt = 3.0, 0.5, 0.1
    ts = np.arange(40) * dt
    pts = r * np.stack([np.cos(omega * ts), np.sin(omega * ts)], axis=1)
    prims = physics_primitives(traj(pts, dt=dt))
    v = prims["velocity"].mean()
    np.testing.assert_allclose(prims["angular_velocity"], v / r, rtol=2e-3)


def test_primitives_stationary():
    pts = np.zeros((6, 2))
    prims = physics_primitives(traj(pts))
    np.testing.assert_allclose(prims["velocity"], 0.0)
    np.testing.assert_allclose(prims["angular_velocity"], 0.0)


def test_primitives_too_short():
    with pytest.raises(InputShapeError):
        physics_primitives(traj([[0, 0], [1, 0], [2, 0]]))


def test_primitives_heading_carries_through_pause():
    # a pause in the middle must not produce a spurious heading jump
    pts = np.array([[0, 0], [1, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    prims = physics_primitives(traj(pts))
    np.testing.assert_allclose(prims["angular_velocity"], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# chi-square


def test_chi2_identical_zero():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    spec = histogram_spec_from_samples(x)
    assert chi2_distance(x, x, spec) == 0.0


def test_chi2_disjoint_supports():
    spec = HistogramSpec(n_bins=10, lo=0.0, hi=10.0)
    assert chi2_distance([1.0, 1.2], [8.0, 8.5], spec) == pytest.approx(2.0)


def test_chi2_hand_instance():
    # 4 bins over [0,4]; p = [.25,.5,.25,0], q = [.5,0,0,.5] → 4/3 by hand
    spec = HistogramSpec(n_bins=4, lo=0.0, hi=4.0)
    pred = [0.5, 1.5, 1.5, 2.5]
    gt = [0.5, 0.5, 3.5, 3.5]
    assert chi2_distance(pred, gt, spec) == pytest.approx(4.0 / 3.0, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_chi2_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=50)
    b = rng.normal(loc=rng.uniform(-3, 3), size=50)
    spec = HistogramSpec(n_bins=20, lo=-8.0, hi=8.0)
    d_ab = chi2_distance(a, b, spec)
    d_ba = chi2_distance(b, a, spec)
    assert d_ab == d_ba
    assert 0.0 <= d_ab <= 2.0


def test_chi2_empty_raises():
    spec = HistogramSpec(n_bins=4, lo=0.0, hi=1.0)
    with pytest.raises(InputShapeError):
        chi2_distance([], [1.0], spec)


def test_histogram_spec_validation():
    with pytest.raises(ConfigError):
        HistogramSpec(n_bins=1, lo=0.0, hi=1.0)
    with pytest.raises(ConfigError):
        HistogramSpec(n_bins=4, lo=1.0, hi=1.0)


def test_histogram_spec_from_samples_margin():
    spec = histogram_spec_from_samples([0.0, 10.0], n_bins=10)
    assert spec.lo == pytest.approx(-0.5)
    assert spec.hi == pytest.approx(10.5)


# ---------------------------------------------------------------------------
# binning + correlations


def test_bin_by_plausibility_mass_in_last_bin():
    bins = bin_by_plausibility([0.95] * 7, [1.0] * 7, n_bins=10)
    assert bins[9]["count"] == 7
    assert sum(b["count"] for b in bins) == 7


def test_bin_by_plausibility_empty():
    bins = bin_by_plausibility([], [], n_bins=5)
    assert all(b["count"] == 0 for b in bins)


def test_bin_by_plausibility_rejects_out_of_range():
    with pytest.raises(InputShapeError):
        bin_by_plausibility([1.2], [0.5])


def test_spearman_monotone():
    x = [1.0, 2.0, 3.0, 4.0]
    assert spearman_rho(x, [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman_rho(x, [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_pearson_known_value():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 3], [1, 1, 1]) == 0.0


# ---------------------------------------------------------------------------
# aggregation


def test_evaluate_predictions_report_consistency():
    rng = np.random.default_rng(7)
    cases = [[random_traj(rng), random_traj(rng)] for _ in range(6)]
    gts = [random_traj(rng) for _ in range(6)]
    report = evaluate_predictions(cases, gts, n_bins=16)
    # per-timestep decomposition must average back to the ADE
    assert np.mean(report.per_timestep) == pytest.approx(report.ade, abs=1e-9)
    assert report.min_ade <= report.ade + 1e-12
    assert report.min_fde <= report.fde + 1e-12
    assert set(report.chi2) == {
        "velocity", "acceleration", "angular_velocity", "angular_acceleration"
    }
    assert all(0.0 <= v <= 2.0 for v in report.chi2.values())
    assert report.n_samples == 6


def test_evaluate_predictions_rigid_invariance():
    rng = np.random.default_rng(8)
    cases = [[random_traj(rng)] for _ in range(4)]
    gts = [random_traj(rng) for _ in range(4)]
    base = evaluate_predictions(cases, gts)
    angle, shift = 1.3, (4.0, -2.0)
    moved = evaluate_predictions(
        [[t.transformed(angle=angle, translation=shift) for t in c] for c in cases],
        [g.transformed(angle=angle, translation=shift) for g in gts],
    )
    assert moved.ade == pytest.approx(base.ade, abs=1e-9)
    assert moved.fde == pytest.approx(base.fde, abs=1e-9)
    assert moved.min_ade == pytest.approx(base.min_ade, abs=1e-9)


def test_evaluate_predictions_brute_force_oracle():
    """Cross-check the aggregate against an independent loop that never calls
    the metrics module internals."""
    rng = np.random.default_rng(9)
    cases = [[random_traj(rng) for _ in range(3)] for _ in range(5)]
    gts = [random_traj(rng) for _ in range(5)]
    report = evaluate_predictions(cases, gts)

    all_ades, all_fdes, min_ades, min_fdes = [], [], [], []
    for heads, gt in zip(cases, gts):
        vals_a, vals_f = [], []
        for h in heads:
            d = [math.dist(p, q) for p, q in zip(h.points, gt.points)]
            vals_a.append(sum(d) / len(d))
            vals_f.append(d[-1])
        all_ades.extend(vals_a)
        all_fdes.extend(vals_f)
        min_ades.append(min(vals_a))
        min_fdes.append(min(vals_f))
    assert report.ade == pytest.approx(np.mean(all_ades), abs=1e-12)
    assert report.fde == pytest.approx(np.mean(all_fdes), abs=1e-12)
    assert report.min_ade == pytest.approx(np.mean(min_ades), abs=1e-12)
    assert report.min_fde == pytest.approx(np.mean(min_fdes), abs=1e-12)


def test_evaluate_predictions_empty_raises():
    with pytest.raises(InputShapeError):
        evaluate_predictions([], [])


# ---------------------------------------------------------------------------
# array core against the per-trajectory reference, bit for bit


def ragged_cases(rng, n_traj, horizon=12, max_heads=5, dts=(0.4,)):
    """Cases of 1 to max_heads heads, n_traj heads in all; each case's dt is
    drawn from dts and each ground truth has the horizon."""
    cases, gts = [], []
    while n_traj:
        k = min(int(rng.integers(1, max_heads + 1)), n_traj)
        dt = float(rng.choice(dts))
        cases.append([traj(rng.normal(scale=2.0, size=(horizon, 2)), dt) for _ in range(k)])
        gts.append(traj(rng.normal(scale=2.0, size=(horizon, 2)), dt))
        n_traj -= k
    return cases, gts


@pytest.mark.parametrize("n_traj", [1, EVAL_BLOCK - 1, EVAL_BLOCK, 2 * EVAL_BLOCK,
                                    2 * EVAL_BLOCK + 1])
def test_evaluate_matches_reference_around_the_block_size(n_traj):
    rng = np.random.default_rng(n_traj)
    cases, gts = ragged_cases(rng, n_traj)
    report = assert_matches_reference(cases, gts)
    assert report.n_samples == len(cases)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_evaluate_matches_reference_with_small_blocks(monkeypatch, block):
    # cases straddle block boundaries; some blocks hold only part of a case
    monkeypatch.setattr(metrics, "EVAL_BLOCK", block)
    rng = np.random.default_rng(block)
    cases, gts = ragged_cases(rng, 23, max_heads=4)
    assert_matches_reference(cases, gts)


def test_evaluate_matches_reference_with_one_head_cases_and_mixed_dt():
    rng = np.random.default_rng(11)
    cases, gts = ragged_cases(rng, 300, horizon=9, max_heads=1, dts=(0.1, 0.4, 0.25))
    assert all(len(c) == 1 for c in cases)
    assert_matches_reference(cases, gts)
    cases, gts = ragged_cases(rng, 300, horizon=9, max_heads=6, dts=(0.1, 0.4, 0.25))
    # a head may carry a dt other than its ground truth's
    cases[0][0] = traj(cases[0][0].points, 0.7)
    assert_matches_reference(cases, gts)


def test_evaluate_matches_reference_with_a_non_default_bin_count():
    rng = np.random.default_rng(12)
    cases, gts = ragged_cases(rng, 200)
    for n_bins in (2, 7, 123):
        report = assert_matches_reference(cases, gts, n_bins=n_bins)
        assert all(s["n_bins"] == n_bins for s in report.histogram_specs.values())


def awkward_tracks():
    """Stationary steps and headings on the +-pi tie."""
    walk = np.cumsum(np.full((10, 2), 0.3), axis=0)
    paused = walk.copy()
    paused[4:7] = paused[4]  # a pause mid-track
    first_still = walk.copy()
    first_still[1] = first_still[0]  # a stationary first step
    creep = walk.copy()
    creep[6] = creep[5] + [4e-7, -4e-7]  # below the stationary threshold
    still = np.zeros((10, 2))
    # a first step whose norm is at least the threshold by np.linalg.norm's
    # dot (with this BLAS's fused multiply-add) but not by sqrt(x*x + y*y)
    step = np.array([1.7220220392534248e-07, -9.850616229268372e-07])
    edge = np.concatenate([[[0.0, 0.0], step], step + walk[:8]])
    # steps heading due west: atan2(+0.0, -1) = pi and atan2(-0.0, -1) = -pi
    west = np.array([[-float(i), 0.0 if i % 2 else -0.0] for i in range(10)])
    zigzag = np.array([[-float(i), (-1e-300, 0.0, -0.0, 1e-300)[i % 4]] for i in range(10)])
    return [paused, first_still, creep, still, west, zigzag, edge]


def test_physics_primitives_match_reference_on_awkward_tracks():
    rng = np.random.default_rng(13)
    tracks = awkward_tracks() + [rng.normal(size=(int(rng.integers(4, 15)), 2))
                                 for _ in range(200)]
    for pts in tracks:
        for dt in (0.4, 0.13):
            got, want = physics_primitives(traj(pts, dt)), ref_physics_primitives(traj(pts, dt))
            for p in PRIMITIVES:
                assert got[p].tobytes() == want[p].tobytes(), p


def test_array_core_rows_match_reference():
    # each row of one block, not only the means that a report keeps
    rng = np.random.default_rng(20)
    points = np.concatenate([np.stack(awkward_tracks()), rng.normal(size=(500, 10, 2))])
    truths = rng.normal(size=points.shape)
    dt = rng.choice([0.4, 0.13, 0.25], size=len(points))
    err, ades, fdes = metrics._displacement_errors(points, truths)
    prims = metrics._primitives(points, dt)
    for i, (pts, gt_pts) in enumerate(zip(points, truths)):
        pred, gt = traj(pts, dt[i]), traj(gt_pts, dt[i])
        assert err[i].tobytes() == ref_errors(pred, gt).tobytes()
        assert ades[i] == ref_ade(pred, gt) and fdes[i] == ref_fde(pred, gt)
        want = ref_physics_primitives(pred)
        for p in PRIMITIVES:
            assert prims[p][i].tobytes() == want[p].tobytes(), (i, p)


def test_headings_on_the_pi_tie_wrap_to_zero_turn():
    west = traj(awkward_tracks()[4])
    np.testing.assert_array_equal(physics_primitives(west)["angular_velocity"], 0.0)


def test_evaluate_matches_reference_on_awkward_tracks():
    rng = np.random.default_rng(14)
    tracks = [traj(p) for p in awkward_tracks()]
    cases = [tracks[:2], [tracks[3]], tracks[2:], [tracks[4], tracks[5], tracks[0]],
             [tracks[6]]]
    gts = [tracks[3], tracks[5], traj(rng.normal(size=(10, 2))), tracks[1], tracks[6]]
    assert_matches_reference(cases, gts)
    # all-stationary ground truths and heads
    assert_matches_reference([[tracks[3]], [tracks[3], tracks[3]]], [tracks[3], tracks[3]])


def test_one_row_metrics_match_reference():
    rng = np.random.default_rng(15)
    for _ in range(4000):
        horizon = int(rng.integers(2, 15))
        a, b = (traj(rng.normal(scale=3.0, size=(horizon, 2))) for _ in range(2))
        assert ade(a, b) == ref_ade(a, b)
        assert fde(a, b) == ref_fde(a, b)
        assert per_timestep_errors(a, b).tobytes() == ref_errors(a, b).tobytes()


def test_evaluate_rejects_a_case_without_heads():
    rng = np.random.default_rng(16)
    cases, gts = ragged_cases(rng, 6)
    cases[1] = []
    with pytest.raises(InputShapeError, match="case 1 has no heads"):
        evaluate_predictions(cases, gts)


def test_evaluate_rejects_ground_truths_of_two_lengths():
    rng = np.random.default_rng(17)
    cases = [[random_traj(rng, 8)], [random_traj(rng, 9)]]
    gts = [random_traj(rng, 8), random_traj(rng, 9)]
    with pytest.raises(InputShapeError, match="case 1: ground truth has 9 points"):
        evaluate_predictions(cases, gts)


def test_evaluate_rejects_a_head_of_another_length():
    rng = np.random.default_rng(18)
    cases = [[random_traj(rng, 8)], [random_traj(rng, 8), random_traj(rng, 7)]]
    gts = [random_traj(rng, 8), random_traj(rng, 8)]
    with pytest.raises(InputShapeError, match="case 1: prediction/ground-truth length"):
        evaluate_predictions(cases, gts)


def test_evaluate_rejects_short_tracks_and_list_mismatch():
    rng = np.random.default_rng(19)
    with pytest.raises(InputShapeError, match="at least 4 points"):
        evaluate_predictions([[random_traj(rng, 3)]], [random_traj(rng, 3)])
    with pytest.raises(InputShapeError, match="matching, non-empty"):
        evaluate_predictions([[random_traj(rng)]], [random_traj(rng), random_traj(rng)])

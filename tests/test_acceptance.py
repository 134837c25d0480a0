"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion. The fixtures
train real models, so this file takes several minutes; everything is seeded
and deterministic.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from plaustraj import datakit, filtering, gradcore, locoval, metrics, oracle, predictor
from plaustraj.gradcore import TrainConfig
from plaustraj.locoval import FeatureLayout, build_locoval
from plaustraj.oracle import Trajectory
from plaustraj.predictor import InputLayout, PredictionSet, build_predictor, predict

SCORER_HIDDEN = (128, 128, 128)
SCORER_STEPS = 3000
PREDICTOR_STEPS = 800
N_HEADS = 20
ALPHA = 100.0
N_SEED_PAIRS = 5
LAMBDA = 0.7

# evaluation distribution for the filter checks: deliberately wider than the
# training one so some candidate futures are genuinely implausible
HARD_EVAL = dict(
    speed_range=(0.4, 2.3),
    turn_rate_range=(0.7, 1.6),
    noise_sigma=0.04,
    scenario_weights={"straight": 0.2, "accelerate": 1.0, "turn": 1.5, "stop_and_go": 1.5},
)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


# ---------------------------------------------------------------------------
# shared corpus and trained models


@pytest.fixture(scope="module")
def corpus():
    bank = datakit.generate_pose_bank(64, seed=101)
    syn = datakit.SyntheticConfig()
    train_ds = datakit.generate_synthetic(syn, 60, seed=102)
    traj_bank = []
    for tid in sorted(train_ds.tracks):
        pts = train_ds.tracks[tid].points
        for start in range(0, len(pts) - 12 + 1, 3):
            traj_bank.append(Trajectory(pts[start : start + 12], train_ds.dt))
    pairs = oracle.build_plausibility_dataset(bank, traj_bank, 200, 200, seed=103)
    instances = datakit.make_training_instances(train_ds, bank, 9, 12, stride=3, seed=105)

    def eval_instances(cfg_kwargs):
        ds = datakit.generate_synthetic(
            datakit.SyntheticConfig(**cfg_kwargs), 30, seed=1002
        )
        return datakit.make_training_instances(ds, bank, 9, 12, stride=3, seed=106)

    return {
        "bank": bank,
        "traj_bank": traj_bank,
        "pairs": pairs,
        "instances": instances,
        "eval_default": eval_instances({}),
        "eval_hard": eval_instances(HARD_EVAL),
    }


@pytest.fixture(scope="module")
def scorer_run(corpus):
    cfg = TrainConfig(
        learning_rate=1e-3, total_steps=SCORER_STEPS, batch_size=64, seed=104,
        schedule="cosine",
    )
    t0 = time.time()
    result = locoval.train_locoval(corpus["pairs"], cfg, hidden=SCORER_HIDDEN)
    return {"model": result.model, "seconds": time.time() - t0}


def evaluate(model, instances):
    sets, gts = [], []
    for inst in instances:
        sets.append(predict(model, inst.past, inst.observable).trajectories)
        gts.append(inst.future)
    return metrics.evaluate_predictions(sets, gts), sets, gts


@pytest.fixture(scope="module")
def paired_runs(corpus, scorer_run):
    """K-head predictors trained with and without the regularizer, identical
    seeds otherwise."""
    runs = {}
    for seed in range(N_SEED_PAIRS):
        for alpha in (0.0, ALPHA):
            cfg = TrainConfig(
                learning_rate=1e-4, total_steps=PREDICTOR_STEPS, batch_size=32,
                seed=200 + seed,
            )
            result = predictor.train_predictor(
                corpus["instances"],
                scorer_run["model"] if alpha > 0 else None,
                cfg,
                alpha=alpha,
                n_heads=N_HEADS,
            )
            runs[(seed, alpha)] = result.model
    return runs


# ---------------------------------------------------------------------------
# 1. scorer fidelity on fresh oracle-labeled pairs


def test_criterion_1_scorer_fidelity(corpus, scorer_run):
    fresh = oracle.build_plausibility_dataset(
        corpus["bank"], corpus["traj_bank"], 100, 100, seed=999
    )
    preds = [locoval.score(scorer_run["model"], s.trajectory, s.observable) for s in fresh]
    targets = [s.reward for s in fresh]
    r = metrics.pearson_r(preds, targets)
    ok = r >= 0.80 and scorer_run["seconds"] <= 300.0
    report(1, ok, f"pearson={r:.3f} on {len(fresh)} fresh pairs, "
                  f"train_time={scorer_run['seconds']:.1f}s")


# ---------------------------------------------------------------------------
# 2. analytic gradients match central finite differences


def test_criterion_2_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = gradcore.init_mlp(
            [3, 8, 8, 2], np.random.default_rng(seed), hidden_activation="tanh"
        )
        x = rng.normal(size=3)
        target = rng.normal(size=2)

        def mse_loss(out):
            diff = out - target
            return float(np.mean(diff**2)), 2.0 * diff / diff.size

        rep = gradcore.grad_check(net, mse_loss, x)
        worst = max(worst, rep.max_rel_error)

        # regularizer gradient through the scorer, from the functions the
        # training loop calls (one head, one sample)
        horizon = 6
        scorer = build_locoval(FeatureLayout(horizon=horizon), hidden=(10, 10), seed=seed)
        heading = rng.uniform(-np.pi, np.pi)
        speed = rng.uniform(0.5, 2.0)
        pose = datakit.make_walking_pose(heading, speed)
        obs = pose.observable()
        anchor = obs.root_position + rng.normal(0, 0.2, size=2)
        disp = rng.uniform(0.05, 0.4, size=(horizon, 2))

        root, rot, tail = locoval.observation_frame(obs, scorer.layout)
        steps = disp.copy()
        steps[0] += anchor - root
        _, scorer_pass = predictor.emloco_loss(scorer, steps[None, None], rot[None], tail[None])
        analytic = predictor.emloco_grad(scorer, scorer_pass)[0, 0]

        def emloco_of(d):
            pts = anchor + np.cumsum(d, axis=0)
            s = locoval.score(scorer, Trajectory(pts, 0.4), obs)
            return (s - 1.0) ** 2

        eps = 1e-6
        for t in range(horizon):
            for c in range(2):
                bumped = disp.copy()
                bumped[t, c] += eps
                up = emloco_of(bumped)
                bumped[t, c] -= 2 * eps
                down = emloco_of(bumped)
                numeric = (up - down) / (2 * eps)
                denom = max(abs(analytic[t, c]), abs(numeric), 1e-6)
                worst = max(worst, abs(analytic[t, c] - numeric) / denom)

    report(2, worst < 1e-4, f"max_rel_error={worst:.2e} over 20 seeds")


# ---------------------------------------------------------------------------
# 3. regularizer effect across paired seeds


def test_criterion_3_regularizer_effect(corpus, paired_runs):
    chi_wins = ade_wins = 0
    minade_base, minade_reg = [], []
    for seed in range(N_SEED_PAIRS):
        r0, _, _ = evaluate(paired_runs[(seed, 0.0)], corpus["eval_default"])
        r1, _, _ = evaluate(paired_runs[(seed, ALPHA)], corpus["eval_default"])
        chi_wins += r1.chi2["velocity"] < r0.chi2["velocity"]
        ade_wins += r1.ade < r0.ade
        minade_base.append(r0.min_ade)
        minade_reg.append(r1.min_ade)
    ratio = np.mean(minade_reg) / np.mean(minade_base)
    ok = chi_wins >= 4 and ade_wins >= 4 and ratio <= 1.10
    report(3, ok, f"chi2_velocity wins {chi_wins}/{N_SEED_PAIRS}, "
                  f"ade wins {ade_wins}/{N_SEED_PAIRS}, minADE ratio {ratio:.3f}")


# ---------------------------------------------------------------------------
# 4. alpha=0 recovers the unregularized build bit for bit


def test_criterion_4_baseline_recovery(corpus, scorer_run):
    cfg = TrainConfig(learning_rate=1e-4, total_steps=80, batch_size=16, seed=77)
    subset = corpus["instances"][:40]
    with_scorer = predictor.train_predictor(
        subset, scorer_run["model"], cfg, alpha=0.0, n_heads=4
    )
    deleted = predictor.train_predictor(subset, None, cfg, alpha=0.0, n_heads=4)
    identical = all(
        np.array_equal(wa, wb)
        for ma, mb in [(with_scorer.model.trunk, deleted.model.trunk)]
        + [(with_scorer.model.head, deleted.model.head)]
        for wa, wb in zip(ma.weights + ma.biases, mb.weights + mb.biases)
    )
    report(4, identical, "alpha=0 parameters bit-identical with scorer wired vs deleted")


# ---------------------------------------------------------------------------
# 5. filter soundness at lambda=0.7


def test_criterion_5_filter_soundness(corpus, scorer_run, paired_runs):
    scorer = scorer_run["model"]
    cases = []
    for seed in range(N_SEED_PAIRS):
        _, sets, gts = evaluate(paired_runs[(seed, ALPHA)], corpus["eval_hard"])
        cases.extend(
            (s, locoval.score_batch(scorer, s, inst.observable), g)
            for s, inst, g in zip(sets, corpus["eval_hard"], gts)
        )
    [entry] = filtering.sweep_lambda(cases, [LAMBDA])
    rate_ok = 0.0 < entry.rejection_rate < 0.5
    order_ok = (
        entry.rejected_report is not None
        and entry.rejected_report.ade >= entry.kept_report.ade
    )

    # adversarial all-low inputs: candidates moving far too fast for the
    # walker, so every score sits below the threshold
    inst = corpus["eval_hard"][0]
    rng = np.random.default_rng(55)
    bad = []
    for _ in range(N_HEADS):
        heading = rng.uniform(-np.pi, np.pi)
        step = 8.0 * inst.past.dt * np.array([np.cos(heading), np.sin(heading)])
        pts = inst.past.points[-1] + np.cumsum(
            np.tile(step, (12, 1)) + rng.normal(0, 0.5, size=(12, 2)), axis=0
        )
        bad.append(Trajectory(pts, inst.past.dt))
    scores = locoval.score_batch(scorer, bad, inst.observable)
    all_low = max(scores) < LAMBDA
    result = filtering.locoval_filter(scorer, bad, inst.observable, LAMBDA)
    fallback_ok = (
        all_low
        and result.fallback_used
        and len(result.kept) == 1
        and result.kept[0][0] == int(np.argmax(scores))
        and len(result.rejected) == N_HEADS - 1
    )

    ok = rate_ok and order_ok and fallback_ok
    rej = entry.rejected_report.ade if entry.rejected_report else float("nan")
    report(5, ok, f"rate={entry.rejection_rate:.3f}, kept_ade={entry.kept_report.ade:.3f}, "
                  f"rejected_ade={rej:.3f}, fallback keeps argmax on all-low inputs")


# ---------------------------------------------------------------------------
# 6. metrics match brute-force implementations


def brute_ade(pred, gt):
    total = 0.0
    for t in range(len(gt)):
        total += (
            (pred.points[t, 0] - gt.points[t, 0]) ** 2
            + (pred.points[t, 1] - gt.points[t, 1]) ** 2
        ) ** 0.5
    return total / len(gt)


def brute_fde(pred, gt):
    dx = pred.points[-1, 0] - gt.points[-1, 0]
    dy = pred.points[-1, 1] - gt.points[-1, 1]
    return (dx * dx + dy * dy) ** 0.5


def brute_chi2(a, b, spec):
    counts_a = [0] * spec.n_bins
    counts_b = [0] * spec.n_bins
    width = (spec.hi - spec.lo) / spec.n_bins
    for v in a:
        idx = min(max(int((v - spec.lo) / width), 0), spec.n_bins - 1)
        counts_a[idx] += 1
    for v in b:
        idx = min(max(int((v - spec.lo) / width), 0), spec.n_bins - 1)
        counts_b[idx] += 1
    pa = [c / len(a) for c in counts_a]
    pb = [c / len(b) for c in counts_b]
    total = 0.0
    for x, y in zip(pa, pb):
        if x + y > 0:
            total += (x - y) ** 2 / (x + y)
    return total


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        horizon = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        gt = Trajectory(rng.normal(size=(horizon, 2)), 0.4)
        heads = [Trajectory(rng.normal(size=(horizon, 2)), 0.4) for _ in range(k)]
        for h in heads:
            worst = max(worst, abs(metrics.ade(h, gt) - brute_ade(h, gt)))
            worst = max(worst, abs(metrics.fde(h, gt) - brute_fde(h, gt)))
        if horizon >= 4:  # evaluate_predictions needs 4 points for the primitives
            best = metrics.evaluate_predictions([heads], [gt])
            worst = max(
                worst,
                abs(best.min_ade - min(brute_ade(h, gt) for h in heads)),
                abs(best.min_fde - min(brute_fde(h, gt) for h in heads)),
            )
        spec = metrics.HistogramSpec(n_bins=int(rng.integers(2, 12)), lo=-3.0, hi=3.0)
        a = rng.normal(size=int(rng.integers(5, 40)))
        b = rng.normal(size=int(rng.integers(5, 40)))
        worst = max(worst, abs(metrics.chi2_distance(a, b, spec) - brute_chi2(a, b, spec)))
        worst = max(worst, abs(metrics.chi2_distance(a, a, spec)))

    spec = metrics.HistogramSpec(n_bins=2, lo=0.0, hi=2.0)
    disjoint = metrics.chi2_distance([0.1, 0.2], [1.8, 1.9], spec)
    disjoint_ok = abs(disjoint - 2.0) < 1e-12
    report(6, worst < 1e-12 and disjoint_ok,
           f"max |metric - brute force| = {worst:.2e} over 100 instances, "
           f"disjoint chi2 = {disjoint}")


# ---------------------------------------------------------------------------
# 7. pose filters catch exactly the injected anomalies


def test_criterion_7_pose_filters():
    # static pose background: the rule stage removes whole frames, and any
    # background motion would turn those removals into spurious discontinuities
    # for the consistency stage
    base = datakit.make_walking_pose(0.1, 1.0, phase=0.9)
    frames = [(float(t), dict(base.joints)) for t in range(200)]

    inverted = [20, 60, 100, 140, 180]
    for idx in inverted:
        frames[idx] = (
            frames[idx][0],
            {k: v * np.array([1.0, 1.0, -1.0]) for k, v in frames[idx][1].items()},
        )
    outliers = [12, 31, 49, 72, 88, 111, 128, 151, 168, 191]
    for idx in outliers:
        joints = dict(frames[idx][1])
        joints["head"] = joints["head"] + np.array([1.0, 0.0, 0.0])
        frames[idx] = (frames[idx][0], joints)

    result = datakit.filter_pose_sequence(datakit.PoseSequence(frames=frames))
    rule_ok = sorted(result["rule_rejected"]) == inverted
    cons_ok = sorted(result["consistency_rejected"]) == outliers
    n_kept = len(result["kept"])
    report(7, rule_ok and cons_ok and n_kept == 185,
           f"rule rejected {sorted(result['rule_rejected'])}, consistency rejected "
           f"{sorted(result['consistency_rejected'])} (precision=recall=1)")


# ---------------------------------------------------------------------------
# 8. low plausibility scores mean high errors


def test_criterion_8_score_error_monotonicity(corpus, scorer_run, paired_runs):
    scorer = scorer_run["model"]
    scores, ades = [], []
    for seed in range(N_SEED_PAIRS):
        _, sets, gts = evaluate(paired_runs[(seed, ALPHA)], corpus["eval_hard"])
        for s, inst, g in zip(sets, corpus["eval_hard"], gts):
            scores.extend(locoval.score_batch(scorer, s, inst.observable))
            ades.extend(metrics.ade(t, g) for t in s)
    bins = metrics.bin_by_plausibility(scores, ades, n_bins=10)
    occupied = [(b["bin"], b["mean_ade"]) for b in bins if b["count"] > 0]
    rho = metrics.spearman_rho([i for i, _ in occupied], [a for _, a in occupied])
    report(8, rho < 0.0, f"spearman(bin, mean_ade)={rho:.3f} over "
                         f"{len(occupied)} occupied bins")


# ---------------------------------------------------------------------------
# 9. full pipeline inside the budget


def test_criterion_9_end_to_end_budget(tmp_path):
    out = str(tmp_path / "run")
    t0 = time.time()
    stages = [
        ["gen-data", "--out", out],
        ["train-locoval", "--out", out],
        ["train-predictor", "--out", out, "--alpha", "0", "--heads", str(N_HEADS)],
        ["train-predictor", "--out", out, "--alpha", str(ALPHA), "--heads", str(N_HEADS)],
        ["eval", "--out", out, "--filter", str(LAMBDA)],
    ]
    for stage in stages:
        proc = subprocess.run(
            [sys.executable, "-m", "plaustraj.cli", *stage],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"{stage[0]} failed: {proc.stderr}"
    elapsed = time.time() - t0
    report(9, elapsed <= 1800.0, f"gen-data through filtered eval in {elapsed:.0f}s")

"""Paired-seed study of the plausibility regularizer.

Trains a K-head predictor twice per seed (alpha = 0 and alpha = args.alpha,
identical init and batch order otherwise) and reports ADE, minADE, and the
chi-square distance between predicted and ground-truth velocity histograms.
The regularized runs should win on the distributional metric and mean ADE
without giving up much minADE.

Usage:
    python scripts/alpha_effect.py [--seeds 5] [--heads 20] [--alpha 100]
        [--steps 800]
"""

import argparse
import time

import numpy as np

from plaustraj import datakit, locoval, metrics, oracle, predictor
from plaustraj.gradcore import TrainConfig


def build_corpus(seed_base=100):
    bank = datakit.generate_pose_bank(64, seed=seed_base + 1)
    syn = datakit.SyntheticConfig()
    train_ds = datakit.generate_synthetic(syn, 60, seed=seed_base + 2)
    traj_bank = []
    for tid in sorted(train_ds.tracks):
        pts = train_ds.tracks[tid].points
        for start in range(0, len(pts) - 12 + 1, 3):
            traj_bank.append(oracle.Trajectory(pts[start : start + 12], train_ds.dt))
    pairs = oracle.build_plausibility_dataset(bank, traj_bank, 200, 200, seed=seed_base + 3)
    instances = datakit.make_training_instances(train_ds, bank, 9, 12, stride=3,
                                                seed=seed_base + 5)
    eval_ds = datakit.generate_synthetic(syn, 30, seed=1002)
    eval_instances = datakit.make_training_instances(eval_ds, bank, 9, 12, stride=3,
                                                     seed=seed_base + 6)
    return bank, pairs, instances, eval_instances


def evaluate(model, eval_instances):
    sets, gts = [], []
    for inst in eval_instances:
        sets.append(predictor.predict(model, inst.past, inst.observable).trajectories)
        gts.append(inst.future)
    return metrics.evaluate_predictions(sets, gts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--heads", type=int, default=20)
    ap.add_argument("--alpha", type=float, default=100.0)
    ap.add_argument("--steps", type=int, default=800)
    ns = ap.parse_args()

    t0 = time.perf_counter()
    _, pairs, instances, eval_instances = build_corpus()
    scorer_cfg = TrainConfig(learning_rate=1e-3, total_steps=3000, batch_size=64,
                             seed=104, schedule="cosine")
    scorer = locoval.train_locoval(pairs, scorer_cfg, hidden=(128, 128, 128)).model
    print(f"scorer trained in {time.perf_counter() - t0:.0f} s on {len(pairs)} pairs")

    rows = []
    for seed in range(ns.seeds):
        reports = {}
        for alpha in (0.0, ns.alpha):
            cfg = TrainConfig(learning_rate=1e-4, total_steps=ns.steps,
                              batch_size=32, seed=200 + seed)
            result = predictor.train_predictor(
                instances, scorer if alpha > 0 else None, cfg,
                alpha=alpha, n_heads=ns.heads,
            )
            reports[alpha] = evaluate(result.model, eval_instances)
        r0, r1 = reports[0.0], reports[ns.alpha]
        rows.append((seed, r0, r1))
        print(f"seed {seed}: ade {r0.ade:.3f} -> {r1.ade:.3f}  "
              f"minade {r0.min_ade:.3f} -> {r1.min_ade:.3f}  "
              f"chi2_vel {r0.chi2['velocity']:.4f} -> {r1.chi2['velocity']:.4f}")

    chi_wins = sum(r1.chi2["velocity"] < r0.chi2["velocity"] for _, r0, r1 in rows)
    ade_wins = sum(r1.ade < r0.ade for _, r0, r1 in rows)
    minade0 = np.mean([r0.min_ade for _, r0, _ in rows])
    minade1 = np.mean([r1.min_ade for _, _, r1 in rows])
    print(f"\nchi2 velocity wins: {chi_wins}/{ns.seeds}  ade wins: {ade_wins}/{ns.seeds}")
    print(f"mean minADE: {minade0:.4f} (alpha=0) vs {minade1:.4f} "
          f"(alpha={ns.alpha}), ratio {minade1 / minade0:.3f}")
    print(f"total {time.perf_counter() - t0:.0f} s")


if __name__ == "__main__":
    main()

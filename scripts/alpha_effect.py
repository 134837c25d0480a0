"""Paired-seed study of the plausibility regularizer.

Trains a K-head predictor twice per seed (alpha = 0 and alpha = args.alpha,
identical init and batch order otherwise) and reports ADE, minADE, and the
chi-square distance between predicted and ground-truth velocity histograms.
It prints the tallies of acceptance criterion 3: on how many seeds the
regularized run has the lower velocity chi2 and the lower mean ADE, and the
ratio of the mean minADEs. These do not show plausibility on their own: ADE
averages over all K heads, so any narrower head set wins it, and a
plausibility-blind narrowing with no scorer (relaxed winner-takes-all) wins
these tallies too (ROADMAP items 14 and 16). The corpus, scorer and pairs
are those of the acceptance tests (plaustraj.study); the pairs train on every
usable core.

Usage:
    python scripts/alpha_effect.py [--seeds 5] [--heads 20] [--alpha 100]
        [--steps 800]
"""

import argparse
import time

import numpy as np

from plaustraj import study
from plaustraj.filtering import evaluate_windows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--heads", type=int, default=study.N_HEADS)
    ap.add_argument("--alpha", type=float, default=study.ALPHA)
    ap.add_argument("--steps", type=int, default=study.PREDICTOR_STEPS)
    ns = ap.parse_args()

    t0 = time.perf_counter()
    corpus = study.build_corpus()
    scorer = study.train_scorer(corpus.pairs)
    print(f"scorer trained in {time.perf_counter() - t0:.0f} s on {len(corpus.pairs)} pairs")

    runs = study.paired_runs(corpus.instances, scorer, ns.seeds, ns.alpha, ns.steps, ns.heads)
    rows = []
    for seed in range(ns.seeds):
        r0 = evaluate_windows(runs[(seed, 0.0)], corpus.eval_default).report
        r1 = evaluate_windows(runs[(seed, ns.alpha)], corpus.eval_default).report
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

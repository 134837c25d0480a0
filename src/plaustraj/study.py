"""The paired-seed study behind the regularizer claim: one seeded corpus, one
frozen scorer, and K-head predictors trained at alpha 0 and at alpha from the
same seed (same init and batch order), then evaluated on held-out windows
with filtering.evaluate_windows.

The acceptance tests and scripts/alpha_effect.py both run it. `train_jobs`
is the one pool that trains several predictors, with the bits of training
in-process: `paired_runs` trains the pairs through it, and so does
`sweep --param alpha`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from . import datakit, locoval, oracle, predictor
from .config import LocoValSection, PredictorSection

PREDICTOR_STEPS = 800
N_HEADS = 20
ALPHA = 100.0

# evaluation distribution for the filter checks: deliberately wider than the
# training one so some candidate futures are genuinely implausible
HARD_EVAL = dict(
    speed_range=(0.4, 2.3),
    turn_rate_range=(0.7, 1.6),
    noise_sigma=0.04,
    scenario_weights={"straight": 0.2, "accelerate": 1.0, "turn": 1.5, "stop_and_go": 1.5},
)


@dataclass
class Corpus:
    bank: list                 # pose bank
    traj_bank: oracle.TrajectorySet  # 12-frame windows of the training tracks
    pairs: oracle.PairSet      # oracle-labelled plausibility pairs
    instances: datakit.WindowSet     # predictor training windows
    eval_default: datakit.WindowSet  # held-out windows, training distribution
    eval_hard: datakit.WindowSet     # held-out windows, HARD_EVAL distribution


def build_corpus() -> Corpus:
    bank = datakit.generate_pose_bank(64, seed=101)
    train_ds = datakit.generate_synthetic(datakit.SyntheticConfig(), 60, seed=102)
    traj_bank = datakit.future_slices(train_ds, 12, 3)
    pairs = oracle.build_plausibility_dataset(bank, traj_bank, 200, 200, seed=103)

    def windows(dataset, seed):
        return datakit.make_training_instances(dataset, bank, 9, 12, stride=3, seed=seed)

    def eval_windows(**synthetic):
        return windows(datakit.generate_synthetic(
            datakit.SyntheticConfig(**synthetic), 30, seed=1002), 106)

    return Corpus(bank, traj_bank, pairs, windows(train_ds, 105),
                  eval_windows(), eval_windows(**HARD_EVAL))


def train_scorer(pairs) -> locoval.LocoValModel:
    cfg = replace(LocoValSection().train, seed=104)
    return locoval.train_locoval(pairs, cfg, hidden=(128, 128, 128)).model


def _train(indexed_job: tuple[int, dict]) -> tuple[int, predictor.PredictorModel]:
    return indexed_job[0], predictor.train_predictor(**indexed_job[1]).model


def train_jobs(jobs: list[dict]) -> list[predictor.PredictorModel]:
    """The model of predictor.train_predictor(**job) for each job, in job
    order, each trained in one of min(jobs, usable cores) spawned worker
    processes. A job's scorer goes to its worker only at alpha > 0, where
    the model uses it. The first job to fail, in completion order, raises
    its error here, and the workers still training are terminated. No jobs
    train nothing, and start no pool."""
    if not jobs:
        return []
    # imported here: the pool costs about 30 ms to import, which every command would pay
    import multiprocessing

    jobs = [{**job, "scorer": job["scorer"] if job.get("alpha", 0.0) > 0 else None}
            for job in jobs]
    workers = min(len(jobs), len(os.sched_getaffinity(0)))
    # one BLAS thread per worker, read when it imports numpy: a thread per core
    # in each worker oversubscribes the cores (the acceptance corpus, scorer
    # and pairs took 147 s, not 32 s, on 2 cores); the bits do not change
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        # leaving the block terminates the workers, and joins them
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            models = dict(pool.imap_unordered(_train, enumerate(jobs)))
        return [models[i] for i in range(len(jobs))]
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def paired_runs(instances: datakit.WindowSet, scorer, seeds: int, alpha: float = ALPHA,
                steps: int = PREDICTOR_STEPS, heads: int = N_HEADS) -> dict:
    """{(seed, a): model} for seed in range(seeds) and a in (0, alpha): one
    train_jobs call, the run of a seed training from seed 200 + seed."""
    keys = [(seed, a) for seed in range(seeds) for a in (0.0, alpha)]
    train = PredictorSection().train
    jobs = [dict(dataset=instances, scorer=scorer, alpha=a, n_heads=heads,
                 config=replace(train, total_steps=steps, seed=200 + seed))
            for seed, a in keys]
    return dict(zip(keys, train_jobs(jobs)))

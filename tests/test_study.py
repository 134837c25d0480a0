"""The study's training pool: its worker processes train the models that
predictor.train_predictor calls in this process do, bit for bit, for the
study's pairs and for an alpha sweep's grid."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from plaustraj import predictor, study
from plaustraj.config import PredictorSection
from plaustraj.errors import NumericError
from plaustraj.gradcore import TrainConfig


def assert_same_params(got, want):
    for a, b in ((got.trunk, want.trunk), (got.head, want.head)):
        a.validate()
        assert np.array_equal(a.params, b.params)


def test_pooled_pairs_equal_in_process_training(training_instances, trained_scorer):
    scorer = trained_scorer.model
    pooled = study.paired_runs(training_instances, scorer, seeds=2, steps=20, heads=3)
    assert list(pooled) == [(0, 0.0), (0, study.ALPHA), (1, 0.0), (1, study.ALPHA)]
    for (seed, alpha), model in pooled.items():
        # the study's settings, spelled out: 1e-4, batch 32, a constant rate
        config = TrainConfig(learning_rate=1e-4, total_steps=20, batch_size=32, seed=200 + seed)
        local = predictor.train_predictor(training_instances, scorer if alpha > 0 else None,
                                          config, alpha=alpha, n_heads=3).model
        assert_same_params(model, local)
    assert not np.array_equal(pooled[(0, 0.0)].head.params, pooled[(0, study.ALPHA)].head.params)


def test_pooled_sweep_grid_equals_in_process_training(training_instances, trained_scorer):
    """An alpha sweep's jobs, which pass the scorer at alpha 0 too: the pool
    drops it there, and the model keeps its bits."""
    config = TrainConfig(learning_rate=1e-4, total_steps=20, batch_size=16, seed=5)
    jobs = [dict(dataset=training_instances, scorer=trained_scorer.model, config=config,
                 alpha=alpha, n_heads=2, trunk_hidden=tuple(PredictorSection().trunk_hidden))
            for alpha in (0.0, 10.0)]
    pooled = study.train_jobs(jobs)
    assert len(pooled) == 2
    for job, model in zip(jobs, pooled):
        assert model.n_heads == 2
        assert_same_params(model, predictor.train_predictor(**job).model)
    assert not np.array_equal(pooled[0].head.params, pooled[1].head.params)


@pytest.mark.parametrize("failing_first", [True, False], ids=["failing-first", "failing-last"])
def test_a_failing_job_ends_the_running_workers(training_instances, trained_scorer,
                                                failing_first):
    """A job of 10^6 steps (about two minutes in a worker on a 2-core
    machine) beside one at alpha 1e300, which overflows at its first step,
    in either order: train_jobs raises the failure when it happens, not when
    the long job ends, and terminates the long job's worker."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the two jobs train side by side only on two usable cores")
    windows = training_instances[:2]
    long_job = dict(dataset=windows, scorer=None, trunk_hidden=(4,),
                    config=TrainConfig(total_steps=10**6, batch_size=1, seed=1))
    failing = dict(dataset=windows, scorer=trained_scorer.model, alpha=1e300, trunk_hidden=(4,),
                   config=TrainConfig(total_steps=10, batch_size=1, seed=1))
    start = time.perf_counter()
    with pytest.raises(NumericError, match="^training step 1: overflow encountered in "):
        study.train_jobs([failing, long_job] if failing_first else [long_job, failing])
    assert time.perf_counter() - start < 30.0
    assert multiprocessing.active_children() == []


def test_no_jobs_train_nothing(training_instances):
    """A study of no seeds trains nothing and starts no pool."""
    assert study.train_jobs([]) == []
    assert study.paired_runs(training_instances, None, seeds=0) == {}
    assert multiprocessing.active_children() == []

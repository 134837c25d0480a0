"""The paired-seed study: its worker pool trains the models that training in
this process does, bit for bit."""

import numpy as np

from plaustraj import study


def test_pooled_pairs_equal_in_process_training(training_instances, trained_scorer):
    scorer = trained_scorer.model
    pooled = study.paired_runs(training_instances, scorer, seeds=2, steps=20, heads=3)
    assert list(pooled) == [(0, 0.0), (0, study.ALPHA), (1, 0.0), (1, study.ALPHA)]
    for (seed, alpha), model in pooled.items():
        local = study.train_model(training_instances, scorer, seed, alpha, steps=20, heads=3)
        for got, want in ((model.trunk, local.trunk), (model.head, local.head)):
            got.validate()
            assert np.array_equal(got.params, want.params)
    assert not np.array_equal(pooled[(0, 0.0)].head.params, pooled[(0, study.ALPHA)].head.params)

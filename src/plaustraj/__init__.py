"""Plausibility-aware trajectory prediction: a differentiable locomotion
scorer, regularized multi-head predictors, and score-threshold filtering."""

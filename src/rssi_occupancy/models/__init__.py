"""Classifier and regressor families behind a uniform fit/predict contract."""

from .base import (
    CLASSIFIER_FAMILIES,
    FAMILIES,
    REGRESSOR_FAMILIES,
    ModelError,
    ModelSpec,
    TrainedModel,
    default_grid,
    family_task,
    fit,
    fit_grid,
)
from .ensembles import GradientBoosting, RandomForest

__all__ = [
    "CLASSIFIER_FAMILIES",
    "FAMILIES",
    "REGRESSOR_FAMILIES",
    "GradientBoosting",
    "ModelError",
    "ModelSpec",
    "RandomForest",
    "TrainedModel",
    "default_grid",
    "family_task",
    "fit",
    "fit_grid",
]

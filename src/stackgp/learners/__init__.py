"""From-scratch level-0 learners and their common fitting interface."""

from .base import LearnerModel, LearnerSpec, fit_learner

__all__ = ["LearnerModel", "LearnerSpec", "fit_learner"]

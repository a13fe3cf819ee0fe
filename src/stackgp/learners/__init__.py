"""From-scratch level-0 learners and their common fitting interface."""

from .base import LEARNER_KINDS, LearnerModel, LearnerSpec, fit_learner

__all__ = ["LEARNER_KINDS", "LearnerModel", "LearnerSpec", "fit_learner"]

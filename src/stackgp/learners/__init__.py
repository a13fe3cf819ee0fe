"""From-scratch level-0 learners and their common fitting interface."""

from .base import LEARNER_KINDS, PARAM_SCHEMAS, LearnerModel, LearnerSpec, fit_learner
from .boosting import GbtModel, fit_gbt
from .elastic_net import EnetModel, fit_enet
from .forest import ForestModel, fit_rf
from .gam import GamModel, fit_gam
from .linear import LinearModel, fit_linear
from .mars import MarsModel, fit_mars
from .trees import RegressionTree, grow_tree

__all__ = [
    "LEARNER_KINDS", "PARAM_SCHEMAS", "LearnerModel", "LearnerSpec", "fit_learner",
    "GbtModel", "fit_gbt", "EnetModel", "fit_enet",
    "ForestModel", "fit_rf", "GamModel", "fit_gam", "LinearModel", "fit_linear",
    "MarsModel", "fit_mars", "RegressionTree", "grow_tree",
]

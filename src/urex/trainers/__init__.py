"""Training methods: coefficient computation, optimization, Q-learning baseline."""

from .coefficients import (importance_weights, ment_coefficients,
                           urex_coefficients, weight_variance)
from .optim import AdamState, adam_update, clip_gradient
from .policy_gradient import (METHODS, PolicyGradientTrainer, StepMetrics,
                              TrainConfig, group_coefficients, update)
from .qlearning import DoubleQLearner, QConfig

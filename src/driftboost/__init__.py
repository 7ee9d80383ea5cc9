"""driftboost: a multiclass boosting laboratory built on the
drifting-games view of boosting — weak-learning conditions as
cost-matrix games, potential functions, and the OS / adaptive boosters.
"""

from .core import (Baseline, CostMatrix, Dataset, ScoringFunction,
                   TableClassifier, WeakClassifier, exp_risk, indexed_dataset,
                   plurality_predict, training_error)
from .potentials import (EXP, ZERO_ONE, EorDistribution, LossSpec,
                         gamma_biased_uniform, kappa, potential_exp_closed,
                         potential_fixed, potential_minimal,
                         potential_oracle_bruteforce, potential_zeroone_dp)

__all__ = [
    "Baseline", "CostMatrix", "Dataset", "ScoringFunction", "TableClassifier",
    "WeakClassifier", "exp_risk", "indexed_dataset", "plurality_predict",
    "training_error", "EXP", "ZERO_ONE",
    "EorDistribution", "LossSpec", "gamma_biased_uniform", "kappa",
    "potential_exp_closed", "potential_fixed", "potential_minimal",
    "potential_oracle_bruteforce", "potential_zeroone_dp",
]

__version__ = "0.1.0"

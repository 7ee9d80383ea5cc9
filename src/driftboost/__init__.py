"""driftboost: a multiclass boosting laboratory built on the
drifting-games view of boosting — weak-learning conditions as
cost-matrix games, potential functions, and the OS / adaptive boosters.
"""

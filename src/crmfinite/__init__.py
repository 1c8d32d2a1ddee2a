"""Finite approximations of completely random measures.

Subpackages by concern: measures (rate measures and indicators),
approximations (atom-size laws and samplers), marginals (predictive
processes, urns, the condition checker), analysis (total variation, bound
evaluators, EPPFs), inference (linear-Gaussian Gibbs), checks (parameter
checks), cli (experiment runner).
"""

__version__ = "0.1.0"

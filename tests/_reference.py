"""Test harness code that the library itself never calls.

The Geweke (2004) joint-distribution simulators, the data draw y | state they
and the sweep tests share, and the data-informed chain start of the
AIFA-against-TFA parity check run only under the tests, so they live here,
beside them, and not in ``crmfinite.inference``.  So do the
point-query predictive pmfs and the Dirichlet-process and
finite-symmetric-Dirichlet urn probabilities, which state in closed form
what ``crmfinite.marginals`` and ``crmfinite.analysis`` compute in bulk.
"""

import math

import numpy as np

from crmfinite.checks import integer, integers
from crmfinite.inference import gibbs_sweep, init_state
from crmfinite.marginals import _predictive_logpmf


def sample_data(state, rng):
    """y | state: the reconstruction plus N(0, 1/gamma_e) noise."""
    mean = state.reconstruction
    return mean + rng.normal(0.0, 1.0 / math.sqrt(state.gamma_e), size=mean.shape)


def geweke_marginal_conditional(model, N, draws, rng):
    """i.i.d. (state, data) draws from the prior joint; returns the statistic
    array with columns (sum x, mean tau, gamma_e)."""
    out = np.empty((draws, 3))
    for i in range(draws):
        state = init_state(model, N, rng)
        out[i] = (state.x.sum(), state.tau.mean(), state.gamma_e)
    return out


def geweke_successive_conditional(model, N, draws, rng, thin=1):
    """Alternate y | state and one Gibbs sweep of state | y; the chain leaves
    the prior joint invariant, so its marginals must match the i.i.d. path."""
    state = init_state(model, N, rng)
    out = np.empty((draws, 3))
    kept = 0
    while kept < draws:
        for _ in range(thin):
            y = sample_data(state, rng)
            state = gibbs_sweep(state, y, model, rng)
        out[kept] = (state.x.sum(), state.tau.mean(), state.gamma_e)
        kept += 1
    return out


def data_informed_init(model, y, rng):
    """Prior state with basis vectors seeded from randomly chosen data rows.

    All chains (and both priors) start from structurally comparable points,
    which removes most feature-birth mode variance of the Gibbs scan;
    the stationary distribution is untouched.
    """
    y = np.asarray(y, dtype=float)
    state = init_state(model, y.shape[0], rng)
    rows = rng.choice(y.shape[0], size=model.K, replace=False)
    state.psi = y[rows] + rng.normal(0.0, 0.01, size=(model.K, model.D))
    state.x[:] = 0
    state.gamma_e = 1.0 / max(float(y.var()), 1e-12)
    state.gamma_w = 1.0
    return state


def _check_history(model, history):
    history = integers(history, "history entries", 0)
    if np.any(history > model.max_count):
        raise ValueError(f"{model.kind} counts are at most {model.max_count}")
    return history


def target_predictive_pmf(model, history, x) -> float:
    """P(next count = x) at an atom already instantiated with the given history."""
    history = _check_history(model, history)
    total = history.sum()
    if total == 0:
        raise ValueError("atom not yet instantiated in the target process (all-zero history)")
    n = history.size + 1
    return float(np.exp(_predictive_logpmf(model, n, total, 0.0, integers(x, "counts x", 0))))


def approx_predictive_pmf(model, K, history, x) -> float:
    """Same predictive under the level-K approximation; all-zero histories are
    allowed and govern the dormant atoms."""
    integer(K, "approximation level K")
    history, x = _check_history(model, history), integers(x, "counts x", 0)
    n = history.size + 1
    return float(np.exp(_predictive_logpmf(model, n, history.sum(), model.mass_shift / K, x)))


def dp_urn_probs(counts, alpha):
    """(existing-label probabilities, fresh probability) of the DP urn."""
    counts = np.asarray(counts, dtype=float)
    denom = counts.sum() + alpha
    return counts / denom, alpha / denom


def fsd_urn_probs(counts, alpha, K):
    """Finite-symmetric-Dirichlet urn; the fresh mass carries (K - J) slots."""
    counts = np.asarray(counts, dtype=float)
    j = counts.size
    if j > K:
        raise ValueError(f"FSD urn cannot hold more than K={K} distinct labels, got {j}")
    denom = counts.sum() + alpha
    return (counts + alpha / K) / denom, (K - j) * (alpha / K) / denom

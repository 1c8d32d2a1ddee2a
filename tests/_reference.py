"""Test harness code that the library itself never calls.

The Geweke (2004) joint-distribution simulators and the data-informed chain
start of the AIFA-against-TFA parity check run only under the tests, so they
live here, beside them, and not in ``crmfinite.inference``.
"""

import numpy as np

from crmfinite.inference import gibbs_sweep, init_state, sample_data


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

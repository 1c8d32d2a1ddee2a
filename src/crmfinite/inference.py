"""Blocked Gibbs sampling for the linear-Gaussian binary factor model.

Observations y_n in R^D combine K latent basis vectors psi_k through binary
activations x_{n,k} and real weights w_{n,k}:

    y_n ~ N( sum_k x_{n,k} w_{n,k} psi_k,  I_D / gamma_e )

with psi_k ~ N(0, psi_scale * I_D), w ~ N(0, 1/gamma_w), gamma-distributed
precision hyperpriors, and atom sizes tau under either prior:

    aifa           tau_k ~ Beta(gamma*alpha/K, alpha), independent
    bondesson_tfa  tau_k = prod_{j<=k} p_j, p_j ~ Beta(gamma, 1)   (alpha = 1)

The AIFA tau conditionals are exact independent betas and factorize across
atoms; the truncation prior keeps the ordering 1 >= tau_1 >= ... >= tau_K > 0
and its conditionals are interval-truncated betas, drawn exactly by inverting
the regularized incomplete beta function at one uniform.

The scan order is fixed (x, w, psi, precisions, tau) and every update draws
through the caller's generator, so a chain is reproducible from its seed.
The x, w and psi blocks share the loadings S = x * w and one factor kernel that
reads each column's residual projection from a cross product and a Gram matrix
fixed during the block (y psi^T, psi psi^T for x and w; y^T S, S^T S for psi), so
no residual is updated per column.  The kernel takes optional leading sample axes:
a sweep has none, and held-out scoring runs all kept samples (SampleBatch) at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _special as special
from .checks import integer, positive, real

__all__ = [
    "LinearGaussianModel",
    "GibbsState",
    "SampleBatch",
    "init_state",
    "aifa_tau_conditional",
    "sample_truncated_beta",
    "tfa_tau_conditional_params",
    "tfa_tau_conditional_sample",
    "gibbs_sweep",
    "joint_log_density_terms",
    "joint_log_density",
    "sample_data",
    "generate_synthetic",
    "geweke_marginal_conditional",
    "geweke_successive_conditional",
    "impute_heldout_locals",
    "predictive_log_likelihood",
    "data_informed_init",
    "run_chain",
    "CHAIN_STATS",
]

_DEGENERATE_WIDTH = 1e-14
CHAIN_STATS = ("sum_x", "mean_tau", "gamma_e", "gamma_w", "joint_log_density")


@dataclass(frozen=True)
class LinearGaussianModel:
    """Dimensions, hyperparameters and tau prior of the factor model."""

    D: int
    gamma: float
    alpha: float
    K: int
    prec_shape: float = 1e-6   # gamma_w, gamma_e hyperprior shape
    prec_rate: float = 1e-6    # and rate
    psi_scale: float = None    # ground-measure variance; default 1/D
    prior: str = "aifa"        # tau prior: "aifa" | "bondesson_tfa"

    def __post_init__(self):
        integer(self.D, "D")
        integer(self.K, "K")
        for name in ("gamma", "alpha", "prec_shape", "prec_rate"):
            positive(getattr(self, name), name)
        if self.psi_scale is None:
            object.__setattr__(self, "psi_scale", 1.0 / self.D)
        positive(self.psi_scale, "psi_scale")
        if self.prior not in ("aifa", "bondesson_tfa"):
            raise ValueError(f"unknown prior {self.prior!r}; use 'aifa' or 'bondesson_tfa'")
        if self.prior == "bondesson_tfa" and self.alpha != 1.0:
            raise ValueError("the truncation prior has a Gibbs path only for alpha = 1")


@dataclass
class GibbsState:
    """Latent state of one chain; owned by that chain."""

    tau: np.ndarray      # (K,)
    psi: np.ndarray      # (K, D)
    x: np.ndarray        # (N, K) in {0, 1}
    w: np.ndarray        # (N, K)
    gamma_w: float
    gamma_e: float
    prior: str           # "aifa" | "bondesson_tfa"
    degenerate_draws: int = 0  # truncated-beta intervals below resolution

    @property
    def reconstruction(self):
        return (self.x * self.w) @ self.psi


@dataclass
class SampleBatch:
    """Globals of S samples: tau (S, K), psi (S, K, D), gamma_w and gamma_e (S, 1) columns
    that broadcast over rows as a GibbsState's floats do; imputation adds x, w (S, m, K)."""

    tau: np.ndarray
    psi: np.ndarray
    gamma_w: np.ndarray
    gamma_e: np.ndarray
    x: np.ndarray = None
    w: np.ndarray = None

    reconstruction = GibbsState.reconstruction  # (S, m, D) by batched matmul

    def __len__(self):
        return self.tau.shape[0]


def init_state(model: LinearGaussianModel, N, rng) -> GibbsState:
    """Draw a full state from the model's prior (data not involved).

    Precision draws are clipped to [1e-10, 1e10]: the vague default
    Gamma(1e-6, 1e-6) hyperprior underflows to exactly zero with high
    probability, which only matters at this initialization point (the first
    data sweep resamples both precisions).
    """
    if model.prior == "aifa":
        tau = rng.beta(model.gamma * model.alpha / model.K, model.alpha, size=model.K)
    else:
        tau = np.cumprod(rng.beta(model.gamma, 1.0, size=model.K))
    tau = np.clip(tau, 1e-300, 1.0 - 1e-16)
    psi = rng.normal(0.0, math.sqrt(model.psi_scale), size=(model.K, model.D))
    gamma_w = float(np.clip(rng.gamma(model.prec_shape, 1.0 / model.prec_rate), 1e-10, 1e10))
    gamma_e = float(np.clip(rng.gamma(model.prec_shape, 1.0 / model.prec_rate), 1e-10, 1e10))
    w = rng.normal(0.0, 1.0 / math.sqrt(gamma_w), size=(N, model.K))
    x = (rng.random((N, model.K)) < tau).astype(np.int8)
    return GibbsState(tau, psi, x, w, gamma_w, gamma_e, model.prior)


def sample_data(state: GibbsState, rng) -> np.ndarray:
    """y | state, used by the prior-joint simulators."""
    mean = state.reconstruction
    return mean + rng.normal(0.0, 1.0 / math.sqrt(state.gamma_e), size=mean.shape)


# ---------------------------------------------------------------------------
# tau conditionals
# ---------------------------------------------------------------------------

def aifa_tau_conditional(x_column_sum, N, model: LinearGaussianModel):
    """Beta(gamma*alpha/K + sum_n x_{n,k}, alpha + N - sum_n x_{n,k}): the
    exact complete conditional, independent across atoms; the column sums
    broadcast."""
    if np.any(np.asarray(x_column_sum) < 0) or np.any(np.asarray(x_column_sum) > N):
        raise ValueError("column sum must lie in [0, N]")
    c = model.gamma * model.alpha / model.K
    return c + x_column_sum, model.alpha + N - x_column_sum


def sample_truncated_beta(a, b, lo, hi, rng):
    """Beta(a, b) restricted to [lo, hi] by inverting the regularized
    incomplete beta function at one uniform; returns (draw, degenerate_flag)."""
    if hi - lo < _DEGENERATE_WIDTH:
        return 0.5 * (lo + hi), True
    flo = special.betainc(a, b, lo)
    fhi = special.betainc(a, b, hi)
    mass = fhi - flo
    if mass <= 1e-300:
        # mass lost to rounding, so a prior draw would miss it too: the denser endpoint
        la = (a - 1) * math.log(max(lo, 1e-300)) + (b - 1) * math.log1p(-min(lo, 1 - 1e-16))
        lb = (a - 1) * math.log(hi) + (b - 1) * math.log1p(-min(hi, 1 - 1e-16))
        return (lo if la > lb else hi), True
    draw = float(special.betaincinv(a, b, flo + rng.random() * mass))
    if not math.isfinite(draw):
        raise RuntimeError(f"betaincinv gave {draw} for Beta({a}, {b}) on [{lo}, {hi}]")
    # rounding in betainc/betaincinv can step just outside the interval
    return min(max(draw, lo), hi), False


def tfa_tau_conditional_params(state: GibbsState, k, model: LinearGaussianModel):
    """(shape1, shape2, lo, hi) of the k-th truncated-beta conditional;
    boundary conventions tau_0 = 1, tau_{K+1} = 0."""
    K = state.tau.size
    N = state.x.shape[0]
    m_k = int(state.x[:, k].sum())
    shape1 = (model.gamma if k == K - 1 else 0.0) + m_k
    shape2 = N - m_k + 1.0
    hi = 1.0 if k == 0 else float(state.tau[k - 1])
    lo = 0.0 if k == K - 1 else float(state.tau[k + 1])
    return shape1, shape2, lo, hi


def _sample_trunc_log_density(shape2, lo, hi, rng):
    """Exact draw from density ~ tau^-1 (1-tau)^(shape2-1) on [lo, hi], the
    shape1 = 0 limit: a log-uniform proposal accepts with the (1-tau) factor."""
    base = math.log1p(-lo) * (shape2 - 1)
    ratio = math.log(hi / lo)
    for _ in range(200):
        cand = lo * math.exp(rng.random() * ratio)
        if math.log(rng.random()) <= (shape2 - 1) * math.log1p(-cand) - base:
            return cand, False
    return lo, True  # acceptance starved; the mass sits at the lower endpoint


def tfa_tau_conditional_sample(state: GibbsState, k, model: LinearGaussianModel, rng):
    """Draw tau_k from its interval-truncated beta conditional and write it
    back; preserves the ordering invariant by construction."""
    shape1, shape2, lo, hi = tfa_tau_conditional_params(state, k, model)
    if shape1 <= 0:
        # an unused atom before the last one: exponent -1, beta machinery
        # does not apply, but the truncated density is proper for lo > 0
        draw, degenerate = _sample_trunc_log_density(shape2, max(lo, 1e-300), hi, rng)
    else:
        draw, degenerate = sample_truncated_beta(shape1, shape2, lo, hi, rng)
    if degenerate:
        state.degenerate_draws += 1
    state.tau[k] = min(max(draw, 1e-300), 1.0 - 1e-16)
    return state.tau[k]


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _logit(tau):
    """log(tau / (1 - tau)) by math.log: numpy's vector log can differ in the last bit."""
    return np.reshape([math.log(t) - math.log1p(-t) for t in tau.ravel().tolist()], tau.shape)


def _draw_x(state, logit, k, proj, psi_sq, rng):
    """Uncollapsed Bernoulli update of x[..., k] given tau_k, rows vectorized."""
    wk = state.w[..., k]
    p = special.expit(logit[..., k, None] + state.gamma_e * (wk * proj - 0.5 * wk**2 * psi_sq))
    state.x[..., k] = rng.random(p.shape) < p
    return state.x[..., k] * wk


def _draw_w(state, k, proj, psi_sq, rng):
    xk = state.x[..., k].astype(float)
    lam = state.gamma_w + state.gamma_e * xk * psi_sq
    mean = state.gamma_e * xk * proj / lam
    state.w[..., k] = mean + rng.normal(size=xk.shape) / np.sqrt(lam)
    return state.x[..., k] * state.w[..., k]


def _draw_psi(state, psi_scale, k, proj, s_sq, rng):
    """Gaussian update of psi_k given the loadings s = x[:, k] w[:, k]; sweep only."""
    prec = 1.0 / psi_scale + state.gamma_e * s_sq.item()
    return state.gamma_e * proj / prec + rng.normal(size=proj.size) / math.sqrt(prec)


def _by_column(a):
    """``a`` with contiguous columns a[..., k]; the layout of S decides how left @ gram rounds."""
    return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _scan_factors(P, left, gram, draw, rng):
    """Redraw each left[..., k] by draw(k, proj, gram[..., k, k], rng) with proj = P[..., k] -
    sum_{j != k} left[..., j] gram[..., j, k] on the current left: for P = y r^T and gram =
    r r^T, r fixed, that is (y - sum_{j != k} outer(left_j, r_j)) @ r_k.  x and w run on
    (y psi^T, S, psi psi^T), psi on (y^T S, psi^T, S^T S).  Leading axes index samples."""
    cross = gram * (1.0 - np.eye(gram.shape[-1]))
    for k in range(gram.shape[-1]):
        proj = P[..., k] - (left @ cross[..., :, k, None])[..., 0]
        left[..., k] = draw(k, proj, gram[..., k, k, None], rng)


def _update_precisions(state, E, model, rng):
    state.gamma_w = rng.gamma(model.prec_shape + 0.5 * state.w.size,
                              1.0 / (model.prec_rate + 0.5 * float((state.w**2).sum())))
    state.gamma_e = rng.gamma(model.prec_shape + 0.5 * E.size,
                              1.0 / (model.prec_rate + 0.5 * float((E**2).sum())))


def _update_tau(state, model, rng):
    n = state.x.shape[0]
    if state.prior == "aifa":
        a, b = aifa_tau_conditional(state.x.sum(axis=0), n, model)
        state.tau = np.clip(rng.beta(a, b), 1e-300, 1.0 - 1e-16)
    else:
        for k in range(model.K):
            tfa_tau_conditional_sample(state, k, model, rng)


_BLANKETS = {
    "x": ("lp_x", "lp_y"),
    "w": ("lp_w", "lp_y"),
    "psi": ("lp_psi", "lp_y"),
    "precisions": ("lp_w", "lp_y", "lp_prec"),
    "tau": ("lp_tau", "lp_x"),
}


def gibbs_sweep(state: GibbsState, y, model: LinearGaussianModel, rng, debug=False) -> GibbsState:
    """One systematic scan: x, w, psi, precisions, tau (order fixed).

    With debug=True, the named joint-density terms are recomputed around each
    block and any change outside the block's Markov blanket raises.
    """
    if state.prior != model.prior:
        raise ValueError(f"the state was drawn under prior {state.prior!r}, "
                         f"but the model's prior is {model.prior!r}")
    y = np.asarray(y, dtype=float)
    if y.shape != (state.x.shape[0], model.D):
        raise ValueError(f"data shape {y.shape} does not match state/model")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(state.w))
            and np.all(np.isfinite(state.psi))):
        raise RuntimeError("non-finite values entering the sweep (y, w, or psi)")

    def guarded(name, fn):
        if not debug:
            return fn()
        before = joint_log_density_terms(state, y, model)
        out = fn()
        after = joint_log_density_terms(state, y, model)
        for term in before:
            if term not in _BLANKETS[name] and after[term] != before[term]:
                raise AssertionError(
                    f"{name} update changed {term}: {before[term]!r} -> {after[term]!r}")
        return out

    S = _by_column(state.x * state.w)
    P, G = (state.psi @ y.T).T, state.psi @ state.psi.T  # psi is fixed through x and w
    guarded("x", lambda: _scan_factors(P, S, G, partial(_draw_x, state, _logit(state.tau)), rng))
    guarded("w", lambda: _scan_factors(P, S, G, partial(_draw_w, state), rng))
    guarded("psi", lambda: _scan_factors((S.T @ y).T, state.psi.T, S.T @ S,
                                         partial(_draw_psi, state, model.psi_scale), rng))
    guarded("precisions", lambda: _update_precisions(state, y - S @ state.psi, model, rng))
    guarded("tau", lambda: _update_tau(state, model, rng))

    for name, value in (("tau", state.tau), ("psi", state.psi), ("w", state.w),
                        ("gamma_w", state.gamma_w), ("gamma_e", state.gamma_e)):
        if not np.all(np.isfinite(value)):
            raise RuntimeError(f"non-finite values in {name} after sweep")
    if state.prior == "bondesson_tfa" and np.any(np.diff(state.tau) > 0):
        raise RuntimeError("truncation-prior ordering invariant violated")
    return state


# ---------------------------------------------------------------------------
# joint density bookkeeping
# ---------------------------------------------------------------------------

def _gamma_logpdf(value, shape, rate):
    return (shape * math.log(rate) - special.gammaln(shape)
            + (shape - 1) * math.log(value) - rate * value)


def joint_log_density_terms(state: GibbsState, y, model: LinearGaussianModel) -> dict:
    """Named terms of the unnormalized joint log density."""
    n = state.x.shape[0]
    K = model.K
    if state.prior == "aifa":
        a = model.gamma * model.alpha / K
        lp_tau = float(np.sum((a - 1) * np.log(state.tau)
                              + (model.alpha - 1) * np.log1p(-state.tau)
                              - special.betaln(a, model.alpha)))
    else:
        if np.any(np.diff(state.tau) > 0):
            lp_tau = -math.inf
        else:
            lp_tau = (K * math.log(model.gamma)
                      + (model.gamma - 1) * math.log(state.tau[-1])
                      - float(np.log(state.tau[:-1]).sum()))
    lp_psi = float(-0.5 * (state.psi**2).sum() / model.psi_scale
                   - 0.5 * state.psi.size * math.log(2 * math.pi * model.psi_scale))
    lp_w = float(-0.5 * state.gamma_w * (state.w**2).sum()
                 + 0.5 * state.w.size * (math.log(state.gamma_w) - math.log(2 * math.pi)))
    lp_x = float(np.sum(state.x * np.log(state.tau) + (1 - state.x) * np.log1p(-state.tau)))
    lp_prec = (_gamma_logpdf(state.gamma_w, model.prec_shape, model.prec_rate)
               + _gamma_logpdf(state.gamma_e, model.prec_shape, model.prec_rate))
    resid = np.asarray(y, dtype=float) - state.reconstruction
    lp_y = float(-0.5 * state.gamma_e * (resid**2).sum()
                 + 0.5 * resid.size * (math.log(state.gamma_e) - math.log(2 * math.pi)))
    return {"lp_tau": lp_tau, "lp_psi": lp_psi, "lp_w": lp_w, "lp_x": lp_x,
            "lp_prec": lp_prec, "lp_y": lp_y}


def joint_log_density(state, y, model) -> float:
    return sum(joint_log_density_terms(state, y, model).values())


# ---------------------------------------------------------------------------
# synthetic data and Geweke simulators
# ---------------------------------------------------------------------------

def generate_synthetic(N, D, n_features, rng, activation=0.3, feature_scale=1.0,
                       noise_prec=4.0, weight_prec=1.0):
    """Linear-Gaussian data from n_features ground-truth basis vectors.

    Returns (y, truth) where truth holds the generating psi, x, w and
    precisions; the generator doubles as the oracle in recovery tests.
    Every parameter is checked before the first draw.
    """
    integer(N, "N")
    integer(D, "D")
    integer(n_features, "n_features", 0)
    if not 0 <= real(activation, "activation") <= 1:
        raise ValueError(f"activation must lie in [0, 1], got {activation!r}")
    if real(feature_scale, "feature_scale") < 0:
        raise ValueError(f"feature_scale must be >= 0, got {feature_scale!r}")
    positive(noise_prec, "noise_prec")
    positive(weight_prec, "weight_prec")
    psi = rng.normal(0.0, feature_scale, size=(n_features, D))
    x = (rng.random((N, n_features)) < activation).astype(np.int8)
    w = rng.normal(0.0, 1.0 / math.sqrt(weight_prec), size=(N, n_features))
    y = (x * w) @ psi + rng.normal(0.0, 1.0 / math.sqrt(noise_prec), size=(N, D))
    truth = {"psi": psi, "x": x, "w": w, "noise_prec": noise_prec,
             "weight_prec": weight_prec, "activation": activation}
    return y, truth


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


# ---------------------------------------------------------------------------
# held-out evaluation
# ---------------------------------------------------------------------------

def impute_heldout_locals(samples: SampleBatch, y_heldout, model, rng, scans=5) -> SampleBatch:
    """The samples' globals with a posterior draw of the held-out rows' x, w (S, m, K);
    every column step redraws column k of all S samples in one call."""
    y = np.asarray(y_heldout, dtype=float)
    shape = (len(samples), y.shape[0], model.K)
    out = SampleBatch(samples.tau, samples.psi, samples.gamma_w, samples.gamma_e,
                      _by_column((rng.random(shape) < samples.tau[:, None, :]).astype(np.int8)),
                      _by_column(rng.normal(0.0, 1.0 / np.sqrt(samples.gamma_w)[..., None], size=shape)))
    S = _by_column(out.x * out.w)
    P = (out.psi @ y.T).swapaxes(-1, -2)  # (S, m, K) with contiguous columns, no copy
    G = out.psi @ out.psi.swapaxes(-1, -2)
    for _ in range(scans):
        _scan_factors(P, S, G, partial(_draw_x, out, _logit(out.tau)), rng)
        _scan_factors(P, S, G, partial(_draw_w, out), rng)
    return out


def predictive_log_likelihood(samples: SampleBatch, y_heldout) -> float:
    """Mean over held-out rows of log( (1/S) sum_s N(y | recon_s, I/gamma_e^s) ).

    The batch carries held-out x, w (impute_heldout_locals); invariant to sample order."""
    if len(samples) == 0:
        raise ValueError("need at least one posterior sample")
    if samples.x is None or samples.w is None:
        raise ValueError("the batch needs held-out locals x, w from impute_heldout_locals")
    y = np.asarray(y_heldout, dtype=float)
    log_terms = (-0.5 * samples.gamma_e * ((y - samples.reconstruction)**2).sum(axis=-1)
                 + 0.5 * y.shape[1] * (np.log(samples.gamma_e) - math.log(2 * math.pi)))
    return float(np.mean(special.logsumexp(log_terms, axis=0) - math.log(len(samples))))


def data_informed_init(model, y, rng):
    """Prior state with basis vectors seeded from randomly chosen data rows.

    All chains (and both priors) start from structurally comparable points,
    which removes most feature-birth mode variance of the uncollapsed scan;
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


def run_chain(model, y, sweeps, rng, burnin=0, thin=1, initial_state=None):
    """Run one chain and return (final state, SampleBatch of kept globals, stats).

    ``stats`` is a (sweeps, len(CHAIN_STATS)) array; row s - 1 holds sweep
    s's Geweke statistics sum_x, mean_tau and gamma_e, then gamma_w and the
    joint log density, named by CHAIN_STATS.  An ``initial_state`` must
    have been drawn under the model's prior.
    """
    y = np.asarray(y, dtype=float)
    state = init_state(model, y.shape[0], rng) if initial_state is None else initial_state
    n, K = max(0, sweeps - burnin) // thin, model.K
    samples = SampleBatch(np.empty((n, K)), np.empty((n, K, model.D)), *np.empty((2, n, 1)))
    stats = np.empty((sweeps, len(CHAIN_STATS)))
    for sweep in range(1, sweeps + 1):
        state = gibbs_sweep(state, y, model, rng)
        stats[sweep - 1] = (state.x.sum(), state.tau.mean(), state.gamma_e, state.gamma_w,
                            joint_log_density(state, y, model))
        if sweep > burnin and (sweep - burnin) % thin == 0:
            for name in ("tau", "psi", "gamma_w", "gamma_e"):
                getattr(samples, name)[(sweep - burnin) // thin - 1] = getattr(state, name)
    return state, samples, stats

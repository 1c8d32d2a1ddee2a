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

The scan order is fixed ((x, w) jointly, psi, precisions, tau) and every update
draws through the caller's generator, so a chain is reproducible from its seed.
The blocks are module functions that the sweep calls by name, so a test can
wrap each one, as the tests' Markov-blanket check (Geweke 2004) does.
The joint block draws each column's x with its w integrated out, then w given x:
one column scan with the same stationary law as separate x and w scans.  Its
factor kernel reads each column's residual projection from y psi^T and psi psi^T,
fixed during the block, and takes optional leading sample axes: a sweep has none,
held-out scoring runs all kept samples (one GibbsState with a sample axis) at once.
The kernel's column step takes that column's uniforms and normals from its caller.
A sweep draws them for the whole block first, one (K, N) uniform call and then one
(K, N) normal call, turns them into compare thresholds and scaled noise in a few
array passes, and writes x and w in one pass after the last column; only the
projection, the compare, w's mean plus noise and the S column stay in the loop.
Held-out imputation draws one uniform and one normal call per column, for all
samples, as a loop over samples did: a (K, S, m) pre-draw would hold three more
arrays of that size and ran slower.
psi is one joint Gaussian block: given S = x * w its columns share the precision
I / psi_scale + gamma_e S^T S, drawn through its Cholesky factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _special as special
from .checks import integer, positive, real

__all__ = [
    "LinearGaussianModel",
    "GibbsState",
    "init_state",
    "aifa_tau_conditional",
    "sample_truncated_beta",
    "tfa_tau_conditional_params",
    "tfa_tau_conditional_sample",
    "gibbs_sweep",
    "joint_log_density_terms",
    "joint_log_density",
    "generate_synthetic",
    "impute_heldout_locals",
    "predictive_log_likelihood",
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
    """Latent state of one chain, owned by that chain; or S kept samples of it (a batch),
    with a leading sample axis on tau (S, K) and psi (S, K, D), the precisions as (S, 1)
    columns that broadcast over rows as one chain's floats do, and x, w (S, m, K) of
    held-out rows, None until ``impute_heldout_locals`` fills them."""

    tau: np.ndarray      # (K,)
    psi: np.ndarray      # (K, D)
    x: np.ndarray        # (N, K) in {0, 1}
    w: np.ndarray        # (N, K)
    gamma_w: float
    gamma_e: float
    prior: str           # "aifa" | "bondesson_tfa"
    degenerate_draws: int = 0  # truncated-beta intervals below resolution
    # not fields: sums the last sweep's blocks formed, for run_chain's density row
    resid_sq = math.nan  # ||y - S psi||^2 (precision block)
    w_sq = math.nan      # ||w||^2 (precision block)
    x_count = None       # active rows per column (tau block)

    @property
    def reconstruction(self):
        return (self.x * self.w) @ self.psi  # (S, m, D) by batched matmul in a batch

    def __len__(self):
        """The sample count of a batch; one chain's state has no sample axis."""
        if self.tau.ndim < 2:
            raise TypeError("one chain's state has no sample axis")
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
    # column-contiguous, as the sweep's (x, w) block leaves them: x is counted by column
    return GibbsState(tau, psi, _by_column(x), _by_column(w), gamma_w, gamma_e, model.prior)


# ---------------------------------------------------------------------------
# tau conditionals
# ---------------------------------------------------------------------------

def aifa_tau_conditional(x_column_sum, N, model: LinearGaussianModel):
    """Beta(gamma*alpha/K + sum_n x_{n,k}, alpha + N - sum_n x_{n,k}): the
    exact complete conditional, independent across atoms; the column sums
    broadcast."""
    if np.any(np.asarray(x_column_sum) < 0) or np.any(np.asarray(x_column_sum) > N):
        raise ValueError("column sum must lie in [0, N]")
    return _aifa_tau_params(x_column_sum, N, model)


def _aifa_tau_params(x_column_sum, N, model):
    """aifa_tau_conditional without its range check, for counts the sweep has just formed."""
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


def tfa_tau_conditional_params(state: GibbsState, k, model: LinearGaussianModel, m_k):
    """(shape1, shape2, lo, hi) of the k-th truncated-beta conditional given m_k, column k's
    active rows; boundary conventions tau_0 = 1, tau_{K+1} = 0."""
    K = state.tau.size
    N = state.x.shape[0]
    shape1 = (model.gamma if k == K - 1 else 0.0) + m_k
    shape2 = N - m_k + 1.0
    hi = 1.0 if k == 0 else float(state.tau[k - 1])
    lo = 0.0 if k == K - 1 else float(state.tau[k + 1])
    return shape1, shape2, lo, hi


def _sample_trunc_log_density(s, lo, hi, rng):
    """Exact draw from density ~ tau^-1 (1-tau)^(s-1) on [lo, hi], 0 < lo, the shape1 = 0 limit,
    by rejection from a log-uniform proposal, accepted with prob. ((1-tau) / (1-lo))^(s-1), or
    from ~ (1-tau)^(s-1), by inversion, accepted with prob. lo / tau.  Their acceptance rates
    stand in the ratio M / (lo log(hi/lo)), M = int_lo^hi ((1-t) / (1-lo))^(s-1) dt, so the
    better one is taken (rate >= 0.2 on a grid of s to 1e5, lo from 1e-300 to 0.999)."""
    log_ratio, log_lo = math.log(hi / lo), math.log1p(-lo)
    # span = 1 - ((1-hi) / (1-lo))^s, so M = (1-lo) span / s
    span = -math.expm1(s * ((math.log1p(-hi) if hi < 1.0 else -math.inf) - log_lo))
    if (1.0 - lo) * span / s >= lo * log_ratio:
        while True:
            cand = min(lo * math.exp(rng.random() * log_ratio), hi)
            if cand < 1.0 and rng.random() < math.exp((s - 1) * (math.log1p(-cand) - log_lo)):
                return cand
    while True:
        cand = -math.expm1(log_lo + math.log1p(-rng.random() * span) / s)
        cand = min(max(cand, lo), hi)
        if rng.random() * cand < lo:
            return cand


def tfa_tau_conditional_sample(state: GibbsState, k, model: LinearGaussianModel, rng, m_k):
    """Draw tau_k from its interval-truncated beta conditional given m_k, column k's active
    rows, and write it back; preserves the ordering invariant by construction."""
    shape1, shape2, lo, hi = tfa_tau_conditional_params(state, k, model, m_k)
    if shape1 > 0:
        draw, degenerate = sample_truncated_beta(shape1, shape2, lo, hi, rng)
        state.degenerate_draws += degenerate
    else:  # an unused atom before the last one: exponent -1, beta machinery does
        # not apply, but the truncated density is proper for lo > 0
        draw = _sample_trunc_log_density(shape2, max(lo, 1e-300), hi, rng)
    state.tau[k] = min(max(draw, 1e-300), 1.0 - 1e-16)
    return state.tau[k]


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _logit(tau):
    """log(tau / (1 - tau)) by math.log: numpy's vector log can differ in the last bit."""
    return np.reshape([math.log(t) - math.log1p(-t) for t in tau.ravel().tolist()], tau.shape)


def _xw_scalars(state, logit, gram):
    """Per-column scalars (base, slope, to_mean, sd) of the joint (x, w) block, each with
    trailing axis k: (K,) in a sweep, (..., K) with sample axes.  With b = gamma_e proj and
    lam = gamma_w + gamma_e gram[k, k], the matrix-determinant lemma and Sherman-Morrison give
    the exact collapsed log odds of x[..., k] = 1 with w[..., k] integrated out, base + slope
    proj^2: base = logit tau_k + log(gamma_w / lam) / 2, slope = gamma_e^2 / (2 lam).  Given
    x = 1, w ~ N(to_mean proj, sd^2) with to_mean = gamma_e / lam and sd = lam^-1/2."""
    inv_lam = 1.0 / (state.gamma_w + state.gamma_e * np.diagonal(gram, axis1=-2, axis2=-1))
    return (logit + 0.5 * np.log(state.gamma_w * inv_lam), 0.5 * state.gamma_e**2 * inv_lam,
            state.gamma_e * inv_lam, np.sqrt(inv_lam))


def _xw_noise(u, z, base, slope, sd, prior_sd):
    """Uniforms u and normals z in the form a column step reads them: (t, z sd, z / prior_sd).
    x = 1 where u < 1 / (1 + exp(-(base + slope proj^2))), that is where proj^2 > t =
    (logit u - base) / slope, as slope > 0 (u = 0 gives t = -inf and x = 1).  Rows with x = 1
    take w = to_mean proj + z sd, rows with x = 0 w's prior draw z / prior_sd.  t and the
    prior draw overwrite u and z, so a sweep holds no more (K, N) arrays than it needs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(np.divide(u, 1.0 - u, out=u), out=u)
        t -= base
        t /= slope
    return t, z * sd, np.divide(z, prior_sd, out=z)


def _draw_xw(state, logit, gram, rng):
    """The sweep's joint (x, w) block as _scan_factors' (step, draws, done).  Its randomness is
    one (K, N) uniform call, then one (K, N) normal call, both turned by _xw_noise at once; row
    k is column k's.  The step keeps only what needs the column's projection: the compare of
    proj^2 with the threshold row, w's mean plus its noise, and the new S column.  x goes to a
    (K, N) store and w's posterior draw to its noise row.  done then writes state.x, and
    state.w as the prior draws with the posterior draw put in where x = 1, in one pass."""
    base, slope, to_mean, sd = _xw_scalars(state, logit, gram)
    shape = state.x.shape[::-1]
    T, W, Zp = _xw_noise(rng.random(shape), rng.standard_normal(shape), base[:, None],
                         slope[:, None], sd[:, None], math.sqrt(state.gamma_w))
    X = np.empty(shape, dtype=bool)
    to_mean = to_mean.tolist()

    def step(k, proj, noise):
        t, w = noise  # w: row k of W, the posterior noise until w's mean is added
        x = np.greater(proj * proj, t, out=X[k])
        return x * np.add(proj * to_mean[k], w, out=w)

    def done():
        np.putmask(Zp, X, W)  # w: the posterior draw where x = 1, the prior draw elsewhere
        state.x, state.w = X.view(np.int8).T, Zp.T  # columns contiguous
    return step, zip(T, W), done


def _by_column(a):
    """``a`` with contiguous columns a[..., k]; the layout of S decides how left @ gram rounds."""
    return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _scan_factors(P, left, gram, step, draws, done=None):
    """Redraw each left[..., k] by step(k, proj, noise), noise the k-th item of draws, with
    proj = P[..., k] - sum_{j != k} left[..., j] gram[..., j, k] on the current left: for
    P = y r^T and gram = r r^T, r fixed, that is (y - sum_{j != k} outer(left_j, r_j)) @ r_k.
    Then done(), if given.  The (x, w) block runs on (y psi^T, S, psi psi^T): in the sweep the
    column noise is rows of blocks drawn once (_draw_xw), and in held-out imputation it is
    drawn per column (impute_heldout_locals); psi is drawn as one joint block (_update_psi).
    Leading axes index samples."""
    cross = gram * (1.0 - np.eye(gram.shape[-1]))
    for k, noise in enumerate(draws):
        proj = P[..., k] - (left @ cross[..., :, k, None])[..., 0]
        left[..., k] = step(k, proj, noise)
    if done is not None:
        done()


def _update_psi(state, S, y, psi_scale, rng):
    """psi | S = x * w, y, one exact joint draw.  The columns psi[:, d] are independent with
    precision Lam = I / psi_scale + gamma_e S^T S = L L^T and mean Lam^-1 gamma_e S^T y[:, d],
    so psi = L^-T (L^-1 gamma_e S^T y + Z), with Z (K, D) from one standard-normal call."""
    L = np.linalg.cholesky(np.eye(S.shape[1]) / psi_scale + state.gamma_e * (S.T @ S))
    state.psi = np.linalg.solve(L.T, np.linalg.solve(L, state.gamma_e * (S.T @ y))
                                + rng.standard_normal(state.psi.shape))


def _update_precisions(state, E, model, rng):
    """gamma_w | w and gamma_e | E = y - S psi; keeps ||E||^2 and ||w||^2 on the state."""
    state.resid_sq = float((E**2).sum())
    state.w_sq = float((state.w**2).sum())
    state.gamma_w = rng.gamma(model.prec_shape + 0.5 * state.w.size,
                              1.0 / (model.prec_rate + 0.5 * state.w_sq))
    state.gamma_e = rng.gamma(model.prec_shape + 0.5 * E.size,
                              1.0 / (model.prec_rate + 0.5 * state.resid_sq))


def _update_tau(state, model, rng):
    m = state.x_count = state.x.sum(axis=0)  # active rows per column
    if state.prior == "aifa":
        a, b = _aifa_tau_params(m, state.x.shape[0], model)
        state.tau = np.clip(rng.beta(a, b), 1e-300, 1.0 - 1e-16)
    else:
        for k, m_k in enumerate(m.tolist()):
            tfa_tau_conditional_sample(state, k, model, rng, m_k)


def gibbs_sweep(state: GibbsState, y, model: LinearGaussianModel, rng) -> GibbsState:
    """One systematic scan: (x, w) jointly, psi, precisions, tau (order fixed)."""
    if state.prior != model.prior:
        raise ValueError(f"the state was drawn under prior {state.prior!r}, "
                         f"but the model's prior is {model.prior!r}")
    y = np.asarray(y, dtype=float)
    if y.shape != (state.x.shape[0], model.D):
        raise ValueError(f"data shape {y.shape} does not match state/model")
    if not (np.isfinite(y).all() and np.isfinite(state.w).all()
            and np.isfinite(state.psi).all()):
        raise RuntimeError("non-finite values entering the sweep (y, w, or psi)")

    S = _by_column(state.x * state.w)
    P, G = (state.psi @ y.T).T, state.psi @ state.psi.T  # psi is fixed through (x, w)
    _scan_factors(P, S, G, *_draw_xw(state, _logit(state.tau), G, rng))
    _update_psi(state, S, y, model.psi_scale, rng)
    _update_precisions(state, y - S @ state.psi, model, rng)
    _update_tau(state, model, rng)

    for name, value in (("tau", state.tau), ("psi", state.psi), ("w", state.w),
                        ("gamma_w", state.gamma_w), ("gamma_e", state.gamma_e)):
        if not np.isfinite(value).all():
            raise RuntimeError(f"non-finite values in {name} after sweep")
    if state.prior == "bondesson_tfa" and np.any(np.diff(state.tau) > 0):
        raise RuntimeError("truncation-prior ordering invariant violated")
    return state


# ---------------------------------------------------------------------------
# joint density bookkeeping
# ---------------------------------------------------------------------------

def _gamma_logpdf(value, norm, shape, rate):
    """Gamma(shape, rate) log density at value; norm = shape log(rate) - gammaln(shape)."""
    return norm + (shape - 1) * math.log(value) - rate * value


@functools.lru_cache(maxsize=16)
def _log_norms(model, prior):
    """The model-only terms of the joint log density, each formed as the density
    once formed it in place, so every sum keeps its order: the tau prior's (AIFA
    log B(gamma alpha / K, alpha), TFA K log gamma), psi's Gaussian normalizer and
    the precisions' gamma normalizer."""
    if prior == "aifa":
        tau = special.betaln(model.gamma * model.alpha / model.K, model.alpha)
    else:
        tau = model.K * math.log(model.gamma)
    psi = 0.5 * (model.K * model.D) * math.log(2 * math.pi * model.psi_scale)
    prec = model.prec_shape * math.log(model.prec_rate) - special.gammaln(model.prec_shape)
    return tau, psi, prec


def joint_log_density_terms(state: GibbsState, y, model: LinearGaussianModel) -> dict:
    """Named terms of the unnormalized joint log density."""
    resid = np.asarray(y, dtype=float) - state.reconstruction
    return _log_density_terms(state, model, state.x.sum(axis=0), float((state.w**2).sum()),
                              float((resid**2).sum()), resid.size)


def _log_density_terms(state, model, m, w_sq, resid_sq, n_resid):
    """joint_log_density_terms from the column counts m, ||w||^2 and the residual's
    sum of squares over n_resid cells, as a sweep's blocks formed them."""
    n = state.x.shape[0]
    tau_norm, psi_norm, prec_norm = _log_norms(model, state.prior)
    log_tau, log1m_tau = np.log(state.tau), np.log1p(-state.tau)
    if state.prior == "aifa":
        a = model.gamma * model.alpha / model.K
        lp_tau = float(np.sum((a - 1) * log_tau + (model.alpha - 1) * log1m_tau - tau_norm))
    elif np.any(np.diff(state.tau) > 0):
        lp_tau = -math.inf
    else:
        lp_tau = (tau_norm + (model.gamma - 1) * math.log(state.tau[-1])
                  - float(log_tau[:-1].sum()))
    lp_psi = float(-0.5 * (state.psi**2).sum() / model.psi_scale - psi_norm)
    lp_w = float(-0.5 * state.gamma_w * w_sq
                 + 0.5 * state.w.size * (math.log(state.gamma_w) - math.log(2 * math.pi)))
    lp_x = float(np.sum(m * log_tau + (n - m) * log1m_tau))
    lp_prec = (_gamma_logpdf(state.gamma_w, prec_norm, model.prec_shape, model.prec_rate)
               + _gamma_logpdf(state.gamma_e, prec_norm, model.prec_shape, model.prec_rate))
    lp_y = (-0.5 * state.gamma_e * resid_sq
            + 0.5 * n_resid * (math.log(state.gamma_e) - math.log(2 * math.pi)))
    return {"lp_tau": lp_tau, "lp_psi": lp_psi, "lp_w": lp_w, "lp_x": lp_x,
            "lp_prec": lp_prec, "lp_y": lp_y}


def joint_log_density(state, y, model) -> float:
    return sum(joint_log_density_terms(state, y, model).values())


# ---------------------------------------------------------------------------
# synthetic data
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


# ---------------------------------------------------------------------------
# held-out evaluation
# ---------------------------------------------------------------------------

def impute_heldout_locals(samples: GibbsState, y_heldout, model, rng, scans=5) -> GibbsState:
    """The batch's globals with a posterior draw of the held-out rows' x, w (S, m, K);
    every column step redraws column k of all S samples in one call."""
    y = np.asarray(y_heldout, dtype=float)
    shape = (len(samples), y.shape[0], model.K)
    sd = 1.0 / np.sqrt(samples.gamma_w)[..., None]
    out = replace(samples,
                  x=_by_column((rng.random(shape) < samples.tau[:, None, :]).astype(np.int8)),
                  w=_by_column(rng.normal(0.0, sd, size=shape)))
    S = _by_column(out.x * out.w)
    P = (out.psi @ y.T).swapaxes(-1, -2)  # (S, m, K) with contiguous columns, no copy
    G = out.psi @ out.psi.swapaxes(-1, -2)
    base, slope, to_mean, sd = (np.moveaxis(c, -1, 0)[..., None]
                                for c in _xw_scalars(out, _logit(out.tau), G))  # (K, S, 1)
    prior_sd = np.sqrt(out.gamma_w)
    xs, ws = np.moveaxis(out.x, -1, 0), np.moveaxis(out.w, -1, 0)  # column k is xs[k], ws[k]

    def step(k, proj, noise):
        t, zs, zp = noise
        x = proj * proj > t
        w = proj * to_mean[k] + zs
        xs[k], ws[k] = x, np.where(x, w, zp)
        return x * w

    def draws():  # per column, as the reference loop over samples drew them
        for k in range(model.K):
            yield _xw_noise(rng.random(shape[:2]), rng.standard_normal(shape[:2]),
                            base[k], slope[k], sd[k], prior_sd)
    for _ in range(scans):
        _scan_factors(P, S, G, step, draws())
    return out


def predictive_log_likelihood(samples: GibbsState, y_heldout) -> float:
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


def run_chain(model, y, sweeps, rng, burnin=0, thin=1, initial_state=None):
    """Run one chain and return (final state, kept globals as a GibbsState batch, stats).

    ``stats`` is a (sweeps, len(CHAIN_STATS)) array; row s - 1 holds sweep
    s's Geweke statistics sum_x, mean_tau and gamma_e, then gamma_w and the
    joint log density, named by CHAIN_STATS.  An ``initial_state`` must
    have been drawn under the model's prior.
    """
    y = np.asarray(y, dtype=float)
    state = init_state(model, y.shape[0], rng) if initial_state is None else initial_state
    n, K = max(0, sweeps - burnin) // thin, model.K
    samples = GibbsState(np.empty((n, K)), np.empty((n, K, model.D)), None, None,
                         *np.empty((2, n, 1)), model.prior)
    stats = np.empty((sweeps, len(CHAIN_STATS)))
    for sweep in range(1, sweeps + 1):
        state = gibbs_sweep(state, y, model, rng)
        # the density row from the sums the sweep's blocks formed: no later block
        # moves S, psi, w or x
        m = state.x_count
        terms = _log_density_terms(state, model, m, state.w_sq, state.resid_sq, y.size)
        stats[sweep - 1] = (m.sum(), state.tau.mean(), state.gamma_e, state.gamma_w,
                            sum(terms.values()))
        if sweep > burnin and (sweep - burnin) % thin == 0:
            for name in ("tau", "psi", "gamma_w", "gamma_e"):
                getattr(samples, name)[(sweep - burnin) // thin - 1] = getattr(state, name)
    return state, samples, stats

"""Exact marginal (predictive) processes and their finite-approximation twins.

For the three exponential-family CRM-likelihood pairs without power law
(beta-Bernoulli, gamma-Poisson, beta-negative-binomial), the predictive
distribution of an instantiated atom's count depends on its history only
through the round index n and the count total S:

    beta-Bernoulli      h(1 | hist) = S / (alpha - 1 + n)
    gamma-Poisson       h(x | hist) = NB(x | S, 1/(lambda + n))
    beta-neg-binomial   h(x | hist) = Gamma(x+r)/(x! Gamma(r))
                                      * B(S + x, rn + alpha) / B(S, r(n-1) + alpha)

The level-K approximation shifts S by c/K (c = gamma*alpha resp. gamma*lambda),
which also gives the dormant-atom law at an all-zero history.  Fresh atoms in
the target process arrive as independent Poissons with means M_{n,x}; their
per-round totals have closed forms (the beta-negative-binomial one is a
digamma difference, cross-checked against brute-force summation in the tests).

Each predictive is the marginal of a conjugate latent weight: after n rounds
with count total S an atom's weight is Beta(S + shift, alpha + n - S),
Gamma(S + shift, rate lambda + n) or Beta(S + shift, alpha + r n), and its
later counts are i.i.d. Bernoulli, Poisson or negative binomial given that
weight.  Allocations are simulated this way, with no round-by-round walk.
The level-K (AIFA) source *is* K i.i.d. IFA weights, Beta(c/K, alpha) or
Gamma(c/K, lambda), plus the likelihood.  The target source draws each
round's births as one Poisson, their sizes by inverse CDF over
M_{n,x} / sum_x M_{n,x}, and every later count from the posterior weight
after the birth round.

Infinite sums over x are truncated with certified remainders: totals are known
in closed form, and because the predictive families are likelihood-ratio
ordered in the count total, past the single sign change of the term
difference the neglected remainder is exactly |tail_a - tail_b|.

The module also houses the Dirichlet-process and finite-symmetric-Dirichlet
urn probabilities and the numeric four-inequality growth/approximation
condition checker with per-family presets.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .measures import Family, RateMeasureSpec

__all__ = [
    "ModelKind",
    "ExpFamilyModel",
    "beta_bernoulli",
    "gamma_poisson",
    "beta_negative_binomial",
    "target_predictive_pmf",
    "approx_predictive_pmf",
    "target_new_atom_rate",
    "total_new_atom_rate",
    "approx_fresh_mass",
    "FeatureAllocation",
    "simulate_allocation",
    "allocation_log_probability",
    "dp_urn_probs",
    "fsd_urn_probs",
    "Condition1Bounds",
    "generic_condition_bounds",
    "condition_preset",
    "check_condition_1",
]

_TAIL_TOL = 1e-12
_ATOM_BLOCK = 512  # AIFA atoms per count draw: memory stays O(N * block)
_SIZE_GRID_MAX = 1 << 23


class ModelKind(enum.Enum):
    BETA_BERNOULLI = "beta_bernoulli"
    GAMMA_POISSON = "gamma_poisson"
    BETA_NEG_BINOMIAL = "beta_neg_binomial"


@dataclass(frozen=True)
class ExpFamilyModel:
    """A d = 0 exponential-family CRM paired with its count likelihood."""

    kind: ModelKind
    spec: RateMeasureSpec
    r: float = 0.0  # negative-binomial stopping parameter, BETA_NEG_BINOMIAL only

    def __post_init__(self):
        if self.spec.discount != 0.0:
            raise ValueError("marginal processes require discount d = 0")
        if self.kind in (ModelKind.BETA_BERNOULLI, ModelKind.BETA_NEG_BINOMIAL):
            if self.spec.family is not Family.BETA:
                raise ValueError(f"{self.kind.value} needs a beta-family rate measure")
        else:
            if self.spec.family is not Family.GAMMA:
                raise ValueError("gamma_poisson needs a gamma-family rate measure")
        if self.kind is ModelKind.BETA_NEG_BINOMIAL:
            if not self.r > 0:
                raise ValueError(f"negative-binomial r must be positive, got {self.r}")
            if not self.alpha > 1:
                raise ValueError(f"beta-neg-binomial requires alpha > 1, got {self.alpha}")

    @property
    def gamma(self):
        return self.spec.gamma

    @property
    def alpha(self):
        return self.spec.extra("eta")  # d = 0, so eta is the concentration

    @property
    def lam(self):
        return self.spec.extra("rate")

    @property
    def mass_shift(self):
        """c = gamma*alpha (beta families) or gamma*lambda; the approximate
        model adds c/K to every count total."""
        if self.kind is ModelKind.GAMMA_POISSON:
            return self.gamma * self.lam
        return self.gamma * self.alpha


def beta_bernoulli(gamma, alpha) -> ExpFamilyModel:
    return ExpFamilyModel(ModelKind.BETA_BERNOULLI,
                          RateMeasureSpec(Family.BETA, gamma, 0.0, eta=alpha))


def gamma_poisson(gamma, lam) -> ExpFamilyModel:
    return ExpFamilyModel(ModelKind.GAMMA_POISSON,
                          RateMeasureSpec(Family.GAMMA, gamma, 0.0, rate=lam))


def beta_negative_binomial(gamma, alpha, r) -> ExpFamilyModel:
    return ExpFamilyModel(ModelKind.BETA_NEG_BINOMIAL,
                          RateMeasureSpec(Family.BETA, gamma, 0.0, eta=alpha), r=float(r))


# ---------------------------------------------------------------------------
# predictive pmfs
# ---------------------------------------------------------------------------

def _predictive_logpmf(model, n, S, shift, x):
    """log pmf of the next count at an atom whose history of n-1 observations
    sums to S; ``shift`` is the approximation's pseudo-count c/K (0 for the
    target).  Fully broadcastable.  The shift augments the count total but not
    the number of trials, which for Bernoulli counts moves the denominator to
    alpha - 1 + n + c/K."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    total = np.asarray(S, dtype=float) + shift
    if model.kind is ModelKind.BETA_BERNOULLI:
        p1 = total / (model.alpha - 1.0 + n + shift)
        with np.errstate(divide="ignore"):
            return np.where(x == 1, np.log(p1), np.where(x == 0, np.log1p(-p1), -np.inf))
    if model.kind is ModelKind.GAMMA_POISSON:
        p = 1.0 / (model.lam + n)
        return (special.gammaln(total + x) - special.gammaln(total) - special.gammaln(x + 1)
                + x * np.log(p) + total * np.log1p(-p))
    r, al = model.r, model.alpha
    return (special.gammaln(x + r) - special.gammaln(x + 1) - special.gammaln(r)
            + special.betaln(total + x, r * n + al) - special.betaln(total, r * (n - 1) + al))


def _check_history(model, history):
    history = np.asarray(history, dtype=float)
    if history.size and (np.any(history < 0) or np.any(history != np.floor(history))):
        raise ValueError("history entries must be nonnegative integer counts")
    if model.kind is ModelKind.BETA_BERNOULLI and np.any(history > 1):
        raise ValueError("beta-Bernoulli counts are binary")
    return history


def target_predictive_pmf(model: ExpFamilyModel, history, x) -> float:
    """P(next count = x) at an atom already instantiated with the given history."""
    history = _check_history(model, history)
    total = history.sum()
    if total == 0:
        raise ValueError("atom not yet instantiated in the target process (all-zero history)")
    n = history.size + 1
    return float(np.exp(_predictive_logpmf(model, n, total, 0.0, x)))


def approx_predictive_pmf(model: ExpFamilyModel, K, history, x) -> float:
    """Same predictive under the level-K approximation; all-zero histories are
    allowed and govern the dormant atoms."""
    if K < 1:
        raise ValueError(f"approximation level K must be >= 1, got {K}")
    history = _check_history(model, history)
    n = history.size + 1
    return float(np.exp(_predictive_logpmf(model, n, history.sum(), model.mass_shift / K, x)))


def target_new_atom_rate(model: ExpFamilyModel, n, x):
    """Poisson mean M_{n,x} of brand-new atoms of size x in round n."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("round index n must be >= 1")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 1) or np.any(x_arr != np.floor(x_arr)):
        raise ValueError("new-atom sizes x must be integers >= 1")
    n = np.asarray(n, dtype=float)
    if model.kind is ModelKind.BETA_BERNOULLI:
        out = np.where(x_arr == 1, model.gamma * model.alpha / (model.alpha - 1.0 + n), 0.0)
    elif model.kind is ModelKind.GAMMA_POISSON:
        with np.errstate(under="ignore"):
            out = model.gamma * model.lam * np.exp(-np.log(x_arr) - x_arr * np.log(model.lam + n))
    else:
        r, al = model.r, model.alpha
        out = model.gamma * al * np.exp(special.gammaln(x_arr + r) - special.gammaln(x_arr + 1)
                                        - special.gammaln(r) + special.betaln(x_arr, r * n + al))
    return out if np.asarray(out).shape else float(out)


def total_new_atom_rate(model: ExpFamilyModel, n):
    """sum_x M_{n,x}, in closed form per family."""
    n = np.asarray(n, dtype=float)
    if model.kind is ModelKind.BETA_BERNOULLI:
        out = model.gamma * model.alpha / (model.alpha - 1.0 + n)
    elif model.kind is ModelKind.GAMMA_POISSON:
        out = -model.gamma * model.lam * np.log1p(-1.0 / (model.lam + n))
    else:
        r, al = model.r, model.alpha
        out = model.gamma * al * (special.digamma(r * n + al) - special.digamma(r * (n - 1) + al))
    return out if out.shape else float(out)


def approx_fresh_mass(model: ExpFamilyModel, K, n):
    """sum_{x>=1} h~(x | all-zero history) = P(a dormant atom activates in round n)."""
    n = np.asarray(n, dtype=float)
    c_over_k = model.mass_shift / K
    if model.kind is ModelKind.BETA_BERNOULLI:
        out = c_over_k / (model.alpha - 1.0 + n + c_over_k)
    elif model.kind is ModelKind.GAMMA_POISSON:
        out = -np.expm1(c_over_k * np.log1p(-1.0 / (model.lam + n)))
    else:
        r, al = model.r, model.alpha
        out = -np.expm1(special.betaln(c_over_k, r * n + al)
                        - special.betaln(c_over_k, r * (n - 1) + al))
    return out if out.shape else float(out)


def _conjugate_weight(model, S, n_seen, shift, rng):
    """Latent weight of an atom whose first ``n_seen`` counts total S, drawn
    from its conjugate posterior; ``shift`` is the level-K pseudo-count c/K
    (0 for the target).  S and n_seen broadcast."""
    S, n_seen = np.asarray(S, dtype=float), np.asarray(n_seen, dtype=float)
    if model.kind is ModelKind.BETA_BERNOULLI:
        return rng.beta(S + shift, model.alpha + n_seen - S)
    if model.kind is ModelKind.GAMMA_POISSON:
        return rng.gamma(S + shift, 1.0 / (model.lam + n_seen))
    return rng.beta(S + shift, model.alpha + model.r * n_seen)


def _draw_counts(model, theta, rng, n_rows):
    """(n_rows, len(theta)) counts, i.i.d. down each column given its weight."""
    size = (n_rows, theta.size)
    if model.kind is ModelKind.BETA_BERNOULLI:
        return (rng.random(size) < theta).astype(np.int64)
    if model.kind is ModelKind.GAMMA_POISSON:
        return rng.poisson(theta, size)
    # a weight that rounds to 1 would leave the negative binomial no success mass
    return rng.negative_binomial(model.r, np.maximum(1.0 - theta, np.finfo(float).eps), size)


# ---------------------------------------------------------------------------
# feature allocations
# ---------------------------------------------------------------------------

@dataclass
class FeatureAllocation:
    """Trait counts by observation x instantiated atom, columns in appearance
    order (first-appearance row, then descending count, then draw order)."""

    counts: np.ndarray  # (N, J) nonnegative integers

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2:
            raise ValueError("counts must be a 2-d array")
        if self.counts.shape[1] and np.any(self.counts.sum(axis=0) == 0):
            raise ValueError("every column must contain at least one nonzero count")
        if np.any(np.diff(self.first_rows()) < 0):
            raise ValueError("columns must appear in order of first appearance")

    def first_rows(self):
        if self.counts.shape[1] == 0:
            return np.empty(0, dtype=int)
        return (self.counts != 0).argmax(axis=0)

    @property
    def n_rows(self):
        return self.counts.shape[0]

    @property
    def n_columns(self):
        return self.counts.shape[1]


def _birth_sizes(model, rounds, rng):
    """Sizes of atoms born in the given (1-based) rounds, by inverse CDF over
    M_{n,x} / sum_x M_{n,x}.  The x grid doubles, only for the atoms whose
    uniform it does not cover yet; sizes stop where the remaining rate is
    below 1e-12."""
    totals = np.asarray(total_new_atom_rate(model, rounds), dtype=float)
    target = np.minimum(rng.random(rounds.size) * totals, totals - _TAIL_TOL)
    sizes = np.zeros(rounds.size, dtype=np.int64)
    todo = np.arange(rounds.size)
    x_max = 64
    while todo.size:
        if x_max > _SIZE_GRID_MAX:
            raise RuntimeError("birth-size walk failed to terminate")
        x = np.arange(1, x_max + 1, dtype=float)
        rates = target_new_atom_rate(model, rounds[todo, None], x[None, :])
        # the pairwise sum decides coverage: a cumsum over millions of terms
        # drifts past the 1e-12 tail
        done = rates.sum(axis=1) >= target[todo]
        below = (np.cumsum(rates[done], axis=1) < target[todo[done], None]).sum(axis=1)
        sizes[todo[done]] = np.minimum(below + 1, x_max)
        todo = todo[~done]
        x_max *= 2
    return sizes


def simulate_allocation(model: ExpFamilyModel, N, rng, source="target", K=None) -> FeatureAllocation:
    """Simulate N rounds of the marginal process from conjugate latent weights.

    source="aifa": K i.i.d. level-K IFA weights, each atom with N i.i.d.
    counts given its weight; atoms that never fire are dropped.
    source="target": each round's births are one Poisson draw with sizes from
    M_{n,x}; an atom's counts after its birth round are i.i.d. given its
    posterior weight after that round.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if source not in ("target", "aifa"):
        raise ValueError(f"unknown source {source!r}")
    if source == "aifa":
        if K is None or K < 1:
            raise ValueError("aifa source needs an approximation level K >= 1")
        born = np.full(K, -1)  # "born" before round 1: every row is drawn
        size = np.zeros(K, dtype=np.int64)
        theta = _conjugate_weight(model, size, 0, model.mass_shift / K, rng)
    else:
        n = np.arange(1, N + 1)
        born = np.repeat(n - 1, rng.poisson(total_new_atom_rate(model, n)))
        size = _birth_sizes(model, born + 1, rng)
        theta = _conjugate_weight(model, size, born + 1, 0.0, rng)
    rows = np.arange(N)[:, None]
    blocks = [np.zeros((N, 0), dtype=np.int64)]
    for lo in range(0, theta.size, _ATOM_BLOCK):
        block = slice(lo, lo + _ATOM_BLOCK)
        b, counts = born[block], _draw_counts(model, theta[block], rng, N)
        counts[rows <= b] = 0
        live = np.flatnonzero(b >= 0)
        counts[b[live], live] = size[block][live]
        blocks.append(counts[:, counts.any(axis=0)])
    mat = np.concatenate(blocks, axis=1)
    # canonical order: first row, then descending count there; lexsort is
    # stable, so ties keep draw order
    first_row = (mat != 0).argmax(axis=0)
    return FeatureAllocation(mat[:, np.lexsort((-mat[first_row, np.arange(mat.shape[1])],
                                                first_row))])


def allocation_log_probability(model: ExpFamilyModel, alloc: FeatureAllocation) -> float:
    """log P of a canonical feature-allocation matrix under the target process.

    Existing-atom counts chain the predictive pmf; fresh-atom counts per round
    and size are Poisson; atoms born in the same (round, size) group are
    exchangeable across their futures, so the canonical matrix carries a
    multiset-permutation factor d! / prod(multiplicities of identical columns).
    """
    counts = alloc.counts
    n_rows, n_cols = counts.shape
    first = alloc.first_rows()
    logp = 0.0
    for n in range(1, n_rows + 1):
        for j in range(n_cols):
            if first[j] < n - 1:
                total = float(counts[: n - 1, j].sum())
                logp += float(_predictive_logpmf(model, n, total, 0.0, counts[n - 1, j]))
        logp -= float(total_new_atom_rate(model, n))  # exp(-M_{n,x}) over every size
        born = [j for j in range(n_cols) if first[j] == n - 1]
        for x in {int(counts[n - 1, j]) for j in born}:
            group = [j for j in born if counts[n - 1, j] == x]
            rate = float(target_new_atom_rate(model, n, x))
            if rate == 0.0:
                return -math.inf  # a birth size the target never produces
            d = len(group)
            logp += d * math.log(rate)  # Poisson pmf minus log d!, which
            seen: dict = {}             # cancels against the d!
            for j in group:             # arrangement factor
                key = tuple(counts[:, j])
                seen[key] = seen.get(key, 0) + 1
            for m in seen.values():
                logp -= special.gammaln(m + 1)
    return logp


# ---------------------------------------------------------------------------
# urn schemes
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# the four-inequality condition checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condition1Bounds:
    """Right-hand sides of the four growth/approximation inequalities.

    rhs1(n)     bounds sum_x M_{n,x}
    rhs2(n, K)  bounds sum_{x>=1} h~(x | all-zero)
    rhs3(n, K)  bounds sum_x |h - h~| over any instantiated history
    rhs4(n, K)  bounds sum_{x>=1} |M_{n,x} - K h~(x | all-zero)|, evaluated
                only where K >= k_floor(n)
    """

    name: str
    rhs1: callable
    rhs2: callable
    rhs3: callable
    rhs4: callable
    k_floor: callable = field(default=lambda n: np.zeros_like(np.asarray(n, dtype=float)))


def generic_condition_bounds(C1, C2=0.0, C3=0.0, C4=0.0, C5=0.0) -> Condition1Bounds:
    """The literal five-constant parametrization of the condition."""
    return Condition1Bounds(
        name=f"generic(C1={C1},C2={C2},C3={C3},C4={C4},C5={C5})",
        rhs1=lambda n: C1 / (n - 1 + C1),
        rhs2=lambda n, K: C1 / (K * (n - 1 + C1)),
        rhs3=lambda n, K: C1 / (K * (n - 1 + C1)),
        rhs4=lambda n, K: (C4 * np.log(n) + C5) / (K * (n - 1 + C1)),
        k_floor=lambda n: C2 * (np.log(n) + C3),
    )


def condition_preset(model: ExpFamilyModel) -> Condition1Bounds:
    """The per-family verified bounds, shipped as named presets."""
    g = model.gamma
    if model.kind is ModelKind.BETA_BERNOULLI:
        al = model.alpha
        return Condition1Bounds(
            name="beta_bernoulli",
            rhs1=lambda n: g * al / (n - 1 + al),
            rhs2=lambda n, K: g * al / (K * (n - 1 + al)),
            rhs3=lambda n, K: 2 * g * al / (K * (n - 1 + al)),
            rhs4=lambda n, K: g * g * al / (K * (n - 1 + al)),
        )
    if model.kind is ModelKind.GAMMA_POISSON:
        lam = model.lam
        return Condition1Bounds(
            name="gamma_poisson",
            rhs1=lambda n: g * lam / (n - 1 + lam),
            rhs2=lambda n, K: g * lam / (K * (n - 1 + lam)),
            rhs3=lambda n, K: 2 * g * lam / (K * (n - 1 + lam)),
            rhs4=lambda n, K: (g * g * lam + math.e * g * g * lam * lam) / (K * (n - 1 + lam)),
            k_floor=lambda n: g * lam * np.ones_like(np.asarray(n, dtype=float)),
        )
    al, r = model.alpha, model.r
    return Condition1Bounds(
        name="beta_neg_binomial",
        rhs1=lambda n: g * al / (n - 1 + (al - 0.5) / r),
        rhs2=lambda n, K: 4 * g * al / (K * (n - 1 + (al - 0.5) / r)),
        rhs3=lambda n, K: 2 * g * al / (K * (n - 1 + al / r)),
        rhs4=lambda n, K: (g * al / K)
        * ((4 * g * al + 3) * np.log(r * n + al + 1) + (10 + 2 * r) * g * al + 24)
        / (n - 1 + (al - 0.5) / r),
        k_floor=lambda n: g * al * (3 * np.log(r * (np.asarray(n, dtype=float) - 1) + al) + 8),
    )


_HISTORY_SCAN = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 32, 50)
_SIGN_EPS = 1e-280
_GUARD = 16


def _certified_l1(terms, first_x, what):
    """sum_x |a - b| over x >= first_x, one value per row.  ``terms(x)`` gives
    the (a, b, tail_a, tail_b) grids on x = first_x..X with the exact tails
    past X; X doubles from 64 until the last _GUARD term differences of every
    row are single-signed.  The likelihood-ratio order guarantees a single
    crossing, so past it |sum of tail differences| = |tail_a - tail_b|."""
    x_max = 64
    while x_max <= 1 << 16:
        a, b, tail_a, tail_b = terms(np.arange(first_x, x_max + 1, dtype=float))
        diff = a - b
        guard = diff[:, -_GUARD:]
        if np.all((guard.min(axis=1) >= -_SIGN_EPS) | (guard.max(axis=1) <= _SIGN_EPS)):
            return np.abs(diff).sum(axis=1) + np.abs(tail_a - tail_b)
        x_max *= 2
    raise RuntimeError(f"{what}: no certified truncation point found")


def _l1_history(model, K_set, n_arr, S):
    """Certified sum_x |h - h~| at history total S for each K in K_set,
    vectorized over n.  The target pmf h does not depend on K, so its grid is
    built once per truncation point and shared."""
    shifts = [model.mass_shift / K for K in K_set]
    if model.kind is ModelKind.BETA_BERNOULLI:
        al = model.alpha
        h1 = S / (al - 1.0 + n_arr)
        return [2.0 * np.abs(h1 - (S + shift) / (al - 1.0 + n_arr + shift)) for shift in shifts]
    target = {}

    def pmf(x, shift):
        return np.exp(_predictive_logpmf(model, n_arr[:, None], float(S), shift, x[None, :]))

    def terms(x, shift):
        if x.size not in target:
            target[x.size] = pmf(x, 0.0)
        a, b = target[x.size], pmf(x, shift)
        return a, b, np.clip(1 - a.sum(axis=1), 0, None), np.clip(1 - b.sum(axis=1), 0, None)

    return [_certified_l1(lambda x: terms(x, shift), 0, "history L1 sum") for shift in shifts]


def _l4_mismatch(model, K, n_arr):
    """Certified sum_{x>=1} |M_{n,x} - K h~(x|0)|, vectorized over n."""
    shift = model.mass_shift / K
    if model.kind is ModelKind.BETA_BERNOULLI:
        al = model.alpha
        m1 = model.gamma * al / (al - 1.0 + n_arr)
        kh = K * shift / (al - 1.0 + n_arr + shift)
        return np.abs(m1 - kh)
    totals = np.asarray(total_new_atom_rate(model, n_arr), dtype=float)
    fresh = np.asarray(approx_fresh_mass(model, K, n_arr), dtype=float)

    def terms(x):
        m = target_new_atom_rate(model, n_arr[:, None], x[None, :])
        h = K * np.exp(_predictive_logpmf(model, n_arr[:, None], 0.0, shift, x[None, :]))
        return (m, h, np.clip(totals - m.sum(axis=1), 0, None),
                np.clip(K * fresh - h.sum(axis=1), 0, None))

    return _certified_l1(terms, 1, "new-atom mismatch sum")


def check_condition_1(model: ExpFamilyModel, bounds: Condition1Bounds, n_max, K_set,
                      history_scan=_HISTORY_SCAN) -> dict:
    """Evaluate the four inequalities numerically for all n <= n_max, K in K_set.

    Left-hand sides are exact up to certified remainders below 1e-12 (folded
    in conservatively).  Inequality 3 is maximized over instantiated histories
    with count totals in ``history_scan``; inequality 4 is evaluated only at
    (n, K) with K >= k_floor(n), as its statement requires.  Violations
    produce failure entries in the report, never exceptions; an n_max or
    K_set out of range raises ValueError.
    """
    def is_int(v, lo):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= lo

    if not is_int(n_max, 2):
        raise ValueError(f"n_max must be an integer >= 2 (inequality 3 needs n >= 2), "
                         f"got {n_max!r}")
    if not (isinstance(K_set, (list, tuple, np.ndarray)) and len(K_set)
            and all(is_int(K, 1) for K in K_set)):
        raise ValueError(f"K_set must be a non-empty list of integers >= 1, got {K_set!r}")
    K_set = sorted(K_set)
    n_arr = np.arange(1, int(n_max) + 1, dtype=float)
    grace = 1e-12
    report = {"model": model.kind.value, "bounds": bounds.name, "n_max": int(n_max),
              "K_set": [int(K) for K in K_set],
              "history_scan": list(history_scan), "inequalities": []}

    def record(idx, slack_arr, n_of, K=None, extra=None):
        worst = int(np.argmin(slack_arr))
        entry = {"inequality": idx,
                 "n_worst": int(n_of[worst]),
                 "K": None if K is None else int(K),
                 "slack": float(slack_arr[worst]),
                 "pass": bool(slack_arr[worst] >= -grace)}
        if extra:
            entry.update(extra)
        report["inequalities"].append(entry)

    lhs1 = np.asarray(total_new_atom_rate(model, n_arr), dtype=float)
    record(1, bounds.rhs1(n_arr) - lhs1, n_arr)

    # inequality 3 for every K, one history total at a time, so that each
    # total builds its target grid once
    n3 = n_arr[1:]  # instantiated histories need n >= 2
    slack3 = np.full((len(K_set), n3.size), np.inf)
    worst_s = np.zeros((len(K_set), n3.size), dtype=int)
    for S in history_scan:
        mask = ((n3 - 1) >= S) if model.kind is ModelKind.BETA_BERNOULLI \
            else np.ones(n3.size, dtype=bool)
        if not mask.any():
            continue
        idx = np.where(mask)[0]
        for k, (K, l1) in enumerate(zip(K_set, _l1_history(model, K_set, n3[idx], S))):
            cand = bounds.rhs3(n3[idx], K) - l1
            tighter = cand < slack3[k, idx]
            slack3[k, idx[tighter]] = cand[tighter]
            worst_s[k, idx[tighter]] = S

    for k, K in enumerate(K_set):
        lhs2 = np.asarray(approx_fresh_mass(model, K, n_arr), dtype=float)
        record(2, bounds.rhs2(n_arr, K) - lhs2, n_arr, K)
        record(3, slack3[k], n3, K,
               {"history_total_worst": int(worst_s[k, int(np.argmin(slack3[k]))])})

        floor = np.asarray(bounds.k_floor(n_arr), dtype=float)
        dom = K >= floor
        if dom.any():
            lhs4 = _l4_mismatch(model, K, n_arr[dom])
            record(4, bounds.rhs4(n_arr[dom], K) - lhs4, n_arr[dom], K,
                   {"n_evaluated": int(dom.sum())})
        else:
            report["inequalities"].append({"inequality": 4, "n_worst": None, "K": int(K),
                                           "slack": None, "pass": True, "n_evaluated": 0})

    report["pass"] = all(e["pass"] for e in report["inequalities"])
    return report

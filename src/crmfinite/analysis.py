"""Total-variation tooling, growth functions, bound evaluators, and EPPFs.

Total variation between finite discrete distributions is computed exactly as
half the L1 distance on the union support; explicitly truncated distributions
carry their tail deficit, which is folded into the reported value (and the
uncertainty interval) so results stay auditable.

Partition probabilities (EPPFs) are evaluated two ways: an exact sequential
chain through the urn predictive probabilities (Dirichlet process and finite
symmetric Dirichlet), and Monte Carlo over sampled weight vectors for any
normalized finite approximation, cross-validated against the exact route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import stats

from .approximations import WeightDistribution, fsd, sample_weights
from .marginals import dp_urn_probs, fsd_urn_probs

__all__ = [
    "DiscreteDistribution",
    "tv_exact",
    "tv_exact_interval",
    "growth_function",
    "bondesson_tfa_bound",
    "tsb_dp_bound",
    "binom_poisson_lower_constant",
    "lecam_upper",
    "poisson_tail_upper",
    "poisson_tail_lower",
    "chernoff_upper",
    "chernoff_lower",
    "dp_fsd_two_sample_gap",
    "tv_binom_poisson",
    "truncated_poisson",
    "binomial_distribution",
    "PartitionComposition",
    "partition_count",
    "all_compositions",
    "DPSource",
    "FSDSource",
    "NormalizedAifaSource",
    "EppfEstimate",
    "eppf",
    "composition_frequencies",
    "sequence_log_probability",
]

_TAIL_TOL = 1e-12


# ---------------------------------------------------------------------------
# exact total variation on discrete supports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteDistribution:
    """A finite (possibly truncated) pmf over hashable outcomes.

    ``deficit`` records mass lost to an explicit truncation; masses + deficit
    must equal one to 1e-12.
    """

    outcomes: tuple
    masses: tuple
    deficit: float = 0.0

    def __post_init__(self):
        if len(self.outcomes) != len(self.masses):
            raise ValueError("outcomes and masses must have equal length")
        m = np.asarray(self.masses, dtype=float)
        if np.any(m < 0) or self.deficit < -1e-15:
            raise ValueError("masses must be nonnegative")
        if abs(m.sum() + self.deficit - 1.0) > 1e-12:
            raise ValueError(f"masses + deficit must total 1, got {m.sum() + self.deficit!r}")

    @classmethod
    def from_pairs(cls, pairs, deficit=0.0):
        outcomes, masses = zip(*pairs) if pairs else ((), ())
        return cls(tuple(outcomes), tuple(float(p) for p in masses), float(deficit))

    def as_dict(self):
        return dict(zip(self.outcomes, self.masses))


def truncated_poisson(lam, tol=_TAIL_TOL) -> DiscreteDistribution:
    """Poisson(lam) truncated once the certified remaining mass drops below tol."""
    if lam < 0:
        raise ValueError("Poisson mean must be nonnegative")
    probs = [math.exp(-lam)]
    x = 0
    while 1.0 - sum(probs) >= tol:
        x += 1
        probs.append(probs[-1] * lam / x)
        if x > 10_000_000:
            raise RuntimeError("Poisson truncation failed")
    deficit = max(1.0 - sum(probs), 0.0)
    return DiscreteDistribution(tuple(range(x + 1)), tuple(probs), deficit)


def binomial_distribution(n, p) -> DiscreteDistribution:
    probs = stats.binom.pmf(np.arange(n + 1), n, p)
    probs = probs / probs.sum()
    return DiscreteDistribution(tuple(range(n + 1)), tuple(probs))


def tv_exact_interval(p: DiscreteDistribution, q: DiscreteDistribution):
    """(value, uncertainty): half L1 on the union support plus half the
    truncation deficits, with the deficit half-sum as the +- radius."""
    support = set(p.outcomes) | set(q.outcomes)
    pd, qd = p.as_dict(), q.as_dict()
    l1 = sum(abs(pd.get(o, 0.0) - qd.get(o, 0.0)) for o in support)
    slop = 0.5 * (p.deficit + q.deficit)
    return 0.5 * l1 + slop, slop


def tv_exact(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Exact total variation up to the recorded truncation deficits."""
    return tv_exact_interval(p, q)[0]


# ---------------------------------------------------------------------------
# growth function and closed-form bound evaluators
# ---------------------------------------------------------------------------

def growth_function(N, alpha) -> float:
    """C(N, alpha) = sum_{n=1..N} alpha / (n - 1 + alpha)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    n = np.arange(1, int(N) + 1, dtype=float)
    return float((alpha / (n - 1 + alpha)).sum())


def bondesson_tfa_bound(N, K, gamma, alpha) -> float:
    """N gamma (gamma alpha / (1 + gamma alpha))^K, valid for alpha >= 1."""
    if alpha < 1:
        raise ValueError("the Bondesson bound requires alpha >= 1")
    return N * gamma * (gamma * alpha / (1.0 + gamma * alpha)) ** K


def tsb_dp_bound(N, K, alpha) -> float:
    """2 N exp(-(K-1)/alpha) for the truncated stick-breaking approximation."""
    return 2.0 * N * math.exp(-(K - 1) / alpha)


def binom_poisson_lower_constant(gamma) -> float:
    """C(gamma) = 1/8 / (gamma + e^-1 (gamma+1) max(12 gamma^2, 48 gamma, 28))."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return 0.125 / (gamma + math.exp(-1) * (gamma + 1) * max(12 * gamma**2, 48 * gamma, 28.0))


def lecam_upper(n, p_sum) -> float:
    """n (sum p_i)^2: multinomial-Poissonization coupling bound."""
    return n * p_sum * p_sum


def poisson_tail_upper(lam, x) -> float:
    """Bound on P(X >= lam + x) for X ~ Poisson(lam), x > 0."""
    if not x > 0:
        raise ValueError("x must be positive")
    return math.exp(-x * x / (2.0 * (lam + x)))


def poisson_tail_lower(lam, x) -> float:
    """Bound on P(X <= lam - x) for X ~ Poisson(lam), 0 < x < lam."""
    if not 0 < x < lam:
        raise ValueError("need 0 < x < lam")
    return math.exp(-x * x / (2.0 * lam))


def chernoff_upper(mu, delta) -> float:
    """Bound on P(X >= (1+delta) mu) for a sum of independent indicators."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return math.exp(-delta * delta * mu / (2.0 + delta))


def chernoff_lower(mu, delta) -> float:
    """Bound on P(X <= (1-delta) mu), 0 < delta < 1."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.exp(-mu * delta * delta / 2.0)


def dp_fsd_two_sample_gap(alpha, K) -> float:
    """alpha / ((1 + alpha) K): the exact two-sample tie-probability gap."""
    return alpha / ((1.0 + alpha) * K)


def tv_binom_poisson(K, gamma) -> float:
    """Exact d_TV(Poisson(gamma), Binomial(K, q)) with q = (gamma/K)/(1 + gamma/K)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    q = (gamma / K) / (1.0 + gamma / K)
    return tv_exact(truncated_poisson(gamma), binomial_distribution(K, q))


# ---------------------------------------------------------------------------
# partition compositions and EPPFs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionComposition:
    """Block sizes n_1 >= ... >= n_b >= 1 of a set partition of [N]."""

    sizes: tuple

    def __init__(self, sizes):
        sizes = tuple(int(s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("block sizes must be positive integers")
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("block sizes must be sorted descending")
        object.__setattr__(self, "sizes", sizes)

    @property
    def N(self):
        return sum(self.sizes)

    @property
    def blocks(self):
        return len(self.sizes)

    def canonical_sequence(self):
        """Block labels in canonical order: open blocks 1..b, then append
        block i's remaining n_i - 1 members in block order."""
        seq = list(range(self.blocks))
        for i, s in enumerate(self.sizes):
            seq.extend([i] * (s - 1))
        return seq


def partition_count(comp: PartitionComposition) -> int:
    """Number of set partitions of [N] with the given block sizes."""
    total = math.factorial(comp.N)
    for s in comp.sizes:
        total //= math.factorial(s)
    mult: dict = {}
    for s in comp.sizes:
        mult[s] = mult.get(s, 0) + 1
    for m in mult.values():
        total //= math.factorial(m)
    return total


def all_compositions(N):
    """All partition compositions of the integer N, descending parts."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for head in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - head, head):
                yield (head,) + rest
    return [PartitionComposition(sizes) for sizes in rec(int(N), int(N))]


@dataclass(frozen=True)
class DPSource:
    alpha: float


@dataclass(frozen=True)
class FSDSource:
    gamma: float
    K: int


@dataclass(frozen=True)
class NormalizedAifaSource:
    """Weights from any WeightDistribution, normalized to a random pmf."""
    dist: WeightDistribution

    @property
    def K(self):
        return self.dist.K


def _urn_probs(source, counts):
    if isinstance(source, DPSource):
        return dp_urn_probs(counts, source.alpha)
    if isinstance(source, FSDSource):
        return fsd_urn_probs(counts, source.gamma, source.K)
    raise ValueError(f"no urn representation for {type(source).__name__}")


def sequence_log_probability(source, labels) -> float:
    """log probability that sequential sampling produces the given block-label
    sequence (labels are indices 0, 1, ... in order of first appearance)."""
    counts: list = []
    logp = 0.0
    for lab in labels:
        existing, fresh = _urn_probs(source, np.asarray(counts, dtype=float))
        if lab == len(counts):
            if fresh <= 0:
                return -math.inf
            logp += math.log(fresh)
            counts.append(1)
        elif 0 <= lab < len(counts):
            logp += math.log(existing[lab])
            counts[lab] += 1
        else:
            raise ValueError("labels must appear in order of first appearance")
    return logp


class EppfEstimate(NamedTuple):
    value: float
    stderr: float | None = None
    wide: bool = False  # Monte Carlo interval too wide to resolve the value

    def __float__(self):
        return float(self.value)


def eppf(source, comp: PartitionComposition, method="exact", reps=None, rng=None):
    """Probability that an N-sample from the source induces one specific set
    partition with the given block sizes.

    method="exact": chain the urn predictive probabilities along the canonical
    sequence (DP and FSD only; exchangeability makes the order irrelevant).
    method="monte_carlo": sample weight vectors, normalize, draw N labels and
    divide the induced-composition frequency by the number of partitions with
    those block sizes; requires ``reps`` and ``rng``.
    """
    if method == "exact":
        if isinstance(source, (FSDSource, NormalizedAifaSource)) and comp.blocks > source.K:
            return EppfEstimate(0.0, 0.0)  # at most K blocks can ever form
        return EppfEstimate(math.exp(sequence_log_probability(source, comp.canonical_sequence())))
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    if reps is None or rng is None:
        raise ValueError("monte_carlo needs reps and rng")
    hits = _composition_frequency(source, comp, int(reps), rng)
    n_partitions = partition_count(comp)
    p_comp = hits / reps
    se_comp = math.sqrt(max(p_comp * (1 - p_comp), 1.0 / reps)) / math.sqrt(reps)
    value = p_comp / n_partitions
    stderr = se_comp / n_partitions
    return EppfEstimate(value, stderr, wide=hits < 100)


def composition_frequencies(source, N, reps, rng) -> dict:
    """One Monte Carlo pass: {composition sizes: hit count} over ``reps``
    size-N samples from the source (urn draws for DP, normalized weight
    vectors otherwise)."""
    freq: dict = {}
    if isinstance(source, DPSource):
        for _ in range(reps):
            counts: list = []
            for n in range(N):
                existing, fresh = dp_urn_probs(counts, source.alpha)
                u = rng.random()
                cum = fresh
                if u <= cum:
                    counts.append(1)
                    continue
                for j, pj in enumerate(existing):
                    cum += pj
                    if u <= cum:
                        counts[j] += 1
                        break
                else:
                    counts[-1] += 1
            sizes = tuple(sorted(counts, reverse=True))
            freq[sizes] = freq.get(sizes, 0) + 1
        return freq
    dist = fsd(source.gamma, source.K) if isinstance(source, FSDSource) else source.dist
    weights = sample_weights(dist, rng, size=reps)
    totals = weights.sum(axis=1, keepdims=True)
    if not np.all(totals > 0):
        raise ValueError("a sampled weight vector has no atoms to normalize")
    weights /= totals
    u = rng.random((reps, N))
    cdf = np.cumsum(weights, axis=1)
    for i in range(reps):
        # label of a draw = number of cdf entries below its uniform
        counts = np.bincount(np.searchsorted(cdf[i], u[i]))
        sizes = tuple(sorted(counts[counts > 0].tolist(), reverse=True))
        freq[sizes] = freq.get(sizes, 0) + 1
    return freq


def _composition_frequency(source, comp, reps, rng):
    return composition_frequencies(source, comp.N, reps, rng).get(comp.sizes, 0)

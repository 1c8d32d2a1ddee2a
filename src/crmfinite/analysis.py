"""Total-variation tooling, growth functions, bound evaluators, and EPPFs.

Total variation between pmfs listed as arrays on 0, 1, ... is computed
exactly as half the L1 distance on the listed support; the mass a truncated
pmf leaves unlisted is folded into the reported value, so results stay
auditable.  The binomial-Poisson distance runs over an array of K at once.

Partition probabilities (EPPFs) have one exact function, ``eppf``, which
chains the urn predictive probabilities of the Dirichlet process or the
finite symmetric Dirichlet, and one Monte Carlo function,
``composition_frequencies``, which tabulates the compositions of copy-step
urn draws, or of labels drawn from any weight law's normalized weights.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .approximations import sample_weights
from .checks import integer, integers, positive, real

__all__ = [
    "tv_exact",
    "growth_function",
    "bondesson_tfa_bound",
    "tsb_dp_bound",
    "binom_poisson_lower_constant",
    "lecam_upper",
    "dp_fsd_two_sample_gap",
    "tv_binom_poisson",
    "truncated_poisson",
    "POISSON_MEAN_MAX",
    "PartitionComposition",
    "partition_count",
    "all_compositions",
    "DPSource",
    "FSDSource",
    "eppf",
    "composition_frequencies",
]

_TAIL_TOL = 1e-12
# the largest Poisson mean whose e^-lam is a normal double: the pmf recursions
# start there, and past it the start loses precision (and is 0 past ~745)
POISSON_MEAN_MAX = -math.log(sys.float_info.min)


# ---------------------------------------------------------------------------
# exact total variation on discrete supports
# ---------------------------------------------------------------------------

def truncated_poisson(lam, tol=_TAIL_TOL) -> np.ndarray:
    """Poisson(lam) pmf on 0..X, X the first point where the remaining mass
    1 - sum drops below tol; that mass is the pmf's unlisted mass.  lam must
    lie in [0, POISSON_MEAN_MAX]."""
    if not 0 <= lam <= POISSON_MEAN_MAX:
        raise ValueError(f"Poisson mean must lie in [0, {POISSON_MEAN_MAX:.4f}], got {lam}")
    probs = [math.exp(-lam)]
    total = probs[0]
    while 1.0 - total >= tol:
        probs.append(probs[-1] * lam / len(probs))
        total += probs[-1]
        if len(probs) > 10_000_000:
            raise RuntimeError("Poisson truncation failed")
    return np.array(probs)


def tv_exact(p, q):
    """Total variation between two pmfs listed on 0, 1, ...: half the L1
    distance on the listed support plus half of each pmf's unlisted mass
    1 - sum (clipped at 0).  That is exact when only one pmf leaves mass
    unlisted, and an upper bound otherwise.  Leading axes broadcast (one
    distance per row); a float for 1-d inputs."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    width = max(p.shape[-1], q.shape[-1])
    padded, unlisted = [], 0.0
    for a in (p, q):
        total = a.sum(axis=-1)
        if np.any(a < 0) or np.any(total > 1.0 + 1e-12):
            raise ValueError("a pmf needs nonnegative masses totalling at most 1")
        unlisted = unlisted + np.clip(1.0 - total, 0.0, None)
        padded.append(np.pad(a, [(0, 0)] * (a.ndim - 1) + [(0, width - a.shape[-1])]))
    out = 0.5 * np.abs(padded[0] - padded[1]).sum(axis=-1) + 0.5 * unlisted
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# growth function and closed-form bound evaluators
# ---------------------------------------------------------------------------

def growth_function(N, alpha) -> float:
    """C(N, alpha) = sum_{n=1..N} alpha / (n - 1 + alpha)."""
    integer(N, "N")
    alpha = positive(alpha, "alpha")
    n = np.arange(1, int(N) + 1, dtype=float)
    return float((alpha / (n - 1 + alpha)).sum())


def bondesson_tfa_bound(N, K, gamma, alpha) -> float:
    """N gamma (gamma alpha / (1 + gamma alpha))^K, valid for alpha >= 1."""
    integer(N, "N")
    integer(K, "K")
    gamma = positive(gamma, "gamma")
    if real(alpha, "alpha") < 1:
        raise ValueError(f"the Bondesson bound requires alpha >= 1, got {alpha!r}")
    return N * gamma * (gamma * alpha / (1.0 + gamma * alpha)) ** K


def tsb_dp_bound(N, K, alpha) -> float:
    """2 N exp(-(K-1)/alpha) for the truncated stick-breaking approximation."""
    integer(N, "N")
    integer(K, "K")
    return 2.0 * N * math.exp(-(K - 1) / positive(alpha, "alpha"))


def binom_poisson_lower_constant(gamma) -> float:
    """C(gamma) = 1/8 / (gamma + e^-1 (gamma+1) max(12 gamma^2, 48 gamma, 28))."""
    gamma = positive(gamma, "gamma")
    return 0.125 / (gamma + math.exp(-1) * (gamma + 1) * max(12 * gamma**2, 48 * gamma, 28.0))


def lecam_upper(n, p_sum) -> float:
    """n (sum p_i)^2: multinomial-Poissonization coupling bound."""
    return n * p_sum * p_sum


def dp_fsd_two_sample_gap(alpha, K) -> float:
    """alpha / ((1 + alpha) K): the exact two-sample tie-probability gap."""
    alpha, K = positive(alpha, "alpha"), integer(K, "K")
    return alpha / ((1.0 + alpha) * K)


def tv_binom_poisson(K, gamma):
    """Exact d_TV(Poisson(gamma), Binomial(K, q)) with q = (gamma/K)/(1 + gamma/K),
    for a scalar or an array of K.  The binomial pmf is listed on the Poisson
    truncation support 0..X by the ratio recursion
    p(x) = p(x-1) (K-x+1)/x q/(1-q), with q/(1-q) = gamma/K; its mass past X
    is its unlisted mass."""
    K = integers(K, "K")
    if not 0 <= real(gamma, "gamma") <= POISSON_MEAN_MAX:
        raise ValueError(f"gamma must lie in [0, {POISSON_MEAN_MAX:.4f}], got {gamma!r}")
    poisson = truncated_poisson(gamma)
    k = K.reshape(-1, 1)
    x = np.arange(1, poisson.size, dtype=float)
    ratio = np.maximum(k - x + 1, 0.0) / x * (gamma / k)  # zero past K
    binom = np.exp(-k * np.log1p(gamma / k)) * np.cumprod(
        np.concatenate([np.ones_like(k), ratio], axis=1), axis=1)
    out = tv_exact(poisson, binom).reshape(K.shape)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# partition compositions and EPPFs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionComposition:
    """Block sizes n_1 >= ... >= n_b >= 1 of a set partition of [N]."""

    sizes: tuple

    def __init__(self, sizes):
        sizes = tuple(integer(s, "block size") for s in sizes)
        if not sizes:
            raise ValueError("a composition needs at least one block size")
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("block sizes must be sorted descending")
        object.__setattr__(self, "sizes", sizes)

    @property
    def N(self):
        return sum(self.sizes)

    @property
    def blocks(self):
        return len(self.sizes)


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
    N = integer(N, "N")
    return [PartitionComposition(sizes) for sizes in rec(N, N)]


@dataclass(frozen=True)
class DPSource:
    alpha: float

    def __post_init__(self):
        positive(self.alpha, "DP concentration alpha")


@dataclass(frozen=True)
class FSDSource:
    gamma: float
    K: int

    def __post_init__(self):
        positive(self.gamma, "FSD concentration gamma")
        integer(self.K, "FSD dimension K")


def eppf(source, comp: PartitionComposition) -> float:
    """Probability that an N-sample from a DP or FSD source induces one
    specific set partition with the given block sizes: the urn's predictive
    probabilities chained in canonical order (open blocks 1..b, then add
    block i's other n_i - 1 members in block order; exchangeability makes
    the order irrelevant).  At most K blocks can form under the FSD."""
    if isinstance(source, DPSource):
        mass, share = source.alpha, 0.0
        opening = [mass] * comp.blocks
    elif isinstance(source, FSDSource):
        mass, share = source.gamma, source.gamma / source.K
        opening = [(source.K - j) * share for j in range(comp.blocks)]
    else:
        raise ValueError(f"no urn representation for {type(source).__name__}: eppf takes a "
                         "DPSource or FSDSource; a WeightDistribution goes to composition_frequencies")
    log_p = 0.0
    for t, num in enumerate(opening):
        if num == 0:
            return 0.0
        log_p += math.log(num / (t + mass))
    t = comp.blocks
    for size in comp.sizes:
        for c in range(1, size):
            log_p += math.log((c + share) / (t + mass))
            t += 1
    return math.exp(log_p)


def _urn_labels(source, N, reps, rng):
    """(reps, N) labels from the copy-step urn (Blackwell & MacQueen 1973).

    Draw i copies the label of a uniformly chosen earlier draw with
    probability i / (i + alpha); otherwise it takes a fresh label (DP) or a
    uniform label in 0..K-1 (FSD).  One uniform v ~ U(0, i + alpha) per draw
    does both: v < i copies draw floor(v), and (v - i) / alpha is uniform
    on [0, 1) otherwise."""
    dp = isinstance(source, DPSource)
    alpha = source.alpha if dp else source.gamma
    v = rng.random((reps, N)) * (np.arange(N) + alpha)
    labels = np.empty((reps, N), dtype=np.int64)
    rows = np.arange(reps)
    for i in range(N):
        vi = v[:, i]
        if dp:
            fresh = np.full(reps, i)  # a label no earlier draw holds
        else:
            fresh = np.minimum(((vi - i) / alpha * source.K).astype(np.int64), source.K - 1)
        earlier = labels[rows, np.minimum(vi, max(i - 1, 0)).astype(np.int64)]
        labels[:, i] = np.where(vi < i, earlier, fresh)
    return labels


def _tabulate_compositions(labels) -> dict:
    """{block sizes in descending order: number of rows} of a (reps, N)
    label array."""
    reps, N = labels.shape
    s = np.sort(labels, axis=1)
    block = np.cumsum(np.concatenate([np.ones((reps, 1), dtype=bool),
                                      s[:, 1:] != s[:, :-1]], axis=1), axis=1) - 1
    sizes = np.bincount((np.arange(reps)[:, None] * N + block).ravel(),
                        minlength=reps * N).reshape(reps, N)
    sizes = -np.sort(-sizes, axis=1)
    sizes = sizes[np.lexsort(sizes.T)]  # equal compositions become runs of rows
    starts = np.flatnonzero(np.r_[True, np.any(sizes[1:] != sizes[:-1], axis=1)])
    hits = np.diff(np.r_[starts, reps])
    return {tuple(int(x) for x in sizes[k] if x): int(h) for k, h in zip(starts, hits)}


def composition_frequencies(source, N, reps, rng) -> dict:
    """One Monte Carlo pass: {composition sizes: hit count} over ``reps``
    size-N samples from the source: copy-step urn draws for a DPSource or
    FSDSource, labels drawn from normalized weight vectors for a
    WeightDistribution."""
    N, reps = integer(N, "N"), integer(reps, "reps")
    if isinstance(source, (DPSource, FSDSource)):
        return _tabulate_compositions(_urn_labels(source, N, reps, rng))
    weights = sample_weights(source, rng, size=reps)
    totals = weights.sum(axis=1, keepdims=True)
    if not np.all(totals > 0):
        raise ValueError("a sampled weight vector has no atoms to normalize")
    weights /= totals
    u = rng.random((reps, N))
    cdf = np.cumsum(weights, axis=1)
    # label of a draw = number of cdf entries below its uniform
    return _tabulate_compositions(np.stack([np.searchsorted(c, x) for c, x in zip(cdf, u)]))


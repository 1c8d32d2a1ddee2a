"""Exact marginal (predictive) processes and their finite-approximation twins.

For the three exponential-family CRM-likelihood pairs without power law
(beta-Bernoulli, gamma-Poisson, beta-negative-binomial), the predictive
distribution of an instantiated atom's count depends on its history only
through the round index n and the count total S:

    beta-Bernoulli      h(1 | hist) = S / (alpha - 1 + n)
    gamma-Poisson       h(x | hist) = NB(x | S, 1/(lambda + n))
    beta-neg-binomial   h(x | hist) = Gamma(x+r)/(x! Gamma(r))
                                      * B(S + x, rn + alpha) / B(S, r(n-1) + alpha)

The level-K approximation shifts S by c/K, which also gives the dormant-atom
law at an all-zero history; c is every family's ``mass_shift``, the library's
one ``small_weight_coefficient`` (gamma*alpha resp. gamma*lambda up to
rounding).  Fresh atoms in the target process arrive as independent
Poissons with means M_{n,x}; their per-round totals have closed forms (the
beta-negative-binomial one is a digamma difference, cross-checked against
brute-force summation in the tests).

Each family is one subclass of ``ExpFamilyModel`` that holds all of the
family's formulas below as methods, with its ``kind`` string and its
condition preset (``model.preset()``).  The module functions check their
arguments and call them; the checker calls the methods ``l1_history`` and
``l4_mismatch`` directly.  The level-K fresh mass has one default,
1 - h~(0 | all-zero history); beta-Bernoulli keeps closed forms for it and
for the checker's sums, and beta-NB integrates its log h~(0) so that it
does not cancel.

Each predictive is the marginal of a conjugate latent weight: after n rounds
with count total S an atom's weight is Beta(S + shift, alpha + n - S),
Gamma(S + shift, rate lambda + n) or Beta(S + shift, alpha + r n), and its
later counts are i.i.d. Bernoulli, Poisson or negative binomial given that
weight.  Allocations are simulated this way, with no round-by-round walk.
Given K, the level-K (AIFA) process *is* K i.i.d. IFA weights, Beta(c/K,
alpha) or Gamma(c/K, lambda), drawn from ``aifa_closed_form`` (floored at
1e-300, as every sampled atom size is), plus the likelihood.  The target
(K=None) draws each round's births as one Poisson, their sizes by inverse
CDF over M_{n,x} / sum_x M_{n,x}, and every later count from the posterior
weight after the birth round.

Both processes draw those counts sparsely, since each atom's counts depend
only on its own weight theta.  An atom with F free rows (all N at level K,
the rows after its birth for the target) fires in
M ~ Binomial(F, q) of them, where q = P(count > 0 | theta) is theta,
1 - exp(-theta) or 1 - (1 - theta)^r.  Only the atoms with M > 0 draw a
uniform M-subset of their free rows and one zero-truncated count per chosen
cell, so a level-K allocation costs O(K + firing atoms * N), not O(N K):
at K = 1000 and N = 500 only about 23 beta-Bernoulli atoms fire.

The checker's infinite sums over x rest on one fact: the predictive families
are likelihood-ratio ordered in the count total, so the term difference of two
rows changes sign once, at its crossing.  Rows of known masses A and B need
nothing past it: sum_x |a - b| = 2 sum_{x < crossing} (a - b) - (A - B).
Inequality 3 compares two pmfs, A = B = 1 (Scheffe's identity); inequality 4
compares the new-atom rates with K times the level-K fresh pmf, whose masses
are ``total_new_atom_rate`` and K ``approx_fresh_mass``.

Both sums run in one kernel, ``_crossing_l1``.  It steps a (T, n) block, one
row per count total (the target's and each level-K shifted total for
inequality 3; M at total 0 and the shift c/K for inequality 4), one x at a
time.  A row starts from its closed form (``_predictive_logpmf``, the
new-atom rate at total 0, or for beta-NB at a positive total a Pochhammer
ratio at x = 0); each step multiplies it by the family's ratio h(x)/h(x-1),
a rational function of x, n and the total, so a row carries its start's
relative error (near eps) plus at most ~X eps of rounding over X steps.  The
kernel adds the differences a - b into running partial sums in x order, as a
cumsum over an (x, n) grid does, and drops a column from the block once all
of its pairs have crossed; at the benchmark's configuration every column has
crossed by x = 17.  No (x, n) grid is built, so the checker's memory is
O(T n) whatever x it reaches.  Point queries keep the closed form.

The module also houses the numeric four-inequality growth/approximation
condition checker with per-family presets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import _special as special
from .checks import integer, integers, positive, real
from .approximations import aifa_closed_form, sample_weights
from .measures import BetaMeasure, Family, GammaMeasure, RateMeasureSpec, small_weight_coefficient

__all__ = [
    "ExpFamilyModel",
    "beta_bernoulli",
    "gamma_poisson",
    "beta_negative_binomial",
    "target_new_atom_rate",
    "total_new_atom_rate",
    "approx_fresh_mass",
    "FeatureAllocation",
    "simulate_allocation",
    "allocation_log_probability",
    "Condition1Bounds",
    "generic_condition_bounds",
    "check_condition_1",
]

_TAIL_TOL = 1e-12
_ATOM_BLOCK = 512  # firing atoms per subset draw: memory stays O(N * block)
_EPS = np.finfo(float).eps
_SIZE_GRID_MAX = 1 << 23
# the beta-NB fresh mass's rule: at t = b, 8 nodes leave 1.9e-12 relative
# error and 10 at most 1.1e-14
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


@dataclass(frozen=True)
class ExpFamilyModel:
    """A d = 0 exponential-family CRM paired with its count likelihood: one
    subclass per family, built by ``beta_bernoulli``, ``gamma_poisson`` or
    ``beta_negative_binomial``, whose methods take float arrays that the
    module functions calling them have checked."""

    spec: RateMeasureSpec
    kind: ClassVar[str]
    family: ClassVar[Family]  # the rate-measure family the CRM must have
    max_count: ClassVar[float] = math.inf  # the largest count the likelihood gives

    def __post_init__(self):
        if self.spec.discount != 0.0:
            raise ValueError("marginal processes require discount d = 0")
        if self.spec.family is not self.family:
            raise ValueError(f"{self.kind} needs a {self.family.value}-family rate measure")

    @property
    def gamma(self):
        return self.spec.gamma

    @property
    def mass_shift(self):
        """c = ``small_weight_coefficient``, gamma*alpha resp. gamma*lambda up to
        rounding; level K adds c/K to every count total."""
        return small_weight_coefficient(self.spec)

    def fresh_mass(self, shift, n):
        """1 - h~(0 | all-zero history), whose count total is the shift alone."""
        return -np.expm1(self.logpmf(n, shift, shift, 0.0))

    def l1_history(self, K_set, n, S):
        """sum_x |h - h~| at history total S for each K in K_set, vectorized
        over the float array n, as (sums, largest crossing point) pairs."""
        # one block steps the target pmf alongside every K's shifted total
        totals = [float(S)] + [float(S) + self.mass_shift / K for K in K_set]
        return _crossing_l1(self, n, totals)

    def l4_mismatch(self, K, n, totals, fresh):
        """sum_{x>=1} |M_{n,x} - K h~(x|0)|, vectorized over the float array
        n, and its largest crossing point; ``totals`` and ``fresh`` are
        sum_x M_{n,x} and sum_{x>=1} h~(x|0) at n."""
        return _crossing_l1(self, n, [0.0, self.mass_shift / K], 1, K, totals - K * fresh)[0]


class _BetaModel(ExpFamilyModel):
    """A beta-process model: at d = 0 the spec's eta is the concentration alpha."""

    family = Family.BETA

    @property
    def alpha(self):
        return self.spec.eta


class _BetaBernoulli(_BetaModel):
    """Beta process with Bernoulli counts."""

    kind = "beta_bernoulli"
    max_count = 1

    def logpmf(self, n, total, shift, x):
        # the shift augments the count total but not the number of trials
        p1 = total / (self.alpha - 1.0 + n + shift)
        with np.errstate(divide="ignore"):
            return np.where(x == 1, np.log(p1), np.where(x == 0, np.log1p(-p1), -np.inf))

    def new_atom_rate(self, n, x):
        return np.where(x == 1, self.total_rate(n), 0.0)

    def total_rate(self, n):
        return self.gamma * self.alpha / (self.alpha - 1.0 + n)

    def fresh_mass(self, shift, n):
        return shift / (self.alpha - 1.0 + n + shift)

    def posterior_weight(self, S, n_seen, shift, rng):
        return rng.beta(S + shift, self.alpha + n_seen - S)

    def fire_probability(self, theta):
        return theta

    def positive_counts(self, theta, q, rng):
        return np.ones(theta.size, dtype=np.int64)

    def l1_history(self, K_set, n, S):
        # h(1) alone fixes a Bernoulli pmf, so the sums are exact at X = 1
        h1 = S / (self.alpha - 1.0 + n)
        return [(2.0 * np.abs(h1 - (S + shift) / (self.alpha - 1.0 + n + shift)), 1)
                for shift in (self.mass_shift / K for K in K_set)]

    def l4_mismatch(self, K, n, totals, fresh):
        shift = self.mass_shift / K  # totals = gamma alpha / (alpha - 1 + n)
        return np.abs(totals - K * shift / (self.alpha - 1.0 + n + shift)), 1

    def preset(self):
        g, al = self.gamma, self.alpha
        return Condition1Bounds(
            name="beta_bernoulli",
            rhs1=lambda n: g * al / (n - 1 + al),
            rhs2=lambda n, K: g * al / (K * (n - 1 + al)),
            rhs3=lambda n, K: 2 * g * al / (K * (n - 1 + al)),
            rhs4=lambda n, K: g * g * al / (K * (n - 1 + al)),
        )


class _GammaPoisson(ExpFamilyModel):
    """Gamma process with Poisson counts."""

    kind = "gamma_poisson"
    family = Family.GAMMA

    @property
    def lam(self):
        return self.spec.rate

    def logpmf(self, n, total, shift, x):
        p = 1.0 / (self.lam + n)
        return (special.gammaln(total + x) - special.gammaln(total) - special.gammaln(x + 1)
                + x * np.log(p) + total * np.log1p(-p))

    def new_atom_rate(self, n, x):
        with np.errstate(under="ignore"):
            return self.gamma * self.lam * np.exp(-np.log(x) - x * np.log(self.lam + n))

    def total_rate(self, n):
        return -self.gamma * self.lam * np.log1p(-1.0 / (self.lam + n))

    def posterior_weight(self, S, n_seen, shift, rng):
        return rng.gamma(S + shift, 1.0 / (self.lam + n_seen))

    def fire_probability(self, theta):
        return -np.expm1(-theta)

    def positive_counts(self, theta, q, rng):
        """The first arrival of a rate-theta process on [0, 1] given one,
        t = -log1p(-u q) / theta, then Poisson(theta (1 - t)) later ones,
        with theta (1 - t) = theta + log1p(-u q)."""
        return 1 + rng.poisson(np.maximum(theta + np.log1p(-rng.random(theta.size) * q), 0.0))

    def stepper(self, n):
        """ratio(t, x, out): h(x)/h(x-1) = (t+x-1)/x * 1/(lambda+n) at totals t."""
        base = self.lam + n
        return lambda t, x, out: np.divide(((t + (x - 1)) / x)[:, None], base, out=out)

    def start_row(self, n, total, x_lo):
        return np.exp(_predictive_logpmf(self, n, total, 0.0, x_lo))

    def preset(self):
        g, lam = self.gamma, self.lam
        return Condition1Bounds(
            name="gamma_poisson",
            rhs1=lambda n: g * lam / (n - 1 + lam),
            rhs2=lambda n, K: g * lam / (K * (n - 1 + lam)),
            rhs3=lambda n, K: 2 * g * lam / (K * (n - 1 + lam)),
            rhs4=lambda n, K: (g * g * lam + math.e * g * g * lam * lam) / (K * (n - 1 + lam)),
            k_floor=lambda n: g * lam * np.ones_like(np.asarray(n, dtype=float)),
        )


@dataclass(frozen=True)
class _BetaNegBinomial(_BetaModel):
    """Beta process with negative-binomial counts of stopping parameter r."""

    kind = "beta_neg_binomial"
    r: float

    def __post_init__(self):
        super().__post_init__()
        if not real(self.r, "r") > 0:
            raise ValueError(f"negative-binomial r must be positive, got {self.r}")
        if not self.alpha > 1:
            raise ValueError(f"beta-neg-binomial requires alpha > 1, got {self.alpha}")

    def logpmf(self, n, total, shift, x):
        r, al = self.r, self.alpha
        return (special.gammaln(x + r) - special.gammaln(x + 1) - special.gammaln(r)
                + special.betaln(total + x, r * n + al) - special.betaln(total, r * (n - 1) + al))

    def new_atom_rate(self, n, x):
        r, al = self.r, self.alpha
        return self.gamma * al * np.exp(special.gammaln(x + r) - special.gammaln(x + 1)
                                        - special.gammaln(r) + special.betaln(x, r * n + al))

    def total_rate(self, n):
        r, al = self.r, self.alpha
        return self.gamma * al * (special.digamma(r * n + al) - special.digamma(r * (n - 1) + al))

    def fresh_mass(self, shift, n):
        """-expm1(log h~(0 | 0)), t = shift, b = r(n-1) + alpha, with
        log h~(0 | 0) = -int_0^t [psi(b + r + s) - psi(b + s)] ds by a
        Gauss-Legendre rule where t <= b.  The betaln difference of the
        default cancels there (up to 2e-10 off, 1.5e-4 in K times the mass,
        at n = 10^4); where t > b, too wide an interval for a fixed rule,
        it does not."""
        r, b = self.r, self.r * (n - 1) + self.alpha
        rule = 0.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            s = b + 0.5 * shift * (1.0 + node)
            rule = rule + weight * (special.digamma(s + r) - special.digamma(s))
        log_h0 = -0.5 * shift * rule
        if np.any(shift > b):
            log_h0 = np.where(shift <= b, log_h0,
                              special.betaln(shift, b + r) - special.betaln(shift, b))
        return -np.expm1(log_h0)

    def posterior_weight(self, S, n_seen, shift, rng):
        return rng.beta(S + shift, self.alpha + self.r * n_seen)

    def fire_probability(self, theta):
        # a weight that rounds to 1 would leave no success mass, so 1 - theta
        # is clamped at eps
        return -np.expm1(self.r * np.log1p(-np.minimum(theta, 1.0 - _EPS)))

    def positive_counts(self, theta, q, rng):
        """Inversion by the ratio p(x+1)/p(x) = theta (x + r)/(x + 1) where
        q <= 1/2 and theta <= 1/2 (mean count below 3), elsewhere rejection of
        zeros from ``rng.negative_binomial``, which accepts with probability q."""
        r = self.r
        out = np.ones(theta.size, dtype=np.int64)
        invert = theta <= min(0.5, -math.expm1(-math.log(2.0) / r))  # q <= 1/2 and theta <= 1/2
        walk, q, u = theta[invert], q[invert], rng.random(np.count_nonzero(invert))
        pmf = r * walk * (1.0 - q) / q  # p(1 | > 0)
        cdf, x, count = pmf.copy(), 1, np.ones(walk.size, dtype=np.int64)
        more = u > cdf
        while more.any():  # the cdf only grows: a cell that stops stays stopped
            count += more
            pmf *= walk * ((x + r) / (x + 1))
            cdf += pmf
            x += 1
            more = (u > cdf) & (pmf > 0.0)  # past the rounded cdf, stop at underflow
        out[invert] = count
        todo = np.flatnonzero(~invert)
        while todo.size:  # the first nonzero of four draws per cell, each nonzero w.p. q
            draw = rng.negative_binomial(r, np.maximum(1.0 - theta[todo], _EPS), (4, todo.size))
            out[todo] = draw[(draw > 0).argmax(axis=0), np.arange(todo.size)]
            todo = todo[out[todo] == 0]
        return out

    def stepper(self, n):
        """ratio(t, x, out): h(x)/h(x-1) = (x+r-1)/x * (t+x-1)/(t+x-1+rn+alpha)
        at totals t."""
        base = self.r * n + self.alpha

        def ratio(t, x, out):
            u = t + (x - 1)  # one rounding: a total below eps survives at x = 1
            np.add(base, u[:, None], out=out)
            return np.divide(((x + self.r - 1) / x * u)[:, None], out, out=out)
        return ratio

    def start_row(self, n, total, x_lo):
        """From h(0) = (b)_r / (t + b)_r, b = r(n-1) + alpha (a betaln
        difference loses up to 5e-11 at n ~ 1e4), stepped up to x_lo."""
        b = self.r * (n - 1) + self.alpha
        row = (special.poch(b, self.r) / special.poch(total + b, self.r))[None, :]
        ratio, t = self.stepper(n), np.array([total])
        for x in range(1, x_lo + 1):
            row *= ratio(t, x, np.empty_like(row))
        return row[0]

    def preset(self):
        g, al, r = self.gamma, self.alpha, self.r
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


def beta_bernoulli(gamma, alpha) -> ExpFamilyModel:
    return _BetaBernoulli(BetaMeasure(gamma, 0.0, alpha))


def gamma_poisson(gamma, lam) -> ExpFamilyModel:
    return _GammaPoisson(GammaMeasure(gamma, 0.0, lam))


def beta_negative_binomial(gamma, alpha, r) -> ExpFamilyModel:
    return _BetaNegBinomial(BetaMeasure(gamma, 0.0, alpha), real(r, "r"))


# ---------------------------------------------------------------------------
# predictive pmfs
# ---------------------------------------------------------------------------

def _predictive_logpmf(model, n, S, shift, x):
    """log pmf of the next count at an atom whose history of n-1 observations
    sums to S; ``shift`` is the approximation's pseudo-count c/K (0 for the
    target).  Fully broadcastable."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    return model.logpmf(n, np.asarray(S, dtype=float) + shift, shift, x)


def target_new_atom_rate(model: ExpFamilyModel, n, x):
    """Poisson mean M_{n,x} of brand-new atoms of size x in round n."""
    out = model.new_atom_rate(integers(n, "round indices n"),
                              integers(x, "new-atom sizes x"))
    return out if np.asarray(out).shape else float(out)


def total_new_atom_rate(model: ExpFamilyModel, n):
    """sum_x M_{n,x}, in closed form per family."""
    out = model.total_rate(integers(n, "round indices n"))
    return out if out.shape else float(out)


def approx_fresh_mass(model: ExpFamilyModel, K, n):
    """sum_{x>=1} h~(x | all-zero history) = P(a dormant atom activates in round n)."""
    out = model.fresh_mass(model.mass_shift / integer(K, "approximation level K"),
                           integers(n, "round indices n"))
    return out if out.shape else float(out)


def _sparse_counts(model, theta, first, N, rng):
    """Nonzero counts of atoms whose counts in rows first[j]..N-1 are i.i.d.
    given weight theta[j]: (live, rows, cols, counts), the atoms that fire
    and, per cell, its row and its atom's position in ``live``.

    Atom j fires in M_j ~ Binomial(N - first[j], q_j) rows.  Only atoms with
    M_j > 0 go on: each gets a uniform M_j-subset of its free rows (the
    smallest M_j of one uniform key per row, for blocks of atoms so memory
    stays O(N * block)), and each chosen cell one zero-truncated count."""
    q = model.fire_probability(theta)
    fired = rng.binomial(N - first, q)
    live = np.flatnonzero(fired)
    if not live.size:
        return live, live, live, live
    fired = fired[live]
    rows = []
    for lo in range(0, live.size, _ATOM_BLOCK):
        j, m = live[lo:lo + _ATOM_BLOCK], fired[lo:lo + _ATOM_BLOCK]
        top = m.max()
        # one uniform key per row; rows before an atom's first free row sort last
        keys = rng.random((j.size, N)) + (np.arange(N) < first[j, None])
        rows.append(np.argsort(keys, axis=1)[:, :top][np.arange(top) < m[:, None]])
    cols = np.repeat(np.arange(live.size), fired)
    atoms = live[cols]
    return live, np.concatenate(rows), cols, model.positive_counts(theta[atoms], q[atoms], rng)


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
        if not (self.counts != 0).any(axis=0).all():
            raise ValueError("every column must contain at least one nonzero count")
        first = self.first_rows()
        if (first[1:] < first[:-1]).any():
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


def _birth_sizes(model, rounds, totals, rng):
    """Sizes of atoms born in the given (1-based) rounds, by inverse CDF over
    M_{n,x} / sum_x M_{n,x} (``totals`` holds each atom's sum_x M_{n,x}).
    The x grid doubles, only for the atoms whose uniform it does not cover
    yet; sizes stop where the remaining rate is below 1e-12.  A likelihood
    whose counts are at most 1 (beta-Bernoulli) gives every birth size 1
    and draws nothing."""
    if model.max_count == 1:
        return np.ones(rounds.size, dtype=np.int64)
    target = np.minimum(rng.random(rounds.size) * totals, totals - _TAIL_TOL)
    sizes = np.zeros(rounds.size, dtype=np.int64)
    todo = np.arange(rounds.size)
    x_max = 64
    while todo.size:
        if x_max > _SIZE_GRID_MAX:
            raise RuntimeError("birth-size walk failed to terminate")
        x = np.arange(1, x_max + 1, dtype=float)
        rates = model.new_atom_rate(rounds[todo, None].astype(float), x[None, :])
        # the pairwise sum decides coverage: a cumsum over millions of terms
        # drifts past the 1e-12 tail
        done = rates.sum(axis=1) >= target[todo]
        below = (np.cumsum(rates[done], axis=1) < target[todo[done], None]).sum(axis=1)
        sizes[todo[done]] = np.minimum(below + 1, x_max)
        todo = todo[~done]
        x_max *= 2
    return sizes


def simulate_allocation(model: ExpFamilyModel, N, rng, K=None) -> FeatureAllocation:
    """Simulate N rounds of the marginal process from conjugate latent weights.

    Given K: K i.i.d. level-K IFA weights from ``aifa_closed_form``, each
    atom with N i.i.d. counts given its weight; atoms that never fire are
    dropped.  K=None, the target: each round's births are one Poisson draw
    with sizes from M_{n,x}; an atom's counts after its birth round are
    i.i.d. given its posterior weight after that round.

    Counts are drawn sparsely (``_sparse_counts``): each atom draws how many
    of its free rows fire, M ~ Binomial(free rows, P(count > 0 | weight)),
    and only the atoms with M > 0 draw which rows and their zero-truncated
    counts, so the cost grows with the atoms that fire, not with N * K.
    """
    integer(N, "N")
    if K is not None:
        theta = sample_weights(aifa_closed_form(model.spec, K), rng)
        first = np.zeros(K, dtype=np.int64)  # every row is free
        live, rows, cols, counts = _sparse_counts(model, theta, first, N, rng)
        mat = np.zeros((N, live.size), dtype=np.int64)  # atoms that never fire go
    else:
        n = np.arange(1, N + 1)
        totals = total_new_atom_rate(model, n)
        first = np.repeat(n, rng.poisson(totals))  # birth round = first free row
        size = _birth_sizes(model, first, totals[first - 1], rng)
        theta = model.posterior_weight(size, first, 0.0, rng)
        live, rows, cols, counts = _sparse_counts(model, theta, first, N, rng)
        cols = live[cols]
        mat = np.zeros((N, first.size), dtype=np.int64)
        mat[first - 1, np.arange(first.size)] = size
    mat[rows, cols] = counts
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
    """The literal five-constant parametrization of the condition: finite, C1 > 0."""
    positive(C1, "C1")
    for name, value in zip(("C2", "C3", "C4", "C5"), (C2, C3, C4, C5)):
        real(value, name)
    return Condition1Bounds(
        name=f"generic(C1={C1},C2={C2},C3={C3},C4={C4},C5={C5})",
        rhs1=lambda n: C1 / (n - 1 + C1),
        rhs2=lambda n, K: C1 / (K * (n - 1 + C1)),
        rhs3=lambda n, K: C1 / (K * (n - 1 + C1)),
        rhs4=lambda n, K: (C4 * np.log(n) + C5) / (K * (n - 1 + C1)),
        k_floor=lambda n: C2 * (np.log(n) + C3),
    )


_HISTORY_SCAN = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 32, 50)
# two rows within this relative gap have crossed: it is above the rounding
# of rows whose totals differ by a few ulps (2.3e-13 at beta-NB r = 0.5), and
# twice it is below the checker's 1e-12 grace
_CROSS_REL = 2.0 ** -41
_X_CAP = 1 << 16


def _crossing_l1(model, n, totals, x_lo=0, scale=1.0, gap=0.0):
    """sum_{x>=x_lo} |a - b_p| of the row a at totals[0] against each row b_p,
    ``scale`` times the row at totals[p + 1] >= totals[0], one value per
    column, and each pair's largest crossing point.  A row is the predictive
    pmf h(x | n, total), or at total 0 (x_lo >= 1) the new-atom rate M_{n,x};
    ``gap`` is each pair's sum_x (a - b_p) over x >= x_lo, 0 for two pmfs.

    b_p / a rises with x (likelihood-ratio order in the total), so a - b_p
    is positive before its crossing x_c, the first x with a - b_p <=
    _CROSS_REL a, and past it adds at most _CROSS_REL of a's tail as
    positive part.  So sum_x |a - b_p| = 2 sum_{x < x_c} (a - b_p) - gap_p,
    exact up to 2 _CROSS_REL of a's mass: no tails are summed.  Equal
    totals give equal rows and sum 0 at x_c = x_lo.  The partial sums add
    the differences in x order, as a cumsum over an (x, n) grid does.

    Each row starts at x_lo from the family's ``start_row`` (M from its
    closed form) and each step multiplies it by the family's ratio
    h(x)/h(x-1), which M shares at total 0 since M_{n,x} = c lim_{t->0}
    h(x | n, t) / t.  A column leaves the block once all of its pairs have
    crossed, so memory is O(T n) and the steps run only as far as the
    columns that have not crossed yet.  Gamma-Poisson and beta-NB only:
    beta-Bernoulli counts need no rows."""
    totals = np.asarray(totals, dtype=float)
    block = np.empty((totals.size, n.size))
    for t in range(totals.size):
        block[t] = (target_new_atom_rate(model, n, x_lo) if totals[t] == 0
                    else model.start_row(n, totals[t], x_lo))
    block[1:] *= scale
    shape = (totals.size - 1, n.size)
    sums, at = np.zeros(shape), np.zeros(shape, dtype=np.int64)
    part, crossed, live = np.zeros(shape), np.zeros(shape, dtype=bool), np.arange(n.size)
    ratio, out = model.stepper(n), np.empty_like(block)
    for x in range(x_lo, _X_CAP):
        diff = block[0] - block[1:]
        p, j = np.nonzero((diff <= _CROSS_REL * block[0]) & ~crossed)
        sums[p, live[j]], at[p, live[j]] = 2.0 * part[p, j], x
        crossed[p, j] = True
        part += diff
        left = ~crossed.all(axis=0)
        if not left.any():
            sums = np.maximum(sums - gap, 0.0)
            return [(sums[q], int(at[q].max())) for q in range(shape[0])]
        if not left.all():
            n, block, live, part, crossed = (n[left], block[:, left], live[left],
                                             part[:, left], crossed[:, left])
            ratio, out = model.stepper(n), np.empty_like(block)
        block *= ratio(totals, x + 1, out)
    raise RuntimeError("L1 sum: no crossing found")


def check_condition_1(model: ExpFamilyModel, bounds: Condition1Bounds, n_max, K_set) -> dict:
    """Evaluate the four inequalities numerically for all n <= n_max, K in K_set.

    Left-hand sides are exact up to rounding and, for the sums over x, the
    crossing test's relative gap _CROSS_REL (at most 2 _CROSS_REL times the
    first row's mass, below the 1e-12 grace where that mass is at most 1).
    The sums over x end at their crossings, by the identity of
    ``_crossing_l1`` with the left-hand sides of inequalities 1 and 2 as the
    masses; at the benchmark's configuration the inequality-4 sums read
    within 5e-15 of 40-digit arithmetic.  Inequality 3 is maximized over
    instantiated histories with count totals in ``_HISTORY_SCAN``.
    Inequality 4 is evaluated only at (n, K) with K >= k_floor(n), as its
    statement requires.  Each of their entries carries as ``x_max`` the
    largest crossing point, where its sums end.  Violations produce failure
    entries in the report, never exceptions; an n_max or K_set out of range,
    or a K_set that repeats an entry, raises ValueError.
    """
    n_max = integer(n_max, "n_max (inequality 3 needs n >= 2)", 2)
    if not (isinstance(K_set, (list, tuple, np.ndarray)) and len(K_set)):
        raise ValueError(f"K_set must be a non-empty list of integers >= 1, got {K_set!r}")
    K_set = sorted(integer(K, "K_set entries") for K in K_set)
    if len(set(K_set)) < len(K_set):
        raise ValueError(f"K_set must not repeat an entry, got {K_set!r}")
    n_arr = np.arange(1, n_max + 1, dtype=float)
    grace = 1e-12
    report = {"model": model.kind, "bounds": bounds.name, "n_max": n_max,
              "K_set": K_set, "history_scan": list(_HISTORY_SCAN), "inequalities": []}

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
    # total steps its target row once, alongside every K's shifted row
    n3 = n_arr[1:]  # instantiated histories need n >= 2
    slack3 = np.full((len(K_set), n3.size), np.inf)
    worst_s = np.zeros((len(K_set), n3.size), dtype=int)
    x_max3 = [0] * len(K_set)
    for S in _HISTORY_SCAN:
        mask = (n3 - 1) * model.max_count >= S  # a history of n - 1 counts reaches S
        if not mask.any():
            continue
        idx = np.where(mask)[0]
        for k, (K, (l1, X)) in enumerate(zip(K_set, model.l1_history(K_set, n3[idx], S))):
            x_max3[k] = max(x_max3[k], X)
            cand = bounds.rhs3(n3[idx], K) - l1
            tighter = cand < slack3[k, idx]
            slack3[k, idx[tighter]] = cand[tighter]
            worst_s[k, idx[tighter]] = S

    for k, K in enumerate(K_set):
        lhs2 = np.asarray(approx_fresh_mass(model, K, n_arr), dtype=float)
        record(2, bounds.rhs2(n_arr, K) - lhs2, n_arr, K)
        record(3, slack3[k], n3, K,
               {"history_total_worst": int(worst_s[k, int(np.argmin(slack3[k]))]),
                "x_max": x_max3[k]})

        floor = np.asarray(bounds.k_floor(n_arr), dtype=float)
        dom = K >= floor
        if dom.any():
            lhs4, X = model.l4_mismatch(K, n_arr[dom], lhs1[dom], lhs2[dom])
            record(4, bounds.rhs4(n_arr[dom], K) - lhs4, n_arr[dom], K,
                   {"n_evaluated": int(dom.sum()), "x_max": X})
        else:
            report["inequalities"].append({"inequality": 4, "n_worst": None, "K": int(K),
                                           "slack": None, "pass": True, "n_evaluated": 0,
                                           "x_max": None})

    report["pass"] = all(e["pass"] for e in report["inequalities"])
    return report

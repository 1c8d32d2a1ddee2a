import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from crmfinite.analysis import (
    POISSON_MEAN_MAX,
    DPSource,
    FSDSource,
    PartitionComposition,
    all_compositions,
    binom_poisson_lower_constant,
    bondesson_tfa_bound,
    composition_frequencies,
    dp_fsd_two_sample_gap,
    eppf,
    growth_function,
    lecam_upper,
    partition_count,
    truncated_poisson,
    tsb_dp_bound,
    tv_binom_poisson,
    tv_exact,
)
from crmfinite.approximations import (
    AifaConfig,
    beta_stick_breaking,
    fsd,
    sample_weights,
)
from crmfinite.marginals import dp_urn_probs, fsd_urn_probs
from crmfinite.measures import gamma_process
from crmfinite.rng import derive_rng


# -- exact TV on pmf arrays -------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError):
        tv_exact([0.5, 0.6], [1.0])
    with pytest.raises(ValueError):
        tv_exact([1.0], [-0.1, 1.1])
    assert tv_exact([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_tv_identical_and_disjoint():
    p = truncated_poisson(1.0, 1e-14)
    assert tv_exact(p, p) < 1e-12
    assert tv_exact([1.0], [0.0, 1.0]) == 1.0


def test_tv_poisson_pair_against_brute_force():
    p = truncated_poisson(1.0, 1e-14)
    q = truncated_poisson(2.0, 1e-14)
    xs = np.arange(0, 200)
    brute = 0.5 * np.abs(stats.poisson.pmf(xs, 1.0) - stats.poisson.pmf(xs, 2.0)).sum()
    val = tv_exact(p, q)
    assert val == pytest.approx(brute, abs=1e-12)
    assert 0.5 * (max(1.0 - p.sum(), 0.0) + max(1.0 - q.sum(), 0.0)) < 1e-13
    assert val <= 1 - math.exp(-1.0)  # mean-difference bound for Poisson pairs


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.floats(0.1, 8.0), st.floats(0.1, 8.0), st.floats(0.1, 8.0)))
def test_tv_metric_properties(lams):
    ps = [truncated_poisson(lam, 1e-13) for lam in lams]
    for a, b in itertools.permutations(ps, 2):
        ab = tv_exact(a, b)
        assert 0.0 <= ab <= 1.0 + 1e-12
        assert ab == pytest.approx(tv_exact(b, a), abs=1e-12)
    a, b, c = ps
    assert tv_exact(a, c) <= tv_exact(a, b) + tv_exact(b, c) + 1e-12


def test_truncated_poisson_deficit_recorded():
    p = truncated_poisson(3.0, 1e-12)
    assert p[0] == math.exp(-3.0)
    assert 0 <= 1.0 - p.sum() < 1e-12
    assert 1.0 - p[:-1].sum() >= 1e-12  # the first point past the tolerance


def test_truncated_poisson_rejects_means_past_the_limit():
    # e^-lam is the recursion's start: subnormal past the limit, 0 past ~745
    p = truncated_poisson(POISSON_MEAN_MAX)
    assert p[0] > 0 and 0 <= 1.0 - p.sum() < 1e-12
    for lam in (-1.0, 800.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="Poisson mean"):
            truncated_poisson(lam)


def _reference_tv_binom_poisson(K, gamma):
    """The distance tv_binom_poisson computed before it became array code:
    scipy's binomial pmf on 0..K, renormalized, against the truncated Poisson,
    as half the L1 distance on the union of the two supports plus half the
    Poisson's truncation deficit."""
    q = (gamma / K) / (1.0 + gamma / K)
    binom = stats.binom.pmf(np.arange(K + 1), K, q)
    probs = [math.exp(-gamma)]
    while 1.0 - sum(probs) >= 1e-12:
        probs.append(probs[-1] * gamma / len(probs))
    deficit = max(1.0 - sum(probs), 0.0)
    pd, qd = dict(enumerate(probs)), dict(enumerate(binom / binom.sum()))
    l1 = sum(abs(pd.get(o, 0.0) - qd.get(o, 0.0)) for o in set(pd) | set(qd))
    return 0.5 * l1 + 0.5 * deficit


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
def test_tv_binom_poisson_matches_reference(gamma):
    Ks = np.arange(1, 2001)
    tv = tv_binom_poisson(Ks, gamma)
    ref = np.array([_reference_tv_binom_poisson(int(K), gamma) for K in Ks])
    assert np.abs(tv - ref).max() <= 1e-13
    scalar = [tv_binom_poisson(int(K), gamma) for K in Ks]
    assert all(isinstance(v, float) for v in scalar)
    assert np.array_equal(tv, scalar)


def test_tv_binom_poisson_rejects_bad_K():
    for K in (0, -3, 2.5, [1, 0]):
        with pytest.raises(ValueError):
            tv_binom_poisson(K, 1.0)


def test_tv_binom_poisson_rejects_gamma_outside_the_poisson_range():
    for gamma in (-1.0, 800.0):
        with pytest.raises(ValueError, match="gamma must lie in"):
            tv_binom_poisson(5, gamma)


# -- growth function and evaluators ---------------------------------------------

def test_growth_function_values():
    for alpha in (0.25, 1.0, 4.0):
        assert growth_function(1, alpha) == pytest.approx(1.0, rel=1e-14)
    assert growth_function(3, 1.0) == pytest.approx(11 / 6, rel=1e-14)


def test_growth_function_lower_bound():
    from scipy.special import digamma
    for N in (10, 100, 1000):
        for alpha in (0.5, 1.0, 3.0):
            assert growth_function(N, alpha) >= alpha * (math.log(N) - digamma(alpha) - 1)


def test_bound_evaluator_spot_values():
    assert bondesson_tfa_bound(1, 5, 1, 1) == pytest.approx(0.03125, rel=1e-14)
    assert tsb_dp_bound(1, 1, 1) == pytest.approx(2.0, rel=1e-14)
    assert binom_poisson_lower_constant(1.0) == pytest.approx(
        0.125 / (1 + 96 / math.e), rel=1e-14)
    assert lecam_upper(5, 0.2) == pytest.approx(0.2, rel=1e-14)
    assert dp_fsd_two_sample_gap(1.0, 10) == pytest.approx(0.05, rel=1e-14)


def test_evaluator_domains():
    with pytest.raises(ValueError):
        bondesson_tfa_bound(1, 5, 1, 0.5)


# -- binomial-Poisson sandwich ----------------------------------------------------

def test_binom_poisson_lower_sandwich():
    const = binom_poisson_lower_constant(1.0)
    for K in range(1, 101):
        q = (1.0 / K) / (1 + 1.0 / K)
        assert tv_binom_poisson(K, 1.0) >= const * K * q * q


def test_binom_poisson_upper_sandwich_holds_from_K2():
    for K in range(2, 101):
        q = (1.0 / K) / (1 + 1.0 / K)
        assert tv_binom_poisson(K, 1.0) <= K * q * q


def test_binom_poisson_K1_counterexample():
    # At K = 1 the Poissonization bound K q^2 compares Binomial(1, 1/2) with
    # Poisson(1/2), not with Poisson(1); the exact distance to Poisson(1) is
    # |1/2 - e^-1| + P(X >= 2)/2 = 1 - 2/e = 0.2642... > 1/4.  Frozen here as
    # the recorded counterexample to the K=1 upper inequality.
    tv = tv_binom_poisson(1, 1.0)
    assert tv == pytest.approx(1 - 2 * math.exp(-1), abs=1e-12)
    assert tv > 0.25
    # the Le Cam pair itself does satisfy the bound
    same_mean = tv_exact(truncated_poisson(0.5), [0.5, 0.5])
    assert same_mean <= 0.25


def test_binom_poisson_monotone_trend():
    vals = [tv_binom_poisson(K, 1.0) for K in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 5e-4


# -- partition compositions and EPPFs ----------------------------------------------

def test_composition_validation():
    with pytest.raises(ValueError, match="sorted descending"):
        PartitionComposition((1, 2))
    with pytest.raises(ValueError, match="at least one block"):
        PartitionComposition(())
    for sizes in ([2.7], ["3"], [True], [2, 0], [np.nan]):
        with pytest.raises(ValueError, match="block size must be an integer"):
            PartitionComposition(sizes)
    for N in (2.5, 0, True):
        with pytest.raises(ValueError, match="N must be an integer"):
            all_compositions(N)
    comp = PartitionComposition((3, 1, 1))
    assert comp.N == 5 and comp.blocks == 3
    assert PartitionComposition(np.array([2, 1])).sizes == (2, 1)


def brute_partition_count(comp):
    """Count set partitions of [N] with the given sizes by enumeration."""
    n = comp.N
    count = 0
    for labels in itertools.product(range(n), repeat=n):
        # canonical restricted-growth check
        seen = []
        ok = True
        for lab in labels:
            if lab == len(seen):
                seen.append(0)
            elif lab > len(seen):
                ok = False
                break
            seen[lab] += 1
        if ok and tuple(sorted(seen, reverse=True)) == comp.sizes:
            count += 1
    return count


def test_partition_count_against_enumeration():
    for N in range(1, 7):
        for comp in all_compositions(N):
            assert partition_count(comp) == brute_partition_count(comp)


def test_eppf_examples():
    assert eppf(DPSource(0.7), PartitionComposition((1,))) == 1.0
    assert eppf(FSDSource(1.0, 2), PartitionComposition((1, 1))) == pytest.approx(0.25)
    assert eppf(FSDSource(2.0, 1), PartitionComposition((1, 1))) == 0.0


def _rising(x, n):
    out = Fraction(1)
    for i in range(n):
        out *= x + i
    return out


def _exact_eppf(alpha, K, sizes):
    """The closed-form EPPF in rationals: alpha^b prod (n_i - 1)! / (alpha)_N
    for the DP (K None), K!/(K-b)! prod (alpha/K)_{n_i} / (alpha)_N for the
    FSD; (x)_n is the rising factorial."""
    num = Fraction(1)
    for j, n in enumerate(sizes):
        num *= alpha * math.factorial(n - 1) if K is None else (K - j) * _rising(alpha / K, n)
    return num / _rising(alpha, sum(sizes))


def test_eppf_matches_exact_rationals():
    # every composition of N <= 8, FSD ones with more blocks than K included
    cases = [(DPSource(1.5), Fraction(3, 2), None), (DPSource(0.4), Fraction(2, 5), None),
             *[(FSDSource(1.5, K), Fraction(3, 2), K) for K in (4, 16, 64)],
             (FSDSource(2.5, 3), Fraction(5, 2), 3)]
    zeros = 0
    for source, alpha, K in cases:
        for N in range(1, 9):
            for comp in all_compositions(N):
                exact = _exact_eppf(alpha, K, comp.sizes)
                value = eppf(source, comp)
                assert type(value) is float
                if exact == 0:
                    zeros += 1
                    assert value == 0.0, (source, comp)
                else:
                    assert abs(value - float(exact)) <= 1e-14 * float(exact), (source, comp)
    assert zeros > 0


def test_eppf_rejects_weight_laws():
    with pytest.raises(ValueError, match="WeightDistribution"):
        eppf(fsd(1.0, 8), PartitionComposition((2, 1)))


def test_urn_sources_reject_bad_parameters():
    for make in (lambda: DPSource(-1.0), lambda: DPSource(0.0),
                 lambda: DPSource(float("inf")), lambda: FSDSource(1.0, 0),
                 lambda: FSDSource(-1.0, 3), lambda: FSDSource(float("nan"), 3),
                 lambda: FSDSource(1.0, 2.5)):
        with pytest.raises(ValueError):
            make()


def test_eppf_normalization_over_partition_lattice():
    for source in (DPSource(1.0), DPSource(0.4), FSDSource(1.0, 8), FSDSource(2.5, 3)):
        for N in range(1, 6):
            total = sum(partition_count(c) * eppf(source, c) for c in all_compositions(N))
            assert total == pytest.approx(1.0, abs=1e-10), (source, N)


def test_eppf_gap_slope():
    dp = DPSource(1.0)
    ks = (4, 16, 64, 256)
    for comp in all_compositions(4):
        p_dp = eppf(dp, comp)
        gaps = [abs(eppf(FSDSource(1.0, K), comp) - p_dp) for K in ks]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        slope = np.polyfit(np.log(ks), np.log(gaps), 1)[0]
        assert -1.3 <= slope <= -0.7


def _restricted_growth_sequences(n):
    """Every label sequence of length n whose labels first appear in order
    0, 1, 2, ...: one per set partition of [n]."""
    seqs = [[0]]
    for _ in range(n - 1):
        seqs = [s + [lab] for s in seqs for lab in range(max(s) + 2)]
    return seqs


def test_sequence_probability_insertion_order_invariant():
    # exchangeability: the urn's probability of a label sequence, chained
    # step by step through the urn predictives, is eppf of its composition
    seqs = _restricted_growth_sequences(5)
    assert len(seqs) == 52  # the Bell number B_5
    for source in (DPSource(1.3), FSDSource(0.8, 6), FSDSource(2.0, 2)):
        for seq in seqs:
            counts, prob = [], 1.0
            for lab in seq:
                if isinstance(source, DPSource):
                    existing, fresh = dp_urn_probs(counts, source.alpha)
                else:
                    existing, fresh = fsd_urn_probs(counts, source.gamma, source.K)
                prob *= fresh if lab == len(counts) else existing[lab]
                if prob == 0:
                    break  # a third block under FSD(2, 2)
                if lab == len(counts):
                    counts.append(0)
                counts[lab] += 1
            comp = PartitionComposition(sorted(np.bincount(seq), reverse=True))
            assert prob == pytest.approx(eppf(source, comp), rel=1e-12, abs=0), (source, seq)


def _dense_composition_frequencies(dist, N, reps, rng):
    """Reference for the weight path: labels from the dense (reps, N, K)
    comparison u > cdf."""
    weights = sample_weights(dist, rng, size=reps)
    weights /= weights.sum(axis=1, keepdims=True)
    u = rng.random((reps, N))
    labels = (u[:, :, None] > np.cumsum(weights, axis=1)[:, None, :]).sum(axis=2)
    freq = {}
    for row in labels:
        sizes = tuple(sorted(np.unique(row, return_counts=True)[1].tolist(), reverse=True))
        freq[sizes] = freq.get(sizes, 0) + 1
    return freq


def test_monte_carlo_matches_exact():
    # every N = 3 composition within 4 Monte Carlo standard errors at 10^6
    # replicates, for the DP and FSD copy-step urns; and the weight path's
    # labels equal the dense comparison for normalized FSD weights at K = 1000
    reps = 1_000_000
    for stream, source in enumerate((DPSource(1.0), FSDSource(1.0, 8))):
        freq = composition_frequencies(source, 3, reps, derive_rng(77, stream))
        for comp in all_compositions(3):
            hits = freq.get(comp.sizes, 0)
            p_hat = hits / reps
            se = math.sqrt(p_hat * (1 - p_hat) / reps) / partition_count(comp)
            est = p_hat / partition_count(comp)
            assert abs(est - eppf(source, comp)) < 4 * se + 1e-9, (source, comp)
    wide = fsd(0.5, 1000)
    assert composition_frequencies(wide, 20, 500, derive_rng(77, 2)) == \
        _dense_composition_frequencies(wide, 20, 500, derive_rng(77, 2))


def test_monte_carlo_normalized_aifa_matches_fsd():
    # the normalized gamma-process AIFA *is* the FSD, so the weight-path
    # Monte Carlo must agree with the FSD exact route
    gamma, K, reps = 1.0, 8, 4000
    dist = AifaConfig(gamma_process(gamma, 1.0, 0.0), K)
    comp = PartitionComposition((2, 1))
    p_comp = composition_frequencies(dist, comp.N, reps, derive_rng(78, 0)).get(comp.sizes, 0) / reps
    se = math.sqrt(max(p_comp * (1 - p_comp), 1.0 / reps) / reps)
    exact = eppf(FSDSource(gamma, K), comp)
    assert abs(p_comp - partition_count(comp) * exact) < 4 * se


def test_normalized_aifa_more_blocks_than_atoms_is_zero():
    # K = 2 normalized weights label every draw 0 or 1: never three blocks
    dist = AifaConfig(gamma_process(1.0, 1.0, 0.0), 2)
    freq = composition_frequencies(dist, 3, 2000, derive_rng(81, 0))
    assert sum(freq.values()) == 2000 and (1, 1, 1) not in freq


@pytest.mark.parametrize("source", [0.5, None])
def test_monte_carlo_rejects_a_source_that_is_no_weight_law(source):
    with pytest.raises(ValueError, match="dist"):
        composition_frequencies(source, 3, 10, derive_rng(82, 0))


@pytest.mark.parametrize("source", [FSDSource(1.0, 10), fsd(1.0, 10)])
@pytest.mark.parametrize("N, reps", [(0, 10), (2.5, 10), (True, 10), (3, 0), (3, 2.5), (3, True)])
def test_monte_carlo_rejects_bad_sizes_before_drawing(source, N, reps):
    rng = derive_rng(83, 0)
    with pytest.raises(ValueError, match="N must|reps must"):
        composition_frequencies(source, N, reps, rng)
    assert rng.random() == derive_rng(83, 0).random()  # nothing drawn


def test_monte_carlo_rejects_vectors_without_atoms():
    # beta stick-breaking with gamma * K = 0.6 leaves about half the rows empty
    with pytest.raises(ValueError, match="no atoms"):
        composition_frequencies(beta_stick_breaking(0.3, 1.0, 2), 3, 100, derive_rng(80, 0))

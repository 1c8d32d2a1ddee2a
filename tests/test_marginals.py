import itertools
import math
import zlib

import numpy as np
import pytest
from scipy import special, stats

from crmfinite.marginals import (
    FRESH,
    FeatureAllocation,
    allocation_log_probability,
    approx_fresh_mass,
    approx_predictive_pmf,
    beta_bernoulli,
    beta_negative_binomial,
    check_condition_1,
    condition_preset,
    dp_urn_probs,
    dp_urn_step,
    fsd_urn_probs,
    fsd_urn_step,
    gamma_poisson,
    generic_condition_bounds,
    sample_predictive_count,
    simulate_allocation,
    target_new_atom_rate,
    target_predictive_pmf,
    total_new_atom_rate,
)
from crmfinite.rng import derive_rng

BB = beta_bernoulli(1.0, 1.0)
GP = gamma_poisson(1.0, 1.0)
BNB = beta_negative_binomial(1.0, 2.0, 1.0)


# -- predictive pmfs ----------------------------------------------------------

def test_target_beta_bernoulli_example():
    assert target_predictive_pmf(BB, [1, 0], 1) == pytest.approx(1 / 3, rel=1e-14)
    assert target_predictive_pmf(BB, [1, 0], 0) == pytest.approx(2 / 3, rel=1e-14)


def test_target_pmf_sums_to_one():
    for model, hist in ((BB, [1, 0, 1]), (GP, [2]), (BNB, [3, 0])):
        total = sum(target_predictive_pmf(model, hist, x) for x in range(4000))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_target_all_zero_history_rejected():
    with pytest.raises(ValueError):
        target_predictive_pmf(BB, [0, 0], 1)
    with pytest.raises(ValueError):
        sample_predictive_count(GP, [0], derive_rng(0, 0))


def test_gamma_poisson_negative_binomial_form():
    # history (2,) at n = 2: NB(2, 1/3)
    for x in range(8):
        assert target_predictive_pmf(GP, [2], x) == pytest.approx(
            stats.nbinom.pmf(x, 2, 1 - 1 / 3), rel=1e-12)


def test_approx_beta_bernoulli_examples():
    assert approx_predictive_pmf(BB, 10, [1, 0], 1) == pytest.approx(1.1 / 3.1, rel=1e-14)
    assert approx_predictive_pmf(BB, 10, [], 1) == pytest.approx(0.1 / 1.1, rel=1e-14)


def test_approx_tends_to_target():
    for model, hist in ((BB, [1, 0]), (GP, [2, 1]), (BNB, [1])):
        for x in range(3):
            a = approx_predictive_pmf(model, 10**7, hist, x)
            t = target_predictive_pmf(model, hist, x)
            assert abs(a - t) < 1e-6


def test_history_validation():
    with pytest.raises(ValueError):
        target_predictive_pmf(BB, [2], 1)       # binary counts only
    with pytest.raises(ValueError):
        target_predictive_pmf(GP, [-1], 0)
    with pytest.raises(ValueError):
        approx_predictive_pmf(GP, 0, [1], 0)    # K >= 1


# -- new-atom rates -----------------------------------------------------------

def test_new_atom_rate_examples():
    bb2 = beta_bernoulli(2.0, 1.0)
    assert target_new_atom_rate(bb2, 1, 1) == pytest.approx(2.0, rel=1e-14)
    assert target_new_atom_rate(bb2, 1, 2) == 0.0
    assert target_new_atom_rate(GP, 1, 2) == pytest.approx(0.125, rel=1e-14)
    with pytest.raises(ValueError):
        target_new_atom_rate(GP, 1, 0)


def test_total_rate_closed_forms_against_brute_sums():
    # derived identities: gamma-Poisson -gamma*lam*log1p(-p), beta-neg-binomial
    # gamma*alpha*(digamma(rn+alpha) - digamma(r(n-1)+alpha))
    xs = np.arange(1, 300_000)
    for model in (GP, BNB, beta_negative_binomial(1.3, 2.5, 2.0)):
        for n in (1, 2, 7, 40):
            brute = float(target_new_atom_rate(model, n, xs).sum())
            closed = float(total_new_atom_rate(model, n))
            assert brute == pytest.approx(closed, abs=1e-7, rel=1e-6)


def test_bb_cumulative_rate_is_growth_function():
    from crmfinite.analysis import growth_function
    gamma, alpha = 2.0, 1.5
    model = beta_bernoulli(gamma, alpha)
    for N in (1, 5, 50):
        total = sum(total_new_atom_rate(model, n) for n in range(1, N + 1))
        assert total == pytest.approx(gamma * growth_function(N, alpha), rel=1e-12)


def test_fresh_mass_closed_forms():
    for model in (BB, GP, BNB):
        x_hi = 200_000 if model is BNB else 4000  # BNB pmf has a power tail
        for K in (7, 100):
            for n in (1, 2, 9):
                hist = [0] * (n - 1)
                xs = np.arange(1, x_hi)
                shift = model.mass_shift / K
                from crmfinite.marginals import _predictive_logpmf
                brute = float(np.exp(_predictive_logpmf(model, n, 0.0, shift, xs)).sum())
                assert approx_fresh_mass(model, K, n) == pytest.approx(brute, abs=1e-8)
                # spot-check the vectorized pmf against the public scalar one
                assert approx_predictive_pmf(model, K, hist, 1) == pytest.approx(
                    float(np.exp(_predictive_logpmf(model, n, 0.0, shift, 1))), rel=1e-12)


# -- Monte Carlo / analytic agreement -----------------------------------------

def test_sampled_counts_match_pmf():
    # history lengths 1, 4, 19 put the comparison at n = 2, 5, 20; each of the
    # 18 (model, history, K) cases is one chi-square goodness-of-fit test over
    # x = 0, 1, 2, >=3, Bonferroni-gated to a family-wise false-alarm rate 1e-3
    reps = 20_000
    cases = [(BB, [1]), (BB, [1, 0, 0, 1]), (BB, [1, 0] * 9 + [1]),
             (GP, [2]), (GP, [2, 0, 1, 0]), (GP, [1, 0] * 9 + [2]),
             (BNB, [1]), (BNB, [1, 2, 0, 0]), (BNB, [0, 1] * 9 + [3])]
    alpha = 1e-3 / (2 * len(cases))
    for model, hist in cases:
        for K in (None, 10):
            key = f"{model.kind.value}/{hist}/{K}"
            rng = derive_rng(31, zlib.crc32(key.encode()))
            draws = np.array([sample_predictive_count(model, hist, rng, K=K)
                              for _ in range(reps)])
            p = np.array([target_predictive_pmf(model, hist, x) if K is None
                          else approx_predictive_pmf(model, K, hist, x) for x in range(3)])
            p = np.append(p, max(1.0 - p.sum(), 0.0))
            observed = np.bincount(np.minimum(draws, 3), minlength=4)
            live = p > 1e-12
            assert observed[~live].sum() == 0, key  # zero-probability cells stay empty
            expected = reps * p[live] / p[live].sum()
            chi2 = float(((observed[live] - expected) ** 2 / expected).sum())
            assert stats.chi2.sf(chi2, live.sum() - 1) > alpha, (key, chi2)


# -- allocations ---------------------------------------------------------------

def test_allocation_validation():
    with pytest.raises(ValueError):
        FeatureAllocation(np.array([[0, 1], [0, 0]]))   # empty column
    with pytest.raises(ValueError):
        FeatureAllocation(np.array([[0, 1], [1, 0]]))   # appearance order violated
    FeatureAllocation(np.zeros((3, 0), dtype=int))      # no columns is fine


def test_allocation_csv_json_round_trip():
    alloc = simulate_allocation(GP, 6, derive_rng(32, 0), source="target")
    again = FeatureAllocation.from_csv(alloc.to_csv(), n_rows=6)
    assert np.array_equal(alloc.counts, again.counts)
    js = alloc.to_json()
    assert js["rows"] == 6 and js["columns"] == alloc.n_columns


def test_aifa_allocation_never_exceeds_K():
    for i in range(30):
        alloc = simulate_allocation(BB, 20, derive_rng(33, i), source="aifa", K=7)
        assert alloc.n_columns <= 7
    for i in range(10):
        alloc = simulate_allocation(GP, 10, derive_rng(34, i), source="aifa", K=5)
        assert alloc.n_columns <= 5


def test_aifa_first_round_activation_count():
    # N=1, K=10, BB(1,1): active columns ~ Binomial(10, 0.1/1.1)
    reps = 6000
    counts = np.array([simulate_allocation(BB, 1, derive_rng(35, i),
                                           source="aifa", K=10).n_columns
                       for i in range(reps)])
    p = (0.1) / 1.1
    se = math.sqrt(10 * p * (1 - p) / reps)
    assert abs(counts.mean() - 10 * p) < 3 * se


def test_target_column_count_poisson():
    # reduced-size version of the feature-count law (the acceptance suite
    # runs the full 10^4-replicate criterion)
    from crmfinite.analysis import growth_function
    reps, N = 2500, 50
    cols = np.array([simulate_allocation(BB, N, derive_rng(36, i)).n_columns
                     for i in range(reps)], dtype=float)
    mean = growth_function(N, 1.0)
    assert abs(cols.mean() - mean) < 3 * math.sqrt(mean / reps)
    assert 0.85 < cols.var() / cols.mean() < 1.15


def test_gp_allocation_general_path():
    alloc = simulate_allocation(GP, 25, derive_rng(37, 0), source="target")
    assert alloc.n_rows == 25
    assert np.all(alloc.counts >= 0)
    first = alloc.first_rows()
    assert np.all(np.diff(first) >= 0)
    # within-round tie order: descending birth count
    for r in range(25):
        born = [j for j in range(alloc.n_columns) if first[j] == r]
        sizes = [alloc.counts[r, j] for j in born]
        assert sizes == sorted(sizes, reverse=True)


def test_allocation_probability_exchangeable():
    # permuting which row comes first leaves the matrix probability unchanged
    mats = [
        np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]),
        np.array([[1, 0], [1, 1], [1, 0]]),
        np.array([[1, 1, 1], [0, 0, 0], [1, 0, 0]]),
    ]
    for mat in mats:
        values = []
        for perm in itertools.permutations(range(mat.shape[0])):
            m = mat[list(perm)]
            first = (m != 0).argmax(axis=0)
            order = sorted(range(m.shape[1]), key=lambda j: (first[j], -m[first[j], j]))
            values.append(allocation_log_probability(BB, FeatureAllocation(m[:, order])))
        assert max(values) - min(values) < 1e-10


def test_allocation_probability_normalizes_small_case():
    # N = 1: sum over column counts d of P(d columns) = 1
    total = 0.0
    for d in range(40):
        if d == 0:
            mat = np.zeros((1, 0), dtype=int)
        else:
            mat = np.ones((1, d), dtype=int)
        total += math.exp(allocation_log_probability(BB, FeatureAllocation(mat)))
    assert total == pytest.approx(1.0, abs=1e-12)


# -- urns -----------------------------------------------------------------------

def test_urn_probability_examples():
    existing, fresh = dp_urn_probs([1], 1.0)
    assert existing[0] == pytest.approx(0.5)
    existing, fresh = fsd_urn_probs([1], 1.0, 10)
    assert existing[0] == pytest.approx(0.55)
    existing, fresh = dp_urn_probs([], 1.0)
    assert fresh == 1.0


def test_dp_urn_empty_history_is_fresh():
    rng = derive_rng(38, 0)
    assert all(dp_urn_step([], 1.0, rng) is FRESH for _ in range(20))


def test_fsd_urn_full_never_fresh():
    rng = derive_rng(39, 0)
    K = 3
    history = ["a", "b", "c"]
    existing, fresh = fsd_urn_probs([1, 1, 1], 1.0, K)
    assert fresh == 0.0
    assert existing.sum() == pytest.approx(1.0)
    for _ in range(50):
        assert fsd_urn_step(history, 1.0, K, rng) in history


def test_fsd_urn_never_exceeds_K():
    rng = derive_rng(40, 0)
    K = 4
    for _ in range(20):
        history = []
        next_label = 0
        for n in range(40):
            lab = fsd_urn_step(history, 1.3, K, rng)
            if lab is FRESH:
                lab = next_label
                next_label += 1
            history.append(lab)
        assert len(set(history)) <= K


def test_fsd_urn_rejects_too_many_labels():
    with pytest.raises(ValueError):
        fsd_urn_probs([1, 1, 1], 1.0, 2)


# -- condition checker -----------------------------------------------------------

def test_presets_pass_at_moderate_scale():
    for model in (BB, GP, BNB):
        report = check_condition_1(model, condition_preset(model), 1000, [10, 100, 1000])
        assert report["pass"], report


def test_h_difference_within_preset_bound():
    # |h - h~| summed over x stays below the family bound for n <= 1000
    for model in (BB, GP, BNB):
        report = check_condition_1(model, condition_preset(model), 1000, [25])
        entry = [e for e in report["inequalities"] if e["inequality"] == 3][0]
        assert entry["pass"] and entry["slack"] >= 0


def test_generic_constants_bb_exact_slack():
    report = check_condition_1(BB, generic_condition_bounds(1.0), 100, [10])
    ineq1 = [e for e in report["inequalities"] if e["inequality"] == 1][0]
    assert ineq1["pass"] and ineq1["slack"] == pytest.approx(0.0, abs=1e-15)


def test_generic_wrong_constant_fails():
    report = check_condition_1(BB, generic_condition_bounds(0.1), 50, [10])
    ineq1 = [e for e in report["inequalities"] if e["inequality"] == 1][0]
    assert not ineq1["pass"]
    assert ineq1["n_worst"] >= 1
    assert not report["pass"]


def test_condition_report_shape():
    report = check_condition_1(GP, condition_preset(GP), 50, [10])
    assert {e["inequality"] for e in report["inequalities"]} == {1, 2, 3, 4}
    for e in report["inequalities"]:
        assert set(e) >= {"inequality", "n_worst", "K", "slack", "pass"}


def test_model_validation():
    with pytest.raises(ValueError):
        beta_negative_binomial(1.0, 0.9, 1.0)   # alpha must exceed 1
    with pytest.raises(ValueError):
        beta_negative_binomial(1.0, 2.0, -1.0)
    with pytest.raises(ValueError):
        gamma_poisson(-1.0, 1.0)

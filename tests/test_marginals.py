import itertools
import math
import zlib

import numpy as np
import pytest
from scipy import special, stats

from crmfinite.analysis import DPSource, FSDSource, _urn_labels
from crmfinite.marginals import (
    FeatureAllocation,
    _conjugate_weight,
    _draw_counts,
    allocation_log_probability,
    approx_fresh_mass,
    approx_predictive_pmf,
    beta_bernoulli,
    beta_negative_binomial,
    check_condition_1,
    condition_preset,
    dp_urn_probs,
    fsd_urn_probs,
    gamma_poisson,
    generic_condition_bounds,
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
    # conjugacy: a weight from the posterior at (sum(history), len(history),
    # shift), then one count given it, has the predictive pmf.  History
    # lengths 1, 4, 19 put the comparison at n = 2, 5, 20; each of the 18
    # (model, history, K) cases is one chi-square goodness-of-fit test over
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
            shift = 0.0 if K is None else model.mass_shift / K
            theta = _conjugate_weight(model, np.full(reps, float(sum(hist))), len(hist),
                                      shift, rng)
            draws = _draw_counts(model, theta, rng, 1)[0]
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


def test_aifa_allocation_never_exceeds_K():
    for i in range(30):
        alloc = simulate_allocation(BB, 20, derive_rng(33, i), source="aifa", K=7)
        assert alloc.n_columns <= 7
    for i in range(10):
        alloc = simulate_allocation(GP, 10, derive_rng(34, i), source="aifa", K=5)
        assert alloc.n_columns <= 5


def test_aifa_first_round_activation_count():
    # active columns ~ Binomial(K, P), P = 1 - prod_{n<=N} (1 - approx_fresh_mass(n)):
    # N = 1 under BB(1,1) (P = 0.1/1.1), N = 3 under gamma-Poisson and beta-NB
    reps, K = 6000, 10
    for case, (model, N) in enumerate(((BB, 1), (GP, 3), (BNB, 3))):
        counts = np.array([simulate_allocation(model, N, derive_rng(35, case, i),
                                               source="aifa", K=K).n_columns
                           for i in range(reps)])
        p = 1.0 - np.prod([1.0 - approx_fresh_mass(model, K, n) for n in range(1, N + 1)])
        se = math.sqrt(K * p * (1 - p) / reps)
        assert abs(counts.mean() - K * p) < 3 * se, (model.kind, counts.mean(), K * p)


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
    # a count the target never produces has probability 0, at birth or later
    for mat in ([[2]], [[1], [2]]):
        assert allocation_log_probability(BB, FeatureAllocation(np.array(mat))) == -math.inf


def _class_key(counts):
    """Columns of the canonical matrix of an allocation's class: columns born
    in the same row with the same count are sorted by their full count
    vector.  The simulator orders such ties by draw, while the exact pmf is
    per class."""
    first = (counts != 0).argmax(axis=0)
    order = np.lexsort(np.vstack([counts[::-1], -counts[first, np.arange(counts.shape[1])],
                                  first]))
    return tuple(map(tuple, counts[:, order].T.tolist()))


def test_target_allocation_matrix_law():
    # 10^4 target allocations per case against exp(allocation_log_probability)
    # of their class; one chi-square test over the sampled classes with
    # expected count >= 5 plus a pooled remainder cell (an unsampled class
    # with expected count >= 5 falls into the remainder), Bonferroni-gated to
    # a family-wise false-alarm rate 1e-3
    reps = 10_000
    cases = [(BB, 3), (GP, 2), (BNB, 2)]
    alpha = 1e-3 / len(cases)
    for model, N in cases:
        rng = derive_rng(41, zlib.crc32(f"{model.kind.value}/{N}".encode()))
        freq = {}
        for _ in range(reps):
            key = _class_key(simulate_allocation(model, N, rng).counts)
            freq[key] = freq.get(key, 0) + 1
        cells = {}
        for key in freq:
            mat = np.array(key, dtype=np.int64).T.reshape(N, -1)
            expected = reps * math.exp(allocation_log_probability(model, FeatureAllocation(mat)))
            if expected >= 5:
                cells[key] = expected
        observed = [freq[k] for k in cells]
        expected = list(cells.values())
        observed.append(reps - sum(observed))
        expected.append(reps - sum(expected))
        observed, expected = np.array(observed), np.array(expected)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, len(cells)) > alpha, (model.kind, len(cells), chi2)


# -- urns -----------------------------------------------------------------------

def test_urn_probability_examples():
    existing, fresh = dp_urn_probs([1], 1.0)
    assert existing[0] == pytest.approx(0.5)
    existing, fresh = fsd_urn_probs([1], 1.0, 10)
    assert existing[0] == pytest.approx(0.55)
    existing, fresh = dp_urn_probs([], 1.0)
    assert fresh == 1.0


def test_dp_urn_empty_history_is_fresh():
    # the DP kernel's fresh label for draw i is i itself
    labels = _urn_labels(DPSource(1.0), 5, 200, derive_rng(38, 0))
    assert np.all(labels[:, 0] == 0)
    assert np.all(labels <= np.arange(5))


def test_fsd_urn_full_never_fresh():
    K = 3
    existing, fresh = fsd_urn_probs([1, 1, 1], 1.0, K)
    assert fresh == 0.0
    assert existing.sum() == pytest.approx(1.0)
    labels = _urn_labels(FSDSource(1.0, K), 50, 200, derive_rng(39, 0))
    assert labels.min() >= 0 and labels.max() < K


def test_fsd_urn_never_exceeds_K():
    K = 4
    labels = _urn_labels(FSDSource(1.3, K), 40, 20, derive_rng(40, 0))
    assert labels.min() >= 0 and labels.max() < K
    assert all(len(set(row)) <= K for row in labels.tolist())


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


# Reports of check_condition_1 before the checker shared its target grids
# across K (n_max = 300, K_set [10, 100, 1000], presets): (inequality, K,
# n_worst, slack, pass, history_total_worst, n_evaluated) per entry.
_GOLDEN_REPORTS = {
    "bb": [
        (1, None, 1, 0.0, True, None, None),
        (2, 10, 300, 1.1107408641561779e-07, True, None, None),
        (3, 10, 300, 2.4436299011443502e-06, True, 1, None),
        (4, 10, 300, 0.0003322225924691765, True, None, 300),
        (2, 100, 300, 1.1110740753071777e-09, True, None, None),
        (3, 100, 300, 2.2443696321260555e-07, True, 1, None),
        (4, 100, 300, 3.322222592580243e-05, True, None, 300),
        (2, 1000, 300, 1.1111074074055167e-11, True, None, None),
        (3, 1000, 300, 2.2244370296824263e-08, True, 1, None),
        (4, 1000, 1, 9.9900099914587e-07, True, None, 300),
    ],
    "gp": [
        (1, None, 300, 5.543240658664218e-06, True, None, None),
        (2, 10, 300, 6.096888587869549e-07, True, None, None),
        (3, 10, 300, 3.430166053002958e-06, True, 1, None),
        (4, 10, 300, 0.0012377701357468426, True, None, 300),
        (2, 100, 300, 5.598610978964168e-08, True, None, None),
        (3, 100, 300, 3.330841613199471e-07, True, 1, None),
        (4, 100, 300, 0.00012377698599391027, True, None, 300),
        (2, 1000, 300, 5.54877774597218e-09, True, None, None),
        (3, 1000, 300, 3.32090807780191e-08, True, 1, None),
        (4, 1000, 300, 1.2377698323550593e-05, True, None, 300),
    ],
    "bnb": [
        (1, None, 300, 1.1055770835716704e-05, True, None, None),
        (2, 10, 300, 0.0019982189933544277, True, None, None),
        (3, 10, 300, 9.659787331507469e-06, True, 1, None),
        (4, 10, None, None, True, None, 0),
        (2, 100, 300, 0.00019978219410381393, True, None, None),
        (3, 100, 300, 8.873531278474997e-07, True, 1, None),
        (4, 100, 300, 0.007376458851892641, True, None, 300),
        (2, 1000, 300, 1.9977822350169066e-05, True, None, None),
        (3, 1000, 300, 8.794844439819655e-08, True, 1, None),
        (4, 1000, 300, 0.0007376458720960239, True, None, 300),
    ],
}


@pytest.mark.parametrize("name", ["bb", "gp", "bnb"])
def test_condition_report_matches_golden(name):
    model = {"bb": BB, "gp": GP, "bnb": BNB}[name]
    report = check_condition_1(model, condition_preset(model), 300, [10, 100, 1000])
    got = [(e["inequality"], e["K"], e["n_worst"], e["slack"], e["pass"],
            e.get("history_total_worst"), e.get("n_evaluated")) for e in report["inequalities"]]
    want = _GOLDEN_REPORTS[name]
    assert [g[:3] + g[4:] for g in got] == [w[:3] + w[4:] for w in want]
    for g, w in zip(got, want):
        assert (g[3] is None) == (w[3] is None)
        if w[3] is not None:
            assert abs(g[3] - w[3]) <= 1e-13, (g, w)
    assert report["pass"]


@pytest.mark.parametrize("n_max, K_set", [(1, [10]), (2.5, [10]), (True, [10]), (50, []),
                                          (50, [0]), (50, [2.5]), (50, [True]), (50, 10)])
def test_condition_checker_rejects_bad_ranges(n_max, K_set):
    with pytest.raises(ValueError, match="n_max" if K_set == [10] else "K_set"):
        check_condition_1(GP, condition_preset(GP), n_max, K_set)


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

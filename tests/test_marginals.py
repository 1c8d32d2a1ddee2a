import dataclasses
import inspect
import itertools
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest
from scipy import special, stats

import crmfinite
from crmfinite.analysis import (
    DPSource,
    FSDSource,
    _urn_labels,
    binom_poisson_lower_constant,
    bondesson_tfa_bound,
    dp_fsd_two_sample_gap,
    growth_function,
    tsb_dp_bound,
    tv_binom_poisson,
)
from crmfinite.approximations import aifa_closed_form, sample_weights
from crmfinite.cli import _MODEL_KINDS
from crmfinite.marginals import (
    _CROSS_REL,
    _HISTORY_SCAN,
    ExpFamilyModel,
    FeatureAllocation,
    _predictive_logpmf,
    _sparse_counts,
    allocation_log_probability,
    approx_fresh_mass,
    beta_bernoulli,
    beta_negative_binomial,
    check_condition_1,
    gamma_poisson,
    generic_condition_bounds,
    simulate_allocation,
    target_new_atom_rate,
    total_new_atom_rate,
)
from crmfinite.measures import Family, beta_process, gamma_process, small_weight_coefficient
from crmfinite.rng import derive_rng

from _reference import (
    CallLog,
    approx_predictive_pmf,
    dp_urn_probs,
    fsd_urn_probs,
    target_predictive_pmf,
)

BB = beta_bernoulli(1.0, 1.0)
GP = gamma_poisson(1.0, 1.0)
BNB = beta_negative_binomial(1.0, 2.0, 1.0)
BNB_R5 = beta_negative_binomial(1.0, 2.0, 5.0)


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


@pytest.mark.parametrize("model", [GP, gamma_poisson(2.5, 0.3), BNB,
                                   beta_negative_binomial(1.3, 2.5, 2.0)],
                         ids=["gp", "gp-2.5-0.3", "bnb", "bnb-1.3-2.5-2"])
def test_fresh_mass_default_matches_closed_forms(model):
    # gamma-Poisson: the one default, -expm1(log h~(0 | all-zero history)),
    # against the closed form it replaced, bit for bit.  Beta-NB: its own
    # integral of log h~(0 | 0) against 50-digit mpmath, within 1e-14 in
    # K * fresh, where the betaln difference it replaced cancels (5.8e-5
    # off in K * fresh at K = 10^6)
    n = np.arange(1, 20_001, dtype=float)
    for K in (1, 2, 7, 10, 100, 1000, 10**6):
        got = approx_fresh_mass(model, K, n)
        if model.kind == "gamma_poisson":
            c = model.gamma * model.lam / K
            want = -np.expm1(c * np.log1p(-1.0 / (model.lam + n)))
            assert np.array_equal(got, want), K
        else:
            at = np.array([1, 2, 3, 10, 100, 1000, 9817, 10_000, 20_000])
            err = [K * abs(got[m - 1] - _bnb_fresh_mass_mp(model, K, m)) for m in at]
            assert max(err) <= 1e-14, (K, max(err))


def _bnb_fresh_mass_mp(model, K, n):
    """1 - B(t, b + r) / B(t, b), t = c/K, b = r(n-1) + alpha, in 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        t, r = mp.mpf(model.mass_shift) / K, mp.mpf(model.r)
        b = r * (n - 1) + model.alpha
        return float(-mp.expm1(mp.loggamma(b + r) - mp.loggamma(b)
                               - mp.loggamma(t + b + r) + mp.loggamma(t + b)))


def test_bnb_fresh_mass_wide_grid():
    # the integral rule where t = c/K <= b = r(n-1) + alpha, the betaln
    # difference past it; the betaln difference alone is up to 12.5 off in
    # relative terms on this grid
    worst = 0.0
    for gamma, alpha, r in itertools.product((0.1, 1.0, 50.0), (1.01, 2.0, 30.0),
                                             (0.3, 1.0, 2.5, 7.0)):
        model = beta_negative_binomial(gamma, alpha, r)
        for K in (1, 2, 3, 10, 10**3, 10**6):
            for n in (1, 2, 10, 10_000):
                want = _bnb_fresh_mass_mp(model, K, n)
                worst = max(worst, abs(float(approx_fresh_mass(model, K, n)) / want - 1))
    assert worst <= 2e-11, worst


@pytest.mark.parametrize("fn, args, what", [
    (total_new_atom_rate, (BB, 0), "round indices n"),
    (total_new_atom_rate, (GP, [1, 2.5]), "round indices n"),
    (target_new_atom_rate, (BNB, 0, 1), "round indices n"),
    (approx_fresh_mass, (GP, 10, 0), "round indices n"),
    (approx_fresh_mass, (BB, 0, 1), "approximation level K"),
    (approx_fresh_mass, (BB, 2.5, 1), "approximation level K"),
    (target_predictive_pmf, (GP, [2], 2.5), "counts x"),
    (target_predictive_pmf, (GP, [2], -0.5), "counts x"),
    (target_predictive_pmf, (GP, [2], math.nan), "counts x"),
    (target_predictive_pmf, (GP, [2], True), "counts x"),
    (approx_predictive_pmf, (GP, 10, [2], 2.5), "counts x"),
    (approx_predictive_pmf, (GP, 10, [2], -0.5), "counts x"),
    (approx_predictive_pmf, (GP, 10, [2], math.nan), "counts x"),
    (approx_predictive_pmf, (GP, 10, [2], True), "counts x"),
], ids=["total-n0", "total-n2.5", "rate-n0", "fresh-n0", "fresh-K0", "fresh-K2.5",
        "target_pmf-x2.5", "target_pmf-x-0.5", "target_pmf-xnan", "target_pmf-xtrue",
        "approx_pmf-x2.5", "approx_pmf-x-0.5", "approx_pmf-xnan", "approx_pmf-xtrue"])
def test_bad_rounds_and_levels_rejected(fn, args, what):
    # before any arithmetic: n = 0 gave inf with a warning, K = 0 a
    # ZeroDivisionError, K = 2.5 a number, and a count x of 2.5, -0.5 or
    # nan a pmf value (gammaln of a non-integer)
    with np.errstate(all="raise"), pytest.raises(ValueError, match=what):
        fn(*args)


# -- model families -------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(_MODEL_KINDS))
def test_model_families_conform(kind):
    # every CLI model kind builds a model of that kind; its class rejects a
    # rate measure of the other family by naming the one it needs, and only
    # beta-NB has a field besides the rate measure
    build = _MODEL_KINDS[kind]
    model = build(**dict.fromkeys(inspect.signature(build).parameters, 2.0))
    assert model.kind == kind
    assert [f.name for f in dataclasses.fields(model)] == (
        ["spec", "r"] if model.kind == "beta_neg_binomial" else ["spec"])
    wrong = gamma_process(1.0, 2.0) if model.family is Family.BETA else beta_process(1.0, 2.0)
    with pytest.raises(ValueError, match=f"{model.family.value}-family"):
        dataclasses.replace(model, spec=wrong)
    with pytest.raises(TypeError):  # no kind or r beside the rate measure
        ExpFamilyModel(model.kind, model.spec, r=5.0)


# -- Monte Carlo / analytic agreement -----------------------------------------

def test_sampled_counts_match_pmf():
    # conjugacy: a weight from the posterior at (sum(history), len(history),
    # shift), then one count given it, has the predictive pmf.  The count is
    # the sparse draw's: one free row per atom.  History lengths 1, 4, 19
    # put the comparison at n = 2, 5, 20; each of the 22 (model, history, K)
    # cases is one chi-square goodness-of-fit test over x = 0, 1, 2, >=3,
    # Bonferroni-gated to a family-wise false-alarm rate 1e-3.  The last two
    # histories reach the other branches of the zero-truncated count:
    # gamma-Poisson weights mostly >= 1, and beta-NB(r = 5) weights mostly
    # above 1 - 2^(-1/5), where q > 1/2 and the draw rejects zeros
    reps = 20_000
    cases = [(BB, [1]), (BB, [1, 0, 0, 1]), (BB, [1, 0] * 9 + [1]),
             (GP, [2]), (GP, [2, 0, 1, 0]), (GP, [1, 0] * 9 + [2]),
             (BNB, [1]), (BNB, [1, 2, 0, 0]), (BNB, [0, 1] * 9 + [3]),
             (GP, [6]), (BNB_R5, [2])]
    branch = {(GP, (6,)): 1.0, (BNB_R5, (2,)): 1.0 - 0.5 ** (1 / 5)}
    alpha = 1e-3 / (2 * len(cases))
    for model, hist in cases:
        for K in (None, 10):
            key = f"{model.kind}/{hist}/{K}"
            rng = derive_rng(31, zlib.crc32(key.encode()))
            shift = 0.0 if K is None else model.mass_shift / K
            theta = model.posterior_weight(np.full(reps, float(sum(hist))), len(hist),
                                           shift, rng)
            if (model, tuple(hist)) in branch:
                assert np.mean(theta >= branch[model, tuple(hist)]) > 0.5, key
            live, _, cols, counts = _sparse_counts(model, theta, np.zeros(reps, dtype=np.int64),
                                                   1, rng)
            draws = np.zeros(reps, dtype=np.int64)
            draws[live[cols]] = counts
            p = np.array([target_predictive_pmf(model, hist, x) if K is None
                          else approx_predictive_pmf(model, K, hist, x) for x in range(3)])
            p = np.append(p, max(1.0 - p.sum(), 0.0))
            observed = np.bincount(np.minimum(draws, 3), minlength=4)
            live = p > 1e-12
            assert observed[~live].sum() == 0, key  # zero-probability cells stay empty
            expected = reps * p[live] / p[live].sum()
            chi2 = float(((observed[live] - expected) ** 2 / expected).sum())
            assert stats.chi2.sf(chi2, live.sum() - 1) > alpha, (key, chi2)


def test_zero_weight_never_fires():
    # theta = 0 exactly (a level-K weight that underflowed) has no count
    # mass: it never fires, and its draw raises no floating-point warning
    theta = np.tile([0.0, 0.5, 0.0, 1.0], 50)
    first = np.zeros(theta.size, dtype=np.int64)
    for model in (BB, GP, BNB, BNB_R5):
        with np.errstate(all="raise"):
            live, rows, _, counts = _sparse_counts(model, theta, first, 20, derive_rng(32, 0))
        assert live.size and np.all(theta[live] > 0), model
        assert np.all(counts >= 1) and np.all((rows >= 0) & (rows < 20)), model


# -- allocations ---------------------------------------------------------------

def test_allocation_validation():
    with pytest.raises(ValueError):
        FeatureAllocation(np.array([[0, 1], [0, 0]]))   # empty column
    with pytest.raises(ValueError):
        FeatureAllocation(np.array([[0, 1], [1, 0]]))   # appearance order violated
    FeatureAllocation(np.zeros((3, 0), dtype=int))      # no columns is fine


def test_aifa_allocation_never_exceeds_K():
    for i in range(30):
        alloc = simulate_allocation(BB, 20, derive_rng(33, i), K=7)
        assert alloc.n_columns <= 7
    for i in range(10):
        alloc = simulate_allocation(GP, 10, derive_rng(34, i), K=5)
        assert alloc.n_columns <= 5


@pytest.mark.parametrize("model", [
    beta_bernoulli(2.0, 1.0), beta_bernoulli(2.0, 3.0), gamma_poisson(2.0, 1.0),
    gamma_poisson(2.0, 3.0), beta_negative_binomial(2.0, 2.0, 2.0),
    beta_negative_binomial(2.0, 3.0, 2.0)], ids=["bb1", "bb3", "gp1", "gp3", "bnb2", "bnb3"])
def test_level_K_weights_are_the_closed_form_law(model, monkeypatch):
    # the level-K process draws its K weights from the library's one level-K
    # law, at the library's one c; at alpha = 3, gamma alpha = 6 and c are an
    # ulp apart, so a second statement of either would show here
    K, seen, sparse_counts = 50, [], crmfinite.marginals._sparse_counts

    def recording(model, theta, *rest):
        seen.append(theta)
        return sparse_counts(model, theta, *rest)
    monkeypatch.setattr(crmfinite.marginals, "_sparse_counts", recording)
    assert model.mass_shift == small_weight_coefficient(model.spec)
    simulate_allocation(model, 5, derive_rng(37, 0), K=K)
    expected = sample_weights(aifa_closed_form(model.spec, K), derive_rng(37, 0))
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()


def test_aifa_first_round_activation_count():
    # active columns ~ Binomial(K, P), P = 1 - prod_{n<=N} (1 - approx_fresh_mass(n)):
    # N = 1 under BB(1,1) (P = 0.1/1.1), N = 3 under gamma-Poisson and beta-NB
    reps, K = 6000, 10
    for case, (model, N) in enumerate(((BB, 1), (GP, 3), (BNB, 3))):
        counts = np.array([simulate_allocation(model, N, derive_rng(35, case, i), K=K).n_columns
                           for i in range(reps)])
        p = 1.0 - np.prod([1.0 - approx_fresh_mass(model, K, n) for n in range(1, N + 1)])
        se = math.sqrt(K * p * (1 - p) / reps)
        assert abs(counts.mean() - K * p) < 3 * se, (model.kind, counts.mean(), K * p)


def test_aifa_large_K_draws_only_firing_atoms():
    # at K = 10^6 most Gamma(c/K) weights underflow to 0, and an O(N K)
    # count draw would make 5e8 draws, so it runs in a child with a time
    # limit and with every warning an error
    model, N, K = gamma_poisson(2.0, 1.0), 500, 10**6
    probe = ("from crmfinite.marginals import gamma_poisson, simulate_allocation; "
             "from crmfinite.rng import derive_rng; "
             f"print(simulate_allocation(gamma_poisson(2.0, 1.0), {N}, derive_rng(44, 0), "
             f"K={K}).n_columns)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crmfinite.__file__)))
    done = subprocess.run([sys.executable, "-W", "error", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stderr == ""
    p = 1.0 - np.prod([1.0 - approx_fresh_mass(model, K, n) for n in range(1, N + 1)])
    assert abs(int(done.stdout) - K * p) < 4 * math.sqrt(K * p * (1 - p)), (done.stdout, K * p)


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


@pytest.mark.parametrize("model, sizes_drawn", [(BB, False), (GP, True), (BNB, True)],
                         ids=["beta_bernoulli", "gamma_poisson", "beta_neg_binomial"])
def test_target_births_draw_sizes_only_where_counts_exceed_one(model, sizes_drawn):
    # beta-Bernoulli counts are at most 1, so every birth has size 1 and no
    # uniform is drawn for it: the births' Poisson call is followed by the
    # posterior weights' call; the other families draw one uniform per birth
    log = CallLog(derive_rng(45, 0))
    alloc = simulate_allocation(model, 30, log)
    names = [name for name, *_ in log.calls]
    assert names[0] == "poisson" and (names[1] == "random") == sizes_drawn
    births = alloc.counts[alloc.first_rows(), np.arange(alloc.n_columns)]
    assert births.size > 0 and np.all(births >= 1)
    if not sizes_drawn:
        assert np.all(births == 1)


def _pooled_chi2_sf(observed, expected, total):
    """p-value of one chi-square test over the cells of ``expected`` with
    expected count >= 5 plus a pooled remainder cell (every other outcome)."""
    cells = [k for k, e in expected.items() if e >= 5]
    obs = [observed.get(k, 0) for k in cells]
    exp = [expected[k] for k in cells]
    if total - sum(exp) > 1e-9 * total:
        obs.append(total - sum(obs))
        exp.append(total - sum(exp))
    obs, exp = np.array(obs, dtype=float), np.array(exp)
    return float(stats.chi2.sf(((obs - exp) ** 2 / exp).sum(), len(obs) - 1))


def test_aifa_allocation_column_law():
    # level-K atoms are i.i.d., so the nonzero columns pooled over many AIFA
    # allocations are i.i.d. with the exact column law
    # prod_n approx_predictive_pmf(c[:n-1], c[n-1]) conditioned on c != 0,
    # and each allocation has Binomial(K, 1 - P_K(0)) columns.  Per family one
    # chi-square test of each, Bonferroni-gated to a family-wise false-alarm
    # rate 1e-3
    reps = 2000
    cases = [(BB, 4, 6), (GP, 3, 4), (BNB, 3, 5)]
    alpha = 1e-3 / (2 * len(cases))
    for model, N, K in cases:
        rng = derive_rng(43, zlib.crc32(f"{model.kind}/{N}/{K}".encode()))
        columns, n_cols = {}, np.zeros(K + 1, dtype=int)
        for _ in range(reps):
            counts = simulate_allocation(model, N, rng, K=K).counts
            n_cols[counts.shape[1]] += 1
            for col in map(tuple, counts.T.tolist()):
                columns[col] = columns.get(col, 0) + 1

        def law(col):
            return math.prod(approx_predictive_pmf(model, K, col[:n - 1], col[n - 1])
                             for n in range(1, N + 1))

        fire = 1.0 - law((0,) * N)
        pooled = sum(columns.values())
        expected = {col: pooled * law(col) / fire for col in columns}
        assert _pooled_chi2_sf(columns, expected, pooled) > alpha, (model.kind, "columns")
        expected = dict(enumerate(reps * stats.binom.pmf(np.arange(K + 1), K, fire)))
        assert _pooled_chi2_sf(dict(enumerate(n_cols)), expected, reps) > alpha, (
            model.kind, "column count", n_cols)


@pytest.mark.parametrize("call, name", [
    (lambda rng: simulate_allocation(GP, 2.5, rng), "N"),
    (lambda rng: simulate_allocation(GP, 5, rng, K=2.5), "K"),
    (lambda rng: simulate_allocation(GP, 5, rng, K=True), "K"),
    (lambda rng: approx_predictive_pmf(GP, 2.5, [1], 1), "K"),
    (lambda rng: growth_function(2.5, 1.0), "N"),
    (lambda rng: bondesson_tfa_bound(2.5, 4, 1, 1), "N"),
    (lambda rng: bondesson_tfa_bound(2, 3.5, 1, 1), "K"),
    (lambda rng: tsb_dp_bound(2.5, 4, 1), "N"),
    (lambda rng: tsb_dp_bound(2, 3.5, 1), "K"),
    (lambda rng: tv_binom_poisson(True, 1.0), "K"),
    (lambda rng: tv_binom_poisson(np.array([True, True]), 1.0), "K"),
    (lambda rng: tv_binom_poisson(math.inf, 1.0), "K"),
], ids=["sim-N=2.5", "sim-aifa-K=2.5", "sim-aifa-K=true", "approx_pmf-K=2.5",
        "growth-N=2.5", "bondesson-N=2.5", "bondesson-K=3.5", "tsb-N=2.5", "tsb-K=3.5",
        "tv_binom_poisson-K=true", "tv_binom_poisson-K=[true,true]", "tv_binom_poisson-K=inf"])
def test_library_counts_must_be_integers(call, name):
    # a ValueError naming the count, raised before any random number is drawn
    rng = derive_rng(39, 0)
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer"):
        call(rng)
    assert rng.random() == derive_rng(39, 0).random()


@pytest.mark.parametrize("call, name", [
    (lambda: growth_function(3, True), "alpha"),
    (lambda: binom_poisson_lower_constant(True), "gamma"),
    (lambda: tv_binom_poisson(5, True), "gamma"),
    (lambda: tsb_dp_bound(3, 2, -1.0), "alpha"),
    (lambda: tsb_dp_bound(3, 2, 0.0), "alpha"),
    (lambda: bondesson_tfa_bound(3, 2, -1.0, 1.0), "gamma"),
    (lambda: bondesson_tfa_bound(3, 2, 1.0, True), "alpha"),
    (lambda: dp_fsd_two_sample_gap(-1.0, 3), "alpha"),
    (lambda: dp_fsd_two_sample_gap(1.0, 0), "K"),
], ids=["growth-alpha=true", "lower_constant-gamma=true", "tv_binom_poisson-gamma=true",
        "tsb-alpha=-1", "tsb-alpha=0", "bondesson-gamma=-1", "bondesson-alpha=true",
        "two_sample-alpha=-1", "two_sample-K=0"])
def test_bound_evaluator_scalars_must_be_valid(call, name):
    # a ValueError naming the parameter, not a number or a ZeroDivisionError
    with pytest.raises(ValueError, match=rf"\b{name} must be"):
        call()


def test_gp_allocation_general_path():
    alloc = simulate_allocation(GP, 25, derive_rng(37, 0))
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
        rng = derive_rng(41, zlib.crc32(f"{model.kind}/{N}".encode()))
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
        report = check_condition_1(model, model.preset(), 1000, [10, 100, 1000])
        assert report["pass"], report


def test_h_difference_within_preset_bound():
    # |h - h~| summed over x stays below the family bound for n <= 1000
    for model in (BB, GP, BNB):
        report = check_condition_1(model, model.preset(), 1000, [25])
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
# n_worst, slack, pass, history_total_worst, n_evaluated) per entry.  The
# beta-NB inequality-3 slacks are those of the Pochhammer start row h(0),
# each within 1e-16 of a 40-digit mpmath evaluation (the betaln start row
# was 1.2-3.7e-13 off).  The beta-NB inequality-2 and -4 slacks are those of
# the integrated fresh mass and of the mismatch sum ended at its crossing,
# within 5e-18 and 1.5e-15 of 40-digit mpmath (the betaln fresh mass had
# moved inequality 2 by up to 4.3e-13).
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
        (2, 10, 300, 0.001998218993134511, True, None, None),
        (3, 10, 300, 9.659787215908966e-06, True, 1, None),
        (4, 10, None, None, True, None, 0),
        (2, 100, 300, 0.0001997821936751706, True, None, None),
        (3, 100, 300, 8.873534994764155e-07, True, 1, None),
        (4, 100, 300, 0.007376458851891087, True, None, 300),
        (2, 1000, 300, 1.9977822049949642e-05, True, None, None),
        (3, 1000, 300, 8.794858226869736e-08, True, 1, None),
        (4, 1000, 300, 0.0007376458720931866, True, None, 300),
    ],
}


@pytest.mark.parametrize("name", ["bb", "gp", "bnb"])
def test_condition_report_matches_golden(name):
    model = {"bb": BB, "gp": GP, "bnb": BNB}[name]
    report = check_condition_1(model, model.preset(), 300, [10, 100, 1000])
    got = [(e["inequality"], e["K"], e["n_worst"], e["slack"], e["pass"],
            e.get("history_total_worst"), e.get("n_evaluated")) for e in report["inequalities"]]
    want = _GOLDEN_REPORTS[name]
    assert [g[:3] + g[4:] for g in got] == [w[:3] + w[4:] for w in want]
    for g, w in zip(got, want):
        assert (g[3] is None) == (w[3] is None)
        if w[3] is not None:
            assert abs(g[3] - w[3]) <= 1e-13, (g, w)
    assert report["pass"]


# Reports of check_condition_1 when its grids were closed-form gammaln/betaln
# grids, at the benchmark's scale (n_max = 10^4, K_set [10, 100, 1000]): the
# large-n region where the closed form and the ratio recursion differ most.
# Same fields as above.  The beta-NB inequality-3 entries are those of the
# Pochhammer start row, each within 2e-16 of 40-digit mpmath, which also puts
# the exact worst n at 10^4 (the betaln start row's rounding, up to 9e-11,
# had set n_worst to 9998 / 9897 / 9817).  The beta-NB inequality-2 and -4
# entries are those of the integrated fresh mass and of the mismatch sum
# ended at its crossing, within 2e-17 and 4.5e-15 of 40-digit mpmath.  The
# betaln fresh mass had moved inequality 2 by up to 2e-11 and put inequality
# 4's worst n at K = 1000 at 9996, with slack 2.98440e-05.
_GOLDEN_REPORTS_10K = {
    "gp": [
        (1, None, 10000, 4.999666691665305e-09, True, None, None),
        (2, 10, 10000, 5.499615029839458e-10, True, None, None),
        (3, 10, 10000, 3.099613073099996e-09, True, 1, None),
        (4, 10, 10000, 3.718131854289006e-05, True, None, 10000),
        (2, 100, 10000, 5.0496616754549856e-11, True, None, None),
        (3, 100, 10000, 3.009631669608036e-10, True, 1, None),
        (4, 100, 10000, 3.718131853539146e-06, True, None, 10000),
        (2, 1000, 10000, 5.004666191539074e-12, True, None, None),
        (3, 1000, 10000, 3.000632840936722e-11, True, 1, None),
        (4, 1000, 10000, 3.718131853468251e-07, True, None, 10000),
    ],
    "bnb": [
        (1, None, 10000, 9.99849836540341e-09, True, None, None),
        (2, 10, 10000, 5.9998399912039956e-05, True, None, None),
        (3, 10, 10000, 8.796784726933e-09, True, 1, None),
        (4, 10, None, None, True, None, 0),
        (2, 100, 10000, 5.9998039992022295e-06, True, None, None),
        (3, 100, 10000, 8.077159508217884e-10, True, 1, None),
        (4, 100, 10000, 0.000298617956717786, True, None, 10000),
        (2, 1000, 10000, 5.999800399904751e-07, True, None, None),
        (3, 1000, 10000, 8.0051963655472e-11, True, 1, None),
        (4, 1000, 10000, 2.9861795667149477e-05, True, None, 10000),
    ],
}


@pytest.mark.parametrize("name", ["gp", "bnb"])
def test_condition_report_matches_golden_at_benchmark_scale(name):
    model = {"gp": GP, "bnb": BNB}[name]
    report = check_condition_1(model, model.preset(), 10_000, [10, 100, 1000])
    got = [(e["inequality"], e["K"], e["n_worst"], e["slack"], e["pass"],
            e.get("history_total_worst"), e.get("n_evaluated")) for e in report["inequalities"]]
    want = _GOLDEN_REPORTS_10K[name]
    assert [g[:3] + g[4:] for g in got] == [w[:3] + w[4:] for w in want]
    for g, w in zip(got, want):
        assert (g[3] is None) == (w[3] is None)
        if w[3] is not None:
            assert abs(g[3] - w[3]) <= 1e-13, (g, w)
    assert report["pass"]


def _stacked_rows(model, n, totals, x_lo, X):
    """The checker's rows for x = x_lo..X stacked as an (x, T, n) array: each
    starts from the family's ``start_row`` (M_{n,x} at total 0) and steps by
    its ``stepper``."""
    n, totals = np.asarray(n, dtype=float), np.asarray(totals, dtype=float)
    block = np.array([target_new_atom_rate(model, n, x_lo) if t == 0
                      else model.start_row(n, t, x_lo) for t in totals])
    ratio, rows = model.stepper(n), [block]
    for x in range(x_lo + 1, X + 1):
        rows.append(rows[-1] * ratio(totals, x, np.empty_like(block)))
    return np.array(rows)


@pytest.mark.parametrize("model", [GP, BNB], ids=["gp", "bnb"])
def test_count_grid_matches_closed_form(model):
    # the ratio recursion against the closed forms it replaces in the checker:
    # predictive rows from x = 0 (from x = 1 at total c/K, as inequality 4
    # uses them) and the new-atom rate rows M_{n,x} at total 0, each total's
    # rows stacked to x = 4096 from one block per history total S
    n = np.array([1, 2, 3, 10, 100, 1000, 10_000], dtype=float)
    X = 1 << 12
    c = model.mass_shift
    for S in (0, *_HISTORY_SCAN):
        shifts = (0.0, c / 10, c / 1000)
        x_lo = 0 if S else 1
        x = np.arange(x_lo, X + 1, dtype=float)[:, None]
        grids = _stacked_rows(model, n, [S + shift for shift in shifts], x_lo, X)
        for t, shift in enumerate(shifts):
            grid = grids[:, t]
            if S + shift == 0:
                want = target_new_atom_rate(model, n[None, :], x)
            else:
                want = np.exp(_predictive_logpmf(model, n[None, :], S, shift, x))
            assert grid.shape == want.shape
            big = want >= 1e-300
            rel = np.abs(grid[big] / want[big] - 1)
            assert rel.max() <= 1e-10, (S, shift, rel.max())


def test_bnb_grid_matches_mpmath():
    # beta-NB rows at a positive total start from h(0) = (b)_r / (t + b)_r,
    # b = r(n-1) + alpha; against 40-digit arithmetic the start row is within
    # a few eps where the betaln difference was up to 5e-11 off (n ~ 1e4),
    # and the ratio recursion adds about one eps per row
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    r, al, X = BNB.r, BNB.alpha, 64
    n = np.array([1e3, 9004, 9817, 1e4])
    worst_start = worst_grid = 0.0
    for S in (0, *_HISTORY_SCAN):
        for shift in (0.0, BNB.mass_shift / 10, BNB.mass_shift / 1000):
            if S + shift == 0:
                continue
            grid = _stacked_rows(BNB, n, [S + shift], 0, X)[:, 0]
            for j, nj in enumerate(n):
                t, b = mp.mpf(S) + shift, r * (mp.mpf(nj) - 1) + al
                h = mp.beta(t, b + r) / mp.beta(t, b)
                for x in range(X + 1):
                    if x:
                        h *= (x + r - 1) / mp.mpf(x) * (t + x - 1) / (t + x - 1 + b + r)
                    if h < 1e-300:
                        break
                    err = abs(float(grid[x, j] / h - 1))
                    worst_grid = max(worst_grid, err)
                    if x == 0:
                        worst_start = max(worst_start, err)
    assert worst_start <= 4 * np.finfo(float).eps, worst_start
    assert worst_grid <= 2 * X * np.finfo(float).eps, worst_grid


# The dense checker the streamed sums replace: each pmf an (x, n) grid built
# row by row with the same ratio arithmetic, its truncation point doubled from
# 64 until every column has crossed (a - b <= _CROSS_REL a at some x).  Both
# sums are twice the cumsum of a - b before each column's crossing less the
# rows' mass gap: 0 for inequality 3's pmfs (Scheffe's sum), sum_x M_{n,x}
# - K sum_{x>=1} h~(x|0) for inequality 4.

def _dense_count_grid(model, n, total, x_lo, X, scale=1.0):
    """Rows x_lo..X; the row at x_lo is scaled before the steps past it, as
    the checker scales its start rows."""
    n = np.asarray(n, dtype=float)
    bnb = model.kind == "beta_neg_binomial"
    x0 = 0 if bnb and total > 0 else x_lo
    grid = np.empty((X - x0 + 1, n.size))
    if total == 0:
        grid[0] = target_new_atom_rate(model, n, x_lo)
    elif bnb:
        b = model.r * (n - 1) + model.alpha
        grid[0] = special.poch(b, model.r) / special.poch(total + b, model.r)
    else:
        grid[0] = np.exp(_predictive_logpmf(model, n, total, 0.0, x_lo))
    x = np.arange(x0 + 1, X + 1, dtype=float)
    u = total + (x - 1)
    if not bnb:
        num, lag, base = u / x, np.zeros_like(u), model.lam + n
    else:
        num, lag, base = (x + model.r - 1) / x * u, u, model.r * n + model.alpha
    for i in range(x.size):
        if i == x_lo - x0:
            grid[i] *= scale
        row = grid[i + 1]
        np.add(base, lag[i], out=row)
        np.divide(num[i], row, out=row)
        row *= grid[i]
    return grid[x_lo - x0:]


def _dense_crossed(a, b):
    """The (x, n) grid of differences and the columns' crossing mask."""
    diff = a - b
    return diff, diff <= _CROSS_REL * a


def _dense_l1(model, n, totals, x_lo, scale, gap):
    """sum_{x>=x_lo} |a - b| of the rows at totals (a's, b's), the second
    scaled, whose masses differ by ``gap``, and the largest crossing point."""
    X = 64
    while X <= 1 << 16:
        diff, crossed = _dense_crossed(_dense_count_grid(model, n, totals[0], x_lo, X),
                                       _dense_count_grid(model, n, totals[1], x_lo, X, scale))
        if crossed.any(axis=0).all():
            at = crossed.argmax(axis=0)
            part = np.vstack([np.zeros(n.size), np.cumsum(diff, axis=0)])
            return np.maximum(2.0 * part[at, np.arange(n.size)] - gap, 0.0), x_lo + int(at.max())
        X *= 2
    raise RuntimeError("no crossing found")


def _dense_l1_history(model, K, n, S):
    return _dense_l1(model, n, (float(S), float(S) + model.mass_shift / K), 0, 1.0, 0.0)


def _dense_l4_mismatch(model, K, n):
    gap = total_new_atom_rate(model, n) - K * approx_fresh_mass(model, K, n)
    return _dense_l1(model, n, (0.0, model.mass_shift / K), 1, K, gap)


def _streamed_matches_dense(model, K_set, n, scan):
    """Compare the streamed and dense sums; returns the inequality-3 and
    inequality-4 crossing points (inequality 3 at n >= 2, as the checker
    scans histories)."""
    xs3, xs4 = set(), set()
    for S in scan:
        for K, (l1, X) in zip(K_set, model.l1_history(K_set, n[n >= 2], S)):
            want, want_X = _dense_l1_history(model, K, n[n >= 2], S)
            assert X == want_X and np.array_equal(l1, want), (S, K, X, want_X)
            xs3.add(X)
    for K in K_set:
        l4, X = model.l4_mismatch(K, n, total_new_atom_rate(model, n),
                                  approx_fresh_mass(model, K, n))
        want, want_X = _dense_l4_mismatch(model, K, n)
        assert X == want_X and np.array_equal(l4, want), (K, X, want_X)
        xs4.add(X)
    return xs3, xs4


@pytest.mark.parametrize("model, K_set, n, scan, want3, want4", [
    # the benchmark's check-conditions config, every scanned history total
    (BNB, [10, 100, 1000], np.arange(1, 10_001.0), _HISTORY_SCAN,
     {1, 2, 3, 4, 5, 6, 7, 11, 17}, {3}),
    # late crossings at large history totals
    (gamma_poisson(1.0, 0.01), [10, 1000], np.arange(1, 2001.0), _HISTORY_SCAN,
     {1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 32, 50}, {58}),
    # pairs of one block crossing at different x
    (gamma_poisson(100.0, 0.1), [1, 3, 1000], np.array([2.0, 3.0, 5.0]), [50], {46, 47, 50},
     {2, 3, 5}),
    (gamma_poisson(300.0, 0.1), [1, 3, 1000], np.array([2.0, 3.0, 5.0]), [50], {46, 50, 58},
     {2, 5, 11}),
    (GP, [1, 7, 100], np.arange(1, 301.0), _HISTORY_SCAN, {1, 2, 3, 4, 5, 7, 8, 10, 16, 25}, {2}),
    (BNB_R5, [2, 10], np.array([1.0, 4.0, 9.0, 5000.0]), _HISTORY_SCAN,
     {1, 2, 3, 4, 5, 6, 10, 15}, {6, 7}),
    (beta_negative_binomial(0.5, 1.5, 0.5), [1, 1000], np.arange(1, 51.0), [1, 13, 50],
     {1, 4, 13}, {3, 4}),
    # inequality 4 at n = 1 crosses at x = 114, past the dense grid's first
    # truncation point 64 (the old doubling loop certified it at 128)
    (gamma_poisson(1.0, 0.005), [10, 100], np.array([1.0, 2.0, 3.0]), [1, 50], {1, 50}, {114}),
], ids=["bnb-bench", "gp-late", "gp-mixed", "gp-mixed2", "gp", "bnb-r5", "bnb-r0.5", "gp-l4-128"])
def test_streamed_sums_match_dense_reference(model, K_set, n, scan, want3, want4):
    # the partial sums add the differences in x order, as the dense cumsum
    # does, and subtract the same mass gap, so both sums are equal
    assert _streamed_matches_dense(model, K_set, n, scan) == (want3, want4)


def test_single_column_sums_within_ulps_of_dense():
    # one column, where numpy sums an (X, 1) grid pairwise: the cumsum adds
    # in order for one column too, so both sums equal the dense ones.  The
    # named case: beta-NB(2, 3, 2), generic bounds, K = 1, where inequality
    # 4 is evaluated at n = 1 only; its slack was -2.115950715950717 when it
    # summed |a - b| to x = 64, and ending at the crossing x = 5 moves it 1 ulp
    model = beta_negative_binomial(2.0, 3.0, 2.0)
    report = check_condition_1(model, generic_condition_bounds(1.0, 1.0, 1.0, 0.0, 1.0), 50, [1])
    (e4,) = [e for e in report["inequalities"] if e["inequality"] == 4]
    assert (e4["n_evaluated"], e4["n_worst"], e4["x_max"], e4["pass"]) == (1, 1, 5, False)
    ulp = np.spacing(2.115950715950717)
    assert abs(e4["slack"] - -2.115950715950717) <= 8 * ulp, e4["slack"]
    for n in (np.array([1.0]), np.array([2.0])):
        l4, X = model.l4_mismatch(1, n, total_new_atom_rate(model, n),
                                  approx_fresh_mass(model, 1, n))
        want, want_X = _dense_l4_mismatch(model, 1, n)
        assert X == want_X and np.array_equal(l4, want)
        ((l1, X),) = model.l1_history([1], n + 1, 3)
        want, want_X = _dense_l1_history(model, 1, n + 1, 3)
        assert X == want_X and np.array_equal(l1, want)


def _brute_l1(rows, a, b, j):
    """sum_x |rows[:, a, j] - rows[:, b, j]| over every stacked row, in
    exact-rounded summation."""
    return math.fsum(np.abs(rows[:, a, j] - rows[:, b, j]))


def test_mismatch_sum_waits_for_a_late_crossing():
    # gamma-Poisson(1, 0.005), K = 10, n = 1: M_{1,x} - 10 h~(x | 0) changes
    # sign at x = 114, past x = 64, where the last 16 differences already
    # have one sign (a sum that treated x = 64 as past the crossing read
    # 3.6057e-05).  Each step shrinks the terms by about 0.995, so 2^15
    # stepped terms give the converged value
    model, K, n = gamma_poisson(1.0, 0.005), 10, np.array([1.0])
    l4, X = model.l4_mismatch(K, n, total_new_atom_rate(model, n), approx_fresh_mass(model, K, n))
    rows = _stacked_rows(model, n, [0.0, model.mass_shift / K], 1, 1 << 15)
    rows[:, 1] *= K
    brute = _brute_l1(rows, 0, 1, 0)
    assert X == 114 and abs(l4[0] - brute) <= 1e-13, (l4[0], brute)
    # with C5 = 3.63e-4 the bound at n = 1 is 3.63e-05: below the sum
    bounds = generic_condition_bounds(1.0, 0.0, 0.0, 0.0, 3.63e-4)
    report = check_condition_1(model, bounds, 2, [10])
    (e4,) = [e for e in report["inequalities"] if e["inequality"] == 4]
    assert (e4["n_worst"], e4["x_max"], e4["pass"], report["pass"]) == (1, 114, False, False)
    assert abs(e4["slack"] - (3.63e-4 / K - brute)) <= 1e-13, e4["slack"]


def test_mismatch_sums_match_mpmath():
    # the benchmark's beta-NB: sum_{x>=1} |M_{n,x} - K h~(x|0)| against
    # 40-digit arithmetic, which sums the positive part before the single
    # sign change and takes the exact masses for the identity
    # sum |a - b| = 2 sum (a - b)^+ - (A - B).  A fresh mass that cancels
    # puts the sums 6.3e-10 off at K = 100, n = 9817
    mp = pytest.importorskip("mpmath")
    n = np.array([1.0, 100.0, 9817.0, 1e4])
    g, al, r = BNB.gamma, BNB.alpha, BNB.r
    with mp.workdps(40):
        for K in (100, 1000):
            got, _ = BNB.l4_mismatch(K, n, total_new_atom_rate(BNB, n),
                                     approx_fresh_mass(BNB, K, n))
            t = mp.mpf(g) * al / K
            for j, nj in enumerate(n):
                b = r * (mp.mpf(nj) - 1) + al
                A = g * al * (mp.digamma(b + r) - mp.digamma(b))
                B = K * -mp.expm1(mp.loggamma(b + r) - mp.loggamma(b)
                                  - mp.loggamma(t + b + r) + mp.loggamma(t + b))
                pos, x = mp.mpf(0), 1
                while True:
                    c = mp.gamma(x + r) / (mp.factorial(x) * mp.gamma(r))
                    d = c * (g * al * mp.beta(x, b + r) - K * mp.beta(t + x, b + r) / mp.beta(t, b))
                    if d <= 0:
                        break
                    pos, x = pos + d, x + 1
                want = 2 * pos - (A - B)
                assert abs(got[j] - float(want)) <= 1e-13, (K, nj, got[j], float(want))


@pytest.mark.parametrize("model, K_set, n, scan, X, last_crossing", [
    # crossing at x = 50
    (gamma_poisson(1.0, 0.01), [10], np.array([2.0]), [50], 1 << 15, 50),
    # the benchmark's beta-NB, whose rows have polynomial tails
    (BNB, [10, 100, 1000], np.array([2.0, 3.0, 10.0, 10_000.0]), _HISTORY_SCAN, 1 << 12, 17),
], ids=["gp-late", "bnb-bench"])
def test_history_sum_matches_brute_force(model, K_set, n, scan, X, last_crossing):
    # Scheffe's sum against |a - b| summed over X stepped terms plus the tail
    # difference past them (mass 1 each, single-signed past the crossing)
    crossings = set()
    for S in scan:
        totals = [float(S)] + [S + model.mass_shift / K for K in K_set]
        rows = _stacked_rows(model, n, totals, 0, X)
        for p, (l1, x_c) in enumerate(model.l1_history(K_set, n, S)):
            crossings.add(x_c)
            for j in range(n.size):
                tails = [1.0 - math.fsum(rows[:, t, j]) for t in (0, p + 1)]
                brute = _brute_l1(rows, 0, p + 1, j) + abs(tails[0] - tails[1])
                assert abs(l1[j] - brute) <= 1e-13, (S, K_set[p], n[j], l1[j], brute)
    assert max(crossings) == last_crossing


def test_history_sum_of_unresolvable_shift_is_zero():
    # a K so large that S + c/K == S: the rows are equal, and the sum is 0 at
    # crossing point 0.  The whole checker runs there: the beta-NB stepper
    # must add x - 1 to a total c/K below eps in one rounding, or the row
    # K h~ is 0 from x = 1 on and never crosses M; it crosses at x = 1
    n, K = np.arange(2, 200.0), 10**20  # past int64 too: K h~ stays a float row
    for model in (GP, BNB, beta_negative_binomial(0.5, 1.5, 0.5)):
        assert float(_HISTORY_SCAN[0]) + model.mass_shift / K == _HISTORY_SCAN[0]
        for S in _HISTORY_SCAN:
            assert all(X == 0 and not l1.any() for l1, X in model.l1_history([K], n, S))
        report = check_condition_1(model, model.preset(), 50, [K])
        e3, e4 = (e for e in report["inequalities"] if "x_max" in e)
        assert (e3["x_max"], e3["pass"], e4["x_max"]) == (0, True, 1)
        # shifts of a few ulps end too, where rounding hides the crossing
        for S in (1, 13, 50):
            K_ulps = [round(model.mass_shift / (u * np.spacing(float(S)))) for u in (1, 2, 3)]
            for l1, X in model.l1_history(K_ulps, n, S):
                assert X < 64 and l1.max() <= 1e-13


def test_bnb_preset_passes_at_large_K():
    # K = 10^17: the betaln fresh mass read -0.0 and inequality 4 slack
    # -4.66e-4 at n = 1, a false failure of a condition the preset meets
    report = check_condition_1(BNB, BNB.preset(), 50, [10**17])
    (e4,) = [e for e in report["inequalities"] if e["inequality"] == 4]
    assert report["pass"], report
    assert approx_fresh_mass(BNB, 10**17, 1) > 0 and e4["x_max"] == 1


@pytest.mark.parametrize("n_max, K_set", [(1, [10]), (2.5, [10]), (True, [10]), (50, []),
                                          (50, [0]), (50, [2.5]), (50, [True]), (50, 10),
                                          (50, [10, 10])])
def test_condition_checker_rejects_bad_ranges(n_max, K_set):
    with pytest.raises(ValueError, match="n_max" if K_set == [10] else "K_set"):
        check_condition_1(GP, GP.preset(), n_max, K_set)


def test_condition_report_shape():
    report = check_condition_1(GP, GP.preset(), 50, [10])
    assert {e["inequality"] for e in report["inequalities"]} == {1, 2, 3, 4}
    for e in report["inequalities"]:
        assert set(e) >= {"inequality", "n_worst", "K", "slack", "pass"}
        assert ("x_max" in e) == (e["inequality"] in (3, 4))
    e3, e4 = (e for e in report["inequalities"] if "x_max" in e)
    # inequality 3: the largest crossing point over the scanned history totals
    n3 = np.arange(2, 51.0)
    crossings = [_dense_l1_history(GP, 10, n3, S)[1] for S in _HISTORY_SCAN]
    assert e3["x_max"] == max(crossings) >= 1
    # inequality 4: the largest crossing point over the rounds
    n = np.arange(1, 51.0)
    assert e4["x_max"] == _dense_l4_mismatch(GP, 10, n)[1] >= 1
    bb = check_condition_1(BB, BB.preset(), 50, [10])
    assert [e["x_max"] for e in bb["inequalities"] if "x_max" in e] == [1, 1]


def test_model_validation():
    for alpha in (0.9, 1.0):  # alpha must exceed 1
        with pytest.raises(ValueError, match="alpha > 1"):
            beta_negative_binomial(1.0, alpha, 1.0)
    for r in (-1.0, 0.0):
        with pytest.raises(ValueError, match="r must be positive"):
            beta_negative_binomial(1.0, 2.0, r)
    # no string coercion, no bools, no infinity; replace() runs the same check
    for r in ("2", True, math.inf):
        with pytest.raises(ValueError, match="r must be a finite number"):
            beta_negative_binomial(1.0, 2.0, r)
        with pytest.raises(ValueError, match="r must be a finite number"):
            dataclasses.replace(beta_negative_binomial(1.0, 2.0, 1.0), r=r)
    with pytest.raises(ValueError):
        gamma_poisson(-1.0, 1.0)

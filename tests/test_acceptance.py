"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from crmfinite.analysis import (
    DPSource,
    FSDSource,
    all_compositions,
    binom_poisson_lower_constant,
    bondesson_tfa_bound,
    dp_fsd_two_sample_gap,
    eppf,
    growth_function,
    partition_count,
    tsb_dp_bound,
    tv_binom_poisson,
)
from crmfinite.approximations import (
    AifaConfig,
    aifa_closed_form,
    bfry,
    sample_weights,
)
from crmfinite.inference import (
    LinearGaussianModel,
    SampleBatch,
    aifa_tau_conditional,
    generate_synthetic,
    geweke_marginal_conditional,
    geweke_successive_conditional,
    impute_heldout_locals,
    predictive_log_likelihood,
    run_chain,
)
from crmfinite.marginals import (
    beta_bernoulli,
    beta_negative_binomial,
    check_condition_1,
    dp_urn_probs,
    fsd_urn_probs,
    gamma_poisson,
    simulate_allocation,
)
from crmfinite.measures import (
    Family,
    IndicatorKind,
    beta_process,
    gamma_process,
    rate_measure,
)
from crmfinite.rng import derive_rng


def report(num, name, ok, detail="", started=None, budget=None):
    status = "PASS" if ok else "FAIL"
    extra = ""
    if started is not None:
        extra = f" ({time.time() - started:.1f}s"
        extra += f" / budget {budget}s)" if budget else ")"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}{extra} {detail}")
    return ok


def test_criterion_01_closed_form_reduction():
    started = time.time()
    specs = [
        beta_process(1.0, 1.5, 0.0),
        gamma_process(1.2, 2.0, 0.0),
        rate_measure("beta_prime", 1.0, 0.0, eta=1.5),
        rate_measure("generalized_gamma", 1.0, 0.0, eta1=2.0, eta2=1.5),
    ]
    worst = 0.0
    q = np.linspace(0.005, 0.995, 100)
    for spec in specs:
        for K in (2, 10, 100):
            cfg = AifaConfig(spec, K)
            cf = aifa_closed_form(spec, K)
            a = cfg.c / K  # the shape c/K of every family's closed-form law
            if spec.family is Family.BETA:
                pts = stats.beta.ppf(q, a, spec.eta)
            elif spec.family is Family.GAMMA:
                pts = stats.gamma.ppf(q, a, scale=1 / spec.rate)
            elif spec.family is Family.BETA_PRIME:
                pts = stats.betaprime.ppf(q, a, spec.eta)
            else:
                pts = stats.gengamma.ppf(q, a / spec.eta2, spec.eta2, scale=1 / spec.eta1)
            rel = np.abs(np.exp(cfg.log_density(pts) - cf.log_density(pts)) - 1)
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - started
    ok = worst < 1e-8 and elapsed < 10.0
    assert report(1, "closed-form reduction (4 families, K in {2,10,100})", ok,
                  f"max rel err {worst:.2e}", started, 10)


def test_criterion_02_normalization_sensitivity_grid():
    started = time.time()
    worst = 0.0
    for d in (0.0, 0.3, 0.6):
        spec = beta_process(2.0, 1.0, d)  # alpha unpinned by the criterion; 1.0 here
        for K in (5, 50):
            for kind in (IndicatorKind.SMOOTHED, IndicatorKind.HARD):
                for rule, width in (("1/K", 1.0 / K), ("1/sqrt(K)", 1.0 / math.sqrt(K))):
                    cfg = AifaConfig(spec, K, b=rule, indicator_kind=kind)
                    assert cfg.b == width  # the rule names give the widths bit for bit
                    knots = sorted({cfg.a / K, min(cfg.a / K + cfg.b, 1.0)})
                    val, err = integrate.quad(
                        lambda t: math.exp(cfg.log_density(t)), 0.0, 1.0,
                        points=knots, limit=400)
                    worst = max(worst, abs(val - 1.0))
    elapsed = time.time() - started
    ok = worst < 1e-6 and elapsed < 30.0
    assert report(2, "nu_K normalization over the sensitivity grid", ok,
                  f"max |integral - 1| = {worst:.2e}", started, 30)


def test_criterion_03_binomial_poisson_sandwich():
    started = time.time()
    gamma = 1.0
    const = binom_poisson_lower_constant(gamma)
    failures = []
    for K in range(1, 101):
        q = (gamma / K) / (1.0 + gamma / K)
        tv = tv_binom_poisson(K, gamma)
        if not (const * K * q * q <= tv):
            failures.append((K, "lower"))
        if not (tv <= K * q * q):
            failures.append((K, "upper"))
    elapsed = time.time() - started
    ok = not failures and elapsed < 5.0
    assert report(3, "binomial-Poisson sandwich, K = 1..100", ok,
                  f"C(1)={const:.7f}; violations: {failures}", started, 5)


def test_criterion_04_two_sample_gap_exact():
    started = time.time()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for K in (1, 10, 100):
            p_fsd = fsd_urn_probs([1], alpha, K)[0][0]
            p_dp = dp_urn_probs([1], alpha)[0][0]
            gap = abs(p_fsd - p_dp)
            worst = max(worst, abs(gap - dp_fsd_two_sample_gap(alpha, K)))
    ok = worst <= 1e-15
    assert report(4, "1/K two-sample gap exact", ok, f"max dev {worst:.2e}", started)


def test_criterion_05_feature_count_law():
    started = time.time()
    model = beta_bernoulli(1.0, 1.0)
    reps, N = 10_000, 50
    cols = np.array([simulate_allocation(model, N, derive_rng(500, i)).n_columns
                     for i in range(reps)], dtype=float)
    mean_target = growth_function(N, 1.0)
    sigma = math.sqrt(mean_target / reps)
    ratio = cols.var() / cols.mean()
    elapsed = time.time() - started
    ok = abs(cols.mean() - mean_target) < 3 * sigma and 0.9 <= ratio <= 1.1 and elapsed < 60
    assert report(5, "feature-count law Poisson(C(50,1))", ok,
                  f"mean {cols.mean():.4f} vs {mean_target:.4f} (3sig {3*sigma:.4f}), "
                  f"var/mean {ratio:.3f}", started, 60)


def test_criterion_06_condition_presets():
    started = time.time()
    models = (beta_bernoulli(1.0, 1.0), gamma_poisson(1.0, 1.0),
              beta_negative_binomial(1.0, 2.0, 1.0))
    all_ok = True
    details = []
    for model in models:
        rep = check_condition_1(model, model.preset(), 10_000, [10, 100, 1000])
        all_ok = all_ok and rep["pass"]
        worst = min((e["slack"] for e in rep["inequalities"] if e["slack"] is not None))
        details.append(f"{model.kind}:{'ok' if rep['pass'] else 'FAIL'}"
                       f"(worst slack {worst:.2e})")
    elapsed = time.time() - started
    ok = all_ok and elapsed < 120
    assert report(6, "condition presets, n <= 1e4, K in {10,100,1000}", ok,
                  "; ".join(details), started, 120)


def test_criterion_07_eppf_convergence_and_normalization():
    started = time.time()
    dp = DPSource(1.0)
    ks = (4, 16, 64, 256)
    ok = True
    details = []
    for comp in all_compositions(4):
        p_dp = float(eppf(dp, comp))
        gaps = [abs(float(eppf(FSDSource(1.0, K), comp)) - p_dp) for K in ks]
        slope = float(np.polyfit(np.log(ks), np.log(gaps), 1)[0])
        decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
        ok = ok and decreasing and abs(slope + 1.0) <= 0.3
        details.append(f"{'+'.join(map(str, comp.sizes))}:{slope:.2f}")
    norm_worst = 0.0
    for source in (dp, FSDSource(1.0, 8)):
        for N in range(1, 6):
            total = sum(partition_count(c) * float(eppf(source, c))
                        for c in all_compositions(N))
            norm_worst = max(norm_worst, abs(total - 1.0))
    ok = ok and norm_worst < 1e-10
    assert report(7, "EPPF convergence slopes and lattice normalization", ok,
                  f"slopes {' '.join(details)}; norm dev {norm_worst:.1e}", started)


def test_criterion_08_conditional_conjugacy_exact():
    started = time.time()
    ok = True
    for gamma, alpha, K in ((1, 1, 10), (1, 1, 8), (2, 3, 5), (3, 2, 10)):
        m = LinearGaussianModel(D=2, gamma=gamma, alpha=alpha, K=K)
        for N in range(0, 11):
            for s in range(0, N + 1):
                a, b = aifa_tau_conditional(s, N, m)
                ok = ok and a == float(Fraction(gamma * alpha, K) + s)
                ok = ok and b == float(Fraction(alpha) + N - s)
    assert report(8, "tau conditional symbolic match (N <= 10)", ok, "", started)


def _ess(series):
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = x.size
    var = x.var()
    if var == 0:
        return float(n)
    acf = np.correlate(x, x, mode="full")[n - 1:] / (np.arange(n, 0, -1) * var + 1e-300)
    s = 1.0
    for lag in range(1, min(n // 2, 2000)):
        if acf[lag] <= 0:
            break
        s += 2 * acf[lag]
    return n / max(s, 1.0)


def test_criterion_09_geweke():
    started = time.time()
    # proper Gamma(2, 2) precision hyperpriors: the vague 1e-6 default has
    # sample moments dominated by astronomic outliers, which no finite-draw
    # moment comparison can resolve
    model = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=5,
                                prec_shape=2.0, prec_rate=2.0)
    draws = 10_000
    mc = geweke_marginal_conditional(model, 20, draws, derive_rng(900, 0))
    sc = geweke_successive_conditional(model, 20, draws, derive_rng(900, 1), thin=3)
    ok = True
    details = []
    for j, nm in enumerate(("sum_x", "mean_tau", "gamma_e")):
        for power in (1, 2):
            a, b = mc[:, j] ** power, sc[:, j] ** power
            se = math.sqrt(a.var() / a.size + b.var() / _ess(b))
            z = abs(a.mean() - b.mean()) / se
            ok = ok and z < 3.0
            details.append(f"{nm}^{power}:z={z:.2f}")
    elapsed = time.time() - started
    ok = ok and elapsed < 600
    assert report(9, "Geweke joint-distribution test (10^4 draws)", ok,
                  " ".join(details), started, 600)


def test_criterion_10_aifa_vs_tfa_parity():
    # three chains per prior on the same synthetic data, all chains started
    # from the same data-informed construction (the comparison experiments
    # this mirrors likewise used informed/warm initialization); the held-out
    # score pools the chains' samples into one posterior-predictive mixture
    from crmfinite.inference import data_informed_init
    started = time.time()
    gen = dict(activation=0.5, noise_prec=4.0, feature_scale=2.0)
    y_train, _ = generate_synthetic(500, 5, 5, derive_rng(1000, 0), **gen)
    y_heldout, _ = generate_synthetic(200, 5, 5, derive_rng(1000, 1), **gen)
    model = LinearGaussianModel(D=5, gamma=1.0, alpha=1.0, K=20,
                                prec_shape=1.0, prec_rate=1.0)
    plls = {}
    for prior in ("aifa", "bondesson_tfa"):
        pooled = []
        for chain in range(3):
            crng = derive_rng(1000, (10 if prior == "aifa" else 20) + chain)
            init = data_informed_init(model, y_train, crng, prior)
            _, samples, _ = run_chain(model, y_train, 3000, crng, prior=prior,
                                      burnin=1500, thin=25, initial_state=init)
            twice = SampleBatch(*(np.repeat(a, 2, axis=0) for a in
                                  (samples.tau, samples.psi, samples.gamma_w, samples.gamma_e)))
            pooled.append(impute_heldout_locals(twice, y_heldout, model, crng, scans=8))
        plls[prior] = predictive_log_likelihood(
            SampleBatch(*(np.concatenate([getattr(b, f) for b in pooled]) for f in
                          ("tau", "psi", "gamma_w", "gamma_e", "x", "w"))), y_heldout)
    rel = abs(plls["aifa"] - plls["bondesson_tfa"]) / abs(plls["bondesson_tfa"])
    elapsed = time.time() - started
    ok = rel < 0.05 and elapsed < 1800
    assert report(10, "AIFA vs Bondesson-TFA held-out parity at K=20 (3 chains each)", ok,
                  f"aifa {plls['aifa']:.4f} vs tfa {plls['bondesson_tfa']:.4f} "
                  f"(rel {rel:.3%})", started, 1800)


def test_criterion_11_ifa_vs_ifa_prior_parity():
    started = time.time()
    spec = beta_process(2.0, 0.0, 0.6)
    K, draws = 100, 100_000

    def mean_active(dist, seed_path):
        rng = derive_rng(1100, seed_path)
        vecs = draws // K
        w = np.concatenate([sample_weights(dist, rng) for _ in range(vecs)])
        return float((rng.random(w.size) < np.minimum(w, 1.0)).sum() / vecs)

    aifa_default = mean_active(AifaConfig(spec, K), 0)
    bfry_val = mean_active(bfry(2.0, 0.6, K), 1)

    # sensitivity measured on the construction's exact mean (quadrature), so
    # the < 5% comparison is not blurred by Monte Carlo noise
    def exact_mean(a, rule):
        cfg = AifaConfig(spec, K, a=a, b=rule)
        val, _ = integrate.quad(lambda t: t * math.exp(cfg.log_density(t)), 0, 1,
                                points=[cfg.a / K, min(cfg.a / K + cfg.b, 1.0)], limit=400)
        return K * val

    base = exact_mean(1.0, "1/K")
    shifts = {}
    for a in (0.1, 1.0):
        for rule in ("1/K", "1/sqrt(K)"):
            shifts[f"a={a},b={rule}"] = abs(exact_mean(a, rule) - base) / base

    ok_aifa = abs(aifa_default - 2.0) / 2.0 < 0.10
    ok_bfry = abs(bfry_val - 2.0) / 2.0 < 0.10
    ok_sens = max(shifts.values()) < 0.05
    elapsed = time.time() - started
    ok = ok_aifa and ok_bfry and ok_sens and elapsed < 300
    assert report(11, "IFA-vs-IFA prior parity at K=100, BP(2,0,0.6)", ok,
                  f"aifa {aifa_default:.3f} ({'ok' if ok_aifa else 'FAIL'}), "
                  f"bfry {bfry_val:.3f} ({'ok' if ok_bfry else 'FAIL'}) vs target 2+-10%; "
                  f"sensitivity max {max(shifts.values()):.3%} ({'ok' if ok_sens else 'FAIL'})",
                  started, 300)


def test_criterion_12_bound_evaluator_spot_values():
    started = time.time()
    ok = (bondesson_tfa_bound(1, 5, 1, 1) == 0.03125
          and tsb_dp_bound(1, 1, 1) == 2.0
          and growth_function(3, 1) == pytest.approx(11 / 6, rel=1e-15))
    assert report(12, "bound-evaluator spot values", ok, "", started)

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy import integrate, special

from crmfinite import inference
from crmfinite.inference import (
    GibbsState,
    LinearGaussianModel,
    aifa_tau_conditional,
    generate_synthetic,
    geweke_marginal_conditional,
    geweke_successive_conditional,
    gibbs_sweep,
    impute_heldout_locals,
    init_state,
    joint_log_density,
    joint_log_density_terms,
    predictive_log_likelihood,
    run_chain,
    sample_data,
    sample_truncated_beta,
    tfa_tau_conditional_params,
    tfa_tau_conditional_sample,
)
from crmfinite.rng import derive_rng

MODEL = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=5,
                            prec_shape=2.0, prec_rate=2.0)


# -- conditional conjugacy -------------------------------------------------------

def test_aifa_tau_conditional_example():
    m = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=10)
    assert aifa_tau_conditional(2, 3, m) == (pytest.approx(2.1), pytest.approx(2.0))


def test_aifa_tau_conditional_no_data_recovers_prior():
    m = LinearGaussianModel(D=3, gamma=2.0, alpha=1.5, K=10)
    a, b = aifa_tau_conditional(0, 0, m)
    assert a == pytest.approx(2.0 * 1.5 / 10) and b == pytest.approx(1.5)


def test_aifa_tau_conditional_symbolic_grid():
    # exact match against the rational-arithmetic posterior update for all
    # (N <= 10, column sums) on both a dyadic and a decimal c/K
    for gamma, alpha, K in ((1, 1, 8), (1, 1, 10), (3, 2, 10)):
        m = LinearGaussianModel(D=2, gamma=gamma, alpha=alpha, K=K)
        for N in range(0, 11):
            for s in range(0, N + 1):
                a, b = aifa_tau_conditional(s, N, m)
                a_exact = Fraction(gamma * alpha, K) + s
                b_exact = Fraction(alpha) + N - s
                assert a == float(a_exact) and b == float(b_exact)


def test_aifa_tau_conditional_saturated_mean():
    m = LinearGaussianModel(D=2, gamma=1.0, alpha=1.0, K=10)
    for n in (5, 50, 500):
        a, b = aifa_tau_conditional(n, n, m)
        assert b == pytest.approx(1.0)
        assert a / (a + b) > n / (n + 2)  # mean tends to 1 with saturated columns
    with pytest.raises(ValueError):
        aifa_tau_conditional(4, 3, m)


# -- truncated beta --------------------------------------------------------------

def test_truncated_beta_respects_interval():
    rng = derive_rng(50, 0)
    for _ in range(500):
        lo = rng.random() * 0.5
        hi = lo + rng.random() * (1 - lo)
        draw, flag = sample_truncated_beta(1.7, 2.3, lo, hi, rng)
        assert lo <= draw <= hi


def test_truncated_beta_degenerate_interval():
    draw, flag = sample_truncated_beta(2.0, 2.0, 0.5, 0.5 + 1e-15, derive_rng(51, 0))
    assert flag and draw == pytest.approx(0.5, abs=1e-14)


def _bisection_truncated_beta(a, b, lo, hi, rng):
    """Reference: the truncated-beta sampler that bisects on betainc."""
    if hi - lo < 1e-14:
        return 0.5 * (lo + hi), True
    flo = special.betainc(a, b, lo)
    fhi = special.betainc(a, b, hi)
    mass = fhi - flo
    if mass <= 1e-300:
        for _ in range(1000):
            cand = rng.beta(a, b)
            if lo <= cand <= hi:
                return cand, False
        la = (a - 1) * math.log(max(lo, 1e-300)) + (b - 1) * math.log1p(-min(lo, 1 - 1e-16))
        lb = (a - 1) * math.log(hi) + (b - 1) * math.log1p(-min(hi, 1 - 1e-16))
        return (lo if la > lb else hi), True
    target = flo + rng.random() * mass
    a_, b_ = lo, hi
    for _ in range(200):
        mid = 0.5 * (a_ + b_)
        if special.betainc(a, b, mid) < target:
            a_ = mid
        else:
            b_ = mid
        if b_ - a_ < 1e-12 * max(1.0, abs(b_)):
            break
    return 0.5 * (a_ + b_), False


def test_truncated_beta_matches_bisection():
    # same uniform, same draw: shapes up to N = 500 columns, intervals at 0 and 1;
    # cases whose mass underflows take the shared rejection fallback.  Skipped:
    # intervals where one ulp of the CDF spans more than 1e-10 in t (CDF near 1,
    # density tiny), since there bisection itself cannot resolve 1e-10
    shapes = [(0.3, 1.0), (1.7, 2.3), (1.0, 501.0), (5.0, 496.0), (300.0, 200.0),
              (301.0, 1.0)]
    intervals = [(0.0, 1.0), (1e-9, 1e-6), (1e-4, 0.02), (0.55, 0.65),
                 (0.3, 0.3 + 1e-9), (0.98, 0.999), (0.999999, 1.0)]
    checked = 0
    for a, b in shapes:
        for lo, hi in intervals:
            fhi = special.betainc(a, b, hi)
            mass = fhi - special.betainc(a, b, lo)
            if mass > 1e-300 and np.spacing(fhi) * (hi - lo) / mass > 1e-10:
                continue
            checked += 1
            for i in range(10):
                draw, flag = sample_truncated_beta(a, b, lo, hi, derive_rng(70, i))
                ref, ref_flag = _bisection_truncated_beta(a, b, lo, hi, derive_rng(70, i))
                assert lo <= draw <= hi and flag == ref_flag
                assert abs(draw - ref) <= 1e-10, (a, b, lo, hi, draw, ref)
    assert checked >= 40


def test_truncated_beta_mean_matches_quadrature():
    a, b, lo, hi = 3.0, 5.0, 0.15, 0.55
    rng = derive_rng(52, 0)
    reps = 100_000
    draws = np.array([sample_truncated_beta(a, b, lo, hi, rng)[0] for _ in range(reps)])
    f = lambda t: t ** (a - 1) * (1 - t) ** (b - 1)
    mean = integrate.quad(lambda t: t * f(t), lo, hi)[0] / integrate.quad(f, lo, hi)[0]
    assert abs(draws.mean() - mean) < 3 * draws.std() / math.sqrt(reps)


def test_tfa_conditional_single_atom_no_data_is_prior():
    m = LinearGaussianModel(D=2, gamma=1.7, alpha=1.0, K=1)
    state = init_state(m, 0, derive_rng(53, 0), "bondesson_tfa")
    state.x = np.zeros((0, 1), dtype=np.int8)
    shape1, shape2, lo, hi = tfa_tau_conditional_params(state, 0, m)
    assert shape1 == pytest.approx(1.7) and shape2 == pytest.approx(1.0)
    assert lo == 0.0 and hi == 1.0


def test_tfa_conditional_sampling_stays_ordered():
    m = LinearGaussianModel(D=2, gamma=1.0, alpha=1.0, K=6, prec_shape=2.0, prec_rate=2.0)
    rng = derive_rng(54, 0)
    state = init_state(m, 12, rng, "bondesson_tfa")
    for _ in range(200):
        for k in range(m.K):
            tfa_tau_conditional_sample(state, k, m, rng)
        assert np.all(np.diff(state.tau) <= 0)
        lo_hi = [tfa_tau_conditional_params(state, k, m)[2:] for k in range(m.K)]
        for k, (lo, hi) in enumerate(lo_hi):
            assert lo <= state.tau[k] <= hi


def test_tfa_requires_alpha_one():
    m = LinearGaussianModel(D=2, gamma=1.0, alpha=2.0, K=3)
    with pytest.raises(ValueError):
        init_state(m, 5, derive_rng(55, 0), "bondesson_tfa")


# -- sweeps ----------------------------------------------------------------------

def test_zero_feature_state_reduces_to_priors():
    # with all x = 0 the w and psi conditionals equal their priors: the sweep
    # must consume the same variates as direct prior draws
    rng1 = derive_rng(56, 0)
    state = init_state(MODEL, 10, rng1)
    state.x[:] = 0
    y = sample_data(state, derive_rng(56, 1))
    from crmfinite.inference import _draw_psi, _draw_w, _loadings, _scan_factors
    probe = derive_rng(56, 2)
    st = state.copy()
    S = _loadings(st)
    _scan_factors(y - state.reconstruction, S, st.psi, partial(_draw_w, st), probe)
    ref = derive_rng(56, 2)
    expected = np.column_stack(
        [0.0 + ref.normal(size=10) / np.sqrt(np.full(10, st.gamma_w))
         for _ in range(MODEL.K)])
    np.testing.assert_array_equal(st.w, expected)
    probe2 = derive_rng(56, 3)
    st2 = state.copy()
    S2 = _loadings(st2)
    _scan_factors((y - state.reconstruction).T, st2.psi.T, S2.T,
                  partial(_draw_psi, st2, MODEL.psi_scale), probe2)
    ref2 = derive_rng(56, 3)
    expected_psi = np.stack(
        [0.0 + ref2.normal(size=MODEL.D) / math.sqrt(1.0 / MODEL.psi_scale)
         for _ in range(MODEL.K)])
    np.testing.assert_array_equal(st2.psi, expected_psi)


def _reference_sweep(state, y, model, rng):
    """Reference: the x, w, psi and precision blocks as separate loops that
    rebuild the residual from the reconstruction at every column, then tau."""
    recon = state.reconstruction
    logit_tau = np.log(state.tau) - np.log1p(-state.tau)
    for k in range(model.K):
        contrib = np.outer(state.x[:, k] * state.w[:, k], state.psi[k])
        resid = y - (recon - contrib)
        wk = state.w[:, k]
        gain = state.gamma_e * (wk * (resid @ state.psi[k])
                                - 0.5 * wk**2 * (state.psi[k] @ state.psi[k]))
        logit = logit_tau[k] + gain
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-logit))
        new = (rng.random(p.size) < p).astype(np.int8)
        recon += np.outer(new * wk, state.psi[k]) - contrib
        state.x[:, k] = new
    for k in range(model.K):
        contrib = np.outer(state.x[:, k] * state.w[:, k], state.psi[k])
        resid = y - (recon - contrib)
        xk = state.x[:, k].astype(float)
        lam = state.gamma_w + state.gamma_e * xk * (state.psi[k] @ state.psi[k])
        mean = state.gamma_e * xk * (resid @ state.psi[k]) / lam
        state.w[:, k] = mean + rng.normal(size=xk.size) / np.sqrt(lam)
        recon += np.outer(state.x[:, k] * state.w[:, k], state.psi[k]) - contrib
    for k in range(model.K):
        contrib = np.outer(state.x[:, k] * state.w[:, k], state.psi[k])
        resid = y - (recon - contrib)
        s = state.x[:, k] * state.w[:, k]
        prec = 1.0 / model.psi_scale + state.gamma_e * float(s @ s)
        mean = state.gamma_e * (s @ resid) / prec
        state.psi[k] = mean + rng.normal(size=model.D) / math.sqrt(prec)
        recon += np.outer(s, state.psi[k]) - contrib
    n, d = y.shape
    state.gamma_w = rng.gamma(model.prec_shape + 0.5 * n * model.K,
                              1.0 / (model.prec_rate + 0.5 * float((state.w**2).sum())))
    state.gamma_e = rng.gamma(model.prec_shape + 0.5 * n * d,
                              1.0 / (model.prec_rate + 0.5 * float(((y - recon)**2).sum())))
    inference._update_tau(state, model, rng)


@pytest.mark.parametrize("prior", ["aifa", "bondesson_tfa"])
def test_residual_kernel_matches_reference_sweep(prior, monkeypatch):
    # same random numbers in the same order: x identical, the rest equal up to
    # floating-point rounding (tolerance fixed from float64, not from a run)
    state = init_state(MODEL, 40, derive_rng(69, 0), prior)
    y = sample_data(state, derive_rng(69, 1))
    new, ref = state.copy(), state.copy()
    rng = derive_rng(69, 2)
    for _ in range(20):
        gibbs_sweep(new, y, MODEL, rng)
    monkeypatch.setattr(inference, "sample_truncated_beta", _bisection_truncated_beta)
    rng = derive_rng(69, 2)
    for _ in range(20):
        _reference_sweep(ref, y, MODEL, rng)
    assert np.array_equal(new.x, ref.x)
    for name in ("w", "psi", "tau", "gamma_w", "gamma_e"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name),
                                   rtol=1e-8, atol=1e-12, err_msg=name)


def test_debug_sweep_blanket_assertions():
    rng = derive_rng(57, 0)
    for prior in ("aifa", "bondesson_tfa"):
        state = init_state(MODEL, 15, rng, prior)
        y = sample_data(state, rng)
        for _ in range(3):
            state = gibbs_sweep(state, y, MODEL, rng, debug=True)


def test_sweep_rejects_bad_shapes_and_nonfinite():
    rng = derive_rng(58, 0)
    state = init_state(MODEL, 10, rng)
    with pytest.raises(ValueError):
        gibbs_sweep(state, np.zeros((10, 99)), MODEL, rng)
    y = sample_data(state, rng)
    y[0, 0] = np.nan
    with pytest.raises(RuntimeError):
        gibbs_sweep(state, y, MODEL, rng)


def test_label_permutation_invariance():
    rng = derive_rng(59, 0)
    state = init_state(MODEL, 20, rng)
    y = sample_data(state, rng)
    state = gibbs_sweep(state, y, MODEL, rng)
    base = joint_log_density(state, y, MODEL)
    for _ in range(5):
        perm = rng.permutation(MODEL.K)
        other = state.copy()
        other.tau = state.tau[perm]
        other.psi = state.psi[perm]
        other.x = state.x[:, perm]
        other.w = state.w[:, perm]
        assert joint_log_density(other, y, MODEL) == pytest.approx(base, abs=1e-10)


def test_tfa_joint_density_order_indicator():
    rng = derive_rng(60, 0)
    state = init_state(MODEL, 8, rng, "bondesson_tfa")
    y = sample_data(state, rng)
    terms = joint_log_density_terms(state, y, MODEL)
    assert np.isfinite(terms["lp_tau"])
    disordered = state.copy()
    disordered.tau = state.tau[::-1].copy()
    assert joint_log_density_terms(disordered, y, MODEL)["lp_tau"] == -math.inf


def test_ordering_invariant_across_sweeps():
    rng = derive_rng(61, 0)
    m = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=8, prec_shape=2.0, prec_rate=2.0)
    state = init_state(m, 30, rng, "bondesson_tfa")
    y = sample_data(state, rng)
    for _ in range(100):
        state = gibbs_sweep(state, y, m, rng)
        assert np.all(np.diff(state.tau) <= 0)


def test_chain_reproducibility():
    y, _ = generate_synthetic(30, 3, 2, derive_rng(62, 0))
    m = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=4, prec_shape=1.0, prec_rate=1.0)
    _, _, stats1 = run_chain(m, y, 20, derive_rng(62, 1))
    _, _, stats2 = run_chain(m, y, 20, derive_rng(62, 1))
    assert stats1.shape == (20, 5) and np.array_equal(stats1, stats2)


# -- synthetic recovery ------------------------------------------------------------

def test_synthetic_recovery_active_count():
    # posterior mean active-feature count per row within 25% of the truth
    rng = derive_rng(63, 0)
    y, truth = generate_synthetic(200, 5, 3, rng, activation=0.4, noise_prec=16.0,
                                  feature_scale=2.0)
    true_active = truth["x"].sum(axis=1).mean()
    m = LinearGaussianModel(D=5, gamma=1.0, alpha=1.0, K=10,
                            prec_shape=1.0, prec_rate=1.0)
    _, samples, _ = run_chain(m, y, 2000, derive_rng(63, 1), burnin=1000, thin=20)
    post = np.mean([s.x.sum(axis=1).mean() for s in samples])
    assert abs(post - true_active) / true_active < 0.25


# -- Geweke -------------------------------------------------------------------------

def ess(series):
    """Effective sample size via the initial-positive-sequence rule."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = x.size
    acf = np.correlate(x, x, mode="full")[n - 1:] / (np.arange(n, 0, -1) * x.var() + 1e-300)
    s = 1.0
    for lag in range(1, min(n // 2, 1000)):
        if acf[lag] <= 0:
            break
        s += 2 * acf[lag]
    return n / max(s, 1.0)


def test_geweke_moments_match():
    # reduced-size version (the acceptance suite runs the stated 10^4 draws)
    model = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=5,
                                prec_shape=2.0, prec_rate=2.0)
    mc = geweke_marginal_conditional(model, 20, 4000, derive_rng(64, 0))
    sc = geweke_successive_conditional(model, 20, 4000, derive_rng(64, 1), thin=2)
    for j in range(3):
        for power in (1, 2):
            a, b = mc[:, j] ** power, sc[:, j] ** power
            se = math.sqrt(a.var() / a.size + b.var() / ess(b))
            assert abs(a.mean() - b.mean()) < 4 * se, (j, power)


# -- held-out evaluation ---------------------------------------------------------

def test_predictive_trivial_exact_reconstruction():
    state = init_state(MODEL, 6, derive_rng(65, 0))
    y = state.reconstruction
    val = predictive_log_likelihood([state], y)
    expected = -0.5 * MODEL.D * math.log(2 * math.pi) + 0.5 * MODEL.D * math.log(state.gamma_e)
    assert val == pytest.approx(expected, rel=1e-12)


def test_predictive_invariant_to_sample_order():
    rng = derive_rng(66, 0)
    states = [init_state(MODEL, 6, rng) for _ in range(4)]
    y = sample_data(states[0], rng)
    a = predictive_log_likelihood(states, y)
    b = predictive_log_likelihood(states[::-1], y)
    assert a == pytest.approx(b, rel=1e-14)
    with pytest.raises(ValueError):
        predictive_log_likelihood([], y)


def test_impute_heldout_locals_shapes_and_reproducibility():
    rng = derive_rng(67, 0)
    state = init_state(MODEL, 25, rng)
    y_new = sample_data(init_state(MODEL, 7, rng), rng)
    ev1 = impute_heldout_locals(state, y_new, MODEL, derive_rng(67, 1))
    ev2 = impute_heldout_locals(state, y_new, MODEL, derive_rng(67, 1))
    assert ev1.x.shape == (7, MODEL.K) and ev1.w.shape == (7, MODEL.K)
    assert np.array_equal(ev1.x, ev2.x) and np.array_equal(ev1.w, ev2.w)
    assert ev1.gamma_e == state.gamma_e


def test_model_validation():
    with pytest.raises(ValueError):
        LinearGaussianModel(D=0, gamma=1, alpha=1, K=2)
    with pytest.raises(ValueError):
        LinearGaussianModel(D=2, gamma=-1, alpha=1, K=2)
    with pytest.raises(ValueError):
        init_state(MODEL, 5, derive_rng(0, 0), "bogus")

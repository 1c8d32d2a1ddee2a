import copy
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from crmfinite import inference
from crmfinite.inference import (
    CHAIN_STATS,
    GibbsState,
    LinearGaussianModel,
    aifa_tau_conditional,
    generate_synthetic,
    gibbs_sweep,
    impute_heldout_locals,
    init_state,
    joint_log_density,
    joint_log_density_terms,
    predictive_log_likelihood,
    run_chain,
    sample_truncated_beta,
    tfa_tau_conditional_params,
    tfa_tau_conditional_sample,
)
from crmfinite.rng import derive_rng

from _reference import (
    CallLog,
    geweke_marginal_conditional,
    geweke_successive_conditional,
    sample_data,
)

MODEL = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=5,
                            prec_shape=2.0, prec_rate=2.0)
TFA_MODEL = dataclasses.replace(MODEL, prior="bondesson_tfa")


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
    # cases whose mass underflows take the denser endpoint, after the
    # reference's 1000 prior draws all miss the interval.  Skipped:
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
    m = LinearGaussianModel(D=2, gamma=1.7, alpha=1.0, K=1, prior="bondesson_tfa")
    state = init_state(m, 0, derive_rng(53, 0))
    state.x = np.zeros((0, 1), dtype=np.int8)
    shape1, shape2, lo, hi = tfa_tau_conditional_params(state, 0, m, 0)
    assert shape1 == pytest.approx(1.7) and shape2 == pytest.approx(1.0)
    assert lo == 0.0 and hi == 1.0


def test_tfa_conditional_sampling_stays_ordered():
    m = LinearGaussianModel(D=2, gamma=1.0, alpha=1.0, K=6, prec_shape=2.0, prec_rate=2.0,
                            prior="bondesson_tfa")
    rng = derive_rng(54, 0)
    state = init_state(m, 12, rng)
    counts = state.x.sum(axis=0).tolist()
    for _ in range(200):
        for k in range(m.K):
            tfa_tau_conditional_sample(state, k, m, rng, counts[k])
        assert np.all(np.diff(state.tau) <= 0)
        lo_hi = [tfa_tau_conditional_params(state, k, m, counts[k])[2:] for k in range(m.K)]
        for k, (lo, hi) in enumerate(lo_hi):
            assert lo <= state.tau[k] <= hi


@pytest.mark.parametrize("s, lo, hi", [(501.0, 0.3, 0.9), (50.0, 0.01, 0.5), (20.0, 1e-3, 0.3)],
                         ids=["starved log-uniform", "inverted proposal", "log-uniform proposal"])
def test_tfa_unused_atom_draw_is_exact(s, lo, hi):
    # an unused atom before the last one has density ~ tau^-1 (1-tau)^(s-1) on
    # [tau_{k+1}, tau_{k-1}].  At s = 501 on [0.3, 0.9] the mass sits within a few
    # 1/500 of lo, where a log-uniform proposal starves; the sampler never gives up
    # and flags nothing.  Each case's draws pass a KS test against the quadrature
    # CDF at p = 1e-3 / 3 (family-wise 1e-3 over the three cases; the seed is fixed)
    from scipy import stats
    m = LinearGaussianModel(D=2, gamma=1.0, alpha=1.0, K=3, prior="bondesson_tfa")
    state = init_state(m, int(s) - 1, derive_rng(75, 0))
    state.tau[:] = (hi, 0.5 * (lo + hi), lo)
    state.x[:, 1] = 0
    assert tfa_tau_conditional_params(state, 1, m, 0) == (0.0, s, lo, hi)
    rng = derive_rng(75, 1)
    draws = np.sort([tfa_tau_conditional_sample(state, 1, m, rng, 0) for _ in range(10_000)])
    assert state.degenerate_draws == 0 and lo <= draws[0] and draws[-1] <= hi
    log_lo = math.log1p(-lo)
    f = lambda t: math.exp((s - 1) * (math.log1p(-t) - log_lo)) / t
    knots = np.concatenate([[lo], draws, [hi]])
    pieces = [integrate.quad(f, a, b, epsabs=0)[0] for a, b in zip(knots[:-1], knots[1:])]
    cdf = np.cumsum(pieces) / sum(pieces)
    assert stats.kstest(draws, lambda t: np.interp(t, draws, cdf[:-1])).pvalue > 1e-3 / 3


def test_tfa_requires_alpha_one():
    with pytest.raises(ValueError, match="alpha = 1"):
        LinearGaussianModel(D=2, gamma=1.0, alpha=2.0, K=3, prior="bondesson_tfa")
    with pytest.raises(ValueError, match="alpha = 1"):
        dataclasses.replace(TFA_MODEL, alpha=2.0)


# -- sweeps ----------------------------------------------------------------------

def test_zero_feature_state_reduces_to_priors():
    # with all x = 0 the psi conditionals equal their priors, and in the (x, w) block
    # so does w | x = 0: rows whose new x is 0 get exactly the prior draw z / sqrt(gamma_w),
    # z from row k of the block's (K, N) normal call, which follows its (K, N) uniform call
    rng1 = derive_rng(56, 0)
    state = init_state(MODEL, 10, rng1)
    state.x[:] = 0
    y = sample_data(state, derive_rng(56, 1))
    from crmfinite.inference import _by_column, _draw_xw, _logit, _scan_factors, _update_psi
    probe = derive_rng(56, 2)
    st = copy.deepcopy(state)
    G = st.psi @ st.psi.T
    _scan_factors((st.psi @ y.T).T, _by_column(st.x * st.w), G,
                  *_draw_xw(st, _logit(st.tau), G, probe))
    ref = derive_rng(56, 2)
    ref.random((MODEL.K, 10))
    Z = ref.normal(size=(MODEL.K, 10))
    off = 0
    for k, z in enumerate(Z):
        rows = st.x[:, k] == 0
        np.testing.assert_array_equal(st.w[rows, k], z[rows] / np.sqrt(st.gamma_w))
        off += rows.sum()
    assert off > 0
    # the joint psi block with S = 0 has precision I / psi_scale: psi is its (K, D)
    # normal call scaled by sqrt(psi_scale), to rounding of the triangular solves
    st2 = copy.deepcopy(state)
    _update_psi(st2, _by_column(st2.x * st2.w), y, MODEL.psi_scale, derive_rng(56, 3))
    expected_psi = derive_rng(56, 3).normal(size=(MODEL.K, MODEL.D)) * math.sqrt(MODEL.psi_scale)
    np.testing.assert_allclose(st2.psi, expected_psi, rtol=4 * np.finfo(float).eps, atol=0)


class _Fixed:
    """A generator stub: every uniform it draws is u and every standard normal 0."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)

    def standard_normal(self, size=None):
        return np.zeros(size)


def test_joint_block_activation_is_the_collapsed_posterior():
    # one row, K = 2.  With w_0 integrated out, column 0's residual r = y - x_1 w_1 psi_1
    # is N(0, I/gamma_e + psi_0 psi_0^T / gamma_w) under x_0 = 1 and N(0, I/gamma_e)
    # under x_0 = 0, which gives P(x_0 = 1) = p in closed form.  The block compares its
    # uniform with its own p: just below p it must set x_0 = 1, just above it x_0 = 0.
    # A relative step of 1e-9 sits far above float64 rounding of either p
    from scipy import stats
    from crmfinite.inference import _by_column, _draw_xw, _logit, _scan_factors
    psi = np.array([[0.8, -0.4, 0.5], [0.2, 0.9, -0.3]])
    state = GibbsState(np.array([0.3, 0.6]), psi, np.array([[0, 1]], dtype=np.int8),
                       np.array([[0.4, 0.7]]), 1.5, 3.0, "aifa")
    y = np.array([[0.9, 0.5, 0.6]])
    r, noise = y[0] - 0.7 * psi[1], np.eye(3) / state.gamma_e
    p = special.expit(math.log(0.3 / 0.7)
                      + stats.multivariate_normal.logpdf(r, np.zeros(3),
                                                         noise + np.outer(psi[0], psi[0]) / 1.5)
                      - stats.multivariate_normal.logpdf(r, np.zeros(3), noise))
    assert 0.05 < p < 0.95
    for u, expected in ((p * (1 - 1e-9), 1), (p * (1 + 1e-9), 0)):
        st = copy.deepcopy(state)
        _scan_factors((psi @ y.T).T, _by_column(st.x * st.w), psi @ psi.T,
                      *_draw_xw(st, _logit(st.tau), psi @ psi.T, _Fixed(u)))
        assert st.x[0, 0] == expected, (u, p)


class _Eye:
    """A generator stub whose (K, K) block of standard normals is the identity."""

    @staticmethod
    def standard_normal(size=None):
        return np.eye(*size)


def test_psi_block_is_the_joint_gaussian_posterior():
    # with Lam = I / psi_scale + gamma_e S^T S = L L^T the block draws
    # psi = L^-T (L^-1 gamma_e S^T y + Z).  Normals Z = 0 leave the mean Lam^-1 gamma_e S^T y;
    # with y = 0 and Z = I (D = K) the draw is L^-T itself, so psi psi^T = Lam^-1, the
    # posterior covariance of each column psi[:, d].  Both match explicit inverses to rounding
    from crmfinite.inference import _by_column, _update_psi
    model = dataclasses.replace(MODEL, D=MODEL.K)
    state = init_state(model, 30, derive_rng(76, 0))
    y = sample_data(state, derive_rng(76, 1))
    S = _by_column(state.x * state.w)
    prec = np.eye(model.K) / model.psi_scale + state.gamma_e * (S.T @ S)
    _update_psi(state, S, y, model.psi_scale, _Fixed(0.5))
    mean = np.linalg.inv(prec) @ (state.gamma_e * (S.T @ y))
    np.testing.assert_allclose(state.psi, mean, rtol=1e-12, atol=0)
    _update_psi(state, S, np.zeros_like(y), model.psi_scale, _Eye())
    assert np.all(np.tril(state.psi, -1) == 0)  # L^-T is upper triangular
    np.testing.assert_allclose(state.psi @ state.psi.T, np.linalg.inv(prec),
                               rtol=1e-12, atol=1e-15 * np.abs(np.linalg.inv(prec)).max())


def _reference_sweep(state, y, model, rng):
    """Reference: the (x, w) block as a loop that rebuilds the residual from the
    reconstruction at every column, psi as one joint draw by explicit inverses,
    then the precisions and tau.  The (x, w) block first draws a (K, N) block of
    uniforms, then a (K, N) block of normals; column k's step uses row k of each.
    It draws x from its odds with w integrated out, by the marginal of the residual
    r = w psi_k + noise, then w given x.  psi has precision Lam = I / psi_scale +
    gamma_e S^T S and mean Lam^-1 gamma_e S^T y, and its noise maps the (K, D)
    normals through the inverse transpose of Lam's Cholesky factor, as the sweep does."""
    recon = state.reconstruction
    U = rng.random((model.K, y.shape[0]))
    Z = rng.normal(size=(model.K, y.shape[0]))
    logit_tau = np.log(state.tau) - np.log1p(-state.tau)
    for k in range(model.K):
        contrib = np.outer(state.x[:, k] * state.w[:, k], state.psi[k])
        resid = y - (recon - contrib)
        lam = state.gamma_w + state.gamma_e * (state.psi[k] @ state.psi[k])
        b = state.gamma_e * (resid @ state.psi[k])
        logit = logit_tau[k] + 0.5 * math.log(state.gamma_w / lam) + 0.5 * b**2 / lam
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-logit))
        new = (U[k] < p).astype(np.int8)
        z = Z[k]
        state.w[:, k] = np.where(new == 1, b / lam + z / math.sqrt(lam),
                                 z / math.sqrt(state.gamma_w))
        state.x[:, k] = new
        recon += np.outer(new * state.w[:, k], state.psi[k]) - contrib
    s = state.x * state.w
    prec = np.eye(model.K) / model.psi_scale + state.gamma_e * (s.T @ s)
    mean = np.linalg.inv(prec) @ (state.gamma_e * (s.T @ y))
    noise = np.linalg.inv(np.linalg.cholesky(prec)).T @ rng.normal(size=(model.K, model.D))
    state.psi = mean + noise
    recon = s @ state.psi
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
    model = dataclasses.replace(MODEL, prior=prior)
    state = init_state(model, 40, derive_rng(69, 0))
    y = sample_data(state, derive_rng(69, 1))
    new, ref = copy.deepcopy(state), copy.deepcopy(state)
    rng = derive_rng(69, 2)
    for _ in range(20):
        gibbs_sweep(new, y, model, rng)
    monkeypatch.setattr(inference, "sample_truncated_beta", _bisection_truncated_beta)
    rng = derive_rng(69, 2)
    for _ in range(20):
        _reference_sweep(ref, y, model, rng)
    assert np.array_equal(new.x, ref.x)
    for name in ("w", "psi", "tau", "gamma_w", "gamma_e"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name),
                                   rtol=1e-8, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("prior", ["aifa", "bondesson_tfa"])
def test_sweep_draws_the_reference_random_stream(prior):
    # the sweep and the reference call the generator the same number of times
    # with the same sizes: after 20 sweeps from one seed both stand at one state
    model = dataclasses.replace(MODEL, prior=prior)
    state = init_state(model, 40, derive_rng(73, 0))
    y = sample_data(state, derive_rng(73, 1))
    new, ref = derive_rng(73, 2), derive_rng(73, 2)
    a, b = copy.deepcopy(state), copy.deepcopy(state)
    for _ in range(20):
        gibbs_sweep(a, y, model, new)
        _reference_sweep(b, y, model, ref)
    np.testing.assert_equal(new.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("prior", ["aifa", "bondesson_tfa"])
def test_sweep_draws_its_xw_block_in_two_calls(prior):
    # the (x, w) block draws all its randomness up front: one (K, N) uniform call,
    # then one (K, N) standard-normal call, and then psi's (K, D) normal call follows
    model = dataclasses.replace(MODEL, prior=prior)
    state = init_state(model, 40, derive_rng(77, 0))
    y = sample_data(state, derive_rng(77, 1))
    log = CallLog(derive_rng(77, 2))
    gibbs_sweep(state, y, model, log)
    assert log.calls[:3] == [("random", ((model.K, 40),), {}),
                             ("standard_normal", ((model.K, 40),), {}),
                             ("standard_normal", ((model.K, model.D),), {})]
    rest = [name for name, *_ in log.calls[3:]]  # the precisions, then tau
    assert rest[:2] == ["gamma", "gamma"]
    assert rest[2:] == (["beta"] if prior == "aifa" else ["random"] * (len(rest) - 2))


@pytest.mark.parametrize("noise", [1.0, 1e-6])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_factor_kernel_projection_matches_direct_residual(batch, noise):
    # a recording step compares, at every k, the kernel's proj = P_k - left @ G_k
    # (off the diagonal) with the direct projection (y - sum_{j != k} left_j psi_j^T) psi_k
    # of the current left, then moves column k by noise * N(0, 1), from row k of a
    # (K, ..., m) normal block drawn before the scan, as the sweep draws.  noise = 1e-6 is a
    # near-exact fit, ||y - left psi|| / ||y|| ~ 1e-6, where P_k and left @ G_k cancel
    # to about six digits.  Either form rounds each dot product within (D + K) eps of
    # the sum of its terms' magnitudes (first order, fixed from float64, not from a
    # run), so the two differ by at most 2 (D + K) eps (||y_n|| + sum_j |left_nj|
    # ||psi_j||) ||psi_k||; for these loadings that scale is a few ||y_n|| ||psi_k||.
    from crmfinite.inference import _by_column, _scan_factors
    K, m, D = 6, 30, 4
    rng = derive_rng(74, len(batch))
    psi = rng.normal(size=batch + (K, D))
    left = _by_column(rng.normal(size=batch + (m, K)) * (rng.random(batch + (m, K)) < 0.5))
    y = left @ psi + noise * rng.normal(size=batch + (m, D))
    assert np.linalg.norm(y - left @ psi) <= 10 * noise * np.linalg.norm(y)
    psi_norm = np.linalg.norm(psi, axis=-1)
    errors, scales = [], []

    def step(k, proj, z):
        others = left.copy()
        others[..., k] = 0.0
        direct = ((y - others @ psi) @ psi[..., k, :, None])[..., 0]
        errors.append(np.abs(proj - direct))
        scales.append((np.linalg.norm(y, axis=-1) + (np.abs(others) @ psi_norm[..., None])[..., 0])
                      * psi_norm[..., k, None])
        return left[..., k] + noise * z

    _scan_factors((psi @ y.swapaxes(-1, -2)).swapaxes(-1, -2), left, psi @ psi.swapaxes(-1, -2),
                  step, derive_rng(74, 9).normal(size=(K,) + batch + (m,)))
    assert len(errors) == K
    bound = 2 * (D + K) * np.finfo(float).eps
    for err, scale in zip(errors, scales):
        assert np.all(err <= bound * scale), (err / scale).max()


# each block's Markov blanket: the joint-density terms its draw may change
_BLANKETS = {
    "_scan_factors": ("lp_x", "lp_w", "lp_y"),
    "_update_psi": ("lp_psi", "lp_y"),
    "_update_precisions": ("lp_w", "lp_y", "lp_prec"),
    "_update_tau": ("lp_tau", "lp_x"),
}


def test_sweep_blocks_change_only_their_markov_blankets(monkeypatch):
    # Geweke (2004): the named joint-density terms are recomputed around each
    # block the sweep calls, and a term outside the block's blanket must not
    # move; the four blocks run once per sweep, in scan order
    ran = []

    def wrap(name, block):
        def guarded(*args):  # reads the state, y and model of the chain below
            before = joint_log_density_terms(state, y, model)
            out = block(*args)
            after = joint_log_density_terms(state, y, model)
            moved = [term for term in before
                     if term not in _BLANKETS[name] and after[term] != before[term]]
            assert not moved, f"{name} changed {moved}"
            ran.append(name)
            return out
        return guarded

    for name in _BLANKETS:
        monkeypatch.setattr(inference, name, wrap(name, getattr(inference, name)))
    rng = derive_rng(57, 0)
    for model in (MODEL, TFA_MODEL):
        state = init_state(model, 15, rng)
        y = sample_data(state, rng)
        for _ in range(3):
            ran.clear()
            assert gibbs_sweep(state, y, model, rng) is state
            assert ran == list(_BLANKETS)


def test_sweep_rejects_bad_shapes_and_nonfinite():
    rng = derive_rng(58, 0)
    state = init_state(MODEL, 10, rng)
    with pytest.raises(ValueError):
        gibbs_sweep(state, np.zeros((10, 99)), MODEL, rng)
    y = sample_data(state, rng)
    y[0, 0] = np.nan
    with pytest.raises(RuntimeError):
        gibbs_sweep(state, y, MODEL, rng)


@pytest.mark.parametrize("drawn, swept", [(MODEL, TFA_MODEL), (TFA_MODEL, MODEL)],
                         ids=["aifa state, tfa model", "tfa state, aifa model"])
def test_sweep_rejects_a_state_of_the_other_prior(drawn, swept):
    # a state runs only under the prior it was drawn under; an AIFA state swept
    # as TFA once left its tau unordered without tripping the ordering check
    state = init_state(drawn, 5, derive_rng(0, 3))
    with pytest.raises(ValueError, match=f"drawn under prior '{drawn.prior}'"):
        gibbs_sweep(state, np.zeros((5, MODEL.D)), swept, derive_rng(0, 4))


def test_lp_x_from_column_counts_matches_elementwise_sum():
    # lp_x = sum_k m_k log tau_k + (N - m_k) log(1 - tau_k) from the column counts m
    # equals the sum over all N K Bernoulli terms to rounding
    for model in (MODEL, TFA_MODEL):
        state = init_state(model, 200, derive_rng(77, 0))
        y = sample_data(state, derive_rng(77, 1))
        rng = derive_rng(77, 2)
        for _ in range(3):
            state = gibbs_sweep(state, y, model, rng)
            elementwise = np.sum(state.x * np.log(state.tau)
                                 + (1 - state.x) * np.log1p(-state.tau))
            lp_x = joint_log_density_terms(state, y, model)["lp_x"]
            assert lp_x == pytest.approx(elementwise, rel=1e-12, abs=0)


def test_label_permutation_invariance():
    rng = derive_rng(59, 0)
    state = init_state(MODEL, 20, rng)
    y = sample_data(state, rng)
    state = gibbs_sweep(state, y, MODEL, rng)
    base = joint_log_density(state, y, MODEL)
    for _ in range(5):
        perm = rng.permutation(MODEL.K)
        other = copy.deepcopy(state)
        other.tau = state.tau[perm]
        other.psi = state.psi[perm]
        other.x = state.x[:, perm]
        other.w = state.w[:, perm]
        assert joint_log_density(other, y, MODEL) == pytest.approx(base, abs=1e-10)


def test_tfa_joint_density_order_indicator():
    rng = derive_rng(60, 0)
    state = init_state(TFA_MODEL, 8, rng)
    y = sample_data(state, rng)
    terms = joint_log_density_terms(state, y, TFA_MODEL)
    assert np.isfinite(terms["lp_tau"])
    disordered = copy.deepcopy(state)
    disordered.tau = state.tau[::-1].copy()
    assert joint_log_density_terms(disordered, y, TFA_MODEL)["lp_tau"] == -math.inf


def test_ordering_invariant_across_sweeps():
    rng = derive_rng(61, 0)
    m = LinearGaussianModel(D=3, gamma=1.0, alpha=1.0, K=8, prec_shape=2.0, prec_rate=2.0,
                            prior="bondesson_tfa")
    state = init_state(m, 30, rng)
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
    _, _, stats = run_chain(m, y, 2000, derive_rng(63, 1), burnin=1000, thin=20)
    # sum_x / N at the kept sweeps 1020, 1040, ..., 2000
    post = stats[1019::20, CHAIN_STATS.index("sum_x")].mean() / y.shape[0]
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

_FIELDS = ("tau", "psi", "x", "w", "gamma_w", "gamma_e")


def _stack(states):
    """The states' globals and locals as one GibbsState batch; precisions become (S, 1)."""
    return GibbsState(**{f: np.stack([np.atleast_1d(getattr(st, f)) for st in states])
                         for f in _FIELDS}, prior=states[0].prior)


def _take(batch, index):
    return dataclasses.replace(batch, **{f: getattr(batch, f)[index] for f in _FIELDS})


def test_predictive_trivial_exact_reconstruction():
    state = init_state(MODEL, 6, derive_rng(65, 0))
    y = state.reconstruction
    val = predictive_log_likelihood(_stack([state]), y)
    expected = -0.5 * MODEL.D * math.log(2 * math.pi) + 0.5 * MODEL.D * math.log(state.gamma_e)
    assert val == pytest.approx(expected, rel=1e-12)


def test_predictive_invariant_to_sample_order():
    rng = derive_rng(66, 0)
    states = [init_state(MODEL, 6, rng) for _ in range(4)]
    y = sample_data(states[0], rng)
    batch = _stack(states)
    a = predictive_log_likelihood(batch, y)
    b = predictive_log_likelihood(_take(batch, slice(None, None, -1)), y)
    assert a == pytest.approx(b, rel=1e-14)
    with pytest.raises(ValueError):
        predictive_log_likelihood(_take(batch, slice(0)), y)


def test_predictive_rejects_a_batch_without_heldout_locals():
    y, _ = generate_synthetic(15, 3, 2, derive_rng(73, 0))
    _, samples, _ = run_chain(MODEL, y, 5, derive_rng(73, 1))
    with pytest.raises(ValueError, match="impute_heldout_locals"):
        predictive_log_likelihood(samples, y[:4])


def test_impute_heldout_locals_shapes_and_reproducibility():
    rng = derive_rng(67, 0)
    samples = _stack([init_state(MODEL, 25, rng) for _ in range(3)])
    y_new = sample_data(init_state(MODEL, 7, rng), rng)
    ev1 = impute_heldout_locals(samples, y_new, MODEL, derive_rng(67, 1))
    ev2 = impute_heldout_locals(samples, y_new, MODEL, derive_rng(67, 1))
    assert type(ev1) is GibbsState and len(ev1) == 3 and ev1.tau is samples.tau
    assert ev1.x.shape == (3, 7, MODEL.K) and ev1.w.shape == (3, 7, MODEL.K)
    assert np.array_equal(ev1.x, ev2.x) and np.array_equal(ev1.w, ev2.w)
    assert np.array_equal(ev1.gamma_e, samples.gamma_e)


def test_run_chain_keeps_globals_of_kept_sweeps():
    y, _ = generate_synthetic(15, 3, 2, derive_rng(71, 0))
    final, samples, stats = run_chain(MODEL, y, 20, derive_rng(71, 1), burnin=5, thin=3)
    kept = np.arange(8, 21, 3) - 1  # rows of sweeps 8, 11, 14, 17, 20
    # the kept samples are one GibbsState with a leading sample axis, which
    # one chain's state has not
    assert type(samples) is GibbsState and samples.prior == MODEL.prior
    assert len(samples) == 5 and samples.x is None and samples.w is None
    with pytest.raises(TypeError, match="no sample axis"):
        len(final)
    assert samples.gamma_e.shape == samples.gamma_w.shape == (5, 1)
    for name, values in (("gamma_e", samples.gamma_e[:, 0]), ("gamma_w", samples.gamma_w[:, 0]),
                         ("mean_tau", samples.tau.mean(axis=1))):
        np.testing.assert_array_equal(values, stats[kept, CHAIN_STATS.index(name)])
    assert np.array_equal(samples.tau[-1], final.tau) and np.array_equal(samples.psi[-1], final.psi)
    assert len(run_chain(MODEL, y, 4, derive_rng(71, 1), burnin=4)[1]) == 0


@pytest.mark.parametrize("model", [MODEL, TFA_MODEL], ids=["aifa", "tfa"])
def test_chain_density_column_scores_the_swept_state(model):
    # run_chain reads lp_y from the residual y - S psi that the sweep's precision block
    # formed; that is the residual of the state the sweep leaves, which joint_log_density
    # rebuilds from the reconstruction (equal up to the rounding of either matmul)
    y, _ = generate_synthetic(30, 3, 2, derive_rng(78, 0))
    rng = derive_rng(78, 1)
    state = init_state(model, 30, rng)
    col = CHAIN_STATS.index("joint_log_density")
    for _ in range(3):
        state, _, stats = run_chain(model, y, 1, rng, initial_state=state)
        assert stats[0, col] == pytest.approx(joint_log_density(state, y, model), rel=1e-12)


@pytest.mark.parametrize("model", [MODEL, TFA_MODEL], ids=["aifa", "tfa"])
def test_chain_density_row_is_the_swept_states_terms_bit_for_bit(model):
    # the row reuses the sweep's column counts, ||w||^2 and ||y - S psi||^2 and
    # model-only normalizers formed once; it equals joint_log_density_terms of
    # the state the sweep leaves with rel=0, once lp_y is scored from the
    # residual sum the sweep formed, and sum_x equals the state's count of ones
    y, _ = generate_synthetic(30, 3, 2, derive_rng(79, 0))
    rng = derive_rng(79, 1)
    state = init_state(model, 30, rng)
    cols = [CHAIN_STATS.index("sum_x"), CHAIN_STATS.index("joint_log_density")]
    for _ in range(3):
        state, _, stats = run_chain(model, y, 1, rng, initial_state=state)
        terms = joint_log_density_terms(state, y, model)
        terms["lp_y"] = (-0.5 * state.gamma_e * state.resid_sq
                         + 0.5 * y.size * (math.log(state.gamma_e) - math.log(2 * math.pi)))
        assert list(stats[0, cols]) == pytest.approx([state.x.sum(), sum(terms.values())],
                                                     rel=0, abs=0)


class _Recorder:
    """A generator that keeps every uniform and standard normal array it draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, size):
        self.draws.append(self.rng.random(size))
        return self.draws[-1].copy()

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.standard_normal(size)

    def standard_normal(self, size=None):
        self.draws.append(self.rng.standard_normal(size))
        return self.draws[-1].copy()


class _Replay:
    """Hands out sample s's slice of each recorded array, in recorded order."""

    def __init__(self, draws, s):
        self.draws, self.s = iter(draws), s

    def random(self, size):
        out = next(self.draws)[self.s].copy()
        assert out.shape == np.shape(np.empty(size))
        return out

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.random(size)

    def standard_normal(self, size=None):
        return self.random(size)


def _impute_reference(tau, psi, gamma_w, gamma_e, y, rng, scans):
    """Held-out imputation for one sample with scalar globals: the joint (x, w)
    column steps on 2-D arrays, one uniform and one normal call per column, as a
    loop over kept samples ran them."""
    m, K = y.shape[0], tau.size
    x = (rng.random((m, K)) < tau).astype(np.int8)
    w = rng.normal(0.0, 1.0 / math.sqrt(gamma_w), size=(m, K))
    E = y - (x * w) @ psi
    S = np.asfortranarray(x * w)
    for _ in range(scans):
        for k in range(K):
            r = psi[k]
            lam = gamma_w + gamma_e * (r @ r)
            old = S[:, k]
            b = gamma_e * (E @ r + old * (r @ r))
            p = special.expit(math.log(tau[k]) - math.log1p(-tau[k])
                              + 0.5 * math.log(gamma_w / lam) + 0.5 * b**2 / lam)
            x[:, k] = rng.random(m) < p
            z = rng.normal(size=m)
            w[:, k] = np.where(x[:, k] == 1, b / lam + z / math.sqrt(lam), z / math.sqrt(gamma_w))
            new = x[:, k] * w[:, k]
            E -= np.outer(new - old, r)
            S[:, k] = new
    return x, w


@pytest.mark.parametrize("n_samples", [1, 3])
def test_batched_imputation_matches_per_sample_loop(n_samples):
    # the batch draws each column's noise for all samples in one call; fed
    # each sample's slice of that noise, the per-sample loop gives the same x
    # exactly and the same w up to rounding
    rng = derive_rng(70, n_samples)
    states = [init_state(MODEL, 4, rng) for _ in range(n_samples)]
    for st in states:
        st.tau = rng.uniform(0.2, 0.8, MODEL.K)  # most prior taus are near 0
    y_new = sample_data(init_state(MODEL, 9, rng), rng)
    recorder = _Recorder(derive_rng(70, 10))
    batch = impute_heldout_locals(_stack(states), y_new, MODEL, recorder, scans=4)
    assert len(recorder.draws) == 2 + 4 * 2 * MODEL.K
    for s, st in enumerate(states):
        replay = _Replay(recorder.draws, s)
        x, w = _impute_reference(st.tau, st.psi, st.gamma_w, st.gamma_e, y_new, replay, 4)
        assert next(replay.draws, None) is None
        np.testing.assert_array_equal(batch.x[s], x)
        np.testing.assert_allclose(batch.w[s], w, rtol=1e-12, atol=0)


def test_imputation_matches_exact_activation_posterior():
    # one held-out row, K = 3, D = 2, fixed globals.  With w integrated out,
    # y | x ~ N(0, I/gamma_e + sum_k x_k psi_k psi_k^T / gamma_w), which gives
    # the exact posterior of the 8 activation patterns.  20000 independent
    # imputations (one batch of copies) after 50 scans are compared with it
    # by a chi-square test with 7 degrees of freedom at p = 1e-3: an exact
    # sampler fails it with probability 1e-3 over seeds, and this seed is fixed
    from scipy import stats
    K, D, n = 3, 2, 20000
    model = LinearGaussianModel(D=D, gamma=1.0, alpha=1.0, K=K)
    tau = np.array([0.3, 0.5, 0.7])
    psi = np.array([[1.0, 0.0], [0.6, 0.8], [-0.5, 1.0]])
    gamma_w, gamma_e = 1.0, 4.0
    y = np.array([[0.8, 0.9]])
    patterns = np.array(list(itertools.product((0, 1), repeat=K)))
    log_post = [np.sum(x * np.log(tau) + (1 - x) * np.log1p(-tau))
                + stats.multivariate_normal.logpdf(
                    y[0], np.zeros(D), np.eye(D) / gamma_e + (psi.T * x) @ psi / gamma_w)
                for x in patterns]
    exact = special.softmax(log_post)
    batch = GibbsState(np.tile(tau, (n, 1)), np.tile(psi, (n, 1, 1)), None, None,
                       np.full((n, 1), gamma_w), np.full((n, 1), gamma_e), model.prior)
    out = impute_heldout_locals(batch, y, model, derive_rng(72, 0), scans=50)
    counts = np.bincount(out.x[:, 0, :] @ (2 ** np.arange(K)[::-1]), minlength=2**K)
    chi2 = float(((counts - n * exact) ** 2 / (n * exact)).sum())
    assert stats.chi2.sf(chi2, 2**K - 1) > 1e-3, (counts, n * exact)


def test_model_validation():
    with pytest.raises(ValueError):
        LinearGaussianModel(D=0, gamma=1, alpha=1, K=2)
    with pytest.raises(ValueError):
        LinearGaussianModel(D=2, gamma=-1, alpha=1, K=2)
    with pytest.raises(ValueError, match="unknown prior 'bogus'"):
        dataclasses.replace(MODEL, prior="bogus")
    # an initial state runs only under the prior it was drawn under
    y = np.zeros((5, MODEL.D))
    tfa_state = init_state(TFA_MODEL, 5, derive_rng(0, 1))
    with pytest.raises(ValueError, match="drawn under prior 'bondesson_tfa'"):
        run_chain(MODEL, y, 5, derive_rng(0, 2), initial_state=tfa_state)


@pytest.mark.parametrize("field, value", [
    ("D", 2.0), ("K", 2.5), ("K", True), ("gamma", math.inf), ("alpha", math.inf),
    ("prec_shape", math.inf), ("prec_rate", True), ("psi_scale", math.inf)])
def test_model_fields_must_be_integers_or_finite_positive(field, value):
    fields = {"D": 2, "gamma": 1.0, "alpha": 1.0, "K": 3, field: value}
    with pytest.raises(ValueError, match=field):
        LinearGaussianModel(**fields)


@pytest.mark.parametrize("field, value", [
    ("activation", 1.5), ("activation", -0.1), ("feature_scale", -1.0), ("noise_prec", -1.0),
    ("noise_prec", math.inf), ("weight_prec", 0.0), ("N", 2.5), ("n_features", -1)])
def test_synthetic_data_parameters_checked_before_drawing(field, value):
    args = {"N": 5, "D": 2, "n_features": 1, field: value}
    rng = derive_rng(3, 0)
    with pytest.raises(ValueError, match=field):
        generate_synthetic(args.pop("N"), args.pop("D"), args.pop("n_features"), rng, **args)
    assert rng.random() == derive_rng(3, 0).random()  # nothing drawn

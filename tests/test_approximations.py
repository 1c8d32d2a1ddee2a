import hashlib
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats
from scipy.interpolate import PchipInterpolator

import crmfinite
from crmfinite import approximations
from crmfinite.approximations import (
    AifaConfig,
    aifa_closed_form,
    beta_stick_breaking,
    bfry,
    bfry_log_density,
    bondesson,
    fsd,
    sample_weights,
    tsb,
)
from crmfinite.measures import (
    Family,
    RateMeasureSpec,
    beta_process,
    gamma_process,
    log_rate_density,
    rate_measure,
    small_weight_coefficient,
)
from crmfinite.rng import derive_rng

D0_SPECS = [
    beta_process(1.0, 1.5, 0.0),
    gamma_process(1.2, 2.0, 0.0),
    rate_measure("beta_prime", 1.0, 0.0, eta=1.5),
    rate_measure("generalized_gamma", 1.0, 0.0, eta1=2.0, eta2=1.5),
]


def scipy_law(dist):
    """A closed-form law as a frozen scipy distribution (the oracle), from
    its spec's hyperparameters and the shape c/K."""
    spec, a = dist.spec, small_weight_coefficient(dist.spec) / dist.K
    if spec.family is Family.BETA:
        return stats.beta(a, spec.eta)
    if spec.family is Family.GAMMA:
        return stats.gamma(a, scale=1.0 / spec.rate)
    if spec.family is Family.BETA_PRIME:
        return stats.betaprime(a, spec.eta)
    return stats.gengamma(a / spec.eta2, spec.eta2, scale=1.0 / spec.eta1)


def interior_grid(dist, n=100):
    """Interior quantile grid of a closed-form law (scipy oracle)."""
    return scipy_law(dist).ppf(np.linspace(0.005, 0.995, n))


def test_aifa_log_density_beta_example():
    cfg = AifaConfig(beta_process(1.0, 1.0, 0.0), 10)
    expected = math.log(0.1 * 0.5 ** (-0.9))
    assert cfg.log_density(0.5) == pytest.approx(expected, abs=1e-9)


def test_closed_form_parameters():
    # the law keeps its spec and K; its shape is c/K: gamma*eta/K (beta, beta
    # prime), gamma*lambda/K (gamma), gamma*eta1*eta2/(Gamma(1/eta2) K) (gen. gamma)
    assert aifa_closed_form(beta_process(2.0, 1.5, 0.0), 10).shape == 0.3
    assert aifa_closed_form(gamma_process(2.0, 1.5, 0.0), 10).shape == pytest.approx(0.3)
    bp = rate_measure("beta_prime", 2.0, 0.0, eta=1.5)
    assert aifa_closed_form(bp, 10).shape == pytest.approx(0.3)
    gg = rate_measure("generalized_gamma", 1.0, 0.0, eta1=2.0, eta2=1.5)
    cf = aifa_closed_form(gg, 10)
    assert cf.spec is gg and cf.K == 10
    assert cf.shape == pytest.approx(1.0 * 2.0 * 1.5 / math.gamma(1 / 1.5) / 10)


def test_closed_form_needs_zero_discount():
    with pytest.raises(ValueError):
        aifa_closed_form(beta_process(1.0, 1.0, 0.3), 10)


def test_closed_form_density_matches_scipy():
    for spec in D0_SPECS:
        cf = aifa_closed_form(spec, 7)
        pts = interior_grid(cf, 25)
        np.testing.assert_allclose(cf.log_density(pts), scipy_law(cf).logpdf(pts),
                                   rtol=1e-10)


@pytest.mark.parametrize("law", ["closed_form", "numeric"])
def test_log_density_checks_the_support(law):
    # both AIFA laws share the spec's support check and give a float for a scalar
    spec = beta_process(1.0, 1.5, 0.0)
    dist = aifa_closed_form(spec, 5) if law == "closed_form" else AifaConfig(spec, 5)
    for theta in (-1.0, 0.0, 2.0, np.array([0.5, 2.0])):
        with pytest.raises(ValueError, match="outside the support"):
            dist.log_density(theta)
    assert type(dist.log_density(0.5)) is float
    if law == "closed_form":
        assert dist.log_density(0.5) == pytest.approx(scipy_law(dist).logpdf(0.5), rel=1e-12)


def test_numeric_reduces_to_closed_form():
    # the acceptance suite runs the full grid; spot-check one (family, K) here
    for spec in D0_SPECS[:2]:
        for K in (2, 10):
            cfg = AifaConfig(spec, K)
            cf = aifa_closed_form(spec, K)
            pts = interior_grid(cf)
            rel = np.abs(np.exp(cfg.log_density(pts) - cf.log_density(pts)) - 1)
            assert rel.max() < 1e-8


def test_aifa_exponent_structure():
    # BP(2, 0, 0.6) at K = 20: slope of log nu_K in log theta is -1 + c/K on
    # (0, a/K) and -1 + c/K - d past a/K + b_K
    spec = beta_process(2.0, 0.0, 0.6)
    cfg = AifaConfig(spec, 20)
    c = cfg.c
    from crmfinite.measures import log_h

    def slope(theta):
        h = theta * 1e-6
        base = cfg.log_density(np.array([theta - h, theta + h]))
        korr = log_h(spec, np.array([theta - h, theta + h]))
        return (base[1] - korr[1] - base[0] + korr[0]) / (math.log(theta + h) - math.log(theta - h))

    m1, m2 = cfg.a / 20, cfg.a / 20 + cfg.b
    assert slope(m1 * 0.5) == pytest.approx(-1 + c / 20, abs=1e-5)
    assert slope(min(m2 * 2, 0.5)) == pytest.approx(-1 + c / 20 - 0.6, abs=1e-5)


def test_aifa_normalization_independent_quadrature():
    for spec, K in [(beta_process(2.0, 1.0, 0.3), 5),
                    (gamma_process(1.0, 1.0, 0.4), 7)]:
        cfg = AifaConfig(spec, K)
        hi = spec.support_upper
        pts = [cfg.a / K, cfg.a / K + cfg.b] if cfg.a / K + cfg.b < min(hi, np.inf) else None
        val, err = integrate.quad(lambda t: math.exp(cfg.log_density(t)), 0,
                                  hi if np.isfinite(hi) else np.inf,
                                  points=pts if np.isfinite(hi) else None, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)


def test_aifa_config_validation():
    spec = beta_process(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AifaConfig(spec, 0)
    with pytest.raises(ValueError):
        AifaConfig(spec, 5, a=-1.0)
    with pytest.raises(ValueError):
        AifaConfig(spec, 5, b=0.0)
    # b is a number or a rule name: "1/K" or "1/sqrt(K)"
    for bad in ("1/K^2", lambda K: 1.0 / K):
        with pytest.raises(ValueError, match="indicator width b"):
            AifaConfig(spec, 5, b=bad)


def test_aifa_numeric_sampler_vs_closed_form_ks():
    # d = 0: the numeric inverse-CDF path must match the named-law sampler
    spec = beta_process(1.0, 1.5, 0.0)
    cfg = AifaConfig(spec, 10)
    rng = derive_rng(101, 0)
    a = cfg.sample(20000, rng)
    b = rng.beta(cfg.c / 10, 1.5, size=20000)
    stat = stats.ks_2samp(np.log(a), np.log(np.maximum(b, 1e-300))).statistic
    assert stat < 0.02


def test_aifa_total_mass_converges():
    # BP(1,1,0): E[sum tau] = K/(K+1) climbs to gamma = 1 across K, and the
    # Monte Carlo mean at K = 1000 lands within 3 sigma of gamma
    spec = beta_process(1.0, 1.0, 0.0)
    rng = derive_rng(102, 0)
    exact = {}
    for K in (10, 100, 1000):
        cfg = AifaConfig(spec, K)
        mean, _ = integrate.quad(lambda t: t * math.exp(cfg.log_density(t)), 0, 1,
                                 points=[cfg.a / K, cfg.a / K + cfg.b], limit=200)
        exact[K] = K * mean
        assert exact[K] == pytest.approx(K / (K + 1.0), rel=1e-7)
    assert exact[10] < exact[100] < exact[1000] < 1.0
    reps, K = 3000, 1000
    w = AifaConfig(spec, K)
    totals = sample_weights(w, rng, size=reps).sum(axis=1)
    se = totals.std() / math.sqrt(reps)
    assert abs(totals.mean() - 1.0) < 3 * se + 1e-3  # 1/(K+1) construction bias


def test_reproducibility_bit_identical():
    dists = [
        AifaConfig(beta_process(2.0, 0.0, 0.6), 20),
        aifa_closed_form(beta_process(1.0, 1.0, 0.0), 10),
        bondesson(1.0, 2.0, 15),
        beta_stick_breaking(1.0, 1.0, 6),
        tsb(1.0, 8),
        fsd(1.0, 5),
        bfry(2.0, 0.6, 12),
    ]
    for dist in dists:
        w1 = sample_weights(dist, derive_rng(7, 3))
        w2 = sample_weights(dist, derive_rng(7, 3))
        assert np.array_equal(w1, w2), dist.kind
        assert np.all(w1 > 0), dist.kind
        rows1 = sample_weights(dist, derive_rng(7, 4), size=5)
        rows2 = sample_weights(dist, derive_rng(7, 4), size=5)
        assert rows1.ndim == 2 and rows1.shape[0] == 5, dist.kind
        assert np.array_equal(rows1, rows2), dist.kind


# First draws at fixed seeds, pinned when the end pieces and inverse-CDF
# tables got their shared samplers: a change to which random numbers a seed
# produces shows up here and has to be named.  rtol 1e-12 absorbs 1-ulp
# differences between SIMD builds of numpy.
_GOLDEN_DRAWS = {
    "aifa_beta": [0.3182115985484275, 0.9710381306734175, 1.375277025824364e-05, 0.7969031236384609, 0.7181825419800231, 0.9991864353293906, 0.9983239817661844, 0.06813249976406205, 0.9999987192224414, 0.00714164440895037, 0.9999999976809613, 0.8293544909459007, 0.0002539534639858963, 0.009582595274623362, 0.9684579687246333, 0.9990316245323966],
    "aifa_gamma": [7.020307181110836e-07, 0.09225839158354891, 0.0034767117944586264, 0.44861781776814363, 0.9338476830122033, 0.024788085282762037, 0.01646807819439432, 0.027638116166539786, 0.03041086721907416, 0.09745312123837081, 0.2992628558219372, 1.3343880158699402, 0.14490352386773891, 4.593660213763848e-05, 1.1242377063064406e-06, 0.002593436497151877],
    "closed_form": [0.00013730499573684949, 7.751957755927106e-08, 0.058548186717323855, 0.019164860685131187, 0.007386720970819866, 1.1426002434737952e-17, 0.015868861238625163, 0.0007390570620158547],
    "bondesson": [0.4086166263488245, 0.16450979399367635, 0.03141364548734996, 0.10552979442724084, 0.025129958789662853, 0.0003606866809132317, 0.008064054221685829, 0.007284452818042318],
    "beta_stick_breaking": [0.769965448677367, 0.8961117891301296, 0.6718583858181887, 0.968770513642895, 0.48252045721886594, 0.1658667443047052, 0.09301451512330189],
    "tsb": [0.2574209114171377, 0.03756792260927936, 0.3345774806858609, 0.34834778129092153, 0.005290213106263943, 0.00019951449143859148, 0.005385637127619207, 0.011210539271478658],
    "fsd": [0.9395711433979314, 7.488879697004795e-09, 0.01722389404073547, 0.0024742739882602396, 3.725452877240663e-10, 5.873421756240187e-09, 8.009947140924518e-10, 0.0407306740372314],
    "bfry": [0.1704827518003476, 0.008137921232821747, 0.0011871929268104141, 0.0782234803502105, 0.5955190023552779, 0.51789617387974, 0.040142606340076506, 0.9999041179001052, 0.26450405198486704, 0.8220080689528014, 0.002406188972163213, 0.13812631515944304, 0.6880310655881037, 0.3432864404563682, 0.12150774098088858, 0.008290643172601251],
}


@pytest.mark.parametrize("spec", [beta_process(2.0, 0.0, 0.6), beta_process(3.0, 0.02, 0.2)],
                         ids=["BP(2,0,0.6)", "BP(3,0.02,0.2)"])
def test_head_reaching_theta_one_samples(spec):
    # K = 1 <= a: the head would cover the whole support, where
    # (1 - theta)^(eta - 1) is unbounded for eta < 1; this once looped forever
    # (or failed its quadrature), so it runs in a child with a time limit
    n = 20_000
    probe = ("from crmfinite.approximations import AifaConfig; "
             "from crmfinite.measures import RateMeasureSpec; "
             "from crmfinite.rng import derive_rng; "
             f"x = AifaConfig(RateMeasureSpec.from_json({spec.to_json()!r}), 1)"
             f".sample({n}, derive_rng(7, 0)); print(x.mean(), x.std(), x.min(), x.max())")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crmfinite.__file__)))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    mean, sd, lo, hi = map(float, done.stdout.split())
    cfg = AifaConfig(spec, 1)
    exact, _ = integrate.quad(lambda t: t * math.exp(cfg.log_density(t)), 0.0, 1.0)
    assert 0.0 < lo and hi <= 1.0
    assert abs(mean - exact) < 4.5 * sd / math.sqrt(n)


_HEAD_ETAS = (0.5, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("eta", _HEAD_ETAS)
def test_head_covering_the_support_is_the_closed_form(eta):
    # K = 1 <= a at d = 0: the head covers all of (0, 1] and there is no body
    # table (eta < 1 adds an edge piece), and nu_1 is exactly Beta(c, eta) with
    # mean gamma / (gamma + 1) = 2/3.  log h(1) = -inf for eta > 1 must not warn.
    # The four mean z-tests are Bonferroni-gated to a family-wise rate 1e-3.
    spec, n = beta_process(2.0, eta), 40_000
    c = small_weight_coefficient(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = AifaConfig(spec, 1)
        theta = np.array([1e-3, 0.1, 0.5, 0.9, 0.999])
        np.testing.assert_allclose(cfg.log_density(theta),
                                   spec.closed_form_log_density(c, theta), rtol=0, atol=1e-9)
        draws = cfg.sample(n, derive_rng(41, 0))
    mean = c / (c + eta)
    sd = math.sqrt(mean * (1.0 - mean) / (c + eta + 1.0))
    assert mean == pytest.approx(2 / 3, rel=1e-12)
    assert abs(draws.mean() - mean) < stats.norm.isf(1e-3 / (2 * len(_HEAD_ETAS))) * sd / math.sqrt(n)


def test_body_whose_mass_underflows_is_dropped():
    # a = 5e5 at K = 100 puts the head on (0, 5000]; past it the gamma density
    # underflows, so the body's mass is exactly 0.  Building its table once
    # divided 0 by 0.  The body is dropped, and the law builds, passes its
    # self-check and draws finite atoms with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = AifaConfig(gamma_process(2.0, 1.0, 0.0), 100, a=5e5)
        draws = cfg.sample(1000, derive_rng(43, 0))
    tables = cfg._build()
    assert tables["inverse"] is None and tables["head_p"] == 1.0
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


def test_aifa_times_K_tends_to_the_rate_measure():
    # the IFA's defining limit K nu_K(theta) -> nu(theta), pointwise on the
    # open support; at d = 0 the error is O(1/K), so error * K settles
    specs = [beta_process(2.0, 0.0, 0.6), beta_process(2.0, 1.0),
             gamma_process(1.0, 1.0, 0.5), rate_measure("beta_prime", 2.0, 0.3, eta=1.5),
             rate_measure("generalized_gamma", 1.0, 0.2, eta1=1.0, eta2=2.0)]
    theta, levels = np.array([0.05, 0.3, 0.8]), (100, 1000, 10_000)
    for spec in specs:
        errors = [np.abs(np.expm1(math.log(K) + AifaConfig(spec, K).log_density(theta)
                                  - log_rate_density(spec, theta))).max() for K in levels]
        assert errors[0] > errors[1] > errors[2], (spec, errors)
        assert errors[2] < 0.02, (spec, errors)
        if spec.discount == 0.0:
            scaled = [e * K for e, K in zip(errors, levels)]
            assert max(scaled) < 1.05 * min(scaled), (spec, scaled)


def test_golden_draws_every_kind():
    beta = AifaConfig(beta_process(3.0, 0.02, 0.2), 4)
    draws = {
        "aifa_beta": sample_weights(beta, derive_rng(91, 0), size=4),
        "aifa_gamma": sample_weights(AifaConfig(gamma_process(2.0, 1.0, 0.5), 8),
                                     derive_rng(91, 100), size=2),
        "closed_form": sample_weights(aifa_closed_form(beta_process(1.0, 1.0, 0.0), 8),
                                      derive_rng(91, 102)),
        "bondesson": sample_weights(bondesson(1.0, 2.0, 8), derive_rng(91, 103)),
        "beta_stick_breaking": sample_weights(beta_stick_breaking(1.0, 1.0, 4),
                                              derive_rng(91, 104)),
        "tsb": sample_weights(tsb(1.0, 8), derive_rng(91, 105)),
        "fsd": sample_weights(fsd(1.0, 8), derive_rng(91, 106)),
        "bfry": sample_weights(bfry(2.0, 0.6, 8), derive_rng(91, 107), size=2),
    }
    assert set(draws) == set(_GOLDEN_DRAWS)
    for name, got in draws.items():
        np.testing.assert_allclose(np.ravel(got), _GOLDEN_DRAWS[name], rtol=1e-12, atol=0,
                                   err_msg=name)
    # the beta draws cover all three pieces: head (0, a/K], body, edge (1 - 1e-3, 1]
    w = _GOLDEN_DRAWS["aifa_beta"]
    assert min(w) <= 0.25 and max(w) > 1 - 1e-3 and any(0.25 < v <= 1 - 1e-3 for v in w)


# sha256 of the bytes of sample_weights(dist, derive_rng(93, i), size=3) for
# the i-th case below: every weight kind, and the AIFA laws of every family
# (closed form, numeric at d = 0 and at d = 0.4).  A change to which random
# numbers a seed produces, or to any arithmetic on them, shows up here.
_DIGEST_SPECS = {
    "beta": {"family": "beta", "gamma": 2.0, "discount": 0.0, "extras": {"eta": 1.5}},
    "beta_prime": {"family": "beta_prime", "gamma": 1.3, "discount": 0.0, "extras": {"eta": 1.2}},
    "gamma": {"family": "gamma", "gamma": 1.2, "discount": 0.0, "extras": {"rate": 2.0}},
    "generalized_gamma": {"family": "generalized_gamma", "gamma": 1.1, "discount": 0.0,
                          "extras": {"eta1": 2.0, "eta2": 1.5}},
}


def _digest_spec(family, d=0.0):
    return RateMeasureSpec.from_json({**_DIGEST_SPECS[family], "discount": d})


_SAMPLE_DIGESTS = [
    ("closed_form-beta", lambda: aifa_closed_form(_digest_spec("beta"), 6),
     "17d382c2820435252ea38aec399a7cf32c2dcc71af68e77e50877f86261f34f0"),
    ("numeric-beta-d0", lambda: AifaConfig(_digest_spec("beta"), 6),
     "de63400dd6d98057498b86291c64c5ae7c15a15227af8cc23ac336e29127bc5a"),
    ("numeric-beta-d0.4", lambda: AifaConfig(_digest_spec("beta", 0.4), 6),
     "8050a8dcf05fe6bc615ce070e8da65d5da33fdbda5763da78ab6ec1c5cf2e7aa"),
    ("closed_form-beta_prime", lambda: aifa_closed_form(_digest_spec("beta_prime"), 6),
     "a39bc06602d4b14ea576f8802a4ce5e28c1459f6a7095c73d22a5df765da9f90"),
    ("numeric-beta_prime-d0", lambda: AifaConfig(_digest_spec("beta_prime"), 6),
     "f552d1650055c542ebefd55ed29b9ce5cbb9e7b1178683e2a4ad60e2bb16764a"),
    ("numeric-beta_prime-d0.4",
     lambda: AifaConfig(_digest_spec("beta_prime", 0.4), 6),
     "b34d0763065c40f0e401501be41f2c73a8cb14ce81156e03cd50f1859c797a62"),
    ("closed_form-gamma", lambda: aifa_closed_form(_digest_spec("gamma"), 6),
     "ba9f9ab0e3ee1538bb89742a6b9eff69955abab26e9653cd74af079d0a6d0e07"),
    ("numeric-gamma-d0", lambda: AifaConfig(_digest_spec("gamma"), 6),
     "be16c0d8925413811f944f4fe376e265f502c8ad86fadd7abf5a67b561c0eadf"),
    ("numeric-gamma-d0.4", lambda: AifaConfig(_digest_spec("gamma", 0.4), 6),
     "0845d80cefc67163f2b3b76c0dfec4ea9aa2a25214d9fec8410dd23bbaf92452"),
    ("closed_form-generalized_gamma", lambda: aifa_closed_form(_digest_spec("generalized_gamma"), 6),
     "944cf3a9d63671516230348093bd17080845b1566116197f24bc0324db89ab94"),
    ("numeric-generalized_gamma-d0",
     lambda: AifaConfig(_digest_spec("generalized_gamma"), 6),
     "30285f06eb5e3ad21dc3a881097b1bf20bbc2a2e96b92037dd830bc3cbc10eaa"),
    ("numeric-generalized_gamma-d0.4",
     lambda: AifaConfig(_digest_spec("generalized_gamma", 0.4), 6),
     "389cf430050ec7547b42589c4e7bed52cd7a918ddafb45bcb841a47f17ea6613"),
    ("bondesson-alpha1", lambda: bondesson(1.5, 1.0, 6),
     "67fc4964ae9f52af14ae8bd63961d44e3b8922958efd8bc47f111a6fc5eb57d0"),
    ("bondesson-alpha2.5", lambda: bondesson(1.5, 2.5, 6),
     "25c3667d2c2ad2e849a0d62b9a01649a096c5e80ffe3d1a8f0f3b9ce7e6819e9"),
    ("tsb", lambda: tsb(1.3, 6),
     "36732f98ba8e9ea18750fcfe52848638d279634cda7013be1c48005e33760cbe"),
    ("fsd", lambda: fsd(0.8, 6),
     "502ebecd89428fb883e2bceb551a0fd084d470cb04e35f66bd7e83bf7244c58d"),
    ("bfry", lambda: bfry(2.0, 0.6, 6),
     "dc96b45dea73547fb8fd549809813c07cec8c652278a56b9334e7c186a8eb3b8"),
    ("beta_stick_breaking", lambda: beta_stick_breaking(1.5, 2.0, 6),
     "09fb8a688ebdbfac041ff1b6b175e5cbeea4bffbd0183345cb3b33e9b88db875"),
    # where much of the law lies on the 1e-300 floor (26-96% of the draws
    # sit on it): BP(2, 0, 0.6) at K = 10^3 and 10^4 over a in {0.1, 1} and
    # both width rules, d > 0 gamma and beta-prime laws at K = 10^3; and heads
    # of scale 5000 and 10^8, where the floor is 2e-304 and a subnormal 1e-308
    # of the scale (about half of the generalized gamma's draws end at the
    # floor, under 1% of the beta-prime's).  Re-pinned when the floor became
    # its own piece: a floor draw takes one uniform, and the head proposes
    # only above the floor, so these streams moved; the cases above, where
    # 1 - c rounds to 1, kept every bit.
    ("BP-K1000-a0.1-1/K", lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 1000, 0.1, "1/K"),
     "34c80005e8d256a6f3e6462fc189322a2df3e66c0965cbbae5e90471e695a1b3"),
    ("BP-K1000-a0.1-1/sqrt(K)",
     lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 1000, 0.1, "1/sqrt(K)"),
     "2ba7bc9ea513e0ee7f8982abad8b99de10fe64db20cb552ad538e73e4f35d4af"),
    ("BP-K1000-a1-1/K", lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 1000, 1.0, "1/K"),
     "e936f097db7bb0beb35bb12abb9d2d9980124103ecc183844d701e7e01c6fd4b"),
    ("BP-K1000-a1-1/sqrt(K)",
     lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 1000, 1.0, "1/sqrt(K)"),
     "579017d51f9e3d1f092088e1b398fcd2213a9dcf8ef5fba62edcc66ad049fbbc"),
    ("BP-K10000-a0.1-1/K", lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 10_000, 0.1, "1/K"),
     "fc1c6ea93b7e860b496a838c9f95fd2a931e7c94e2b5fd22293c1474d5a3599b"),
    ("BP-K10000-a0.1-1/sqrt(K)",
     lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 10_000, 0.1, "1/sqrt(K)"),
     "b6a52353c29093c0a40d1e63cd6bc223095a3ab500ab6b6efa36ffe9bbf89e04"),
    ("BP-K10000-a1-1/K", lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 10_000, 1.0, "1/K"),
     "f63a56be29b54a1406bd7b4c2a9edbcf8752981bd238a37f6c9c3b3c41ad88dd"),
    ("BP-K10000-a1-1/sqrt(K)",
     lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 10_000, 1.0, "1/sqrt(K)"),
     "a634317a01cb0f261a6073dc4f32ed30b8d610b0724d6105eba1bb00d1bef7cd"),
    ("gamma-d0.5-K1000", lambda: AifaConfig(gamma_process(2.0, 1.0, 0.5), 1000),
     "d92d04a2cb01b0a1e8d86956c93d3a7e38e692815f18f2aed23c37944ba448c7"),
    ("beta_prime-d0.3-K1000",
     lambda: AifaConfig(rate_measure("beta_prime", 2.0, 0.3, eta=1.5), 1000),
     "83b0783ef0c7734333a85ba56e256a0bb5ba961bb4dc7ee0da748386e1ec6bba"),
    ("beta_prime-d0.3-head5000",
     lambda: AifaConfig(rate_measure("beta_prime", 1.3, 0.3, eta=1.2), 100, a=5e5),
     "dd84167c4db93fd2808eb8ae2192a523b0212c44b42424247246eb19fd13b5db"),
    ("generalized_gamma-head5000",
     lambda: AifaConfig(rate_measure("generalized_gamma", 2e3, 0.0, eta1=1e-4, eta2=0.5), 100, a=5e5),
     "75fee1c9f8b9ab83078e43fca06af8a49bbf17bff4c705698d7e7c31a61c7c3c"),
    ("beta_prime-d0.3-head1e8",
     lambda: AifaConfig(rate_measure("beta_prime", 1.3, 0.3, eta=1.2), 100, a=1e10),
     "91a96a9dec6968be40267bbd4b09ede4f0d876313d23ea8926805a75c209e847"),
    ("generalized_gamma-head1e8",
     lambda: AifaConfig(rate_measure("generalized_gamma", 2e3, 0.0, eta1=1e-4, eta2=0.5), 100, a=1e10),
     "2e2b370982104819f0408606224e35085f850d361dd9733ab8472ee2535f7b01"),
]


@pytest.mark.parametrize("index", range(len(_SAMPLE_DIGESTS)),
                         ids=[name for name, _, _ in _SAMPLE_DIGESTS])
def test_sample_digests_every_kind_and_family(index):
    _, build, digest = _SAMPLE_DIGESTS[index]
    rows = sample_weights(build(), derive_rng(93, index), size=3)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def _plain_end_sample(piece, n, rng):
    """An end piece's draws without the squeeze: every weight evaluated, on
    the same proposals U' = 1 - (1 - c)(1 - U), uniform on [c, 1)."""
    out = np.empty(0)
    while out.size < n:
        m = n - out.size
        with np.errstate(under="ignore", divide="ignore"):
            uc = 1.0 - (1.0 - piece.c) * (1.0 - rng.random(m))
            v = np.maximum(np.exp(np.log(uc) * (1.0 / piece.power)) * piece.scale,
                           approximations._WEIGHT_FLOOR)
        u = rng.random(m) * piece.sup
        out = np.concatenate([out, v[u <= piece.weight(v)]])
    return out


@pytest.mark.parametrize("d", [0.0, 0.4])
@pytest.mark.parametrize("family", list(_DIGEST_SPECS))
def test_head_squeeze_is_a_lower_bound_and_changes_no_draw(family, d):
    # the head weight g^(eps-d) h is monotone, so inf (its smaller end value,
    # less 1e-12) bounds it from below on all of [floor, scale].  At K = 1000
    # the floor piece holds 13-54% of the law, so the head above it proposes
    # from u in [c, 1) with c well above 2^-53, and about 0.1% of the
    # proposals still have their weight evaluated
    tables = AifaConfig(_digest_spec(family, d), 1000)._build()
    head, floor = tables["head"], approximations._WEIGHT_FLOOR
    assert tables["floor_p"] > 0.1 and head.c > 0.1
    grid = np.geomspace(floor, head.scale, 20_001)
    assert 0.0 < head.inf <= head.weight(grid).min()
    ends = head.weight(np.array([floor, head.scale]))
    plain = approximations._EndPiece(head.scale, head.power, head.weight, (-math.inf, ends.max()),
                                     lo=floor)
    assert plain.inf == -math.inf and plain.sup == head.sup and plain.c == head.c
    draws = [sample(50_000, derive_rng(97, 0))
             for sample in (head.sample, plain.sample, lambda n, rng: _plain_end_sample(head, n, rng))]
    assert draws[0].tobytes() == draws[1].tobytes() == draws[2].tobytes()
    # no head draw falls below the floor, and almost none sits on it
    assert draws[0].min() >= floor and (draws[0] == floor).mean() < 1e-3
    # the beta right edge proposes from all of (0, scale]
    edge = tables["edge"]
    assert (edge is not None) == (family == "beta")
    assert edge is None or (edge.inf > 0.0 and edge.c == 0.0 and edge.lo_mass == 0.0)


@pytest.mark.parametrize("d", [0.0, 0.4])
@pytest.mark.parametrize("alpha", [0.5, 3.0])
@pytest.mark.parametrize("b", ["1/K", "1/sqrt(K)"])
def test_edge_squeeze_bounds_the_weight_and_changes_no_draw(b, alpha, d):
    # at K = 2, a = 1 the edge (1 - delta, 1] lies inside the indicator ramp
    # above a/K = 1/2, so S_b varies across it (b = 1/K by a hair, b = 1/sqrt(K)
    # widely), and the weight (1 - v)^(eps - 1 - d S_b) is not a power of 1 - v;
    # inf and sup, 1 and powers of 1 - delta at S_b's end values, still bound it
    # on all of (0, delta]
    edge = AifaConfig(beta_process(2.0, alpha, d), 2, a=1.0, b=b)._build()["edge"]
    grid = edge.scale * np.concatenate([np.geomspace(1e-300, 1e-3, 2_000),
                                        np.linspace(1e-3, 1.0, 20_001)])
    weight = edge.weight(grid)
    assert 0.0 < edge.inf <= weight.min() and weight.max() <= edge.sup
    if d > 0.0:  # S_b moves the weight's exponent across the edge (v >= 1e-3 delta)
        assert np.ptp(np.log(weight[2_000:]) / np.log(1.0 - grid[2_000:])) > 1e-7
    plain = approximations._EndPiece(edge.scale, edge.power, edge.weight,
                                     (-math.inf, edge.sup / (1.0 + 1e-9)))
    assert plain.inf == -math.inf and plain.sup == edge.sup
    draws = [sample(50_000, derive_rng(98, 0))
             for sample in (edge.sample, plain.sample, lambda n, rng: _plain_end_sample(edge, n, rng))]
    assert draws[0].tobytes() == draws[1].tobytes() == draws[2].tobytes()


def _generalized_gamma_law(eta2):
    """The generalized gamma law at eta1 = 1, d = 0 and K = 1, with gamma set
    so that c/K = 0.02: its head weight exp(-theta^eta2) decreases, and at a
    small eta2 it is still well below its maximum 1 at theta = 1e-15."""
    spec = rate_measure("generalized_gamma", 0.02 * math.gamma(1.0 / eta2) / eta2, 0.0,
                        eta1=1.0, eta2=eta2)
    return AifaConfig(spec, 1)


@pytest.mark.parametrize("eta2", [0.05, 0.1])
def test_decreasing_head_weight_has_its_sup_at_the_floor(eta2):
    # a monotone head weight has its extremes at the ends of [1e-300, scale], so
    # the envelope sup bounds it on every point where proposals may lie
    head = _generalized_gamma_law(eta2)._build()["head"]
    grid = np.geomspace(approximations._WEIGHT_FLOOR, head.scale, 20_001)
    assert head.sup >= head.weight(grid).max()


def test_decreasing_head_weight_draws_match_the_closed_form_cdf():
    # at d = 0 the law is GenGamma: (eta1 theta)^eta2 ~ Gamma((c/K) / eta2), so
    # its CDF is gammainc((c/K) / eta2, (eta1 theta)^eta2).  The share of draws at
    # or below each of its 9 deciles passes an exact binomial test, Bonferroni
    # over the 18 tests (family-wise 1e-3); an envelope below the weight's
    # maximum thins the draws near the floor and misses by z = -5 to -40
    q = np.arange(1, 10) / 10
    for eta2 in (0.05, 0.1):
        draws = _generalized_gamma_law(eta2).sample(400_000, derive_rng(99, 0))
        deciles = special.gammaincinv(0.02 / eta2, q) ** (1.0 / eta2)
        for theta, share in zip(deciles, q):
            below = int((draws <= theta).sum())
            assert stats.binomtest(below, draws.size, share).pvalue > 1e-3 / 18, (eta2, share)


@pytest.mark.parametrize("build", [
    lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 1000),
    lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 10_000),
    lambda: AifaConfig(rate_measure("generalized_gamma", 2e3, 0.0, eta1=1e-4, eta2=0.5), 100, a=5e5),
], ids=["BP-K1000", "BP-K10000", "generalized_gamma-head5000"])
def test_floor_share_matches_floor_p(build):
    # the floor piece's probability is the head's mass on (0, 1e-300] over
    # the total, and the draws equal to 1e-300 come from it alone: an exact
    # two-sided binomial test of their count
    cfg = build()
    floor_p = cfg._build()["floor_p"]
    assert 0.4 < floor_p < 0.95
    on_floor = int((cfg.sample(200_000, derive_rng(95, 0)) == approximations._WEIGHT_FLOOR).sum())
    assert stats.binomtest(on_floor, 200_000, floor_p).pvalue > 1e-3


# log Z_K, head_p and edge_p as hex floats, pinned before the floor became
# its own piece: the split leaves the pieces' masses as they were
_PIECE_MASSES = [
    (lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 100),
     "0x1.4cbed745c77b1p+2", "0x1.c61219f6632bap-1", "0x1.320a0a7b2d7b3p-13"),
    (lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 1000),
     "0x1.dcfd819c791fbp+2", "0x1.e82ebd44d7b90p-1", "0x1.0110d7fcca695p-16"),
    (lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 10_000),
     "0x1.375f17500dafap+3", "0x1.f675810f23613p-1", "0x1.a5cd4f6d08e6ap-20"),
    (lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 1000, 0.1, "1/sqrt(K)"),
     "0x1.dad7f7e27909fp+2", "0x1.f8218ca879656p-1", "0x1.09d5950f75cc5p-16"),
    (lambda: AifaConfig(gamma_process(2.0, 1.0, 0.5), 1000),
     "0x1.b53cd624f3ca3p+2", "0x1.e5bc3c0a04c4cp-1", "0x0.0p+0"),
    (lambda: AifaConfig(rate_measure("generalized_gamma", 2e3, 0.0, eta1=1e-4, eta2=0.5), 100,
                        a=5e5),
     "0x1.ba9cb45080288p+2", "0x1.ff9f2e389f4bbp-1", "0x0.0p+0"),
    (lambda: AifaConfig(beta_process(2.0, 1.5, 0.0), 6),
     "0x1.ce6bb25aa1318p-2", "0x1.028c09aff704ep-1", "0x1.c2792cd947fdap-17"),
]


@pytest.mark.parametrize("index", range(len(_PIECE_MASSES)))
def test_floor_piece_leaves_the_piece_masses(index):
    build, *pinned = _PIECE_MASSES[index]
    tables = build()._build()
    assert [tables[name] for name in ("log_z", "head_p", "edge_p")] == \
        [float.fromhex(h) for h in pinned]
    assert 0.0 < tables["floor_p"] < tables["head_p"]


# sha256 of cfg.sample(200_000, derive_rng(94, 0)), pinned before the floor
# became its own piece, for heads where 1 - c rounds to 1 (c <= 2^-54; BP at
# K = 11 has c = 3.5e-17): there the proposals are the uniforms themselves
_SMALL_C_DIGESTS = [
    (lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 5),
     "486203002b882ee1f6f4bbddf9af4fdb68e87f373c8983285c83974254dab8fa"),
    (lambda: AifaConfig(beta_process(2.0, 0.0, 0.6), 11),
     "787be4eb5c3c7dc9e9d915d2df2541f570c2e9431751601606b6ee471910e6bc"),
    (lambda: AifaConfig(gamma_process(2.0, 1.0, 0.5), 10),
     "b66d43fa80602e818a15744bcc7dda34434396d2bd8c7cb055327c8c5e030531"),
    (lambda: AifaConfig(rate_measure("beta_prime", 2.0, 0.3, eta=1.5), 10),
     "f50b6fea34ae982e9652ab6ac3ce6ba861eea4f6756b09d9516f97df807733e3"),
    (lambda: AifaConfig(rate_measure("generalized_gamma", 1.0, 0.2, eta1=1.0, eta2=2.0), 10),
     "69219296aafdf6f3ec59bdf6d9277a4f1d822ae67c473b2f67a6700edbf80a3f"),
]


@pytest.mark.parametrize("index", range(len(_SMALL_C_DIGESTS)))
def test_small_c_draws_keep_every_bit(index):
    build, digest = _SMALL_C_DIGESTS[index]
    cfg = build()
    assert 0.0 < cfg._build()["head"].c <= 2.0**-54
    draws = cfg.sample(200_000, derive_rng(94, 0))
    assert hashlib.sha256(draws.tobytes()).hexdigest() == digest


def test_weight_laws_compare_by_parameters():
    # equal parameters give equal laws with equal hashes; another parameter,
    # level or kind gives an unequal law (bondesson(1, 2, 5) once equalled
    # bondesson(3, 4, 5)); the numeric AIFA law compares its config by identity
    pairs = [
        (lambda: bondesson(1.0, 2.0, 5), bondesson(3.0, 4.0, 5)),
        (lambda: beta_stick_breaking(1.0, 2.0, 5), beta_stick_breaking(1.0, 3.0, 5)),
        (lambda: tsb(1.0, 5), tsb(2.0, 5)),
        (lambda: fsd(1.0, 5), fsd(1.0, 6)),
        (lambda: fsd(1.0, 5), tsb(1.0, 5)),
        (lambda: bfry(1.0, 0.5, 5), bfry(1.0, 0.6, 5)),
        (lambda: aifa_closed_form(beta_process(1.0, 1.5), 5),
         aifa_closed_form(beta_process(1.0, 2.5), 5)),
    ]
    cfg = AifaConfig(beta_process(1.0, 1.5), 5)
    pairs.append((lambda: cfg, AifaConfig(beta_process(1.0, 1.5), 5)))
    for build, other in pairs:
        law = build()
        assert law == build() and hash(law) == hash(build()), law
        assert law != other, law


def test_tsb_single_stick():
    assert np.array_equal(sample_weights(tsb(2.0, 1), derive_rng(0, 0)), [1.0])


def test_tsb_fsd_sum_to_one():
    rng = derive_rng(8, 0)
    for dist in (tsb(1.3, 9), fsd(0.7, 6)):
        for _ in range(200):
            w = sample_weights(dist, rng)
            assert abs(w.sum() - 1.0) < 1e-12
        rows = sample_weights(dist, rng, size=200)
        assert rows.shape == (200, dist.K)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) < 1e-12)


def test_fsd_symmetric_mean():
    rng = derive_rng(9, 0)
    draws = sample_weights(fsd(1.0, 2), rng, size=100_000)[:, 0]
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3 * se


def test_bondesson_requires_alpha_geq_one():
    with pytest.raises(ValueError):
        bondesson(1.0, 0.5, 10)


@pytest.mark.parametrize("K", [2.5, True, "3", None])
def test_level_must_be_an_integer(K):
    for build in (lambda: bondesson(1.0, 1.0, K), lambda: fsd(1.0, K),
                  lambda: AifaConfig(beta_process(1.0, 1.0), K)):
        with pytest.raises(ValueError, match="approximation level K"):
            build()
    assert fsd(1.0, np.int64(3)).K == 3  # numpy integers stay accepted


@pytest.mark.parametrize("dist, size, name", [
    (0.5, None, "dist"), (None, None, "dist"), ("fsd", 2, "dist"),
    (fsd(1.0, 3), 2.5, "size"), (fsd(1.0, 3), True, "size"), (fsd(1.0, 3), -1, "size"),
    (fsd(1.0, 3), "2", "size"),
])
def test_sample_weights_rejects_bad_dist_and_size(dist, size, name):
    # 2.5 drew 2 rows, True drew 1, and a non-distribution raised AttributeError
    with pytest.raises(ValueError, match=name):
        sample_weights(dist, derive_rng(92, 0), size=size)
    assert sample_weights(fsd(1.0, 3), derive_rng(92, 0), size=np.int64(2)).shape == (2, 3)
    assert sample_weights(fsd(1.0, 3), derive_rng(92, 0), size=0).shape == (0, 3)


@pytest.mark.parametrize("build, name", [
    (lambda v: bondesson(v, 1.5, 3), "gamma"), (lambda v: bondesson(1.0, v, 3), "alpha"),
    (lambda v: beta_stick_breaking(v, 1.0, 3), "gamma"),
    (lambda v: beta_stick_breaking(1.0, v, 3), "alpha"),
    (lambda v: tsb(v, 3), "alpha"), (lambda v: fsd(v, 2), "gamma"),
    (lambda v: bfry(v, 0.5, 3), "gamma"),
], ids=["bondesson-gamma", "bondesson-alpha", "stick-gamma", "stick-alpha", "tsb-alpha",
        "fsd-gamma", "bfry-gamma"])
@pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, math.nan, True, "1.0"])
def test_weight_laws_reject_bad_mass_and_concentration(build, name, value):
    with pytest.raises(ValueError, match=name):
        build(value)


def test_bondesson_expectation_ratio():
    # E[theta_{k+1}]/E[theta_k] = gamma*alpha/(1 + gamma*alpha) exactly
    gamma, alpha, K, reps = 1.0, 2.0, 6, 60_000
    rng = derive_rng(10, 0)
    w = sample_weights(bondesson(gamma, alpha, K), rng, size=reps)
    means = w.mean(axis=0)
    ratio = gamma * alpha / (1 + gamma * alpha)
    for k in range(K - 1):
        se = np.std(w[:, k + 1] - ratio * w[:, k]) / math.sqrt(reps)
        assert abs(means[k + 1] - ratio * means[k]) < 3 * se


def test_bondesson_alpha_one_is_product_of_betas():
    # V = 1 exactly, theta_k = prod_{j<=k} p_j with p ~ Beta(gamma, 1):
    # so E[theta_k] = (gamma/(gamma+1))^k and every path is decreasing
    gamma, K, reps = 1.0, 5, 50_000
    rng = derive_rng(11, 0)
    w = sample_weights(bondesson(gamma, 1.0, K), rng, size=reps)
    assert np.all(np.diff(w, axis=1) <= 0)
    for k in range(K):
        target = (gamma / (gamma + 1.0)) ** (k + 1)
        se = w[:, k].std() / math.sqrt(reps)
        assert abs(w[:, k].mean() - target) < 3 * se + 1e-12


def test_beta_stick_breaking_round_count():
    gamma, K, reps = 1.5, 4, 4000
    rng = derive_rng(12, 0)
    counts = np.array([sample_weights(beta_stick_breaking(gamma, 1.0, K), rng).size
                       for _ in range(reps)])
    se = counts.std() / math.sqrt(reps)
    assert abs(counts.mean() - gamma * K) < 3 * se


def _stick_breaking_reference(gamma, alpha, K, rng):
    """The per-round product v_i prod_{j<i} (1 - v_j): i beta draws per atom."""
    out = []
    for i in range(1, K + 1):
        v = rng.beta(1.0, alpha, size=(rng.poisson(gamma), i))
        out.append(v[:, -1] * np.prod(1.0 - v[:, :-1], axis=1))
    return np.concatenate(out)


def test_beta_stick_breaking_matches_per_round_product():
    # pooled atoms of a Poisson-round construction are i.i.d. given their
    # number, so a two-sample KS test on atom sizes is valid
    gamma, alpha, K, reps = 2.0, 1.5, 8, 4000
    rng = derive_rng(15, 0)
    ref = np.concatenate([_stick_breaking_reference(gamma, alpha, K, rng) for _ in range(reps)])
    rows = sample_weights(beta_stick_breaking(gamma, alpha, K), rng, size=reps)
    lengths = (rows > 0).sum(axis=1)
    # zero padding only past each row's atom count
    assert np.all(rows[np.arange(rows.shape[1]) >= lengths[:, None]] == 0)
    atoms = rows[rows > 0]
    assert stats.ks_2samp(np.log(ref), np.log(atoms)).pvalue > 1e-3
    totals = rows.sum(axis=1)
    exact = gamma * (1.0 - (alpha / (1.0 + alpha)) ** K)
    assert abs(totals.mean() - exact) < 4 * totals.std() / math.sqrt(reps)


def _bend_body_table(monkeypatch):
    """Every body draw maps q -> q^2 before the table: a wrong inverse CDF."""
    table = approximations._InverseCdf.__call__
    monkeypatch.setattr(approximations._InverseCdf, "__call__", lambda self, q: table(self, q * q))


def test_failed_validation_is_sticky(monkeypatch):
    _bend_body_table(monkeypatch)
    cfg = AifaConfig(beta_process(2.0, 0.0, 0.6), 100)
    with pytest.raises(RuntimeError, match="exact-CDF check") as first:
        cfg.sample(10, derive_rng(16, 0))
    monkeypatch.setattr(cfg, "_validate", lambda: pytest.fail("validated twice"))
    with pytest.raises(RuntimeError) as again:
        cfg.sample(10, derive_rng(16, 0))
    assert again.value is first.value


def _shrink_head(monkeypatch, cfg):
    """The head's share of the draws scaled by 0.93: a fault in the piece
    split, which no comparison with a second sampler sharing that split sees."""
    cfg._build()
    monkeypatch.setitem(cfg._tables, "head_p", 0.93 * cfg._tables["head_p"])


def _shrink_floor(monkeypatch, cfg):
    """The floor's share of the draws scaled by 0.9, its lost share going to
    the head above the floor."""
    cfg._build()
    monkeypatch.setitem(cfg._tables, "floor_p", 0.9 * cfg._tables["floor_p"])


@pytest.mark.parametrize("mutate, K, ks", [(_shrink_head, 100, "0.06"),
                                           (lambda mp, cfg: _bend_body_table(mp), 100, "0.03"),
                                           (_shrink_floor, 1000, "0.07")],
                         ids=["head_p*0.93", "body q^2", "floor_p*0.9"])
def test_mutated_sampler_fails_validation(mutate, K, ks, monkeypatch):
    cfg = AifaConfig(beta_process(2.0, 0.0, 0.6), K)
    mutate(monkeypatch, cfg)
    draws = cfg._draw(approximations._KS_DRAWS, np.random.Generator(np.random.Philox(12345)))
    assert approximations._ks_one_sample(draws, cfg._cdf)[0] > 0.03
    with pytest.raises(RuntimeError, match=f"exact-CDF check: KS={re.escape(ks)}"):
        cfg.sample(10, derive_rng(16, 0))


@pytest.mark.parametrize("K", [1, 5])
@pytest.mark.parametrize("eta", [0.01, 0.05])
def test_small_eta_beta_law_passes_validation_with_an_atom_at_one(eta, K):
    # at a small eta the right edge holds so much mass near theta = 1 that 1 - v
    # rounds to 1.0 for every v <= 2^-54: P(theta = 1.0) = I_{2^-54}(eta, c/K), 46%
    # at eta = 0.01 and K = 1.  The self-check takes 1.0 as a point mass and passes,
    # and the share of draws at 1.0 passes an exact binomial test (family-wise 1e-3
    # over the four cases).  K = 1 stays at 10^4 draws: its head accepts about 0.1%
    # of its proposals
    spec = beta_process(2.0, eta, 0.0)
    draws = AifaConfig(spec, K).sample(10_000, derive_rng(98, K))
    at_one = special.betainc(eta, small_weight_coefficient(spec) / K, 2.0**-54)
    assert stats.binomtest(int((draws == 1.0).sum()), draws.size, at_one).pvalue > 1e-3 / 4


def test_valid_config_passes_validation(monkeypatch):
    # a screen limit of 0 sends every configuration to the 200k-draw retest,
    # which a correct sampler passes
    monkeypatch.setattr(approximations, "_KS_LIMIT", 0.0)
    cfg = AifaConfig(beta_process(5.0, 1.0, 0.0), 5)
    calls = []
    sample = cfg.sample
    monkeypatch.setattr(cfg, "sample", lambda n, rng: calls.append(n) or sample(n, rng))
    assert cfg.sample(100, derive_rng(17, 0)).shape == (100,)
    assert calls == [100, 10_000, 200_000]


@pytest.mark.parametrize("spec", [beta_process(2.0, 1.0), beta_process(2.0, 0.5),
                                  beta_process(3.0, 2.0), gamma_process(1.0, 2.0)],
                         ids=["beta eta=1", "beta eta=0.5", "beta eta=2", "gamma"])
def test_cdf_matches_closed_form_at_zero_discount(spec):
    # at d = 0, nu_K is Beta(c/K, eta) or Gamma(c/K, rate); the check's CDF,
    # at the validation draws, is its regularized incomplete beta or gamma
    c = small_weight_coefficient(spec)
    for K in (1, 5, 100, 1000, 10_000):
        cfg = AifaConfig(spec, K)
        theta = np.unique(cfg._draw(10_000, np.random.Generator(np.random.Philox(12345))))
        if spec.family.value == "beta":
            want = special.betainc(c / K, spec.eta, theta)
        else:
            want = special.gammainc(c / K, spec.rate * theta)
        np.testing.assert_allclose(cfg._cdf(theta), want, rtol=0, atol=1e-6, err_msg=f"K={K}")


def _scipy_inverse(f, knots, masses, below=0.0, above=0.0):
    """The inverse-CDF table as scipy's PchipInterpolator builds it, with a
    uniform outside the table sent to the nearer end knot; the builder's
    interval masses are f's, by the same rule."""
    assert np.array_equal(masses, approximations._interval_masses(f, knots[:-1], knots[1:]))
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum = np.maximum.accumulate(cum)
    keep = np.concatenate([[True], np.diff(cum) > 0])
    interp = PchipInterpolator((below + cum[keep]) / (below + cum[-1] + above), knots[keep],
                               extrapolate=False)
    lo, hi = knots[0], knots[-1]

    def inverse(q):
        x = interp(q)
        return np.clip(np.where(np.isnan(x), np.where(q > 0.5, hi, lo), x), lo, hi)
    return inverse


@pytest.mark.parametrize("table", [("aifa", 10), ("aifa", 100), ("aifa", 1000),
                                   ("bfry", (0.02, 0.6)), ("bfry", (0.2, 0.3))])
def test_inverse_cdf_matches_scipy_pchip_bitwise(table, monkeypatch):
    built = []

    class Recorded(approximations._InverseCdf):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self, args, kwargs))

    monkeypatch.setattr(approximations, "_InverseCdf", Recorded)
    monkeypatch.setattr(approximations, "_BFRY_TABLES", {})
    kind, arg = table
    if kind == "aifa":
        AifaConfig(beta_process(2.0, 0.0, 0.6), arg)._build()
    else:
        approximations._bfry_table(*arg)
    (inverse, args, kwargs), = built
    q = np.concatenate([derive_rng(40, 0).random(100_000), inverse._x, [0.0, 1.0]])
    want = _scipy_inverse(*args, **kwargs)(q).view(np.int64)
    assert np.array_equal(inverse(q).view(np.int64), want)  # guide-table path
    small = np.concatenate([inverse(part) for part in np.array_split(q, q.size // 100)])
    assert np.array_equal(small.view(np.int64), want)  # direct search of short calls


@pytest.mark.parametrize("y", [
    [0.0, 1.0],                                    # two knots: a line
    [0.0, 2.0, 1.0, 1.0, 3.0, -1.0, 4.0, 4.5],     # sign changes and a flat secant
    [0.0, 0.1, 5.0, 5.1, 5.2, 9.0],                # end estimate of the wrong sign
    [1.0, 0.0, 4.0, 3.9, 3.8],                     # end estimate beyond 3 secants
])
def test_pchip_coefficients_match_scipy_bitwise(y):
    y = np.array(y)
    x = np.cumsum(derive_rng(42, 0).random(y.size) + 0.1)
    got = approximations._pchip_coefficients(x, y)
    assert np.array_equal(got, PchipInterpolator(x, y).c)


def test_pchip_coefficients_reject_unordered_knots():
    for x in ([0.0], [0.0, 1.0, 1.0], [0.0, np.nan, 2.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            approximations._pchip_coefficients(np.array(x), np.zeros(len(x)))


@pytest.mark.parametrize("ties", [False, True])
def test_ks_statistic_matches_scipy(ties):
    # scipy's sorted-sample formula is exact for a continuous CDF, ties or not
    x = derive_rng(41, 0).gamma(2.0, size=700)
    if ties:
        x = np.round(x, 1)
    statistic, _ = approximations._ks_one_sample(x, stats.gamma(2.1).cdf)
    assert statistic == stats.kstest(x, stats.gamma(2.1).cdf).statistic


def test_ks_statistic_counts_the_floor_as_a_point_mass():
    # F(t) = t^0.005 on (0, 1] puts 3.2% of its mass below the floor, where
    # the draws are clamped; brute force takes the sup of |F_n - F| over every
    # sample point and the point just below it, with F = 0 below the floor
    floor = approximations._WEIGHT_FLOOR

    def cdf(t):
        return np.where(t < floor, 0.0, np.asarray(t, dtype=float) ** 0.005)

    x = np.maximum(derive_rng(43, 0).random(2000) ** 200.0, floor)
    assert 30 < np.sum(x == floor) < 100
    points = np.concatenate([x, np.nextafter(x, 0.0)])
    brute = np.abs((x[None, :] <= points[:, None]).mean(axis=1) - cdf(points)).max()
    statistic, _ = approximations._ks_one_sample(x, cdf)
    assert statistic == pytest.approx(brute, rel=0, abs=1e-12)
    # scipy's formula assumes a continuous F and reads the atom, F(floor) = 0.0316
    assert statistic < 0.02 < stats.kstest(x, cdf).statistic


def test_ks_retest_pvalue_near_scipy():
    # the 200k-draw retest of test_valid_config_passes_validation, replayed
    cfg = AifaConfig(beta_process(5.0, 1.0, 0.0), 5)
    rng = np.random.Generator(np.random.Philox(12345))
    for n in (10_000, 200_000):
        x = cfg.sample(n, rng)
    _, pvalue = approximations._ks_one_sample(x, cfg._cdf)
    assert pvalue == pytest.approx(stats.kstest(x, cfg._cdf, method="asymp").pvalue, rel=1e-9)


def test_bfry_log_density_normalizes():
    c, alpha = 0.02, 0.6
    val, err = integrate.quad(lambda s: math.exp(bfry_log_density(c, alpha, s)),
                              0, np.inf, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_bfry_density_small_s_expansion():
    c, alpha = 0.02, 0.6
    t = (alpha / c) ** (1 / alpha)
    amp = c / math.gamma(1 - alpha) * t
    for s in (1e-8, 1e-9, 1e-10):
        assert math.exp(bfry_log_density(c, alpha, s)) == pytest.approx(
            amp * s ** (-alpha), rel=1e-5)


def test_bfry_density_point_value():
    c, alpha = 0.02, 0.6
    t = (alpha / c) ** (1 / alpha)
    expected = c / math.gamma(1 - alpha) * 1.0 ** (-1.6) * (1 - math.exp(-t))
    assert math.exp(bfry_log_density(c, alpha, 1.0)) == pytest.approx(expected, rel=1e-12)


def test_bfry_domain_errors():
    with pytest.raises(ValueError):
        bfry_log_density(0.02, 1.2, 1.0)
    with pytest.raises(ValueError):
        bfry_log_density(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        bfry_log_density(0.02, 0.5, -1.0)
    with pytest.raises(ValueError):
        bfry(1.0, 1.5, 10)


def test_bfry_sampler_matches_exact_representation():
    # oracle: S = (c/alpha)^(1/alpha) * Gamma(1-alpha) * U^(-1/alpha)
    c, alpha = 0.02, 0.6
    rng = derive_rng(13, 0)
    dist = bfry(c * 100, alpha, 100)  # c = gamma/K = 0.02
    table_draws = sample_weights(dist, rng, size=300).ravel()
    table_s = table_draws / (1 - table_draws)
    g = rng.gamma(1 - alpha, 1.0, size=table_s.size)
    u = rng.random(table_s.size)
    exact_s = (c / alpha) ** (1 / alpha) * g * u ** (-1 / alpha)
    stat = stats.ks_2samp(np.log(table_s), np.log(exact_s)).statistic
    assert stat < 0.02


def test_aifa_numeric_unbounded_support_sampler():
    # gamma family with discount: unbounded support exercises the tail
    # expansion; the moment check uses E[theta] = integral theta nu_K / Z
    spec = gamma_process(1.0, 1.0, 0.4)
    cfg = AifaConfig(spec, 25)
    rng = derive_rng(140, 0)
    draws = cfg.sample(40_000, rng)
    assert np.all(draws > 0)
    mean_exact = integrate.quad(lambda t: t * math.exp(cfg.log_density(t)),
                                0, np.inf, limit=400)[0]
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - mean_exact) < 4 * se


def test_beta_family_weights_leq_one():
    rng = derive_rng(14, 0)
    for dist in (AifaConfig(beta_process(2.0, 0.0, 0.6), 30),
                 aifa_closed_form(beta_process(1.0, 1.0, 0.0), 30),
                 bondesson(1.0, 1.5, 10),
                 beta_stick_breaking(1.0, 1.0, 5),
                 bfry(2.0, 0.6, 30)):
        assert np.all(sample_weights(dist, rng, size=50) <= 1.0), dist.kind

import hashlib
import math
import os
import subprocess
import sys

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
    "aifa_beta_reference": [0.95024101945354, 0.6152493087603682, 0.9990768058958321, 0.9285934941062307, 0.0030845495112475927, 0.04950700576852085, 0.02384593830683816, 0.8849453105354274, 0.9999983775582215, 0.9120225544090085, 0.6304928458370145, 0.007906960157933223, 0.014870498354391592, 0.21442310372605167, 0.009176224753580679, 0.43503810932613507],
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


def test_golden_draws_every_kind():
    beta = AifaConfig(beta_process(3.0, 0.02, 0.2), 4)
    draws = {
        "aifa_beta": sample_weights(beta, derive_rng(91, 0), size=4),
        "aifa_gamma": sample_weights(AifaConfig(gamma_process(2.0, 1.0, 0.5), 8),
                                     derive_rng(91, 100), size=2),
        "aifa_beta_reference": beta._reference_sample(16, derive_rng(91, 101)),
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
]


@pytest.mark.parametrize("index", range(len(_SAMPLE_DIGESTS)),
                         ids=[name for name, _, _ in _SAMPLE_DIGESTS])
def test_sample_digests_every_kind_and_family(index):
    _, build, digest = _SAMPLE_DIGESTS[index]
    rows = sample_weights(build(), derive_rng(93, index), size=3)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


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


def test_failed_validation_is_sticky(monkeypatch):
    cfg = AifaConfig(beta_process(1.0, 1.0, 0.0), 10)
    reference = cfg._reference_sample
    monkeypatch.setattr(cfg, "_reference_sample", lambda n, rng: 2.0 * reference(n, rng))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="cross-check"):
            cfg.sample(10, derive_rng(16, 0))


def test_valid_config_passes_validation():
    # misses the 10k-draw KS screen (KS = 0.0214) and passes the 200k retest
    cfg = AifaConfig(beta_process(5.0, 1.0, 0.0), 5)
    assert cfg.sample(100, derive_rng(17, 0)).shape == (100,)


def _scipy_inverse(f, knots, below=0.0, above=0.0):
    """The inverse-CDF table as scipy's PchipInterpolator builds it, with a
    uniform outside the table sent to the nearer end knot."""
    cum = np.concatenate([[0.0], np.cumsum(approximations._interval_masses(f, knots))])
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
    rng = derive_rng(41, 0)
    if ties:
        a, b = rng.integers(1, 30, 700).astype(float), rng.integers(2, 31, 900).astype(float)
    else:
        a, b = rng.gamma(2.0, size=700), rng.gamma(2.1, size=900)
    statistic, _ = approximations._ks_two_sample(a, b)
    assert statistic == stats.ks_2samp(np.log(a), np.log(b), method="asymp").statistic


def test_ks_retest_pvalue_near_scipy():
    # the 200k-draw retest of test_valid_config_passes_validation, replayed
    cfg = AifaConfig(beta_process(5.0, 1.0, 0.0), 5)
    rng = np.random.Generator(np.random.Philox(12345))
    for n in (10_000, 200_000):
        a, b = cfg.sample(n, rng), cfg._reference_sample(n, rng)
    _, pvalue = approximations._ks_two_sample(a, b)
    assert pvalue == pytest.approx(stats.ks_2samp(np.log(a), np.log(b), method="asymp").pvalue,
                                   rel=0.01)


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

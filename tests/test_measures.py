import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from crmfinite.measures import (
    Family,
    IndicatorKind,
    RateMeasureSpec,
    beta_process,
    gamma_process,
    indicator_value,
    log_rate_density,
    rate_measure,
    small_weight_coefficient,
)

ALL_SPECS = [
    beta_process(1.0, 1.5, 0.0),
    beta_process(2.0, 0.0, 0.6),
    rate_measure("beta_prime", 1.3, 0.3, eta=1.2),
    gamma_process(1.0, 2.0, 0.0),
    gamma_process(0.7, 1.0, 0.4),
    rate_measure("generalized_gamma", 1.1, 0.2, eta1=2.0, eta2=1.5),
]


def test_beta_density_value():
    spec = beta_process(1.0, 1.0, 0.0)
    assert np.exp(log_rate_density(spec, 0.5)) == pytest.approx(2.0, rel=1e-12)


def test_gamma_density_value():
    spec = gamma_process(1.0, 1.0, 0.0)
    assert np.exp(log_rate_density(spec, 1.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError, match="theta must be finite"):
        log_rate_density(spec, math.inf)  # inside the unbounded support, but no density


def test_beta_density_outside_support():
    spec = beta_process(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        log_rate_density(spec, 1.5)
    with pytest.raises(ValueError):
        log_rate_density(spec, 0.0)
    with pytest.raises(ValueError):
        log_rate_density(spec, -0.1)


def test_spec_validation_eager():
    with pytest.raises(ValueError):
        rate_measure("beta", -1.0, 0.0, eta=1.0)
    with pytest.raises(ValueError):
        rate_measure("beta", 1.0, 1.0, eta=1.0)   # discount must be < 1
    with pytest.raises(ValueError):
        rate_measure("beta", 1.0, 0.0, eta=0.0)
    with pytest.raises(ValueError):
        rate_measure("gamma", 1.0, 0.0, rate=-2.0)
    with pytest.raises(ValueError):
        rate_measure("gamma", 1.0, 0.0, eta=1.0)  # wrong extras key
    with pytest.raises(ValueError):
        rate_measure("generalized_gamma", 1.0, 0.0, eta1=1.0)
    # beta_process adds alpha and d into eta, so each is checked before the sum
    for bad in (True, "x"):
        with pytest.raises(ValueError, match="alpha"):
            beta_process(1.0, bad)
        with pytest.raises(ValueError, match="discount"):
            beta_process(1.0, 1.0, bad)


def test_normalizer_values():
    bp, gp = beta_process(1.0, 1.0, 0.0), gamma_process(1.0, 2.0, 0.0)
    assert math.exp(bp.log_normalizer(1.0)) == pytest.approx(1.0, rel=1e-14)
    assert math.exp(gp.log_normalizer(2.0)) == pytest.approx(0.25, rel=1e-14)
    gg = rate_measure("generalized_gamma", 1.0, 0.0, eta1=2.0, eta2=1.5)
    xi = 1.7
    expected = math.gamma(xi / 1.5) * (2.0 * 1.5) ** (-xi)
    assert math.exp(gg.log_normalizer(xi)) == pytest.approx(expected, rel=1e-12)


def test_normalizer_domain():
    with pytest.raises(ValueError):
        beta_process(1.0, 1.0, 0.0).log_normalizer(0.0)
    with pytest.raises(ValueError):
        gamma_process(1.0, 1.0, 0.0).log_normalizer(-0.5)


_EXTRAS = {"beta": {"eta": 1.5}, "beta_prime": {"eta": 1.2}, "gamma": {"rate": 2.0},
           "generalized_gamma": {"eta1": 2.0, "eta2": 1.5}}


@pytest.mark.parametrize("family", [f.value for f in Family])
def test_rate_measure_families_conform(family):
    # every family builds from its name into a class of that family whose
    # fields after gamma and d are its extras; the JSON form round-trips, and
    # wrong extras or a normalizer argument xi <= 0 raise ValueError
    extras = _EXTRAS[family]
    spec = rate_measure(family, 1.3, 0.2, **extras)
    assert type(spec).family is Family(family) and spec.family.value == family
    assert spec.extra_keys() == tuple(extras)
    assert {k: getattr(spec, k) for k in extras} == extras
    assert spec.to_json() == {"family": family, "gamma": 1.3, "discount": 0.2, "extras": extras}
    assert RateMeasureSpec.from_json(spec.to_json()) == spec
    keys = ", ".join(repr(k) for k in extras)
    for wrong in ({}, {**extras, "extra": 1.0}, {"lam" if "rate" not in extras else "eta": 1.0}):
        with pytest.raises(ValueError, match=f"{family} spec needs extras \\({keys}"):
            rate_measure(family, 1.3, 0.2, **wrong)
    for xi in (0.0, -0.5):
        with pytest.raises(ValueError, match="xi > 0"):
            spec.log_normalizer(xi)
    assert rate_measure(family, 1.3, 0.2, **extras) == spec
    assert rate_measure(family, 1.3, 0.3, **extras) != spec


def test_serialization_round_trip():
    for spec in ALL_SPECS:
        again = RateMeasureSpec.from_json(spec.to_json())
        assert again == spec


def _linear_density(spec, theta):
    """gamma theta^(-1-d) g^(-d) h / Z(1-d, eta), term by term on the linear scale."""
    d, xi = spec.discount, 1.0 - spec.discount
    head = spec.gamma * theta ** (-1.0 - d)
    if spec.family is Family.BETA:
        return head * (1.0 - theta) ** (spec.eta - 1.0) / special.beta(xi, spec.eta)
    if spec.family is Family.BETA_PRIME:
        return head * (1.0 + theta) ** (d - spec.eta) / special.beta(xi, spec.eta)
    if spec.family is Family.GAMMA:
        return head * math.exp(-spec.rate * theta) / (special.gamma(xi) * spec.rate ** -xi)
    eta1, eta2 = spec.eta1, spec.eta2
    return (head * math.exp(-((eta1 * theta) ** eta2))
            / (special.gamma(xi / eta2) * (eta1 * eta2) ** -xi))


def test_log_vs_linear_agreement():
    for spec in ALL_SPECS:
        hi = 0.99 if spec.family is Family.BETA else 5.0
        for theta in np.geomspace(1e-3, hi, 40):
            log_val = log_rate_density(spec, theta)
            lin = _linear_density(spec, theta)
            if np.isfinite(log_val) and 0 < lin < 1e300:
                assert math.log(lin) == pytest.approx(log_val, rel=1e-12, abs=1e-12)


def test_levy_integrability():
    # quadrature of min(1, theta)*nu is finite over the whole support
    for spec in ALL_SPECS:
        hi = 1.0 if spec.family is Family.BETA else np.inf
        val, err = integrate.quad(lambda t: min(1.0, t) * np.exp(log_rate_density(spec, t)),
                                  0, hi, limit=300)
        assert np.isfinite(val) and val > 0 and err < 1e-6 * max(1.0, val)


def test_rate_mass_diverges_near_zero():
    # partial integrals of nu grow without bound as the lower limit shrinks
    # (integrated in t = log theta, which the steep theta^(-1-d) factor needs)
    for spec in ALL_SPECS:
        partials = []
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            val, _ = integrate.quad(
                lambda t: np.exp(log_rate_density(spec, math.exp(t))) * math.exp(t),
                math.log(eps), 0.0, limit=400)
            partials.append(val)
        assert all(b > a for a, b in zip(partials, partials[1:]))
        assert partials[-1] > partials[0] + 1.0


def test_small_weight_coefficient_matches_families():
    # c = gamma * h(0)/Z(1-d) reduces to the familiar constants at d = 0
    assert small_weight_coefficient(beta_process(2.0, 3.0, 0.0)) == pytest.approx(6.0, rel=1e-12)
    assert small_weight_coefficient(gamma_process(2.0, 1.5, 0.0)) == pytest.approx(3.0, rel=1e-12)
    bp = rate_measure("beta_prime", 2.0, 0.0, eta=1.5)
    assert small_weight_coefficient(bp) == pytest.approx(3.0, rel=1e-12)
    gg = rate_measure("generalized_gamma", 2.0, 0.0, eta1=1.0, eta2=2.0)
    assert small_weight_coefficient(gg) == pytest.approx(
        2.0 * 1.0 * 2.0 / math.gamma(0.5), rel=1e-12)


# -- indicators ---------------------------------------------------------------

def test_indicator_spec_values():
    assert indicator_value("smoothed", 0.1, -0.5) == 0.0
    assert indicator_value("smoothed", 0.1, 0.2) == 1.0
    assert indicator_value("smoothed", 1.0, 0.5) == pytest.approx(
        math.exp(-1.0 / 3.0), rel=1e-12)
    assert indicator_value("hard", 1.0, 0.0) == 0.0
    assert indicator_value("hard", 1.0, 1e-9) == 1.0


@settings(deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=1e-3, max_value=10.0),
       st.lists(st.floats(min_value=-5, max_value=15), min_size=2, max_size=30))
@example(1.9444115538540037, [0.0, 3.838544973076532e-123])  # 1 - (t-b)^2/b^2 rounds below 0
def test_indicator_monotone_and_bounded(b, thetas):
    vals = [indicator_value(IndicatorKind.SMOOTHED, b, t) for t in sorted(thetas)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))


def test_indicator_continuity_at_knots():
    assert indicator_value("smoothed", 0.7, 1e-12) == pytest.approx(0.0, abs=1e-9)
    assert indicator_value("smoothed", 0.7, 0.7 - 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_indicator_width_validation():
    for width in (0.0, -1.0, math.inf, True):
        with pytest.raises(ValueError, match="indicator width"):
            indicator_value("smoothed", width, 0.5)
    with pytest.raises(ValueError, match="soft"):
        indicator_value("soft", 1.0, 0.5)

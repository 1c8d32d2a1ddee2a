"""Rate measures of the four supported CRM families and approximate indicators.

A rate measure is stored in the decomposition

    nu(dtheta) = gamma * theta^(-1-d) * g(theta)^(-d) * h(theta; eta) / Z(1-d, eta) dtheta

where the pair (g, h) and the normalizer Z are fixed per family:

    family            g(theta)         h(theta; eta)           Z(xi, eta)
    ----------------  ---------------  ----------------------  --------------------------------
    Beta              1                (1-theta)^(eta-1), th<=1   B(xi, eta)
    BetaPrime         1/(1+theta)      (1+theta)^(-eta)        B(xi, eta)
    Gamma             1                exp(-lambda*theta)      Gamma(xi) * lambda^(-xi)
    GeneralizedGamma  1                exp(-(eta1*theta)^eta2) Gamma(xi/eta2) * (eta1*eta2)^(-xi)

All evaluation happens in log space; linear-scale wrappers exponentiate last.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .checks import positive, real

__all__ = [
    "Family",
    "RateMeasureSpec",
    "ApproxIndicator",
    "IndicatorKind",
    "beta_process",
    "gamma_process",
    "log_rate_density",
    "log_normalizer",
    "normalizer",
    "small_weight_coefficient",
    "indicator_value",
]


class Family(enum.Enum):
    BETA = "beta"
    BETA_PRIME = "beta_prime"
    GAMMA = "gamma"
    GENERALIZED_GAMMA = "generalized_gamma"


# extras key names per family, used by validation and (de)serialization
_EXTRA_KEYS = {
    Family.BETA: ("eta",),
    Family.BETA_PRIME: ("eta",),
    Family.GAMMA: ("rate",),
    Family.GENERALIZED_GAMMA: ("eta1", "eta2"),
}


@dataclass(frozen=True)
class RateMeasureSpec:
    """Immutable description of one CRM rate measure.

    gamma is the total-mass parameter, d in [0, 1) the discount controlling
    the power law near zero, and extras holds the family-specific positive
    hyperparameters (see _EXTRA_KEYS). Validation is eager: a constructed
    spec is always usable downstream.
    """

    family: Family
    gamma: float
    discount: float
    extras: tuple  # ((name, value), ...) kept hashable

    def __init__(self, family, gamma, discount, **extras):
        object.__setattr__(self, "family", Family(family))
        object.__setattr__(self, "gamma", positive(gamma, "mass gamma"))
        object.__setattr__(self, "discount", real(discount, "discount"))
        keys = _EXTRA_KEYS[self.family]
        if set(extras) != set(keys):
            raise ValueError(f"{self.family.value} spec needs extras {keys}, got {tuple(extras)}")
        object.__setattr__(self, "extras", tuple(
            (k, positive(extras[k], f"{self.family.value} extra {k}")) for k in keys))
        if not 0 <= self.discount < 1:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")

    def extra(self, name: str) -> float:
        return dict(self.extras)[name]

    @property
    def support_upper(self) -> float:
        return 1.0 if self.family is Family.BETA else math.inf

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "gamma": self.gamma,
            "discount": self.discount,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RateMeasureSpec":
        return cls(obj["family"], obj["gamma"], obj["discount"], **obj["extras"])


def beta_process(gamma, alpha, d=0.0) -> RateMeasureSpec:
    """BP(gamma, alpha, d) as a RateMeasureSpec; the stored eta is alpha + d."""
    return RateMeasureSpec(Family.BETA, gamma, d, eta=alpha + d)


def gamma_process(gamma, rate=1.0, d=0.0) -> RateMeasureSpec:
    return RateMeasureSpec(Family.GAMMA, gamma, d, rate=rate)


# -- the (g, h) pair, in log space ------------------------------------------

def log_g(spec: RateMeasureSpec, theta):
    theta = np.asarray(theta, dtype=float)
    if spec.family is Family.BETA_PRIME:
        return -np.log1p(theta)
    return np.zeros_like(theta)


def log_h(spec: RateMeasureSpec, theta):
    """log h(theta; eta); h(0) = 1 for all four families."""
    theta = np.asarray(theta, dtype=float)
    if spec.family is Family.BETA:
        eta = spec.extra("eta")
        if eta == 1.0:  # avoid 0 * log(0) = nan at theta = 1
            return np.zeros_like(theta)
        return (eta - 1.0) * np.log1p(-theta)
    if spec.family is Family.BETA_PRIME:
        return -spec.extra("eta") * np.log1p(theta)
    if spec.family is Family.GAMMA:
        return -spec.extra("rate") * theta
    eta1, eta2 = spec.extra("eta1"), spec.extra("eta2")
    return -((eta1 * theta) ** eta2)


def log_normalizer(spec: RateMeasureSpec, xi) -> float:
    """log Z(xi, eta) for the family's closed-form normalizer."""
    xi = float(xi)
    if spec.family in (Family.BETA, Family.BETA_PRIME):
        eta = spec.extra("eta")
        if xi <= 0:
            raise ValueError(f"B(xi, eta) requires xi > 0, got xi={xi}")
        return float(special.betaln(xi, eta))
    if spec.family is Family.GAMMA:
        lam = spec.extra("rate")
        if xi <= 0:
            raise ValueError(f"Gamma-family normalizer requires xi > 0, got xi={xi}")
        return float(special.gammaln(xi) - xi * math.log(lam))
    eta1, eta2 = spec.extra("eta1"), spec.extra("eta2")
    if xi <= 0:
        raise ValueError(f"generalized-gamma normalizer requires xi > 0, got xi={xi}")
    return float(special.gammaln(xi / eta2) - xi * math.log(eta1 * eta2))


def normalizer(spec: RateMeasureSpec, xi) -> float:
    return math.exp(log_normalizer(spec, xi))


def small_weight_coefficient(spec: RateMeasureSpec) -> float:
    """c = gamma * h(0; eta) / Z(1 - d, eta), the coefficient of the
    theta^(-1-d) singularity of the rate density (h(0) = 1 here)."""
    return spec.gamma * math.exp(-log_normalizer(spec, 1.0 - spec.discount))


def log_rate_density(spec: RateMeasureSpec, theta):
    """log of the Lebesgue density of nu at theta (theta in the open support).

    Scalar theta outside the support raises ValueError; array input must be
    entirely inside the support.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(~np.isfinite(theta_arr)):
        raise ValueError("theta must be finite")
    if np.any(theta_arr <= 0) or np.any(theta_arr > spec.support_upper):
        raise ValueError(f"theta outside the support of the {spec.family.value} family")
    out = (
        math.log(spec.gamma)
        - log_normalizer(spec, 1.0 - spec.discount)
        + (-1.0 - spec.discount) * np.log(theta_arr)
        - spec.discount * log_g(spec, theta_arr)
        + log_h(spec, theta_arr)
    )
    return out if out.shape else float(out)


# -- approximate indicators ---------------------------------------------------

class IndicatorKind(enum.Enum):
    HARD = "hard"
    SMOOTHED = "smoothed"


@dataclass(frozen=True)
class ApproxIndicator:
    """A non-decreasing ramp S_b: 0 for theta <= 0, 1 for theta >= b.

    HARD is the step 1{theta > 0}.  SMOOTHED is the differentiable bump
    transition exp(-1 / (1 - (theta-b)^2/b^2) + 1) on (0, b).
    """

    kind: IndicatorKind
    width: float

    def __post_init__(self):
        object.__setattr__(self, "kind", IndicatorKind(self.kind))
        object.__setattr__(self, "width", float(self.width))
        if not self.width > 0:
            raise ValueError(f"indicator width must be positive, got {self.width}")


def indicator_value(ind: ApproxIndicator, theta):
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    out = (t > 0).astype(float)
    if ind.kind is IndicatorKind.SMOOTHED:
        b = ind.width
        inside = (t > 0) & (t < b)
        if np.any(inside):
            u = 1.0 - (t[inside] - b) ** 2 / b**2
            with np.errstate(divide="ignore", under="ignore", over="ignore"):
                # u -> 0+ at the left knot: limit 0; there rounding can leave u <= 0
                out[inside] = np.where(u > 0, np.exp(-1.0 / u + 1.0), 0.0)
    return float(out[0]) if np.ndim(theta) == 0 else out.reshape(np.shape(theta))

"""Rate measures of the four supported CRM families and approximate indicators.

A rate measure is stored in the decomposition

    nu(dtheta) = gamma * theta^(-1-d) * g(theta)^(-d) * h(theta; eta) / Z(1-d, eta) dtheta

where the pair (g, h) and the normalizer Z are fixed per family.  Each family
is one frozen subclass of ``RateMeasureSpec`` whose typed fields after gamma and
d are its hyperparameters (eta; rate lambda; eta1, eta2) and whose methods give
g, h and Z in log space, and the family's d = 0 level-K law in closed form:

    class                    g(theta)     h(theta; eta)            Z(xi, eta)
    -----------------------  -----------  -----------------------  ----------------------------------
    BetaMeasure              1            (1-theta)^(eta-1), th<=1 B(xi, eta)
    BetaPrimeMeasure         1/(1+theta)  (1+theta)^(-eta)         B(xi, eta)
    GammaMeasure             1            exp(-lambda*theta)       Gamma(xi) * lambda^(-xi)
    GeneralizedGammaMeasure  1            exp(-(eta1*theta)^eta2)  Gamma(xi/eta2) * (eta1*eta2)^(-xi)

``rate_measure(family, gamma, discount, **extras)`` builds one by family name.
Callers use a spec's methods, except ``log_g`` and ``log_h``: these stay module
functions, which take theta as any array-like and which perfbench's tracer counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import _special as special
from .checks import positive, real

__all__ = [
    "Family",
    "RateMeasureSpec",
    "BetaMeasure",
    "BetaPrimeMeasure",
    "GammaMeasure",
    "GeneralizedGammaMeasure",
    "IndicatorKind",
    "rate_measure",
    "beta_process",
    "gamma_process",
    "log_rate_density",
    "small_weight_coefficient",
    "indicator_value",
]


class Family(enum.Enum):
    BETA = "beta"
    BETA_PRIME = "beta_prime"
    GAMMA = "gamma"
    GENERALIZED_GAMMA = "generalized_gamma"


@dataclass(frozen=True)
class RateMeasureSpec:
    """Immutable description of one CRM rate measure: one subclass per family.

    gamma is the total-mass parameter and d in [0, 1) the discount
    controlling the power law near zero; the fields after them are the
    family's positive hyperparameters (its extras).  Validation is eager: a
    constructed spec is always usable downstream.
    """

    gamma: float
    discount: float
    family: ClassVar[Family]
    support_upper: ClassVar[float] = math.inf  # the right end of the support

    def __post_init__(self):
        object.__setattr__(self, "gamma", positive(self.gamma, "mass gamma"))
        object.__setattr__(self, "discount", real(self.discount, "discount"))
        for key in self.extra_keys():
            object.__setattr__(self, key, positive(getattr(self, key),
                                                   f"{self.family.value} extra {key}"))
        if not 0 <= self.discount < 1:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")

    @classmethod
    def extra_keys(cls) -> tuple:
        """Names of the family's hyperparameters, in field order."""
        return tuple(f.name for f in fields(cls)[2:])

    def to_json(self) -> dict:
        extras = {key: getattr(self, key) for key in self.extra_keys()}
        return {"family": self.family.value, "gamma": self.gamma, "discount": self.discount,
                "extras": extras}

    @classmethod
    def from_json(cls, obj: dict) -> "RateMeasureSpec":
        return rate_measure(obj["family"], obj["gamma"], obj["discount"], **obj["extras"])

    def support_points(self, theta):
        """theta as a float array; ValueError unless every entry lies in
        (0, support_upper], the support of the rate measure and its laws."""
        theta = np.asarray(theta, dtype=float)
        if not np.all((theta > 0) & (theta <= self.support_upper)):
            raise ValueError(f"theta outside the support of the {self.family.value} family")
        return theta

    # -- the (g, h) pair and Z, in log space; theta is a float array ----------

    def log_g(self, theta):
        return np.zeros_like(theta)

    def log_normalizer(self, xi) -> float:
        """log Z(xi, eta) for the family's closed-form normalizer."""
        xi = float(xi)
        if xi <= 0:
            raise ValueError(f"the {self.family.value} normalizer requires xi > 0, got xi={xi}")
        return float(self._log_z(xi))


@dataclass(frozen=True)
class BetaMeasure(RateMeasureSpec):
    """The beta family; at d = 0 the level-K law is Beta(c/K, eta)."""

    eta: float
    family = Family.BETA
    support_upper = 1.0

    @property
    def edge_power(self):
        """p in h = (1 - theta)^(p - 1): the singular right end of the support."""
        return self.eta

    def log_h(self, theta):
        if self.eta == 1.0:  # avoid 0 * log(0) = nan at theta = 1
            return np.zeros_like(theta)
        with np.errstate(divide="ignore"):  # log h(1) = -inf for eta > 1, +inf for eta < 1
            return (self.eta - 1.0) * np.log1p(-theta)

    def _log_z(self, xi):
        return special.betaln(xi, self.eta)

    def closed_form_rows(self, shape, size, rng):
        return rng.beta(shape, self.eta, size=size)

    def closed_form_log_density(self, shape, theta):
        a, b = shape, self.eta
        return (a - 1) * np.log(theta) + (b - 1) * np.log1p(-theta) - special.betaln(a, b)


@dataclass(frozen=True)
class BetaPrimeMeasure(RateMeasureSpec):
    """The beta-prime family; at d = 0 the level-K law is BetaPrime(c/K, eta)."""

    eta: float
    family = Family.BETA_PRIME

    def log_g(self, theta):
        return -np.log1p(theta)

    def log_h(self, theta):
        return -self.eta * np.log1p(theta)

    def _log_z(self, xi):
        return special.betaln(xi, self.eta)

    def closed_form_rows(self, shape, size, rng):
        return rng.gamma(shape, 1.0, size=size) / rng.gamma(self.eta, 1.0, size=size)

    def closed_form_log_density(self, shape, theta):
        a, b = shape, self.eta
        return (a - 1) * np.log(theta) - (a + b) * np.log1p(theta) - special.betaln(a, b)


@dataclass(frozen=True)
class GammaMeasure(RateMeasureSpec):
    """The gamma family; at d = 0 the level-K law is Gamma(c/K, rate lambda)."""

    rate: float
    family = Family.GAMMA

    def log_h(self, theta):
        return -self.rate * theta

    def _log_z(self, xi):
        return special.gammaln(xi) - xi * math.log(self.rate)

    def closed_form_rows(self, shape, size, rng):
        return rng.gamma(shape, 1.0 / self.rate, size=size)

    def closed_form_log_density(self, shape, theta):
        a, lam = shape, self.rate
        return a * math.log(lam) + (a - 1) * np.log(theta) - lam * theta - special.gammaln(a)


@dataclass(frozen=True)
class GeneralizedGammaMeasure(RateMeasureSpec):
    """The generalized-gamma family; at d = 0 the level-K law is
    GenGamma(scale 1/eta1, shape c/K, power eta2)."""

    eta1: float
    eta2: float
    family = Family.GENERALIZED_GAMMA

    def log_h(self, theta):
        return -((self.eta1 * theta) ** self.eta2)

    def _log_z(self, xi):
        return special.gammaln(xi / self.eta2) - xi * math.log(self.eta1 * self.eta2)

    def closed_form_rows(self, shape, size, rng):
        scale, power = 1.0 / self.eta1, self.eta2
        return scale * rng.gamma(shape / power, 1.0, size=size) ** (1.0 / power)

    def closed_form_log_density(self, shape, theta):
        scale, power = 1.0 / self.eta1, self.eta2
        return (math.log(power) - shape * math.log(scale) + (shape - 1) * np.log(theta)
                - (theta / scale) ** power - special.gammaln(shape / power))


# the one map from a family to its class
_FAMILIES = {cls.family: cls for cls in (BetaMeasure, BetaPrimeMeasure, GammaMeasure,
                                         GeneralizedGammaMeasure)}


def rate_measure(family, gamma, discount, **extras) -> RateMeasureSpec:
    """The spec of ``family`` (a Family or its name) with its extras as keywords."""
    cls = _FAMILIES[Family(family)]
    keys = cls.extra_keys()
    if set(extras) != set(keys):
        raise ValueError(f"{cls.family.value} spec needs extras {keys}, got {tuple(extras)}")
    return cls(gamma, discount, **extras)


def beta_process(gamma, alpha, d=0.0) -> RateMeasureSpec:
    """BP(gamma, alpha, d) as a RateMeasureSpec; the stored eta is alpha + d."""
    return BetaMeasure(gamma, d, real(alpha, "alpha") + real(d, "discount"))


def gamma_process(gamma, rate=1.0, d=0.0) -> RateMeasureSpec:
    return GammaMeasure(gamma, d, rate)


# -- module functions over any spec ---------------------------------------------

def log_g(spec: RateMeasureSpec, theta):
    return spec.log_g(np.asarray(theta, dtype=float))


def log_h(spec: RateMeasureSpec, theta):
    """log h(theta; eta); h(0) = 1 for all four families."""
    return spec.log_h(np.asarray(theta, dtype=float))


def small_weight_coefficient(spec: RateMeasureSpec) -> float:
    """c = gamma * h(0; eta) / Z(1 - d, eta), the coefficient of the
    theta^(-1-d) singularity of the rate density (h(0) = 1 here)."""
    return spec.gamma * math.exp(-spec.log_normalizer(1.0 - spec.discount))


def log_rate_density(spec: RateMeasureSpec, theta):
    """log of the Lebesgue density of nu at theta (theta in the open support).

    Scalar theta outside the support raises ValueError; array input must be
    entirely inside the support.
    """
    theta_arr = spec.support_points(theta)
    if not np.all(np.isfinite(theta_arr)):
        raise ValueError("theta must be finite")
    out = (
        math.log(spec.gamma)
        - spec.log_normalizer(1.0 - spec.discount)
        + (-1.0 - spec.discount) * np.log(theta_arr)
        - spec.discount * log_g(spec, theta_arr)
        + log_h(spec, theta_arr)
    )
    return out if out.shape else float(out)


# -- approximate indicators ---------------------------------------------------

class IndicatorKind(enum.Enum):
    HARD = "hard"
    SMOOTHED = "smoothed"


def indicator_value(kind, width, theta):
    """S_b(theta) with b = width: a non-decreasing ramp, 0 for theta <= 0, 1 for theta >= b.

    HARD is the step 1{theta > 0}.  SMOOTHED is the differentiable bump
    transition exp(-1 / (1 - (theta-b)^2/b^2) + 1) on (0, b).
    """
    kind, b = IndicatorKind(kind), positive(width, "indicator width")
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    out = (t > 0).astype(float)
    if kind is IndicatorKind.SMOOTHED:
        inside = (t > 0) & (t < b)
        if np.any(inside):
            u = 1.0 - (t[inside] - b) ** 2 / b**2
            with np.errstate(divide="ignore", under="ignore", over="ignore"):
                # u -> 0+ at the left knot: limit 0; there rounding can leave u <= 0
                out[inside] = np.where(u > 0, np.exp(-1.0 / u + 1.0), 0.0)
    return float(out[0]) if np.ndim(theta) == 0 else out.reshape(np.shape(theta))

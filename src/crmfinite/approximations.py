"""Finite-approximation atom-size laws and their samplers.

Seven kinds are supported:

* AifaNumeric      -- i.i.d. draws from the K-atom independent-approximation
                      density nu_K(theta) = theta^(-1 + c/K - d*S_b(theta - a/K))
                      * g(theta)^(c/K - d) * h(theta) / Z_K, any discount d.
* AifaClosedForm   -- the d = 0 special case, where nu_K is a named
                      exponential family (beta, gamma, beta prime, gen. gamma).
* Bondesson        -- series truncation theta_k = V_k exp(-Gamma_k/(gamma*alpha)).
* BetaStickBreaking-- Poisson-round stick-breaking truncation for the beta process.
* TSB              -- truncated stick-breaking of the Dirichlet process (v_K = 1).
* FSD              -- finite symmetric Dirichlet(gamma/K, ..., gamma/K).
* BFRY             -- competitor i.i.d. construction for power-law beta processes.

Z_K and the sampling tables come from piecewise quadrature: the support is
split at the indicator knots a/K and a/K + b_K, pieces are transformed
(theta = e^t in the body, power substitutions at singular endpoints) and
integrated by adaptive Gauss-Legendre to 1e-10 absolute on the transformed
scale.  Numeric sampling combines exact power-law draws on the singular
head (and, for the beta family, the right edge) with a monotone-cubic
inverse-CDF table on 4096 log-spaced knots for the body; the table is
validated once per configuration against an envelope rejection sampler.

``sample_weights(dist, rng, size=R)`` is the one sampling entry point: a
table maps each kind to a sampler that draws all R rows in one call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator

from .measures import (
    ApproxIndicator,
    Family,
    IndicatorKind,
    RateMeasureSpec,
    indicator_value,
    log_g,
    log_h,
    log_normalizer,
    small_weight_coefficient,
)
from .quadrature import gauss_legendre

__all__ = [
    "AifaConfig",
    "WeightKind",
    "WeightDistribution",
    "aifa_closed_form",
    "closed_form_log_density",
    "aifa_numeric",
    "bondesson",
    "beta_stick_breaking",
    "tsb",
    "fsd",
    "bfry",
    "sample_weights",
    "bfry_log_density",
]

_TABLE_KNOTS = 4096
_QUAD_TOL = 1e-10
_WEIGHT_FLOOR = 1e-300  # sampled atom sizes are clamped here; see module notes
_KS_LIMIT = 0.02
_KS_DRAWS = 10_000
_KS_RETEST_DRAWS = 200_000
_KS_RETEST_P = 1e-6


# ---------------------------------------------------------------------------
# numeric AIFA configuration
# ---------------------------------------------------------------------------

def _default_b(K):
    return 1.0 / K


class AifaConfig:
    """Approximation level K of spec, with shift a and indicator width b_K.

    Defaults are a = 1, b_K = 1/K, smoothed indicator.  ``b`` may be a number
    or a rule K -> width.  The normalizer, piece masses and inverse-CDF table
    are built on first use and cached; treat instances as immutable.
    """

    def __init__(self, spec: RateMeasureSpec, K: int, a: float = 1.0, b=None,
                 indicator_kind: IndicatorKind = IndicatorKind.SMOOTHED):
        if K < 1:
            raise ValueError(f"approximation level K must be >= 1, got {K}")
        if not a > 0:
            raise ValueError(f"shift a must be positive, got {a}")
        self.spec = spec
        self.K = int(K)
        self.a = float(a)
        rule = _default_b if b is None else b
        self.b = float(rule(K)) if callable(rule) else float(rule)
        if not self.b > 0:
            raise ValueError(f"indicator width b_K must be positive, got {self.b}")
        self.indicator = ApproxIndicator(IndicatorKind(indicator_kind), self.b)
        self.c = small_weight_coefficient(spec)
        self.eps = self.c / self.K  # exponent c/K near zero
        self._tables = None
        self._validated = False
        self._failure = None  # the RuntimeError of a failed validation, re-raised

    # -- unnormalized log density -------------------------------------------

    def _log_power(self, theta):
        """(eps - 1 - d S_b(theta - a/K)) log theta: the power-law part of log f."""
        expo = (self.eps - 1.0
                - self.spec.discount * np.asarray(indicator_value(self.indicator, theta - self.a / self.K)))
        return expo * np.log(theta)

    def _log_f(self, theta):
        theta = np.asarray(theta, dtype=float)
        spec = self.spec
        return self._log_power(theta) + (self.eps - spec.discount) * log_g(spec, theta) + log_h(spec, theta)

    def _f(self, theta):
        return np.exp(self._log_f(theta))

    # -- piecewise quadrature ------------------------------------------------

    def _head_weight(self, theta):
        """w(theta) = g^(eps-d) h on the head (0, a/K], where S_b = 0."""
        spec = self.spec
        return np.exp((self.eps - spec.discount) * log_g(spec, theta) + log_h(spec, theta))

    def _build(self):
        if self._tables is not None:
            return self._tables
        spec, K = self.spec, self.K
        upper = spec.support_upper
        m1 = min(self.a / K, upper)
        m2 = min(m1 + self.b, upper)

        # head (0, m1]: theta^(eps-1) w(theta); the beta family adds its right
        # edge (1 - delta, 1], (1-theta)^(eta-1) times the power-law part of f,
        # also when K <= a and eta < 1, where w would be unbounded at theta = 1
        edge = None
        if spec.family is Family.BETA and (m1 < 1.0 or spec.extra("eta") < 1.0):
            delta = min(1e-3, 0.5 * (1.0 - m1)) if m1 < 1.0 else 1e-3
            edge = _EndPiece(delta, spec.extra("eta"), lambda v: np.exp(self._log_power(1.0 - v)))
            m1 = min(m1, 1.0 - delta)
            body_hi = 1.0 - delta
        elif spec.family is Family.BETA:
            body_hi = m1  # head swallowed the whole support (K <= a)
        else:
            body_hi = self._unbounded_right_end(m1, m2)
        head = _EndPiece(m1, self.eps, self._head_weight)

        # body [m1, body_hi]: 4096-knot table; log-spaced with the indicator
        # knot m2 inserted, beta additionally refined toward the right edge
        inverse = (_InverseCdf(self._f, self._body_knots(m1, m2, body_hi))
                   if body_hi > m1 * (1 + 1e-12) else None)
        edge_mass = 0.0 if edge is None else edge.mass
        total = head.mass + (0.0 if inverse is None else inverse.mass) + edge_mass
        self._tables = {"head": head, "edge": edge, "inverse": inverse, "log_z": math.log(total),
                        "head_p": head.mass / total, "edge_p": edge_mass / total}
        return self._tables

    def _body_knots(self, m1, m2, body_hi):
        n = _TABLE_KNOTS
        if self.spec.family is Family.BETA:
            split = min(max(0.5, m2 * 1.5), 0.5 * (m1 + body_hi))
            if split <= m1 or split >= body_hi:
                knots = np.geomspace(m1, body_hi, n)
            else:
                left = np.geomspace(m1, split, n // 2)
                right = 1.0 - np.geomspace(1.0 - body_hi, 1.0 - split, n - n // 2)[::-1]
                knots = np.concatenate([left, right])
        else:
            knots = np.geomspace(m1, body_hi, n)
        if m1 < m2 < body_hi:
            knots = np.append(knots, m2)
        return np.unique(knots)

    def _unbounded_right_end(self, m1, m2):
        """Expand to the right until the remaining tail is negligible."""
        t = math.log(max(m2, m1 * (1 + 1e-9)))
        total = 0.0
        quiet = 0
        for _ in range(200):
            piece = gauss_legendre(lambda s: self._f(np.exp(s)) * np.exp(s), t, t + 3.0, _QUAD_TOL)
            total += piece
            t += 3.0
            if piece < max(1e-16 * max(total, 1.0), 1e-300):
                quiet += 1
                if quiet >= 2:
                    return math.exp(t)
            else:
                quiet = 0
        raise RuntimeError("AIFA tail expansion did not terminate; rate measure may be invalid")

    # -- public: normalizer and density ---------------------------------------

    @property
    def log_z(self) -> float:
        return self._build()["log_z"]

    def log_density(self, theta):
        """Normalized log nu_K(theta)."""
        theta_arr = np.asarray(theta, dtype=float)
        if np.any(theta_arr <= 0) or np.any(theta_arr > self.spec.support_upper):
            raise ValueError("theta outside the support")
        out = self._log_f(theta_arr) - self.log_z
        return out if out.shape else float(out)

    # -- sampling --------------------------------------------------------------

    def sample(self, n, rng):
        """n i.i.d. draws from nu_K (not yet grouped into K-vectors)."""
        if self._failure is not None:
            raise self._failure
        if not self._validated:
            self._validated = True  # set first: _validate draws via this method
            try:
                self._validate()
            except RuntimeError as exc:
                self._failure = exc
                raise
        return self._draw(n, rng, self._table_body)

    def _reference_sample(self, n, rng):
        """Envelope rejection sampler over the same pieces (validation path).

        Head and edge reuse their exact power-law schemes; the body is drawn
        by rejection against a piecewise-constant envelope on the knot grid,
        which does not rely on the interpolated inverse CDF.
        """
        return self._draw(n, rng, self._rejection_body)

    def _draw(self, n, rng, body):
        """Pick a piece per draw by one uniform, then fill head, edge and
        body in that order; ``body(q, rng)`` maps the body's rescaled
        uniforms q to atom sizes."""
        t = self._build()
        u = rng.random(n)
        head_p, edge_p = t["head_p"], t["edge_p"]
        is_head = u < head_p
        is_edge = u >= 1.0 - edge_p if edge_p > 0 else np.zeros(n, dtype=bool)
        is_body = ~is_head & ~is_edge
        if t["inverse"] is None:
            # no body piece; stray u in the rounding crack goes to the head
            is_head |= is_body
            is_body[:] = False
        out = np.empty(n)
        if is_head.any():
            out[is_head] = t["head"].sample(int(is_head.sum()), rng)
        if is_edge.any():
            out[is_edge] = 1.0 - t["edge"].sample(int(is_edge.sum()), rng)
        if is_body.any():
            q = np.clip((u[is_body] - head_p) / max(1.0 - head_p - edge_p, 1e-300), 0.0, 1.0)
            out[is_body] = body(q, rng)
        return out

    def _table_body(self, q, rng):
        return self._tables["inverse"](q)

    def _rejection_body(self, q, rng):
        knots = self._tables["inverse"].knots
        fk = self._f(knots)
        env = 1.5 * np.maximum(fk[:-1], fk[1:])
        widths = np.diff(knots)
        probs = env * widths / (env * widths).sum()
        draws = np.empty(q.size)
        filled = 0
        while filled < q.size:
            take = q.size - filled
            j = rng.choice(probs.size, size=take, p=probs)
            theta = knots[j] + widths[j] * rng.random(take)
            acc = theta[rng.random(take) * env[j] <= self._f(theta)]
            draws[filled:filled + acc.size] = acc
            filled += acc.size
        return draws

    def _validate(self):
        """One-time two-sample KS check of the table sampler (fixed seed).

        A screen at 10k draws passes below KS 0.02; a config that misses it
        is retested on 200k fresh draws and fails only at p < 1e-6, which
        still flags any table error above about 0.009 in CDF distance.
        """
        rng = np.random.Generator(np.random.Philox(12345))
        ks = _ks_two_sample(self.sample(_KS_DRAWS, rng), self._reference_sample(_KS_DRAWS, rng))
        if ks.statistic < _KS_LIMIT:
            return
        retest = _ks_two_sample(self.sample(_KS_RETEST_DRAWS, rng),
                                self._reference_sample(_KS_RETEST_DRAWS, rng))
        if retest.pvalue < _KS_RETEST_P:
            raise RuntimeError(
                "inverse-CDF table failed its rejection-sampler cross-check: "
                f"KS={ks.statistic:.4f} at {_KS_DRAWS} draws, "
                f"p={retest.pvalue:.2g} at {_KS_RETEST_DRAWS} draws")


def _pow_safe(u, power):
    """u**power for u in [0,1] without warnings when the result underflows."""
    with np.errstate(under="ignore", divide="ignore"):
        out = np.log(np.asarray(u, dtype=float))  # log 0 = -inf, so 0 maps to 0
        out *= power
        return np.exp(out, out=out)


class _EndPiece:
    """Density proportional to v^(power-1) weight(v) on (0, scale]: a
    singular end of the support in local coordinate v (theta = v on the
    head, theta = 1 - v on the beta right edge).  The mass comes from the
    substitution u = (v/scale)^power, which removes the singularity, and
    weight's sup from a 128-point log grid."""

    def __init__(self, scale, power, weight):
        self.scale, self.power, self.weight = scale, power, weight
        self.mass = (scale**power / power) * gauss_legendre(
            lambda u: weight(scale * _pow_safe(u, 1.0 / power)), 0.0, 1.0, _QUAD_TOL)
        grid = scale * np.exp(np.linspace(math.log(1e-15), 0.0, 128))
        self.sup = float(weight(grid).max()) * (1.0 + 1e-9)

    def sample(self, n, rng):
        """n draws of v: exact power-law proposals v = scale U^(1/power),
        clamped to _WEIGHT_FLOOR and accepted with probability weight(v)/sup."""
        out = np.empty(n)
        filled = 0
        while filled < n:
            m = n - filled
            v = _pow_safe(rng.random(m), 1.0 / self.power)
            v *= self.scale
            np.maximum(v, _WEIGHT_FLOOR, out=v)
            u = rng.random(m)
            u *= self.sup
            take = v[u <= self.weight(v)]
            out[filled:filled + take.size] = take
            filled += take.size
        return out


class _InverseCdf:
    """Monotone-cubic (PCHIP) inverse CDF of density f over a knot grid.

    ``below`` and ``above`` are the masses below the first and above the
    last knot (known analytically), which the table maps to its end knots;
    a uniform that falls outside the table goes to the nearer end knot.
    ``mass`` is f's mass over the knot intervals."""

    def __init__(self, f, knots, below=0.0, above=0.0):
        masses = _interval_masses(f, knots)
        self.mass = float(masses.sum())
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        cum = np.maximum.accumulate(cum)
        keep = np.concatenate([[True], np.diff(cum) > 0])
        self._interp = PchipInterpolator((below + cum[keep]) / (below + cum[-1] + above),
                                         knots[keep], extrapolate=False)
        self.knots = knots
        self.lo, self.hi = knots[0], knots[-1]

    def __call__(self, q):
        x = self._interp(q)
        x = np.where(np.isnan(x), np.where(q > 0.5, self.hi, self.lo), x)
        return np.clip(x, self.lo, self.hi)


def _interval_masses(f, knots):
    """Fixed-order Gauss-Legendre mass of f over each knot interval (log scale)."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    lo = np.log(knots[:-1])
    hi = np.log(knots[1:])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    theta = np.exp(t)
    vals = f(theta.ravel()).reshape(theta.shape) * theta
    return half * (vals * weights[None, :]).sum(axis=1)


def _ks_two_sample(a, b):
    from scipy import stats  # imported here: it nearly doubles the import time of the CLI
    return stats.ks_2samp(np.log(a), np.log(b), method="asymp")


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------

class WeightKind(enum.Enum):
    AIFA_NUMERIC = "aifa_numeric"
    AIFA_CLOSED_FORM = "aifa_closed_form"
    BONDESSON = "bondesson"
    BETA_STICK_BREAKING = "beta_stick_breaking"
    TSB = "tsb"
    FSD = "fsd"
    BFRY = "bfry"


@dataclass(frozen=True)
class WeightDistribution:
    """One finite-approximation atom-size law at level K."""

    kind: WeightKind
    K: int
    params: dict = field(compare=False)


def aifa_numeric(cfg: AifaConfig) -> WeightDistribution:
    return WeightDistribution(WeightKind.AIFA_NUMERIC, cfg.K, {"config": cfg})


def aifa_closed_form(spec: RateMeasureSpec, K: int) -> WeightDistribution:
    """The named exponential-family law nu_K for a d = 0 rate measure.

    Beta eta -> Beta(gamma*eta/K, eta); Gamma lambda -> Gamma(gamma*lambda/K, lambda);
    BetaPrime eta -> BetaPrime(gamma*eta/K, eta); GeneralizedGamma (eta1, eta2) ->
    GenGamma(scale 1/eta1, shape c/K, power eta2) with c = gamma*eta1*eta2/Gamma(1/eta2).
    """
    if spec.discount != 0.0:
        raise ValueError("closed-form approximation exists only for discount d = 0")
    K = _check_level(K)
    c = small_weight_coefficient(spec)
    fam = spec.family
    if fam is Family.BETA:
        params = {"family": fam.value, "shape1": c / K, "shape2": spec.extra("eta")}
    elif fam is Family.GAMMA:
        params = {"family": fam.value, "shape": c / K, "rate": spec.extra("rate")}
    elif fam is Family.BETA_PRIME:
        params = {"family": fam.value, "shape1": c / K, "shape2": spec.extra("eta")}
    else:
        eta1, eta2 = spec.extra("eta1"), spec.extra("eta2")
        params = {"family": fam.value, "scale": 1.0 / eta1, "shape": c / K, "power": eta2}
    return WeightDistribution(WeightKind.AIFA_CLOSED_FORM, K, params)


def closed_form_log_density(dist: WeightDistribution, theta):
    """Log density of an AifaClosedForm law (vectorized in theta)."""
    if dist.kind is not WeightKind.AIFA_CLOSED_FORM:
        raise ValueError("closed_form_log_density expects an AifaClosedForm distribution")
    p = dist.params
    theta = np.asarray(theta, dtype=float)
    fam = Family(p["family"])
    if fam is Family.BETA:
        a, b = p["shape1"], p["shape2"]
        return (a - 1) * np.log(theta) + (b - 1) * np.log1p(-theta) - special.betaln(a, b)
    if fam is Family.GAMMA:
        a, lam = p["shape"], p["rate"]
        return a * math.log(lam) + (a - 1) * np.log(theta) - lam * theta - special.gammaln(a)
    if fam is Family.BETA_PRIME:
        a, b = p["shape1"], p["shape2"]
        return (a - 1) * np.log(theta) - (a + b) * np.log1p(theta) - special.betaln(a, b)
    scale, shape, power = p["scale"], p["shape"], p["power"]
    return (math.log(power) - shape * math.log(scale) + (shape - 1) * np.log(theta)
            - (theta / scale) ** power - special.gammaln(shape / power))


def _check_level(K):
    if int(K) < 1:
        raise ValueError(f"approximation level K must be >= 1, got {K}")
    return int(K)


def bondesson(gamma, alpha, K) -> WeightDistribution:
    if alpha < 1:
        raise ValueError(f"the Bondesson construction requires alpha >= 1, got {alpha}")
    return WeightDistribution(WeightKind.BONDESSON, _check_level(K),
                              {"gamma": float(gamma), "alpha": float(alpha)})


def beta_stick_breaking(gamma, alpha, K) -> WeightDistribution:
    return WeightDistribution(WeightKind.BETA_STICK_BREAKING, _check_level(K),
                              {"gamma": float(gamma), "alpha": float(alpha)})


def tsb(alpha, K) -> WeightDistribution:
    return WeightDistribution(WeightKind.TSB, _check_level(K), {"alpha": float(alpha)})


def fsd(gamma, K) -> WeightDistribution:
    return WeightDistribution(WeightKind.FSD, _check_level(K), {"gamma": float(gamma)})


def bfry(gamma, d, K) -> WeightDistribution:
    if not 0 < d < 1:
        raise ValueError(f"BFRY discount must lie in (0, 1), got {d}")
    return WeightDistribution(WeightKind.BFRY, _check_level(K), {"gamma": float(gamma), "d": float(d)})


# ---------------------------------------------------------------------------
# BFRY density and numeric sampler
# ---------------------------------------------------------------------------

def bfry_log_density(c, alpha, s):
    """log of the two-parameter BFRY density
    g(s) = (c / Gamma(1-alpha)) s^(-alpha-1) (1 - exp(-(alpha/c)^(1/alpha) s)).
    """
    if not 0 < alpha < 1:
        raise ValueError(f"BFRY exponent alpha must lie in (0, 1), got {alpha}")
    if not c > 0:
        raise ValueError(f"BFRY scale c must be positive, got {c}")
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("BFRY support is s > 0")
    t = (alpha / c) ** (1.0 / alpha)
    with np.errstate(under="ignore"):
        log_frac = np.log(-np.expm1(-t * s))
    out = math.log(c) - special.gammaln(1.0 - alpha) - (alpha + 1.0) * np.log(s) + log_frac
    return out if out.shape else float(out)


_BFRY_TABLES: dict = {}


def _bfry_table(c, alpha):
    key = (float(c), float(alpha))
    if key in _BFRY_TABLES:
        return _BFRY_TABLES[key]
    t = (alpha / c) ** (1.0 / alpha)
    amp = c / math.exp(special.gammaln(1.0 - alpha))
    # density ~ amp * t * s^(-alpha) near 0 and ~ amp * s^(-alpha-1) at infinity
    s_lo = (1e-13 * (1.0 - alpha) / (amp * t)) ** (1.0 / (1.0 - alpha))
    s_hi = (amp / (alpha * 1e-13)) ** (1.0 / alpha)
    table = _InverseCdf(lambda s: np.exp(bfry_log_density(c, alpha, s)),
                        np.geomspace(s_lo, s_hi, _TABLE_KNOTS),
                        below=amp * t * s_lo ** (1.0 - alpha) / (1.0 - alpha),
                        above=amp * s_hi**-alpha / alpha)
    _BFRY_TABLES[key] = table
    return table


# ---------------------------------------------------------------------------
# sampling front end: one batched sampler per kind, each returning (R, K) rows
# ---------------------------------------------------------------------------

def _rows_aifa_numeric(p, K, R, rng):
    return np.maximum(p["config"].sample(R * K, rng).reshape(R, K), _WEIGHT_FLOOR)


def _rows_closed_form(p, K, R, rng):
    fam, size = Family(p["family"]), (R, K)
    if fam is Family.BETA:
        out = rng.beta(p["shape1"], p["shape2"], size=size)
    elif fam is Family.GAMMA:
        out = rng.gamma(p["shape"], 1.0 / p["rate"], size=size)
    elif fam is Family.BETA_PRIME:
        out = rng.gamma(p["shape1"], 1.0, size=size) / rng.gamma(p["shape2"], 1.0, size=size)
    else:
        out = p["scale"] * rng.gamma(p["shape"] / p["power"], 1.0, size=size) ** (1.0 / p["power"])
    return np.maximum(out, _WEIGHT_FLOOR)


def _rows_bondesson(p, K, R, rng):
    gamma, alpha = p["gamma"], p["alpha"]
    arrivals = np.cumsum(rng.exponential(size=(R, K)), axis=1)
    # alpha = 1 is the Beta(1, 0) limit: V is a point mass at 1
    v = np.ones((R, K)) if alpha == 1.0 else rng.beta(1.0, alpha - 1.0, size=(R, K))
    return np.maximum(v * np.exp(-arrivals / (gamma * alpha)), _WEIGHT_FLOOR)


def _rows_beta_stick_breaking(p, K, R, rng):
    """Round i holds C_i ~ Poisson(gamma) atoms v prod_{j<i}(1 - v_j), v_j ~
    Beta(1, alpha).  Each -log(1 - v_j) is Exp(alpha), so the product is
    exp(-G) with G ~ Gamma(i - 1, scale 1/alpha): one beta and one gamma draw
    per atom.  Atoms stay in round order; rows are zero-padded to the longest."""
    counts = rng.poisson(p["gamma"], size=(R, K))
    rounds = np.repeat(np.tile(np.arange(K, dtype=float), R), counts.ravel())
    v = rng.beta(1.0, p["alpha"], size=rounds.size)
    atoms = np.maximum(v * np.exp(-rng.gamma(rounds, 1.0 / p["alpha"])), _WEIGHT_FLOOR)
    lengths = counts.sum(axis=1)
    row = np.repeat(np.arange(R), lengths)
    col = np.arange(rounds.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    out = np.zeros((R, int(lengths.max(initial=0))))
    out[row, col] = atoms
    return out


def _rows_tsb(p, K, R, rng):
    v = np.ones((R, K))
    v[:, : K - 1] = rng.beta(1.0, p["alpha"], size=(R, K - 1))
    stick = np.concatenate([np.ones((R, 1)), np.cumprod(1.0 - v[:, :-1], axis=1)], axis=1)
    return v * stick


def _rows_fsd(p, K, R, rng):
    return rng.dirichlet(np.full(K, p["gamma"] / K), size=R)


def _rows_bfry(p, K, R, rng):
    s = _bfry_table(p["gamma"] / K, p["d"])(rng.random(R * K)).reshape(R, K)
    return np.maximum(s / (s + 1.0), _WEIGHT_FLOOR)


_SAMPLERS = {
    WeightKind.AIFA_NUMERIC: _rows_aifa_numeric,
    WeightKind.AIFA_CLOSED_FORM: _rows_closed_form,
    WeightKind.BONDESSON: _rows_bondesson,
    WeightKind.BETA_STICK_BREAKING: _rows_beta_stick_breaking,
    WeightKind.TSB: _rows_tsb,
    WeightKind.FSD: _rows_fsd,
    WeightKind.BFRY: _rows_bfry,
}


def sample_weights(dist: WeightDistribution, rng, size=None) -> np.ndarray:
    """Atom-size vectors: one K-vector, or an (R, K) array for ``size=R``.

    Rows are independent realizations drawn in one call.  BetaStickBreaking
    is the exception to length K: its round sizes C_i ~ Poisson(gamma) make
    the atom count random, so one vector has that many entries and batched
    rows are zero-padded past each row's count (real atoms are >= 1e-300).
    Draws are i.i.d. for the AIFA, FSD and BFRY kinds and sequentially
    coupled for the rest.
    """
    rows = _SAMPLERS[dist.kind](dist.params, dist.K, 1 if size is None else int(size), rng)
    return rows[0] if size is None else rows

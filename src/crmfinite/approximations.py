"""Finite-approximation atom-size laws and their samplers.

Seven kinds are supported, each named by its class's ``kind`` string:

* aifa_numeric        -- ``AifaConfig``: i.i.d. draws from the K-atom
                         independent-approximation density nu_K(theta) =
                         theta^(-1 + c/K - d*S_b(theta - a/K)) * g(theta)^(c/K - d)
                         * h(theta) / Z_K, any discount d.
* aifa_closed_form    -- the d = 0 special case, where nu_K is a named
                         exponential family (beta, gamma, beta prime, gen. gamma).
* bondesson           -- series truncation theta_k = V_k exp(-Gamma_k/(gamma*alpha)).
* beta_stick_breaking -- Poisson-round stick-breaking truncation for the beta process.
* tsb                 -- truncated stick-breaking of the Dirichlet process (v_K = 1).
* fsd                 -- finite symmetric Dirichlet(gamma/K, ..., gamma/K).
* bfry                -- competitor i.i.d. construction for power-law beta processes.

Z_K and the sampling tables come from piecewise quadrature: the support is
split at the indicator knots a/K and a/K + b_K, pieces are transformed
(theta = e^t in the body, power substitutions at singular endpoints) and
integrated by adaptive Gauss-Legendre to 1e-10 absolute on the transformed
scale.  Numeric sampling picks one of four pieces per draw: the point mass
at the 1e-300 floor where atom sizes are clamped (the head's mass on
(0, 1e-300], a share that grows with K), exact power-law draws on the
singular head above the floor (and, for the beta family, the right edge),
and a monotone-cubic inverse-CDF table on 4096 log-spaced knots for the
body.  The end pieces sample by rejection, from an envelope whose sup and
inf provably bound the piece's weight: on the head, whose weight g^(eps-d) h
is monotone for all four families, its values at the ends of [1e-300, a/K];
on the beta edge, whose weight (1-v)^(eps-1-d S_b) has a non-decreasing
S_b, 1 and (1-delta)^(eps-1-d S_b) at S_b's values at the edge's two ends.
A uniform below the inf accepts without evaluating the weight.  The sampler is
checked once per configuration against nu_K's exact CDF over the head, body
and edge, with two point masses: draws clamped to the 1e-300 floor, and for
the beta family draws of 1.0, to which an edge draw 1 - v rounds for
v <= 2^-54.

Each kind is one ``WeightDistribution`` class: ``AifaConfig`` itself for the
numeric law, and a frozen class built by its constructor (``aifa_closed_form``,
``bondesson``, ...) for the rest.  Its ``rows(R, rng)`` draws all R rows in one
call for ``sample_weights(dist, rng, size=R)``, the one sampling entry point;
the two AIFA laws also give their normalized ``log_density(theta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _special as special
from .checks import instance, integer, positive, real
from .measures import (
    IndicatorKind,
    RateMeasureSpec,
    indicator_value,
    log_g,
    log_h,
    small_weight_coefficient,
)
from .quadrature import gauss_legendre

__all__ = [
    "AifaConfig",
    "WeightDistribution",
    "aifa_closed_form",
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
_GUIDE_CELLS = 1 << 16  # inverse-CDF guide-table cells over [0, 1]
_GUIDE_MIN = 256  # fewer uniforms than this search the knots directly, at less overhead
_EVAL_CHUNK = 1 << 15  # uniforms per inverse-CDF evaluation pass, sized to stay in cache


class WeightDistribution:
    """One finite-approximation atom-size law at level K, whose ``rows(R,
    rng)`` draws R rows of atom sizes in one call: ``AifaConfig``, or a frozen
    dataclass whose fields are its constructor's parameters."""

    kind: ClassVar[str]


# ---------------------------------------------------------------------------
# numeric AIFA law
# ---------------------------------------------------------------------------

_WIDTH_RULES = {"1/K": lambda K: 1.0 / K, "1/sqrt(K)": lambda K: 1.0 / math.sqrt(K)}


class AifaConfig(WeightDistribution):
    """The numeric AIFA law at approximation level K of spec, with shift a and
    indicator width b_K; instances compare by identity.

    Defaults are a = 1, b_K = 1/K, smoothed indicator.  ``b`` may be a number
    or the name of a rule K -> width: "1/K" or "1/sqrt(K)".  The normalizer,
    piece masses and inverse-CDF table are built on first use and cached;
    treat instances as immutable.
    """

    kind = "aifa_numeric"

    def __init__(self, spec: RateMeasureSpec, K: int, a: float = 1.0, b=None,
                 indicator_kind: IndicatorKind = IndicatorKind.SMOOTHED):
        self.spec = spec
        self.K = _check_level(K)
        self.a = positive(a, "shift a")
        if b is None or isinstance(b, str):
            rule = _WIDTH_RULES.get("1/K" if b is None else b)
            if rule is None:
                raise ValueError(f"indicator width b must be a number, '1/K' or '1/sqrt(K)', "
                                 f"got {b!r}")
            b = rule(self.K)
        self.b = positive(b, "indicator width b_K")
        self.indicator_kind = IndicatorKind(indicator_kind)
        self.c = small_weight_coefficient(spec)
        self.eps = self.c / self.K  # exponent c/K near zero
        self._tables = None
        self._validated = False
        self._failure = None  # the RuntimeError of a failed validation, re-raised

    # -- unnormalized log density -------------------------------------------

    def _log_power(self, theta):
        """(eps - 1 - d S_b(theta - a/K)) log theta: the power-law part of log f."""
        s_b = indicator_value(self.indicator_kind, self.b, theta - self.a / self.K)
        expo = self.eps - 1.0 - self.spec.discount * np.asarray(s_b)
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

        # head (0, m1]: theta^(eps-1) w(theta); a support bounded at 1 (the
        # beta family) adds its right edge (1 - delta, 1], (1-theta)^(p-1) times
        # the power-law part of f, also when K <= a and p < 1, where w would be
        # unbounded at theta = 1
        edge = None
        if upper < math.inf and (m1 < 1.0 or spec.edge_power < 1.0):
            delta = min(1e-3, 0.5 * (1.0 - m1)) if m1 < 1.0 else 1e-3
            # the weight (1-v)^(eps-1-d S_b), log(1-v) in [log(1-delta), 0] and S_b
            # non-decreasing in theta = 1 - v, lies between 1 and these two powers
            s_b = indicator_value(self.indicator_kind, self.b,
                                  np.array([1.0 - delta, 1.0]) - self.a / K)
            lo, hi = np.exp((self.eps - 1.0 - spec.discount * s_b) * math.log(1.0 - delta))
            edge = _EndPiece(delta, spec.edge_power, lambda v: np.exp(self._log_power(1.0 - v)),
                             (min(1.0, lo), max(1.0, hi)))
            m1 = min(m1, 1.0 - delta)
            body_hi = 1.0 - delta
        elif upper < math.inf:
            body_hi = m1  # head swallowed the whole support (K <= a)
        else:
            body_hi = self._unbounded_right_end(m1, m2)
        ends = self._head_weight(np.array([_WEIGHT_FLOOR, m1]))  # monotone for all families
        head = _EndPiece(m1, self.eps, self._head_weight, (ends.min(), ends.max()),
                         lo=_WEIGHT_FLOOR)

        # body [m1, body_hi]: 4096-knot table; log-spaced with the indicator
        # knot m2 inserted, a bounded support refined toward its right edge.
        # A body whose mass underflows to 0 is dropped, as is an empty one
        inverse = None
        if body_hi > m1 * (1 + 1e-12):
            knots = self._body_knots(m1, m2, body_hi)
            masses = _interval_masses(self._f, knots[:-1], knots[1:])
            inverse = _InverseCdf(self._f, knots, masses) if masses.sum() > 0 else None
        edge_mass = 0.0 if edge is None else edge.mass
        total = head.mass + (0.0 if inverse is None else inverse.mass) + edge_mass
        self._tables = {"head": head, "edge": edge, "inverse": inverse, "log_z": math.log(total),
                        "head_p": head.mass / total, "edge_p": edge_mass / total,
                        "floor_p": head.lo_mass / total}
        return self._tables

    def _body_knots(self, m1, m2, body_hi):
        n = _TABLE_KNOTS
        if self.spec.support_upper < math.inf:
            # strictly inside (m1, body_hi), as m2 >= m1 > 0 and body_hi > m1 (1 + 1e-12)
            split = min(max(0.5, m2 * 1.5), 0.5 * (m1 + body_hi))
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
        out = self._log_f(self.spec.support_points(theta)) - self.log_z
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
        return self._draw(n, rng)

    def rows(self, R, rng):
        return np.maximum(self.sample(R * self.K, rng).reshape(R, self.K), _WEIGHT_FLOOR)

    def _draw(self, n, rng):
        """Pick a piece per draw by one uniform u: the floor's point mass at
        1e-300 for u < floor_p (no further draw), the head above the floor for
        u < head_p, the edge for u >= 1 - edge_p and the body, through the
        inverse-CDF table, between; head, edge and body are filled in turn."""
        t = self._build()
        u = rng.random(n)
        head_p, edge_p, inverse = t["head_p"], t["edge_p"], t["inverse"]
        out = np.full(n, _WEIGHT_FLOOR)
        # no body piece: stray u in the rounding crack goes to the head
        below_body = u < (head_p if inverse is not None else 1.0 - edge_p)
        head = np.flatnonzero(below_body & (u >= t["floor_p"]))
        is_edge = u >= 1.0 - edge_p if edge_p > 0 else None
        if head.size:
            out[head] = t["head"].sample(head.size, rng)
        if is_edge is not None and (m := np.count_nonzero(is_edge)):
            out[is_edge] = 1.0 - t["edge"].sample(m, rng)
        if inverse is not None:
            body = np.flatnonzero(~below_body if is_edge is None else ~(below_body | is_edge))
            if body.size:
                q = np.clip((u[body] - head_p) / max(1.0 - head_p - edge_p, 1e-300), 0.0, 1.0)
                out[body] = inverse(q)
        return out

    def _cdf(self, theta):
        """nu_K's CDF at a sample's ascending distinct draws theta, from the
        pieces' own masses (not the sampler's piece split or table).  At 1.0,
        to which the edge draws v <= 2^-54 round, it gives F(1.0-), the mass
        below 1.0, with v = 2^-54 taken in turn among the sorted edge points."""
        t = self._build()
        head, edge, total = t["head"], t["edge"], math.exp(t["log_z"])
        ends = [head.scale, math.inf if edge is None else 1.0 - edge.scale]
        h, e = np.searchsorted(theta, ends, side="right")
        out = np.empty(theta.size)
        out[:h] = head.partial_masses(theta[:h])
        if h < e:
            out[h:e] = head.mass + t["inverse"].partial_masses(theta[h:e])
        if e < theta.size:
            v = np.maximum(1.0 - theta[e:][::-1], 2.0**-54)
            out[e:] = total - edge.partial_masses(v)[::-1]
        return out / total

    def _validate(self):
        """One-time one-sample KS check of the sampler against nu_K's CDF.

        A screen at 10k draws passes below KS 0.02; a config that misses it
        is retested on 200k fresh draws and fails only at p < 1e-6, which
        still flags any sampler error above about 0.006 in CDF distance.
        """
        rng = np.random.Generator(np.random.Philox(12345))
        atom_at_one = self.spec.support_upper == 1.0
        ks, _ = _ks_one_sample(self.sample(_KS_DRAWS, rng), self._cdf, atom_at_one)
        if ks < _KS_LIMIT:
            return
        _, p = _ks_one_sample(self.sample(_KS_RETEST_DRAWS, rng), self._cdf, atom_at_one)
        if p < _KS_RETEST_P:
            raise RuntimeError(
                "AIFA sampler failed its exact-CDF check: "
                f"KS={ks:.4f} at {_KS_DRAWS} draws, p={p:.2g} at {_KS_RETEST_DRAWS} draws")


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
    substitution u = (v/scale)^power, which removes the singularity.

    ``sample`` draws from the piece above ``lo`` (the 1e-300 floor on the
    head, 0 on the edge), with u uniform on [c, 1), c = (lo/scale)^power.
    ``mass`` covers all of (0, scale] and ``lo_mass`` (0, lo], by the same
    adaptive rule on u in [0, 1] and [0, c].

    ``bounds`` = (inf, sup) bound the weight where proposals lie, from the
    caller: the head's monotone g^(eps-d) h takes its two end values on
    [_WEIGHT_FLOOR, scale], the beta edge the bounds of its power of 1 - v.
    ``sup`` is grown by 1e-9 and ``inf`` shrunk by 1e-12, to cover rounding.
    ``sample`` accepts a proposal whose scaled uniform is <= inf without
    evaluating weight, which changes no draw.
    """

    def __init__(self, scale, power, weight, bounds, lo=0.0):
        self.scale, self.power, self.weight = scale, power, weight
        self._weight_of_u = lambda u: weight(scale * _pow_safe(u, 1.0 / power))
        self.mass = (scale**power / power) * gauss_legendre(self._weight_of_u, 0.0, 1.0, _QUAD_TOL)
        self.c = math.exp(power * (math.log(lo) - math.log(scale))) if lo > 0 else 0.0
        self.lo_mass = (scale**power / power) * gauss_legendre(self._weight_of_u, 0.0, self.c,
                                                               _QUAD_TOL)
        self.inf, self.sup = float(bounds[0]) * (1.0 - 1e-12), float(bounds[1]) * (1.0 + 1e-9)

    def partial_masses(self, v):
        """Mass of (0, v] at each v of a sample's ascending draws (close where
        the mass is): a 3-point Gauss-Legendre rule in u between neighbours, summed."""
        u = _pow_safe(v / self.scale, self.power)
        steps = _gauss_masses(self._weight_of_u, np.concatenate([[0.0], u])[:-1], u, 3)
        return (self.scale**self.power / self.power) * np.cumsum(steps)

    def sample(self, n, rng):
        """n draws of v above lo: exact power-law proposals v = scale U'^(1/power)
        with U' = c + (1 - c) U, clamped to _WEIGHT_FLOOR and accepted with
        probability weight(v)/sup.  U' is formed as 1 - (1 - c)(1 - U), which
        is U itself, bit for bit, wherever 1 - c rounds to 1."""
        rounds, filled = [], 0
        with np.errstate(under="ignore", divide="ignore"):  # log 0 = -inf ends at the floor
            while filled < n:
                m = n - filled
                v = rng.random(m)
                v -= 1.0
                v *= 1.0 - self.c
                v += 1.0
                np.log(v, out=v)
                v *= 1.0 / self.power
                np.exp(v, out=v)
                v *= self.scale
                np.maximum(v, _WEIGHT_FLOOR, out=v)
                u = rng.random(m)
                u *= self.sup
                keep = u <= self.inf
                rest = np.flatnonzero(~keep)
                if rest.size:
                    keep[rest] = u[rest] <= self.weight(v[rest])
                    v = v[keep]
                rounds.append(v)
                filled += v.size
        return rounds[0] if len(rounds) == 1 else np.concatenate(rounds)


class _InverseCdf:
    """Monotone-cubic (PCHIP) inverse CDF of density f over a knot grid.

    ``masses`` are f's masses over the knot intervals (``_interval_masses``),
    with a positive sum ``mass``.  ``below`` and ``above`` are the masses below
    the first and above the last knot (known analytically), which the table
    maps to its end knots; a uniform that falls outside the table goes to the
    nearer end knot.  Values are bit-identical to scipy's ``PchipInterpolator``
    on the same table."""

    def __init__(self, f, knots, masses, below=0.0, above=0.0):
        self.mass = float(masses.sum())
        self._f = f
        cum = self._cum = np.maximum.accumulate(np.concatenate([[0.0], np.cumsum(masses)]))
        keep = np.concatenate([[True], np.diff(cum) > 0])
        x = (below + cum[keep]) / (below + cum[-1] + above)
        self._coef = _pchip_coefficients(x, knots[keep])
        self._x = x
        # guide table over [0, 1]: cell j holds the interval of every q in
        # [j, j + 1] / cells, or -1 where a knot splits the cell
        ends = self._interval(np.arange(_GUIDE_CELLS + 2) / _GUIDE_CELLS)
        self._guide = np.where(ends[:-1] == ends[1:], ends[:-1], -1)
        self.knots = knots
        self.lo, self.hi = knots[0], knots[-1]

    def partial_masses(self, theta):
        """f's mass over [lo, theta] at each theta in [lo, hi]: the knot
        intervals below theta's, plus the same 12-point rule from its knot."""
        i = np.clip(np.searchsorted(self.knots, theta, side="right") - 1, 0, self.knots.size - 2)
        return self._cum[i] + _interval_masses(self._f, self.knots[i], theta)

    def _interval(self, q):
        """i with x[i] <= q < x[i+1], clipped to the table: the count of
        inner knots <= q (q = x[-1] falls in the last interval, as in PPoly)."""
        return np.searchsorted(self._x[1:-1], q, side="right")

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        out = np.empty(flat.size)
        for k in range(0, flat.size, _EVAL_CHUNK):
            out[k:k + _EVAL_CHUNK] = self._eval(flat[k:k + _EVAL_CHUNK])
        return out.reshape(q.shape)

    def _eval(self, q):
        x, q_lo, q_hi = self._x, q.min(), q.max()
        if q.size >= _GUIDE_MIN and 0.0 <= q_lo and q_hi <= 1.0:
            # q * cells is exact (a power of 2), so its floor is q's guide cell
            i = self._guide.take((q * _GUIDE_CELLS).astype(np.intp))
            split = np.flatnonzero(i < 0)
            i[split] = self._interval(q[split])
        else:
            i = self._interval(q)
        s = q - x.take(i)
        c0, c1, c2, c3 = self._coef.take(i, axis=1)
        # ((c3 + c2 s) + c1 s^2) + c0 s^3, the order in which PPoly sums it
        out = c2 * s
        out += c3
        s2 = s * s
        s *= s2
        s2 *= c1
        out += s2
        s *= c0
        out += s
        if not (x[0] <= q_lo and q_hi <= x[-1]):  # a NaN q lands here too
            off = ~((q >= x[0]) & (q <= x[-1]))
            out[off] = np.where(q[off] > 0.5, self.hi, self.lo)
        np.maximum(out, self.lo, out=out)
        return np.minimum(out, self.hi, out=out)


def _pchip_coefficients(x, y):
    """(4, n - 1) coefficients of the monotone cubic (PCHIP) spline through
    (x, y): column i is the cubic in s = q - x[i], highest power first.
    The arithmetic is scipy's PchipInterpolator (slopes as in its
    _find_derivatives and _edge_case, coefficients as in CubicHermiteSpline),
    so the values are bit-identical to it."""
    h = np.diff(x)
    if x.size < 2 or not np.all(np.isfinite(x)) or not np.all(h > 0):
        raise ValueError("a PCHIP table needs at least 2 finite, strictly increasing x")
    m = np.diff(y) / h
    d = np.full(x.size, m[0])  # two knots: the line through them
    if x.size > 2:
        # interior: weighted harmonic mean of the secants, 0 where they change
        # sign or vanish; ends: a one-sided three-point estimate, kept shape-preserving
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        wild = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(wild, 3.0 * m0, e))
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _gauss_masses(f, lo, hi, order):
    """order-point Gauss-Legendre integral of f over each [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    t = mid[:, None] + half[:, None] * nodes[None, :]
    return half * (f(t.ravel()).reshape(t.shape) * weights[None, :]).sum(axis=1)


def _interval_masses(f, lo, hi):
    """12-point Gauss-Legendre mass of f over each [lo, hi], on the log scale."""
    return _gauss_masses(lambda t: f(np.exp(t)) * np.exp(t), np.log(lo), np.log(hi), 12)


def _ks_one_sample(x, cdf, atom_at_one=False):
    """(statistic, asymptotic p-value) of the one-sample KS test of x against
    the CDF ``cdf``, called once on x's ascending distinct values; the p-value
    is Kolmogorov's limit law at sqrt(n) D.  Draws clamped to _WEIGHT_FLOOR are
    a point mass: ``cdf`` gives F(floor), and F(floor-) is 0.  With
    ``atom_at_one`` (a law on (0, 1], whose edge draws 1 - v round to 1.0 for
    v <= 2^-54) so are draws of 1.0: ``cdf`` gives F(1.0-), and F(1.0) is 1."""
    values, counts = np.unique(x, return_counts=True)
    seen = np.cumsum(counts)
    f = cdf(values)
    f_before = np.where(values == _WEIGHT_FLOOR, 0.0, f)
    if atom_at_one and values[-1] == 1.0:
        f[-1] = 1.0
    stat = float(max((seen / x.size - f).max(), (f_before - (seen - counts) / x.size).max()))
    return stat, float(special.kolmogorov(math.sqrt(x.size) * stat))


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _AifaClosedForm(WeightDistribution):
    """The spec family's named law at shape c/K (d = 0)."""

    spec: RateMeasureSpec
    K: int
    kind = "aifa_closed_form"

    @property
    def shape(self):
        return small_weight_coefficient(self.spec) / self.K

    def rows(self, R, rng):
        return np.maximum(self.spec.closed_form_rows(self.shape, (R, self.K), rng), _WEIGHT_FLOOR)

    def log_density(self, theta):
        """Normalized log nu_K(theta), vectorized in theta."""
        out = self.spec.closed_form_log_density(self.shape, self.spec.support_points(theta))
        return out if out.shape else float(out)


@dataclass(frozen=True)
class _Bondesson(WeightDistribution):
    gamma: float
    alpha: float
    K: int
    kind = "bondesson"

    def rows(self, R, rng):
        K = self.K
        arrivals = np.cumsum(rng.exponential(size=(R, K)), axis=1)
        # alpha = 1 is the Beta(1, 0) limit: V is a point mass at 1
        v = np.ones((R, K)) if self.alpha == 1.0 else rng.beta(1.0, self.alpha - 1.0, size=(R, K))
        return np.maximum(v * np.exp(-arrivals / (self.gamma * self.alpha)), _WEIGHT_FLOOR)


@dataclass(frozen=True)
class _BetaStickBreaking(WeightDistribution):
    gamma: float
    alpha: float
    K: int
    kind = "beta_stick_breaking"

    def rows(self, R, rng):
        """Round i holds C_i ~ Poisson(gamma) atoms v prod_{j<i}(1 - v_j), v_j ~
        Beta(1, alpha).  Each -log(1 - v_j) is Exp(alpha), so the product is
        exp(-G) with G ~ Gamma(i - 1, scale 1/alpha): one beta and one gamma draw
        per atom.  Atoms stay in round order; rows are zero-padded to the longest."""
        counts = rng.poisson(self.gamma, size=(R, self.K))
        rounds = np.repeat(np.tile(np.arange(self.K, dtype=float), R), counts.ravel())
        v = rng.beta(1.0, self.alpha, size=rounds.size)
        atoms = np.maximum(v * np.exp(-rng.gamma(rounds, 1.0 / self.alpha)), _WEIGHT_FLOOR)
        lengths = counts.sum(axis=1)
        row = np.repeat(np.arange(R), lengths)
        col = np.arange(rounds.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        out = np.zeros((R, int(lengths.max(initial=0))))
        out[row, col] = atoms
        return out


@dataclass(frozen=True)
class _Tsb(WeightDistribution):
    alpha: float
    K: int
    kind = "tsb"

    def rows(self, R, rng):
        K = self.K
        v = np.ones((R, K))
        v[:, : K - 1] = rng.beta(1.0, self.alpha, size=(R, K - 1))
        stick = np.concatenate([np.ones((R, 1)), np.cumprod(1.0 - v[:, :-1], axis=1)], axis=1)
        return v * stick


@dataclass(frozen=True)
class _Fsd(WeightDistribution):
    gamma: float
    K: int
    kind = "fsd"

    def rows(self, R, rng):
        return rng.dirichlet(np.full(self.K, self.gamma / self.K), size=R)


@dataclass(frozen=True)
class _Bfry(WeightDistribution):
    gamma: float
    d: float
    K: int
    kind = "bfry"

    def rows(self, R, rng):
        s = _bfry_table(self.gamma / self.K, self.d)(rng.random(R * self.K)).reshape(R, self.K)
        return np.maximum(s / (s + 1.0), _WEIGHT_FLOOR)


def aifa_closed_form(spec: RateMeasureSpec, K: int) -> WeightDistribution:
    """The named exponential-family law nu_K for a d = 0 rate measure.

    Beta eta -> Beta(gamma*eta/K, eta); Gamma lambda -> Gamma(gamma*lambda/K, lambda);
    BetaPrime eta -> BetaPrime(gamma*eta/K, eta); GeneralizedGamma (eta1, eta2) ->
    GenGamma(scale 1/eta1, shape c/K, power eta2) with c = gamma*eta1*eta2/Gamma(1/eta2).
    """
    if spec.discount != 0.0:
        raise ValueError("closed-form approximation exists only for discount d = 0")
    return _AifaClosedForm(spec, _check_level(K))


def aifa_numeric(cfg: AifaConfig) -> AifaConfig:
    """``cfg`` itself, since an ``AifaConfig`` is the numeric AIFA law: the
    old spelling, kept only for perfbench's tracer test, which calls it."""
    return cfg


def _check_level(K):
    return integer(K, "approximation level K")


def bondesson(gamma, alpha, K) -> WeightDistribution:
    if positive(alpha, "alpha") < 1:
        raise ValueError(f"the Bondesson construction requires alpha >= 1, got {alpha}")
    return _Bondesson(positive(gamma, "gamma"), float(alpha), _check_level(K))


def beta_stick_breaking(gamma, alpha, K) -> WeightDistribution:
    return _BetaStickBreaking(positive(gamma, "gamma"), positive(alpha, "alpha"), _check_level(K))


def tsb(alpha, K) -> WeightDistribution:
    return _Tsb(positive(alpha, "alpha"), _check_level(K))


def fsd(gamma, K) -> WeightDistribution:
    return _Fsd(positive(gamma, "gamma"), _check_level(K))


def bfry(gamma, d, K) -> WeightDistribution:
    if not 0 < real(d, "BFRY discount d") < 1:
        raise ValueError(f"BFRY discount must lie in (0, 1), got {d}")
    return _Bfry(positive(gamma, "gamma"), float(d), _check_level(K))


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
    f = lambda s: np.exp(bfry_log_density(c, alpha, s))
    knots = np.geomspace(s_lo, s_hi, _TABLE_KNOTS)
    table = _InverseCdf(f, knots, _interval_masses(f, knots[:-1], knots[1:]),
                        below=amp * t * s_lo ** (1.0 - alpha) / (1.0 - alpha),
                        above=amp * s_hi**-alpha / alpha)
    _BFRY_TABLES[key] = table
    return table


# ---------------------------------------------------------------------------
# sampling front end
# ---------------------------------------------------------------------------

def sample_weights(dist: WeightDistribution, rng, size=None) -> np.ndarray:
    """Atom-size vectors: one K-vector, or an (R, K) array for ``size=R``.

    Rows are independent realizations drawn in one call.  BetaStickBreaking
    is the exception to length K: its round sizes C_i ~ Poisson(gamma) make
    the atom count random, so one vector has that many entries and batched
    rows are zero-padded past each row's count (real atoms are >= 1e-300).
    Draws are i.i.d. for the AIFA, FSD and BFRY kinds and sequentially
    coupled for the rest.
    """
    instance(dist, WeightDistribution, "dist")
    rows = dist.rows(1 if size is None else integer(size, "size", 0), rng)
    return rows[0] if size is None else rows

"""Adaptive Gauss-Legendre integration on finite intervals.

Small, deterministic, and tolerance-driven: each interval is estimated at two
Gauss-Legendre orders and bisected until the two estimates agree.  Integrands
with endpoint singularities are expected to be transformed by the caller
(every use in this package substitutes theta = e^t or a power of u first).
"""

import heapq

import numpy as np

__all__ = ["gauss_legendre", "QuadratureError"]

_MAX_PANELS = 4096
_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(10)
_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(21)


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""


def _panel(f, a, b):
    """(low-order estimate, high-order estimate) of int_a^b f."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    lo = half * np.sum(_LO_WEIGHTS * f(mid + half * _LO_NODES))
    hi = half * np.sum(_HI_WEIGHTS * f(mid + half * _HI_NODES))
    return lo, hi


def gauss_legendre(f, a, b, abs_tol=1e-10):
    """Integrate vectorized ``f`` over [a, b] to absolute tolerance ``abs_tol``.

    Panels are kept in a worst-first heap; each split halves the offender.
    Raises QuadratureError if the budget of _MAX_PANELS panels is exhausted
    before the summed panel error estimates drop below ``abs_tol``.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("gauss_legendre needs finite endpoints; transform the integrand first")
    if a == b:
        return 0.0
    lo, hi = _panel(f, a, b)
    # heap entries: (-error, tiebreak, a, b, value).  ``small`` sums the errors
    # <= abs_tol, to within 1e-8 abs_tol; the heap is re-summed for the stopping
    # test only once every error is <= abs_tol and ``small`` <= 2 abs_tol
    heap = [(-abs(hi - lo), 0, a, b, hi)]
    small = abs(hi - lo) if abs(hi - lo) <= abs_tol else 0.0
    count = 1
    while True:
        if not (-heap[0][0] > abs_tol or small > 2.0 * abs_tol):
            if sum(-e for e, *_ in heap) <= abs_tol:
                return float(sum(v for *_, v in heap))
        if count >= _MAX_PANELS:
            raise QuadratureError(
                f"no convergence after {count} panels: error estimate "
                f"{sum(-e for e, *_ in heap):.3e} > tolerance {abs_tol:.3e} on [{a!r}, {b!r}]"
            )
        neg_err, _, pa, pb, pv = heapq.heappop(heap)
        small += neg_err if -neg_err <= abs_tol else 0.0
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # interval at floating-point resolution: accept its high estimate
            heapq.heappush(heap, (0.0, count, pa, pb, pv))
            count += 1
            continue
        for qa, qb in ((pa, pm), (pm, pb)):
            lo, hi = _panel(f, qa, qb)
            heapq.heappush(heap, (-abs(hi - lo), count, qa, qb, hi))
            small += abs(hi - lo) if abs(hi - lo) <= abs_tol else 0.0
            count += 1

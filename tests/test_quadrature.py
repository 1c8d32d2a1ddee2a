import heapq

import numpy as np
import pytest

from crmfinite import quadrature
from crmfinite.quadrature import QuadratureError, gauss_legendre


def test_gauss_legendre_raises_when_panel_budget_runs_out():
    # ~1.6e5 oscillations need far more than the 4096-panel budget
    with pytest.raises(QuadratureError, match="no convergence after"):
        gauss_legendre(lambda x: np.sin(1e6 * x), 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
def test_gauss_legendre_rejects_non_finite_endpoints(a, b):
    with pytest.raises(ValueError, match="finite endpoints"):
        gauss_legendre(np.exp, a, b)


def _reference_gauss_legendre(f, a, b, abs_tol):
    """The same adaptive scheme, re-summing every panel's error each step."""
    lo, hi = quadrature._panel(f, a, b)
    heap = [(-abs(hi - lo), 0, a, b, hi)]
    count = 1
    while sum(-e for e, *_ in heap) > abs_tol:
        _, _, pa, pb, pv = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            heapq.heappush(heap, (0.0, count, pa, pb, pv))
            count += 1
            continue
        for qa, qb in ((pa, pm), (pm, pb)):
            lo, hi = quadrature._panel(f, qa, qb)
            heapq.heappush(heap, (-abs(hi - lo), count, qa, qb, hi))
            count += 1
    return float(sum(v for *_, v in heap))


@pytest.mark.parametrize("f, a, b, tol", [
    (lambda x: np.sin(50 * x) ** 2, 0.0, 3.0, 1e-12),
    (lambda x: 1.0 / np.sqrt(x + 1e-9), 0.0, 1.0, 1e-10),
    (lambda x: np.exp(-x * x) * 1e6, -5.0, 5.0, 1e-10),
    (lambda x: np.abs(x - 0.3) ** 0.2, 0.0, 1.0, 1e-13),
    (lambda x: 1.0 / x, 0.7, 0.7, 1e-10),
], ids=["oscillating", "near-singular", "large-scale", "kink", "empty"])
def test_running_error_sum_stops_where_a_full_re_sum_does(f, a, b, tol):
    assert gauss_legendre(f, a, b, tol) == _reference_gauss_legendre(f, a, b, tol)

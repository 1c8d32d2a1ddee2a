import numpy as np
import pytest

from crmfinite.quadrature import QuadratureError, gauss_legendre


def test_gauss_legendre_raises_when_panel_budget_runs_out():
    # ~1.6e5 oscillations need far more than the 4096-panel budget
    with pytest.raises(QuadratureError, match="no convergence after"):
        gauss_legendre(lambda x: np.sin(1e6 * x), 0.0, 1.0, 1e-10)

import math

import numpy as np
import pytest

from bfequiv.integrate import QuadratureError, log_quad


def test_log_quad_matches_gaussian_integral():
    # log int exp(-(x - 3)^2 / 2) dx = log sqrt(2 pi), at any height
    for shift in (-2000.0, 0.0, 2000.0):
        val = log_quad(lambda x: shift - 0.5 * (x - 3.0) ** 2, -np.inf, np.inf, (-10.0, 10.0))
        assert abs(val - shift - 0.5 * math.log(2 * math.pi)) < 1e-12


def test_log_quad_raises_on_zero_integrand():
    with pytest.raises(QuadratureError):
        log_quad(lambda x: -np.inf, 0.0, np.inf, (0.0, 10.0))

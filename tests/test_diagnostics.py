import numpy as np
import pytest
from scipy.signal import lfilter

from islandmc.diagnostics import autocorrelation, iact


def ar1(rho, n, seed):
    eps = np.random.default_rng(seed).standard_normal(n)
    return lfilter([1.0], [1.0, -rho], eps)


def test_autocorrelation_of_ar1():
    x = ar1(0.9, 10**6, seed=0)
    rho = autocorrelation(x, 3)
    assert rho[0] == pytest.approx(0.9, abs=0.01)
    assert rho[1] == pytest.approx(0.81, abs=0.01)


def test_autocorrelation_constant_series_raises():
    with pytest.raises(ValueError):
        autocorrelation(np.ones(100), 10)


def test_iact_iid_series():
    x = np.random.default_rng(1).standard_normal(10**5)
    assert abs(iact(x) - 1.0) < 0.1


def test_iact_ar1_analytic_value():
    # AR(1) with rho=0.9: IACT = (1 + rho) / (1 - rho) = 19
    x = ar1(0.9, 10**6, seed=2)
    assert abs(iact(x) - 19.0) < 1.9


def test_iact_zero_rho_equals_iid():
    x = ar1(0.0, 10**5, seed=3)
    assert abs(iact(x) - 1.0) < 0.1


def test_iact_alternating_series_floors_at_one():
    x = np.tile([1.0, -1.0], 500)
    assert iact(x) == 1.0


def test_iact_short_series_raises():
    with pytest.raises(ValueError):
        iact(np.array([1.0]))

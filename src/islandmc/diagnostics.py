"""Chain and estimator diagnostics."""

from __future__ import annotations

import numpy as np


def autocorrelation(series, max_lag):
    """Sample autocorrelations rho_1 .. rho_max_lag via FFT."""
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0.0:
        raise ValueError("series is constant; autocorrelation is undefined")
    size = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, size)
    acov = np.fft.irfft(f * np.conjugate(f), size)[: max_lag + 1] / n
    return acov[1:] / var


def iact(series, max_lag=None):
    """Integrated autocorrelation time 1 + 2 sum of autocorrelations.

    The sum is truncated with the initial-positive-sequence rule: sums
    of adjacent autocorrelation pairs are accumulated until the first
    non-positive pair.  The result is clamped below at 1.  A constant
    series raises ``ValueError``.

    Parameters
    ----------
    series : sequence of float
        Scalar chain, length at least 2.  Lengths of at least ten times
        the correlation time give usable estimates.
    max_lag : int, optional
        Hard cap on summed lags, defaults to ``len(series) - 1``.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("series must have length at least 2")
    if max_lag is None:
        max_lag = n - 1
    max_lag = min(int(max_lag), n - 1)
    rho = autocorrelation(x, max_lag)
    # pair sums (rho_0 + rho_1), (rho_2 + rho_3), ... until non-positive
    total = 0.0
    m = 0
    while 2 * m <= max_lag:
        pair = 1.0 if m == 0 else rho[2 * m - 1]
        if 2 * m + 1 <= max_lag:
            pair += rho[2 * m]
        if pair <= 0.0:
            break
        total += pair
        m += 1
    return max(1.0, 2.0 * total - 1.0)

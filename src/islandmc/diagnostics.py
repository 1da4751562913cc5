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


def iact(series):
    """Integrated autocorrelation time 1 + 2 sum of autocorrelations.

    The sum runs over lags up to ``len(series) - 1`` and is truncated
    with the initial-positive-sequence rule: sums of adjacent
    autocorrelation pairs are accumulated until the first non-positive
    pair.  The result is clamped below at 1.  A constant series raises
    ``ValueError``.

    Parameters
    ----------
    series : sequence of float
        Scalar chain, length at least 2.  Lengths of at least ten times
        the correlation time give usable estimates.
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("series must have length at least 2")
    # rho_0 = 1, rho_1 .. rho_{n-1}, and a 0 that completes an odd n's last pair
    rho = np.concatenate(([1.0], autocorrelation(x, n - 1), [0.0]))
    # pair sums (rho_0 + rho_1), (rho_2 + rho_3), ... until non-positive
    total = 0.0
    for k in range(0, n, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        total += pair
    return max(1.0, 2.0 * total - 1.0)

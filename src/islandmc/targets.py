"""Bayesian target distributions with isotropic Gaussian priors.

Every target bundles a zero-mean isotropic Gaussian prior with a data log-likelihood and its
gradient, which is all the samplers in this package need.  Methods accept
a single parameter vector ``(d,)`` or a batch ``(n, d)`` and return a
scalar or ``(n,)`` array accordingly.  Likelihood and gradient calls
charge an :class:`EvalCounter` one unit per parameter vector evaluated;
prior evaluations are free because they are closed-form Gaussians.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))

# float64 entries of one per-row likelihood temporary in a row block
# (256 KiB, well inside a 2 MiB per-core L2 cache)
_BLOCK_FLOATS = 32768


def logsumexp(a, axis=None, keepdims=False):
    """``log(sum(exp(a)))`` over ``axis`` (all axes by default), overflow-safe.

    The float64 result of ``scipy.special.logsumexp`` bit for bit: the
    maximal entries of each slice are kept out of the shifted sum ``s``,
    and with ``k`` of them the result is ``log1p(s / k) + log(k) + max``.
    A slice with an infinite result takes ``log(sum(exp(a)))`` instead,
    so an all ``-inf`` slice gives ``-inf``.  Raises no floating-point
    warning.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    if a.size == 0:
        out = np.full(np.sum(a, axis=axis, keepdims=True).shape, -np.inf)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            top = np.max(a, axis=axis, keepdims=True)
            is_top = a == top
            k = np.sum(is_top, axis=axis, keepdims=True, dtype=float)
            s = np.sum(np.exp(np.where(is_top, -np.inf, a) - top), axis=axis, keepdims=True)
            s = np.where(s == 0, s, s / k)
            out = np.log1p(s) + np.log(k) + top
            finite = np.isfinite(out)
            if not finite.all():
                out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


class NumericalDomainError(ValueError):
    """Raised when a sampler meets a NaN or +inf log-likelihood.

    ``stage`` is the tempering stage it was met at, None outside the
    SMC stage loop.
    """

    def __init__(self, message, theta=None, lam=None, stage=None):
        super().__init__(message)
        self.theta = theta
        self.lam = lam
        self.stage = stage


def check_finite_loglik(loglik, theta, lam, where, units, stage=None):
    """Raise :class:`NumericalDomainError` if an entry of ``loglik`` is NaN or +inf.

    The message starts with ``where`` and says which of the two occur in
    how many of ``loglik``'s ``units``; the error carries the rows of
    ``theta`` that hold one, ``lam`` and ``stage``.
    """
    nan = np.isnan(loglik)
    inf = loglik == np.inf
    bad = nan | inf
    if bad.any():
        what = " or ".join(name for name, hit in (("NaN", nan), ("+inf", inf)) if hit.any())
        raise NumericalDomainError(
            f"{where}: log-likelihood is {what} for {int(bad.sum())} of {bad.size} {units} (lambda={lam})",
            theta=theta[bad], lam=lam, stage=stage,
        )


@dataclass
class EvalCounter:
    """Running tally of likelihood and gradient evaluations.

    One unit is one evaluation of the full-data likelihood (or its
    gradient) at a single parameter vector, the hardware-agnostic cost
    unit used throughout.  ``epochs`` is their sum.
    """

    likelihood: int = 0
    gradient: int = 0

    def add_likelihood(self, n: int = 1) -> None:
        self.likelihood += int(n)

    def add_gradient(self, n: int = 1) -> None:
        self.gradient += int(n)

    @property
    def epochs(self) -> int:
        return self.likelihood + self.gradient


def _block_height(width):
    """Rows per likelihood block for per-row temporaries ``width`` floats wide.

    The largest power of two that keeps one ``(rows, width)`` float64
    array within ``_BLOCK_FLOATS``, and at least one row.
    """
    return 1 << max((_BLOCK_FLOATS // max(width, 1)).bit_length() - 1, 0)


class _GaussianPriorTarget:
    """Shared prior and evaluation plumbing for the concrete targets below.

    Every target has the prior N(0, prior_std**2 I) on ``dim`` parameters,
    set once by :meth:`_set_prior`; at ``prior_std == 1.0`` the prior
    skips its division by the std, which is exact.  Target methods call
    the private ``_log_prior``, never a public prior method.

    The public likelihood and gradient methods check the input, charge
    the counter once for the whole batch, and evaluate the subclass's
    ``_log_likelihood``/``_grad_log_likelihood`` in row blocks of at most
    ``_block_rows``/``_grad_block_rows`` rows.  Each subclass sets both
    once, with :func:`_block_height` of the width of the widest per-row
    temporary of each method, so that those temporaries stay in the
    per-core cache however wide the batch.  A single vector or a batch
    of at most that many rows is one call.  A row's value depends only
    on its own block, so two calls whose blocks hold the same rows
    return the same values for them.
    """

    dim: int
    prior_std: float
    _block_rows: int
    _grad_block_rows: int

    def _set_prior(self, dim, std):
        """Set the N(0, std**2 I) prior on ``dim`` parameters."""
        std = float(std)
        if not 0.0 < std < math.inf:
            raise ValueError(f"prior standard deviation must be positive and finite, got {std!r}")
        self.dim = dim
        self.prior_std = std
        self._log_det = dim * np.log(std)

    def _log_prior(self, theta):
        u = theta if self.prior_std == 1.0 else theta / self.prior_std
        quad = np.sum(np.square(u), axis=-1)
        return -0.5 * quad - 0.5 * self.dim * LOG_2PI - self._log_det

    def log_prior(self, theta):
        return self._log_prior(self._check(theta))

    def grad_log_prior(self, theta):
        theta = self._check(theta)
        if self.prior_std == 1.0:
            return np.negative(theta)
        # -(theta / std) / std, built in one buffer
        grad = np.divide(theta, self.prior_std)
        grad /= self.prior_std
        return np.negative(grad, out=grad)

    def prior_sample(self, rng, size=None):
        shape = (self.dim,) if size is None else (size, self.dim)
        return 0.0 + self.prior_std * rng.standard_normal(shape)

    def whiten(self, theta):
        return self._check(theta) / self.prior_std

    def unwhiten(self, u):
        # the 0.0 + is the zero prior mean: it turns a -0.0 entry into +0.0
        return 0.0 + self.prior_std * np.asarray(u, dtype=float)

    def log_likelihood(self, theta, counter: EvalCounter | None = None):
        theta = self._check(theta)
        if counter is not None:
            counter.add_likelihood(1 if theta.ndim == 1 else theta.shape[0])
        return self._in_blocks(self._log_likelihood, theta, self._block_rows)

    def grad_log_likelihood(self, theta, counter: EvalCounter | None = None):
        theta = self._check(theta)
        if counter is not None:
            counter.add_gradient(1 if theta.ndim == 1 else theta.shape[0])
        return self._in_blocks(self._grad_log_likelihood, theta, self._grad_block_rows)

    @staticmethod
    def _in_blocks(evaluate, theta, h):
        if theta.ndim == 1 or theta.shape[0] <= h:
            return evaluate(theta)
        return np.concatenate([evaluate(theta[i:i + h]) for i in range(0, theta.shape[0], h)])

    def _check(self, theta):
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != self.dim:
            raise ValueError(
                f"parameter vector has dimension {theta.shape[-1]}, expected {self.dim}"
            )
        return theta


class GaussianLinearModel(_GaussianPriorTarget):
    """Linear-Gaussian regression model with the conjugate N(0, I) prior.

    Observations ``y = X theta + noise`` with i.i.d. N(0, sigma^2) noise
    and the standard normal prior on ``theta``.  The posterior and model
    evidence are available in closed form, which makes this the
    reference model for correctness and convergence-rate checks.

    Parameters
    ----------
    X : ndarray (m, d)
        Design matrix.  ``m = 0`` is legal and gives a flat likelihood.
    y : ndarray (m,)
        Observations.
    sigma : float
        Observation noise standard deviation, positive and finite.
    """

    def __init__(self, X, y, sigma):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        m, d = X.shape
        if y.shape != (m,):
            raise ValueError(f"y has shape {y.shape}, expected ({m},)")
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
        self.X = X
        self.y = y
        self.sigma = float(sigma)
        self._set_prior(d, 1.0)
        # the gradient's only per-row temporary is d wide, the log-likelihood's m
        self._block_rows = _block_height(m)
        self._grad_block_rows = _block_height(d)
        # G and b of the gradient b - theta G, and the constants of the
        # log-likelihood, which stays in residual form (a Gram form would cancel)
        self._gram = X.T @ X / self.sigma**2
        self._xty = X.T @ y / self.sigma**2
        self._ll_const = -0.5 * m * (LOG_2PI + 2.0 * np.log(self.sigma))
        self._two_var = 2.0 * self.sigma**2
        self._tiles = {}

    def __getstate__(self):
        return {**self.__dict__, "_tiles": {}}

    def _from_tile(self, name, rows):
        """``self.<name> - rows``, in place in ``rows``.

        numpy subtracts a full-shape operand faster than a broadcast row,
        with the same differences, so the row is kept repeated in a tile
        as tall as the tallest batch met.
        """
        row = getattr(self, name)
        if rows.ndim == 2:
            tile = self._tiles.get(name)
            if tile is None or len(tile) < len(rows):
                tile = self._tiles[name] = np.tile(row, (len(rows), 1))
            row = tile[:len(rows)]
        return np.subtract(row, rows, out=rows)

    def _log_likelihood(self, theta):
        if self.X.shape[0] == 0:
            return np.zeros(theta.shape[:-1]) if theta.ndim > 1 else 0.0
        resid = self._from_tile("y", theta @ self.X.T)
        quad = np.sum(np.square(resid, out=resid), axis=-1) / self._two_var
        return self._ll_const - quad

    def _grad_log_likelihood(self, theta):
        """``X^T (y - X theta) / sigma**2`` as ``b - theta G``: d**2 multiply-adds per row.

        At ``m = 0`` the Gram matrix is zero: a finite row gets ``+0.0``
        entries, and a row with a NaN or infinite entry gets NaN entries.
        """
        return self._from_tile("_xty", theta @ self._gram)

    def analytic_posterior(self):
        """Closed-form posterior mean, covariance, and log evidence.

        Everything is d x d, from the cached ``G = X^T X / sigma**2`` and
        ``b = X^T y / sigma**2``: the posterior precision is ``I + G``,
        and with ``S = sigma**2 I + X X^T`` the evidence takes
        ``log|S| = 2 m log(sigma) + log|I + G|`` and
        ``y^T S^-1 y = |y - X mean|**2 / sigma**2 + |mean|**2``, which
        does not cancel at small sigma as ``y^T y / sigma**2 - b^T cov b`` would.

        Returns
        -------
        mean : ndarray (d,)
        cov : ndarray (d, d)
        log_evidence : float
            Log of the marginal likelihood of ``y``; zero when ``m = 0``.
        """
        m = self.X.shape[0]
        precision = np.eye(self.dim) + self._gram
        cov = np.linalg.inv(precision)
        cov = 0.5 * (cov + cov.T)
        mean = cov @ self._xty
        if m == 0:
            return mean, cov, 0.0
        log_det = 2.0 * (m * np.log(self.sigma) + np.sum(np.log(np.diag(np.linalg.cholesky(precision)))))
        resid = self.y - self.X @ mean
        quad = np.dot(resid, resid) / self.sigma**2 + np.dot(mean, mean)
        return mean, cov, float(-0.5 * (m * LOG_2PI + log_det + quad))


def make_gaussian_target(d, m, sigma, seed, theta_star=None):
    """Draw a random linear-Gaussian problem instance.

    Design entries are i.i.d. standard normal and observations are
    ``y = X theta_star + noise``.  By default ``theta_star`` is drawn
    from the N(0, I) prior; pass an explicit finite vector to pin it.

    Returns
    -------
    GaussianLinearModel
        With ``theta_star`` recorded on the instance.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    if theta_star is None:
        theta_star = rng.standard_normal(d)
    else:
        theta_star = np.asarray(theta_star, dtype=float)
        if theta_star.shape != (d,):
            raise ValueError(f"theta_star has shape {theta_star.shape}, expected ({d},)")
        if not np.all(np.isfinite(theta_star)):
            raise ValueError(f"theta_star must be finite, got {theta_star.tolist()}")
    y = X @ theta_star + sigma * rng.standard_normal(m)
    model = GaussianLinearModel(X, y, sigma)
    model.theta_star = theta_star
    return model


class GmmTarget(_GaussianPriorTarget):
    """Gaussian mixture posterior expressed against an N(0, I) prior.

    The target posterior is ``sum_k weights[k] N(means[k], I)``.  With
    the standard normal prior the implied log-likelihood is the mixture
    log-density minus the prior log-density, so tempering interpolates
    from the prior at exponent 0 to the exact mixture at exponent 1.

    Parameters
    ----------
    weights : sequence of float
        Positive component weights summing to one.
    means : ndarray (K, d)
        Finite component means.  All components have identity covariance.
    """

    def __init__(self, weights, means):
        weights = np.asarray(weights, dtype=float)
        means = np.asarray(means, dtype=float)
        if means.ndim != 2:
            raise ValueError("means must be (K, d)")
        if not np.all(np.isfinite(means)):
            raise ValueError(f"means must be finite, got {means.tolist()}")
        if weights.shape != (means.shape[0],):
            raise ValueError("weights and means disagree on component count")
        if not np.all(weights > 0.0):
            raise ValueError(f"weights must be positive, got {weights.tolist()}")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {weights.tolist()}")
        self.weights = weights
        self.means = means
        self._log_weights = np.log(weights)
        self._set_prior(means.shape[1], 1.0)
        self._block_rows = self._grad_block_rows = _block_height(means.size)

    def mixture_mean(self) -> np.ndarray:
        return self.weights @ self.means

    def _log_components(self, theta):
        flat = np.atleast_2d(theta)
        sq = np.sum(np.square(flat[:, None, :] - self.means[None, :, :]), axis=-1)
        logs = self._log_weights - 0.5 * sq - 0.5 * self.dim * LOG_2PI
        return logs if theta.ndim > 1 else logs[0]

    def log_density(self, theta):
        """Log-density of the mixture itself (the lambda = 1 target)."""
        theta = self._check(theta)
        return logsumexp(self._log_components(theta), axis=-1)

    def _log_likelihood(self, theta):
        return logsumexp(self._log_components(theta), axis=-1) - self._log_prior(theta)

    def _grad_log_likelihood(self, theta):
        logs = self._log_components(theta)
        resp = np.exp(logs - logsumexp(logs, axis=-1, keepdims=True))
        # grad log mixture = sum_k resp_k (m_k - theta); prior grad -theta cancels
        return resp @ self.means


def make_bimodal_gmm(d, weight=0.2):
    """Two-component mixture weight*N(+1, I) + (1-weight)*N(-1, I)."""
    if not 0.0 < weight < 1.0:
        raise ValueError(f"weight must lie in (0, 1), got {weight!r}")
    ones = np.ones(d)
    return GmmTarget([weight, 1.0 - weight], np.stack([ones, -ones]))


class LogisticTarget(_GaussianPriorTarget):
    """Bayesian binary logistic regression with an isotropic prior.

    Labels follow ``p(y=1 | x) = sigmoid(x . theta)``.  The design
    matrix carries an explicit leading intercept column of ones, so
    ``d`` counts the intercept plus the covariates.

    Parameters
    ----------
    X : ndarray (m, d)
        Design matrix whose first column is all ones.
    y : ndarray (m,)
        Binary labels in {0, 1}.
    prior_var : float
        Prior variance, positive and finite; the prior is N(0, prior_var * I).
    """

    def __init__(self, X, y, prior_var=100.0):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("X must be (m, d) with m >= 1")
        if not np.all(X[:, 0] == 1.0):
            raise ValueError("first column of X must be the intercept (all ones)")
        if y.shape != (X.shape[0],):
            raise ValueError("y length must match the number of rows of X")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        if not 0.0 < prior_var < math.inf:
            raise ValueError(f"prior_var must be positive and finite, got {prior_var!r}")
        self.X = X
        self.y = y
        self.prior_var = float(prior_var)
        self._set_prior(X.shape[1], np.sqrt(prior_var))
        self._block_rows = self._grad_block_rows = _block_height(X.shape[0])
        # one buffer per concurrent caller for the second temporary of
        # _log_likelihood, as large as the largest block it has seen
        self._scratch = []

    def __getstate__(self):
        return {**self.__dict__, "_scratch": []}

    def _log_likelihood(self, theta):
        z = theta @ self.X.T
        fit = z @ self.y
        # softplus(z) = max(z, 0) + log1p(exp(-|z|)), built in place in z,
        # with log1p(exp(-|z|)) in a kept buffer: a second fresh block
        # temporary per call (about 176 KB at m = 690, next to z) can make
        # glibc trim and regrow its heap on every call, depending on layout
        try:
            buf = self._scratch.pop()  # atomic: no two threads get one buffer
        except IndexError:
            buf = np.empty(0)
        if buf.size < z.size:
            buf = np.empty(z.size)
        t = buf[:z.size].reshape(z.shape)
        np.abs(z, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.maximum(z, 0.0, out=z)
        z += t
        self._scratch.append(buf)
        return fit - z.sum(-1)

    def _grad_log_likelihood(self, theta):
        # scipy's expit, 1 / (1 + exp(-z)) with libm exp: numpy's SIMD exp
        # rounds some of these values differently
        from scipy.special import expit

        z = theta @ self.X.T
        expit(z, out=z)
        np.subtract(self.y, z, out=z)
        return z @ self.X


def load_logistic_csv(path, prior_var=100.0):
    """Build a LogisticTarget from a CSV file.

    The file must have a header row; each data row lists the covariate
    values followed by the binary label in the last column, one finite
    number per header field.  An intercept column of ones is prepended
    automatically.  A bad row raises ``ValueError`` naming its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(row)} fields, expected {len(header)} as in the header")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{lineno}: non-finite field")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one covariate column plus a label")
    covariates, labels = data[:, :-1], data[:, -1]
    X = np.hstack([np.ones((data.shape[0], 1)), covariates])
    return LogisticTarget(X, labels, prior_var=prior_var)


def make_logistic_target(d, m, seed, prior_var=100.0):
    """Draw a synthetic logistic-regression problem.

    Covariates are i.i.d. standard normal (d - 1 of them plus the
    intercept) and labels are Bernoulli draws under a standard normal
    ground-truth coefficient vector.
    """
    if d < 1:
        raise ValueError("d must be at least 1 (the intercept)")
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((m, 1)), rng.standard_normal((m, d - 1))])
    theta_star = rng.standard_normal(d)
    # a numpy sigmoid may round unlike scipy's expit in the last bit, but the
    # labels drawn from it are the same on every build the tests pin
    y = (rng.random(m) < 1.0 / (1.0 + np.exp(-(X @ theta_star)))).astype(float)
    target = LogisticTarget(X, y, prior_var=prior_var)
    target.theta_star = theta_star
    return target

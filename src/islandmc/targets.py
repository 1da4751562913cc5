"""Bayesian target distributions with Gaussian priors.

Every target bundles a Gaussian prior with a data log-likelihood and its
gradient, which is all the samplers in this package need.  Methods accept
a single parameter vector ``(d,)`` or a batch ``(n, d)`` and return a
scalar or ``(n,)`` array accordingly.  Likelihood and gradient calls
charge an :class:`EvalCounter` one unit per parameter vector evaluated;
prior evaluations are free because they are closed-form Gaussians.
"""

from __future__ import annotations

import csv
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
    """Raised when a likelihood or tempered gradient is non-finite."""

    def __init__(self, message, theta=None, lam=None):
        super().__init__(message)
        self.theta = theta
        self.lam = lam


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

    def merge(self, other: "EvalCounter") -> None:
        self.likelihood += other.likelihood
        self.gradient += other.gradient

    @property
    def epochs(self) -> int:
        return self.likelihood + self.gradient

    def copy(self) -> "EvalCounter":
        return EvalCounter(self.likelihood, self.gradient)


class _GaussianPrior:
    """N(mean, cov) helper with whitening transforms.

    Isotropic priors store a scalar standard deviation; general ones a
    lower-triangular Cholesky factor of the covariance.
    """

    def __init__(self, mean, std=None, chol=None):
        self.mean = np.asarray(mean, dtype=float)
        self.dim = self.mean.shape[0]
        if (std is None) == (chol is None):
            raise ValueError("exactly one of std or chol must be given")
        self.std = None if std is None else float(std)
        self.chol = None if chol is None else np.asarray(chol, dtype=float)
        if self.std is not None and self.std <= 0:
            raise ValueError("prior standard deviation must be positive")
        if self.chol is not None:
            diag = np.diag(self.chol)
            if np.any(diag <= 0):
                raise ValueError("prior covariance is not positive definite")
            self._log_det_chol = float(np.sum(np.log(diag)))
        else:
            self._log_det_chol = self.dim * np.log(self.std)

    def whiten(self, theta):
        centered = theta - self.mean
        if self.std is not None:
            return centered / self.std
        from scipy.linalg import solve_triangular

        return solve_triangular(self.chol, centered.T, lower=True).T

    def unwhiten(self, u):
        if self.std is not None:
            return self.mean + self.std * u
        return self.mean + u @ self.chol.T

    def logpdf(self, theta):
        u = self.whiten(theta)
        quad = np.sum(np.square(u), axis=-1)
        return -0.5 * quad - 0.5 * self.dim * LOG_2PI - self._log_det_chol

    def grad_logpdf(self, theta):
        if self.std is not None:
            # -((theta - mean) / std) / std, built in one buffer
            grad = np.subtract(theta, self.mean)
            grad /= self.std
            grad /= self.std
            return np.negative(grad, out=grad)
        from scipy.linalg import solve_triangular

        u = self.whiten(theta)
        return -solve_triangular(self.chol.T, u.T, lower=False).T

    def sample(self, rng, size=None):
        shape = (self.dim,) if size is None else (size, self.dim)
        return self.unwhiten(rng.standard_normal(shape))


def _block_height(width):
    """Rows per likelihood block for per-row temporaries ``width`` floats wide.

    The largest power of two that keeps one ``(rows, width)`` float64
    array within ``_BLOCK_FLOATS``, and at least one row.
    """
    return 1 << max((_BLOCK_FLOATS // max(width, 1)).bit_length() - 1, 0)


class _GaussianPriorTarget:
    """Shared prior plumbing for the concrete targets below.

    The public likelihood and gradient methods check the input, charge
    the counter once for the whole batch, and evaluate the subclass's
    ``_log_likelihood``/``_grad_log_likelihood`` in row blocks of at most
    ``_block_rows`` rows.  Each subclass sets ``_block_rows`` once, with
    :func:`_block_height` of the width of its widest per-row temporary,
    so that those temporaries stay in the per-core cache however wide the
    batch.  A single vector or a batch of at most ``_block_rows`` rows is
    one call.  A row's value depends only on its own block, so two calls
    whose blocks hold the same rows return the same values for them.
    """

    _prior: _GaussianPrior
    _block_rows: int

    @property
    def dim(self) -> int:
        return self._prior.dim

    @property
    def prior_mean(self) -> np.ndarray:
        return self._prior.mean

    def log_prior(self, theta):
        theta = self._check(theta)
        return self._prior.logpdf(theta)

    def grad_log_prior(self, theta):
        theta = self._check(theta)
        return self._prior.grad_logpdf(theta)

    def prior_sample(self, rng, size=None):
        return self._prior.sample(rng, size)

    def whiten(self, theta):
        return self._prior.whiten(self._check(theta))

    def unwhiten(self, u):
        return self._prior.unwhiten(np.asarray(u, dtype=float))

    def log_likelihood(self, theta, counter: EvalCounter | None = None):
        theta = self._check(theta)
        if counter is not None:
            counter.add_likelihood(1 if theta.ndim == 1 else theta.shape[0])
        return self._in_blocks(self._log_likelihood, theta)

    def grad_log_likelihood(self, theta, counter: EvalCounter | None = None):
        theta = self._check(theta)
        if counter is not None:
            counter.add_gradient(1 if theta.ndim == 1 else theta.shape[0])
        return self._in_blocks(self._grad_log_likelihood, theta)

    def _in_blocks(self, evaluate, theta):
        h = self._block_rows
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


def log_tempered(target, theta, lam, counter: EvalCounter | None = None):
    """Log of the unnormalized tempered density prior * likelihood^lam."""
    return target.log_prior(theta) + lam * target.log_likelihood(theta, counter)


def grad_log_tempered(target, theta, lam, counter: EvalCounter | None = None):
    """Gradient of the log tempered density.

    Raises
    ------
    NumericalDomainError
        If any gradient component is non-finite at ``theta``.
    """
    grad = lam * target.grad_log_likelihood(theta, counter) + target.grad_log_prior(theta)
    if not np.all(np.isfinite(grad)):
        raise NumericalDomainError(
            f"non-finite tempered gradient at lambda={lam}", theta=theta, lam=lam
        )
    return grad


class GaussianLinearModel(_GaussianPriorTarget):
    """Linear-Gaussian regression model with conjugate Gaussian prior.

    Observations ``y = X theta + noise`` with i.i.d. N(0, sigma^2) noise
    and prior N(mu0, Sigma0).  The posterior and model evidence are
    available in closed form, which makes this the reference model for
    correctness and convergence-rate checks.

    Parameters
    ----------
    X : ndarray (m, d)
        Design matrix.  ``m = 0`` is legal and gives a flat likelihood.
    y : ndarray (m,)
        Observations.
    sigma : float
        Observation noise standard deviation, positive.
    mu0 : ndarray (d,), optional
        Prior mean, defaults to zero.
    Sigma0 : ndarray (d, d), optional
        Prior covariance, defaults to identity.  Must be symmetric
        positive definite.
    """

    def __init__(self, X, y, sigma, mu0=None, Sigma0=None):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        m, d = X.shape
        if y.shape != (m,):
            raise ValueError(f"y has shape {y.shape}, expected ({m},)")
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.X = X
        self.y = y
        self.sigma = float(sigma)
        self._block_rows = _block_height(m)
        mu0 = np.zeros(d) if mu0 is None else np.asarray(mu0, dtype=float)
        if mu0.shape != (d,):
            raise ValueError(f"mu0 has shape {mu0.shape}, expected ({d},)")
        if Sigma0 is None:
            self._prior = _GaussianPrior(mu0, std=1.0)
            self.Sigma0 = np.eye(d)
        else:
            Sigma0 = np.asarray(Sigma0, dtype=float)
            if Sigma0.shape != (d, d):
                raise ValueError("Sigma0 must be (d, d)")
            try:
                chol = np.linalg.cholesky(Sigma0)
            except np.linalg.LinAlgError as exc:
                raise ValueError("Sigma0 is not positive definite") from exc
            self._prior = _GaussianPrior(mu0, chol=chol)
            self.Sigma0 = Sigma0

    def _log_likelihood(self, theta):
        m = self.X.shape[0]
        if m == 0:
            return np.zeros(theta.shape[:-1]) if theta.ndim > 1 else 0.0
        resid = self.y - theta @ self.X.T
        quad = np.sum(np.square(resid), axis=-1) / (2.0 * self.sigma**2)
        return -0.5 * m * (LOG_2PI + 2.0 * np.log(self.sigma)) - quad

    def _grad_log_likelihood(self, theta):
        if self.X.shape[0] == 0:
            return np.zeros_like(theta)
        resid = theta @ self.X.T
        np.subtract(self.y, resid, out=resid)
        grad = resid @ self.X
        grad /= self.sigma**2
        return grad

    def analytic_posterior(self):
        """Closed-form posterior mean, covariance, and log evidence.

        Returns
        -------
        mean : ndarray (d,)
        cov : ndarray (d, d)
        log_evidence : float
            Log of the marginal likelihood of ``y``; zero when ``m = 0``.
        """
        d = self.dim
        m = self.X.shape[0]
        Sigma0_inv = np.linalg.inv(self.Sigma0)
        precision = Sigma0_inv + self.X.T @ self.X / self.sigma**2
        cov = np.linalg.inv(precision)
        cov = 0.5 * (cov + cov.T)
        mean = cov @ (Sigma0_inv @ self.prior_mean + self.X.T @ self.y / self.sigma**2)
        if m == 0:
            return mean, cov, 0.0
        S = self.X @ self.Sigma0 @ self.X.T + self.sigma**2 * np.eye(m)
        chol = np.linalg.cholesky(S)
        resid = self.y - self.X @ self.prior_mean
        w = np.linalg.solve(chol, resid)
        log_evidence = -0.5 * (
            m * LOG_2PI + 2.0 * np.sum(np.log(np.diag(chol))) + np.dot(w, w)
        )
        return mean, cov, float(log_evidence)


def make_gaussian_target(d, m, sigma, seed, theta_star=None):
    """Draw a random linear-Gaussian problem instance.

    Design entries are i.i.d. standard normal and observations are
    ``y = X theta_star + noise``.  By default ``theta_star`` is drawn
    from the N(0, I) prior; pass an explicit vector to pin it.

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
        Component means.  All components have identity covariance.
    """

    def __init__(self, weights, means):
        weights = np.asarray(weights, dtype=float)
        means = np.asarray(means, dtype=float)
        if means.ndim != 2:
            raise ValueError("means must be (K, d)")
        if weights.shape != (means.shape[0],):
            raise ValueError("weights and means disagree on component count")
        if np.any(weights <= 0):
            raise ValueError("component weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("component weights must sum to 1")
        self.weights = weights
        self.means = means
        self._log_weights = np.log(weights)
        self._prior = _GaussianPrior(np.zeros(means.shape[1]), std=1.0)
        self._block_rows = _block_height(means.size)

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
        return logsumexp(self._log_components(theta), axis=-1) - self._prior.logpdf(theta)

    def _grad_log_likelihood(self, theta):
        logs = self._log_components(theta)
        resp = np.exp(logs - logsumexp(logs, axis=-1, keepdims=True))
        # grad log mixture = sum_k resp_k (m_k - theta); prior grad -theta cancels
        return resp @ self.means


def make_bimodal_gmm(d, weight=0.2):
    """Two-component mixture weight*N(+1, I) + (1-weight)*N(-1, I)."""
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
        Prior variance; the prior is N(0, prior_var * I).
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
        if not prior_var > 0:
            raise ValueError("prior_var must be positive")
        self.X = X
        self.y = y
        self.prior_var = float(prior_var)
        self._prior = _GaussianPrior(np.zeros(X.shape[1]), std=float(np.sqrt(prior_var)))
        self._block_rows = _block_height(X.shape[0])

    def _log_likelihood(self, theta):
        z = theta @ self.X.T
        fit = z @ self.y
        # softplus(z) = max(z, 0) + log1p(exp(-|z|)), built in place in z
        t = np.abs(z)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.maximum(z, 0.0, out=z)
        z += t
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
    values followed by the binary label in the last column.  An
    intercept column of ones is prepended automatically.
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
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least one covariate column plus a label")
    covariates, labels = data[:, :-1], data[:, -1]
    X = np.hstack([np.ones((data.shape[0], 1)), covariates])
    return LogisticTarget(X, labels, prior_var=prior_var)


def make_logistic_target(d, m, seed, prior_var=100.0, theta_scale=1.0):
    """Draw a synthetic logistic-regression problem.

    Covariates are i.i.d. standard normal (d - 1 of them plus the
    intercept) and labels are Bernoulli draws under a ground-truth
    coefficient vector of scale ``theta_scale``.
    """
    if d < 1:
        raise ValueError("d must be at least 1 (the intercept)")
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((m, 1)), rng.standard_normal((m, d - 1))])
    theta_star = theta_scale * rng.standard_normal(d)
    # a numpy sigmoid may round unlike scipy's expit in the last bit, but the
    # labels drawn from it are the same on every build the tests pin
    y = (rng.random(m) < 1.0 / (1.0 + np.exp(-(X @ theta_star)))).astype(float)
    target = LogisticTarget(X, y, prior_var=prior_var)
    target.theta_star = theta_star
    return target

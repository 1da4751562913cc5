import math
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit
from scipy.special import logsumexp as scipy_logsumexp

import islandmc
from islandmc.targets import (
    EvalCounter,
    GaussianLinearModel,
    GmmTarget,
    LogisticTarget,
    load_logistic_csv,
    logsumexp,
    make_bimodal_gmm,
    make_gaussian_target,
    make_logistic_target,
)

LOG_2PI = math.log(2.0 * math.pi)


def grad_tempered(target, theta, lam):
    """Gradient of log prior + lam * log-likelihood, as the kernels form it."""
    return lam * target.grad_log_likelihood(theta) + target.grad_log_prior(theta)


def fd_grad(f, theta, h=1e-5):
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def test_log_prior_standard_normal_at_mode():
    model = GaussianLinearModel(np.zeros((0, 1)), np.zeros(0), sigma=1.0)
    assert model.log_prior(np.zeros(1)) == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)


def test_log_prior_two_dims_is_product_of_marginals():
    model = GaussianLinearModel(np.zeros((0, 2)), np.zeros(0), sigma=1.0)
    assert model.log_prior(np.zeros(2)) == pytest.approx(-LOG_2PI, abs=1e-12)


def test_log_prior_wide_gaussian_hand_value():
    # N(0, 100) at theta=10: -0.5*ln(200*pi) - 0.5
    target = LogisticTarget(np.ones((1, 1)), np.array([1.0]), prior_var=100.0)
    expected = -0.5 * math.log(200.0 * math.pi) - 0.5
    assert target.log_prior(np.array([10.0])) == pytest.approx(expected, abs=1e-12)


def test_loglik_no_data_is_zero_everywhere():
    model = GaussianLinearModel(np.zeros((0, 3)), np.zeros(0), sigma=1.0)
    assert model.log_likelihood(np.array([5.0, -1.0, 0.3])) == 0.0
    batch = model.log_likelihood(np.random.default_rng(0).standard_normal((7, 3)))
    assert batch.shape == (7,)
    assert np.all(batch == 0.0)


def test_grad_no_data_is_positive_zero():
    # the zero Gram matrix gives +0.0 for finite rows, whatever their signs
    model = GaussianLinearModel(np.zeros((0, 3)), np.zeros(0), sigma=0.5)
    rng = np.random.default_rng(3)
    for theta in (-np.abs(rng.standard_normal(3)), -np.ones((1, 3)), rng.standard_normal((257, 3)),
                  np.full((2, 3), -0.0)):
        grad = model.grad_log_likelihood(theta)
        assert grad.shape == theta.shape
        assert _same_bits(grad, np.zeros_like(theta))
    with np.errstate(invalid="ignore"):
        grad = model.grad_log_likelihood(np.array([[1.0, np.inf, 0.0], [0.5, -0.5, 1.0]]))
    assert np.isnan(grad[0]).all() and _same_bits(grad[1], np.zeros(3))


def test_loglik_single_gaussian_zero_residual():
    model = GaussianLinearModel(np.array([[1.0]]), np.array([2.0]), sigma=1.0)
    assert model.log_likelihood(np.array([2.0])) == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)


def test_loglik_logistic_symmetric_at_zero():
    target = LogisticTarget(np.ones((1, 1)), np.array([1.0]))
    assert target.log_likelihood(np.zeros(1)) == pytest.approx(math.log(0.5), abs=1e-12)


def test_grad_at_lambda_zero_is_prior_score():
    model = GaussianLinearModel(np.array([[1.0, 0.0]]), np.array([3.0]), sigma=1.0)
    theta = np.array([0.7, -1.2])
    assert grad_tempered(model, theta, 0.0) == pytest.approx(-theta, abs=1e-12)


def test_grad_linear_model_hand_value():
    # -theta + (y - X theta) X / sigma^2 at theta=0: 0 + 2
    model = GaussianLinearModel(np.array([[1.0]]), np.array([2.0]), sigma=1.0)
    assert grad_tempered(model, np.zeros(1), 1.0) == pytest.approx([2.0], abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.31, 1.0])
def test_grad_matches_central_differences(lam):
    rng = np.random.default_rng(42)
    targets = [
        make_gaussian_target(3, 6, 0.7, seed=1),
        make_bimodal_gmm(3),
        make_logistic_target(3, 20, seed=2),
    ]
    for target in targets:
        theta = 0.5 * rng.standard_normal(3)
        grad = grad_tempered(target, theta, lam)
        ref = fd_grad(lambda t: target.log_prior(t) + lam * target.log_likelihood(t), theta)
        assert grad == pytest.approx(ref, rel=1e-4, abs=1e-7)


def test_analytic_posterior_no_data_is_prior():
    model = GaussianLinearModel(np.zeros((0, 2)), np.zeros(0), sigma=1.0)
    mean, cov, logz = model.analytic_posterior()
    assert mean == pytest.approx(np.zeros(2), abs=1e-12)
    assert cov == pytest.approx(np.eye(2), abs=1e-12)
    assert logz == 0.0


def test_analytic_posterior_conjugate_hand_case():
    model = GaussianLinearModel(np.array([[1.0]]), np.array([2.0]), sigma=1.0)
    mean, cov, logz = model.analytic_posterior()
    assert mean == pytest.approx([1.0], abs=1e-12)
    assert np.allclose(cov, [[0.5]], atol=1e-12)
    # marginal likelihood: y ~ N(0, X X^T + sigma^2) = N(0, 2) at y=2
    expected = -0.5 * math.log(2.0 * math.pi * 2.0) - 4.0 / (2.0 * 2.0)
    assert logz == pytest.approx(expected, abs=1e-12)


# log evidence of make_gaussian_target(d, m, sigma, seed=0), computed offline
# with mpmath at 50 digits as log N(y; 0, sigma**2 I + X X^T) from the float64
# X and y; at sigma = 1e-6 a Cholesky factor of the m x m S is off by 2.9e-5
# nats, the d x d form by 3.7e-11
EVIDENCE_REFERENCES = {
    (16, 32, 1.0): -73.111550071489636228,
    (4, 64, 0.05): 78.718455258512718382,
    (16, 4, 0.01): -10.048024739256293401,
    (4, 8, 0.8): -11.255643904909677372,
    (2, 4, 1e-6): 21.678146009806882491,
}


@pytest.mark.parametrize("shape", sorted(EVIDENCE_REFERENCES))
def test_analytic_posterior_matches_high_precision_evidence(shape):
    model = make_gaussian_target(*shape, seed=0)
    X, sigma = model.X, model.sigma
    mean, cov, logz = model.analytic_posterior()
    assert abs(logz - EVIDENCE_REFERENCES[shape]) <= 1e-10
    # the mean and covariance are the plain expressions, bit for bit
    old_cov = np.linalg.inv(np.eye(model.dim) + X.T @ X / sigma**2)
    old_cov = 0.5 * (old_cov + old_cov.T)
    assert _same_bits(cov, old_cov)
    assert _same_bits(mean, old_cov @ (X.T @ model.y / sigma**2))


def test_analytic_posterior_bayes_identity_constant_in_theta():
    # log prior + log lik - log posterior must equal log evidence at any theta
    model = make_gaussian_target(3, 5, 0.8, seed=9)
    mean, cov, logz = model.analytic_posterior()
    prec = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    rng = np.random.default_rng(11)
    for _ in range(5):
        theta = rng.standard_normal(3)
        diff = theta - mean
        log_post = -0.5 * (3 * LOG_2PI + logdet + diff @ prec @ diff)
        value = model.log_prior(theta) + model.log_likelihood(theta) - log_post
        assert value == pytest.approx(logz, abs=1e-9)


def test_make_gaussian_target_is_deterministic():
    a = make_gaussian_target(16, 32, 1.0, seed=3)
    b = make_gaussian_target(16, 32, 1.0, seed=3)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.theta_star, b.theta_star)
    assert a.X.shape == (32, 16)


def test_make_gaussian_target_small_noise_regime():
    model = make_gaussian_target(16, 4, 0.01, seed=5)
    assert model.X.shape == (4, 16)
    mean, cov, logz = model.analytic_posterior()
    assert np.all(np.isfinite(mean)) and np.isfinite(logz)


def test_make_gaussian_target_pinned_truth():
    theta_star = np.full(2, 1.0)
    model = make_gaussian_target(2, 8, 0.5, seed=0, theta_star=theta_star)
    assert np.array_equal(model.theta_star, theta_star)


def test_prior_sample_moments():
    model = GaussianLinearModel(np.zeros((0, 4)), np.zeros(0), sigma=1.0)
    draws = model.prior_sample(np.random.default_rng(123), size=10**5)
    assert draws.shape == (10**5, 4)
    assert np.abs(draws.mean(axis=0)) .max() < 0.02
    assert np.abs(draws.var(axis=0) - 1.0).max() < 0.03


def test_prior_sample_reproducible():
    model = make_logistic_target(3, 4, seed=0)
    a = model.prior_sample(np.random.default_rng(7), size=5)
    b = model.prior_sample(np.random.default_rng(7), size=5)
    assert np.array_equal(a, b)


def test_whiten_unwhiten_round_trip():
    theta = np.random.default_rng(1).standard_normal((8, 4))
    for model in (make_gaussian_target(4, 6, 1.0, seed=2), make_logistic_target(4, 6, seed=2)):
        assert model.unwhiten(model.whiten(theta)) == pytest.approx(theta, abs=1e-12)


def _logsumexp_cases():
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((6, 9))
    rows[1, [2, 5]] = rows[1].max() + 1.0  # tied maxima
    rows[2, ::2] = -np.inf
    rows[3] = -np.inf
    rows[4, 3] = np.inf
    rows[5, 1] = np.nan
    return {
        "vector": rng.standard_normal(17),
        "ties": np.array([2.0, -1.0, 2.0, 0.5, 2.0]),
        "neg_inf_entries": np.array([-np.inf, 1.5, -np.inf, 0.25, -2.0]),
        "all_neg_inf": np.full(4, -np.inf),
        "pos_inf": np.array([0.0, np.inf, 1.0]),
        "nan": np.array([0.0, np.nan, 1.0]),
        "plus_700": rng.standard_normal(12) + 700.0,
        "minus_700": rng.standard_normal(12) - 700.0,
        "huge_spread": np.array([710.0, 0.0, -710.0, 705.0]),
        "rows": rows,
        "rows_700": rows + 700.0,
        "rows_minus_700": rows - 700.0,
        "gmm_components": make_bimodal_gmm(3)._log_components(rng.standard_normal((40, 3)) * 5.0),
    }


@pytest.mark.parametrize("name", sorted(_logsumexp_cases()))
@pytest.mark.parametrize("kwargs", [{}, {"axis": -1}, {"axis": -1, "keepdims": True}, {"keepdims": True}])
def test_logsumexp_equals_scipy(name, kwargs):
    a = _logsumexp_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp(a, **kwargs)
    expect = scipy_logsumexp(a, **kwargs)
    assert type(got) is type(expect)
    assert np.shape(got) == np.shape(expect)
    assert np.array_equal(got, expect, equal_nan=True)


def test_logsumexp_edge_values():
    assert logsumexp(np.full(3, -np.inf)) == -np.inf
    assert np.array_equal(logsumexp(np.full((2, 3), -np.inf), axis=-1), [-np.inf, -np.inf])
    assert logsumexp([np.inf, 0.0]) == np.inf
    assert np.isnan(logsumexp([np.nan, 0.0]))
    assert logsumexp(np.zeros(0)) == -np.inf
    assert logsumexp([0.0, 0.0]) == math.log(2.0)


def test_gmm_mixture_mean():
    gmm = make_bimodal_gmm(2, weight=0.2)
    assert gmm.mixture_mean() == pytest.approx([-0.6, -0.6], abs=1e-12)


def test_gmm_log_density_direct_formula():
    gmm = make_bimodal_gmm(2, weight=0.2)
    theta = np.array([0.3, -0.4])
    comps = [
        0.2 * np.exp(-0.5 * np.sum((theta - 1.0) ** 2)) / (2 * np.pi),
        0.8 * np.exp(-0.5 * np.sum((theta + 1.0) ** 2)) / (2 * np.pi),
    ]
    assert gmm.log_density(theta) == pytest.approx(math.log(sum(comps)), abs=1e-12)


def test_gmm_likelihood_decomposition():
    # prior * likelihood must reassemble the mixture density exactly
    gmm = make_bimodal_gmm(3)
    theta = np.random.default_rng(4).standard_normal((6, 3))
    total = gmm.log_prior(theta) + gmm.log_likelihood(theta)
    assert total == pytest.approx(gmm.log_density(theta), abs=1e-10)


def test_gmm_validation():
    with pytest.raises(ValueError):
        GmmTarget([0.5, 0.6], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        GmmTarget([1.0], np.zeros(3))
    with pytest.raises(ValueError):
        GmmTarget([-0.2, 1.2], np.zeros((2, 1)))
    # NaN fails no comparison of the form weights <= 0
    for weights in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.5]):
        with pytest.raises(ValueError, match="^weights must"):
            GmmTarget(weights, np.zeros((2, 1)))
    for weight in (0.0, 1.0, 1.5, -0.2, np.nan, np.inf):
        with pytest.raises(ValueError, match="^weight must lie in"):
            make_bimodal_gmm(2, weight=weight)


def test_counter_charges_one_per_vector():
    model = make_gaussian_target(2, 3, 1.0, seed=8)
    counter = EvalCounter()
    model.log_likelihood(np.zeros(2), counter)
    assert (counter.likelihood, counter.gradient) == (1, 0)
    model.log_likelihood(np.zeros((5, 2)), counter)
    assert counter.likelihood == 6
    model.grad_log_likelihood(np.zeros((4, 2)), counter)
    assert counter.gradient == 4
    assert counter.epochs == 10


def test_block_height_keeps_one_temporary_in_cache():
    # 32768 floats (256 KiB) per (rows, width) temporary, rounded down to a power of two
    assert make_logistic_target(15, 690, seed=0)._block_rows == 32
    assert make_logistic_target(5, 1100, seed=0)._block_rows == 16
    assert make_gaussian_target(16, 32, 1.0, seed=0)._block_rows == 1024
    assert make_gaussian_target(2, 0, 1.0, seed=0)._block_rows == 32768
    assert make_gaussian_target(1, 40000, 1.0, seed=0)._block_rows == 1
    assert GmmTarget([0.5, 0.5], np.zeros((2, 1024)))._block_rows == 16


def _blocked_targets():
    """One target of each kind whose block height is 16 rows."""
    rng = np.random.default_rng(4)
    return {
        "gaussian": make_gaussian_target(3, 2048, 1.0, seed=5),
        "logistic": make_logistic_target(4, 1100, seed=5),
        "gmm": GmmTarget(np.full(4, 0.25), rng.standard_normal((4, 512))),
    }


@pytest.mark.parametrize("kind", ["gaussian", "logistic", "gmm"])
@pytest.mark.parametrize("method", ["log_likelihood", "grad_log_likelihood"])
def test_blocked_evaluation_matches_blocks_and_one_call(kind, method):
    target = _blocked_targets()[kind]
    h = target._block_rows
    assert h == 16
    evaluate, unblocked = getattr(target, method), getattr(target, "_" + method)
    rng = np.random.default_rng(7)
    for n in (h - 1, h, h + 1, 3 * h + 5):
        theta = 0.3 * rng.standard_normal((n, target.dim))
        got = evaluate(theta)
        per_block = np.concatenate([evaluate(theta[i:i + h]) for i in range(0, n, h)])
        assert np.array_equal(got, per_block)
        one = unblocked(theta)
        assert got.shape == one.shape
        assert np.allclose(got, one, rtol=1e-12, atol=1e-12 * np.abs(one).max())
    theta = 0.3 * rng.standard_normal(target.dim)
    assert np.array_equal(evaluate(theta), unblocked(theta))
    assert np.shape(evaluate(theta)) == np.shape(unblocked(theta))


@pytest.mark.parametrize("kind", ["gaussian", "logistic", "gmm"])
def test_counter_charges_once_per_row_whatever_the_block_count(kind):
    target = _blocked_targets()[kind]
    theta = np.zeros((3 * target._block_rows + 5, target.dim))
    counter = EvalCounter()
    target.log_likelihood(theta, counter)
    assert (counter.likelihood, counter.gradient) == (theta.shape[0], 0)
    target.grad_log_likelihood(theta, counter)
    assert (counter.likelihood, counter.gradient) == (theta.shape[0], theta.shape[0])


def test_logistic_loglik_with_kept_buffer_equals_old_expression():
    # the second softplus temporary lives in a kept buffer; the values are
    # those of a fresh temporary per call, bit for bit, reused, resized,
    # shared between threads and left out of a pickle
    target = _blocked_targets()["logistic"]
    h = target._block_rows
    rng = np.random.default_rng(10)

    def old(theta):
        z = theta @ target.X.T
        fit = z @ target.y
        t = np.abs(z)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        np.maximum(z, 0.0, out=z)
        z += t
        return fit - z.sum(-1)

    batches = [40.0 * rng.standard_normal((n, target.dim)) for n in (1, h - 1, h, h + 1, 3 * h + 5)]
    batches[-1][3, 0] = np.nan
    batches[-1][4, 1] = np.inf
    with np.errstate(invalid="ignore"):
        for theta in batches + batches[::-1]:
            assert _same_bits(target._log_likelihood(theta), old(theta))
            blocks = np.concatenate([old(theta[i:i + h]) for i in range(0, len(theta), h)])
            assert _same_bits(target.log_likelihood(theta), blocks)
            assert _same_bits(target.log_likelihood(theta[0]), old(theta[0]))
    assert len(target._scratch) == 1
    rows = [0.5 * rng.standard_normal((h, target.dim)) for _ in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(target.log_likelihood, rows, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(_same_bits(g, old(theta)) for g, theta in zip(got, rows))
    assert 1 <= len(target._scratch) <= 8
    copy = pickle.loads(pickle.dumps(target))
    assert copy._scratch == [] and target._scratch
    assert _same_bits(copy.log_likelihood(rows[0]), got[0])


def test_logistic_grad_in_place_equals_old_expression():
    target = _blocked_targets()["logistic"]
    h = target._block_rows
    rng = np.random.default_rng(9)

    def old(theta):
        return (target.y - expit(theta @ target.X.T)) @ target.X

    for n in (1, h - 1, h + 1, 3 * h + 5):
        theta = 0.5 * rng.standard_normal((n, target.dim))
        assert np.array_equal(target._grad_log_likelihood(theta), old(theta))
        blocks = np.concatenate([old(theta[i:i + h]) for i in range(0, n, h)])
        assert np.array_equal(target.grad_log_likelihood(theta), blocks)
    assert np.array_equal(target.grad_log_likelihood(theta[0]), old(theta[0]))


def _check_gram_gradient(model, theta):
    """The linear-model gradient is ``b - theta G`` bit for bit, and agrees
    with the residual form ``(y - theta X^T) X / sigma**2`` on finite rows."""
    X, sigma = model.X, model.sigma
    assert _same_bits(model._gram, X.T @ X / sigma**2)
    assert _same_bits(model._xty, X.T @ model.y / sigma**2)
    with np.errstate(invalid="ignore"):
        product = theta @ model._gram
        got = model._grad_log_likelihood(theta)
        assert _same_bits(got, model._xty - product)
        resid_form = (model.y - theta @ X.T) @ X / sigma**2
    finite = np.isfinite(theta).all(axis=-1)
    scale = np.abs(model._xty).max() + np.abs(product[finite]).max(initial=0.0)
    assert np.all(np.abs(got[finite] - resid_form[finite]) <= 1e-12 * scale)


def test_gaussian_grads_equal_gram_and_prior_expressions():
    # the linear-model gradient is the Gram form; the in-place prior
    # gradients keep every operation
    rng = np.random.default_rng(13)
    model = GaussianLinearModel(rng.standard_normal((40, 5)), rng.standard_normal(40), 0.7)
    scaled = LogisticTarget(np.ones((1, 5)), np.ones(1), prior_var=1.7**2)
    for theta in (rng.standard_normal(5), 2.0 * rng.standard_normal((1, 5)),
                  2.0 * rng.standard_normal((257, 5))):
        before = theta.copy()
        _check_gram_gradient(model, theta)
        for target in (model, scaled):
            u = theta / target.prior_std
            assert np.array_equal(target.grad_log_prior(theta), -u / target.prior_std)
        assert np.array_equal(theta, before)


def test_gaussian_tiles_equal_the_broadcast_formulas():
    # b - theta G and y - theta X^T subtract from a kept tile of repeated
    # rows; every edge gives the broadcast expressions' every bit
    rng = np.random.default_rng(14)

    def grad(model, theta):
        return model._xty - theta @ model._gram

    def loglik(model, theta):
        if model.X.shape[0] == 0:
            return np.zeros(theta.shape[:-1]) if theta.ndim > 1 else 0.0
        resid = model.y - theta @ model.X.T
        return model._ll_const - np.sum(np.square(resid), axis=-1) / model._two_var

    model = GaussianLinearModel(rng.standard_normal((9, 4)), rng.standard_normal(9), 0.8)
    wide = rng.standard_normal((30, 8))
    batches = {
        "vector": rng.standard_normal(4),
        "one row": rng.standard_normal((1, 4)),
        "short": rng.standard_normal((5, 4)),
        "taller than the tile": rng.standard_normal((40, 4)),
        "back under the tile": rng.standard_normal((3, 4)),
        "non-contiguous": wide[::3, ::2],
    }
    for name, theta in batches.items():
        assert _same_bits(model.grad_log_likelihood(theta), grad(model, theta)), name
        assert _same_bits(model.log_likelihood(theta), loglik(model, theta)), name
    # each tile grew to the tallest batch met, and is left out of a pickle
    assert {k: t.shape for k, t in model._tiles.items()} == {"_xty": (40, 4), "y": (40, 9)}
    assert np.array_equal(model._tiles["y"], np.tile(model.y, (40, 1)))
    copy = pickle.loads(pickle.dumps(model))
    assert copy._tiles == {} and model._tiles
    assert _same_bits(copy.grad_log_likelihood(batches["short"]), grad(model, batches["short"]))
    empty = GaussianLinearModel(np.zeros((0, 3)), np.zeros(0), 1.0)
    for theta in (rng.standard_normal(3), rng.standard_normal((6, 3))):
        assert _same_bits(empty.grad_log_likelihood(theta), grad(empty, theta))
        assert _same_bits(np.asarray(empty.log_likelihood(theta)), np.asarray(loglik(empty, theta)))


def test_gaussian_gradient_runs_in_its_own_block_height():
    # the Gram-form gradient's per-row temporary is d wide: at m = 4096 the
    # log-likelihood takes a 256-row batch in 8-row blocks, the gradient in one call
    model = make_gaussian_target(2, 4096, 1.0, seed=0)
    assert (model._block_rows, model._grad_block_rows) == (8, 16384)
    assert make_gaussian_target(16, 32, 1.0, seed=0)._grad_block_rows == 2048
    logistic, gmm = make_logistic_target(15, 690, seed=0), make_bimodal_gmm(3)
    assert logistic._grad_block_rows == logistic._block_rows and gmm._grad_block_rows == gmm._block_rows
    calls = {"ll": 0, "grad": 0}
    ll, grad = model._log_likelihood, model._grad_log_likelihood

    def counted(key, fn):
        def wrapper(theta):
            calls[key] += 1
            return fn(theta)
        return wrapper

    model._log_likelihood, model._grad_log_likelihood = counted("ll", ll), counted("grad", grad)
    theta = np.random.default_rng(15).standard_normal((256, 2))
    counter = EvalCounter()
    model.log_likelihood(theta, counter)
    got = model.grad_log_likelihood(theta, counter)
    assert calls == {"ll": 32, "grad": 1}
    assert (counter.likelihood, counter.gradient) == (256, 256)
    assert _same_bits(got, grad(theta))


def _same_bits(a, b):
    """Equal values, NaN and the sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return (np.array_equal(a, b, equal_nan=True) and a.dtype == b.dtype
            and a.shape == b.shape and a.tobytes() == b.tobytes())


def _general_prior_formulas(target, theta):
    """``log_prior`` and ``grad_log_prior`` with every operation of the scaled path."""
    d, std = target.dim, target.prior_std
    u = theta / std
    log_prior = -0.5 * np.sum(np.square(u), axis=-1) - 0.5 * d * LOG_2PI - d * np.log(std)
    return log_prior, -(u / std)


def _special_rows(rng, n, d):
    theta = 3.0 * rng.standard_normal((n, d))
    theta[0] = [np.nan, np.inf, -np.inf, -0.0, 0.0][:d]
    if n > 1:
        theta[n // 2, 1:3] = [-0.0, np.nan]
    return theta


def _prior_targets(std):
    """One target of each kind whose prior std is ``std``, all with d = 5."""
    if std == 1.0:
        return [make_gaussian_target(5, 4, 1.0, seed=0), make_bimodal_gmm(5),
                make_logistic_target(5, 10, seed=0, prior_var=1.0)]
    return [make_logistic_target(5, 10, seed=0, prior_var=std**2)]


def _check_prior_methods(target, rng):
    for theta in (_special_rows(rng, 1, 5), _special_rows(rng, 257, 5), _special_rows(rng, 1, 5)[0]):
        before = theta.copy()
        log_prior, grad = _general_prior_formulas(target, theta)
        assert _same_bits(target.log_prior(theta), log_prior)
        assert _same_bits(target.grad_log_prior(theta), grad)
        assert _same_bits(target.whiten(theta), theta / target.prior_std)
        assert _same_bits(target.unwhiten(theta), 0.0 + target.prior_std * theta)
        assert _same_bits(theta, before)


def test_standard_normal_prior_fast_path_equals_general_formulas():
    # at std 1.0, x / 1.0 is exact: the fast path keeps every bit, NaN,
    # +-inf and -0.0 entries included
    rng = np.random.default_rng(31)
    for target in _prior_targets(1.0):
        assert target.prior_std == 1.0
        _check_prior_methods(target, rng)


def test_signed_zero_or_scaled_prior_takes_the_general_path():
    # a scaled prior divides by its std; -0.0 keeps its sign through the
    # division, the gradient negates it to +0.0, and unwhiten's 0.0 + turns
    # it into +0.0
    rng = np.random.default_rng(32)
    for std in (1.5, 10.0, 1.0 + 2.0**-52):
        (target,) = _prior_targets(std)
        assert target.prior_std != 1.0
        _check_prior_methods(target, rng)
    target = make_logistic_target(3, 10, seed=0)
    assert target.prior_std == 10.0
    theta = np.full((2, 3), -0.0)
    assert np.signbit(target.whiten(theta)).all()
    assert not np.signbit(target.grad_log_prior(theta)).any()
    assert not np.signbit(target.unwhiten(theta)).any()


def test_prior_std_must_be_positive_and_finite():
    target = make_bimodal_gmm(2)
    for std in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="prior standard deviation"):
            target._set_prior(2, std)


def test_unit_sigma_gradient_equals_gram_form():
    # sigma = 1 takes the same path: 1 / sigma**2 is folded into G and b
    rng = np.random.default_rng(33)
    model = GaussianLinearModel(rng.standard_normal((40, 5)), rng.standard_normal(40), 1.0)
    for theta in (rng.standard_normal(5), _special_rows(rng, 1, 5), 2.0 * rng.standard_normal((257, 5)),
                  _special_rows(rng, 257, 5)):
        _check_gram_gradient(model, theta)


def test_gaussian_loglik_equals_old_expression():
    # the constants kept on the target are built by the plain expression's operations
    rng = np.random.default_rng(34)
    for sigma in (0.7, 1.0, 1e-3):
        model = GaussianLinearModel(rng.standard_normal((40, 5)), rng.standard_normal(40), sigma)
        for theta in (rng.standard_normal(5), 2.0 * rng.standard_normal((1, 5)),
                      2.0 * rng.standard_normal((257, 5))):
            resid = model.y - theta @ model.X.T
            quad = np.sum(np.square(resid), axis=-1) / (2.0 * model.sigma**2)
            old = -0.5 * 40 * (LOG_2PI + 2.0 * np.log(model.sigma)) - quad
            assert _same_bits(model._log_likelihood(theta), old)
            assert _same_bits(model.log_likelihood(theta), old)


def test_logistic_requires_intercept_and_binary_labels():
    with pytest.raises(ValueError):
        LogisticTarget(np.array([[0.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        LogisticTarget(np.ones((2, 1)), np.array([0.0, 2.0]))
    for prior_var in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^prior_var must be positive and finite"):
            LogisticTarget(np.ones((1, 1)), np.array([1.0]), prior_var=prior_var)


def test_logistic_loglik_stable_at_extreme_theta():
    target = make_logistic_target(2, 10, seed=3)
    value = target.log_likelihood(np.array([500.0, -500.0]))
    assert np.isfinite(value)


def _logaddexp_loglik(target, theta):
    z = np.asarray(theta, dtype=float) @ target.X.T
    return z @ target.y - np.sum(np.logaddexp(0.0, z), axis=-1)


def test_logistic_loglik_matches_logaddexp_oracle():
    target = make_logistic_target(4, 50, seed=2)
    rng = np.random.default_rng(6)
    batch = np.vstack([
        np.zeros(4),  # z = 0 in every row
        [800.0, 0.0, 0.0, 0.0],  # z = 800
        [-800.0, 0.0, 0.0, 0.0],  # z = -800
        [0.0, 300.0, -300.0, 250.0],  # |z| well past 700 in most rows
        rng.standard_normal((12, 4)) * 3.0,
    ])
    assert np.abs(batch @ target.X.T).max() > 700.0
    got = target.log_likelihood(batch)
    assert got.shape == (batch.shape[0],)
    assert np.allclose(got, _logaddexp_loglik(target, batch), rtol=1e-12, atol=0.0)
    for theta in batch:
        one = target.log_likelihood(theta)
        assert np.ndim(one) == 0
        assert one == pytest.approx(_logaddexp_loglik(target, theta), rel=1e-12)


def test_logistic_loglik_leaves_theta_unmodified():
    target = make_logistic_target(3, 20, seed=1)
    theta = np.random.default_rng(2).standard_normal((5, 3)) * 4.0
    before = theta.copy()
    target.log_likelihood(theta)
    target.log_likelihood(theta[0])
    assert np.array_equal(theta, before)


def test_make_logistic_target_shapes():
    target = make_logistic_target(15, 690, seed=1)
    assert target.X.shape == (690, 15)
    assert np.all(target.X[:, 0] == 1.0)
    assert set(np.unique(target.y)) <= {0.0, 1.0}
    assert target.theta_star.shape == (15,)


# every (d, m, seed) of make_logistic_target in the tests, the harness
# tests and the benchmark workloads
LOGISTIC_BUILDS = [
    (2, 10, 0), (2, 10, 3), (3, 4, 0), (3, 20, 1), (3, 20, 2), (4, 20, 0), (4, 50, 2),
    (4, 1100, 5), (5, 100, 1), (5, 1100, 0), (5, 1100, 1), (15, 690, 0), (15, 690, 1),
]


@pytest.mark.parametrize("d, m, seed", LOGISTIC_BUILDS)
def test_make_logistic_target_equals_scipy_expit_build(d, m, seed):
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((m, 1)), rng.standard_normal((m, d - 1))])
    theta_star = rng.standard_normal(d)
    y = (rng.random(m) < expit(X @ theta_star)).astype(float)
    target = make_logistic_target(d, m, seed)
    assert np.array_equal(target.X, X)
    assert np.array_equal(target.y, y)
    assert np.array_equal(target.theta_star, theta_star)


# builds the workload targets and runs each sampler the workloads run, then
# prints the scipy modules loaded
_NO_SCIPY_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from islandmc import ais, islands, kernels, smc, targets
gauss = targets.make_gaussian_target(16, 32, 1.0, seed=0, theta_star=np.ones(16))
gauss.analytic_posterior()
logistic = targets.make_logistic_target(15, 690, seed=0)
gmm = targets.make_bimodal_gmm(3)
theta = np.random.default_rng(0).standard_normal((5, 3))
gmm.log_likelihood(theta), gmm.grad_log_likelihood(theta), gmm.log_density(theta)
ens = islands.run_islands(2, smc.SmcConfig(16, 1, kernels.PcnConfig(0.5)), logistic, 0)
islands.combine_weighted(ens), islands.log_mean_evidence(ens.logz_totals())
smc.run_smc(smc.SmcConfig(16, 1, kernels.HmcConfig(0.1, 3)), gauss, 0)
samples, log_w, _ = ais.run_ais(ais.AisConfig(16, ais.make_neal_schedule(), kernels.PcnConfig(0.5)), logistic, 0)
ais.ais_estimate(samples, log_w), ais.log_evidence_estimate(log_w)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_workload_paths_do_not_load_scipy():
    src = str(Path(islandmc.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, src],
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_load_logistic_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,label\n0.5,-1.0,1\n-0.25,2.0,0\n1.5,0.0,1\n")
    target = load_logistic_csv(path, prior_var=25.0)
    assert target.X.shape == (3, 3)
    assert np.array_equal(target.X[:, 0], np.ones(3))
    assert np.array_equal(target.X[:, 1], [0.5, -0.25, 1.5])
    assert np.array_equal(target.y, [1.0, 0.0, 1.0])
    assert target.prior_var == 25.0


def test_load_logistic_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="header"):
        load_logistic_csv(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,label\n1.0,1\noops,0\n")
    with pytest.raises(ValueError, match=":3"):
        load_logistic_csv(bad)
    # a short or long row, or a non-finite field, is rejected at its line
    for name, text, message in (
        ("short", "x1,x2,label\n1.0,2.0,1\n0.5,0\n", ":3: 2 fields, expected 3"),
        ("long", "x1,label\n1.0,1\n0.5,2.0,0\n", ":3: 3 fields, expected 2"),
        ("inf", "x1,x2,label\n1.0,inf,1\n", ":2: non-finite"),
        ("neg_inf", "x1,label\n1.0,1\n2.0,0\n-inf,0\n", ":4: non-finite"),
        ("nan", "x1,label\nnan,1\n", ":2: non-finite"),
        ("nan_label", "x1,label\n1.0,1\n0.5,NaN\n", ":3: non-finite"),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_logistic_csv(path)
        assert str(err.value).startswith(f"{path}{message}"), str(err.value)
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("label\n1\n")
    with pytest.raises(ValueError, match="covariate"):
        load_logistic_csv(narrow)


def test_dimension_mismatch_raises():
    model = make_gaussian_target(3, 2, 1.0, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        model.log_likelihood(np.zeros(4))


def test_model_validation():
    with pytest.raises(ValueError):
        GaussianLinearModel(np.zeros((2, 2)), np.zeros(3), sigma=1.0)
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^sigma must be positive and finite"):
            GaussianLinearModel(np.zeros((2, 2)), np.zeros(2), sigma=sigma)

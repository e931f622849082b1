"""Conjugate posterior, exceedance estimators and their agreement."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import contraction_lab as cl
from contraction_lab import posterior, quadform, rates
from contraction_lab import runner as runner_module
from contraction_lab.config import build_problem, build_truth
from contraction_lab.errors import NumericalError, ParameterError
from contraction_lab.rng import derive_seed, substream
from contraction_lab.spectral import forward_apply

from block_reference import scattered_distances, scattered_factor, zero_pattern_blocks
from oracles import (finite_dim_exceedance_given_y, imhof_tail, projection_tail_grid,
                     snis_exceedance, weighted_posterior_exceedance)


def scalar_problem(rho=1.0, lam=1.0, zeta=1.0):
    return cl.InverseProblem(
        cl.make_spectrum(np.array([rho]), 1),
        cl.make_coupling(cl.IdentityCoupling(), 1),
        cl.explicit_prior([lam], 1),
        cl.diagonal_noise([zeta], 1), 1)


def one_block_cholesky(mat):
    """``cholesky_with_jitter`` of an array taken as one block: the array
    itself is the operator's one part, so the factor is written into it when
    it is a writeable Fortran-ordered float array."""
    return cl.cholesky_with_jitter(quadform.BlockDiagonal.from_dense(mat)).dense()


def covariance(post):
    """A posterior's covariance ``cov_factor @ cov_factor.T``, dense."""
    factor = post.cov_factor.dense()
    return factor @ factor.T


def one_block(mat):
    """``mat`` as a ``BlockDiagonal`` of one block, or of one run at N = 1."""
    return quadform.BlockDiagonal.from_dense(mat)


def random_problem(seed, n_dim=None):
    rng = np.random.default_rng(seed)
    n = n_dim or int(rng.integers(1, 5))
    rho = np.sort(rng.uniform(0.2, 1.5, n))[::-1]
    lam = rng.uniform(0.2, 2.0, n)
    zeta = rng.uniform(0.5, 1.5, n)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return cl.InverseProblem(
        cl.make_spectrum(rho, n),
        cl.make_coupling(cl.ExplicitCoupling(q), n),
        cl.explicit_prior(lam, n),
        cl.diagonal_noise(zeta, n), n)


class TestConjugatePosterior:
    def test_scalar_conjugate_oracle(self):
        """Unit prior, operator, noise and n = y = 1: N(1/2, 1/2)."""
        prob = scalar_problem()
        data = cl.DataSample(np.array([1.0]), 1.0, np.array([0.0]), 0)
        post = cl.conjugate_posterior(prob, data)
        assert math.isclose(post.mean[0], 0.5, rel_tol=1e-14)
        assert math.isclose(covariance(post)[0, 0], 0.5, rel_tol=1e-14)

    def test_noiseless_limit_inverts_operator(self):
        """At n = 1e10 the mean approaches T^-1 diag(1/rho) y."""
        prob = random_problem(3, n_dim=2)
        y = np.array([0.7, -0.4])
        data = cl.DataSample(y, 1e10, np.zeros(2), 0)
        post = cl.conjugate_posterior(prob, data)
        exact = prob.coupling.t_matrix.T @ (y / prob.operator.rho)
        assert np.linalg.norm(post.mean - exact) < 1e-4

    def test_zero_data_zero_mean(self):
        prob = random_problem(8)
        data = cl.DataSample(np.zeros(prob.n_dim), 10.0, np.zeros(prob.n_dim), 0)
        post = cl.conjugate_posterior(prob, data)
        assert np.all(post.mean == 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_precision_reconstruction(self, seed):
        """Covariance factor reproduces prior precision + n * M'M to 1e-8."""
        prob = random_problem(seed)
        data = cl.simulate_data(prob, np.zeros(prob.n_dim), 20.0, seed=seed)
        post = cl.conjugate_posterior(prob, data)
        rebuilt = np.linalg.inv(covariance(post))
        target = cl.posterior_precision(prob, data.n_level).dense()
        assert np.linalg.norm(rebuilt - target) <= 1e-8 * np.linalg.norm(target)


class TestExceedance:
    def test_zero_radius_full_mass(self):
        post = cl.PosteriorGaussian(np.zeros(1), one_block(np.eye(1)), 1.0)
        est = cl.posterior_exceedance_grid(post, np.zeros(1), [0.0], 500, seed=4)[0]
        assert est.value == 1.0

    def test_standard_normal_oracle(self):
        """P(|Z| > 1) = 2(1 - Phi(1)) ~ 0.3173, within 3 binomial SE."""
        post = cl.PosteriorGaussian(np.zeros(1), one_block(np.eye(1)), 1.0)
        est = cl.posterior_exceedance_grid(post, np.zeros(1), [1.0], 40_000, seed=4)[0]
        target = 2 * norm.sf(1.0)
        assert abs(est.value - target) <= 3 * max(est.std_error, 1e-6)

    def test_huge_radius_negligible_mass(self):
        """Radius 1e3 (||mean - u0|| + trace) bounds the mass below 1% by
        Chebyshev with room to spare."""
        prob = random_problem(10, n_dim=3)
        data = cl.simulate_data(prob, np.zeros(3), 4.0, seed=2)
        post = cl.conjugate_posterior(prob, data)
        u0 = np.full(3, 0.1)
        xi = 1e3 * (np.linalg.norm(post.mean - u0) + np.trace(covariance(post)))
        est = cl.posterior_exceedance_grid(post, u0, [xi], 2000, seed=6)[0]
        assert est.value < 0.01

    def test_monotone_in_radius_on_shared_batch(self):
        prob = random_problem(11, n_dim=3)
        data = cl.simulate_data(prob, np.zeros(3), 4.0, seed=2)
        post = cl.conjugate_posterior(prob, data)
        xis = np.linspace(0.0, 3.0, 13)
        values = [e.value for e in cl.posterior_exceedance_grid(post, np.zeros(3), xis, 500, seed=1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_shift_covariance_bit_identical(self):
        """Translating u0 and the mean by one lattice vector changes nothing.

        All coordinates are multiples of 2^-20 below 2^11 so every addition
        and subtraction is exact in double precision.
        """
        rng = np.random.default_rng(12)
        scale = 2.0**-20
        mean = np.round(rng.uniform(-1, 1, 3) / scale) * scale
        u0 = np.round(rng.uniform(-1, 1, 3) / scale) * scale
        shift = np.round(rng.uniform(-1000, 1000, 3) / scale) * scale
        factor = one_block(np.linalg.cholesky(np.eye(3) * 0.25))
        a = cl.posterior_exceedance_grid(cl.PosteriorGaussian(mean, factor, 1.0), u0, [0.5],
                                         500, seed=3)[0]
        b = cl.posterior_exceedance_grid(cl.PosteriorGaussian(mean + shift, factor, 1.0),
                                         u0 + shift, [0.5], 500, seed=3)[0]
        assert a.value == b.value

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_radius_must_be_nonnegative(self, bad):
        """A NaN radius is refused, not tabulated as an estimate of 0.0 with
        a standard error of 0.0."""
        post = cl.PosteriorGaussian(np.zeros(1), one_block(np.eye(1)), 1.0)
        with pytest.raises(ParameterError, match="radius must be nonnegative"):
            cl.posterior_exceedance_grid(post, np.zeros(1), [1.0, bad], 100, seed=0)

    def test_mc_floor(self):
        post = cl.PosteriorGaussian(np.zeros(1), one_block(np.eye(1)), 1.0)
        with pytest.raises(ParameterError):
            cl.posterior_exceedance_grid(post, np.zeros(1), [1.0], 50, seed=0)


class TestWeightedExceedance:
    def test_zero_radius_is_one(self):
        prob = random_problem(20, n_dim=2)
        data = cl.simulate_data(prob, np.zeros(2), 5.0, seed=1)
        est = weighted_posterior_exceedance(prob, data, np.zeros(2), 0.0, mc=2000, seed=2)
        assert est.value == 1.0
        assert est.log_normalizer is not None and math.isfinite(est.log_normalizer)

    def test_huge_radius_is_zero(self):
        prob = random_problem(21, n_dim=2)
        data = cl.DataSample(np.zeros(2), 1.0, np.zeros(2), 0)
        est = weighted_posterior_exceedance(prob, data, np.zeros(2), 1e6, mc=2000, seed=2)
        assert est.value == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_conjugate_route(self, seed):
        """Prior-weighted estimator matches the closed form within 4 SE
        at radius equal to the mean posterior standard deviation."""
        prob = random_problem(seed + 30, n_dim=2)
        u0 = np.array([0.3, -0.2])
        data = cl.simulate_data(prob, u0, 10.0, seed=seed)
        post = cl.conjugate_posterior(prob, data)
        xi = float(np.sqrt(np.trace(covariance(post)) / 2))
        conj = cl.posterior_exceedance_grid(post, u0, [xi], 20_000, seed=seed + 1)[0]
        weighted = weighted_posterior_exceedance(prob, data, u0, xi, mc=40_000, seed=seed + 2)
        combined = math.hypot(conj.std_error, weighted.std_error)
        assert abs(conj.value - weighted.value) <= 4 * combined

    def test_normalizer_positive_finite_and_ess_reported(self):
        prob = random_problem(40, n_dim=3)
        data = cl.simulate_data(prob, cl.power_law_truth(1.0, 3), 50.0, seed=3)
        est = weighted_posterior_exceedance(prob, data, np.zeros(3), 0.5, mc=4000, seed=4)
        assert math.isfinite(est.log_normalizer)
        assert est.ess is not None and 1.0 <= est.ess <= est.mc_count + 1e-9

    def test_degeneracy_flagged_at_extreme_noise_level(self):
        """At n = 1e8 nearly all prior draws carry negligible weight."""
        prob = random_problem(41, n_dim=2)
        data = cl.simulate_data(prob, np.array([0.5, 0.1]), 1e8, seed=5)
        est = weighted_posterior_exceedance(prob, data, np.zeros(2), 0.1, mc=1000, seed=6)
        assert est.degenerate

    def test_mc_floor(self):
        prob = random_problem(43, n_dim=2)
        data = cl.simulate_data(prob, np.zeros(2), 5.0, seed=1)
        with pytest.raises(ParameterError):
            weighted_posterior_exceedance(prob, data, np.zeros(2), 1.0, mc=500, seed=2)


def _guarded_inputs():
    """A small problem, a data draw and a one-dimensional finite-dimensional
    experiment for the guard cases below."""
    prob = random_problem(20, n_dim=2)
    prior = cl.GaussianMixturePrior(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
    exp = cl.FiniteDimExperiment(p=1, q=1, g_matrix=np.array([[1.0]]), prior=prior, m_const=3.0)
    return prob, cl.simulate_data(prob, np.zeros(2), 5.0, seed=1), exp


def _plane_experiment():
    return cl.FiniteDimExperiment(p=2, q=2, g_matrix=np.eye(2),
                                  prior=cl.two_component_mixture(2), m_const=3.0)


@pytest.mark.parametrize("name, call", [
    ("xi", lambda prob, data, exp: weighted_posterior_exceedance(
        prob, data, np.zeros(2), math.nan, mc=1000)),
    ("thresholds", lambda prob, data, exp: projection_tail_grid(prob, 1, None, [math.nan])),
    ("xi", lambda prob, data, exp: finite_dim_exceedance_given_y(
        exp, [0.3], np.zeros(1), 10.0, math.nan, 1000, 0)),
    ("n_level", lambda prob, data, exp: finite_dim_exceedance_given_y(
        exp, [0.3], np.zeros(1), math.nan, 0.5, 1000, 0)),
    ("xi", lambda prob, data, exp: cl.finite_dim_exceedance(
        exp, [0.3], np.zeros(1), 10.0, math.nan)),
    ("n_level", lambda prob, data, exp: cl.finite_dim_exceedance(
        exp, [0.3], np.zeros(1), math.nan, 0.5)),
    ("xi", lambda prob, data, exp: cl.finite_dim_exceedance(
        _plane_experiment(), [[0.3, 0.1], [0.2, 0.0]], np.zeros(2), 10.0, [0.5, math.nan])),
    ("u0", lambda prob, data, exp: cl.finite_dim_exceedance(
        _plane_experiment(), [0.3, 0.1], np.zeros(1), 10.0, 0.5)),
    ("xi", lambda prob, data, exp: cl.finite_dim_exceedance(
        _plane_experiment(), [[0.3, 0.1], [0.2, 0.0]], np.zeros(2), 10.0, [0.5, 0.5, 0.5])),
    ("y", lambda prob, data, exp: cl.finite_dim_exceedance(
        _plane_experiment(), [0.3, 0.1, 0.2], np.zeros(2), 10.0, 0.5)),
    *(("n_level", lambda prob, data, exp, n=n: cl.factor_posterior(prob, n))
      for n in (0.0, -5.0, math.inf, math.nan)),
    ("n_level", lambda prob, data, exp: cl.concentration_check(prob, 1, 2, math.nan)),
    ("eps", lambda prob, data, exp: cl.small_ball_log_prob(prob, np.zeros(2), math.nan)),
    ("eps", lambda prob, data, exp: cl.small_ball_log_prob(prob, np.zeros(2), math.inf)),
    ("y_replicates", lambda prob, data, exp: cl.finite_dim_rate_run(
        exp, np.zeros(1), [10.0, 100.0], 0, 0)),
    ("threshold", lambda prob, data, exp: cl.projection_log_tail_bound(prob, 1, None, math.nan)),
    *(("n_level", lambda prob, data, exp, n=n: cl.simulate_data(prob, np.zeros(2), n, 0))
      for n in (math.inf, math.nan)),
    ("n_level", lambda prob, data, exp: cl.PosteriorGaussian(
        np.zeros(2), one_block(np.eye(2)), math.nan)),
], ids=["weighted-xi-nan", "tail-grid-nan", "findim-xi-nan", "findim-n-nan", "exact-1d-xi-nan",
        "exact-1d-n-nan", "exact-2d-xi-nan", "exact-2d-u0-length", "exact-2d-xi-length",
        "exact-2d-y-shape",
        "factor-n-0", "factor-n-negative", "factor-n-inf", "factor-n-nan",
        "concentration-n-nan", "small-ball-eps-nan", "small-ball-eps-inf",
        "findim-no-replicates", "tail-bound-threshold-nan",
        "simulate-n-inf", "simulate-n-nan", "posterior-gaussian-n-nan"])
def test_public_guards_refuse_nan_infinite_and_nonpositive_inputs(name, call):
    """A NaN, infinite, non-positive or mis-shaped input raises
    ``ParameterError`` naming its argument: it is not turned into an
    estimate of 0.0, a NaN mean, a LAPACK or broadcasting failure or an
    error about another argument."""
    with pytest.raises(ParameterError, match=f"^{name} must"):
        call(*_guarded_inputs())


class TestJitteredCholesky:
    def test_recovers_nearly_singular(self):
        mat = np.diag([1.0, 1e-18])
        mat[0, 1] = mat[1, 0] = 1e-9 - 1e-25
        factor = one_block_cholesky(mat)
        assert np.all(np.diag(factor) > 0)

    def test_fails_on_indefinite(self):
        from contraction_lab.errors import NumericalError

        with pytest.raises(NumericalError):
            one_block_cholesky(np.diag([1.0, -1.0]))


class TestPosteriorFactor:
    @pytest.mark.parametrize("seed", range(3))
    def test_reused_factor_matches_conjugate_posterior(self, seed):
        prob = random_problem(seed, n_dim=4)
        factor = cl.factor_posterior(prob, 50.0)
        for s in range(3):
            data = cl.simulate_data(prob, np.ones(4), 50.0, seed=s)
            post = cl.conjugate_posterior(prob, data)
            reused = factor.condition(data.y)
            assert np.array_equal(reused.mean, post.mean)
            assert np.array_equal(reused.cov_factor.dense(), post.cov_factor.dense())

    @pytest.mark.parametrize("n_dim,count", [(1, 5), (4, 300), (40, 7)])
    def test_distances_equal_plain_norm_bit_for_bit(self, n_dim, count):
        prob = random_problem(2, n_dim=n_dim)
        rng = np.random.default_rng(n_dim)
        post = cl.factor_posterior(prob, 10.0).condition(rng.standard_normal(n_dim))
        u0 = rng.standard_normal(n_dim)
        z = rng.standard_normal((n_dim, count))
        reference = np.linalg.norm((post.mean - u0)[:, None] + post.cov_factor.dense() @ z,
                                   axis=0)
        assert np.array_equal(post.distances(u0, z), reference)


    @pytest.mark.parametrize("seed", range(3))
    def test_block_mean_matches_column_means(self, seed):
        """An (N, R) data block gives one posterior mean per column, equal to
        the single-vector means up to the rounding of a BLAS-3 solve."""
        prob = random_problem(seed, n_dim=7)
        factor = cl.factor_posterior(prob, 1e3)
        ys = np.random.default_rng(seed).standard_normal((7, 5))
        block = factor.mean(ys)
        assert block.shape == (7, 5)
        for r in range(5):
            column = factor.mean(ys[:, r])
            assert np.allclose(block[:, r], column, rtol=0,
                               atol=1e-13 * np.abs(column).max())
        with pytest.raises(ParameterError, match="vector or an"):
            factor.mean(ys.T)
        with pytest.raises(ParameterError):
            factor.mean(ys[:, :, None])

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_spectrum_reconstructs_covariance(self, seed):
        """``covariance_spectrum`` of the identity gives the eigenvectors
        themselves, as rows."""
        prob = random_problem(seed, n_dim=6)
        factor = cl.factor_posterior(prob, 50.0)
        lam, vt = factor.covariance_spectrum(np.eye(6))
        vecs = vt.T
        post = factor.condition(np.zeros(6))
        cov = covariance(post)
        assert np.all(lam >= 0)
        assert np.allclose((vecs * lam) @ vecs.T, cov, rtol=0, atol=1e-12 * lam.max())

    @pytest.mark.parametrize("n_level", [1e2, 1e6])
    def test_cov_factor_inverts_precision_at_smooth_prior(self, n_level):
        """The sampling factor is the upper-triangular inverse transpose of the
        precision's Cholesky factor, and its square inverts the precision to
        1e-13 even at prior smoothness 5, where cond(P) reaches 6.7e27."""
        prob = _banded_problem(512, 5.0)
        factor = cl.factor_posterior(prob, n_level).condition(np.zeros(512)).cov_factor.dense()
        assert np.array_equal(factor, np.triu(factor)) and np.all(np.diag(factor) > 0)
        resid = factor @ factor.T @ cl.posterior_precision(prob, n_level).dense() - np.eye(512)
        assert np.linalg.norm(resid) <= 1e-13

    def test_covariance_handed_to_dsytrd_holds_the_lower_triangle(self, monkeypatch):
        """The tridiagonal reduction is handed a Fortran-ordered covariance
        (so LAPACK reduces it in place) whose lower triangle is the lower
        triangle of an independently computed ``L^{-T} L^{-1}``."""
        captured = []
        original = quadform.dsytrd

        def capturing(mat, *args, **kwargs):
            captured.append((mat.copy(), mat.flags.f_contiguous))
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(quadform, "dsytrd", capturing)
        prob = random_problem(3, n_dim=40)
        cl.factor_posterior(prob, 1e3).covariance_spectrum(np.eye(40))
        assert len(captured) == 1
        mat, fortran = captured[0]
        assert fortran
        p_chol = np.linalg.cholesky(cl.posterior_precision(prob, 1e3).dense())
        inv = scipy.linalg.solve_triangular(p_chol, np.eye(40), lower=True)
        ref = inv.T @ inv
        assert np.allclose(np.tril(mat), np.tril(ref), rtol=0, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("kind", ["banded", "dense"])
    def test_covariance_upper_triangle_is_never_read(self, monkeypatch, kind):
        """NaN in the strict upper triangle of every covariance block leaves
        the spectrum and the rate-fit radii bit for bit the same, on the
        default banded config and on a dense Hilbert-scale problem at
        N = 256."""
        config, prob, u0 = _default_banded() if kind == "banded" else _dense_hilbert(256)
        g_u0 = forward_apply(prob, u0)
        original = posterior.PosteriorFactor._covariance

        def poisoned(self, lo, hi, part):
            cov = original(self, lo, hi, part)
            if cov.ndim == 2:  # a run of one-row blocks has no upper triangle
                cov[np.triu_indices(hi - lo, 1)] = np.nan
            return cov

        for i, n in enumerate(config.run["n_grid"][::2]):
            ys = np.column_stack([rates._replicate_distances(prob, g_u0, n,
                                                             substream(3, "rate-fit", i, rep))
                                  for rep in range(4)])
            factor = cl.factor_posterior(prob, n)
            d = factor.mean(ys) - u0[:, None]
            before = factor.covariance_spectrum(d), rates._posterior_radii(factor, u0, 0.1, ys)
            with monkeypatch.context() as patch:
                patch.setattr(posterior.PosteriorFactor, "_covariance", poisoned)
                after = factor.covariance_spectrum(d), rates._posterior_radii(factor, u0, 0.1, ys)
            assert all(np.array_equal(x, y) for x, y in zip(before[0], after[0]))
            assert np.array_equal(before[1], after[1])

    def test_cached_factors_are_read_only(self):
        """A posterior shares its covariance factor with the factor it was
        conditioned on, so a write through it must not reach later posteriors."""
        prob = random_problem(1, n_dim=5)
        factor = cl.factor_posterior(prob, 50.0)
        post = factor.condition(np.ones(5))
        before = post.cov_factor.dense().copy()
        with pytest.raises(ValueError, match="read-only"):
            post.cov_factor.parts[0][:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            factor._precision_chol.parts[0][0, 0] = 2.0
        assert np.array_equal(factor.condition(np.zeros(5)).cov_factor.dense(), before)

    def test_eigenvalue_rounding_of_zero_is_clipped(self, monkeypatch):
        prob = random_problem(0, n_dim=4)
        floor = quadform.EIGENVALUE_RTOL * 4
        fake = (np.array([-0.5 * floor, 0.2, 0.5, 1.0]), np.eye(4), 0)
        monkeypatch.setattr(quadform, "dstevd", lambda *a, **k: fake)
        lam, _ = cl.factor_posterior(prob, 50.0).covariance_spectrum(np.eye(4))
        assert lam[0] == 0.0 and lam[-1] == 1.0

    def test_negative_eigenvalue_beyond_rounding_raises(self, monkeypatch):
        prob = random_problem(0, n_dim=4)
        floor = quadform.EIGENVALUE_RTOL * 4
        fake = (np.array([-2.0 * floor, 0.2, 0.5, 1.0]), np.eye(4), 0)
        monkeypatch.setattr(quadform, "dstevd", lambda *a, **k: fake)
        with pytest.raises(NumericalError, match="rounding floor"):
            cl.factor_posterior(prob, 50.0).covariance_spectrum(np.eye(4))

    @pytest.mark.parametrize("routine", ["dsytrd", "dormqr", "dstevd"])
    def test_lapack_failure_raises_numerical_error(self, monkeypatch, routine):
        """A nonzero ``info`` from any step of the kernel raises a typed error
        naming the routine and the noise level."""
        original = getattr(quadform, routine)

        def failing(*args, **kwargs):
            out = original(*args, **kwargs)
            return out[:-1] + (3,)

        monkeypatch.setattr(quadform, routine, failing)
        factor = cl.factor_posterior(random_problem(0, n_dim=4), 50.0)
        with pytest.raises(NumericalError, match=f"{routine} failed .* n_level = 50.0"):
            factor.covariance_spectrum(np.ones(4))


    def test_dpotri_failure_raises_numerical_error(self, monkeypatch):
        """The covariance block's LAPACK call is checked like the kernel's."""
        original = posterior.dpotri
        monkeypatch.setattr(posterior, "dpotri", lambda *a, **k: (original(*a, **k)[0], 2))
        factor = cl.factor_posterior(random_problem(0, n_dim=4), 50.0)
        with pytest.raises(NumericalError, match=r"dpotri failed .* n_level = 50.0, rows 0:4"):
            factor.covariance_spectrum(np.ones(4))


class TestCovarianceSpectrum:
    """The projected kernel: covariance eigenvalues and ``V^T d`` without V."""

    @staticmethod
    def _check(factor, d):
        """Against ``eigh`` of the same covariance ``L^{-T} L^{-1}``."""
        lam, c = factor.covariance_spectrum(d)
        inv = factor._cov_factor.dense().T
        ref = scipy.linalg.eigh(inv.T @ inv, eigvals_only=True)
        assert c.shape == d.shape
        assert np.all(np.diff(lam) >= 0) and np.all(lam >= 0)
        assert np.all(np.abs(lam - ref) <= 1e-13 * ref.max())
        d2 = np.sum(d * d, axis=0)
        assert np.all(np.abs(np.sum(c * c, axis=0) - d2) <= 1e-13 * d2)
        return lam, c

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_random_spd_eigenvalues_and_projection_norms(self, n_dim, cols, seed):
        """A random lower-triangular factor with positive diagonal makes a
        random SPD precision, hence a random SPD covariance."""
        rng = np.random.default_rng(seed)
        chol = np.tril(rng.standard_normal((n_dim, n_dim)), -1)
        chol[np.diag_indices(n_dim)] = rng.uniform(0.5, 2.0, n_dim)
        chol = np.asfortranarray(chol)
        chol.flags.writeable = False
        factor = posterior.PosteriorFactor(random_problem(seed, n_dim=n_dim), 1.0,
                                           quadform.BlockDiagonal.from_dense(chol))
        self._check(factor, rng.standard_normal((n_dim, cols)))

    @pytest.mark.parametrize("n_level", [1e2, 1e6])
    def test_banded_smooth_prior(self, n_level):
        """Banded N = 512 at prior smoothness 5, where cond(P) reaches 6.7e27."""
        prob = _banded_problem(512, 5.0)
        factor = cl.factor_posterior(prob, n_level)
        self._check(factor, np.random.default_rng(0).standard_normal((512, 3)))

    def test_edge_sizes_and_vector(self):
        """N = 1 has no reflectors, N = 2 one; a vector comes back a vector,
        equal to the matching column of a block."""
        for n_dim in (1, 2):
            prob = random_problem(7, n_dim=n_dim)
            factor = cl.factor_posterior(prob, 10.0)
            block = np.random.default_rng(n_dim).standard_normal((n_dim, 2))
            lam, c = self._check(factor, block)
            lam_v, c_v = factor.covariance_spectrum(block[:, 1])
            assert c_v.shape == (n_dim,)
            assert np.array_equal(lam_v, lam) and np.array_equal(c_v, c[:, 1])
        with pytest.raises(ParameterError, match="vector or an"):
            factor.covariance_spectrum(np.ones(3))


def _block_problem(sizes, seed):
    """A problem whose coupling is orthogonal on the diagonal blocks of
    ``sizes`` rows each, so every posterior precision is block-diagonal."""
    rng = np.random.default_rng(seed)
    n = int(sum(sizes))
    q = np.zeros((n, n))
    lo = 0
    for b in sizes:
        q[lo:lo + b, lo:lo + b] = np.linalg.qr(rng.standard_normal((b, b)))[0]
        lo += b
    return cl.InverseProblem(
        cl.make_spectrum(np.sort(rng.uniform(0.2, 1.5, n))[::-1], n),
        cl.make_coupling(cl.ExplicitCoupling(q), n),
        cl.explicit_prior(rng.uniform(0.2, 2.0, n), n),
        cl.diagonal_noise(rng.uniform(0.5, 1.5, n), n), n)


def _assert_routes_agree(factor, u0, ys):
    """Against the same posterior factored and decomposed as one block (the
    dense route, with every matrix taken as one block): eigenvalues within
    1e-13 of the largest, per-column projection norms within 1e-13 relative
    and exact rate-fit radii within 1e-12 relative."""
    d = factor.mean(ys) - u0[:, None]
    lam, c = factor.covariance_spectrum(d)
    radii = rates._posterior_radii(factor, u0, 0.1, ys)
    precision = cl.posterior_precision(factor.problem, factor.n_level).dense()
    twin = posterior.PosteriorFactor(factor.problem, factor.n_level,
                                     quadform.BlockDiagonal.from_dense(
                                         np.asfortranarray(one_block_cholesky(precision))))
    ref_lam, ref_c = twin.covariance_spectrum(d)
    ref_radii = rates._posterior_radii(twin, u0, 0.1, ys)
    assert twin._precision_chol.edges.size == 2
    assert np.all(np.abs(lam - ref_lam) <= 1e-13 * ref_lam.max())
    norms, ref_norms = np.linalg.norm(c, axis=0), np.linalg.norm(ref_c, axis=0)
    assert np.all(np.abs(norms - ref_norms) <= 1e-13 * ref_norms)
    assert np.all(np.abs(radii - ref_radii) <= 1e-12 * ref_radii)


class TestBlockRoute:
    """A block-diagonal precision is factored, inverted and decomposed one
    diagonal block at a time, and agrees with the same matrix taken as one
    block."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.integers(0, 2**32 - 1),
           st.sampled_from([1e2, 1e4, 1e6]))
    def test_random_partitions_match_one_block(self, sizes, seed, n_level):
        prob = _block_problem(sizes, seed)
        factor = cl.factor_posterior(prob, n_level)
        assert np.array_equal(factor._precision_chol.edges, np.cumsum([0] + sizes))
        rng = np.random.default_rng(seed)
        _assert_routes_agree(factor, rng.standard_normal(prob.n_dim),
                             rng.standard_normal((prob.n_dim, 3)))

    @pytest.mark.parametrize("n_level", [1e2, 1e6])
    def test_banded_smooth_prior_matches_one_block(self, n_level):
        """Banded N = 512 at prior smoothness 5, where cond(P) reaches 6.7e27."""
        prob = _banded_problem(512, 5.0)
        factor = cl.factor_posterior(prob, n_level)
        assert factor._precision_chol.edges.size > 2
        u0 = cl.power_law_truth(2.0, 512)
        g_u0 = forward_apply(prob, u0)
        ys = np.column_stack([rates._replicate_distances(prob, g_u0, n_level,
                                                         substream(3, "rate-fit", 0, rep))
                              for rep in range(4)])
        _assert_routes_agree(factor, u0, ys)

    @staticmethod
    def _with_nearly_singular_block():
        """Blocks {0, 1} (nearly singular), {2} and {3, 4}; the large last
        block makes the whole matrix's Frobenius norm differ from any
        block's."""
        mat = np.zeros((5, 5))
        mat[:2, :2] = [[1.0, 1e-9 - 1e-25], [1e-9 - 1e-25, 1e-18]]
        mat[2, 2] = 3.0
        mat[3:, 3:] = [[100.0, 20.0], [20.0, 50.0]]
        return mat, np.array([0, 2, 3, 5])

    def test_jitter_is_the_whole_matrix_jitter(self):
        mat, edges = self._with_nearly_singular_block()
        assert np.array_equal(zero_pattern_blocks(mat), edges)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat[:2, :2])
        block = cl.cholesky_with_jitter(quadform.BlockDiagonal.from_dense(mat, edges)).dense()
        dense = one_block_cholesky(mat)
        assert block.flags.f_contiguous and np.array_equal(block, np.tril(block))
        assert np.allclose(block, dense, rtol=0, atol=1e-15 * np.abs(dense).max())
        jitter = 1e-12 * np.linalg.norm(mat)
        shift = np.diag(block @ block.T - mat)
        assert np.allclose(shift, jitter, rtol=1e-3, atol=0)

    def test_indefinite_block_raises_with_whole_condition_number(self):
        mat, edges = self._with_nearly_singular_block()
        mat[2, 2] = -3.0
        with pytest.raises(NumericalError) as err:
            cl.cholesky_with_jitter(quadform.BlockDiagonal.from_dense(mat, edges))
        assert err.value.condition_number == float(np.linalg.cond(mat))
        mat[2, 2], mat[4, 4] = 3.0, -50.0
        with pytest.raises(NumericalError) as err:
            cl.cholesky_with_jitter(quadform.BlockDiagonal.from_dense(mat, edges))
        assert err.value.condition_number == float(np.linalg.cond(mat))


def _default_banded():
    config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                     "coupling": {"kind": "banded"}}}))
    return config, build_problem(config), build_truth(config)


class TestInPlaceSampling:
    """``distances`` applies the block-triangular sampling factor to the
    draws one diagonal block at a time, in place."""

    def test_default_banded_matches_dense_product(self):
        """At all five n of the default banded config: bit for bit the route
        through the factor scattered into one N x N array, and within 1e-15
        relative of ``(mean - u0) + cov_factor @ z``, with the same exceedance
        counts at the radii 0.5, 1, 2 and 4 times ``sqrt(tr C)``."""
        config, prob, u0 = _default_banded()
        for i, n in enumerate(config.run["n_grid"]):
            post = cl.factor_posterior(prob, n).condition(cl.simulate_data(prob, u0, n, i).y)
            edges = post.cov_factor.edges
            assert np.array_equal(edges, prob.gram_blocks) and edges.size > 2
            z = np.random.default_rng(i).standard_normal((512, 2000))
            factor = scattered_factor(post)
            ref = np.linalg.norm((post.mean - u0)[:, None] + factor @ z, axis=0)
            scattered = scattered_distances(post, u0, z)
            dist = post.distances(u0, z)
            assert np.array_equal(dist, scattered)
            assert np.all(np.abs(dist - ref) <= 1e-15 * ref)
            scale = math.sqrt(float(np.sum(factor**2)))
            for xi in (0.5 * scale, scale, 2.0 * scale, 4.0 * scale):
                assert np.count_nonzero(dist > xi) == np.count_nonzero(ref > xi)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.lists(st.sampled_from([1, 1, 1, 1, 2, 3, 5]), min_size=1, max_size=12),
           st.integers(0, 2**32 - 1), st.sampled_from([1e2, 1e4, 1e6]))
    def test_random_partitions_match_scattered_route(self, sizes, seed, n_level):
        """On partitions rich in runs of one-row blocks, which are scaled
        where the scattered route makes a 1 x 1 dtrmm call: distances bit for
        bit."""
        prob = _block_problem(sizes, seed)
        rng = np.random.default_rng(seed)
        post = cl.factor_posterior(prob, n_level).condition(rng.standard_normal(prob.n_dim))
        assert np.array_equal(post.cov_factor.edges, np.cumsum([0] + sizes))
        u0 = rng.standard_normal(prob.n_dim)
        z = rng.standard_normal((prob.n_dim, 7))
        assert np.array_equal(scattered_distances(post, u0, z), post.distances(u0, z))

    def test_draws_are_overwritten_without_a_second_array(self):
        """The squared deviations end up in ``z`` itself, and the call
        allocates far less than one (N, count) array; a Fortran-ordered ``z``
        is copied and left as it was."""
        config, prob, u0 = _default_banded()
        post = cl.factor_posterior(prob, 1e4).condition(cl.simulate_data(prob, u0, 1e4, 0).y)
        z = np.random.default_rng(0).standard_normal((512, 2000))
        tracemalloc.start()
        try:
            dist = post.distances(u0, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < z.nbytes / 16
        assert np.array_equal(np.sqrt(np.add.reduce(z, axis=0)), dist)
        fortran = np.asfortranarray(np.random.default_rng(1).standard_normal((512, 50)))
        before = fortran.copy()
        post.distances(u0, fortran)
        assert np.array_equal(fortran, before)
        with pytest.raises(ParameterError, match="count"):
            post.distances(u0, np.ones(512))

    def test_factor_must_be_an_upper_triangular_block_diagonal(self):
        """Only a ``BlockDiagonal`` whose blocks are upper-triangular is
        accepted; an entry below a block's diagonal is named by its rows, and
        the check makes no N x N temporary."""
        rng = np.random.default_rng(3)
        upper = np.triu(rng.uniform(0.5, 1.0, (6, 6)))
        for bad in (upper, upper.tolist(), None):
            with pytest.raises(ParameterError, match="must be a BlockDiagonal"):
                cl.PosteriorGaussian(np.zeros(6), bad, 1.0)
        cl.PosteriorGaussian(np.zeros(6), quadform.BlockDiagonal.from_dense(upper, [0, 2, 6]), 1.0)
        for row, col, rows in ((5, 2, "2:6"), (3, 2, "2:6"), (1, 0, "0:2")):
            bad = upper.copy()
            bad[row, col] = 1e-300
            with pytest.raises(ParameterError, match=f"upper-triangular \\(rows {rows}\\)"):
                cl.PosteriorGaussian(np.zeros(6), quadform.BlockDiagonal.from_dense(bad, [0, 2, 6]),
                                     1.0)
        big = np.triu(rng.uniform(0.5, 1.0, (512, 512)))
        for row, col in ((100, 70), (100, 10), (127, 126), (64, 63), (511, 0)):
            bad = big.copy()
            bad[row, col] = 1.0
            with pytest.raises(ParameterError, match="upper-triangular"):
                cl.PosteriorGaussian(np.zeros(512), one_block(bad), 1.0)
        tracemalloc.start()
        try:
            cl.PosteriorGaussian(np.zeros(512), one_block(big), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes / 16

    def test_mean_must_be_a_length_n_vector(self):
        """A posterior conditioned on an (N, R) data block, or given any mean
        that is not a length-N vector, raises ``ParameterError`` naming the
        mean's shape, rather than a broadcasting error in ``distances``."""
        factor = cl.factor_posterior(random_problem(2, n_dim=6), 50.0)
        with pytest.raises(ParameterError, match=r"mean must be a length-6 vector, got shape \(6, 5\)"):
            factor.condition(np.ones((6, 5)))
        upper = one_block(np.triu(np.random.default_rng(3).uniform(0.5, 1.0, (6, 6))))
        for shape in ((6, 1), (5,), (7,), ()):
            with pytest.raises(ParameterError, match=re.escape(f"got shape {shape}")):
                cl.PosteriorGaussian(np.zeros(shape), upper, 1.0)


def _posterior_cells(n_dim, seed, xi_grid=None):
    """The posterior pipeline's table on a banded config, with each n's
    data draw and its posterior form ``(lam, c)`` by a dense reference route:
    the precision ``Lambda^-1 + n M^T M`` inverted and decomposed by numpy,
    from the dense ``whitened_forward``. ``xi_grid`` None takes the four
    default radii."""
    run = {"master_seed": seed, **({"xi_grid": xi_grid} if xi_grid else {})}
    config = cl.parse_config(json.dumps({"problem": {"n_dim": n_dim,
                                                     "coupling": {"kind": "banded"}},
                                         "run": run}))
    prob, u0 = build_problem(config), build_truth(config)
    table = runner_module._pipe_posterior(config, prob, 1)[0]
    m = prob.whitened_forward
    cells, width = [], len(xi_grid or range(4))
    for i, n in enumerate(config.run["n_grid"]):
        data = cl.simulate_data(prob, u0, n, derive_seed(seed, "posterior", i, "data"))
        cov = np.linalg.inv(np.diag(1.0 / prob.prior.variances) + n * m.T @ m)
        lam, v = np.linalg.eigh(cov)
        c = v.T @ (cov @ (n * m.T @ prob.noise_whiten(data.y)) - u0)
        cells.append((data, np.maximum(lam, 0.0), c, table.rows[width * i:width * (i + 1)]))
    return prob, u0, table, cells


class TestPosteriorPipelineTails:
    """The ``posterior`` table is read off one covariance spectrum per n:
    each estimate is the Lugannani-Rice tail ``P(||u - u0|| > xi)`` of the
    posterior form, under its Chernoff bound, with nothing sampled."""

    @pytest.mark.parametrize("seed", [20240810, 90817])
    def test_tails_match_imhof_and_bounds(self, seed):
        """Against Imhof's integral on the reference form: within 5% where
        the tail is >= 1e-9 (3.5% measured; 7.5% at a 5.6e-10 tail), and
        within 5e-11 below. Non-increasing in xi, at most the exponential of
        the provenance's Chernoff exponent row by row, and std_error empty."""
        _, _, table, cells = _posterior_cells(64, seed)
        bounds = table.provenance["log_chernoff"]
        assert len(bounds) == len(table.rows) == 20
        assert (table.provenance["tail"], table.provenance["certificate"]) == \
            ("lugannani-rice", "chernoff")
        for _, lam, c, rows in cells:
            for n_level, xi, estimate, std_error in rows:
                exact = imhof_tail(xi * xi, lam, c * c)
                assert abs(estimate - exact) <= 0.05 * max(exact, 1e-9), (n_level, xi)
                assert std_error is None
            values = [row[2] for row in rows]
            assert all(a >= b for a, b in zip(values, values[1:]))
        for row, bound in zip(table.rows, bounds):
            assert 0.0 < row[2] <= math.exp(bound)

    @pytest.mark.parametrize("seed", [20240810, 90817])
    def test_tails_match_the_sampler(self, seed):
        """Where the tail is >= 1e-3, within 4 binomial standard errors (at
        the tail) of ``posterior_exceedance_grid`` at 2e5 posterior draws in
        four batches, on the same data (2.5 measured)."""
        prob, u0, _, cells = _posterior_cells(64, seed)
        count = 50_000
        for data, _, _, rows in cells:
            post = cl.conjugate_posterior(prob, data)
            xis = [row[1] for row in rows]
            sampled = np.mean([[e.value for e in cl.posterior_exceedance_grid(
                post, u0, xis, count, seed=k)] for k in range(4)], axis=0)
            for (_, xi, estimate, _), p in zip(rows, sampled):
                if estimate >= 1e-3:
                    se = math.sqrt(estimate * (1.0 - estimate) / (4 * count))
                    assert abs(estimate - p) <= 4.0 * se, (data.n_level, xi)

    def test_default_config_reads_no_zero_or_one(self):
        """On the default banded N = 512 config, where the sampler wrote 0.0
        or 1.0 in 10 of the 20 cells, every tail lies strictly between them:
        the smallest is about 1.8e-41 (n = 1e6, 4 sqrt(tr C))."""
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                         "coupling": {"kind": "banded"}}}))
        table = runner_module._pipe_posterior(config, build_problem(config), 1)[0]
        values = [row[2] for row in table.rows]
        assert len(values) == 20 and all(0.0 < v < 1.0 for v in values)
        assert min(values) < 1e-35

    def test_radius_past_the_bracket_reads_zero_under_its_end_exponent(self):
        """At xi = 1e20 each n's saddlepoint lies closer to the pole ``1 / (2
        max lam)`` than the bracket search resolves (its last upper end is
        ``t = 2 s max lam = 1 - 2**-48``). The tail reads 0.0, the rounding of
        one below ``exp(-2**47)``, and the exponent is the Chernoff exponent
        ``K(s) - s xi^2`` at that end, within 1e-9 of the reference form's;
        the pipeline does not fail. The default radius 0.05 beside it keeps
        a tail strictly inside (0, 1)."""
        _, _, table, cells = _posterior_cells(64, 20240810, [0.05, 1e20])
        bounds = table.provenance["log_chernoff"]
        for i, (_, lam, c, rows) in enumerate(cells):
            (_, _, near, _), (_, xi, far, _) = rows
            assert 0.0 < near < 1.0 and far == 0.0
            s = (1.0 - 2.0**-48) / (2.0 * lam.max())
            d = 1.0 - 2.0 * s * lam
            end = float(np.sum(s * c * c / d - 0.5 * np.log1p(-2.0 * s * lam))) - s * xi * xi
            assert bounds[2 * i + 1] == pytest.approx(end, rel=1e-9)


def _banded_problem(n_dim, delta):
    config = cl.parse_config(json.dumps({"problem": {
        "n_dim": n_dim, "coupling": {"kind": "banded"}, "prior": {"delta": delta}}}))
    return build_problem(config)


class TestSnisExceedance:
    def test_equal_weights_give_plain_fraction(self):
        est = snis_exceedance(np.full(4, -3.0), np.array([0.1, 0.5, 2.0, 3.0]), 1.0)
        assert est.value == 0.5
        assert est.ess == 4.0
        assert est.mc_count == 4
        assert est.log_normalizer == -3.0

    def test_non_finite_log_weights_rejected(self):
        with pytest.raises(NumericalError):
            snis_exceedance(np.array([0.0, np.nan]), np.zeros(2), 1.0)


def _dense_hilbert(n_dim):
    """A Hilbert-scale prior with colored noise: every matrix of the
    posterior path is one dense block."""
    config = cl.parse_config(json.dumps({"problem": {
        "n_dim": n_dim, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
        "noise": {"kind": "colored", "r": 0.5}}}))
    return config, build_problem(config), build_truth(config)


class TestInPlaceCholesky:
    """``cholesky_with_jitter`` factors a writeable Fortran-ordered argument
    in place with LAPACK dpotrf, bit for bit as ``np.linalg.cholesky`` does,
    and copies any other argument first."""

    def test_overwrites_only_writeable_fortran_input(self):
        precision = cl.posterior_precision(random_problem(1, n_dim=30), 1e3).dense()
        assert precision.flags.f_contiguous and precision.flags.writeable
        ref = scipy.linalg.cholesky(precision, lower=True)
        read_only = precision.copy(order="F")
        read_only.flags.writeable = False
        for arr in (np.ascontiguousarray(precision), read_only):
            before = arr.copy()
            out = one_block_cholesky(arr)
            assert np.array_equal(arr, before) and not np.shares_memory(out, arr)
            assert out.flags.f_contiguous and np.array_equal(out, ref)
        out = one_block_cholesky(precision)
        assert out is precision and np.array_equal(precision, ref)

    @pytest.mark.parametrize("kind", ["banded", "dense"])
    def test_matches_numpy_bit_for_bit(self, kind):
        """At every n of the default banded config (block by block, and as
        one block) and of a dense Hilbert-scale problem at N = 256."""
        config, prob, _ = _default_banded() if kind == "banded" else _dense_hilbert(256)
        edges = prob.gram_blocks
        assert (edges.size > 2) == (kind == "banded")
        for n in config.run["n_grid"]:
            precision = cl.posterior_precision(prob, n).dense()
            ref = np.zeros_like(precision)
            for lo, hi in zip(edges[:-1], edges[1:]):
                ref[lo:hi, lo:hi] = np.linalg.cholesky(precision[lo:hi, lo:hi])
            assert np.array_equal(cl.factor_posterior(prob, n)._precision_chol.dense(), ref)
            assert np.array_equal(one_block_cholesky(precision.copy(order="F")),
                                  np.linalg.cholesky(precision))

    def test_jittered_retry_after_failed_in_place_attempt(self):
        """A matrix whose smallest eigenvalue is -1.5e-12 ||mat||_F fails
        unjittered and at the first jitter. The in-place factor at the next
        jitter equals the factor of a fresh array holding the shifted matrix,
        which factors at the first attempt, and the factor of a C-ordered
        copy, so each failed attempt was undone exactly."""
        b = np.random.default_rng(5).standard_normal((40, 40))
        mat = b @ b.T
        mat = 0.5 * (mat + mat.T)
        mat -= (np.linalg.eigvalsh(mat)[0] + 1.5e-12 * np.linalg.norm(mat)) * np.eye(40)
        mat = np.asfortranarray(mat)
        fresh = np.ascontiguousarray(mat)
        jitter = 1e-12 * np.linalg.norm(mat)
        for shift in (0.0, jitter):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(mat + shift * np.eye(40))
        ref = one_block_cholesky(mat + 2.0 * jitter * np.eye(40))
        np.testing.assert_allclose(ref, np.linalg.cholesky(mat + 2.0 * jitter * np.eye(40)),
                                   rtol=0, atol=1e-15 * np.abs(ref).max())
        out = one_block_cholesky(mat)
        assert out is mat and np.array_equal(out, ref)
        assert np.array_equal(one_block_cholesky(fresh), ref)

    def test_jittered_block_retry_in_place(self):
        """The block twin: a block-diagonal matrix with a nearly singular
        block, held in writeable Fortran-ordered parts, is factored in those
        parts and gives the factor of C-ordered views copied first."""
        mat, edges = TestBlockRoute._with_nearly_singular_block()
        ref = cl.cholesky_with_jitter(quadform.BlockDiagonal.from_dense(mat, edges))
        views = quadform.BlockDiagonal.from_dense(mat, edges)
        parts = [np.array(p, order="F") for p in views.parts]
        fresh = iter(parts)
        out = cl.cholesky_with_jitter(
            quadform.BlockDiagonal(edges, lambda lo, hi, run: next(fresh)))
        assert len(out.parts) == 3 and all(a is b for a, b in zip(out.parts, parts))
        assert all(np.array_equal(a, b) for a, b in zip(out.parts, ref.parts))


class TestSetUpper:
    """``_set_upper`` mirrors or zeroes the strict upper triangle one column
    at a time, bit for bit as the ``np.triu_indices`` reference does."""

    @staticmethod
    def _reference(a, zero):
        out = a.copy()
        upper = np.triu_indices(a.shape[0], 1)
        out[upper] = 0.0 if zero else a.T[upper]
        return out

    @pytest.mark.parametrize("zero", [False, True])
    def test_matches_triu_indices_reference(self, zero):
        """Sizes 1 to 130 (one, two and three panels), on a C-ordered block,
        a Fortran-ordered block and the transposed view of a block inside a
        larger Fortran-ordered array that a jittered retry restores from."""
        rng = np.random.default_rng(7)
        for size in range(1, 131):
            a = rng.standard_normal((size, size))
            host = np.asfortranarray(rng.standard_normal((size + 3, size + 3)))
            views = [a.copy(order="C"), a.copy(order="F"), host[2:size + 2, 1:size + 1].T]
            for view in views:
                ref = self._reference(view, zero)
                assert posterior._set_upper(view, zero=zero) is view
                assert np.array_equal(view, ref), (size, zero)
            assert np.array_equal(host[2:size + 2, 1:size + 1].T, views[-1])

    @pytest.mark.parametrize("zero", [False, True])
    def test_allocates_no_temporary(self, zero):
        """On a 1024 x 1024 Fortran-ordered array and on its transpose, a
        call allocates less than 1 KiB: one column at a time, it copies
        between views."""
        a = np.asfortranarray(np.random.default_rng(3).standard_normal((1024, 1024)))
        for view in (a, a.T):
            tracemalloc.start()
            try:
                posterior._set_upper(view, zero=zero)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1024


def _per_block_mean(factor, y):
    """The mean as every block was solved before runs of one-row blocks:
    one ``cho_solve`` per diagonal block."""
    rhs = factor.n_level * factor.problem.whitened_adjoint(factor.problem.noise_whiten(y))
    chol, edges = factor._precision_chol.dense(), factor._precision_chol.edges
    for lo, hi in zip(edges[:-1], edges[1:]):
        rhs[lo:hi] = scipy.linalg.cho_solve((chol[lo:hi, lo:hi], True), rhs[lo:hi])
    return rhs


class TestOneRowRuns:
    """``PosteriorFactor.mean`` solves each run of one-row blocks in one
    elementwise step and makes one ``cho_solve`` per block of more rows."""

    def test_mixed_blocks_one_solve_per_multi_row_block(self, monkeypatch):
        prob = _block_problem([1, 1, 3, 1, 2, 1, 1, 1], seed=4)
        factor = cl.factor_posterior(prob, 1e3)
        assert np.array_equal(factor._precision_chol.edges, [0, 1, 2, 5, 6, 8, 9, 10, 11])
        rng = np.random.default_rng(2)
        for y in (rng.standard_normal(11), rng.standard_normal((11, 4))):
            ref = _per_block_mean(factor, y)
            solves = []
            solve = posterior.cho_solve

            def counting(c_and_lower, b, *args, **kwargs):
                solves.append(np.shape(b))
                return solve(c_and_lower, b, *args, **kwargs)

            monkeypatch.setattr(posterior, "cho_solve", counting)
            got = factor.mean(y)
            monkeypatch.setattr(posterior, "cho_solve", solve)
            assert solves == [(3,) + y.shape[1:], (2,) + y.shape[1:]]
            np.testing.assert_array_max_ulp(got, ref, maxulp=2)

    def test_identity_mean_without_per_row_solves(self, monkeypatch):
        """An identity coupling at N = 512 is one run: no ``cho_solve``,
        the per-block solves' means to two ulps, and far less time than 512
        solves (best of five each; on a 2-vCPU host with one BLAS thread the
        per-row solves take ~13 ms and the runs ~0.4 ms)."""
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                         "coupling": {"kind": "identity"}}}))
        prob, u0 = build_problem(config), build_truth(config)
        factor = cl.factor_posterior(prob, 1e4)
        ys = np.column_stack([cl.simulate_data(prob, u0, 1e4, seed=s).y for s in range(50)])
        ref = _per_block_mean(factor, ys)

        def refuse(*args, **kwargs):
            raise AssertionError("cho_solve on a one-row block")

        monkeypatch.setattr(posterior, "cho_solve", refuse)
        np.testing.assert_array_max_ulp(factor.mean(ys), ref, maxulp=2)
        monkeypatch.undo()

        def best(fn):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)
        assert best(lambda: factor.mean(ys)) < 0.25 * best(lambda: _per_block_mean(factor, ys))


class TestMemoryBudget:
    """On a dense problem every N x N array of the posterior path exists
    once, measured by ``tracemalloc`` at N = 256 after the problem is
    built."""

    N = 256

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def test_rate_fit_n_allocates_three_arrays(self):
        """Factor, mean and ``covariance_spectrum`` of one rate-fit n: the
        factor, the covariance block and dstevd's eigenvectors and workspace
        (the covariance is freed before dstevd runs), where forming ``L^{-1}``
        and ``L^{-T} L^{-1}`` made five."""
        config, prob, u0 = _dense_hilbert(self.N)
        prob.whitened_gram
        g_u0 = forward_apply(prob, u0)
        ys = np.column_stack([rates._replicate_distances(prob, g_u0, 1e4,
                                                         substream(3, "rate-fit", 0, rep))
                              for rep in range(10)])
        peak, radii = self._peak(
            lambda: rates._posterior_radii(cl.factor_posterior(prob, 1e4), u0, 0.1, ys))
        assert radii.shape == (10,)
        assert peak <= 3.5 * self.N**2 * 8
        assert "whitened_forward" not in vars(prob)

    def test_posterior_pipeline_allocates_three_arrays(self):
        """The posterior pipeline at all five n: per n the factor, the
        covariance block and dstevd's eigenvectors and workspace, as for a
        rate-fit n. Nothing is drawn but the data, so neither ``L^{-1}`` nor
        an (N, mc) batch of draws is formed."""
        config, prob, u0 = _dense_hilbert(self.N)
        prob.whitened_gram
        peak, tables = self._peak(lambda: runner_module._pipe_posterior(config, prob, 1))
        assert len(tables[0].rows) == 4 * len(config.run["n_grid"])
        assert peak <= 3.5 * self.N**2 * 8
        assert "whitened_forward" not in vars(prob)


class TestNonFinitePosterior:
    """A posterior with a NaN or an infinity in its mean or anywhere in its
    covariance factor is rejected, naming the mean or the factor's rows,
    rather than reporting an exceedance of 0.0 with a standard error of
    0.0."""

    def test_non_finite_mean_rejected(self):
        upper = one_block(np.triu(np.random.default_rng(3).uniform(0.5, 1.0, (6, 6))))
        for bad in (np.nan, np.inf):
            mean = np.zeros(6)
            mean[4] = bad
            with pytest.raises(ParameterError, match="mean must be finite"):
                cl.PosteriorGaussian(mean, upper, 1.0)

    @pytest.mark.parametrize("row, col, rows", [(2, 2, "0:6"), (1, 4, "0:6"), (70, 100, "64:128"),
                                                (0, 0, "0:64")])
    def test_non_finite_factor_entry_rejected(self, row, col, rows):
        """On the diagonal too, where ``nan <= 0`` is False; the check runs
        in the panel pass and names the panel's rows."""
        n = 6 if rows == "0:6" else 512
        upper = np.triu(np.random.default_rng(4).uniform(0.5, 1.0, (n, n)))
        for bad in (np.nan, np.inf):
            factor = upper.copy()
            factor[row, col] = bad
            with pytest.raises(ParameterError,
                               match=f"covariance factor must be finite.*rows {rows}"):
                cl.PosteriorGaussian(np.zeros(n), one_block(factor), 1.0)

    def test_nan_in_a_block_of_a_block_diagonal_factor(self):
        upper = np.triu(np.random.default_rng(5).uniform(0.5, 1.0, (6, 6)))
        upper[3, 5] = np.nan
        with pytest.raises(ParameterError, match="rows 2:6"):
            cl.PosteriorGaussian(np.zeros(6), quadform.BlockDiagonal.from_dense(upper, [0, 2, 6]),
                                 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_run_entry_not_finite_and_positive_rejected(self, bad):
        """A run of one-row blocks is its diagonal: each entry must be
        finite and positive (``nan <= 0`` is False), and the error names the
        run's rows."""
        diag = np.random.default_rng(6).uniform(0.5, 1.0, 8)
        diag[5] = bad
        op = quadform.BlockDiagonal.from_dense(np.diag(diag), [0, 1, 2, 5, 6, 7, 8])
        assert op.segments == ((0, 2, True), (2, 5, False), (5, 8, True))
        with pytest.raises(ParameterError, match=r"finite with a positive diagonal \(rows 5:8\)"):
            cl.PosteriorGaussian(np.zeros(8), op, 1.0)


def _assert_operators_match_dense(prob, n_level, rng):
    """Every ``BlockDiagonal`` of the problem and its posterior against a
    dense reference built from the cached M: the Gram, the precision, its
    factor, the mean, the covariance spectrum and both pushforward
    covariances ``M Lambda M^T``, each zero off the problem's blocks."""
    n = prob.n_dim
    m, lam = prob.whitened_forward, prob.prior.variances
    inside = np.zeros((n, n), dtype=bool)
    for lo, hi in zip(prob.gram_blocks[:-1], prob.gram_blocks[1:]):
        inside[lo:hi, lo:hi] = True

    def close(got, ref, rtol=1e-13):
        assert not np.any(got[~inside]) and np.abs(got - ref).max() <= rtol * np.abs(ref).max()

    gram = m.T @ m
    close(prob.whitened_gram.dense(), gram)
    precision = np.diag(1.0 / lam) + n_level * gram
    close(cl.posterior_precision(prob, n_level).dense(), precision)
    factor = cl.factor_posterior(prob, n_level)
    close(factor._precision_chol.dense(), np.linalg.cholesky(precision))
    y = rng.standard_normal((n, 3))
    ref_mean = np.linalg.solve(precision, n_level * m.T @ prob.noise_whiten(y))
    np.testing.assert_allclose(factor.mean(y), ref_mean, rtol=0,
                               atol=1e-12 * np.abs(ref_mean).max())
    ref_lam = np.linalg.eigvalsh(np.linalg.inv(precision))
    got_lam, c = factor.covariance_spectrum(y)
    assert np.abs(got_lam - ref_lam).max() <= 1e-12 * ref_lam.max()
    np.testing.assert_allclose(np.linalg.norm(c, axis=0), np.linalg.norm(y, axis=0), rtol=1e-13)
    close(cl.coupled_pushforward_cov(prob).dense(), (m * lam) @ m.T)
    surrogate = prob.noise_whiten(np.diag(prob.operator.rho))
    diagonal = cl.diagonal_pushforward_cov(prob).dense()
    ref = (surrogate * lam) @ surrogate.T
    assert np.abs(diagonal - ref).max() <= 1e-13 * np.abs(ref).max()


class TestOperatorsMatchDense:
    """The block-diagonal route of every operator agrees with its dense
    reference, on partitions with runs of one-row blocks and on the banded
    default."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.lists(st.sampled_from([1, 1, 1, 2, 3, 5]), min_size=1, max_size=10),
           st.integers(0, 2**32 - 1), st.sampled_from([1e2, 1e4, 1e6]))
    def test_random_partitions(self, sizes, seed, n_level):
        prob = _block_problem(sizes, seed)
        assert np.array_equal(prob.gram_blocks, np.cumsum([0] + sizes))
        _assert_operators_match_dense(prob, n_level, np.random.default_rng(seed))

    def test_banded_default(self):
        config, prob, _ = _default_banded()
        runs = [seg for seg in prob.whitened_gram.segments if seg[2]]
        assert runs and len(prob.whitened_gram.segments) > len(runs)
        _assert_operators_match_dense(prob, 1e4, np.random.default_rng(0))

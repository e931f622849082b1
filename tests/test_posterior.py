"""Conjugate posterior, exceedance estimators and their agreement."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import contraction_lab as cl
from contraction_lab import posterior
from contraction_lab.config import build_problem
from contraction_lab.errors import NumericalError, ParameterError


def scalar_problem(rho=1.0, lam=1.0, zeta=1.0):
    return cl.InverseProblem(
        cl.make_spectrum(np.array([rho]), 1),
        cl.make_coupling(cl.IdentityCoupling(), 1),
        cl.explicit_prior([lam], 1),
        cl.diagonal_noise([zeta], 1), 1)


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
        assert math.isclose(post.covariance()[0, 0], 0.5, rel_tol=1e-14)

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
        rebuilt = np.linalg.inv(post.covariance())
        target = cl.posterior_precision(prob, data.n_level)
        assert np.linalg.norm(rebuilt - target) <= 1e-8 * np.linalg.norm(target)


class TestExceedance:
    def test_zero_radius_full_mass(self):
        post = cl.PosteriorGaussian(np.zeros(1), np.eye(1), 1.0)
        est = cl.posterior_exceedance(post, np.zeros(1), 0.0, 500, seed=4)
        assert est.value == 1.0

    def test_standard_normal_oracle(self):
        """P(|Z| > 1) = 2(1 - Phi(1)) ~ 0.3173, within 3 binomial SE."""
        post = cl.PosteriorGaussian(np.zeros(1), np.eye(1), 1.0)
        est = cl.posterior_exceedance(post, np.zeros(1), 1.0, 40_000, seed=4)
        target = 2 * norm.sf(1.0)
        assert abs(est.value - target) <= 3 * max(est.std_error, 1e-6)

    def test_huge_radius_negligible_mass(self):
        """Radius 1e3 (||mean - u0|| + trace) bounds the mass below 1% by
        Chebyshev with room to spare."""
        prob = random_problem(10, n_dim=3)
        data = cl.simulate_data(prob, np.zeros(3), 4.0, seed=2)
        post = cl.conjugate_posterior(prob, data)
        u0 = np.full(3, 0.1)
        xi = 1e3 * (np.linalg.norm(post.mean - u0) + np.trace(post.covariance()))
        est = cl.posterior_exceedance(post, u0, xi, 2000, seed=6)
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
        factor = np.linalg.cholesky(np.eye(3) * 0.25)
        a = cl.posterior_exceedance(cl.PosteriorGaussian(mean, factor, 1.0), u0, 0.5, 500, seed=3)
        b = cl.posterior_exceedance(cl.PosteriorGaussian(mean + shift, factor, 1.0),
                                    u0 + shift, 0.5, 500, seed=3)
        assert a.value == b.value

    def test_mc_floor(self):
        post = cl.PosteriorGaussian(np.zeros(1), np.eye(1), 1.0)
        with pytest.raises(ParameterError):
            cl.posterior_exceedance(post, np.zeros(1), 1.0, 50, seed=0)


class TestWeightedExceedance:
    def test_zero_radius_is_one(self):
        prob = random_problem(20, n_dim=2)
        data = cl.simulate_data(prob, np.zeros(2), 5.0, seed=1)
        est = cl.weighted_posterior_exceedance(prob, data, np.zeros(2), 0.0, mc=2000, seed=2)
        assert est.value == 1.0
        assert est.log_normalizer is not None and math.isfinite(est.log_normalizer)

    def test_huge_radius_is_zero(self):
        prob = random_problem(21, n_dim=2)
        data = cl.DataSample(np.zeros(2), 1.0, np.zeros(2), 0)
        est = cl.weighted_posterior_exceedance(prob, data, np.zeros(2), 1e6, mc=2000, seed=2)
        assert est.value == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_conjugate_route(self, seed):
        """Prior-weighted estimator matches the closed form within 4 SE
        at radius equal to the mean posterior standard deviation."""
        prob = random_problem(seed + 30, n_dim=2)
        u0 = np.array([0.3, -0.2])
        data = cl.simulate_data(prob, u0, 10.0, seed=seed)
        post = cl.conjugate_posterior(prob, data)
        xi = float(np.sqrt(np.trace(post.covariance()) / 2))
        conj = cl.posterior_exceedance(post, u0, xi, 20_000, seed=seed + 1)
        weighted = cl.weighted_posterior_exceedance(prob, data, u0, xi, mc=40_000, seed=seed + 2)
        combined = math.hypot(conj.std_error, weighted.std_error)
        assert abs(conj.value - weighted.value) <= 4 * combined

    def test_normalizer_positive_finite_and_ess_reported(self):
        prob = random_problem(40, n_dim=3)
        data = cl.simulate_data(prob, cl.power_law_truth(1.0, 3), 50.0, seed=3)
        est = cl.weighted_posterior_exceedance(prob, data, np.zeros(3), 0.5, mc=4000, seed=4)
        assert math.isfinite(est.log_normalizer)
        assert est.ess is not None and 1.0 <= est.ess <= est.mc_count + 1e-9

    def test_degeneracy_flagged_at_extreme_noise_level(self):
        """At n = 1e8 nearly all prior draws carry negligible weight."""
        prob = random_problem(41, n_dim=2)
        data = cl.simulate_data(prob, np.array([0.5, 0.1]), 1e8, seed=5)
        est = cl.weighted_posterior_exceedance(prob, data, np.zeros(2), 0.1, mc=1000, seed=6)
        assert est.degenerate

    def test_mc_floor(self):
        prob = random_problem(43, n_dim=2)
        data = cl.simulate_data(prob, np.zeros(2), 5.0, seed=1)
        with pytest.raises(ParameterError):
            cl.weighted_posterior_exceedance(prob, data, np.zeros(2), 1.0, mc=500, seed=2)


class TestJitteredCholesky:
    def test_recovers_nearly_singular(self):
        mat = np.diag([1.0, 1e-18])
        mat[0, 1] = mat[1, 0] = 1e-9 - 1e-25
        factor = cl.cholesky_with_jitter(mat)
        assert np.all(np.diag(factor) > 0)

    def test_fails_on_indefinite(self):
        from contraction_lab.errors import NumericalError

        with pytest.raises(NumericalError):
            cl.cholesky_with_jitter(np.diag([1.0, -1.0]))


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
            assert np.array_equal(reused.cov_factor, post.cov_factor)

    @pytest.mark.parametrize("n_dim,count", [(1, 5), (4, 300), (40, 7)])
    def test_distances_equal_plain_norm_bit_for_bit(self, n_dim, count):
        prob = random_problem(2, n_dim=n_dim)
        rng = np.random.default_rng(n_dim)
        post = cl.factor_posterior(prob, 10.0).condition(rng.standard_normal(n_dim))
        u0 = rng.standard_normal(n_dim)
        z = rng.standard_normal((n_dim, count))
        reference = np.linalg.norm((post.mean - u0)[:, None] + post.cov_factor @ z, axis=0)
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
    def test_covariance_eigh_reconstructs_covariance(self, seed):
        prob = random_problem(seed, n_dim=6)
        factor = cl.factor_posterior(prob, 50.0)
        lam, vecs = factor.covariance_eigh()
        cov = factor.condition(np.zeros(6)).covariance()
        assert np.all(lam >= 0)
        assert np.allclose((vecs * lam) @ vecs.T, cov, rtol=0, atol=1e-12 * lam.max())

    @pytest.mark.parametrize("n_level", [1e2, 1e6])
    def test_cov_factor_inverts_precision_at_smooth_prior(self, n_level):
        """The sampling factor is the upper-triangular inverse transpose of the
        precision's Cholesky factor, and its square inverts the precision to
        1e-13 even at prior smoothness 5, where cond(P) reaches 6.7e27."""
        prob = _banded_problem(512, 5.0)
        factor = cl.factor_posterior(prob, n_level).condition(np.zeros(512)).cov_factor
        assert np.array_equal(factor, np.triu(factor)) and np.all(np.diag(factor) > 0)
        resid = factor @ factor.T @ cl.posterior_precision(prob, n_level) - np.eye(512)
        assert np.linalg.norm(resid) <= 1e-13

    def test_covariance_handed_to_dsytrd_is_exactly_symmetric(self, monkeypatch):
        """The tridiagonal reduction reads only the lower triangle of the
        covariance it is handed; that array is exactly symmetric, Fortran-
        ordered (so LAPACK reduces it in place) and its lower triangle is the
        lower triangle of an independently computed ``L^{-T} L^{-1}``."""
        captured = []
        original = posterior.dsytrd

        def capturing(mat, *args, **kwargs):
            captured.append((mat.copy(), mat.flags.f_contiguous))
            return original(mat, *args, **kwargs)

        monkeypatch.setattr(posterior, "dsytrd", capturing)
        prob = random_problem(3, n_dim=40)
        cl.factor_posterior(prob, 1e3).covariance_eigh()
        assert len(captured) == 1
        mat, fortran = captured[0]
        assert fortran and np.array_equal(mat, mat.T)
        p_chol = np.linalg.cholesky(cl.posterior_precision(prob, 1e3))
        inv = scipy.linalg.solve_triangular(p_chol, np.eye(40), lower=True)
        ref = inv.T @ inv
        assert np.allclose(np.tril(mat), np.tril(ref), rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_cached_factors_are_read_only(self):
        """A posterior shares its covariance factor with the factor it was
        conditioned on, so a write through it must not reach later posteriors."""
        prob = random_problem(1, n_dim=5)
        factor = cl.factor_posterior(prob, 50.0)
        post = factor.condition(np.ones(5))
        before = post.cov_factor.copy()
        with pytest.raises(ValueError, match="read-only"):
            post.cov_factor[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            factor._precision_chol[0, 0] = 2.0
        assert np.array_equal(factor.condition(np.zeros(5)).cov_factor, before)

    def test_eigenvalue_rounding_of_zero_is_clipped(self, monkeypatch):
        prob = random_problem(0, n_dim=4)
        floor = posterior.EIGENVALUE_RTOL * 4
        fake = (np.array([-0.5 * floor, 0.2, 0.5, 1.0]), np.eye(4), 0)
        monkeypatch.setattr(cl.posterior, "dstevd", lambda *a, **k: fake)
        lam, _ = cl.factor_posterior(prob, 50.0).covariance_eigh()
        assert lam[0] == 0.0 and lam[-1] == 1.0

    def test_negative_eigenvalue_beyond_rounding_raises(self, monkeypatch):
        prob = random_problem(0, n_dim=4)
        floor = posterior.EIGENVALUE_RTOL * 4
        fake = (np.array([-2.0 * floor, 0.2, 0.5, 1.0]), np.eye(4), 0)
        monkeypatch.setattr(cl.posterior, "dstevd", lambda *a, **k: fake)
        with pytest.raises(NumericalError, match="rounding floor"):
            cl.factor_posterior(prob, 50.0).covariance_eigh()

    @pytest.mark.parametrize("routine", ["dsytrd", "dormqr", "dstevd"])
    def test_lapack_failure_raises_numerical_error(self, monkeypatch, routine):
        """A nonzero ``info`` from any step of the kernel raises a typed error
        naming the routine and the noise level."""
        original = getattr(posterior, routine)

        def failing(*args, **kwargs):
            out = original(*args, **kwargs)
            return out[:-1] + (3,)

        monkeypatch.setattr(posterior, routine, failing)
        factor = cl.factor_posterior(random_problem(0, n_dim=4), 50.0)
        with pytest.raises(NumericalError, match=f"{routine} failed .* n_level = 50.0"):
            factor.covariance_spectrum(np.ones(4))


class TestCovarianceSpectrum:
    """The projected kernel: covariance eigenvalues and ``V^T d`` without V."""

    @staticmethod
    def _check(factor, d):
        """Against ``eigh`` of the same covariance ``L^{-T} L^{-1}``."""
        lam, c = factor.covariance_spectrum(d)
        inv = factor._chol_inv
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
        factor = posterior.PosteriorFactor(random_problem(seed, n_dim=n_dim), 1.0, chol)
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


def _banded_problem(n_dim, delta):
    config = cl.parse_config(json.dumps({"problem": {
        "n_dim": n_dim, "coupling": {"kind": "banded"}, "prior": {"delta": delta}}}))
    return build_problem(config)


class TestSnisExceedance:
    def test_equal_weights_give_plain_fraction(self):
        est = cl.snis_exceedance(np.full(4, -3.0), np.array([0.1, 0.5, 2.0, 3.0]), 1.0)
        assert est.value == 0.5
        assert est.ess == 4.0
        assert est.mc_count == 4
        assert est.log_normalizer == -3.0

    def test_non_finite_log_weights_rejected(self):
        with pytest.raises(NumericalError):
            cl.snis_exceedance(np.array([0.0, np.nan]), np.zeros(2), 1.0)

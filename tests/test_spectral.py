"""Spectra, couplings, measures, forward model and simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_lab as cl
from contraction_lab.errors import ConstructionError, ParameterError


def identity_problem(n_dim=4, alpha=1.0, delta=1.0):
    return cl.InverseProblem(
        operator=cl.make_spectrum(cl.MildFamily(alpha), n_dim),
        coupling=cl.make_coupling(cl.IdentityCoupling(), n_dim),
        prior=cl.power_law_prior(delta, n_dim),
        noise=cl.white_noise(n_dim),
        n_dim=n_dim,
    )


class TestSpectrumFamilies:
    def test_mild_alpha_one_three_modes(self):
        """Direct evaluation of (1 + k^2)^(-1/2) for k = 1, 2, 3."""
        spec = cl.make_spectrum(cl.MildFamily(1.0), 3)
        k = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(spec.rho, (1 + k**2) ** -0.5, rtol=1e-15)
        np.testing.assert_allclose(spec.rho, [0.70711, 0.44721, 0.31623], atol=5e-6)

    def test_mild_alpha_zero_is_flat(self):
        spec = cl.make_spectrum(cl.MildFamily(0.0), 7)
        assert np.array_equal(spec.rho, np.ones(7))

    def test_severe_pure_exponential(self):
        """alpha1 = alpha2 = 0, c0 = 1, beta = -1 gives exp(-2k)."""
        spec = cl.make_spectrum(cl.SevereFamily(0.0, 0.0, 1.0, -1.0), 2)
        np.testing.assert_array_equal(spec.rho, np.exp([-2.0, -4.0]))

    @pytest.mark.parametrize("family", [
        cl.MildFamily(-0.5),
        cl.MildFamily(1.0, c1=0.0),
        cl.MildFamily(1.0, c1=2.0, c2=1.0),
        cl.SevereFamily(0.0, 1.0, 1.0, -1.0),   # alpha1 < alpha2
        cl.SevereFamily(1.0, 0.5, -1.0, -1.0),  # c0 <= 0
    ])
    def test_bad_parameters_rejected(self, family):
        with pytest.raises(ParameterError):
            cl.make_spectrum(family, 4)

    def test_bad_n_dim_rejected(self):
        with pytest.raises(ParameterError):
            cl.make_spectrum(cl.MildFamily(1.0), 0)

    @pytest.mark.parametrize("family", [
        cl.MildFamily(1.5, c1=0.5, c2=2.0),
        cl.SevereFamily(1.0, 0.25, 0.7, -1.2),
    ])
    def test_envelope_holds_at_every_index(self, family):
        spec = cl.make_spectrum(family, 64)
        lo, hi = spec.envelope_bounds()
        assert np.all(lo <= spec.rho + 1e-15)
        assert np.all(spec.rho <= hi + 1e-15)

    def test_explicit_spectrum_must_be_monotone(self):
        with pytest.raises(ParameterError):
            cl.make_spectrum(np.array([0.5, 1.0]), 2)
        with pytest.raises(ParameterError):
            cl.make_spectrum(np.array([1.0, -0.5]), 2)


class TestCouplings:
    def test_identity(self):
        coupling = cl.make_coupling(cl.IdentityCoupling(), 4)
        assert np.array_equal(coupling.t_matrix, np.eye(4))

    def test_reflection_on_basis_vector(self):
        """Householder reflection across e1 flips exactly that axis."""
        coupling = cl.make_coupling(cl.ReflectionCoupling(np.array([1.0, 0.0, 0.0])), 3)
        np.testing.assert_array_equal(coupling.t_matrix, np.diag([-1.0, 1.0, 1.0]))

    def test_banded_support_and_orthogonality(self):
        coupling = cl.make_coupling(cl.BandedCoupling(1 / 3, 2.0), 8, seed=7)
        t = coupling.t_matrix
        assert np.linalg.norm(t.T @ t - np.eye(8)) < 1e-10
        for j in range(1, 9):
            lo, hi = cl.band_window(j, 1 / 3, 2.0, 8)
            col = t[:, j - 1]
            assert np.all(col[: lo - 1] == 0.0)
            assert np.all(col[hi:] == 0.0)

    @pytest.mark.parametrize("n_dim,seed", [(16, 0), (33, 1), (128, 2), (257, 3)])
    def test_banded_pattern_any_size_and_seed(self, n_dim, seed):
        coupling = cl.make_coupling(cl.BandedCoupling(), n_dim, seed=seed)
        t = coupling.t_matrix
        assert np.linalg.norm(t.T @ t - np.eye(n_dim)) < 1e-10
        for j in range(1, n_dim + 1):
            lo, hi = cl.band_window(j, 1 / 3, 2.0, n_dim)
            assert np.all(t[: lo - 1, j - 1] == 0.0)
            assert np.all(t[hi:, j - 1] == 0.0)

    def test_exp_skew_is_orthogonal(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        a = a - a.T
        coupling = cl.make_coupling(cl.ExpSkewCoupling(a), 6)
        assert np.linalg.norm(coupling.t_matrix.T @ coupling.t_matrix - np.eye(6)) < 1e-10

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.ReflectionCoupling(np.zeros(3)), 3)
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.ExpSkewCoupling(np.ones((3, 3))), 3)
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.BandedCoupling(2.0, 1.0), 8)
        with pytest.raises(ParameterError):
            cl.make_coupling(cl.ExplicitCoupling(np.ones((3, 3))), 3)

    def test_infeasible_band_pattern(self):
        with pytest.raises(ConstructionError):
            cl.make_coupling(cl.BandedCoupling(0.5, 0.9), 8)


class TestMeasures:
    def test_zero_variance_rejected(self):
        with pytest.raises(ParameterError):
            cl.explicit_prior([1.0, 0.0], 2)

    def test_colored_noise_matches_inverse_square(self):
        """zeta (G^-r + K1)^2 = I by direct matrix multiplication."""
        spec = cl.make_spectrum(cl.MildFamily(1.0), 6)
        k1 = cl.random_spd(6, seed=3, scale=0.2)
        noise = cl.colored_noise(spec, 0.5, k1)
        base = np.diag(spec.rho**-0.5) + k1
        np.testing.assert_allclose(noise.dense @ base @ base, np.eye(6), atol=1e-10)
        assert np.all(noise.variances > 0)

    def test_colored_noise_requires_r_in_unit_interval(self):
        spec = cl.make_spectrum(cl.MildFamily(1.0), 4)
        with pytest.raises(ParameterError):
            cl.colored_noise(spec, 1.5, np.eye(4))

    def test_hilbert_scale_prior_matches_fractional_power(self):
        """Reconstructed covariance equals (G^-t + K2)^(-l) elementwise."""
        from scipy.linalg import fractional_matrix_power

        spec = cl.make_spectrum(cl.MildFamily(1.0), 6)
        k2 = cl.random_spd(6, seed=9, scale=0.3)
        coupling, prior = cl.hilbert_scale_prior(spec, t=1.0, l=1.5, k2=k2)
        rebuilt = (coupling.t_matrix * prior.variances[None, :]) @ coupling.t_matrix.T
        target = fractional_matrix_power(np.diag(spec.rho**-1.0) + k2, -1.5).real
        np.testing.assert_allclose(rebuilt, target, atol=1e-10)
        assert np.all(np.diff(prior.variances) <= 1e-15)

    def test_dense_noise_must_be_spd(self):
        with pytest.raises(ParameterError):
            cl.dense_noise(np.diag([1.0, -0.5]))

    def test_vectors_must_be_orthonormal(self):
        with pytest.raises(ParameterError):
            cl.GaussianSequenceMeasure(2, [1.0, 2.0], "e", np.diag([2.0, 1.0]))
        with pytest.raises(ParameterError):
            cl.GaussianSequenceMeasure(2, [1.0, 2.0], "e", np.eye(3))

    def test_prior_with_vectors_rejected(self):
        """The posterior treats the prior as diagonal in the phi-basis, so a
        prior carrying an eigenbasis would be silently misread."""
        spec = cl.make_spectrum(cl.MildFamily(1.0), 2)
        reflection = np.array([[0.6, 0.8], [0.8, -0.6]])
        prior = cl.GaussianSequenceMeasure(2, [1.0, 0.5], "phi", reflection)
        with pytest.raises(ParameterError):
            cl.InverseProblem(spec, cl.make_coupling(cl.IdentityCoupling(), 2), prior,
                              cl.white_noise(2), 2)

    @pytest.mark.parametrize("n_dim", [1, 2, 7])
    def test_random_spd_every_size(self, n_dim):
        """Symmetric, with eigenvalues in [scale (1 - 1/1.05), scale (1 + 1/1.05)]."""
        k = cl.random_spd(n_dim, seed=3, scale=0.5)
        assert k.shape == (n_dim, n_dim)
        assert np.array_equal(k, k.T)
        vals = np.linalg.eigvalsh(k)
        assert vals.min() >= 0.5 * (1 - 1 / 1.05) - 1e-12
        assert vals.max() <= 0.5 * (1 + 1 / 1.05) + 1e-12


class TestForwardModel:
    def test_diagonal_scaling_in_e_basis(self):
        prob = cl.InverseProblem(
            cl.make_spectrum(np.array([1.0, 0.5]), 2),
            cl.make_coupling(cl.IdentityCoupling(), 2),
            cl.power_law_prior(1.0, 2), cl.white_noise(2), 2)
        np.testing.assert_array_equal(
            cl.forward_apply(prob, np.array([1.0, 1.0])), [1.0, 0.5])

    def test_reflection_flips_first_mode(self):
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(0.0), 2),
            cl.make_coupling(cl.ReflectionCoupling(np.array([1.0, 0.0])), 2),
            cl.power_law_prior(1.0, 2), cl.white_noise(2), 2)
        np.testing.assert_array_equal(
            cl.forward_apply(prob, np.array([1.0, 0.0])), [-1.0, 0.0])

    def test_zero_maps_to_zero(self):
        prob = identity_problem(5)
        assert np.all(cl.forward_apply(prob, np.zeros(5)) == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            cl.forward_apply(identity_problem(4), np.zeros(5))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           a=st.floats(-10, 10, allow_nan=False),
           b=st.floats(-10, 10, allow_nan=False))
    def test_linearity(self, seed, a, b):
        """f(a u + b v) = a f(u) + b f(v) to 1e-12 relative."""
        prob = identity_problem(6)
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        lhs = cl.forward_apply(prob, a * u + b * v)
        rhs = a * cl.forward_apply(prob, u) + b * cl.forward_apply(prob, v)
        scale = max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


class TestSimulation:
    def test_fixed_seed_bit_identical(self):
        prob = identity_problem(4)
        u0 = cl.power_law_truth(2.0, 4)
        a = cl.simulate_data(prob, u0, 100.0, seed=11)
        b = cl.simulate_data(prob, u0, 100.0, seed=11)
        assert np.array_equal(a.y, b.y)

    def test_zero_truth_white_noise_is_scaled_normal(self):
        """With u0 = 0 and white noise, y = z / sqrt(n) exactly."""
        prob = identity_problem(4)
        data = cl.simulate_data(prob, np.zeros(4), 25.0, seed=3)
        z = cl.substream(3, "simulate").standard_normal(4)
        assert np.array_equal(data.y, z / 5.0)

    def test_large_n_recovers_forward_image(self):
        """||y - G u0|| = ||z|| / sqrt(n) <= 1e-4 at n = 1e10 unless ||z|| > 10,
        an event of probability below 1e-3 for a 4-dim standard normal."""
        prob = identity_problem(4)
        u0 = cl.power_law_truth(2.0, 4)
        data = cl.simulate_data(prob, u0, 1e10, seed=17)
        gap = np.linalg.norm(data.y - cl.forward_apply(prob, u0))
        assert gap < 1e-4

    @pytest.mark.parametrize("dense", [False, True])
    def test_noise_covariance_matches_target(self, dense):
        """Empirical covariance of sqrt(n) (y - G u0) over 1e4 independent
        seeds matches the noise covariance entrywise within 5 SE."""
        n_dim, m, n_level = 3, 10_000, 7.0
        spec = cl.make_spectrum(cl.MildFamily(1.0), n_dim)
        if dense:
            noise = cl.colored_noise(spec, 0.5, cl.random_spd(n_dim, seed=1, scale=0.3))
            zeta = noise.dense
        else:
            noise = cl.diagonal_noise([1.0, 0.5, 2.0], n_dim)
            zeta = np.diag(noise.variances)
        prob = cl.InverseProblem(spec, cl.make_coupling(cl.IdentityCoupling(), n_dim),
                                 cl.power_law_prior(1.0, n_dim), noise, n_dim)
        u0 = cl.power_law_truth(1.0, n_dim)
        gu0 = cl.forward_apply(prob, u0)
        draws = np.array([
            math.sqrt(n_level) * (cl.simulate_data(prob, u0, n_level, seed=s).y - gu0)
            for s in range(m)])
        emp = draws.T @ draws / m
        se = np.sqrt((np.outer(np.diag(zeta), np.diag(zeta)) + zeta**2) / m)
        assert np.all(np.abs(emp - zeta) <= 5 * se)

    def test_bad_n_level(self):
        with pytest.raises(ParameterError):
            cl.simulate_data(identity_problem(3), np.zeros(3), 0.0, seed=0)


class TestImmutability:
    def _colored_problem(self, n=6):
        spec = cl.make_spectrum(cl.MildFamily(1.0), n)
        return cl.InverseProblem(spec, cl.make_coupling(cl.BandedCoupling(), n, seed=3),
                                 cl.power_law_prior(1.0, n),
                                 cl.colored_noise(spec, 0.5, cl.random_spd(n, seed=4, scale=0.2)), n)

    def test_stored_arrays_are_read_only(self):
        prob = self._colored_problem()
        for arr in (prob.operator.rho, prob.coupling.t_matrix, prob.prior.variances,
                    prob.noise.variances, prob.noise.vectors, prob.noise.dense):
            with pytest.raises(ValueError):
                arr[0] = -1.0
        assert np.all(prob.operator.rho > 0)

    def test_cached_matrices_are_read_only(self):
        prob = self._colored_problem()
        for arr in (prob.whitened_forward, prob.whitened_gram):
            with pytest.raises(ValueError):
                arr[0, 0] = -1.0
            with pytest.raises(ValueError):
                arr *= 2.0
        assert np.array_equal(prob.whitened_gram, prob.whitened_forward.T @ prob.whitened_forward)

    def test_whitening_needs_no_further_decomposition(self, monkeypatch):
        """The noise measure carries its eigenbasis, so whitening and
        colouring never decompose the covariance again."""
        prob = self._colored_problem()

        def refuse(*args, **kwargs):
            raise AssertionError("decomposition after build")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        zeta = prob.noise.dense
        m = prob.whitened_forward
        g_t = prob.operator.rho[:, None] * prob.coupling.t_matrix
        np.testing.assert_allclose(m.T @ zeta @ m, g_t.T @ g_t, rtol=1e-10, atol=1e-12)
        z = np.ones(prob.n_dim)
        np.testing.assert_allclose(prob.noise_whiten(prob.noise_color(z)), z, rtol=1e-12)

    def test_caller_arrays_are_copied_not_frozen(self):
        rho = np.array([1.0, 0.5, 0.25])
        t = np.eye(3)
        lam = np.array([1.0, 0.5, 0.2])
        cov = np.diag([2.0, 1.0, 0.5])
        spec = cl.make_spectrum(rho, 3)
        coupling = cl.make_coupling(cl.ExplicitCoupling(t), 3)
        prior = cl.explicit_prior(lam, 3)
        noise = cl.dense_noise(cov)
        for arr in (rho, t, lam, cov):
            assert arr.flags.writeable
            arr[0] = -1.0
        assert spec.rho[0] == 1.0
        assert coupling.t_matrix[0, 0] == 1.0
        assert prior.variances[0] == 1.0
        assert noise.dense[0, 0] == 2.0

    def test_data_sample_holds_read_only_copies(self):
        """A data sample neither follows later writes to the caller's arrays
        nor accepts a write that would bypass its finiteness check."""
        y, u0 = np.array([1.0, 2.0, 3.0]), np.zeros(3)
        sample = cl.DataSample(y=y, n_level=10.0, u0=u0, seed=0)
        y[0], u0[0] = 99.0, 99.0
        assert sample.y[0] == 1.0 and sample.u0[0] == 0.0
        for arr in (sample.y, sample.u0):
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = np.nan
        assert np.all(np.isfinite(sample.y))

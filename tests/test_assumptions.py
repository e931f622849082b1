"""The g quantities, small-ball masses, projection tails, eigenvalue
sandwiches, Hilbert-Schmidt diagnostics and plug-in concentration."""

import math

import numpy as np
import pytest
from scipy.stats import norm

import contraction_lab as cl
from contraction_lab.errors import ParameterError


def identity_problem(n_dim, alpha=1.0, delta=1.0, noise=None):
    return cl.InverseProblem(
        cl.make_spectrum(cl.MildFamily(alpha), n_dim),
        cl.make_coupling(cl.IdentityCoupling(), n_dim),
        cl.power_law_prior(delta, n_dim),
        noise if noise is not None else cl.white_noise(n_dim),
        n_dim)


def banded_problem(n_dim, alpha=1.0, delta=1.0, seed=0):
    return cl.InverseProblem(
        cl.make_spectrum(cl.MildFamily(alpha), n_dim),
        cl.make_coupling(cl.BandedCoupling(), n_dim, seed=seed),
        cl.power_law_prior(delta, n_dim),
        cl.white_noise(n_dim),
        n_dim)


def brute_force_g(problem, k, r, tries=10_000, iters=400, seed=0):
    """Independent maximization of the whitened quadratic form over the unit
    sphere: random restarts polished by power iterations of the map itself.

    Always approaches the maximum from below.
    """
    rng = np.random.default_rng(seed)
    t_cols = problem.coupling.t_matrix[:, :k]

    def image(coeffs):
        x = t_cols @ coeffs
        x = x / problem.operator.rho[:, None] if coeffs.ndim > 1 else x / problem.operator.rho
        if r < problem.n_dim:
            x[r:] = 0.0
        return problem.noise_color(x)

    c = rng.standard_normal((k, tries))
    c /= np.linalg.norm(c, axis=0)
    vals = np.sum(image(c) ** 2, axis=0)
    best = c[:, int(np.argmax(vals))].copy()
    for _ in range(iters):
        y = image(best)
        pulled = t_cols.T @ (problem.noise_color(y) / problem.operator.rho *
                             (np.arange(problem.n_dim) < r))
        norm_p = np.linalg.norm(pulled)
        if norm_p == 0:
            break
        best = pulled / norm_p
    return float(np.sum(image(best) ** 2)), float(vals.max())


class TestG:
    def test_identity_full_projection(self):
        """With the diagonal action, g is the largest inverse singular value
        squared among the first k modes: 1/rho_4^2 = 17 at alpha = 1."""
        prob = identity_problem(8)
        assert cl.compute_g_kr(prob, 4, 8) == (1.0 / prob.operator.rho[3]) ** 2
        assert math.isclose(cl.compute_g_kr(prob, 4, 8), 17.0, rel_tol=1e-14)

    def test_identity_projection_cuts_modes(self):
        """r = 2 kills modes 3 and 4; the max runs over the first two."""
        prob = identity_problem(8)
        assert cl.compute_g_kr(prob, 4, 2) == (1.0 / prob.operator.rho[1]) ** 2
        assert math.isclose(cl.compute_g_kr(prob, 4, 2), 5.0, rel_tol=1e-14)

    def test_orthogonal_isometry_flat_spectrum(self):
        """rho = 1 and white noise: any orthogonal coupling preserves norms."""
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(0.0), 6),
            cl.make_coupling(cl.BandedCoupling(), 6, seed=5),
            cl.power_law_prior(1.0, 6), cl.white_noise(6), 6)
        assert abs(cl.compute_g_kr(prob, 3, 6) - 1.0) < 1e-12

    def test_identity_closed_form_all_small_indices(self):
        """Exact agreement with max over stored inverse singular values."""
        prob = identity_problem(32)
        inv_sq = (1.0 / prob.operator.rho) ** 2
        for k in range(1, 33):
            for r in range(1, 33):
                assert cl.compute_g_kr(prob, k, r) == np.max(inv_sq[: min(k, r)])

    def test_weighted_diagonal_closed_form(self):
        """Diagonal noise weights each mode by its variance."""
        zeta = np.array([0.5, 2.0, 1.5, 0.25])
        prob = identity_problem(4, noise=cl.diagonal_noise(zeta, 4))
        inv = zeta / prob.operator.rho**2
        for k in range(1, 5):
            got = cl.compute_g_kr(prob, k, 4)
            assert math.isclose(got, np.max(inv[:k]), rel_tol=1e-12)

    def test_r_equals_k_linkage_bitwise(self):
        """With r = k on the diagonal problem, sqrt(g) equals 1/rho_k."""
        prob = identity_problem(32)
        for k in range(1, 33):
            assert math.sqrt(cl.compute_g_kr(prob, k, k)) == 1.0 / prob.operator.rho[k - 1]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_monotone_in_k_and_r_diagonal_noise(self, seed):
        rng = np.random.default_rng(seed)
        zeta = rng.uniform(0.5, 1.5, 8)
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(1.0), 8),
            cl.make_coupling(cl.BandedCoupling(), 8, seed=seed),
            cl.power_law_prior(1.0, 8),
            cl.diagonal_noise(zeta, 8), 8)
        grid = np.array([[cl.compute_g_kr(prob, k, r) for r in range(1, 9)]
                         for k in range(1, 9)])
        assert np.all(np.diff(grid, axis=0) >= -1e-12)
        assert np.all(np.diff(grid, axis=1) >= -1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_brute_force_oracle_small_instances(self, seed):
        """Hill-climbed random search reproduces the eigensolve from below."""
        prob = banded_problem(8, seed=seed)
        for k in (2, 5, 8):
            for r in (3, 8):
                g = cl.compute_g_kr(prob, k, r)
                polished, raw_best = brute_force_g(prob, k, r, seed=seed)
                assert raw_best <= g + 1e-12 * max(1.0, g)
                assert polished <= g + 1e-12 * max(1.0, g)
                assert polished >= g - 1e-6 * max(1.0, g)

    def test_banded_g_growth_bound(self):
        """Band support keeps g_k below (2k)^(2 alpha) for k up to N/2."""
        prob = banded_problem(256, alpha=1.0, seed=11)
        for k in range(1, 65):
            assert cl.compute_g_kr(prob, k, prob.n_dim) <= (2 * k) ** 2 * (1 + 1e-9)

    def test_bounds_validated(self):
        prob = identity_problem(4)
        with pytest.raises(ParameterError):
            cl.compute_g_kr(prob, 0, 2)
        with pytest.raises(ParameterError):
            cl.compute_g_kr(prob, 2, 5)


class TestSmallBall:
    def test_scalar_gaussian_oracle(self):
        """Unit everything: mass of |z| <= 1 is 2 Phi(1) - 1 ~ 0.6827."""
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(0.0), 1),
            cl.make_coupling(cl.IdentityCoupling(), 1),
            cl.explicit_prior([1.0], 1), cl.white_noise(1), 1)
        rep = cl.small_ball_log_prob(prob, np.zeros(1), 1.0, 40_000, seed=2)
        target = math.log(2 * norm.cdf(1.0) - 1)
        assert abs(rep.log_prob - target) <= max(3 * rep.ci_halfwidth, 1e-3)

    def test_chebyshev_large_radius(self):
        """Radius at ten standard deviations captures at least 99% mass."""
        prob = banded_problem(12, seed=4)
        u0 = cl.power_law_truth(2.0, 12)
        m = prob.whitened_forward
        second_moment = float(np.sum(prob.prior.variances * np.sum(m**2, axis=0))
                              + np.linalg.norm(prob.noise_whiten(cl.forward_apply(prob, u0))) ** 2)
        eps = 10.0 * math.sqrt(second_moment)
        rep = cl.small_ball_log_prob(prob, u0, eps, 4000, seed=3)
        assert rep.log_prob >= math.log(0.99)

    def test_zero_center_costs_nothing(self):
        prob = banded_problem(8, seed=1)
        rep = cl.small_ball_log_prob(prob, np.zeros(8), 0.5, 2000, seed=1)
        assert rep.shift_cost == 0.0
        assert rep.truncation_index == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_shifted_lower_bound_every_run(self, seed):
        """log mass at (u0, eps) >= centered log mass at eps/2 minus the
        certificate cost, within Monte Carlo slack."""
        rng = np.random.default_rng(seed)
        prob = banded_problem(10, seed=seed)
        u0 = 0.3 * rng.standard_normal(10) * np.sqrt(prob.prior.variances)
        scale = math.sqrt(float(np.sum(prob.prior.variances *
                                       np.sum(prob.whitened_forward**2, axis=0))))
        rep = cl.small_ball_log_prob(prob, u0, 0.8 * scale, 20_000, seed=seed + 50)
        assert rep.shift_bound_satisfied()

    def test_zero_hits_returns_upper_bound_flag(self):
        prob = identity_problem(6)
        rep = cl.small_ball_log_prob(prob, np.zeros(6), 1e-12, 1000, seed=0)
        assert rep.upper_bound_only
        assert rep.log_prob < 0

    def test_mc_floor(self):
        with pytest.raises(ParameterError):
            cl.small_ball_log_prob(identity_problem(3), np.zeros(3), 0.5, 10, seed=0)


class TestProjectionTail:
    def test_full_projection_exactly_zero(self):
        prob = banded_problem(8, seed=2)
        assert cl.projection_log_tail_bound(prob, 8, None, 0.5) == -math.inf
        assert cl.projection_log_tail_bound(prob, 8, 8, 0.5) == -math.inf
        assert cl.projection_tail_grid(prob, 8, None, [0.5]) == [0.0]
        assert cl.projection_tail_grid(prob, 8, 8, [0.5]) == [0.0]

    def test_scalar_residual_gaussian_oracle(self):
        """Identity coupling, k=1 of 2 modes with unit second variance:
        the residual is |z|, so the tail at 1 is 2(1 - Phi(1))."""
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(0.0), 2),
            cl.make_coupling(cl.IdentityCoupling(), 2),
            cl.explicit_prior([1.0, 1.0], 2), cl.white_noise(2), 2)
        est = cl.projection_tail_grid(prob, 1, None, [1.0], mc=40_000, seed=3)[0]
        assert abs(est - 2 * norm.sf(1.0)) < 0.01

    def test_monotone_grid_shared_batch(self):
        prob = banded_problem(10, seed=3)
        grid = np.linspace(0.05, 3.0, 15)
        probs = cl.projection_tail_grid(prob, 3, 6, grid, mc=2000, seed=4)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[-1] <= probs[0]

    @pytest.mark.parametrize("k, r, threshold", [
        (0, None, 0.5), (9, None, 0.5), (3, -2, 0.5), (3, None, -0.5)])
    def test_grid_validates_like_the_bound(self, k, r, threshold):
        """The Monte Carlo oracle rejects what the bound rejects instead of
        sampling a meaningless projection."""
        prob = banded_problem(8, seed=2)
        with pytest.raises(ParameterError):
            cl.projection_log_tail_bound(prob, k, r, threshold)
        with pytest.raises(ParameterError):
            cl.projection_tail_grid(prob, k, r, [threshold])

    @pytest.mark.parametrize("threshold", [0.3, 0.8, 1.5])
    def test_chernoff_dominates_monte_carlo(self, threshold):
        prob = banded_problem(10, seed=5)
        mc = cl.projection_tail_grid(prob, 3, 6, [threshold], mc=20_000, seed=5)[0]
        bound = math.exp(cl.projection_log_tail_bound(prob, 3, 6, threshold))
        assert mc <= bound + 0.02
        assert bound <= 1.0

    @pytest.mark.parametrize("threshold, reference", [
        (1e3, -262023355.44759336), (1e6, -262023363858580.25),
        (1e7, -2.6202336385858856e16), (1e9, -2.6202336385858866e20)])
    def test_deep_chernoff_tail_stays_finite(self, threshold, reference):
        """Far in the tail the saddlepoint lies within rounding of the pole
        1 / (2 max lam); the bound is still finite and no weaker than the
        bounded scalar search the check used before (``reference``)."""
        prob = identity_problem(8)
        log_tail = cl.projection_log_tail_bound(prob, 7, None, threshold)
        assert math.isfinite(log_tail)
        assert log_tail <= reference * (1.0 - 1e-12)


class TestMinmax:
    def test_equal_operators_unit_ratios(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        table = cl.minmax_compare(spd, spd, 5)
        assert np.all(table.ratios == 1.0)

    def test_identity_coupling_exact_unit_ratios(self):
        """Commuting diagonal case: both pushforwards are the same diagonal."""
        prob = identity_problem(16)
        table = cl.minmax_compare(cl.coupled_pushforward_cov(prob),
                                  cl.diagonal_pushforward_cov(prob), 12)
        assert np.all(table.ratios == 1.0)

    def test_banded_ratios_bounded_and_seed_stable(self):
        """Measured sandwich interval [c, C] with c > 0; fresh band seeds
        stay within [c/2, 2C]."""
        def interval(seed):
            prob = banded_problem(64, alpha=1.0, delta=1.0, seed=seed)
            t = cl.minmax_compare(cl.coupled_pushforward_cov(prob),
                                  cl.diagonal_pushforward_cov(prob), 48)
            return t.min_ratio, t.max_ratio

        c0, c1 = interval(0)
        assert 0 < c0 <= c1 < math.inf
        for seed in (1, 2, 3):
            lo, hi = interval(seed)
            assert lo >= c0 / 2
            assert hi <= 2 * c1

    def test_validation(self):
        with pytest.raises(ParameterError):
            cl.minmax_compare(np.eye(3), np.eye(4), 2)
        with pytest.raises(ParameterError):
            cl.minmax_compare(np.diag([1.0, -1.0]), np.eye(2), 2)


class TestHsDiagnostic:
    def _reflection_problem(self, v, variances):
        n = len(v)
        return cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(1.0), n),
            cl.make_coupling(cl.ReflectionCoupling(np.asarray(v)), n),
            cl.explicit_prior(variances, n), cl.white_noise(n), n)

    def test_basis_vector_reflection_stabilizes(self):
        """A single-coordinate reflection is finite-dimensional: the norm is
        constant in the truncation."""
        n = 64
        v = np.zeros(n)
        v[0] = 1.0
        prob = self._reflection_problem(v, (1.0 + np.arange(1, n + 1) ** 2) ** -1.5)
        rep = cl.hs_diagnostic(prob, "reflection_pair")
        assert rep.verdict == "bounded"
        assert rep.values[0] == rep.values[1] == rep.values[2]

    def test_geometric_direction_summable(self):
        """v_j ~ 2^-j against lambda_j = j^-2: partial sums converge."""
        n = 64
        j = np.arange(1, n + 1, dtype=float)
        prob = self._reflection_problem(2.0**-j, j**-2.0)
        rep = cl.hs_diagnostic(prob, "reflection_pair")
        assert rep.verdict == "bounded"

    def test_harmonic_direction_exponential_prior_diverges(self):
        """v_j ~ 1/j against lambda_j = e^-j: partial sums explode."""
        n = 64
        j = np.arange(1, n + 1, dtype=float)
        prob = self._reflection_problem(1.0 / j, np.exp(-j))
        rep = cl.hs_diagnostic(prob, "reflection_pair")
        assert rep.verdict == "divergent"
        assert rep.values[2] > rep.values[1] > rep.values[0]

    def test_exp_pair_finite_generator(self):
        n = 32
        a = np.zeros((n, n))
        a[0, 1], a[1, 0] = 1.0, -1.0
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(1.0), n),
            cl.make_coupling(cl.ExpSkewCoupling(a), n),
            cl.power_law_prior(1.0, n), cl.white_noise(n), n)
        rep = cl.hs_diagnostic(prob, "exp_pair")
        assert rep.verdict == "bounded"
        assert all(v >= 0 for v in rep.values)

    def test_gn_bound_identity_coupling(self):
        """Matching bases: the comparison operator vanishes and g_n rho_n^2
        stays pinned at one."""
        prob = identity_problem(32)
        rep = cl.hs_diagnostic(prob, "gn_bound")
        assert rep.verdict == "bounded"
        assert all(v < 1e-10 for v in rep.values)
        assert rep.details["g_rho_sq_bounded"]
        for _, val in rep.details["g_rho_sq"]:
            assert math.isclose(val, 1.0, rel_tol=1e-10)

    def test_kind_mismatch_rejected(self):
        prob = identity_problem(8)
        with pytest.raises(ParameterError):
            cl.hs_diagnostic(prob, "reflection_pair")
        with pytest.raises(ParameterError):
            cl.hs_diagnostic(prob, "exp_pair")
        with pytest.raises(ParameterError):
            cl.hs_diagnostic(prob, "unknown")


class TestPlugIn:
    def test_noiseless_diagonal_extracts_coordinates(self):
        """y = G u0 with identity coupling and r >= k recovers the leading
        coordinates of the truth."""
        prob = identity_problem(8)
        u0 = cl.power_law_truth(2.0, 8)
        y = cl.forward_apply(prob, u0)
        data = cl.DataSample(y, 10.0, u0, 0)
        est = cl.plug_in_estimate(prob, data, 4, 6)
        np.testing.assert_allclose(est.u_hat[:4], u0[:4], rtol=1e-12)
        assert np.all(est.u_hat[4:] == 0.0)

    def test_noiseless_flat_spectrum_exact_bits(self):
        prob = identity_problem(8, alpha=0.0)
        u0 = cl.power_law_truth(2.0, 8)
        data = cl.DataSample(cl.forward_apply(prob, u0), 10.0, u0, 0)
        est = cl.plug_in_estimate(prob, data, 5, 8)
        assert np.array_equal(est.u_hat[:5], u0[:5])

    def test_sigma0_definition(self):
        prob = banded_problem(12, seed=6)
        data = cl.simulate_data(prob, np.zeros(12), 40.0, seed=1)
        est = cl.plug_in_estimate(prob, data, 3, 9)
        expected = cl.compute_g_kr(prob, 3, 9) / 40.0
        assert math.isclose(est.sigma0_sq, expected, rel_tol=1e-10)

    def test_unbiased_for_double_projection(self):
        """Mean reconstruction over 1e4 noise draws matches the double
        projection of the truth within 5 SE per coordinate."""
        n_dim, k, r, n_level, m = 12, 4, 9, 25.0, 10_000
        prob = banded_problem(n_dim, seed=7)
        u0 = cl.power_law_truth(1.0, n_dim)
        t = prob.coupling.t_matrix
        u0_e = t @ u0
        proj = u0_e.copy()
        proj[r:] = 0.0
        target = (t[:, :k].T @ proj)

        rng = cl.substream(99, "unbiased")
        cols = t[:, :k].copy()
        cols[r:, :] = 0.0
        cols = cols / prob.operator.rho[:, None]
        y = (cl.forward_apply(prob, u0)[:, None]
             + prob.noise_color(rng.standard_normal((n_dim, m))) / math.sqrt(n_level))
        coeffs = cols.T @ y
        se = coeffs.std(axis=1, ddof=1) / math.sqrt(m)
        assert np.all(np.abs(coeffs.mean(axis=1) - target) <= 5 * se + 1e-12)

    def test_vanishes_at_huge_n(self):
        """Zero truth at n = 1e10: the reconstruction norm collapses."""
        prob = identity_problem(6)
        data = cl.simulate_data(prob, np.zeros(6), 1e10, seed=12)
        est = cl.plug_in_estimate(prob, data, 3, 6)
        assert np.linalg.norm(est.u_hat) < 1e-3


class TestConcentration:
    def test_zero_offset_bound_is_one(self):
        prob = identity_problem(6)
        rep = cl.concentration_check(prob, np.zeros(6), 3, 6, 50.0,
                                     x_grid=[0.0], mc=1000, seed=1)
        assert rep.bound[0] == 1.0
        assert rep.empirical[0] <= 1.0
        assert rep.ok.tolist() == [True]
        assert rep.tail_ok

    def test_scalar_gaussian_envelope(self):
        """One mode: deviations are exactly Gaussian with variance g/n, so
        the empirical tail sits under the envelope at every offset."""
        prob = cl.InverseProblem(
            cl.make_spectrum(np.array([0.5]), 1),
            cl.make_coupling(cl.IdentityCoupling(), 1),
            cl.explicit_prior([1.0], 1), cl.white_noise(1), 1)
        sigma0 = math.sqrt(cl.compute_g_kr(prob, 1, 1) / 30.0)
        rep = cl.concentration_check(prob, np.zeros(1), 1, 1, 30.0,
                                     x_grid=sigma0 * np.linspace(0, 3, 7),
                                     mc=10_000, seed=2)
        assert rep.tail_ok
        assert rep.mean_dev_ok

    def test_doubling_n_halves_sigma_sq(self):
        prob = banded_problem(10, seed=8)
        u0 = cl.power_law_truth(1.0, 10)
        grid = [0.0, 0.1]
        a = cl.concentration_check(prob, u0, 4, 10, 100.0, grid, 2000, seed=3)
        b = cl.concentration_check(prob, u0, 4, 10, 200.0, grid, 2000, seed=3)
        assert b.sigma0_sq == a.sigma0_sq / 2.0
        assert a.tail_ok and b.tail_ok


class TestVerifyAssumptions:
    def _calibrated_plan(self, prob, u0, n_level):
        params = cl.TheoryParams(alpha=1.0, delta=1.0, gamma=2.0)
        base = cl.plan_from_theory(params, n_level, prob.n_dim)
        eps, xi, k_n = base.eps_n, base.xi_n, base.k_n

        sb = cl.small_ball_log_prob(prob, u0, eps, 4000, seed=77)
        c = max(1.0, 2.0 * (-sb.log_prob) / (n_level * eps**2))
        g = cl.compute_g_kr(prob, k_n, prob.n_dim)
        c1 = 2.0 * math.sqrt(g) * eps / xi
        big_r = max(1.0, 2.0 * k_n / (n_level * eps**2))
        c2 = 1.0
        for _ in range(14):
            log_tail = max(cl.projection_log_tail_bound(prob, k_n, None, c2 * xi),
                           math.log(1e-300))
            if log_tail <= -(c + 4.0) * n_level * eps**2:
                break
            c2 *= 2.0
        constants = cl.RateConstants(c=c, c1=c1, c2=c2, r=big_r)
        return cl.RatePlan(eps_n=eps, xi_n=xi, k_n=k_n, r_n=None,
                           constants=constants, n_level=n_level)

    def test_self_consistent_calibration_passes(self):
        """Constants calibrated from measured quantities make every check
        pass on the diagonal benchmark problem."""
        prob = identity_problem(64)
        u0 = cl.power_law_truth(2.0, 64)
        plan = self._calibrated_plan(prob, u0, 1e4)
        report = cl.verify_assumptions(prob, plan, u0, 4000, seed=5)
        assert report.all_ok
        assert not report.finite_r_evidence
        assert report.truth_ratio < math.inf

    def test_tiny_radius_breaks_g(self):
        """xi = eps^2 forces sqrt(g) above c1 xi / eps."""
        prob = identity_problem(32)
        u0 = cl.power_law_truth(2.0, 32)
        eps = 0.1
        plan = cl.RatePlan(eps_n=eps, xi_n=eps**2, k_n=4, r_n=None,
                           constants=cl.RateConstants(), n_level=1e4)
        report = cl.verify_assumptions(prob, plan, u0, 1000, seed=6)
        assert not report.g.ok

    def test_full_cutoff_tiny_eps_breaks_kn(self):
        prob = identity_problem(32)
        u0 = cl.power_law_truth(2.0, 32)
        plan = cl.RatePlan(eps_n=1e-3, xi_n=0.5, k_n=32, r_n=None,
                           constants=cl.RateConstants(), n_level=100.0)
        report = cl.verify_assumptions(prob, plan, u0, 1000, seed=7)
        assert not report.kn.ok

    def test_finite_r_flagged(self):
        prob = identity_problem(16)
        u0 = cl.power_law_truth(2.0, 16)
        plan = cl.RatePlan(eps_n=0.2, xi_n=0.5, k_n=4, r_n=4,
                           constants=cl.RateConstants(), n_level=100.0)
        report = cl.verify_assumptions(prob, plan, u0, 1000, seed=8)
        assert report.finite_r_evidence
        assert "g_sqrt_at_r_equals_k" in report.details

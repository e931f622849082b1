"""Closed-form exponents, empirical rate fits, and the finite-dimensional
log-rate experiment."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import stdtrit
from scipy.stats import multivariate_normal, ncx2, norm
from scipy.stats import t as student_t

import contraction_lab as cl
from contraction_lab import posterior as posterior_module
from contraction_lab import quadform, rates
from contraction_lab.config import build_problem, build_truth
from contraction_lab.errors import ParameterError
from contraction_lab.rng import substream
from contraction_lab.spectral import forward_apply

from block_reference import zero_pattern_blocks
from oracles import finite_dim_exceedance_given_y, imhof_tail


class TestTheoryRates:
    def test_benchmark_exponents(self):
        """alpha = delta = 1, gamma = 2: minimum is 1, denominator is 5."""
        r = cl.theory_rates(cl.TheoryParams(1.0, 1.0, 2.0))
        assert r.xi_exponent == -0.2
        assert r.eps_exponent == -0.4
        assert r.kn_exponent == 0.2

    def test_gamma_delta_tie(self):
        r = cl.theory_rates(cl.TheoryParams(1.0, 1.5, 1.5))
        assert math.isclose(r.xi_exponent, -1.5 / 6.0)

    def test_colored_effective_smoothness(self):
        """r = 1/2, t = 1 halves the usable truth smoothness."""
        params = cl.TheoryParams(1.0, 1.0, 1.0, cl.Colored(r=0.5, t=1.0, l=2.0))
        r = cl.theory_rates(params)
        assert math.isclose(r.xi_exponent, -0.1)

    def test_colored_constraints(self):
        with pytest.raises(ParameterError):
            cl.TheoryParams(1.0, 1.0, 1.0, cl.Colored(r=0.5, t=0.4, l=2.0))
        with pytest.raises(ParameterError):
            cl.TheoryParams(1.0, 1.0, 1.0, cl.Colored(r=0.5, t=1.0, l=2.5))
        with pytest.raises(ParameterError):
            cl.TheoryParams(1.0, 1.0, 1.0, cl.Colored(r=1.2, t=1.0, l=1.0))

    def test_monotone_and_continuous_in_gamma(self):
        """xi exponent never increases with gamma and is continuous at the
        gamma = delta kink."""
        gammas = np.linspace(0.1, 3.0, 40)
        values = [cl.theory_rates(cl.TheoryParams(1.0, 1.0, g)).xi_exponent for g in gammas]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        below = cl.theory_rates(cl.TheoryParams(1.0, 1.0, 1.0 - 1e-9)).xi_exponent
        above = cl.theory_rates(cl.TheoryParams(1.0, 1.0, 1.0 + 1e-9)).xi_exponent
        assert abs(below - above) < 1e-9

    @pytest.mark.parametrize("n_level", [math.inf, math.nan])
    def test_plan_from_theory_rejects_non_finite_n(self, n_level):
        """Not an ``OverflowError`` from rounding ``inf**exponent``, nor a
        plan at n = nan."""
        with pytest.raises(ParameterError, match="finite"):
            cl.plan_from_theory(cl.TheoryParams(1.0, 1.0, 2.0), n_level, 8)

    def test_plan_from_theory_respects_dims(self):
        plan = cl.plan_from_theory(cl.TheoryParams(1.0, 1.0, 2.0), 1e4, 8)
        assert 1 <= plan.k_n <= 8
        assert 0 < plan.eps_n <= 1 and 0 < plan.xi_n <= 1


class TestScalingExactness:
    def test_noise_and_n_rescale_cancels_bitwise(self):
        """Multiplying the noise covariance and n by four leaves the
        conjugate posterior bit-identical: they only enter as n / noise.
        (Powers of four scale exactly through square roots.)"""
        n_dim = 6
        rng = np.random.default_rng(7)
        zeta = rng.uniform(0.5, 2.0, n_dim)
        spec = cl.make_spectrum(cl.MildFamily(1.0), n_dim)
        coupling = cl.make_coupling(cl.BandedCoupling(), n_dim, seed=3)
        prior = cl.power_law_prior(1.0, n_dim)
        base = cl.InverseProblem(spec, coupling, prior, cl.diagonal_noise(zeta, n_dim), n_dim)
        scaled = cl.InverseProblem(spec, coupling, prior, cl.diagonal_noise(4.0 * zeta, n_dim), n_dim)
        y = rng.standard_normal(n_dim)
        post_a = cl.conjugate_posterior(base, cl.DataSample(y, 25.0, np.zeros(n_dim), 0))
        post_b = cl.conjugate_posterior(scaled, cl.DataSample(y, 100.0, np.zeros(n_dim), 0))
        assert np.array_equal(post_a.mean, post_b.mean)
        assert np.array_equal(post_a.cov_factor.dense(), post_b.cov_factor.dense())


class TestFitContractionRate:
    def test_grid_validation(self):
        prob = _small_problem(8)
        u0 = cl.power_law_truth(2.0, 8)
        with pytest.raises(ParameterError):
            cl.fit_contraction_rate(prob, u0, [100.0], 0.1, 5, seed=0)
        with pytest.raises(ParameterError):
            cl.fit_contraction_rate(prob, u0, [100.0, 50.0, 200.0, 300.0], 0.1, 5, seed=0)
        with pytest.raises(ParameterError):
            cl.fit_contraction_rate(prob, u0, [1e2, 1e3, 1e4, 1e5], 0.7, 5, seed=0)

    @pytest.mark.parametrize("grid", [[1e2, 1e3, 1e4, math.inf], [math.nan, 1e2, 1e3, 1e4],
                                      [1e2, 1e3, math.nan, 1e4]])
    def test_non_finite_n_rejected(self, grid):
        """Rejected up front, not by an SVD that does not converge."""
        prob = _small_problem(8)
        with pytest.raises(ParameterError, match="n_grid entries must be positive and finite"):
            cl.fit_contraction_rate(prob, cl.power_law_truth(2.0, 8), grid, 0.1, 5, seed=0)

    @pytest.mark.parametrize("first", [0.0, -1.0])
    def test_nonpositive_n_rejected(self, first):
        prob = _small_problem(8)
        u0 = cl.power_law_truth(2.0, 8)
        with pytest.raises(ParameterError, match="n_grid entries must be positive"):
            cl.fit_contraction_rate(prob, u0, [first, 1e2, 1e3, 1e4], 0.1, 5, seed=0)

    def test_smoke_fit_negative_slope_and_shrinking_radii(self):
        """Cheap pipeline run: radii shrink with n (one grid-point violation
        tolerated at Monte Carlo noise) and the slope is negative."""
        prob = _small_problem(24)
        u0 = cl.power_law_truth(2.0, 24)
        fit = cl.fit_contraction_rate(prob, u0, [1e2, 1e3, 1e4, 1e5], 0.1,
                                      y_replicates=12, seed=21)
        assert len(fit.xi_hat) == 4 and not fit.failures
        violations = sum(1 for a, b in zip(fit.xi_hat, fit.xi_hat[1:]) if b > a)
        assert violations <= 1
        assert -0.45 < fit.slope < -0.05
        assert fit.slope_ci[0] < fit.slope < fit.slope_ci[1]
        assert not fit.exploratory

    def test_exact_radius_inside_monte_carlo_quantile_ci(self):
        """Each replicate's exact 90% posterior radius lies inside the
        distribution-free 99% confidence interval of the 90% quantile of
        2e5 posterior draws given the same data."""
        n_dim, draws, p = 24, 200_000, 0.9
        prob = _small_problem(n_dim)
        u0 = cl.power_law_truth(2.0, n_dim)
        half = 2.576 * math.sqrt(draws * p * (1 - p))
        lo_idx, hi_idx = math.floor(draws * p - half) - 1, math.ceil(draws * p + half) - 1
        for i, n in enumerate([1e2, 1e4, 1e6]):
            factor = cl.factor_posterior(prob, n)
            for rep in range(3):
                y = rates._replicate_distances(prob, forward_apply(prob, u0), n,
                                               substream(5, "rate-fit", i, rep))
                radius = rates._posterior_radii(
                    *cl.posterior_spectrum(prob, n, y[:, None], u0), 1 - p)[0]
                rng = substream(5, "rate-fit", i, rep)
                assert np.array_equal(y, forward_apply(prob, u0)
                                      + prob.noise_color(rng.standard_normal(n_dim))
                                      / math.sqrt(n))
                post = factor.condition(y)
                dist = np.sort(np.concatenate([
                    post.distances(u0, rng.standard_normal((n_dim, draws // 4)))
                    for _ in range(4)]))
                assert dist[lo_idx] <= radius <= dist[hi_idx], (n, rep)

    @staticmethod
    def _count_fit(monkeypatch, prob, grid, replicates):
        """Run a rate fit and record its data draws (n per replicate), mean
        solves, tridiagonal reductions and reflector applications (shapes)."""
        draws, solves, reductions, reflections = [], [], [], []
        draw, solve = rates._replicate_distances, posterior_module.cho_solve
        reduce, reflect = quadform.dsytrd, quadform.dormqr

        def counting_draw(*args):
            draws.append(args[2])
            return draw(*args)

        def counting_solve(factor, b, *args, **kwargs):
            solves.append(np.shape(b))
            return solve(factor, b, *args, **kwargs)

        def counting_reduce(a, *args, **kwargs):
            reductions.append(np.shape(a))
            return reduce(a, *args, **kwargs)

        def counting_reflect(side, trans, a, tau, c, *args, **kwargs):
            reflections.append(np.shape(c))
            return reflect(side, trans, a, tau, c, *args, **kwargs)

        monkeypatch.setattr(rates, "_replicate_distances", counting_draw)
        monkeypatch.setattr(posterior_module, "cho_solve", counting_solve)
        monkeypatch.setattr(quadform, "dsytrd", counting_reduce)
        monkeypatch.setattr(quadform, "dormqr", counting_reflect)
        cl.fit_contraction_rate(prob, cl.power_law_truth(2.0, prob.n_dim), grid, 0.1,
                                y_replicates=replicates, seed=2)
        return draws, solves, reductions, reflections

    def test_one_mean_solve_per_n_and_one_draw_per_replicate(self, monkeypatch):
        """Each replicate draws its data through the module's
        ``_replicate_distances`` binding, once per replicate; the posterior
        means of all replicates at one n come from one ``cho_solve`` on an
        (N, R) block, and no solve forms the covariance against an identity.
        On a dense coupling, each n reduces its covariance to tridiagonal
        form once, and the reflectors only ever meet the trailing (N - 1, R)
        rows of the replicates' mean block, never an N x N identity."""
        grid = [1e2, 1e3, 1e4, 1e5]
        draws, solves, reductions, reflections = self._count_fit(
            monkeypatch, _small_problem(8, cl.ReflectionCoupling(np.arange(1.0, 9.0))), grid, 5)
        assert draws == [n for n in grid for _ in range(5)]
        assert solves == [(8, 5)] * 4
        assert reductions == [(8, 8)] * 4
        assert reflections and set(reflections) == {(7, 5)}

    def test_one_reduction_per_block_per_n(self, monkeypatch):
        """The block twin of the count above: on a banded coupling, each n
        reduces each diagonal block of b > 1 rows once, in the partition's
        order, and its reflectors meet its trailing (b - 1, R) rows; a
        one-row block is its own spectrum and reduces nothing.
        The draws are unchanged, and the mean solve also goes block by block:
        one ``cho_solve`` of a (b, R) right-hand side per block of b > 1 rows
        per n; runs of one-row blocks are solved elementwise."""
        prob = _small_problem(24, cl.BandedCoupling())
        sizes = np.diff(zero_pattern_blocks(prob.whitened_gram.dense()))
        assert sizes.size > 1 and sizes.max() > 1
        grid = [1e2, 1e3, 1e4, 1e5]
        draws, solves, reductions, reflections = self._count_fit(monkeypatch, prob, grid, 3)
        assert draws == [n for n in grid for _ in range(3)]
        assert 1 in sizes
        assert solves == [(b, 3) for b in sizes if b > 1] * 4
        assert reductions == [(b, b) for b in sizes if b > 1] * 4
        assert set(reflections) == {(b - 1, 3) for b in sizes if b > 1}

    def test_quantile_solve_work_per_replicate(self, monkeypatch):
        """The default-config fit (banded N = 512, five n, 50 replicates)
        evaluates the Lugannani-Rice tail at most 6 times per replicate per
        n: the two-moment start, the other end of its bracket and the Newton
        steps. The search from scratch took about 9.2."""
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                         "coupling": {"kind": "banded"}}}))
        run, rows = config.run, []
        evaluate = quadform._lugannani_rice

        def counting(s, lam, c2, idx):
            rows.append(len(idx))
            return evaluate(s, lam, c2, idx)

        monkeypatch.setattr(quadform, "_lugannani_rice", counting)
        cl.fit_contraction_rate(build_problem(config), build_truth(config),
                                run["n_grid"], run["delta_level"], run["y_replicates"], seed=3)
        assert sum(rows) <= 6 * len(run["n_grid"]) * run["y_replicates"]

    @pytest.mark.parametrize("delta", [1.0, 5.0])
    @pytest.mark.parametrize("n_level", [1e2, 1e6])
    def test_radii_match_eigenvector_route(self, delta, n_level):
        """Radii from the projected kernel equal those from a full
        eigendecomposition with eigenvectors to 1e-13 relative on the banded
        N = 512 config."""
        config = cl.parse_config(json.dumps({"problem": {
            "n_dim": 512, "coupling": {"kind": "banded"}, "prior": {"delta": delta}}}))
        prob = build_problem(config)
        u0 = cl.power_law_truth(2.0, 512)
        factor = cl.factor_posterior(prob, n_level)
        g_u0 = forward_apply(prob, u0)
        ys = np.column_stack([rates._replicate_distances(prob, g_u0, n_level,
                                                         substream(3, "rate-fit", 0, rep))
                              for rep in range(4)])
        radii = rates._posterior_radii(*cl.posterior_spectrum(prob, n_level, ys, u0), 0.1)
        inv = factor._cov_factor.dense().T
        lam, vecs = scipy.linalg.eigh(inv.T @ inv)
        c = (factor.mean(ys) - u0[:, None]).T @ vecs
        ref = np.sqrt(quadform.quantiles(0.1, np.maximum(lam, 0.0), c * c))
        assert np.all(np.abs(radii - ref) <= 1e-13 * ref)

    def test_severe_spectrum_marked_exploratory(self):
        n = 12
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.SevereFamily(0.0, 0.0, 0.1, -1.0), n),
            cl.make_coupling(cl.IdentityCoupling(), n),
            cl.power_law_prior(1.0, n), cl.white_noise(n), n)
        fit = cl.fit_contraction_rate(prob, cl.power_law_truth(2.0, n),
                                      [1e2, 1e3, 1e4, 1e5], 0.1, 4, seed=3)
        assert fit.exploratory


def _small_problem(n_dim, coupling=cl.IdentityCoupling()):
    return cl.InverseProblem(
        cl.make_spectrum(cl.MildFamily(1.0), n_dim),
        cl.make_coupling(coupling, n_dim),
        cl.power_law_prior(1.0, n_dim),
        cl.white_noise(n_dim), n_dim)


def stats_exceedance_exact_1d(exp, y, u0, n_level, xi):
    """``finite_dim_exceedance`` at p = 1 written with ``scipy.stats``, as
    the package computed it before it took its normal functions from
    ``scipy.special``."""
    u_proj = float(np.linalg.lstsq(exp.g_matrix, np.atleast_1d(y), rcond=None)[0][0])
    mw = exp.g_matrix[:, 0]
    like_prec = n_level * float(mw @ mw)
    means, sds = exp.prior.means[:, 0], exp.prior.sds[:, 0]
    post_var = 1.0 / (1.0 / sds**2 + like_prec)
    post_mean = post_var * (means / sds**2 + like_prec * u_proj)
    log_w = np.log(exp.prior.weights) + norm.logpdf(u_proj, loc=means,
                                                    scale=np.sqrt(sds**2 + 1.0 / like_prec))
    log_w -= log_w.max()
    w = np.exp(log_w)
    w = w / w.sum()
    post_sd = np.sqrt(post_var)
    return float(np.sum(w * (norm.sf((u0 + xi - post_mean) / post_sd)
                             + norm.cdf((u0 - xi - post_mean) / post_sd))))


class TestSpecialFunctionsBitIdentical:
    """``rates`` takes its normal and Student-t functions from
    ``scipy.special``; they reproduce ``scipy.stats`` to the bit, so the
    findim table and the slope interval keep their bytes."""

    def test_student_t_quantile(self):
        for dof in range(1, 31):
            assert stdtrit(dof, 0.975) == student_t.ppf(0.975, dof), dof

    @pytest.mark.parametrize("q", [1, 2])
    def test_exact_mixture_exceedance(self, q):
        rng = np.random.default_rng(q)
        prior = cl.GaussianMixturePrior(np.array([0.5, 0.3, 0.2]),
                                        np.array([[-1.0], [0.5], [2.0]]),
                                        np.array([[1.0], [0.3], [1.5]]))
        for p_prior in (cl.two_component_mixture(1), prior):
            exp = cl.FiniteDimExperiment(p=1, q=q, g_matrix=rng.uniform(0.5, 2.0, (q, 1)),
                                         prior=p_prior, m_const=3.0)
            for n in (3.0, 100.0, 1e4, 1e6):
                for _ in range(5):
                    y = rng.standard_normal(q)
                    u0 = float(rng.uniform(-2.0, 2.0))
                    xi = float(rng.uniform(0.0, 1.0)) * math.sqrt(math.log(n) / n) * 3.0
                    got = cl.finite_dim_exceedance(exp, y, np.array([u0]), n, xi)
                    assert got == stats_exceedance_exact_1d(exp, y, u0, n, xi)


@pytest.mark.parametrize("build", [
    lambda: cl.RateConstants(c=math.nan),
    lambda: cl.RateConstants(r=math.nan),
    lambda: cl.GaussianMixturePrior(np.array([math.nan, 1.0]), np.zeros((2, 1)), np.ones((2, 1))),
    lambda: cl.GaussianMixturePrior(np.array([0.5, 0.5]), np.array([[math.nan], [1.0]]),
                                    np.ones((2, 1))),
    lambda: cl.GaussianMixturePrior(np.array([0.5, 0.5]), np.zeros((2, 1)),
                                    np.array([[1.0], [math.nan]])),
    lambda: cl.FiniteDimExperiment(p=1, q=1, g_matrix=np.array([[1.0]]),
                                   prior=cl.two_component_mixture(1), m_const=math.nan),
    lambda: cl.FiniteDimExperiment(p=1, q=1, g_matrix=np.array([[math.inf]]),
                                   prior=cl.two_component_mixture(1), m_const=3.0),
    lambda: cl.power_law_truth(math.nan, 4),
], ids=["constant-c", "constant-r", "mixture-weight", "mixture-mean", "mixture-sd",
        "findim-m-const", "findim-g-inf", "truth-gamma"])
def test_constructors_refuse_nan(build):
    """A NaN passes every ``v <= 0`` check, so the constructors test
    ``not v > 0`` (and finiteness where a value has no upper limit to
    compare with): ``ParameterError``, not a model of NaN."""
    with pytest.raises(ParameterError):
        build()


class TestFiniteDimExperiment:
    def _scalar_exp(self, m_const=3.0):
        prior = cl.GaussianMixturePrior(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1)))
        return cl.FiniteDimExperiment(p=1, q=1, g_matrix=np.array([[1.0]]),
                                      prior=prior, m_const=m_const)

    def test_validation(self):
        prior = cl.two_component_mixture(2)
        with pytest.raises(ParameterError):
            cl.FiniteDimExperiment(p=2, q=1, g_matrix=np.ones((1, 2)), prior=prior, m_const=3.0)
        with pytest.raises(ParameterError):
            cl.FiniteDimExperiment(p=2, q=3, g_matrix=np.zeros((3, 2)), prior=prior, m_const=3.0)
        with pytest.raises(ParameterError):
            cl.GaussianMixturePrior(np.array([0.5, 0.6]), np.zeros((2, 1)), np.ones((2, 1)))

    def test_scalar_conjugate_oracle_cross_check(self):
        """Standard normal prior, G = 1, n = 100: the importance-sampled
        exceedance at 3 posterior sds matches the exact N(100 y/101, 1/101)
        tail within 4 standard errors."""
        exp = self._scalar_exp()
        n, xi = 100.0, 3.0 / math.sqrt(101.0)
        y = cl.simulate_finite_dim(exp, np.zeros(1), n, seed=13)
        est = finite_dim_exceedance_given_y(exp, y, np.zeros(1), n, xi, mc=40_000, seed=14)
        mean = n * y[0] / (n + 1.0)
        sd = 1.0 / math.sqrt(n + 1.0)
        target = norm.sf((xi - mean) / sd) + norm.cdf((-xi - mean) / sd)
        assert abs(est.value - target) <= 4 * max(est.std_error, 1e-4)

    def test_exact_mixture_route_matches_snis(self):
        """The closed-form mixture posterior agrees with the sampler."""
        exp = cl.FiniteDimExperiment(p=1, q=2, g_matrix=np.array([[1.0], [0.5]]),
                                     prior=cl.two_component_mixture(1), m_const=3.0)
        y = np.array([0.4, 0.1])
        n, xi = 50.0, 0.4
        exact = cl.finite_dim_exceedance(exp, y, np.zeros(1), n, xi)
        est = finite_dim_exceedance_given_y(exp, y, np.zeros(1), n, xi, mc=60_000, seed=15)
        assert abs(est.value - exact) <= 4 * max(est.std_error, 1e-4)

    def test_zero_radius_full_mass(self):
        exp = self._scalar_exp()
        y = cl.simulate_finite_dim(exp, np.zeros(1), 50.0, seed=3)
        est = finite_dim_exceedance_given_y(exp, y, np.zeros(1), 50.0, 0.0, mc=2000, seed=3)
        assert est.value == 1.0

    def test_data_enter_only_through_range_projection(self):
        """Shifting y by a vector orthogonal to the model range (structured
        so the inner products stay exact) leaves the estimate bit-identical."""
        exp = cl.FiniteDimExperiment(p=1, q=2, g_matrix=np.array([[1.0], [0.0]]),
                                     prior=cl.two_component_mixture(1), m_const=3.0)
        y = np.array([0.7, 0.3])
        shifted = y + np.array([0.0, 5.0])
        a = finite_dim_exceedance_given_y(exp, y, np.zeros(1), 30.0, 0.5, mc=4000, seed=9)
        b = finite_dim_exceedance_given_y(exp, shifted, np.zeros(1), 30.0, 0.5, mc=4000, seed=9)
        assert a.value == b.value
        projected = np.array([y[0], 0.0])
        c = finite_dim_exceedance_given_y(exp, projected, np.zeros(1), 30.0, 0.5, mc=4000, seed=9)
        assert a.value == c.value

    def test_rate_run_decreasing_with_finite_ratios(self):
        exp = cl.FiniteDimExperiment(p=1, q=1, g_matrix=np.array([[1.0]]),
                                     prior=cl.two_component_mixture(1), m_const=3.0)
        table = cl.finite_dim_rate_run(exp, np.zeros(1), [100.0, 1000.0, 10_000.0],
                                       y_replicates=10, seed=6)
        assert (table.method, table.tail) == ("exact-mixture", "normal-cdf")
        assert all(a >= b for a, b in zip(table.mean_exceedance, table.mean_exceedance[1:]))
        for ratio_list in table.ratios.values():
            assert all(math.isfinite(r) for r in ratio_list)

    def test_huge_m_const_exhausts_space(self):
        exp = self._scalar_exp(m_const=200.0)
        y = cl.simulate_finite_dim(exp, np.zeros(1), 30.0, seed=4)
        est = finite_dim_exceedance_given_y(exp, y, np.zeros(1), 30.0,
                                               200.0 * math.sqrt(math.log(30.0) / 30.0),
                                               mc=2000, seed=4)
        assert est.value < 1e-12

    def test_grid_validation(self):
        exp = self._scalar_exp()
        with pytest.raises(ParameterError):
            cl.finite_dim_rate_run(exp, np.zeros(1), [2.0, 10.0], y_replicates=3, seed=1)

    @pytest.mark.parametrize("grid", [[100.0, math.inf], [100.0, math.nan, 1000.0],
                                      [math.nan, 100.0]])
    def test_non_finite_grid_entry_rejected(self, grid):
        """A NaN or infinite grid entry is refused up front, naming the grid,
        not carried into ``log(n) / n`` or reported against ``n_level``."""
        with pytest.raises(ParameterError, match="^n_grid"):
            cl.finite_dim_rate_run(self._scalar_exp(), np.zeros(1), grid, y_replicates=3, seed=1)


class TestMixturePosteriorAboveOneDimension:
    """The exact mixture posterior at p >= 2, whose component tails are
    Lugannani-Rice values of a p-term quadratic form."""

    @pytest.mark.parametrize("n", [3.0, 100.0, 1e4, 1e6])
    def test_gaussian_prior_matches_noncentral_chi_square(self, n):
        """A one-component N(0, I) prior with G = I has the posterior
        N(n y / (n + 1), I / (n + 1)), so ``(n + 1) ||u||^2`` is noncentral
        chi-square with two degrees of freedom; the tail agrees within 5%
        relative down to 1e-22."""
        prior = cl.GaussianMixturePrior(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
        exp = cl.FiniteDimExperiment(p=2, q=2, g_matrix=np.eye(2), prior=prior, m_const=3.0)
        rng = np.random.default_rng(int(n))
        ys = rng.standard_normal((6, 2)) / math.sqrt(n)
        mean = n * ys / (n + 1.0)
        for level in (0.5, 1e-3, 1e-8, 1e-15, 1e-22):
            xi = np.array([math.sqrt(ncx2.isf(level, 2, (n + 1.0) * (m @ m)) / (n + 1.0))
                           for m in mean])
            got = cl.finite_dim_exceedance(exp, ys, np.zeros(2), n, xi)
            want = ncx2.sf((n + 1.0) * xi**2, 2, (n + 1.0) * np.sum(mean**2, axis=1))
            assert np.all(np.abs(got / want - 1.0) < 0.05), (level, got, want)

    @pytest.mark.parametrize("n", [3.0, 30.0, 1e3])
    def test_coupled_components_match_imhof(self, n):
        """With the coupled ``g = [[1, 0], [0, 1], [1, 1]]``, each component
        of the default mixture, taken as a prior of its own, has the
        posterior ``N(C (mu / s^2 + n G^T y), C)``, ``C = (diag(1 / s^2) +
        n G^T G)^-1``; its tail agrees with Imhof's integral within 10%
        relative wherever that tail is at least 1e-10. The covariance's
        eigenvalues differ threefold, so the form is nearly one-term, and
        the Lugannani-Rice error reaches 8.8% here (4.7% on the
        equal-weight forms above)."""
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mixture = cl.two_component_mixture(2)
        rng = np.random.default_rng(int(n) + 1)
        u0 = np.array([0.3, -0.2])
        checked = 0
        for mu, s in zip(mixture.means, mixture.sds):
            exp = cl.FiniteDimExperiment(
                p=2, q=3, g_matrix=g, m_const=3.0,
                prior=cl.GaussianMixturePrior(np.array([1.0]), mu[None, :], s[None, :]))
            for _ in range(3):
                y = g @ u0 + rng.standard_normal(3) / math.sqrt(n)
                cov = np.linalg.inv(np.diag(1.0 / s**2) + n * g.T @ g)
                lam, vecs = np.linalg.eigh(cov)
                c = vecs.T @ (cov @ (mu / s**2 + n * g.T @ y) - u0)
                for xi in np.sqrt(lam.sum()) * np.array([0.5, 1.0, 2.0, 4.0, 6.0]):
                    want = imhof_tail(xi * xi, lam, c * c)
                    if want < 1e-10:
                        continue
                    got = cl.finite_dim_exceedance(exp, y, u0, n, xi)
                    assert abs(got / want - 1.0) < 0.10, (xi, got, want)
                    checked += 1
        assert checked >= 18

    def test_mixture_matches_snis(self):
        """At n = 1, where 60 000 prior draws leave an effective sample size
        above 100 (10 800), the two-component mixture posterior on the
        coupled ``g`` agrees with the importance-sampling oracle within 4
        standard errors. The datum lies between the components, where
        dropping the evidence's log-determinant or its off-diagonal moves
        the value by 4 to 7 standard errors."""
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        exp = cl.FiniteDimExperiment(p=2, q=3, g_matrix=g, prior=cl.two_component_mixture(2),
                                     m_const=3.0)
        y = np.array([1.0, 0.8, 1.5])
        n, u0 = 1.0, np.array([0.2, -0.1])
        for xi in (0.2, 0.4, 0.8):
            est = finite_dim_exceedance_given_y(exp, y, u0, n, xi, mc=60_000, seed=16)
            assert est.ess >= 100
            exact = cl.finite_dim_exceedance(exp, y, u0, n, xi)
            assert abs(est.value - exact) <= 4 * est.std_error, (xi, exact, est)

    @pytest.mark.parametrize("n", [0.5, 3.0, 40.0])
    def test_weights_are_the_data_space_evidence(self, n):
        """The mixture value is ``sum_j pi_j P_j``, with ``P_j`` the value
        under component j alone and ``pi_j`` proportional to
        ``w_j N(y; G mu_j, G diag(s_j^2) G^T + I / n)``, the evidence written
        in data space rather than through the range projection."""
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mixture = cl.GaussianMixturePrior(np.array([0.5, 0.3, 0.2]),
                                          np.array([[-1.0, 0.5], [1.0, 1.0], [0.0, -2.0]]),
                                          np.array([[1.0, 0.5], [1.5, 1.5], [0.3, 2.0]]))
        exp = cl.FiniteDimExperiment(p=2, q=3, g_matrix=g, prior=mixture, m_const=3.0)
        rng = np.random.default_rng(int(10 * n))
        u0 = np.array([0.2, -0.1])
        for _ in range(4):
            y, xi = rng.standard_normal(3), float(rng.uniform(0.2, 1.5))
            alone = [cl.finite_dim_exceedance(
                cl.FiniteDimExperiment(p=2, q=3, g_matrix=g, m_const=3.0,
                                       prior=cl.GaussianMixturePrior(np.array([1.0]), mu[None],
                                                                     s[None])), y, u0, n, xi)
                for mu, s in zip(mixture.means, mixture.sds)]
            evidence = mixture.weights * np.array([
                multivariate_normal.pdf(y, g @ mu, g @ np.diag(s**2) @ g.T + np.eye(3) / n)
                for mu, s in zip(mixture.means, mixture.sds)])
            want = float(evidence @ alone / evidence.sum())
            assert cl.finite_dim_exceedance(exp, y, u0, n, xi) == pytest.approx(want, rel=1e-9)

    def test_block_rows_match_one_datum_at_a_time(self):
        """A block of data and per-row radii gives each row's value to the
        bit, and the data enter only through their projection onto the
        model range."""
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        exp = cl.FiniteDimExperiment(p=2, q=3, g_matrix=g, prior=cl.two_component_mixture(2),
                                     m_const=3.0)
        rng = np.random.default_rng(5)
        ys, xis, u0 = rng.standard_normal((4, 3)) * 0.3, np.array([0.1, 0.2, 0.3, 0.05]), \
            np.array([0.1, 0.0])
        block = cl.finite_dim_exceedance(exp, ys, u0, 50.0, xis)
        assert block.tolist() == [cl.finite_dim_exceedance(exp, y, u0, 50.0, xi)
                                  for y, xi in zip(ys, xis)]
        normal = np.array([1.0, 1.0, -1.0])  # orthogonal to the range of g
        moved = cl.finite_dim_exceedance(exp, ys + normal, u0, 50.0, xis)
        np.testing.assert_allclose(moved, block, rtol=1e-12)

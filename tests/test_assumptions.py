"""The g quantities, small-ball masses, projection tails, eigenvalue
sandwiches, Hilbert-Schmidt diagnostics and plug-in concentration."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import contraction_lab as cl
from contraction_lab import quadform
from contraction_lab.assumptions import _plug_in_columns as package_columns
from contraction_lab.assumptions import _residual_operator
from contraction_lab.config import build_problem, build_truth
from contraction_lab.errors import ParameterError

from block_reference import per_block_residual_norms
from oracles import imhof_tail, projection_tail_grid


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
    t_cols = problem.coupling.t.dense()[:, :k]

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

    def test_no_e_cutoff_is_r_none(self):
        """``r = None`` (no e-cutoff) gives the same bits as ``r = n_dim``."""
        prob = banded_problem(8, seed=3)
        for k in (1, 3, 8):
            assert cl.compute_g_kr(prob, k, None) == cl.compute_g_kr(prob, k, 8)

    @pytest.mark.parametrize("doc", [
        {"n_dim": 64, "coupling": {"kind": "banded"}},
        {"n_dim": 32, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
         "noise": {"kind": "colored", "r": 0.5}}], ids=["banded", "colored"])
    @pytest.mark.parametrize("cutoff", [None, 0.5])
    def test_grid_of_k_matches_scalar_calls_bitwise(self, doc, cutoff):
        """A sequence of k gives each scalar call's g to the bit, in the
        order asked, from one set of plug-in columns built at the largest k;
        every k in it is validated."""
        prob = build_problem(cl.parse_config(json.dumps({"problem": doc})))
        r = None if cutoff is None else int(cutoff * prob.n_dim)
        ks = [3, *range(1, prob.n_dim + 1), 7]
        assert cl.compute_g_kr(prob, ks, r) == [cl.compute_g_kr(prob, k, r) for k in ks]
        assert cl.compute_g_kr(prob, [5], r) == [cl.compute_g_kr(prob, 5, r)]
        with pytest.raises(ParameterError):
            cl.compute_g_kr(prob, [2, 0, 4], r)
        with pytest.raises(ParameterError):
            cl.compute_g_kr(prob, [2, prob.n_dim + 1], r)

    def test_bounds_validated(self):
        prob = identity_problem(4)
        with pytest.raises(ParameterError):
            cl.compute_g_kr(prob, 0, 2)
        with pytest.raises(ParameterError):
            cl.compute_g_kr(prob, 2, 5)


def mc_small_ball(problem, u0, eps, draws, seed):
    """Monte Carlo oracle: the fraction of prior draws whose whitened forward
    image lies within eps of that of u0, with its hit count."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((draws, problem.n_dim)) * np.sqrt(problem.prior.variances)
    dist = np.linalg.norm((z - u0) @ problem.whitened_forward.T, axis=1)
    hits = int(np.count_nonzero(dist <= eps))
    return hits / draws, hits


class TestSmallBall:
    def test_scalar_gaussian_oracle(self):
        """Unit everything: mass of |z| <= 1 is 2 Phi(1) - 1 ~ 0.6827. One
        term makes the product bound exact."""
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(0.0), 1),
            cl.make_coupling(cl.IdentityCoupling(), 1),
            cl.explicit_prior([1.0], 1), cl.white_noise(1), 1)
        rep = cl.small_ball_log_prob(prob, np.zeros(1), 1.0)
        target = math.log(2 * norm.cdf(1.0) - 1)
        assert rep.bounds[0] == pytest.approx(target, rel=1e-14)
        assert rep.bounds[0] <= target <= rep.bounds[1]
        assert abs(rep.log_prob - target) <= 0.01

    def test_chebyshev_large_radius(self):
        """Radius at ten standard deviations captures at least 99% mass, and
        so does the rigorous lower bound."""
        prob = banded_problem(12, seed=4)
        u0 = cl.power_law_truth(2.0, 12)
        m = prob.whitened_forward
        second_moment = float(np.sum(prob.prior.variances * np.sum(m**2, axis=0))
                              + np.linalg.norm(prob.noise_whiten(cl.forward_apply(prob, u0))) ** 2)
        eps = 10.0 * math.sqrt(second_moment)
        rep = cl.small_ball_log_prob(prob, u0, eps)
        assert rep.bounds[0] >= math.log(0.99)
        assert rep.log_prob >= math.log(0.99)

    def test_zero_center_costs_nothing(self):
        prob = banded_problem(8, seed=1)
        rep = cl.small_ball_log_prob(prob, np.zeros(8), 0.5)
        assert rep.shift_cost == 0.0
        assert rep.truncation_index == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_shifted_lower_bound_every_run(self, seed):
        """log mass at (u0, eps) >= centered log mass at eps/2 minus the
        certificate cost: the upper bound of the one never falls below the
        lower bound of the other."""
        rng = np.random.default_rng(seed)
        prob = banded_problem(10, seed=seed)
        u0 = 0.3 * rng.standard_normal(10) * np.sqrt(prob.prior.variances)
        scale = math.sqrt(float(np.sum(prob.prior.variances *
                                       np.sum(prob.whitened_forward**2, axis=0))))
        rep = cl.small_ball_log_prob(prob, u0, 0.8 * scale)
        assert rep.bounds[1] >= rep.centered_bounds[0] - rep.shift_cost

    def test_tiny_radius_keeps_finite_bounds(self):
        """A ball no sampler would ever hit still has a finite sandwich: the
        lower bound is informative, so the report is not upper-bound-only."""
        prob = identity_problem(6)
        rep = cl.small_ball_log_prob(prob, np.zeros(6), 1e-12)
        assert not rep.upper_bound_only
        assert -200.0 < rep.bounds[0] <= rep.log_prob <= rep.bounds[1] < 0.0
        assert rep.ci_halfwidth == 0.5 * (rep.bounds[1] - rep.bounds[0])

    def test_upper_bound_only_means_no_lower_bound(self):
        rep = cl.SmallBallReport(log_prob=-math.inf, bounds=(-math.inf, -math.inf),
                                 centered_log_prob=-1.0, centered_bounds=(-2.0, -0.5),
                                 shift_cost=0.0, eps=1.0, truncation_index=0)
        assert rep.upper_bound_only
        assert rep.ci_halfwidth == 0.0
        with pytest.raises(ParameterError):
            cl.SmallBallReport(log_prob=-1.0, bounds=(-0.5, -2.0), centered_log_prob=-1.0,
                               centered_bounds=(-2.0, -0.5), shift_cost=0.0, eps=1.0,
                               truncation_index=0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ParameterError):
            cl.small_ball_log_prob(identity_problem(3), np.zeros(3), 0.0)

    def test_shared_form_gives_the_same_report(self):
        prob = banded_problem(16, seed=2)
        u0 = cl.power_law_truth(2.0, 16)
        form = cl.small_ball_form(prob, u0)
        for eps in (0.05, 0.2):
            assert cl.small_ball_log_prob(prob, u0, eps, form) == \
                cl.small_ball_log_prob(prob, u0, eps)

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_enclose_monte_carlo(self, seed):
        """Wherever 2e5 prior draws give at least 100 hits, the Monte Carlo
        log mass lies between the product and Chernoff bounds, widened by
        four binomial standard errors; the Lugannani-Rice value sits within
        0.1 of it."""
        draws = 200_000
        rng = np.random.default_rng(seed)
        prob = banded_problem(24, seed=seed)
        u0 = 0.5 * rng.standard_normal(24) * np.sqrt(prob.prior.variances)
        form = cl.small_ball_form(prob, u0)
        scale = math.sqrt(float(form.lam.sum()))
        checked = 0
        for factor in (0.3, 0.5, 0.8, 1.2):
            rep = cl.small_ball_log_prob(prob, u0, factor * scale, form)
            frac, hits = mc_small_ball(prob, u0, factor * scale, draws, seed + 10)
            if hits < 100:
                continue
            slack = 4.0 / math.sqrt(hits)
            assert rep.bounds[0] <= math.log(frac) + slack
            assert math.log(frac) - slack <= rep.bounds[1]
            assert abs(rep.log_prob - math.log(frac)) <= 0.1
            checked += 1
        assert checked >= 2


class TestProjectionTail:
    def test_full_projection_exactly_zero(self):
        prob = banded_problem(8, seed=2)
        assert cl.projection_log_tail_bound(prob, 8, None, 0.5) == -math.inf
        assert cl.projection_log_tail_bound(prob, 8, 8, 0.5) == -math.inf
        assert projection_tail_grid(prob, 8, None, [0.5]) == [0.0]
        assert projection_tail_grid(prob, 8, 8, [0.5]) == [0.0]

    def test_scalar_residual_gaussian_oracle(self):
        """Identity coupling, k=1 of 2 modes with unit second variance:
        the residual is |z|, so the tail at 1 is 2(1 - Phi(1))."""
        prob = cl.InverseProblem(
            cl.make_spectrum(cl.MildFamily(0.0), 2),
            cl.make_coupling(cl.IdentityCoupling(), 2),
            cl.explicit_prior([1.0, 1.0], 2), cl.white_noise(2), 2)
        est = projection_tail_grid(prob, 1, None, [1.0], mc=40_000, seed=3)[0]
        assert abs(est - 2 * norm.sf(1.0)) < 0.01

    def test_monotone_grid_shared_batch(self):
        prob = banded_problem(10, seed=3)
        grid = np.linspace(0.05, 3.0, 15)
        probs = projection_tail_grid(prob, 3, 6, grid, mc=2000, seed=4)
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
            projection_tail_grid(prob, k, r, [threshold])

    @pytest.mark.parametrize("threshold", [0.3, 0.8, 1.5])
    def test_chernoff_dominates_monte_carlo(self, threshold):
        prob = banded_problem(10, seed=5)
        mc = projection_tail_grid(prob, 3, 6, [threshold], mc=20_000, seed=5)[0]
        bound = math.exp(cl.projection_log_tail_bound(prob, 3, 6, threshold))
        assert mc <= bound + 0.02
        assert bound <= 1.0

    @pytest.mark.parametrize("k", [1, 16, 100, 511])
    @pytest.mark.parametrize("r", [None, 512])
    def test_closed_form_tail_spectrum_matches_eigensolve(self, monkeypatch, k, r):
        """Without an e-cutoff the miss's covariance eigenvalues are the prior
        variances from k on: the eigensolve of its covariance gives them to
        N eps of the largest, plus k rounding-level zeros, and both spectra
        give the same bound to 1e-12 relative. The closed form calls no
        eigensolver."""
        prob = banded_problem(512, seed=7)
        a = _residual_operator(prob, k, r)
        eig = np.linalg.eigvalsh(a.T @ a)
        closed = np.sort(prob.prior.variances[k:])
        tol = 512 * np.finfo(float).eps * closed.max()
        assert np.all(np.abs(eig[k:] - closed) <= tol)
        assert np.all(np.abs(eig[:k]) <= tol)
        threshold = 2.0 * math.sqrt(closed.sum())
        eig = eig[eig > 0]
        reference = float(quadform.tails(threshold**2, eig,
                                         np.zeros((1, eig.size))).log_sf_bound[0])

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve for a closed-form spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        got = cl.projection_log_tail_bound(prob, k, r, threshold)
        assert got == pytest.approx(reference, rel=1e-12)

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

    @pytest.mark.parametrize("threshold", [1e-60, 1e-95])
    def test_tiny_threshold_is_the_trivial_bound(self, threshold):
        """Below the mean the upper-tail bound is 0.0, also where the
        saddlepoint of the level lies below the last lower end the bracket
        search tries (threshold 1e-95)."""
        assert cl.projection_log_tail_bound(identity_problem(8), 7, None, threshold) == 0.0


class TestMinmax:
    def test_equal_operators_unit_ratios(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        spd = quadform.BlockDiagonal.from_dense(a @ a.T + 5 * np.eye(5))
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
        one = quadform.BlockDiagonal.from_dense
        with pytest.raises(ParameterError):
            cl.minmax_compare(one(np.eye(3)), one(np.eye(4)), 2)
        with pytest.raises(ParameterError):
            cl.minmax_compare(one(np.diag([1.0, -1.0])), one(np.eye(2)), 2)
        with pytest.raises(ParameterError):
            cl.minmax_compare(np.eye(3), one(np.eye(3)), 2)


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

    @staticmethod
    def _gn_values_whole(prob, trunc):
        """The gn_bound norms from ``I - T rho^2 T^T / rho_i / rho_j`` formed
        as one N x N matrix, as the diagnostic did before it went block by
        block."""
        rho, t = prob.operator.rho, prob.coupling.t.dense()
        c2 = (t * rho[None, :] ** 2) @ t.T
        s = np.eye(prob.n_dim) - c2 / rho[:, None] / rho[None, :]
        return [float(np.linalg.norm(s[:m, :m])) for m in trunc]

    @pytest.mark.parametrize("kind", ["banded-0", "banded-5", "banded-9", "reflection",
                                      "identity"])
    def test_gn_bound_blocks_match_the_whole_matrix(self, kind):
        """Summed over the coupling blocks each truncation cuts, within
        1e-14 relative of the whole-matrix norms (the sums run in another
        order), with the same verdict; bit for bit on an identity coupling.
        The reflection's one block, rows 2 to 5 of 8, is cut by the first
        two truncations (2 and 4)."""
        if kind == "reflection":
            v = np.zeros(8)
            v[[2, 5]] = [0.6, 0.8]
            prob = self._reflection_problem(v, np.arange(1, 9) ** -2.0)
        elif kind == "identity":
            prob = identity_problem(256)
        else:
            prob = banded_problem(512, seed=int(kind[-1]))
        rep = cl.hs_diagnostic(prob, "gn_bound")
        whole = self._gn_values_whole(prob, rep.truncations)
        if kind == "identity":
            assert list(rep.values) == whole
        np.testing.assert_allclose(rep.values, whole, rtol=1e-14, atol=0)
        assert rep.verdict == cl.assumptions._growth_verdict(whole)

    def test_kind_mismatch_rejected(self):
        prob = identity_problem(8)
        with pytest.raises(ParameterError):
            cl.hs_diagnostic(prob, "reflection_pair")
        with pytest.raises(ParameterError):
            cl.hs_diagnostic(prob, "exp_pair")
        with pytest.raises(ParameterError):
            cl.hs_diagnostic(prob, "unknown")


# The banded, identity and colored defaults of the CLI (colored at N = 128).
DEFAULT_PROBLEMS = {
    "banded": {"n_dim": 512, "coupling": {"kind": "banded"}},
    "identity": {"n_dim": 512},
    "colored": {"n_dim": 128, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
                "noise": {"kind": "colored", "r": 0.5}},
}


def _plug_in_gram(prob, k, r):
    """The Gram ``cols^T cols`` of the package's plug-in columns, formed as
    ``compute_g_kr`` and ``concentration_check`` form it."""
    cols = package_columns(prob, k, r)
    return cols.T @ cols


def _plug_in_columns(prob, k, r):
    """``diag(1/rho) P_r T[:, :k]``, written out apart from the package."""
    cols = prob.coupling.t.dense()[:, :k].copy()
    cols[r:, :] = 0.0
    return cols / prob.operator.rho[:, None]


class TestPlugIn:
    def test_sigma0_definition(self):
        """sigma0^2 is the top eigenvalue of Sigma = Gram / n, which is
        g(k, r) / n to the bit: one Gram builder serves both."""
        prob = banded_problem(12, seed=6)
        rep = cl.concentration_check(prob, 3, 9, 40.0, [0.0])
        lam = np.linalg.eigvalsh(_plug_in_gram(prob, 3, 9)) / 40.0
        assert rep.sigma0_sq == lam[-1] == cl.compute_g_kr(prob, 3, 9) / 40.0

    def test_unbiased_for_double_projection(self):
        """Mean reconstruction over 1e4 noise draws matches the double
        projection of the truth within 5 SE per coordinate."""
        n_dim, k, r, n_level, m = 12, 4, 9, 25.0, 10_000
        prob = banded_problem(n_dim, seed=7)
        u0 = cl.power_law_truth(1.0, n_dim)
        t = prob.coupling.t.dense()
        u0_e = t @ u0
        proj = u0_e.copy()
        proj[r:] = 0.0
        target = (t[:, :k].T @ proj)

        rng = cl.substream(99, "unbiased")
        cols = _plug_in_columns(prob, k, r)
        y = (cl.forward_apply(prob, u0)[:, None]
             + prob.noise_color(rng.standard_normal((n_dim, m))) / math.sqrt(n_level))
        coeffs = cols.T @ y
        se = coeffs.std(axis=1, ddof=1) / math.sqrt(m)
        assert np.all(np.abs(coeffs.mean(axis=1) - target) <= 5 * se + 1e-12)



class TestConcentration:
    @pytest.mark.parametrize("kind", list(DEFAULT_PROBLEMS))
    def test_identities_on_the_defaults(self, kind):
        """On each default problem: sigma0^2 = lambda_max(Sigma) = g / n
        bitwise, with Sigma's eigenvalues those of ``cols^T zeta cols / n``
        formed densely apart from the package; the center is sqrt(tr Sigma);
        every row is certified and no tail reads 0.0."""
        config = cl.parse_config(json.dumps({"problem": DEFAULT_PROBLEMS[kind]}))
        prob = build_problem(config)
        k, r, n = 8, prob.n_dim, 1e6
        rep = cl.concentration_check(prob, k, r, n)
        lam = np.linalg.eigvalsh(_plug_in_gram(prob, k, r)) / n
        assert rep.sigma0_sq == lam[-1] == cl.compute_g_kr(prob, k, r) / n
        root = _plug_in_columns(prob, k, r).T @ prob.noise_color(np.eye(prob.n_dim))
        np.testing.assert_allclose(np.linalg.eigvalsh(root @ root.T / n), lam, rtol=1e-10)
        assert rep.mean_deviation == math.sqrt(lam.sum())
        assert rep.ok.all()
        assert np.all(rep.empirical > 0) and np.all(np.diff(rep.empirical) < 0)

    def test_lugannani_rice_matches_imhof_on_the_default_rows(self):
        """The tail column at the default banded config's nine offsets lies
        within 8% of Imhof's integral (6.3% measured, at the deepest row,
        4.4e-8)."""
        config = cl.parse_config(json.dumps({"problem": DEFAULT_PROBLEMS["banded"]}))
        prob = build_problem(config)
        rep = cl.concentration_check(prob, 8, 512, 1e6)
        lam = np.linalg.eigvalsh(_plug_in_gram(prob, 8, 512)) / 1e6
        exact = [imhof_tail((rep.mean_deviation + x) ** 2, lam, np.zeros(8)) for x in rep.x_grid]
        np.testing.assert_allclose(rep.empirical, exact, rtol=0.08, atol=0)

    @pytest.mark.parametrize("kind, r", [("banded", 64), ("colored", 64), ("banded", 6)])
    def test_sampled_deviation_matches_imhof(self, kind, r):
        """2e5 draws of the deviation ``cols^T zeta^(1/2) z / sqrt(n)`` put
        the tail mass Imhof's integral gives for Sigma's eigenvalues within
        4 binomial SE, wherever it is >= 1e-3: the law itself, not only its
        top eigenvalue, with and without an e-cutoff below k. (Lugannani-Rice
        is not compared with the sample: its 1.5-4.9% bias exceeds 4 SE at
        2e5 draws.)"""
        doc = dict(DEFAULT_PROBLEMS[kind], n_dim=64)
        prob = build_problem(cl.parse_config(json.dumps({"problem": doc})))
        k, n, draws = 8, 1e4, 200_000
        rep = cl.concentration_check(prob, k, r, n)
        lam = np.linalg.eigvalsh(_plug_in_gram(prob, k, r)) / n
        cols = _plug_in_columns(prob, k, r)
        rng = cl.substream(5, "concentration-oracle", kind, r)
        dist = np.concatenate([
            np.linalg.norm(cols.T @ prob.noise_color(rng.standard_normal((64, 20_000))), axis=0)
            for _ in range(draws // 20_000)]) / math.sqrt(n)
        checked = 0
        for x in rep.x_grid:
            exact = imhof_tail((rep.mean_deviation + x) ** 2, lam, np.zeros(k))
            if exact >= 1e-3:
                se = math.sqrt(exact * (1 - exact) / draws)
                assert abs(np.mean(dist >= rep.mean_deviation + x) - exact) <= 4 * se, (x, exact)
                checked += 1
        assert checked >= 4

    def test_one_mode_is_a_normal_tail(self):
        """One mode: the deviation is N(0, g / n), the center sigma0, and the
        tail beyond sigma0 + x is ``2 Phi(-(1 + x / sigma0))``; the Chernoff
        exponent of its square is ``-(z^2 - 1 - log z^2) / 2`` at ``z = 1 +
        x / sigma0``."""
        prob = cl.InverseProblem(
            cl.make_spectrum(np.array([0.5]), 1),
            cl.make_coupling(cl.IdentityCoupling(), 1),
            cl.explicit_prior([1.0], 1), cl.white_noise(1), 1)
        sigma0 = math.sqrt(cl.compute_g_kr(prob, 1, 1) / 30.0)
        rep = cl.concentration_check(prob, 1, 1, 30.0, x_grid=sigma0 * np.linspace(0, 3, 7))
        z = 1.0 + rep.x_grid / math.sqrt(rep.sigma0_sq)
        assert rep.mean_deviation == math.sqrt(rep.sigma0_sq)
        np.testing.assert_allclose(rep.empirical, 2 * norm.sf(z), rtol=0.05)
        np.testing.assert_allclose(rep.log_chernoff, -(z * z - 1 - np.log(z * z)) / 2,
                                   rtol=1e-9, atol=1e-14)
        assert rep.ok.all()

    def test_offset_past_the_bracket_reads_zero_under_its_end_exponent(self):
        """At x = 1e10 sigma0 the saddlepoint lies closer to the pole ``1 / (2
        sigma0^2)`` than the bracket search resolves (its last upper end is
        ``t = 2 s sigma0^2 = 1 - 2**-48``). The tail reads 0.0, and the
        exponent is the Chernoff exponent ``K(s) - s (m + x)^2`` at that end,
        to 1e-12 relative, which still certifies the row; the check does not
        raise."""
        prob = banded_problem(10, seed=8)
        sigma0 = math.sqrt(cl.compute_g_kr(prob, 4, 10) / 100.0)
        rep = cl.concentration_check(prob, 4, 10, 100.0, x_grid=[sigma0, 1e10 * sigma0])
        lam = np.maximum(np.linalg.eigvalsh(_plug_in_gram(prob, 4, 10)) / 100.0, 0.0)
        s = (1.0 - 2.0**-48) / (2.0 * lam.max())
        q = (rep.mean_deviation + rep.x_grid[1]) ** 2
        end = -0.5 * float(np.sum(np.log1p(-2.0 * s * lam))) - s * q
        assert 0.0 < rep.empirical[0] < 1.0 and rep.empirical[1] == 0.0
        assert rep.log_chernoff[1] == pytest.approx(end, rel=1e-12)
        assert rep.ok.all()

    def test_zero_offset_bound_is_one(self):
        rep = cl.concentration_check(identity_problem(6), 3, 6, 50.0, x_grid=[0.0])
        assert rep.bound[0] == 1.0
        assert 0.0 < rep.empirical[0] < 1.0
        assert rep.ok.tolist() == [True]

    def test_negative_offset_rejected(self):
        """An offset below the center is no tail: the grid is refused, not
        tabulated as a failed check; nor is a NaN offset, which no comparison
        rejects, or an infinite one."""
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="nonnegative"):
                cl.concentration_check(identity_problem(6), 3, 6, 50.0, x_grid=[bad, 0.0])

    def test_doubling_n_halves_sigma_sq(self):
        """Sigma scales as 1/n, so the default offsets, in units of sigma0,
        see the same tails."""
        prob = banded_problem(10, seed=8)
        a = cl.concentration_check(prob, 4, 10, 100.0)
        b = cl.concentration_check(prob, 4, 10, 200.0)
        assert b.sigma0_sq == a.sigma0_sq / 2.0
        np.testing.assert_allclose(b.empirical, a.empirical, rtol=1e-12)
        assert a.ok.all() and b.ok.all()


# log10 of a spectrum's k <= 16 eigenvalues, spread over 12 decades
spectra = st.integers(min_value=1, max_value=16).flatmap(
    lambda k: st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spectra, st.one_of(st.just(0.0), st.floats(1e-12, 30.0)))
def test_chernoff_certifies_the_concentration_envelope(log_lam, t):
    """The optimal Chernoff exponent of ``sum lam_i Z_i^2`` at ``(sqrt(sum
    lam) + x)^2`` is at most ``-x^2 / (2 max lam)`` (Laurent and Massart,
    2000), for x = t sigma0 from 0 and from 1e-12 sigma0 up to 30 sigma0:
    the certificate ``ok`` relies on it. Between them see
    ``test_unresolved_offset_is_left_uncertified``."""
    lam = 10.0 ** np.array(log_lam)
    x = t * math.sqrt(lam.max())
    got = quadform.tails((math.sqrt(lam.sum()) + x) ** 2, lam,
                         np.zeros((1, lam.size))).log_sf_bound
    assert got[0] <= -x * x / (2.0 * lam.max())


def test_unresolved_offset_is_left_uncertified():
    """An offset below about 1e-15 sigma0 vanishes from the level ``(m +
    x)^2`` in double precision, so the Chernoff exponent reads 0 against an
    envelope of ``-x^2 / (2 sigma0^2) < 0``: the row is not certified, and
    never certified wrongly."""
    prob = identity_problem(6)
    sigma0 = math.sqrt(cl.compute_g_kr(prob, 3, 6) / 50.0)
    rep = cl.concentration_check(prob, 3, 6, 50.0, x_grid=[1e-20 * sigma0, 1e-12 * sigma0])
    assert rep.log_chernoff[0] == 0.0 and rep.ok.tolist() == [False, True]


class TestVerifyAssumptions:
    def _calibrated_plan(self, prob, u0, n_level):
        params = cl.TheoryParams(alpha=1.0, delta=1.0, gamma=2.0)
        base = cl.plan_from_theory(params, n_level, prob.n_dim)
        eps, xi, k_n = base.eps_n, base.xi_n, base.k_n

        sb = cl.small_ball_log_prob(prob, u0, eps)
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
        report = cl.verify_assumptions(prob, plan, u0)
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
        report = cl.verify_assumptions(prob, plan, u0)
        assert not report.g.ok

    def test_full_cutoff_tiny_eps_breaks_kn(self):
        prob = identity_problem(32)
        u0 = cl.power_law_truth(2.0, 32)
        plan = cl.RatePlan(eps_n=1e-3, xi_n=0.5, k_n=32, r_n=None,
                           constants=cl.RateConstants(), n_level=100.0)
        report = cl.verify_assumptions(prob, plan, u0)
        assert not report.kn.ok

    def test_finite_r_flagged(self):
        prob = identity_problem(16)
        u0 = cl.power_law_truth(2.0, 16)
        plan = cl.RatePlan(eps_n=0.2, xi_n=0.5, k_n=4, r_n=4,
                           constants=cl.RateConstants(), n_level=100.0)
        report = cl.verify_assumptions(prob, plan, u0)
        assert report.finite_r_evidence
        assert report.g.measured == math.sqrt(report.g_value)

    def test_small_ball_verdict_follows_the_bounds(self):
        """``ok`` is True only when the product lower bound meets
        ``-c n eps^2``, False only when the Chernoff upper bound misses it,
        and None (undetermined) in between; the Lugannani-Rice value is the
        measured number whichever way it falls."""
        prob = identity_problem(16)
        u0 = cl.power_law_truth(2.0, 16)
        eps, n_level = 0.05, 100.0
        sb = cl.small_ball_log_prob(prob, u0, eps)
        lower, upper = sb.bounds
        assert lower < sb.log_prob < upper
        scale = n_level * eps**2
        for level, verdict in ((lower - 0.1, True), (0.5 * (lower + upper), None),
                               (upper + 0.1, False)):
            plan = cl.RatePlan(eps_n=eps, xi_n=0.5, k_n=4, r_n=None,
                               constants=cl.RateConstants(c=-level / scale), n_level=n_level)
            report = cl.verify_assumptions(prob, plan, u0)
            assert report.small_ball.ok is verdict
            assert report.small_ball.measured == sb.log_prob
            assert report.small_ball.bound == pytest.approx(level, rel=1e-12)
            if verdict is not True:
                assert not report.all_ok

    def test_default_plan_small_ball_is_refuted(self, tmp_path):
        """The default banded N = 512 check (n = 1e6, eps = 0.00398) once
        certified the small-ball inequality from a Wilson upper bound after
        zero hits. The Chernoff upper bound on the mass (-28.6) lies below
        the required -c n eps^2 = -15.85, so the row reads False."""
        config = cl.parse_config("problem: {coupling: {kind: banded}}")
        record = cl.run_experiment(config, pipelines=["check"])
        table = record.table("assumption_checks")
        row = table.rows[0]
        assert row[0] == "small_ball" and row[3] is False
        product, lr, chernoff = table.provenance["small_ball"]
        assert product <= lr <= chernoff < row[2]
        assert chernoff == pytest.approx(-28.6, abs=0.1)
        cl.emit_results(record, "csv", tmp_path)
        lines = (tmp_path / "assumption_checks.csv").read_text().splitlines()
        assert lines[1].startswith("small_ball,") and lines[1].endswith(",False")


class TestSmallBallDrawsNothing:
    @pytest.mark.parametrize("pipeline", ["smallball", "check"])
    def test_pipeline_runs_without_a_random_stream(self, monkeypatch, pipeline):
        """Small-ball masses come from the quadratic-form kernel alone: once
        the problem is built (a banded coupling is seeded), both pipelines
        run with every random stream of numpy disabled."""
        def no_stream(*args, **kwargs):
            raise AssertionError("small-ball code drew random numbers")

        config = cl.parse_config(
            "problem: {n_dim: 32, coupling: {kind: banded}}\nrun: {n_grid: [100, 1000, 10000]}")
        problem = build_problem(config)
        monkeypatch.setattr(cl.runner, "build_problem", lambda config: problem)
        monkeypatch.setattr(np.random, "default_rng", no_stream)
        record = cl.run_experiment(config, pipelines=[pipeline])
        assert record.failures == {}


def _config_problem(problem: dict):
    config = cl.parse_config(json.dumps({"problem": problem}))
    return build_problem(config), build_truth(config)


def _block_problem(sizes, seed):
    """A problem whose coupling is orthogonal on the diagonal blocks of
    ``sizes`` rows each, with diagonal noise, so ``M Lambda M^T`` splits on
    them."""
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


class TestSmallBallForm:
    """``small_ball_form`` decomposes ``M Lambda M^T`` one block of the
    problem's partition at a time, each block formed only when it is
    decomposed."""

    @staticmethod
    def _assert_routes_agree(prob, u0):
        """Against a dense ``eigh`` of the whole ``A A^T``: eigenvalues within
        1e-13 of the largest and projection norms within 1e-13 relative;
        ``residual_norms`` bit-equal to the per-coordinate reference in the
        same summation order."""
        form = cl.small_ball_form(prob, u0)
        m = prob.whitened_forward
        a = m * np.sqrt(prob.prior.variances)
        ref_lam, ref_vec = np.linalg.eigh(a @ a.T)
        ref_c = ref_vec.T @ (m @ u0)
        assert np.all(np.abs(form.lam - ref_lam) <= 1e-13 * ref_lam.max())
        norm_c, ref_norm = np.linalg.norm(form.c), np.linalg.norm(ref_c)
        assert abs(norm_c - ref_norm) <= 1e-13 * ref_norm
        assert np.array_equal(form.residual_norms, per_block_residual_norms(prob, u0))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
    def test_random_partitions_match_dense_eigh(self, sizes, seed):
        prob = _block_problem(sizes, seed)
        assert np.array_equal(prob.gram_blocks, np.cumsum([0] + sizes))
        u0 = np.random.default_rng(seed).standard_normal(prob.n_dim)
        self._assert_routes_agree(prob, u0)

    @pytest.mark.parametrize("problem", [
        {"n_dim": 512, "coupling": {"kind": "banded"}},
        {"n_dim": 256, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
         "noise": {"kind": "colored", "r": 0.5}},
    ], ids=["banded", "dense_hilbert"])
    def test_default_configs_match_dense_eigh(self, problem):
        prob, u0 = _config_problem(problem)
        assert (prob.gram_blocks.size > 2) == ("coupling" in problem)
        self._assert_routes_agree(prob, u0)

    @pytest.mark.parametrize("problem", [
        {"n_dim": 200, "coupling": {"kind": "banded"}},
        {"n_dim": 64, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
         "noise": {"kind": "colored", "r": 0.5}},
    ], ids=["banded", "dense_hilbert"])
    def test_residual_norms_match_exact_sums(self, problem):
        """Within 5e-16 relative of ``math.fsum`` sums of the rounded column
        images and of their squares, for the default truth. Summing the
        dense N columns from the right and the N rows in order was 1.07e-15
        off on the banded problem."""
        prob, u0 = _config_problem(problem)
        rows = (prob.whitened_forward * u0).tolist()
        ref = np.array([math.sqrt(math.fsum(math.fsum(row[j:]) ** 2 for row in rows))
                        for j in range(prob.n_dim)])
        got = cl.small_ball_form(prob, u0).residual_norms
        assert got[-1] == 0.0
        assert np.all(np.abs(got[:-1] - ref) <= 5e-16 * ref)

    @pytest.mark.parametrize("problem, budget", [
        ({"n_dim": 512, "coupling": {"kind": "banded"}}, 0.35),
        ({"n_dim": 256, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
          "noise": {"kind": "colored", "r": 0.5}}, 2.5),
    ], ids=["banded", "dense_hilbert"])
    def test_peak_memory_in_n_by_n_arrays(self, problem, budget):
        """``tracemalloc`` peak of one ``small_ball_form`` with M held: the
        banded default forms M's blocks, their column images and their
        blocks of ``A A^T``, no N x N array; a dense problem is one block,
        and forms ``A`` and ``A A^T``."""
        prob, u0 = _config_problem(problem)
        prob.whitened_forward
        tracemalloc.start()
        try:
            cl.small_ball_form(prob, u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * prob.n_dim**2 * 8

    def test_fresh_dense_problem_scales_m_in_place(self):
        """On a fresh dense problem M is a temporary of ``forward_blocks``:
        it is scaled into ``A = M Lambda^(1/2)`` in place and freed once
        ``A A^T`` is formed, so at most two N x N arrays live at once (M and
        ``A A^T``, or dstevd's eigenvectors and workspace). Forming ``A``
        beside M, or holding M through the eigensolve, made 3.15. The form
        is bit for bit the one from a held, read-only M, which is copied and
        left as it was."""
        problem = {"n_dim": 256, "prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0},
                   "noise": {"kind": "colored", "r": 0.5}}
        prob, u0 = _config_problem(problem)
        tracemalloc.start()
        try:
            fresh = cl.small_ball_form(prob, u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "whitened_forward" not in vars(prob)
        assert peak <= 2.2 * prob.n_dim**2 * 8
        m = prob.whitened_forward.copy()
        held = cl.small_ball_form(prob, u0)
        assert np.array_equal(prob.whitened_forward, m)
        for name in ("lam", "c", "residual_norms"):
            assert np.array_equal(getattr(fresh, name), getattr(held, name))

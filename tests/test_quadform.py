"""Saddlepoint tails, quantiles and Chernoff exponents of Gaussian quadratic
forms against Imhof's integral, the noncentral chi-square and closed forms."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import ncx2

import contraction_lab as cl
from contraction_lab import quadform
from contraction_lab.assumptions import _residual_operator
from contraction_lab.config import build_plan, build_problem, build_truth
from contraction_lab.errors import NumericalError, ParameterError


def imhof_tail(q, lam, c2):
    """P(sum (c_i + sqrt(lam_i) Z_i)^2 > q) by Imhof's (1961) inversion
    integral, with the noncentrality written through c2 = lam b^2."""
    def integrand(u):
        lu = lam * u
        theta = 0.5 * np.sum(np.arctan(lu) + c2 * u / (1.0 + lu * lu)) - 0.5 * q * u
        log_rho = np.sum(0.25 * np.log1p(lu * lu) + 0.5 * c2 * lam * u * u / (1.0 + lu * lu))
        return math.sin(theta) * math.exp(-log_rho) / u

    value, _ = quad(integrand, 0.0, np.inf, limit=1000, epsabs=1e-13, epsrel=1e-11)
    return 0.5 + value / math.pi


def _posterior_form(problem, u0, n_level, seed):
    """Eigenvalues and squared offsets of the posterior distance to u0."""
    factor = cl.factor_posterior(problem, n_level)
    lam, vecs = factor.covariance_eigh()
    data = cl.simulate_data(problem, u0, n_level, seed=seed)
    c = vecs.T @ (factor.mean(data.y) - u0)
    return lam, c * c


class TestAgainstImhof:
    @pytest.mark.parametrize("n_level", [1e2, 1e4, 1e6])
    def test_posterior_radius_on_default_banded_config(self, n_level):
        """The 90% posterior radius of the default banded problem (N = 512,
        effective degrees of freedom 5.6 to 32 over these n) matches Imhof's
        to 5e-3 relative; plain Lugannani-Rice is off by up to 2.5e-3 here."""
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                         "coupling": {"kind": "banded"}}}))
        lam, c2 = _posterior_form(build_problem(config), build_truth(config), n_level, seed=3)
        q = quadform.quantile(0.1, lam, c2)
        q_imhof = brentq(lambda x: imhof_tail(x, lam, c2) - 0.1, 0.5 * q, 2.0 * q, xtol=1e-14)
        assert abs(math.sqrt(q / q_imhof) - 1.0) < 5e-3

    def test_skewed_weights_across_tail_levels(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.0, 1.0, 30) ** 4
        c2 = 0.1 * rng.uniform(0.0, 1.0, 30) ** 2
        for p in (0.3, 0.1, 0.01, 1e-5):
            q = quadform.quantile(p, lam, c2)
            assert abs(imhof_tail(q, lam, c2) / p - 1.0) < 0.05
            assert quadform.tail(q, lam, c2) == pytest.approx(p, rel=1e-9)


class TestAgainstNoncentralChiSquare:
    @pytest.mark.parametrize("k", [1, 4, 32, 128])
    @pytest.mark.parametrize("noncentrality", [0.0, 1.0, 10.0])
    def test_equal_weights(self, k, noncentrality):
        """Equal weights sigma^2 make Q / sigma^2 a noncentral chi-square;
        the Lugannani-Rice relative error is O(1/k), here below 0.1 / k."""
        sigma2 = 0.01
        lam = np.full(k, sigma2)
        c2 = np.full(k, sigma2 * noncentrality / k)
        for p in (0.5, 0.1, 1e-4, 1e-8):
            q = sigma2 * ncx2.isf(p, k, noncentrality)
            exact = ncx2.sf(q / sigma2, k, noncentrality)
            assert abs(quadform.tail(q, lam, c2) / exact - 1.0) < 0.1 / k


def bounded_chernoff(q, lam):
    """Chernoff exponent of a central form by a bounded scalar search over
    ``s`` in ``[0, (1 - 1e-9) / (2 max lam)]``, the route the assumption
    check took before ``log_chernoff``."""
    def objective(s):
        return -s * q - 0.5 * float(np.sum(np.log1p(-2.0 * s * lam)))

    res = minimize_scalar(objective, bounds=(0.0, (1.0 - 1e-9) / (2.0 * lam.max())),
                          method="bounded")
    return min(0.0, float(res.fun))


class TestLogChernoff:
    @pytest.mark.parametrize("k", [1, 3, 16, 200])
    @pytest.mark.parametrize("ratio", [1.01, 1.5, 4.0, 1e3, 1e8])
    def test_scaled_chi_square_closed_form(self, k, ratio):
        """For Q = lam chi^2_k and x = q / lam > k the minimum sits at
        s = (1 - k / x) / (2 lam), where the exponent is
        -(x - k - k ln(x / k)) / 2."""
        lam = 0.37
        x = ratio * k
        exact = -0.5 * (x - k - k * math.log(x / k))
        got = quadform.log_chernoff(lam * x, np.full(k, lam), np.zeros(k))
        assert got == pytest.approx(exact, rel=1e-12)

    def test_zero_up_to_the_mean(self):
        lam, c2 = np.array([0.5, 2.0]), np.array([1.0, 0.0])
        for q in (-1.0, 0.0, 1.0, 3.5):
            assert quadform.log_chernoff(q, lam, c2) == 0.0
        assert quadform.log_chernoff(3.5 * (1 + 1e-9), lam, c2) < 0.0
        assert quadform.log_chernoff(math.inf, lam, c2) == -math.inf
        with pytest.raises(ParameterError):
            quadform.log_chernoff(math.nan, lam, c2)

    @pytest.mark.parametrize("k", [1, 4, 32])
    @pytest.mark.parametrize("noncentrality", [0.0, 1.0, 10.0])
    def test_dominates_noncentral_chi_square(self, k, noncentrality):
        sigma2 = 0.01
        lam = np.full(k, sigma2)
        c2 = np.full(k, sigma2 * noncentrality / k)
        for p in (0.5, 0.1, 1e-4, 1e-8, 1e-30):
            x = ncx2.isf(p, k, noncentrality)
            bound = quadform.log_chernoff(sigma2 * x, lam, c2)
            assert bound >= ncx2.logsf(x, k, noncentrality) - 1e-12 * abs(bound)

    def test_matches_bounded_search_on_default_check_plan(self):
        """The check pipeline's projection tail on the default banded problem
        (N = 512, auto plan, k_n = 16): the saddlepoint exponent agrees with a
        bounded scalar search to 1e-9 relative and is never above it."""
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                         "coupling": {"kind": "banded"}}}))
        problem, plan = build_problem(config), build_plan(config)
        assert plan.k_n == 16 and plan.r_n is None
        a = _residual_operator(problem, plan.k_n, plan.r_n)
        lam = np.linalg.eigvalsh(a.T @ a)
        lam = lam[lam > 0]
        for factor in (1, 2, 4, 8, 16):
            threshold = plan.constants.c2 * plan.xi_n * factor
            got = cl.projection_log_tail_bound(problem, plan.k_n, plan.r_n, threshold)
            reference = bounded_chernoff(threshold**2, lam)
            assert got < 0.0
            assert got == pytest.approx(reference, rel=1e-9)
            assert got <= reference * (1.0 - 1e-15)


forms = st.integers(min_value=1, max_value=12).flatmap(lambda k: st.tuples(
    st.lists(st.floats(1e-6, 1e2), min_size=k, max_size=k),
    st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)))


class TestProperties:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(forms, st.floats(0.05, 10.0), st.floats(1.0 + 1e-9, 1.5))
    def test_tail_non_increasing_in_q(self, form, scale, step):
        lam, c2 = (np.asarray(v) for v in form)
        q = scale * float(lam.sum() + c2.sum())
        assert quadform.tail(q * step, lam, c2) <= quadform.tail(q, lam, c2)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(forms, st.floats(0.05, 10.0))
    def test_quantile_inverts_tail(self, form, scale):
        """Round trip to 1e-9 relative, except that the tail is flat within
        1e-4 standard deviations of the mean, where the Lugannani-Rice formula
        is replaced by its limit."""
        lam, c2 = (np.asarray(v) for v in form)
        q = scale * float(lam.sum() + c2.sum())
        p = quadform.tail(q, lam, c2)
        assume(1e-12 < p < 1.0 - 1e-12)
        sd = math.sqrt(quadform.cgf(0.0, lam, c2)[2])
        assert abs(quadform.quantile(p, lam, c2) - q) <= 1e-9 * q + 2e-4 * sd


class TestNoSilentNumerics:
    def test_failed_bracket_raises(self):
        """A zero-variance term pins Q >= 4, so no saddlepoint reaches q = 1."""
        with pytest.raises(NumericalError, match="bracket"):
            quadform.tail(1.0, [1.0, 0.0], [0.0, 4.0])

    def test_non_finite_cumulants_raise(self):
        with pytest.raises(NumericalError, match="not finite"):
            quadform.cgf(0.0, [1.0], [1e308])
        with pytest.raises(NumericalError):
            quadform.quantile(0.1, [1.0, 1.0], [1e308, 1e308])

    def test_inputs_validated(self):
        with pytest.raises(ParameterError):
            quadform.quantile(0.1, [1.0, -1e-3], [0.0, 0.0])
        with pytest.raises(ParameterError):
            quadform.quantile(0.1, [0.0], [1.0])
        with pytest.raises(ParameterError):
            quadform.quantile(1.0, [1.0], [1.0])
        with pytest.raises(ParameterError):
            quadform.tail(1.0, [1.0, np.nan], [0.0, 0.0])
        with pytest.raises(ParameterError):
            quadform.cgf(0.5, [1.0], [0.0])


def reference_tail_prob(s, lam, c2):
    """Scalar Lugannani-Rice tail at the saddlepoint ``s``, evaluated the way
    quadform did before its batched solver."""
    k0, q, k2 = quadform.cgf(s, lam, c2)
    u = s * math.sqrt(k2)
    if abs(u) < 1e-4:
        k2_0 = float(np.sum(lam * (2.0 * lam + 4.0 * c2)))
        k3_0 = float(np.sum(lam * lam * (8.0 * lam + 24.0 * c2)))
        return 0.5 - k3_0 / (6.0 * math.sqrt(2.0 * math.pi) * k2_0**1.5)
    w = math.copysign(math.sqrt(max(2.0 * (s * q - k0), 0.0)), s)
    density = math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    return 0.5 * math.erfc(w / math.sqrt(2.0)) + density * (1.0 / u - 1.0 / w)


def brentq_quantile(p, lam, c2):
    """Saddlepoint quantile of one form by the scalar bracket search and
    ``brentq`` (xtol 1e-14 in t = 2 s max(lam)) that quadform ran before its
    batched Newton-bisection."""
    lam, c2 = np.asarray(lam, dtype=float), np.asarray(c2, dtype=float)
    scale = 2.0 * float(lam.max())

    def fn(t):
        return reference_tail_prob(t / scale, lam, c2) - p

    hi, lo = 0.5, -1.0
    for _ in range(48):
        if fn(hi) <= 0:
            break
        hi = 0.5 * (1.0 + hi)
    for _ in range(48):
        if fn(lo) >= 0:
            break
        lo *= 2.0
    t = brentq(fn, lo, hi, xtol=1e-14)
    return quadform.cgf(t / scale, lam, c2)[1]


# (lam, c2 rows): up to 10 eigenvalues, any of them possibly zero (at least
# one positive), and up to 6 rows of offsets, any row possibly all zero.
batches = st.integers(min_value=1, max_value=10).flatmap(lambda k: st.tuples(
    st.lists(st.floats(1e-6, 1e2), min_size=k, max_size=k),
    st.lists(st.booleans(), min_size=k, max_size=k),
    st.lists(st.one_of(st.just([0.0] * k),
                       st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)),
             min_size=1, max_size=6)))

# Tail levels on either side of the band around the mean where the
# Lugannani-Rice formula is replaced by its limit (there the tail is flat to
# rounding and the root is not defined to 1e-12): that band lies at
# p in (0.31, 0.5], since a quadratic form's skewness is in (0, 2 sqrt 2].
tail_levels = st.one_of(st.floats(1e-6, 0.25), st.floats(0.55, 0.95))


class TestBatchedQuantile:
    @pytest.mark.parametrize("n_level", [1e2, 1e6])
    def test_rate_fit_batch_matches_brentq_rows(self, n_level):
        """The replicate forms of one n of the default banded rate fit
        (N = 512): the batched 90% quantiles equal the row-by-row brentq
        reference to 1e-12 relative."""
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 512,
                                                         "coupling": {"kind": "banded"}}}))
        problem, u0 = build_problem(config), build_truth(config)
        factor = cl.factor_posterior(problem, n_level)
        lam, vecs = factor.covariance_eigh()
        ys = np.column_stack([cl.simulate_data(problem, u0, n_level, seed=s).y
                              for s in range(6)])
        c = (factor.mean(ys) - u0[:, None]).T @ vecs
        got = quadform.quantiles(0.1, lam, c * c)
        assert got.shape == (6,)
        for r in range(6):
            assert got[r] == pytest.approx(brentq_quantile(0.1, lam, c[r] ** 2), rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(batches, tail_levels)
    def test_batch_matches_brentq_rows(self, batch, p):
        lam, zero, rows = batch
        lam = np.asarray(lam) if all(zero) else np.where(zero, 0.0, lam)
        c2 = np.asarray(rows)
        got = quadform.quantiles(p, lam, c2)
        assert got.shape == (len(rows),)
        for r, row in enumerate(c2):
            assert got[r] == pytest.approx(brentq_quantile(p, lam, row), rel=1e-12)
            assert quadform.quantile(p, lam, row) == pytest.approx(got[r], rel=1e-12)

    def test_scalar_routines_agree_with_batch(self):
        """``tail`` inverts a batched quantile row by row."""
        lam = np.array([1.0, 0.5, 0.0, 0.1])
        c2 = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.0, 2.0, 1.0], [4.0, 4.0, 0.0, 0.0]])
        for p in (0.9, 0.1, 1e-5):
            for row, q in zip(c2, quadform.quantiles(p, lam, c2)):
                assert quadform.tail(q, lam, row) == pytest.approx(p, rel=1e-9)

    def test_inputs_validated(self):
        with pytest.raises(ParameterError):
            quadform.quantiles(0.1, [1.0, 0.5], [1.0, 0.5])
        with pytest.raises(ParameterError):
            quadform.quantiles(0.1, [1.0, 0.5], np.zeros((0, 2)))
        with pytest.raises(ParameterError):
            quadform.quantiles(0.1, [1.0, 0.5], np.zeros((3, 3)))
        with pytest.raises(ParameterError):
            quadform.quantiles(0.1, [1.0, 0.5], [[0.0, -1.0]])
        with pytest.raises(ParameterError):
            quadform.quantiles(0.0, [1.0, 0.5], [[0.0, 1.0]])

    def test_failed_bracket_names_the_row(self):
        """Row 1 has a zero-variance term that pins Q >= 4, so no saddlepoint
        reaches q = 1; rows 0 and 2 have one."""
        c2 = np.array([[0.0, 0.5], [0.0, 4.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match=r"bracket failed .*row 1 \(lower end\)"):
            quadform._saddlepoint(1.0, np.array([1.0, 0.0]), c2)

    def test_non_finite_cumulants_name_the_row(self):
        with pytest.raises(NumericalError, match=r"not finite .*\(row 2\)"):
            quadform.quantiles(0.1, [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0], [1e308, 1e308]])

    def test_unconverged_row_raises(self, monkeypatch):
        monkeypatch.setattr(quadform, "_MAX_STEPS", 1)
        with pytest.raises(NumericalError, match=r"quantile at p = 0\.1 did not converge, row 0"):
            quadform.quantiles(0.1, [1.0, 0.5], [[0.0, 1.0], [2.0, 0.0]])

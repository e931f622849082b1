"""Saddlepoint tails, quantiles and Chernoff exponents of Gaussian quadratic
forms against Imhof's integral, the noncentral chi-square and closed forms."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.special import log_ndtr
from scipy.stats import ncx2

import contraction_lab as cl
from contraction_lab import quadform
from contraction_lab.assumptions import _residual_operator
from contraction_lab.config import build_plan, build_problem, build_truth
from contraction_lab.errors import NumericalError, ParameterError
from contraction_lab.spectral import _coupling_blocks

from block_reference import zero_pattern_blocks
from oracles import imhof_tail


def cgf(s, lam, c2):
    """``K(s)``, ``K'(s)`` and ``K''(s)`` of one form, in plain numpy, so
    that the oracles below do not call the code they check."""
    lam, c2 = np.asarray(lam, dtype=float), np.asarray(c2, dtype=float)
    d = 1.0 - 2.0 * s * lam
    return (float(np.sum(s * c2 / d - 0.5 * np.log1p(-2.0 * s * lam))),
            float(np.sum(lam / d + c2 / d**2)),
            float(np.sum(2.0 * (lam / d) ** 2 + 4.0 * lam * c2 / d**3)))


def tail(q, lam, c2):
    """``P(Q > q)`` of one form from the batched Lugannani-Rice ``log_cdf``."""
    return -math.expm1(log_cdf(q, lam, [c2])[0])


# The fields of ``quadform.tails``, one at a time, as functions of (q, lam, c2).
def log_cdf(q, lam, c2):
    return quadform.tails(q, lam, c2).log_cdf


def log_sf_bound(q, lam, c2):
    return quadform.tails(q, lam, c2).log_sf_bound


def log_cdf_bound(q, lam, c2):
    return quadform.tails(q, lam, c2).log_cdf_bound


def _posterior_form(problem, u0, n_level, seed):
    """Eigenvalues and squared offsets of the posterior distance to u0."""
    factor = cl.factor_posterior(problem, n_level)
    lam, vt = factor.covariance_spectrum(np.eye(problem.n_dim))
    data = cl.simulate_data(problem, u0, n_level, seed=seed)
    c = vt @ (factor.mean(data.y) - u0)
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
        q = quadform.quantiles(0.1, lam, [c2])[0]
        q_imhof = brentq(lambda x: imhof_tail(x, lam, c2) - 0.1, 0.5 * q, 2.0 * q, xtol=1e-14)
        assert abs(math.sqrt(q / q_imhof) - 1.0) < 5e-3

    def test_skewed_weights_across_tail_levels(self):
        rng = np.random.default_rng(0)
        lam = rng.uniform(0.0, 1.0, 30) ** 4
        c2 = 0.1 * rng.uniform(0.0, 1.0, 30) ** 2
        for p in (0.3, 0.1, 0.01, 1e-5):
            q = quadform.quantiles(p, lam, [c2])[0]
            assert abs(imhof_tail(q, lam, c2) / p - 1.0) < 0.05
            assert tail(q, lam, c2) == pytest.approx(p, rel=1e-9)


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
            assert abs(tail(q, lam, c2) / exact - 1.0) < 0.1 / k


def bounded_chernoff(q, lam):
    """Chernoff exponent of a central form by a bounded scalar search over
    ``s`` in ``[0, (1 - 1e-9) / (2 max lam)]``, the route the assumption
    check took before the saddlepoint solve of ``quadform.tails``."""
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
        got = log_sf_bound(lam * x, np.full(k, lam), np.zeros((1, k)))[0]
        assert got == pytest.approx(exact, rel=1e-12)

    def test_zero_up_to_the_mean(self):
        lam, c2 = np.array([0.5, 2.0]), np.array([[1.0, 0.0]])
        for q in (-1.0, 0.0, 1.0, 3.5):
            assert log_sf_bound(q, lam, c2)[0] == 0.0
        assert log_sf_bound(3.5 * (1 + 1e-9), lam, c2)[0] < 0.0
        assert log_sf_bound(math.inf, lam, c2)[0] == -math.inf
        with pytest.raises(ParameterError):
            log_sf_bound(math.nan, lam, c2)

    @pytest.mark.parametrize("k", [1, 4, 32])
    @pytest.mark.parametrize("noncentrality", [0.0, 1.0, 10.0])
    def test_dominates_noncentral_chi_square(self, k, noncentrality):
        sigma2 = 0.01
        lam = np.full(k, sigma2)
        c2 = np.full(k, sigma2 * noncentrality / k)
        for p in (0.5, 0.1, 1e-4, 1e-8, 1e-30):
            x = ncx2.isf(p, k, noncentrality)
            bound = log_sf_bound(sigma2 * x, lam, [c2])[0]
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
        assert tail(q * step, lam, c2) <= tail(q, lam, c2)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(forms, st.floats(0.05, 10.0))
    def test_quantile_inverts_tail(self, form, scale):
        """Round trip to 1e-9 relative, except that the tail is flat within
        1e-4 standard deviations of the mean, where the Lugannani-Rice formula
        is replaced by its limit."""
        lam, c2 = (np.asarray(v) for v in form)
        q = scale * float(lam.sum() + c2.sum())
        p = tail(q, lam, c2)
        assume(1e-12 < p < 1.0 - 1e-12)
        sd = math.sqrt(cgf(0.0, lam, c2)[2])
        assert abs(quadform.quantiles(p, lam, [c2])[0] - q) <= 1e-9 * q + 2e-4 * sd


class TestNoSilentNumerics:
    def test_non_finite_cumulants_raise(self):
        with pytest.raises(NumericalError, match="not finite"):
            log_cdf(1.0, [1.0], [[1e308]])
        with pytest.raises(NumericalError):
            quadform.quantiles(0.1, [1.0, 1.0], [[1e308, 1e308]])

    def test_inputs_validated(self):
        with pytest.raises(ParameterError):
            quadform.quantiles(0.1, [1.0, -1e-3], [[0.0, 0.0]])
        with pytest.raises(ParameterError):
            quadform.quantiles(0.1, [0.0], [[1.0]])
        with pytest.raises(ParameterError):
            quadform.quantiles(1.0, [1.0], [[1.0]])
        with pytest.raises(ParameterError):
            log_cdf(1.0, [1.0, np.nan], [[0.0, 0.0]])
        with pytest.raises(ParameterError):
            quadform._cgf(np.array([0.5]), np.array([1.0]), np.zeros((1, 1)))


def reference_tail_prob(s, lam, c2):
    """Scalar Lugannani-Rice tail at the saddlepoint ``s``, evaluated the way
    quadform did before its batched solver."""
    k0, q, k2 = cgf(s, lam, c2)
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
    return cgf(t / scale, lam, c2)[1]


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
        lam, vt = factor.covariance_spectrum(np.eye(512))
        ys = np.column_stack([cl.simulate_data(problem, u0, n_level, seed=s).y
                              for s in range(6)])
        c = (vt @ (factor.mean(ys) - u0[:, None])).T
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
            assert quadform.quantiles(p, lam, [row])[0] == pytest.approx(got[r], rel=1e-12)

    def test_scalar_routines_agree_with_batch(self):
        """The Lugannani-Rice tail from ``tails`` inverts a batched
        quantile row by row."""
        lam = np.array([1.0, 0.5, 0.0, 0.1])
        c2 = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.0, 2.0, 1.0], [4.0, 4.0, 0.0, 0.0]])
        for p in (0.9, 0.1, 1e-5):
            for row, q in zip(c2, quadform.quantiles(p, lam, c2)):
                assert tail(q, lam, row) == pytest.approx(p, rel=1e-9)

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
            quadform._saddlepoint(1.0, np.array([1.0, 0.0]), c2, "tail at q = 1.0")

    def test_non_finite_cumulants_name_the_row(self):
        with pytest.raises(NumericalError, match=r"not finite .*\(row 2\)"):
            quadform.quantiles(0.1, [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0], [1e308, 1e308]])

    def test_unconverged_row_raises(self, monkeypatch):
        monkeypatch.setattr(quadform, "_MAX_STEPS", 1)
        with pytest.raises(NumericalError, match=r"quantile at p = 0\.1 did not converge, row 0"):
            quadform.quantiles(0.1, [1.0, 0.5], [[0.0, 1.0], [2.0, 0.0]])


def _near_mean_u(q, lam, c2):
    """``|u| = |s| sqrt(K''(s))`` at the saddlepoint of ``K'(s) = q``: how
    many standard deviations (to first order) the level lies from the mean."""
    s = float(quadform._saddlepoint(q, np.asarray(lam, dtype=float), np.asarray([c2]), "u")[0])
    return abs(s) * math.sqrt(cgf(s, lam, c2)[2])


class TestWarmStart:
    """``quantiles`` starts each row's solve from the two-moment chi-square
    guess and brackets it with two evaluations; rows whose guess is unusable
    take the search from scratch."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(batches, st.floats(1e-8, 0.49))
    def test_matches_brentq_from_deep_tail_to_near_mean(self, batch, p):
        """Every row agrees with the scalar brentq reference to 1e-12
        relative, except a level within 0.02 standard deviations of the mean
        (``|u| < 0.02``). There the Lugannani-Rice terms ``1/u - 1/w`` cancel,
        the tail is flat and noisy to ~1e-13, and the root is defined only to
        ~1e-9 relative; the search from scratch disagrees with brentq there
        just as much (5e-9 at ``|u| = 6e-4``), so those rows are held to the
        round-trip bound of ``test_quantile_inverts_tail``."""
        lam, zero, rows = batch
        lam = np.asarray(lam) if all(zero) else np.where(zero, 0.0, lam)
        c2 = np.asarray(rows)
        got = quadform.quantiles(p, lam, c2)
        assert got.shape == (len(rows),)
        for r, row in enumerate(c2):
            ref = brentq_quantile(p, lam, row)
            if _near_mean_u(ref, lam, row) >= 0.02:
                assert got[r] == pytest.approx(ref, rel=1e-12)
            else:
                sd = math.sqrt(cgf(0.0, lam, row)[2])
                assert abs(got[r] - ref) <= 1e-9 * ref + 2e-4 * sd

    def test_overflowing_moments_fall_back_without_warnings(self):
        """A moment sum that overflows makes that row's start non-finite,
        silently; the row then takes the search from scratch, whose
        cumulants raise the existing ``NumericalError``. The pytest
        configuration turns any ``RuntimeWarning`` into an error."""
        lam, c2 = np.array([1.0, 1.0]), np.array([[0.0, 1.0], [1e308, 1e308]])
        start = quadform._two_moment_start(0.1, lam, c2)
        assert np.isfinite(start[0]) and not np.isfinite(start[1])
        with pytest.raises(NumericalError, match=r"not finite .*\(row 1\)"):
            quadform.quantiles(0.1, lam, c2)

    def test_unusable_starts_take_the_search_from_scratch(self):
        """Rows whose start is NaN, infinite, at the pole or beyond it give
        the roots of the search from scratch bit for bit; a usable start
        gives the same root to rounding."""
        lam = np.array([1.0, 0.5, 0.0, 0.1])
        c2 = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.0, 2.0, 1.0], [4.0, 4.0, 0.0, 0.0],
                       [1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5, 0.5]])

        def fn(s, idx):
            _, tail_p, dp = quadform._lugannani_rice(s, lam, c2, idx)
            return tail_p - 0.05, dp
        cold = quadform._solve(fn, lam, 5, "test")
        good = quadform._two_moment_start(0.05, lam, c2)[4]
        warm = quadform._solve(fn, lam, 5, "test",
                               np.array([np.nan, np.inf, -np.inf, 0.5, good]))
        assert np.array_equal(warm[:4], cold[:4])
        assert warm[4] == pytest.approx(cold[4], rel=1e-13)

    def test_far_prediction_is_not_bracketed(self):
        """The start of a two-term form at p = 3e-3 lies near the pole,
        where the tail is flat, so its Newton step predicts a root near
        t = -1e93. A bracket that wide would outlast the bisection budget;
        the prediction is refused and the row solved from scratch."""
        lam, c2, p = np.array([87.0, 46.5]), np.zeros((1, 2)), 0.003036856217121455
        assert quadform._two_moment_start(p, lam, c2)[0] * 2.0 * 87.0 > 0.99
        assert quadform.quantiles(p, lam, c2)[0] == pytest.approx(
            brentq_quantile(p, lam, c2[0]), rel=1e-12)


# (lam, c2, q / E Q): up to 6 terms, any eigenvalue possibly zero (at least
# one positive) and the offsets possibly all zero; q not so far below the
# mean that Imhof's integral loses the lower tail.
lower_forms = st.integers(min_value=1, max_value=6).flatmap(lambda k: st.tuples(
    st.lists(st.floats(0.05, 10.0), min_size=k, max_size=k),
    st.lists(st.booleans(), min_size=k, max_size=k),
    st.one_of(st.just([0.0] * k), st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k)),
    st.floats(0.2, 1.5)))


class TestLowerTail:
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(lower_forms)
    def test_bounds_enclose_imhof(self, form):
        """product <= log P(Q <= q) <= Chernoff, with P from Imhof's integral
        (to 1e-4 relative), or in closed form when only one term varies."""
        lam, zero, c2, frac = form
        lam = np.where(zero, 0.0, lam) if not all(zero) else np.asarray(lam)
        c2 = np.asarray(c2)
        q = frac * float(lam.sum() + c2.sum())
        product = quadform.log_cdf_product(q, lam, c2[None])[0]
        chernoff = log_cdf_bound(q, lam, c2[None])[0]
        assert product <= chernoff <= 0.0
        if q <= c2[lam == 0].sum():
            assert product == chernoff == log_cdf(q, lam, c2[None])[0] == -math.inf
            return
        pos = np.flatnonzero(lam > 0)
        if pos.size == 1:  # Imhof's integrand decays too slowly for one term
            r = math.sqrt((q - c2[lam == 0].sum()) / lam[pos[0]])
            m = math.sqrt(c2[pos[0]] / lam[pos[0]])
            a, b = log_ndtr(r - m), log_ndtr(-r - m)
            exact = a + math.log1p(-math.exp(b - a))
        else:
            exact = math.log(1.0 - imhof_tail(q, lam, c2))
        slack = 1e-4 * max(1.0, abs(exact))
        assert product <= exact + slack
        assert exact <= chernoff + slack

    @pytest.mark.parametrize("k", [1, 4, 32, 128])
    @pytest.mark.parametrize("noncentrality", [0.0, 1.0, 10.0])
    def test_log_cdf_matches_noncentral_chi_square(self, k, noncentrality):
        """Equal weights make Q / sigma^2 a noncentral chi-square; the
        Lugannani-Rice relative error stays below 0.2 / k down to 1e-30, and
        the bounds hold there too."""
        sigma2 = 0.01
        lam = np.full(k, sigma2)
        c2 = np.full((1, k), sigma2 * noncentrality / k)
        for p in (0.5, 0.1, 1e-4, 1e-8, 1e-30):
            x = ncx2.ppf(p, k, noncentrality)
            exact = ncx2.logcdf(x, k, noncentrality)
            got = log_cdf(sigma2 * x, lam, c2)[0]
            assert abs(math.expm1(got - exact)) < 0.2 / k
            assert quadform.log_cdf_product(sigma2 * x, lam, c2)[0] <= exact + 1e-9
            assert exact <= log_cdf_bound(sigma2 * x, lam, c2)[0] + 1e-9

    @pytest.mark.parametrize("lam,c2", [(0.3, 0.0), (0.3, 2.0), (1e-4, 1.0), (4.0, 0.01)])
    def test_product_bound_is_exact_for_one_term(self, lam, c2):
        for q in (1e-6, 0.1, 1.0, 3.0):
            # P(|m + Z| <= r) = Phi(r - m) - Phi(-r - m)
            r, m = math.sqrt(q / lam), math.sqrt(c2 / lam)
            a, b = log_ndtr(r - m), log_ndtr(-r - m)
            exact = a + math.log1p(-math.exp(b - a))
            got = quadform.log_cdf_product(q, [lam], [[c2]])[0]
            assert got == pytest.approx(exact, rel=1e-9, abs=1e-12)
            assert got <= exact + 1e-14 * abs(exact)

    @pytest.mark.parametrize("k", [1, 3, 16, 200])
    @pytest.mark.parametrize("ratio", [0.99, 0.5, 0.1, 1e-3, 1e-8])
    def test_chernoff_scaled_chi_square_closed_form(self, k, ratio):
        """For Q = lam chi^2_k and x = q / lam < k the minimum over s <= 0
        sits at s = (1 - k / x) / (2 lam), where the exponent is
        -(x - k - k ln(x / k)) / 2."""
        lam = 0.37
        x = ratio * k
        exact = -0.5 * (x - k - k * math.log(x / k))
        got = log_cdf_bound(lam * x, np.full(k, lam), np.zeros((1, k)))[0]
        assert got == pytest.approx(exact, rel=1e-12)

    def test_zero_from_the_mean_up_and_minus_infinity_at_the_infimum(self):
        """A zero-variance term pins Q >= 4: nothing below it has mass."""
        lam, c2 = np.array([0.5, 0.0]), np.array([[1.0, 4.0]])
        for q in (5.5, 6.0, 50.0):
            assert log_cdf_bound(q, lam, c2)[0] == 0.0
        for q in (0.0, 3.0, 4.0):
            for fn in (log_cdf, log_cdf_bound, quadform.log_cdf_product):
                assert fn(q, lam, c2)[0] == -math.inf
        values = [fn(4.0 + 1e-9, lam, c2)[0] for fn in (quadform.log_cdf_product, log_cdf,
                                                        log_cdf_bound)]
        assert all(np.isfinite(values)) and values == sorted(values)

    def test_rows_agree_with_single_rows(self):
        """One level per row; a batch gives each row's single-row answer. The
        upper-tail bound gets levels above the row means (1.6, 4.9, 9.6),
        where it is not 0."""
        lam = np.array([1.0, 0.5, 0.0, 0.1])
        c2 = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.0, 2.0, 1.0], [4.0, 4.0, 0.0, 0.0]])
        q = np.array([0.2, 3.0, 5.0])
        for fn, levels in ((log_cdf, q), (log_cdf_bound, q),
                           (quadform.log_cdf_product, q), (log_sf_bound, 4.0 * q + 4.0)):
            batch = fn(levels, lam, c2)
            assert batch.shape == (3,)
            for r in range(3):
                assert fn(levels[r], lam, c2[r:r + 1])[0] == pytest.approx(batch[r], rel=1e-9)

    def test_deep_tail_beyond_the_upper_bracket_range(self):
        """A ball of radius 1e-12 puts the saddlepoint near t = -1e24, far
        past the 48 doublings that bound an upper-tail bracket."""
        lam = 1.0 / np.arange(1, 7) ** 5
        c2 = np.zeros((1, 6))
        q = 1e-24
        values = [fn(q, lam, c2)[0] for fn in (quadform.log_cdf_product, log_cdf,
                                               log_cdf_bound)]
        assert all(np.isfinite(values)) and values == sorted(values)
        # centered: P(Q <= q) = P(chi-square ball) ~ prod sqrt(q / lam_i) * const
        assert values[1] == pytest.approx(0.5 * float(np.sum(np.log(q / lam))), rel=0.05)

    def test_inputs_validated(self):
        with pytest.raises(ParameterError):
            log_cdf([1.0, 2.0], [1.0, 0.5], [[0.0, 1.0]])
        with pytest.raises(ParameterError):
            quadform.log_cdf_product(math.nan, [1.0, 0.5], [[0.0, 1.0]])
        with pytest.raises(ParameterError):
            log_cdf_bound(1.0, [1.0, 0.5], [0.0, 1.0])


class TestOneSolvePerRow:
    """``tails`` reads the Lugannani-Rice value and the Chernoff exponent off
    one saddlepoint solve, so each batch of forms costs one ``_solve``: per
    n in ``posterior`` (four radii, four table rows), in ``concentration``
    (nine offsets, nine rows) and per radius in ``smallball`` (the ball and
    the centered ball, one row)."""

    @pytest.mark.parametrize("pipeline, batch, table_rows", [
        ("posterior", 4, 4), ("concentration", 9, 9), ("smallball", 2, 1)])
    def test_one_solve_per_batch(self, monkeypatch, pipeline, batch, table_rows):
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 64,
                                                         "coupling": {"kind": "banded"}}}))
        calls, solve = [], quadform._solve

        def counting(fn, lam, rows, *args, **kwargs):
            calls.append(rows)
            return solve(fn, lam, rows, *args, **kwargs)

        monkeypatch.setattr(quadform, "_solve", counting)
        record = cl.run_experiment(config, pipelines=[pipeline])
        assert record.failures == {}
        (table,) = record.tables
        assert len(table.rows) >= table_rows
        assert calls == [batch] * (len(table.rows) // table_rows)


def _spectrum(cov, d, what):
    """``quadform.block_spectrum`` on the partition read off ``cov``'s zero
    pattern, each block a Fortran-ordered copy."""
    op = quadform.BlockDiagonal.from_dense(cov, zero_pattern_blocks(cov))
    return quadform.block_spectrum(op, d, what,
                                   lambda lo, hi, p: np.array(p, order="F") if p.ndim == 2 else p)


class TestSpectrum:
    def test_matches_eigh_with_a_zero_eigenvalue(self):
        """A rank-deficient PSD matrix in C order: eigenvalues and projection
        norms against ``eigh``; the rounding of the zeros is never negative."""
        rng = np.random.default_rng(4)
        a = rng.standard_normal((9, 6))
        cov = a @ a.T
        d = rng.standard_normal((9, 2))
        ref_lam, ref_vec = np.linalg.eigh(cov)
        lam, c = _spectrum(cov.copy(), d, "test matrix")
        assert np.all(lam >= 0.0) and np.all(lam[:3] <= 1e-13 * lam[-1])
        np.testing.assert_allclose(lam[3:], ref_lam[3:], rtol=1e-12)
        np.testing.assert_allclose(np.abs(c[3:]), np.abs(ref_vec.T @ d)[3:], rtol=1e-9)
        np.testing.assert_allclose(np.sum(c * c, axis=0), np.sum(d * d, axis=0), rtol=1e-12)

    def test_failure_names_what_was_decomposed(self):
        with pytest.raises(NumericalError, match="rounding floor"):
            _spectrum(-np.eye(3), np.ones(3), "test matrix")

    def test_block_route_matches_one_block(self):
        """A block-diagonal matrix with blocks of 1, 3, 1 and 4 rows: the
        block route gives ``eigh``'s eigenvalues of the whole matrix in the
        same (ascending) order, and projections of equal magnitude; a
        negative eigenvalue names its block's rows."""
        rng = np.random.default_rng(9)
        edges = np.array([0, 1, 4, 5, 9])
        cov = np.zeros((9, 9))
        for lo, hi in zip(edges[:-1], edges[1:]):
            a = rng.standard_normal((hi - lo, hi - lo))
            cov[lo:hi, lo:hi] = a @ a.T
        d = rng.standard_normal((9, 3))
        assert np.array_equal(zero_pattern_blocks(cov), edges)
        lam, c = _spectrum(cov.copy(), d, "test matrix")
        ref_lam, ref_vec = np.linalg.eigh(cov)
        ref_c = ref_vec.T @ d
        assert np.all(np.diff(lam) >= 0)
        assert np.all(np.abs(lam - ref_lam) <= 1e-13 * lam.max())
        assert np.allclose(np.abs(c), np.abs(ref_c), rtol=0, atol=1e-12 * np.abs(d).max())
        cov[1:4, 1:4] *= -1.0
        with pytest.raises(NumericalError, match="rows 1:4 below the rounding floor"):
            _spectrum(cov, d, "test matrix")
        with pytest.raises(NumericalError, match="rows 0:1 below the rounding floor"):
            _spectrum(np.diag([-1.0, 2.0]), np.ones(2), "test matrix")


class TestReflectorsInPlace:
    @pytest.mark.parametrize("n_dim", [2, 3, 40])
    def test_dormqr_reads_dsytrd_output_without_a_copy(self, monkeypatch, n_dim):
        """The reflectors handed to dormqr share memory with dsytrd's output,
        and the projections equal those of dormqr on a copy of the trailing
        (N - 1) x (N - 1) block, bit for bit."""
        reduced, checked = [], []
        reduce, reflect = quadform.dsytrd, quadform.dormqr

        def capturing_reduce(*args, **kwargs):
            out = reduce(*args, **kwargs)
            reduced.append(out[0])
            return out

        def comparing_reflect(side, trans, a, tau, c, lwork):
            out = reflect(side, trans, a, tau, c, lwork)
            copied = reflect(side, trans, np.asfortranarray(reduced[-1][1:, :-1]), tau, c, lwork)
            checked.append(np.shares_memory(a, reduced[-1])
                           and all(np.array_equal(x, y) for x, y in zip(out, copied)))
            return out

        monkeypatch.setattr(quadform, "dsytrd", capturing_reduce)
        monkeypatch.setattr(quadform, "dormqr", comparing_reflect)
        rng = np.random.default_rng(n_dim)
        a = rng.standard_normal((n_dim, n_dim))
        _spectrum(np.asfortranarray(a @ a.T), rng.standard_normal((n_dim, 3)), "test")
        assert checked == [True, True]


def _config_problem(problem: dict):
    return build_problem(cl.parse_config(json.dumps({"problem": {"n_dim": 48, **problem}})))


class TestBlockRuns:
    def test_runs_of_one_row_blocks_merge(self):
        def block_runs(edges):
            return list(quadform.BlockDiagonal.from_dense(np.eye(edges[-1]), edges).segments)

        edges = [0, 1, 2, 4, 5, 6, 9, 10]
        assert block_runs(edges) == [(0, 2, True), (2, 4, False), (4, 6, True),
                                     (6, 9, False), (9, 10, True)]
        assert block_runs(np.arange(513)) == [(0, 512, True)]
        assert block_runs([0, 5]) == [(0, 5, False)]
        assert block_runs([0, 2, 5]) == [(0, 2, False), (2, 5, False)]


class TestDiagonalBlocks:
    """The partition read off a symmetric operator's exact zero pattern (the
    reference in ``block_reference``) is the coupling's own."""

    def test_banded_coupling_gives_its_own_partition(self):
        from contraction_lab.rng import substream
        from contraction_lab.spectral import _banded_blocks

        n, kind = 200, cl.BandedCoupling()
        prob = cl.InverseProblem(cl.make_spectrum(cl.MildFamily(1.0), n),
                                 cl.make_coupling(kind, n, seed=3),
                                 cl.power_law_prior(1.0, n), cl.white_noise(n), n)
        own = _banded_blocks(n, kind.lo_ratio, kind.hi_ratio, substream(3, "banded-coupling"))
        edges = np.array([a - 1 for a, _ in own] + [n])
        assert len(own) > 1
        assert np.array_equal(prob.coupling.blocks, edges)
        assert np.array_equal(zero_pattern_blocks(prob.whitened_gram.dense()), edges)
        assert np.array_equal(zero_pattern_blocks(cl.posterior_precision(prob, 1e4).dense()),
                              edges)

    def test_identity_coupling_gives_singletons(self):
        prob = _config_problem({"coupling": {"kind": "identity"}})
        assert np.array_equal(zero_pattern_blocks(prob.whitened_gram.dense()), np.arange(49))

    @pytest.mark.parametrize("problem", [
        {"coupling": {"kind": "reflection", "v": [1.0] * 48}},
        {"prior": {"family": "hilbert_scale", "t": 1.0, "l": 2.0}},
        {"noise": {"kind": "colored", "r": 0.5}},
        {"noise": {"kind": "dense", "matrix": (np.eye(48) + 0.01).tolist()}},
    ], ids=["reflection", "hilbert_scale", "colored", "dense"])
    def test_dense_problems_are_one_block(self, problem):
        gram = _config_problem(problem).whitened_gram.dense()
        assert np.array_equal(zero_pattern_blocks(gram), [0, 48])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_hand_made_pattern(self, order):
        """Blocks {0}, {1, 2, 3} (row 2 is joined only by the entry that
        couples rows 1 and 3), {4} and {5, 6}, the last one ending on the last
        row. A zero row is a block of its own, and an entry on either side of
        the diagonal joins its row and column. The coupling's one-pass scan
        reads the reference's partition in either memory order."""
        def blocks(mat):
            mat = np.array(mat, order=order)
            edges = _coupling_blocks(mat)
            assert np.array_equal(edges, zero_pattern_blocks(mat))
            return edges

        mat = np.diag([1.0, 2.0, 3.0, 4.0, 0.0, 6.0, 7.0])
        mat[3, 1] = 0.5
        mat[5, 6] = -0.25
        assert np.array_equal(blocks(mat), [0, 1, 4, 5, 7])
        mat[0, 2] = 1.0
        assert np.array_equal(blocks(mat), [0, 4, 5, 7])
        mat[0, 2], mat[2, 0] = 0.0, 1.0
        assert np.array_equal(blocks(mat), [0, 4, 5, 7])
        mat[6, 4] = 1.0
        assert np.array_equal(blocks(mat), [0, 4, 7])
        assert np.array_equal(blocks(np.ones((1, 1))), [0, 1])


class TestBlockDiagonal:
    """The one block-diagonal operator type: edges checked once, runs of
    one-row blocks held as vectors, read-only parts wherever the package
    holds one, and no implicit densification."""

    def test_segments_and_parts(self):
        mat = np.arange(1.0, 37.0).reshape(6, 6)
        op = quadform.BlockDiagonal.from_dense(mat, [0, 1, 2, 4, 5, 6])
        assert op.segments == ((0, 2, True), (2, 4, False), (4, 6, True))
        assert [p.shape for p in op.parts] == [(2,), (2, 2), (2,)]
        assert np.array_equal(op.parts[0], [1.0, 8.0]) and np.shares_memory(op.parts[1], mat)
        dense = op.dense()
        assert dense.flags.f_contiguous
        ref = np.diag(np.diag(mat))
        ref[2:4, 2:4] = mat[2:4, 2:4]
        assert np.array_equal(dense, ref)
        assert op.square_sum() == float(np.sum(dense**2))
        whole = quadform.BlockDiagonal.from_dense(mat)
        assert whole.parts[0] is mat and whole.dense() is mat and whole.n_dim == 6
        assert not hasattr(quadform.BlockDiagonal, "__array__")

    @pytest.mark.parametrize("edges", [[0, 3, 2, 6], [1, 6], [0], [[0, 6]], [0, 2, 5], [0, 2, 7]])
    def test_bad_edges_raise(self, edges):
        with pytest.raises(ParameterError, match="blocks"):
            quadform.BlockDiagonal.from_dense(np.eye(6), edges)

    def test_part_of_the_wrong_shape_raises(self):
        with pytest.raises(ParameterError, match="part 0:2 has shape"):
            quadform.BlockDiagonal([0, 2, 3], lambda lo, hi, run: np.ones(hi - lo))

    def test_operators_the_package_holds_are_read_only(self):
        config = cl.parse_config(json.dumps({"problem": {"n_dim": 64,
                                                         "coupling": {"kind": "banded"}}}))
        prob = build_problem(config)
        factor = cl.factor_posterior(prob, 1e3)
        held = [prob.whitened_gram, factor._precision_chol, cl.coupled_pushforward_cov(prob),
                cl.diagonal_pushforward_cov(prob), factor.condition(np.zeros(64)).cov_factor]
        assert any(p.ndim == 1 for op in held for p in op.parts)
        for op in held:
            for part in op.parts:
                with pytest.raises(ValueError, match="read-only"):
                    part[0] = 1.0

    def test_identity_problem_is_one_run_of_vectors(self):
        prob = _config_problem({"coupling": {"kind": "identity"}})
        for op in (prob.whitened_gram, cl.posterior_precision(prob, 1e3),
                   cl.factor_posterior(prob, 1e3)._precision_chol,
                   cl.coupled_pushforward_cov(prob), cl.diagonal_pushforward_cov(prob)):
            assert op.segments == ((0, 48, True),) and op.parts[0].shape == (48,)

"""Closed-form contraction exponents and their empirical measurement.

The closed forms give the power of n at which posterior balls around the
truth shrink for polynomially ill-posed operators with power-law Gaussian
priors; colored noise in a Hilbert scale enters through an effective truth
smoothness. The empirical side simulates the full pipeline over an n-grid,
extracts per-n contraction radii by a double quantile rule, and fits the
log-log slope. A finite-dimensional experiment with a non-Gaussian prior
exercises the ``sqrt(log n / n)`` regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, stdtrit

from . import quadform
from .errors import ParameterError
from .rng import derive_seed, substream
from .spectral import InverseProblem, SevereFamily, as_vector, forward_apply
from .posterior import ExceedanceEstimate, PosteriorFactor, factor_posterior, snis_exceedance
from .assumptions import RateConstants, RatePlan


# ---------------------------------------------------------------------------
# Closed-form exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhiteDiagonal:
    pass


@dataclass(frozen=True)
class Colored:
    """Colored-noise variant: noise smoothing r, prior scale exponents t, l."""

    r: float
    t: float
    l: float


@dataclass(frozen=True)
class TheoryParams:
    """Ill-posedness alpha, prior smoothness delta, truth smoothness gamma."""

    alpha: float
    delta: float
    gamma: float
    variant: WhiteDiagonal | Colored = WhiteDiagonal()

    def __post_init__(self):
        if self.alpha < 0:
            raise ParameterError("alpha must be >= 0")
        if self.delta <= 0 or self.gamma <= 0:
            raise ParameterError("delta and gamma must be positive")
        if isinstance(self.variant, Colored):
            v = self.variant
            if not (0 < v.r < 1):
                raise ParameterError("colored variant requires r in (0, 1)")
            if v.t <= 1 - v.r:
                raise ParameterError("colored variant requires t > 1 - r")
            if not (0 < v.l <= 2):
                raise ParameterError("colored variant requires l in (0, 2]")

    @property
    def effective_gamma(self) -> float:
        if isinstance(self.variant, Colored):
            return self.gamma * (1 - self.variant.r) / self.variant.t
        return self.gamma


@dataclass(frozen=True)
class RateExponents:
    eps_exponent: float
    xi_exponent: float
    kn_exponent: float


def theory_rates(params: TheoryParams) -> RateExponents:
    """Closed-form exponents: radius n^xi, forward ball n^eps, cutoff n^kn."""
    denom = 2 * params.alpha + 2 * params.delta + 1
    smooth = min(params.effective_gamma, params.delta)
    return RateExponents(eps_exponent=-(params.alpha + smooth) / denom,
                         xi_exponent=-smooth / denom,
                         kn_exponent=1.0 / denom)


def plan_from_theory(params: TheoryParams, n_level: float, n_dim: int,
                     constants: RateConstants | None = None,
                     r_n: int | None = None) -> RatePlan:
    """Instantiate a rate plan from the closed-form exponents at one n."""
    if n_level <= 1:
        raise ParameterError("n_level must exceed 1 for a meaningful plan")
    exps = theory_rates(params)
    eps = min(1.0, n_level**exps.eps_exponent)
    xi = min(1.0, n_level**exps.xi_exponent)
    k_n = int(min(n_dim, max(1, round(n_level**exps.kn_exponent))))
    return RatePlan(eps_n=eps, xi_n=xi, k_n=k_n, r_n=r_n,
                    constants=constants or RateConstants(), n_level=n_level)


# ---------------------------------------------------------------------------
# Empirical contraction-rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RateFit:
    """Per-n contraction radii and the fitted log-log slope."""

    n_grid: np.ndarray
    xi_hat: np.ndarray
    slope: float
    slope_ci: tuple[float, float]
    delta_level: float
    y_replicates: int
    exceedance_frac: np.ndarray
    # n-grid points dropped from the fit; the exact radius search drops none
    # (a failed solve raises NumericalError instead).
    failures: tuple[float, ...] = ()
    exploratory: bool = False

    def __post_init__(self):
        if len(self.xi_hat) != len(self.n_grid):
            raise ParameterError("xi_hat and n_grid must have equal length")


def _replicate_distances(problem: InverseProblem, g_u0: np.ndarray, n_level: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Data draw ``y = G u0 + zeta^(1/2) z / sqrt(n)`` of one rate-fit
    replicate from its own stream ``rng``; ``g_u0 = G u0``.

    The fit calls it once per replicate and then hands the draws of all
    replicates of one n to ``_posterior_radii``; perfbench times this binding
    as one rate-fit replicate.
    """
    z = rng.standard_normal(problem.n_dim)
    return g_u0 + problem.noise_color(z) / math.sqrt(n_level)


def _posterior_radii(factor: PosteriorFactor, u0: np.ndarray, delta_level: float,
                     ys: np.ndarray) -> np.ndarray:
    """Exact (1 - delta) posterior radii around u0, one per column of the
    (N, R) data block ``ys``.

    In the eigenbasis V of the posterior covariance the squared distance of a
    posterior draw from u0 is ``sum_i (c_i + sqrt(lam_i) Z_i)**2`` with
    ``c = V^T (mean - u0)``; its upper delta-quantile comes from the
    saddlepoint kernel rather than from posterior samples. ``lam`` and the R
    projections come from one tridiagonal reduction of the covariance, and V
    is never formed.
    """
    lam, c = factor.covariance_spectrum(factor.mean(ys) - u0[:, None])
    c = c.T.copy()  # row r: V^T (mean_r - u0)
    return np.sqrt(quadform.quantiles(delta_level, lam, c * c))


def fit_contraction_rate(problem: InverseProblem, u0: np.ndarray, n_grid,
                         delta_level: float, y_replicates: int,
                         seed: int) -> RateFit:
    """Measure contraction radii over an n-grid and fit the log-log slope.

    For each n the radius is the smallest one such that at least a
    (1 - delta) fraction of data replicates put posterior mass at most delta
    outside the ball: the ceil((1 - delta) R)-th smallest of the replicates'
    exact (1 - delta) posterior radii. Only the data are sampled; each
    replicate's radius is a saddlepoint quantile over the eigenvalues of the
    posterior covariance. Per n the replicates share one mean solve, one
    tridiagonal reduction of the covariance that yields the eigenvalues and
    their projections without eigenvectors, and one batched quantile solve.
    """
    n_grid = np.array(n_grid, dtype=float)
    if n_grid.ndim != 1 or len(n_grid) < 4:
        raise ParameterError("n_grid needs at least 4 points")
    if np.any(np.diff(n_grid) <= 0):
        raise ParameterError("n_grid must be strictly increasing")
    if np.any(n_grid <= 0):
        raise ParameterError("n_grid entries must be positive")
    if not (0 < delta_level < 0.5):
        raise ParameterError("delta_level must lie in (0, 0.5)")
    if y_replicates < 1:
        raise ParameterError("y_replicates >= 1 required")
    u0 = as_vector(u0, problem.n_dim, "u0")

    rank = math.ceil((1 - delta_level) * y_replicates)
    g_u0 = forward_apply(problem, u0)
    xi_hat, exceed_frac = [], []
    for i, n in enumerate(n_grid):
        factor = factor_posterior(problem, n)
        ys = np.column_stack([_replicate_distances(problem, g_u0, n,
                                                   substream(seed, "rate-fit", i, rep))
                              for rep in range(y_replicates)])
        radii = _posterior_radii(factor, u0, delta_level, ys)
        radii.sort()
        xi_hat.append(float(radii[rank - 1]))
        exceed_frac.append(np.count_nonzero(radii <= radii[rank - 1]) / y_replicates)

    log_n = np.log(n_grid)
    log_xi = np.log(np.asarray(xi_hat))
    slope, intercept = np.polyfit(log_n, log_xi, 1)
    resid = log_xi - (slope * log_n + intercept)
    dof = len(n_grid) - 2
    s2 = float(resid @ resid) / dof
    sxx = float(np.sum((log_n - log_n.mean()) ** 2))
    se = math.sqrt(s2 / sxx)
    width = float(stdtrit(dof, 0.975)) * se
    return RateFit(n_grid=n_grid, xi_hat=np.asarray(xi_hat),
                   slope=float(slope), slope_ci=(float(slope - width), float(slope + width)),
                   delta_level=delta_level, y_replicates=y_replicates,
                   exceedance_frac=np.asarray(exceed_frac),
                   exploratory=isinstance(problem.operator.family, SevereFamily))


# ---------------------------------------------------------------------------
# Finite-dimensional experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GaussianMixturePrior:
    """Finite Gaussian mixture with diagonal components; positive continuous
    density, so small balls carry mass of order radius**p."""

    weights: np.ndarray
    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        s = np.atleast_2d(np.asarray(self.sds, dtype=float))
        if w.ndim != 1 or m.shape != s.shape or m.shape[0] != w.size:
            raise ParameterError("mixture weights, means and sds are inconsistent")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12 or np.any(s <= 0):
            raise ParameterError("weights must be a positive distribution and sds positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sds", s)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        comp = rng.choice(self.weights.size, size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        return self.means[comp] + self.sds[comp] * z


def two_component_mixture(p: int = 1) -> GaussianMixturePrior:
    """Default non-Gaussian prior: two well-separated diagonal components."""
    return GaussianMixturePrior(weights=np.array([0.6, 0.4]),
                                means=np.stack([-np.ones(p), np.ones(p)]),
                                sds=np.stack([np.ones(p), 1.5 * np.ones(p)]))


@dataclass(frozen=True, eq=False)
class FiniteDimExperiment:
    """Injective linear model between finite-dimensional spaces with white
    noise; the prior only needs to be sampleable with a positive continuous
    density."""

    p: int
    q: int
    g_matrix: np.ndarray
    prior: GaussianMixturePrior
    m_const: float

    def __post_init__(self):
        if not (1 <= self.p <= self.q):
            raise ParameterError("need q >= p >= 1")
        g = np.asarray(self.g_matrix, dtype=float).reshape(self.q, self.p)
        object.__setattr__(self, "g_matrix", g)
        if np.linalg.svd(g, compute_uv=False).min() <= 0:
            raise ParameterError("g_matrix must have full column rank")
        if self.m_const <= 0:
            raise ParameterError("m_const must be positive")
        if self.prior.dim != self.p:
            raise ParameterError("prior dimension must equal p")


def finite_dim_exceedance_given_y(exp: FiniteDimExperiment, y: np.ndarray,
                                  u0: np.ndarray, n_level: float, xi: float,
                                  mc: int, seed: int) -> ExceedanceEstimate:
    """Self-normalized prior-sampling posterior exceedance for fixed data.

    The data enter only through the projection of y onto the model range in
    the Euclidean inner product, so off-range components cancel exactly.
    """
    if mc < 1000:
        raise ParameterError("mc must be >= 1000")
    if xi < 0 or n_level <= 0:
        raise ParameterError("xi >= 0 and n_level > 0 required")
    g = exp.g_matrix
    u_proj = np.linalg.lstsq(g, np.asarray(y, dtype=float), rcond=None)[0]

    rng = substream(seed, "findim-mc")
    draws = exp.prior.sample(rng, mc)
    resid = g @ (draws - u_proj[None, :]).T
    log_w = -0.5 * n_level * np.einsum("ij,ij->j", resid, resid)
    return snis_exceedance(log_w, np.linalg.norm(draws - np.asarray(u0)[None, :], axis=1), xi)


def simulate_finite_dim(exp: FiniteDimExperiment, u0: np.ndarray, n_level: float,
                        seed: int) -> np.ndarray:
    rng = substream(seed, "findim-data")
    z = rng.standard_normal(exp.q)
    return exp.g_matrix @ np.asarray(u0, dtype=float) + z / math.sqrt(n_level)


# -- exact posterior for one-dimensional mixture priors ----------------------

def _mixture_posterior_1d(exp: FiniteDimExperiment, u_proj: float,
                          n_level: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component weights, means and sds of the exact mixture posterior."""
    mw = exp.g_matrix[:, 0]
    like_prec = n_level * float(mw @ mw)
    means = exp.prior.means[:, 0]
    sds = exp.prior.sds[:, 0]
    post_var = 1.0 / (1.0 / sds**2 + like_prec)
    post_mean = post_var * (means / sds**2 + like_prec * u_proj)
    evidence_sd = np.sqrt(sds**2 + 1.0 / like_prec)
    # Normal log-density of u_proj; its operation order is pinned to the bit by
    # tests/test_rates.py::TestSpecialFunctionsBitIdentical.
    z = (u_proj - means) / evidence_sd
    log_w = np.log(exp.prior.weights) + (-z**2 / 2.0 - np.log(np.sqrt(2 * np.pi))
                                         - np.log(evidence_sd))
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum(), post_mean, np.sqrt(post_var)


def finite_dim_exceedance_exact_1d(exp: FiniteDimExperiment, y: np.ndarray,
                                   u0: float, n_level: float, xi: float) -> float:
    """Exact posterior exceedance for p = 1 via the conjugate mixture form."""
    if exp.p != 1:
        raise ParameterError("exact route requires p = 1")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u_proj = float(np.linalg.lstsq(exp.g_matrix, y, rcond=None)[0][0])
    wts, means, sds = _mixture_posterior_1d(exp, u_proj, n_level)
    upper = ndtr(-((u0 + xi - means) / sds))
    lower = ndtr((u0 - xi - means) / sds)
    return float(np.sum(wts * (upper + lower)))


@dataclass(frozen=True, eq=False)
class FiniteDimRateTable:
    n_grid: np.ndarray
    mean_exceedance: np.ndarray
    max_ratio: np.ndarray
    diagnostic_counts: np.ndarray
    method: str
    ratios: dict = field(default_factory=dict)


def finite_dim_rate_run(exp: FiniteDimExperiment, u0: np.ndarray, n_grid,
                        mc: int, y_replicates: int, seed: int) -> FiniteDimRateTable:
    """Mean exceedance at radius ``m_const sqrt(log n / n)`` over an n-grid.

    For data realizations landing close to the noiseless observation, the
    table also reports the ratio of their exceedance to the noiseless-data
    exceedance at half the radius. In one dimension with a mixture prior
    both quantities are computed from the exact conjugate mixture (the
    probabilities fall far below Monte Carlo resolution on this grid);
    otherwise the importance-sampled estimates are used.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    if np.any(np.diff(n_grid) <= 0) or np.any(n_grid < 3):
        raise ParameterError("n_grid must be increasing with all entries >= 3")
    u0 = np.asarray(u0, dtype=float).reshape(exp.p)
    k1 = float(np.linalg.svd(exp.g_matrix, compute_uv=False).min()) / 2.0
    exact = exp.p == 1

    mean_exc, max_ratio, counts = [], [], []
    ratios: dict[float, list[float]] = {}
    for i, n in enumerate(n_grid):
        xi_n = exp.m_const * math.sqrt(math.log(n) / n)
        if exact:
            denom = finite_dim_exceedance_exact_1d(exp, exp.g_matrix @ u0, float(u0[0]),
                                                   n, xi_n / 2.0)
        else:
            denom = finite_dim_exceedance_given_y(exp, exp.g_matrix @ u0, u0, n,
                                                  xi_n / 2.0, mc,
                                                  seed=derive_seed(seed, i, "denom")).value
        values, cell_ratios = [], []
        for rep in range(y_replicates):
            cell_seed = derive_seed(seed, i, rep)
            y = simulate_finite_dim(exp, u0, n, cell_seed)
            if exact:
                val = finite_dim_exceedance_exact_1d(exp, y, float(u0[0]), n, xi_n)
            else:
                val = finite_dim_exceedance_given_y(exp, y, u0, n, xi_n, mc, cell_seed).value
            values.append(val)
            misfit = float(np.linalg.norm(y - exp.g_matrix @ u0))
            if misfit < k1 * xi_n:
                cell_ratios.append(val / denom if denom > 0 else math.inf)
        mean_exc.append(float(np.mean(values)))
        max_ratio.append(max(cell_ratios) if cell_ratios else math.nan)
        counts.append(len(cell_ratios))
        ratios[float(n)] = cell_ratios
    return FiniteDimRateTable(n_grid=n_grid, mean_exceedance=np.asarray(mean_exc),
                              max_ratio=np.asarray(max_ratio),
                              diagnostic_counts=np.asarray(counts),
                              method="exact-mixture" if exact else "snis",
                              ratios=ratios)

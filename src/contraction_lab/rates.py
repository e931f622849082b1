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
from .spectral import InverseProblem, SevereFamily, as_vector, check_noise_level, forward_apply
from .posterior import PosteriorFactor, factor_posterior
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
        if not self.alpha >= 0:
            raise ParameterError("alpha must be >= 0")
        if not (self.delta > 0 and self.gamma > 0):
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
    if not 1 < n_level < math.inf:
        raise ParameterError("n_level must be finite and exceed 1 for a meaningful plan")
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
    projections come from one tridiagonal reduction per diagonal block of
    the covariance, and V is never formed.
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
    tridiagonal reduction per diagonal block of the covariance that yields
    the eigenvalues and their projections without eigenvectors, and one
    batched quantile solve.
    """
    n_grid = np.array(n_grid, dtype=float)
    if n_grid.ndim != 1 or len(n_grid) < 4:
        raise ParameterError("n_grid needs at least 4 points")
    if np.any(np.diff(n_grid) <= 0):
        raise ParameterError("n_grid must be strictly increasing")
    if not np.all((n_grid > 0) & (n_grid < math.inf)):
        raise ParameterError("n_grid entries must be positive and finite")
    if not (0 < delta_level < 0.5):
        raise ParameterError("delta_level must lie in (0, 0.5)")
    if y_replicates < 1:
        raise ParameterError("y_replicates >= 1 required")
    u0 = as_vector(u0, problem.n_dim, "u0")

    rank = math.ceil((1 - delta_level) * y_replicates)
    g_u0 = forward_apply(problem, u0)
    xi_hat, exceed_frac = [], []
    for i, n in enumerate(n_grid):
        ys = np.column_stack([_replicate_distances(problem, g_u0, n,
                                                   substream(seed, "rate-fit", i, rep))
                              for rep in range(y_replicates)])
        # No name holds the factor, so it is freed before the next n's.
        radii = _posterior_radii(factor_posterior(problem, n), u0, delta_level, ys)
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
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-12
                and np.all(np.isfinite(m) & (s > 0) & (s < math.inf))):
            raise ParameterError("weights must be a positive distribution, sds positive, all finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "sds", s)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def two_component_mixture(p: int = 1) -> GaussianMixturePrior:
    """Default non-Gaussian prior: two well-separated diagonal components."""
    return GaussianMixturePrior(weights=np.array([0.6, 0.4]),
                                means=np.stack([-np.ones(p), np.ones(p)]),
                                sds=np.stack([np.ones(p), 1.5 * np.ones(p)]))


@dataclass(frozen=True, eq=False)
class FiniteDimExperiment:
    """Injective linear model between finite-dimensional spaces with white
    noise and a Gaussian mixture prior, so the posterior is a Gaussian
    mixture too."""

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
        if not np.all(np.isfinite(g)) or np.linalg.svd(g, compute_uv=False).min() <= 0:
            raise ParameterError("g_matrix must be finite with full column rank")
        if not self.m_const > 0:
            raise ParameterError("m_const must be positive")
        if self.prior.dim != self.p:
            raise ParameterError("prior dimension must equal p")


def simulate_finite_dim(exp: FiniteDimExperiment, u0: np.ndarray, n_level: float,
                        seed: int) -> np.ndarray:
    rng = substream(seed, "findim-data")
    z = rng.standard_normal(exp.q)
    return exp.g_matrix @ np.asarray(u0, dtype=float) + z / math.sqrt(n_level)


def _mixture_posterior(exp: FiniteDimExperiment, u_proj: np.ndarray,
                       n_level: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact mixture posterior given the range projections of the data,
    one per row of the (R, p) ``u_proj``.

    Component j has precision ``diag(1/s_j^2) + n G^T G`` and a weight
    proportional to ``w_j N(u_proj; mu_j, diag(s_j^2) + (n G^T G)^-1)``.
    Returns the (R, J) weights, the (R, J, p) means and the (J, p, p)
    covariances, which do not depend on the data. At p = 1 each step is the
    scalar closed form in the operation order that
    tests/test_rates.py::TestSpecialFunctionsBitIdentical pins to the bit.
    """
    gram = n_level * (exp.g_matrix.T @ exp.g_matrix)
    means, var = exp.prior.means, exp.prior.sds**2
    diag = np.eye(exp.p, dtype=bool)
    prec = np.where(diag, 1.0 / var[:, :, None], 0.0) + gram
    cov = np.linalg.inv(prec)
    post_mean = np.einsum("jab,rjb->rja", cov, means / var + (u_proj @ gram)[:, None, :])
    # Normal log-density of u_proj, z = L^-1 (u_proj - mu_j) by forward
    # substitution with L the Cholesky factor of the evidence covariance.
    root = np.linalg.cholesky(np.where(diag, var[:, :, None], 0.0) + np.linalg.inv(gram))
    d = u_proj[:, None, :] - means
    z = np.zeros_like(d)
    for i in range(exp.p):
        z[..., i] = (d[..., i] - np.einsum("rjk,jk->rj", z[..., :i], root[:, i, :i])) \
            / root[:, i, i]
    log_det = np.sum(np.log(np.diagonal(root, axis1=1, axis2=2)), axis=1)
    log_w = np.log(exp.prior.weights) + (-np.sum(z**2, axis=2) / 2.0
                                         - exp.p * np.log(np.sqrt(2 * np.pi)) - log_det)
    log_w -= log_w.max(axis=1, keepdims=True)
    w = np.exp(log_w)
    return w / w.sum(axis=1, keepdims=True), post_mean, cov


def finite_dim_exceedance(exp: FiniteDimExperiment, y, u0, n_level: float, xi):
    """Exact posterior mass outside the ball of radius ``xi`` around the
    length-p ``u0``, from the mixture posterior: a float for one length-q
    datum ``y``, and one value per row for an (R, q) block, with ``xi`` one
    radius or one per row.

    The data enter only through their projection onto the model range. Each
    component's mass is a tail of ``||u - u0||^2``: ``ndtr`` of the standard
    score at p = 1, and at p >= 2 the Lugannani-Rice tail
    ``-expm1(quadform.tails(xi^2, lam_j, c_j^2).log_cdf)`` over the eigenvalues
    ``lam_j`` of the component's covariance, one call per component for all
    rows.
    """
    check_noise_level(n_level)
    u0 = as_vector(u0, exp.p, "u0")
    ys = np.asarray(y, dtype=float)
    if ys.ndim not in (1, 2) or ys.shape[-1] != exp.q:
        raise ParameterError(f"y must be a length-{exp.q} vector or an (R, {exp.q}) block, "
                             f"got shape {ys.shape}")
    rows = np.atleast_2d(ys)
    xi = np.asarray(xi, dtype=float)
    if xi.shape not in ((), rows.shape[:1]) or not np.all(xi >= 0):
        raise ParameterError(f"xi must be nonnegative, one radius or one per row, "
                             f"got {xi.tolist()}")
    xi = np.broadcast_to(xi, rows.shape[:1])
    # One solve per row, so a row's bits do not depend on the block around it.
    u_proj = np.array([np.linalg.lstsq(exp.g_matrix, row, rcond=None)[0] for row in rows])
    wts, means, cov = _mixture_posterior(exp, u_proj, n_level)
    if exp.p == 1:
        sds, x, m = np.sqrt(cov[:, 0, 0]), xi[:, None], means[..., 0]
        tails = ndtr(-((u0[0] + x - m) / sds)) + ndtr((u0[0] - x - m) / sds)
    else:
        tails = np.empty(wts.shape)
        for j, c in enumerate(cov):
            lam, vecs = np.linalg.eigh(c)
            proj = (means[:, j] - u0) @ vecs
            tails[:, j] = -np.expm1(quadform.tails(xi * xi, lam, proj * proj).log_cdf)
    out = np.sum(wts * tails, axis=1)
    return float(out[0]) if ys.ndim == 1 else out


@dataclass(frozen=True, eq=False)
class FiniteDimRateTable:
    n_grid: np.ndarray
    mean_exceedance: np.ndarray
    max_ratio: np.ndarray
    diagnostic_counts: np.ndarray
    method: str
    tail: str
    ratios: dict = field(default_factory=dict)


def finite_dim_rate_run(exp: FiniteDimExperiment, u0: np.ndarray, n_grid,
                        y_replicates: int, seed: int) -> FiniteDimRateTable:
    """Mean exceedance at radius ``m_const sqrt(log n / n)`` over an n-grid.

    For data realizations landing close to the noiseless observation, the
    table also reports the ratio of their exceedance to the noiseless-data
    exceedance at half the radius. Both come from the exact mixture
    posterior (the probabilities fall far below Monte Carlo resolution on
    this grid): per n, one ``finite_dim_exceedance`` of the replicates' data
    with the noiseless datum as its last row. Only the data are drawn.
    """
    n_grid = np.asarray(n_grid, dtype=float)
    if not np.all(np.isfinite(n_grid)):
        raise ParameterError("n_grid entries must be finite")
    if np.any(np.diff(n_grid) <= 0) or np.any(n_grid < 3):
        raise ParameterError("n_grid must be increasing with all entries >= 3")
    if y_replicates < 1:
        raise ParameterError("y_replicates must be >= 1")
    u0 = np.asarray(u0, dtype=float).reshape(exp.p)
    g_u0 = exp.g_matrix @ u0
    k1 = float(np.linalg.svd(exp.g_matrix, compute_uv=False).min()) / 2.0

    mean_exc, max_ratio, counts = [], [], []
    ratios: dict[float, list[float]] = {}
    for i, n in enumerate(n_grid):
        xi_n = exp.m_const * math.sqrt(math.log(n) / n)
        ys = [simulate_finite_dim(exp, u0, n, derive_seed(seed, i, rep))
              for rep in range(y_replicates)]
        xis = np.append(np.full(y_replicates, xi_n), xi_n / 2.0)
        *values, denom = finite_dim_exceedance(exp, np.vstack(ys + [g_u0]), u0, n, xis).tolist()
        cell_ratios = [val / denom if denom > 0 else math.inf
                       for y, val in zip(ys, values)
                       if float(np.linalg.norm(y - g_u0)) < k1 * xi_n]
        mean_exc.append(float(np.mean(values)))
        max_ratio.append(max(cell_ratios) if cell_ratios else math.nan)
        counts.append(len(cell_ratios))
        ratios[float(n)] = cell_ratios
    return FiniteDimRateTable(n_grid=n_grid, mean_exceedance=np.asarray(mean_exc),
                              max_ratio=np.asarray(max_ratio),
                              diagnostic_counts=np.asarray(counts), method="exact-mixture",
                              tail="normal-cdf" if exp.p == 1 else "lugannani-rice",
                              ratios=ratios)

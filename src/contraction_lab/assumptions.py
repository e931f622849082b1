"""Numerical checks of the quantities that drive posterior contraction.

The central object is the worst-case whitened norm of the inverted forward
map over the leading prior-basis directions (``g``), computed exactly as the
top eigenvalue of a small Gram matrix. Around it sit Monte Carlo and
Chernoff evaluations of small-ball masses and projection tails, eigenvalue
sandwich comparisons, Hilbert-Schmidt truncation diagnostics, and the
concentration behaviour of the linear plug-in reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadform
from .errors import ParameterError
from .rng import substream
from .spectral import (
    ExpSkewCoupling,
    InverseProblem,
    DataSample,
    ReflectionCoupling,
    as_vector,
    forward_apply,
)

_WILSON_Z = 1.959963984540054  # two-sided 95%


# ---------------------------------------------------------------------------
# Plans and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateConstants:
    """Free constants of the contraction inequalities."""

    c: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    r: float = 1.0

    def __post_init__(self):
        for name in ("c", "c1", "c2", "r"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"constant {name} must be positive")


@dataclass(frozen=True)
class RatePlan:
    """Candidate sequences at one noise level; ``r_n = None`` means infinity."""

    eps_n: float
    xi_n: float
    k_n: int
    r_n: int | None
    constants: RateConstants
    n_level: float

    def __post_init__(self):
        if not (0 < self.eps_n <= 1) or not (0 < self.xi_n <= 1):
            raise ParameterError("eps_n and xi_n must lie in (0, 1]")
        if self.k_n < 1:
            raise ParameterError("k_n must be >= 1")
        if self.r_n is not None and self.r_n < 1:
            raise ParameterError("r_n must be >= 1 or None (infinite)")
        if self.n_level <= 0:
            raise ParameterError("n_level must be positive")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    measured: float
    bound: float


@dataclass(frozen=True, eq=False)
class AssumptionReport:
    """Outcome of every contraction-assumption inequality, with the two
    numbers behind each boolean."""

    small_ball: CheckResult
    tail: CheckResult
    g: CheckResult
    kn: CheckResult
    g_value: float
    truth_ratio: float
    finite_r_evidence: bool
    details: dict = field(default_factory=dict)

    @property
    def small_ball_ok(self) -> bool:
        return self.small_ball.ok

    @property
    def tail_ok(self) -> bool:
        return self.tail.ok

    @property
    def g_ok(self) -> bool:
        return self.g.ok

    @property
    def kn_ok(self) -> bool:
        return self.kn.ok

    @property
    def all_ok(self) -> bool:
        return self.small_ball.ok and self.tail.ok and self.g.ok and self.kn.ok


@dataclass(frozen=True)
class SmallBallReport:
    """Monte Carlo small-ball mass with its shifted lower-bound certificate.

    ``shift_cost`` is half the squared prior Cameron-Martin norm of the
    truncated forward expansion of the center, so
    ``log_prob >= centered_log_prob - shift_cost`` up to Monte Carlo slack.
    """

    log_prob: float
    ci_halfwidth: float
    centered_log_prob: float
    centered_ci_halfwidth: float
    shift_cost: float
    eps: float
    truncation_index: int
    upper_bound_only: bool = False

    def __post_init__(self):
        if self.log_prob > 0 or self.shift_cost < 0:
            raise ParameterError("log_prob must be <= 0 and shift_cost >= 0")

    def shift_bound_satisfied(self) -> bool:
        slack = self.ci_halfwidth + self.centered_ci_halfwidth
        if not np.isfinite(slack):
            return True
        return self.log_prob >= self.centered_log_prob - self.shift_cost - slack


@dataclass(frozen=True, eq=False)
class PlugInEstimate:
    """Linear spectral reconstruction with its concentration scale."""

    u_hat: np.ndarray
    k: int
    r: int
    sigma0_sq: float

    def __post_init__(self):
        if self.sigma0_sq <= 0:
            raise ParameterError("sigma0_sq must be positive")


# ---------------------------------------------------------------------------
# The g quantities
# ---------------------------------------------------------------------------

def compute_g_kr(problem: InverseProblem, k: int, r: int) -> float:
    """Largest squared whitened norm of the projected inverse adjoint over
    unit vectors in the span of the first k prior-basis directions.

    Computed exactly as the top eigenvalue of the k x k Gram matrix of the
    restricted columns ``zeta^(1/2) P_r diag(1/rho) T[:, :k]``.
    """
    if not (1 <= k <= problem.n_dim) or not (1 <= r <= problem.n_dim):
        raise ParameterError("k and r must lie in [1, n_dim]")
    cols = problem.noise_color(_plug_in_columns(problem, k, r))
    gram = cols.T @ cols
    return float(np.linalg.eigvalsh(gram)[-1])


def compute_g_k(problem: InverseProblem, k: int) -> float:
    """g with no e-projection: the truncation plays the infinite cutoff."""
    return compute_g_kr(problem, k, problem.n_dim)


# ---------------------------------------------------------------------------
# Small-ball mass
# ---------------------------------------------------------------------------

def _wilson_interval(hits: int, count: int) -> tuple[float, float]:
    z2 = _WILSON_Z**2
    p = hits / count
    denom = 1.0 + z2 / count
    center = (p + z2 / (2 * count)) / denom
    half = _WILSON_Z * math.sqrt(p * (1 - p) / count + z2 / (4 * count**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def small_ball_log_prob(problem: InverseProblem, u0: np.ndarray, eps: float,
                        mc: int, seed: int) -> SmallBallReport:
    """Log prior mass of the whitened forward ball of radius eps around u0.

    Also reports the centered mass at radius eps/2 and the cost of shifting
    the center: half the squared prior norm of the shortest truncated
    expansion whose forward image sits within eps/2 of the target.
    """
    if mc < 1000:
        raise ParameterError("mc must be >= 1000")
    if eps <= 0:
        raise ParameterError("eps must be positive")
    u0 = as_vector(u0, problem.n_dim, "u0")
    rng = substream(seed, "small-ball")
    draws = rng.standard_normal((mc, problem.n_dim)) * np.sqrt(problem.prior.variances)[None, :]
    images = problem.whitened_forward @ draws.T
    target = problem.whitened_forward @ u0

    dist = np.linalg.norm(images - target[:, None], axis=0)
    hits = int(np.sum(dist <= eps))
    lo, hi = _wilson_interval(hits, mc)
    if hits == 0:
        log_prob, halfwidth, flag = math.log(hi), math.inf, True
    else:
        log_prob = math.log(hits / mc)
        halfwidth, flag = 0.5 * (math.log(hi) - math.log(lo)), False

    centered = np.linalg.norm(images, axis=0)
    c_hits = int(np.sum(centered <= eps / 2))
    c_lo, c_hi = _wilson_interval(c_hits, mc)
    if c_hits == 0:
        c_log, c_half = -math.inf, math.inf
    else:
        c_log = math.log(c_hits / mc)
        c_half = 0.5 * (math.log(c_hi) - math.log(c_lo))

    # shortest feasible truncated certificate for the shift
    col_images = problem.whitened_forward * u0[None, :]
    suffix = np.cumsum(col_images[:, ::-1], axis=1)[:, ::-1]
    tail_norms = np.concatenate([np.linalg.norm(suffix, axis=0), [0.0]])
    j0 = int(np.argmax(tail_norms <= eps / 2))
    shift_cost = 0.5 * float(np.sum(u0[:j0] ** 2 / problem.prior.variances[:j0]))

    return SmallBallReport(log_prob=log_prob, ci_halfwidth=halfwidth,
                           centered_log_prob=c_log, centered_ci_halfwidth=c_half,
                           shift_cost=shift_cost, eps=float(eps),
                           truncation_index=j0, upper_bound_only=flag)


# ---------------------------------------------------------------------------
# Projection tails
# ---------------------------------------------------------------------------

def _residual_operator(problem: InverseProblem, k: int, r: int | None) -> np.ndarray:
    """Matrix mapping standard normals to ``P^phi_k P^e_r u - u`` under the prior."""
    t = problem.coupling.t_matrix
    scaled = t * np.sqrt(problem.prior.variances)[None, :]
    proj = scaled.copy()
    if r is not None and r < problem.n_dim:
        proj[r:, :] = 0.0
    tk = t[:, :k]
    return tk @ (tk.T @ proj) - scaled


def _chernoff_log_tail(problem: InverseProblem, k: int, r: int | None,
                       threshold: float) -> float:
    """Log Chernoff bound for the prior probability that the double
    projection misses by more than ``threshold``; ``-inf`` when the double
    projection is the identity."""
    if k == problem.n_dim and (r is None or r == problem.n_dim):
        return -math.inf  # full projection is the identity for an orthogonal coupling
    a = _residual_operator(problem, k, r)
    q = np.linalg.eigvalsh(a.T @ a)
    q = q[q > 0]
    if q.size == 0:
        return -math.inf
    return quadform.log_chernoff(threshold**2, q, np.zeros_like(q))


def projection_tail_prob(problem: InverseProblem, k: int, r: int | None,
                         threshold: float, mode: str = "mc",
                         mc: int = 2000, seed: int = 0) -> float:
    """Prior probability that the double projection misses by more than
    ``threshold``; ``r = None`` projects on the prior basis alone.

    ``mode="mc"`` estimates by sampling; ``mode="chernoff"`` returns the
    exponential-moment upper bound for the Gaussian quadratic form.
    """
    if threshold <= 0:
        raise ParameterError("threshold must be positive")
    if not (1 <= k <= problem.n_dim):
        raise ParameterError("k must lie in [1, n_dim]")
    if r is not None and not (1 <= r <= problem.n_dim):
        raise ParameterError("r must lie in [1, n_dim] or be None")
    if mode == "chernoff":
        return float(math.exp(_chernoff_log_tail(problem, k, r, threshold)))
    if mode != "mc":
        raise ParameterError("mode must be 'mc' or 'chernoff'")
    return projection_tail_grid(problem, k, r, [threshold], mc, seed)[0]


def projection_tail_grid(problem: InverseProblem, k: int, r: int | None,
                         thresholds, mc: int = 2000, seed: int = 0) -> list[float]:
    """Monte Carlo tails at several thresholds from one shared batch
    (exactly non-increasing along the grid)."""
    if mc < 100:
        raise ParameterError("mc must be >= 100")
    a = _residual_operator(problem, k, r)
    rng = substream(seed, "projection-tail")
    z = rng.standard_normal((problem.n_dim, mc))
    norms = np.linalg.norm(a @ z, axis=0)
    return [float(np.mean(norms > t)) for t in thresholds]


# ---------------------------------------------------------------------------
# Eigenvalue sandwich comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MinmaxTable:
    alphas: np.ndarray
    betas: np.ndarray
    ratios: np.ndarray
    min_ratio: float
    max_ratio: float


def minmax_compare(op_a: np.ndarray, op_b: np.ndarray, j_max: int) -> MinmaxTable:
    """Ratio table of sorted eigenvalues of two SPD operators.

    Bounded ratios over the leading modes certify that the two covariances
    share small-ball asymptotics.
    """
    a = np.asarray(op_a, dtype=float)
    b = np.asarray(op_b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("operators must be square matrices of equal size")
    if not (1 <= j_max <= a.shape[0]):
        raise ParameterError("j_max must lie in [1, N]")
    try:
        alphas = np.linalg.eigvalsh(a)[::-1]
        betas = np.linalg.eigvalsh(b)[::-1]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        from .errors import NumericalError

        raise NumericalError(f"eigendecomposition failed: {exc}")
    if alphas[-1] <= 0 or betas[-1] <= 0:
        raise ParameterError("operators must be positive definite")
    ratios = alphas[:j_max] / betas[:j_max]
    return MinmaxTable(alphas=alphas[:j_max], betas=betas[:j_max], ratios=ratios,
                       min_ratio=float(ratios.min()), max_ratio=float(ratios.max()))


def _whitened_quadratic(problem: InverseProblem, cov_e: np.ndarray) -> np.ndarray:
    rho = problem.operator.rho
    a = rho[:, None] * cov_e * rho[None, :]
    w = problem.noise_whiten(a)
    return problem.noise_whiten(w.T).T


def coupled_pushforward_cov(problem: InverseProblem) -> np.ndarray:
    """Covariance of the whitened forward image of the prior."""
    t = problem.coupling.t_matrix
    cov_e = (t * problem.prior.variances[None, :]) @ t.T
    return _whitened_quadratic(problem, cov_e)


def diagonal_pushforward_cov(problem: InverseProblem) -> np.ndarray:
    """Same construction for the diagonal surrogate prior (variances moved
    onto the e-basis)."""
    return _whitened_quadratic(problem, np.diag(problem.prior.variances))


# ---------------------------------------------------------------------------
# Hilbert-Schmidt truncation diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HsReport:
    target: str
    truncations: tuple[int, ...]
    values: tuple[float, ...]
    verdict: str
    details: dict = field(default_factory=dict)


def _growth_verdict(values) -> str:
    v1, v2, v3 = values
    d1, d2 = v2 - v1, v3 - v2
    if d2 <= max(0.5 * d1, 1e-9 * abs(v3), 1e-12):
        return "bounded"
    return "divergent"


def _truncations(n_dim: int) -> tuple[int, int, int]:
    return max(1, n_dim // 4), max(1, n_dim // 2), n_dim


def hs_diagnostic(problem: InverseProblem, target: str) -> HsReport:
    """Truncation-growth classification of the Hilbert-Schmidt criteria that
    license swapping the prior basis for the operator basis.

    reflection_pair: Frobenius norm of ``2 L^(-1/2) (v v') L^(1/2)`` (L the
    diagonal surrogate covariance) on leading principal blocks.
    exp_pair: trace norm of ``B + B'`` with ``B = L^(1/2) A L^(-1/2)`` for the
    skew generator A (the plain trace vanishes identically).
    gn_bound: Frobenius norm of ``I - C1^(-1/2) C2 C1^(-1/2)`` for the two
    squared-spectrum covariances, plus boundedness of ``g_n rho_n^2``.
    """
    trunc = _truncations(problem.n_dim)
    lam = problem.prior.variances
    if target == "reflection_pair":
        if not isinstance(problem.coupling.kind, ReflectionCoupling):
            raise ParameterError("reflection_pair requires a reflection coupling")
        v = problem.coupling.kind.v
        a = 2.0 * np.outer(v / np.sqrt(lam), v * np.sqrt(lam))
        values = tuple(float(np.linalg.norm(a[:m, :m])) for m in trunc)
        return HsReport(target, trunc, values, _growth_verdict(values))
    if target == "exp_pair":
        if not isinstance(problem.coupling.kind, ExpSkewCoupling):
            raise ParameterError("exp_pair requires an exp_skew coupling")
        gen = problem.coupling.kind.a_matrix
        b = np.sqrt(lam)[:, None] * gen / np.sqrt(lam)[None, :]
        sym = b + b.T
        values = tuple(float(np.abs(np.linalg.eigvalsh(sym[:m, :m])).sum()) for m in trunc)
        return HsReport(target, trunc, values, _growth_verdict(values))
    if target == "gn_bound":
        rho = problem.operator.rho
        t = problem.coupling.t_matrix
        c2 = (t * rho[None, :] ** 2) @ t.T
        s = np.eye(problem.n_dim) - c2 / rho[:, None] / rho[None, :]
        values = tuple(float(np.linalg.norm(s[:m, :m])) for m in trunc)
        verdict = _growth_verdict(values)
        grid = np.unique(np.geomspace(1, max(1, problem.n_dim // 2), 12).astype(int))
        g_rho = [(int(n), compute_g_k(problem, int(n)) * float(rho[n - 1] ** 2)) for n in grid]
        vals = np.array([gr for _, gr in g_rho])
        half = max(1, len(vals) // 2)
        g_bounded = bool(vals[half:].max() <= 1.5 * vals[:half].max()) if len(vals) > 1 else True
        return HsReport(target, trunc, values, verdict,
                        details={"g_rho_sq": g_rho, "g_rho_sq_bounded": g_bounded})
    raise ParameterError("target must be reflection_pair, exp_pair or gn_bound")


# ---------------------------------------------------------------------------
# Plug-in reconstruction and its concentration
# ---------------------------------------------------------------------------

def _plug_in_columns(problem: InverseProblem, k: int, r: int) -> np.ndarray:
    """Columns ``diag(1/rho) P_r T[:, :k]`` pairing data to coefficients."""
    cols = problem.coupling.t_matrix[:, :k].copy()
    if r < problem.n_dim:
        cols[r:, :] = 0.0
    return cols / problem.operator.rho[:, None]


def plug_in_estimate(problem: InverseProblem, data: DataSample, k: int, r: int) -> PlugInEstimate:
    """Linear reconstruction from spectral pairings of the data.

    Coefficient j is the plain inner product of the data with the inverted,
    e-projected image of the j-th prior-basis vector; in the noiseless
    diagonal case this extracts the leading truth coordinates exactly.
    """
    if not (1 <= k <= problem.n_dim) or not (1 <= r <= problem.n_dim):
        raise ParameterError("k and r must lie in [1, n_dim]")
    cols = _plug_in_columns(problem, k, r)
    coeffs = cols.T @ data.y
    u_hat = np.zeros(problem.n_dim)
    u_hat[:k] = coeffs
    sigma0_sq = compute_g_kr(problem, k, r) / data.n_level
    return PlugInEstimate(u_hat=u_hat, k=k, r=r, sigma0_sq=sigma0_sq)


def plug_in_test(problem: InverseProblem, data: DataSample, u0: np.ndarray,
                 k: int, r: int, xi: float, m0: float = 1.0) -> bool:
    """Indicator test: the reconstruction lands at least ``m0 * xi`` away
    from the candidate truth. The threshold constant is a free parameter."""
    if m0 < 0 or xi < 0:
        raise ParameterError("m0 and xi must be nonnegative")
    est = plug_in_estimate(problem, data, k, r)
    return bool(np.linalg.norm(est.u_hat - as_vector(u0, problem.n_dim, "u0")) >= m0 * xi)


@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    x_grid: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    std_error: np.ndarray
    sigma0_sq: float
    mean_deviation: float
    mean_deviation_bound: float
    tail_ok: bool
    mean_dev_ok: bool


def concentration_check(problem: InverseProblem, u0: np.ndarray, k: int, r: int,
                        n_level: float, x_grid, mc: int, seed: int) -> ConcentrationReport:
    """Empirical deviation tails of the plug-in reconstruction against the
    Gaussian concentration envelope ``exp(-x^2 / (2 sigma0^2))``.

    Also checks the mean-deviation estimate against ``sqrt(k g / n)``.
    """
    if mc < 1000:
        raise ParameterError("mc must be >= 1000")
    if n_level <= 0:
        raise ParameterError("n_level must be positive")
    u0 = as_vector(u0, problem.n_dim, "u0")
    x_grid = np.asarray(x_grid, dtype=float)
    rng = substream(seed, "concentration")

    cols = _plug_in_columns(problem, k, r)
    signal = cols.T @ forward_apply(problem, u0, "phi")
    z = rng.standard_normal((problem.n_dim, mc))
    noise_part = cols.T @ problem.noise_color(z) / math.sqrt(n_level)
    coeffs = signal[:, None] + noise_part
    dev = coeffs - coeffs.mean(axis=1)[:, None]
    dist = np.linalg.norm(dev, axis=0)
    m_hat = float(dist.mean())

    g = compute_g_kr(problem, k, r)
    sigma0_sq = g / n_level
    empirical = np.array([float(np.mean(dist >= m_hat + x)) for x in x_grid])
    bound = np.exp(-x_grid**2 / (2.0 * sigma0_sq))
    se = np.sqrt(np.maximum(empirical * (1 - empirical), 0.0) / mc)
    tail_ok = bool(np.all(empirical <= bound + 4.0 * se))

    mean_bound = math.sqrt(k * g / n_level)
    mean_se = float(dist.std(ddof=1)) / math.sqrt(mc)
    mean_dev_ok = m_hat <= mean_bound + 4.0 * mean_se

    return ConcentrationReport(x_grid=x_grid, empirical=empirical, bound=bound,
                               std_error=se, sigma0_sq=sigma0_sq,
                               mean_deviation=m_hat, mean_deviation_bound=mean_bound,
                               tail_ok=tail_ok, mean_dev_ok=mean_dev_ok)


# ---------------------------------------------------------------------------
# Assembled assumption verification
# ---------------------------------------------------------------------------

def verify_assumptions(problem: InverseProblem, plan: RatePlan, u0: np.ndarray,
                       mc: int, seed: int) -> AssumptionReport:
    """Evaluate every contraction-assumption inequality at the plan's values.

    Failures are report entries, never exceptions. The projection-tail
    inequality is checked through its Chernoff bound, since the required
    levels sit far below Monte Carlo resolution; with a finite ``r_n`` the
    outcome is recorded as numerical evidence only.
    """
    u0 = as_vector(u0, problem.n_dim, "u0")
    if plan.k_n > problem.n_dim:
        raise ParameterError("plan.k_n exceeds the truncation dimension")
    if plan.r_n is not None and plan.r_n > problem.n_dim:
        raise ParameterError("plan.r_n exceeds the truncation dimension")
    n, eps, xi = plan.n_level, plan.eps_n, plan.xi_n
    cst = plan.constants

    sb = small_ball_log_prob(problem, u0, eps, mc, seed)
    sb_bound = -cst.c * n * eps**2
    small_ball = CheckResult(ok=bool(sb.log_prob >= sb_bound),
                             measured=sb.log_prob, bound=sb_bound)

    tail_bound = -(cst.c + 4.0) * n * eps**2
    tail_log = _chernoff_log_tail(problem, plan.k_n, plan.r_n, cst.c2 * xi)
    tail = CheckResult(ok=bool(tail_log <= tail_bound), measured=tail_log, bound=tail_bound)

    r_eff = plan.r_n if plan.r_n is not None else problem.n_dim
    g_value = compute_g_kr(problem, plan.k_n, r_eff)
    g_bound = cst.c1 * xi / eps
    g = CheckResult(ok=bool(math.sqrt(g_value) <= g_bound),
                    measured=math.sqrt(g_value), bound=g_bound)

    kn_bound = cst.r * n * eps**2
    kn = CheckResult(ok=bool(plan.k_n < kn_bound), measured=float(plan.k_n), bound=kn_bound)

    u0_e = problem.coupling.t_matrix @ u0
    proj = u0_e.copy()
    if plan.r_n is not None and plan.r_n < problem.n_dim:
        proj[plan.r_n:] = 0.0
    tk = problem.coupling.t_matrix[:, :plan.k_n]
    truth_miss = tk @ (tk.T @ proj) - u0_e
    truth_ratio = float(np.linalg.norm(truth_miss) / xi)

    details = {
        "small_ball_report": sb,
        "tail_mode": "chernoff",
        "tail_threshold": cst.c2 * xi,
    }
    if plan.r_n == plan.k_n:
        details["g_sqrt_at_r_equals_k"] = math.sqrt(g_value)
    return AssumptionReport(small_ball=small_ball, tail=tail, g=g, kn=kn,
                            g_value=g_value, truth_ratio=truth_ratio,
                            finite_r_evidence=plan.r_n is not None,
                            details=details)

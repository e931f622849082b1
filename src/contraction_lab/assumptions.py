"""Numerical checks of the quantities that drive posterior contraction.

The central object is the worst-case whitened norm of the inverted forward
map over the leading prior-basis directions (``g``), computed exactly as the
top eigenvalue of a small Gram matrix. Around it sit small-ball masses with
rigorous two-sided bounds, Chernoff bounds on projection tails, eigenvalue
sandwich comparisons, Hilbert-Schmidt truncation diagnostics, and the exact
concentration of the linear plug-in reconstruction, read off the same Gram
as ``g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadform
from .errors import NumericalError, ParameterError
from .rng import substream  # noqa: F401 -- no function here draws; perfbench/wrap.py binds it
from .spectral import (
    DenseNoise,
    ExpSkewCoupling,
    InverseProblem,
    ReflectionCoupling,
    as_vector,
    check_noise_level,
)


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
            if not getattr(self, name) > 0:
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
        check_noise_level(self.n_level)


@dataclass(frozen=True)
class CheckResult:
    """One inequality: ``ok`` is None when the evidence decides neither way."""

    ok: bool | None
    measured: float
    bound: float


@dataclass(frozen=True, eq=False)
class AssumptionReport:
    """Outcome of every contraction-assumption inequality, with the two
    numbers behind each boolean and the small-ball report behind the first."""

    small_ball: CheckResult
    tail: CheckResult
    g: CheckResult
    kn: CheckResult
    g_value: float
    truth_ratio: float
    finite_r_evidence: bool
    small_ball_report: SmallBallReport

    @property
    def all_ok(self) -> bool:
        return all(check.ok is True for check in (self.small_ball, self.tail, self.g, self.kn))


@dataclass(frozen=True)
class SmallBallReport:
    """Log prior mass of a whitened forward ball with its shift certificate.

    ``log_prob`` is the Lugannani-Rice value and ``bounds`` the rigorous
    ``(lower, upper)`` pair around it (independence product, Chernoff); the
    ``centered_`` fields are the same for the ball of radius eps/2 around 0.
    ``shift_cost`` is half the squared prior Cameron-Martin norm of the
    truncated forward expansion of the center, so the true masses satisfy
    ``log_prob >= centered_log_prob - shift_cost``.
    """

    log_prob: float
    bounds: tuple[float, float]
    centered_log_prob: float
    centered_bounds: tuple[float, float]
    shift_cost: float
    eps: float
    truncation_index: int

    def __post_init__(self):
        for lo, hi in (self.bounds, self.centered_bounds):
            if not lo <= hi <= 0:
                raise ParameterError("bounds must be ordered (lower, upper) and <= 0")
        if self.shift_cost < 0:
            raise ParameterError("shift_cost must be >= 0")

    @property
    def ci_halfwidth(self) -> float:
        """Half the width of ``bounds`` in log space."""
        lo, hi = self.bounds
        return 0.0 if lo == hi else 0.5 * (hi - lo)

    @property
    def upper_bound_only(self) -> bool:
        """Only the upper bound is informative: the lower one is ``-inf``."""
        return self.bounds[0] == -math.inf


# ---------------------------------------------------------------------------
# The g quantities
# ---------------------------------------------------------------------------

def _check_kr(problem: InverseProblem, k: int, r: int | None) -> None:
    """Raise unless k prior-basis and r e-basis directions (``r = None``: no
    e-cutoff) select a double projection of the problem's coordinates."""
    if not (1 <= k <= problem.n_dim):
        raise ParameterError(f"k = {k} must lie in [1, n_dim = {problem.n_dim}]")
    if r is not None and not (1 <= r <= problem.n_dim):
        raise ParameterError(f"r = {r} must lie in [1, n_dim = {problem.n_dim}] or be None")


def compute_g_kr(problem: InverseProblem, k: int, r: int | None) -> float:
    """Largest squared whitened norm of the projected inverse adjoint over
    unit vectors in the span of the first k prior-basis directions; ``r =
    None`` applies no e-cutoff: exactly, the top eigenvalue of ``_plug_in_gram``.
    """
    return float(np.linalg.eigvalsh(_plug_in_gram(problem, k, r))[-1])


def _plug_in_gram(problem: InverseProblem, k: int, r: int | None) -> np.ndarray:
    """The k x k Gram ``cols^T zeta cols`` of the plug-in columns ``cols =
    diag(1/rho) P_r T[:, :k]``, which pair data to the first k prior-basis
    coefficients (``r = None``: no e-cutoff)."""
    _check_kr(problem, k, r)
    cols = problem.coupling.t_matrix[:, :k].copy()
    if r is not None:
        cols[r:, :] = 0.0
    cols /= problem.operator.rho[:, None]
    cols = problem.noise_color(cols)
    return cols.T @ cols


# ---------------------------------------------------------------------------
# Small-ball mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SmallBallForm:
    """The prior's whitened forward distance to one center u0, as the form
    ``||M(u - u0)||**2 = sum_i (c_i + sqrt(lam_i) Z_i)**2``: ``lam`` the
    eigenvalues of ``M Lambda M^T`` (M the whitened forward map, Lambda the
    prior covariance) and ``c = V^T M u0``; the centered ball is the same form
    with ``c = 0``. ``residual_norms[j] = ||M (u0 - P_j u0)||``, with ``P_j``
    keeping the first j coordinates, prices the shift certificate."""

    lam: np.ndarray
    c: np.ndarray
    residual_norms: np.ndarray


def _image_cov(lo: int, hi: int, m: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Part ``lo:hi`` of ``M Lambda M^T`` from M's part ``m`` (``root`` the
    prior standard deviations): ``(a a^T)^T``, exactly symmetric and so
    Fortran-ordered, for ``a = m Lambda_B^(1/2)``, or ``a * a`` on a run."""
    a = m * root[lo:hi]
    return (a @ a.T).T if a.ndim == 2 else a * a


def small_ball_form(problem: InverseProblem, u0: np.ndarray) -> SmallBallForm:
    """One spectrum of the prior forward covariance, for every radius, from
    ``problem.forward_blocks`` alone: each block of ``M Lambda M^T`` is formed
    only when it is decomposed. ``residual_norms[j]`` adds ``own[j]``, the
    squared image of u0's coordinates j to the end of j's block, summed from
    the right, to each later block's whole image ``own[lo]``, from the last."""
    u0 = as_vector(u0, problem.n_dim, "u0")
    m, root = problem.forward_blocks(), np.sqrt(problem.prior.variances)
    image, own = np.empty(problem.n_dim), np.empty(problem.n_dim)
    for (lo, hi, run), part in zip(m.segments, m.parts):
        suffix = np.multiply(part, u0[lo:hi], order="F")  # columns contiguous: summed pairwise
        image[lo:hi] = suffix if run else part @ u0[lo:hi]
        if not run:
            np.cumsum(suffix[:, ::-1], axis=1, out=suffix[:, ::-1])
        suffix *= suffix
        own[lo:hi] = suffix if run else np.add.reduce(suffix, axis=0)
    del suffix  # freed before any block of M Lambda M^T is formed
    later = np.append(np.cumsum(own[m.edges[-2:0:-1]])[::-1], 0.0)
    residual_norms = np.append(np.sqrt(own + np.repeat(later, np.diff(m.edges))), 0.0)
    lam, c = quadform.block_spectrum(m, image, "prior forward covariance",
                                     lambda lo, hi, part: _image_cov(lo, hi, part, root))
    for array in (lam, c, residual_norms):
        array.flags.writeable = False  # shared by every radius, on any thread
    return SmallBallForm(lam=lam, c=c, residual_norms=residual_norms)


def small_ball_log_prob(problem: InverseProblem, u0: np.ndarray, eps: float,
                        form: SmallBallForm | None = None) -> SmallBallReport:
    """Log prior mass of the whitened forward ball of radius eps around u0.

    Also reports the centered mass at radius eps/2 and the cost of shifting
    the center: half the squared prior norm of the shortest truncated
    expansion whose forward image sits within eps/2 of the target. Both
    masses are lower tails of ``small_ball_form(problem, u0)``, which a
    caller may pass to share it across radii.
    """
    if not 0 < eps < math.inf:
        raise ParameterError(f"eps must be positive and finite, got {eps!r}")
    u0 = as_vector(u0, problem.n_dim, "u0")
    if form is None:
        form = small_ball_form(problem, u0)
    c2 = np.stack([form.c * form.c, np.zeros_like(form.c)])
    q = np.array([eps**2, eps**2 / 4.0])
    lr, _, upper = quadform.tails(q, form.lam, c2)
    lower = quadform.log_cdf_product(q, form.lam, c2)

    # shortest feasible truncated certificate for the shift
    j0 = int(np.argmax(form.residual_norms <= eps / 2))
    shift_cost = 0.5 * float(np.sum(u0[:j0] ** 2 / problem.prior.variances[:j0]))

    return SmallBallReport(log_prob=float(lr[0]), bounds=(float(lower[0]), float(upper[0])),
                           centered_log_prob=float(lr[1]),
                           centered_bounds=(float(lower[1]), float(upper[1])),
                           shift_cost=shift_cost, eps=float(eps), truncation_index=j0)


# ---------------------------------------------------------------------------
# Projection tails
# ---------------------------------------------------------------------------

def _projection_miss(problem: InverseProblem, k: int, r: int | None,
                     x: np.ndarray) -> np.ndarray:
    """``P^phi_k P^e_r x - x`` for e-coordinates ``x``, a vector or the columns
    of a matrix; ``r = None`` projects on the prior basis alone."""
    proj = x.copy()
    if r is not None and r < problem.n_dim:
        proj[r:] = 0.0
    tk = problem.coupling.t_matrix[:, :k]
    return tk @ (tk.T @ proj) - x


def _residual_operator(problem: InverseProblem, k: int, r: int | None) -> np.ndarray:
    """Matrix mapping standard normals to ``P^phi_k P^e_r u - u`` under the prior."""
    scaled = problem.coupling.t_matrix * np.sqrt(problem.prior.variances)[None, :]
    return _projection_miss(problem, k, r, scaled)


def projection_log_tail_bound(problem: InverseProblem, k: int, r: int | None,
                              threshold: float) -> float:
    """Log Chernoff upper bound on the prior probability that the double
    projection misses by more than ``threshold``; ``r = None`` projects on the
    prior basis alone, and the bound is ``-inf`` when the double projection is
    the identity. The test oracle ``projection_tail_grid`` estimates the same
    probability by sampling.

    Without an e-cutoff (``r`` None or ``n_dim``) the miss is ``-T_{>k}
    Lambda_{>k}^{1/2} z`` and T is orthogonal, so its covariance eigenvalues
    are the prior variances from k on, exactly; a finite r takes them from an
    eigensolve.
    """
    if not threshold > 0:
        raise ParameterError(f"threshold must be positive, got {threshold!r}")
    _check_kr(problem, k, r)
    if r is None or r == problem.n_dim:
        q = problem.prior.variances[k:]  # empty at k = n_dim: the projection is the identity
    else:
        a = _residual_operator(problem, k, r)
        q = np.linalg.eigvalsh(a.T @ a)
        q = q[q > 0]
    if q.size == 0:
        return -math.inf
    return float(quadform.tails(threshold**2, q, np.zeros((1, q.size))).log_sf_bound[0])


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


def minmax_compare(op_a: quadform.BlockDiagonal, op_b: quadform.BlockDiagonal,
                   j_max: int) -> MinmaxTable:
    """Ratio table of sorted eigenvalues of two SPD ``quadform.BlockDiagonal``
    operators, taken block by block (``quadform.block_spectrum``).

    Bounded ratios over the leading modes certify that the two covariances
    share small-ball asymptotics.
    """
    if not all(isinstance(op, quadform.BlockDiagonal) for op in (op_a, op_b)) \
            or op_a.n_dim != op_b.n_dim:
        raise ParameterError("operators must be BlockDiagonal operators of equal size")
    if not (1 <= j_max <= op_a.n_dim):
        raise ParameterError("j_max must lie in [1, N]")
    zeros = np.zeros(op_a.n_dim)
    try:
        alphas, betas = (quadform.block_spectrum(op, zeros, "operator",
                                                 lambda lo, hi, part: part)[0][::-1]
                         for op in (op_a, op_b))
    except NumericalError as exc:
        raise ParameterError(f"operators must be positive definite: {exc}") from exc
    if alphas[-1] <= 0 or betas[-1] <= 0:
        raise ParameterError("operators must be positive definite")
    ratios = alphas[:j_max] / betas[:j_max]
    return MinmaxTable(alphas=alphas[:j_max], betas=betas[:j_max], ratios=ratios,
                       min_ratio=float(ratios.min()), max_ratio=float(ratios.max()))


def coupled_pushforward_cov(problem: InverseProblem) -> quadform.BlockDiagonal:
    """Covariance ``M Lambda M^T`` of the whitened forward image of the prior."""
    root = np.sqrt(problem.prior.variances)
    return problem.forward_blocks().map(lambda lo, hi, m: _image_cov(lo, hi, m, root)).read_only()


def diagonal_pushforward_cov(problem: InverseProblem) -> quadform.BlockDiagonal:
    """Same construction for the diagonal surrogate prior (variances moved
    onto the e-basis): M is the whitening of ``diag(rho)``, diagonal unless
    the noise is dense."""
    rho, root, n = problem.operator.rho, np.sqrt(problem.prior.variances), problem.n_dim
    if isinstance(problem.noise, DenseNoise):
        m = quadform.BlockDiagonal.from_dense(problem.noise_whiten(rho[:, None] * np.eye(n)))
    else:
        m = quadform.BlockDiagonal(np.arange(n + 1), lambda lo, hi, run: problem.noise_whiten(rho))
    return m.map(lambda lo, hi, part: _image_cov(lo, hi, part, root)).read_only()


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
    trunc = (max(1, problem.n_dim // 4), max(1, problem.n_dim // 2), problem.n_dim)
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
        t = quadform.BlockDiagonal.from_dense(problem.coupling.t_matrix, problem.coupling.blocks)
        square = np.zeros(len(trunc))  # each truncation's, summed over the blocks it cuts
        for (lo, hi, run), part in zip(t.segments, t.parts):
            r = rho[lo:hi]  # s = I - C2 / rho_i / rho_j on C2 = T rho^2 T^T's block
            s = (1.0 - (part * r**2) * part / r / r if run else
                 np.eye(hi - lo) - ((part * r**2) @ part.T) / r[:, None] / r[None, :])
            for i, m in enumerate(trunc):
                q = s[:max(m - lo, 0)] if run else s[:max(m - lo, 0), :m - lo]
                square[i] += np.vdot(q, q)
        values = tuple(float(v) for v in np.sqrt(square))
        verdict = _growth_verdict(values)
        grid = np.unique(np.geomspace(1, max(1, problem.n_dim // 2), 12).astype(int))
        g_rho = [(int(n), compute_g_kr(problem, int(n), problem.n_dim) * float(rho[n - 1] ** 2))
                 for n in grid]
        vals = np.array([gr for _, gr in g_rho])
        half = max(1, len(vals) // 2)
        g_bounded = bool(vals[half:].max() <= 1.5 * vals[:half].max()) if len(vals) > 1 else True
        return HsReport(target, trunc, values, verdict,
                        details={"g_rho_sq": g_rho, "g_rho_sq_bounded": g_bounded})
    raise ParameterError("target must be reflection_pair, exp_pair or gn_bound")


# ---------------------------------------------------------------------------
# Plug-in reconstruction and its concentration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConcentrationReport:
    x_grid: np.ndarray
    empirical: np.ndarray  # Lugannani-Rice P(||X - EX|| >= m + x)
    bound: np.ndarray  # the envelope exp(-x^2 / (2 sigma0^2))
    log_chernoff: np.ndarray  # log Chernoff bound on the same tail
    ok: np.ndarray  # per x: log_chernoff <= log bound, which certifies the row
    sigma0_sq: float
    mean_deviation: float  # the center m = sqrt(tr Sigma)


def concentration_check(problem: InverseProblem, k: int, r: int | None, n_level: float,
                        x_grid=None) -> ConcentrationReport:
    """Exact deviation tails of the plug-in reconstruction X of the first k
    coefficients against the envelope ``exp(-x^2 / (2 sigma0^2))``; ``x_grid
    = None`` takes the offsets 0, 0.5, ..., 4 times sigma0. Nothing is drawn.

    Whatever the truth, X - EX is Gaussian with covariance ``Sigma =
    _plug_in_gram / n``, so ``||X - EX||^2`` is a quadratic form in Sigma's k
    eigenvalues and ``sigma0^2 = max lam = g(k, r) / n``. The center ``m =
    sqrt(tr Sigma) >= E||X - EX||`` keeps the envelope a theorem (Borell-TIS);
    by Laurent and Massart (2000) the form's Chernoff exponent at ``(m +
    x)^2`` proves it, and ``ok`` compares the two.
    """
    check_noise_level(n_level)
    spectrum = np.linalg.eigvalsh(_plug_in_gram(problem, k, r))
    lam = np.maximum(spectrum / n_level, 0.0)  # a Gram is PSD: below 0 is rounding
    sigma0_sq = float(lam[-1])
    if x_grid is None:
        x_grid = [math.sqrt(sigma0_sq) * m for m in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)]
    x_grid = np.asarray(x_grid, dtype=float)
    if not np.all((x_grid >= 0) & (x_grid < math.inf)):
        raise ParameterError("offsets x must be nonnegative and finite")

    center = math.sqrt(float(lam.sum()))
    q, c2 = (center + x_grid) ** 2, np.zeros((x_grid.size, lam.size))
    tails = quadform.tails(q, lam, c2)
    log_bound = -x_grid**2 / (2.0 * sigma0_sq)
    return ConcentrationReport(x_grid=x_grid, empirical=-np.expm1(tails.log_cdf),
                               bound=np.exp(log_bound), log_chernoff=tails.log_sf_bound,
                               ok=tails.log_sf_bound <= log_bound, sigma0_sq=sigma0_sq,
                               mean_deviation=center)


# ---------------------------------------------------------------------------
# Assembled assumption verification
# ---------------------------------------------------------------------------

def verify_assumptions(problem: InverseProblem, plan: RatePlan,
                       u0: np.ndarray) -> AssumptionReport:
    """Evaluate every contraction-assumption inequality at the plan's values.

    Failures are report entries, never exceptions. The small-ball inequality
    is settled by rigorous bounds only: ``ok`` when the product lower bound
    meets it, False when the Chernoff upper bound misses it, and None
    (undetermined) otherwise; the Lugannani-Rice value is the measured
    number but never decides. The projection-tail inequality is checked
    through its Chernoff bound, since the required levels sit far below
    Monte Carlo resolution; with a finite ``r_n`` the outcome is recorded as
    numerical evidence only.
    """
    u0 = as_vector(u0, problem.n_dim, "u0")
    _check_kr(problem, plan.k_n, plan.r_n)
    n, eps, xi = plan.n_level, plan.eps_n, plan.xi_n
    cst = plan.constants

    sb = small_ball_log_prob(problem, u0, eps)
    sb_bound = -cst.c * n * eps**2
    lower, upper = sb.bounds
    sb_ok = True if lower >= sb_bound else False if upper < sb_bound else None
    small_ball = CheckResult(ok=sb_ok, measured=sb.log_prob, bound=sb_bound)

    tail_bound = -(cst.c + 4.0) * n * eps**2
    tail_log = projection_log_tail_bound(problem, plan.k_n, plan.r_n, cst.c2 * xi)
    tail = CheckResult(ok=bool(tail_log <= tail_bound), measured=tail_log, bound=tail_bound)

    g_value = compute_g_kr(problem, plan.k_n, plan.r_n)
    g_bound = cst.c1 * xi / eps
    g = CheckResult(ok=bool(math.sqrt(g_value) <= g_bound),
                    measured=math.sqrt(g_value), bound=g_bound)

    kn_bound = cst.r * n * eps**2
    kn = CheckResult(ok=bool(plan.k_n < kn_bound), measured=float(plan.k_n), bound=kn_bound)

    truth_miss = _projection_miss(problem, plan.k_n, plan.r_n, problem.coupling.t_matrix @ u0)
    truth_ratio = float(np.linalg.norm(truth_miss) / xi)

    return AssumptionReport(small_ball=small_ball, tail=tail, g=g, kn=kn,
                            g_value=g_value, truth_ratio=truth_ratio,
                            finite_r_evidence=plan.r_n is not None,
                            small_ball_report=sb)

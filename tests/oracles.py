"""Reference routes that tests check the package's exact computations
against: self-normalized importance sampling (SNIS) of posterior exceedance
probabilities, for the conjugate problem and for the finite-dimensional
mixture experiment, Monte Carlo projection tails under the prior, and
Imhof's inversion integral for the tail of a Gaussian quadratic form.

The samplers weight prior draws by the data likelihood, so they work for any
prior that can be sampled and share no code with the closed forms they
check. They resolve a tail only where its effective sample size is large.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from contraction_lab.assumptions import _check_kr, _residual_operator
from contraction_lab.errors import NumericalError, ParameterError
from contraction_lab.rng import substream
from contraction_lab.spectral import as_vector, check_noise_level


@dataclass(frozen=True)
class SnisEstimate:
    """Importance-sampled estimate of the posterior mass outside a ball.

    Its standard error is the binomial error at the effective sample size
    ``ess``; ``log_normalizer`` records the log of the estimated normalizing
    constant, which must be finite, and ``degenerate`` an ``ess`` below 10.
    """

    value: float
    std_error: float
    mc_count: int
    xi: float
    ess: float
    log_normalizer: float
    degenerate: bool


def _binomial_se(p: float, count: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / count)


def snis_exceedance(log_w: np.ndarray, dist: np.ndarray, xi: float) -> SnisEstimate:
    """Self-normalized importance estimate of the mass with ``dist > xi``.

    ``log_w`` holds the unnormalized log-weights of the draws and ``dist``
    their distances from the ball's center. A radius that is not
    nonnegative, non-finite log-weights and a non-finite normalizer raise;
    an effective sample size below 10 marks the result as degenerate.
    """
    if not xi >= 0:
        raise ParameterError(f"xi must be nonnegative, got {xi!r}")
    if not np.all(np.isfinite(log_w)):
        raise NumericalError("non-finite importance log-weights")
    shift = log_w.max()
    w = np.exp(log_w - shift)
    total = float(w.sum())
    log_normalizer = shift + math.log(total / log_w.size)
    if not np.isfinite(log_normalizer):
        raise NumericalError("importance-sampling normalizer is not finite")

    value = min(max(float(w[dist > xi].sum() / total), 0.0), 1.0)
    ess = total**2 / float(w @ w)
    return SnisEstimate(value=value, std_error=_binomial_se(value, ess),
                        mc_count=log_w.size, xi=float(xi), ess=ess,
                        log_normalizer=log_normalizer, degenerate=ess < 10.0)


def _potential_batch(problem, w_y: np.ndarray, u_rows: np.ndarray,
                     n_level: float) -> np.ndarray:
    """Data-misfit potential ``Phi(u) = (n/2) <Gu, Gu>_zeta - n <y, Gu>_zeta``
    of each row ``u`` of ``u_rows``, against pre-whitened data
    ``w_y = zeta^(-1/2) y``."""
    v = problem.whitened_forward @ u_rows.T
    return 0.5 * n_level * np.einsum("ij,ij->j", v, v) - n_level * (w_y @ v)


def weighted_posterior_exceedance(problem, data, u0: np.ndarray, xi: float,
                                  mc: int = 2000, seed: int = 0) -> SnisEstimate:
    """Self-normalized prior-sampling estimate of the posterior exceedance.

    Draws come from the prior; each is weighted by ``exp(-potential)``. The
    estimated normalizer is checked to be strictly positive and finite, and an
    effective sample size below 10 marks the result as degenerate.
    """
    if mc < 1000:
        raise ParameterError("mc must be >= 1000 for the weighted estimator")
    u0 = as_vector(u0, problem.n_dim, "u0")
    rng = substream(seed, "weighted-exceedance")
    draws = rng.standard_normal((mc, problem.n_dim)) * np.sqrt(problem.prior.variances)[None, :]

    w_y = problem.noise_whiten(data.y)
    log_w = -_potential_batch(problem, w_y, draws, data.n_level)
    return snis_exceedance(log_w, np.linalg.norm(draws - u0[None, :], axis=1), xi)


def sample_mixture(prior, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws, one per row, from a ``GaussianMixturePrior``."""
    comp = rng.choice(prior.weights.size, size=count, p=prior.weights)
    z = rng.standard_normal((count, prior.dim))
    return prior.means[comp] + prior.sds[comp] * z


def finite_dim_exceedance_given_y(exp, y: np.ndarray, u0: np.ndarray, n_level: float,
                                  xi: float, mc: int, seed: int) -> SnisEstimate:
    """Self-normalized prior-sampling posterior exceedance for fixed data.

    The data enter only through the projection of y onto the model range in
    the Euclidean inner product, so off-range components cancel exactly.
    """
    if mc < 1000:
        raise ParameterError("mc must be >= 1000")
    check_noise_level(n_level)
    g = exp.g_matrix
    u_proj = np.linalg.lstsq(g, np.asarray(y, dtype=float), rcond=None)[0]

    rng = substream(seed, "findim-mc")
    draws = sample_mixture(exp.prior, rng, mc)
    resid = g @ (draws - u_proj[None, :]).T
    log_w = -0.5 * n_level * np.einsum("ij,ij->j", resid, resid)
    return snis_exceedance(log_w, np.linalg.norm(draws - np.asarray(u0)[None, :], axis=1), xi)


def projection_tail_grid(problem, k: int, r: int | None, thresholds, mc: int = 2000,
                         seed: int = 0) -> list[float]:
    """Monte Carlo prior probabilities that the double projection misses by
    more than each threshold, from one shared batch (exactly non-increasing
    along the grid); it rejects what ``projection_log_tail_bound`` rejects."""
    if mc < 100:
        raise ParameterError("mc must be >= 100")
    _check_kr(problem, k, r)
    if not all(t >= 0 for t in thresholds):
        raise ParameterError("thresholds must be nonnegative")
    a = _residual_operator(problem, k, r)
    rng = substream(seed, "projection-tail")
    z = rng.standard_normal((problem.n_dim, mc))
    norms = np.linalg.norm(a @ z, axis=0)
    return [float(np.mean(norms > t)) for t in thresholds]


def imhof_tail(q, lam, c2):
    """P(sum (c_i + sqrt(lam_i) Z_i)^2 > q) by Imhof's (1961) inversion
    integral, with the noncentrality written through c2 = lam b^2.

    The integrand is ``sin(theta(u) - q u / 2) / (u rho(u))``, where theta
    tends to a constant. A plain adaptive rule on ``[0, inf)`` exhausts its
    subdivisions on the slowly decaying oscillation (lam = [1, 1], c2 = 0,
    q = 2 came out 3.5e-6 above e**-1), so only ``[0, 50 / max lam]`` is
    integrated directly; beyond it the integrand is split into the smooth
    factors of ``cos(q u / 2)`` and ``sin(q u / 2)``, each a Fourier integral
    that QUADPACK integrates one cycle at a time with extrapolation. A
    zero-variance term adds the constant c2_i to Q, so it moves into q and
    theta keeps no linear part.
    """
    lam, c2 = np.asarray(lam, dtype=float), np.asarray(c2, dtype=float)
    q = q - float(c2[lam == 0].sum())
    lam, c2 = lam[lam > 0], c2[lam > 0]

    def theta_amp(u):
        lu = lam * u
        theta = 0.5 * np.sum(np.arctan(lu) + c2 * u / (1.0 + lu * lu))
        log_rho = np.sum(0.25 * np.log1p(lu * lu) + 0.5 * c2 * lam * u * u / (1.0 + lu * lu))
        return theta, math.exp(-log_rho) / u

    def head(u):
        theta, amp = theta_amp(u)
        return math.sin(theta - 0.5 * q * u) * amp

    def sin_part(u):
        theta, amp = theta_amp(u)
        return math.sin(theta) * amp

    def cos_part(u):
        theta, amp = theta_amp(u)
        return math.cos(theta) * amp

    split = 50.0 / float(lam.max())
    value, _ = quad(head, 0.0, split, limit=1000, epsabs=1e-13, epsrel=1e-11)
    # sin(theta - w u) = sin(theta) cos(w u) - cos(theta) sin(w u)
    with_cos, _ = quad(sin_part, split, np.inf, weight="cos", wvar=0.5 * q, epsabs=1e-14)
    with_sin, _ = quad(cos_part, split, np.inf, weight="sin", wvar=0.5 * q, epsabs=1e-14)
    return 0.5 + (value + with_cos - with_sin) / math.pi

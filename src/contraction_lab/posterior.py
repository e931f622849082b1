"""Posterior computations: potential, conjugate Gaussian form, exceedance.

Two independent routes to the same posterior are kept side by side: the
closed-form Gaussian conditioning (valid for Gaussian priors) and a
self-normalized importance sampler driven only by the data-misfit potential,
which works for any prior that can be sampled. Their agreement on exceedance
probabilities is the module's oracle-equivalence property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, eigh
from scipy.linalg.lapack import dtrtri

from .errors import NumericalError, ParameterError
from .rng import substream
from .spectral import InverseProblem, DataSample, as_vector, forward_apply

# A symmetric eigensolver's eigenvalues are accurate to about
# n * EIGENVALUE_RTOL * ||A||_2, so a computed eigenvalue of a covariance down
# to minus that is the rounding of a zero.
EIGENVALUE_RTOL = float(np.finfo(float).eps)

JITTER_DOUBLINGS = 3


def cholesky_with_jitter(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating a scaled-identity jitter on failure.

    Starts at 1e-12 * ||mat||_F and doubles at most ``JITTER_DOUBLINGS`` times.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-12 * np.linalg.norm(mat)
    eye = np.eye(mat.shape[0])
    for _ in range(JITTER_DOUBLINGS + 1):
        try:
            return np.linalg.cholesky(mat + jitter * eye)
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise NumericalError("Cholesky failed after jitter escalation",
                         condition_number=float(np.linalg.cond(mat)))


@dataclass(frozen=True, eq=False)
class PosteriorGaussian:
    """Gaussian posterior in phi-coordinates with a triangular covariance
    factor (covariance = factor @ factor.T)."""

    mean: np.ndarray
    cov_factor: np.ndarray
    n_level: float

    def __post_init__(self):
        if self.n_level <= 0:
            raise ParameterError("n_level must be positive")
        if np.any(np.diag(self.cov_factor) <= 0):
            raise ParameterError("covariance factor must have positive diagonal")

    @property
    def n_dim(self) -> int:
        return self.mean.shape[0]

    def covariance(self) -> np.ndarray:
        return self.cov_factor @ self.cov_factor.T

    def distances(self, u0: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Distances from u0 of the posterior draws ``mean + factor @ z``,
        one per column of the standard-normal array ``z``.

        Bit-identical to ``np.linalg.norm(dev, axis=0)`` but squared in place:
        the caller still holds ``z``, so a further (N, count) temporary would
        raise peak memory.
        """
        dev = self.cov_factor @ z
        dev += (self.mean - u0)[:, None]
        dev *= dev
        return np.sqrt(np.add.reduce(dev, axis=0))


def potential_phi(problem: InverseProblem, y: np.ndarray, u: np.ndarray, n_level: float) -> float:
    """Data-misfit potential ``(n/2) <Gu, Gu>_zeta - n <y, Gu>_zeta``."""
    if n_level <= 0:
        raise ParameterError("n_level must be positive")
    y = as_vector(y, problem.n_dim, "y")
    gu = problem.noise_whiten(forward_apply(problem, u, "phi"))
    wy = problem.noise_whiten(y)
    value = 0.5 * n_level * float(gu @ gu) - n_level * float(wy @ gu)
    if not np.isfinite(value):
        vals = problem.noise.variances
        raise NumericalError("noise whitening produced non-finite potential",
                             condition_number=float(vals.max() / vals.min()))
    return value


def _potential_batch(problem: InverseProblem, w_y: np.ndarray, u_rows: np.ndarray,
                     n_level: float) -> np.ndarray:
    """Potential of each row of ``u_rows`` against pre-whitened data ``w_y``."""
    v = problem.whitened_forward @ u_rows.T
    return 0.5 * n_level * np.einsum("ij,ij->j", v, v) - n_level * (w_y @ v)


def posterior_precision(problem: InverseProblem, n_level: float) -> np.ndarray:
    """Posterior precision: prior precision plus ``n`` times the whitened Gram."""
    return np.diag(1.0 / problem.prior.variances) + n_level * problem.whitened_gram


@dataclass(frozen=True, eq=False)
class PosteriorFactor:
    """The data-independent part of the conjugate posterior at one noise
    level: factor once per n, then condition on any number of data draws.
    The precision's Cholesky factor L is the only factorization; its triangular
    inverse, formed on first use, gives the upper-triangular sampling factor
    ``L^{-T}`` and the covariance ``L^{-T} L^{-1}`` that ``covariance_eigh``
    decomposes. Both are read-only: every conditioned posterior shares them."""

    problem: InverseProblem
    n_level: float
    _precision_chol: np.ndarray

    def mean(self, y: np.ndarray) -> np.ndarray:
        """Posterior mean given data ``y`` (e-coordinates): a vector, or an
        (N, R) block of R data draws with one mean per column, which costs
        one matrix product and one triangular solve pair for all of them."""
        y = np.asarray(y, dtype=float)
        if y.ndim > 2 or y.shape[:1] != (self.problem.n_dim,):
            raise ParameterError(f"y must be a length-{self.problem.n_dim} vector or an "
                                 f"({self.problem.n_dim}, R) block, got shape {y.shape}")
        rhs = self.n_level * (self.problem.whitened_forward.T @ self.problem.noise_whiten(y))
        return cho_solve((self._precision_chol, True), rhs)

    def condition(self, y: np.ndarray) -> PosteriorGaussian:
        """Posterior given data ``y`` (e-coordinates)."""
        return PosteriorGaussian(mean=self.mean(y), cov_factor=self._chol_inv.T,
                                 n_level=self.n_level)

    @cached_property
    def _chol_inv(self) -> np.ndarray:
        # Half the time of a solve against the identity. Its info flags only a
        # zero diagonal, which a Cholesky factor lacks.
        inv, _ = dtrtri(self._precision_chol, lower=1)
        inv.flags.writeable = False
        return inv

    def covariance_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors of the
        posterior covariance.

        The covariance, not the precision, is decomposed: the precision's
        condition number reaches 6.7e27 on a mildly ill-posed problem with
        prior smoothness 5, which would destroy the large covariance
        eigenvalues that dominate posterior radii. Computed eigenvalues down to
        ``-EIGENVALUE_RTOL * n_dim * max`` are the rounding of a zero and are
        set to zero; a more negative one raises ``NumericalError``.
        """
        # numpy forms ``A.T @ A`` by a symmetric rank-k update: exactly symmetric.
        vals, vecs = eigh(self._chol_inv.T @ self._chol_inv, overwrite_a=True, check_finite=False)
        floor = -EIGENVALUE_RTOL * self.problem.n_dim * vals[-1]
        if not (vals[-1] > 0 and vals[0] >= floor):
            raise NumericalError(f"posterior covariance eigenvalue {vals[0]:.3e} below the "
                                 f"rounding floor {floor:.3e} (largest {vals[-1]:.3e})")
        np.maximum(vals, 0.0, out=vals)
        return vals, vecs


def factor_posterior(problem: InverseProblem, n_level: float) -> PosteriorFactor:
    """Factor the conjugate posterior at noise level ``n_level`` once; the
    result conditions on any number of data draws."""
    # Fortran order: LAPACK's solve would otherwise copy the factor on every
    # call, which costs three times the solve itself at N = 512.
    p_chol = np.asfortranarray(cholesky_with_jitter(posterior_precision(problem, n_level)))
    p_chol.flags.writeable = False
    return PosteriorFactor(problem, n_level, p_chol)


def conjugate_posterior(problem: InverseProblem, data: DataSample) -> PosteriorGaussian:
    """Closed-form Gaussian posterior for the problem's Gaussian prior."""
    return factor_posterior(problem, data.n_level).condition(data.y)


# ---------------------------------------------------------------------------
# Exceedance probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceedanceEstimate:
    """Monte Carlo estimate of the posterior mass outside a ball.

    ``ess`` is set on the importance-sampled route; its standard error is the
    binomial error at the effective sample size. ``log_normalizer`` records
    the log of the estimated normalizing constant, which must be finite.
    """

    value: float
    std_error: float
    mc_count: int
    xi: float
    ess: float | None = None
    log_normalizer: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ParameterError(f"exceedance estimate {self.value} outside [0, 1]")
        effective = self.ess if self.ess is not None else float(self.mc_count)
        if self.std_error > 0.5 / math.sqrt(effective) + 1e-12:
            raise ParameterError("standard error exceeds the binomial bound")


def _binomial_se(p: float, count: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / count)


def posterior_exceedance(post: PosteriorGaussian, u0: np.ndarray, xi: float,
                         mc: int, seed: int) -> ExceedanceEstimate:
    """Probability that a posterior draw lands farther than ``xi`` from ``u0``."""
    return posterior_exceedance_grid(post, u0, [xi], mc, seed)[0]


def posterior_exceedance_grid(post: PosteriorGaussian, u0: np.ndarray, xis,
                              mc: int, seed: int) -> list[ExceedanceEstimate]:
    """Exceedance at several radii from one shared sample batch.

    Sharing the batch makes the estimates exactly non-increasing in xi.
    """
    if mc < 100:
        raise ParameterError("mc must be >= 100")
    u0 = as_vector(u0, post.n_dim, "u0")
    rng = substream(seed, "exceedance")
    dist = post.distances(u0, rng.standard_normal((post.n_dim, mc)))
    out = []
    for xi in xis:
        if xi < 0:
            raise ParameterError("radius must be nonnegative")
        p = float(np.mean(dist > xi))
        out.append(ExceedanceEstimate(value=p, std_error=_binomial_se(p, mc),
                                      mc_count=mc, xi=float(xi)))
    return out


def weighted_posterior_exceedance(problem: InverseProblem, data: DataSample,
                                  u0: np.ndarray, xi: float,
                                  prior_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
                                  mc: int = 2000, seed: int = 0) -> ExceedanceEstimate:
    """Self-normalized prior-sampling estimate of the posterior exceedance.

    Draws come from the prior (or any supplied sampler); each is weighted by
    ``exp(-potential)``. The estimated normalizer is checked to be strictly
    positive and finite, and an effective sample size below 10 marks the
    result as degenerate.
    """
    if mc < 1000:
        raise ParameterError("mc must be >= 1000 for the weighted estimator")
    if xi < 0:
        raise ParameterError("radius must be nonnegative")
    u0 = as_vector(u0, problem.n_dim, "u0")
    rng = substream(seed, "weighted-exceedance")
    if prior_sampler is None:
        draws = rng.standard_normal((mc, problem.n_dim)) * np.sqrt(problem.prior.variances)[None, :]
    else:
        draws = np.asarray(prior_sampler(rng, mc), dtype=float)
        if draws.shape != (mc, problem.n_dim):
            raise ParameterError("prior_sampler must return an (mc, n_dim) array")

    w_y = problem.noise_whiten(data.y)
    log_w = -_potential_batch(problem, w_y, draws, data.n_level)
    return snis_exceedance(log_w, np.linalg.norm(draws - u0[None, :], axis=1), xi)


def snis_exceedance(log_w: np.ndarray, dist: np.ndarray, xi: float) -> ExceedanceEstimate:
    """Self-normalized importance estimate of the mass with ``dist > xi``.

    ``log_w`` holds the unnormalized log-weights of the draws and ``dist``
    their distances from the ball's center. Non-finite log-weights and a
    non-finite normalizer raise; an effective sample size below 10 marks the
    result as degenerate.
    """
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
    return ExceedanceEstimate(value=value, std_error=_binomial_se(value, ess),
                              mc_count=log_w.size, xi=float(xi), ess=ess,
                              log_normalizer=log_normalizer, degenerate=ess < 10.0)

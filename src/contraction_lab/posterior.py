"""Posterior computations: conjugate Gaussian form and exceedance.

Two independent routes to the same posterior are kept side by side: the
closed-form Gaussian conditioning (valid for Gaussian priors) and a
self-normalized importance sampler driven only by the data-misfit potential
Phi, which works for any prior that can be sampled. Phi is used by the
weighted route alone. Their agreement on exceedance probabilities is the
module's oracle-equivalence property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dormqr, dstevd, dsytrd, dsytrd_lwork, dtrtri

from .errors import NumericalError, ParameterError
from .rng import substream
from .spectral import InverseProblem, DataSample, as_vector

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


def _potential_batch(problem: InverseProblem, w_y: np.ndarray, u_rows: np.ndarray,
                     n_level: float) -> np.ndarray:
    """Data-misfit potential ``Phi(u) = (n/2) <Gu, Gu>_zeta - n <y, Gu>_zeta``
    of each row ``u`` of ``u_rows``, against pre-whitened data
    ``w_y = zeta^(-1/2) y``."""
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
    ``L^{-T}`` and the covariance ``L^{-T} L^{-1}`` that ``covariance_spectrum``
    decomposes. Both are read-only: every conditioned posterior shares them."""

    problem: InverseProblem
    n_level: float
    _precision_chol: np.ndarray

    def mean(self, y: np.ndarray) -> np.ndarray:
        """Posterior mean given data ``y`` (e-coordinates): a vector, or an
        (N, R) block of R data draws with one mean per column, which costs
        one matrix product and one triangular solve pair for all of them."""
        y = self._block(y, "y")
        rhs = self.n_level * (self.problem.whitened_forward.T @ self.problem.noise_whiten(y))
        return cho_solve((self._precision_chol, True), rhs)

    def condition(self, y: np.ndarray) -> PosteriorGaussian:
        """Posterior given data ``y`` (e-coordinates)."""
        return PosteriorGaussian(mean=self.mean(y), cov_factor=self._chol_inv.T,
                                 n_level=self.n_level)

    def _block(self, x, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim > 2 or x.shape[:1] != (self.problem.n_dim,):
            raise ParameterError(f"{name} must be a length-{self.problem.n_dim} vector or an "
                                 f"({self.problem.n_dim}, R) block, got shape {x.shape}")
        return x

    @cached_property
    def _chol_inv(self) -> np.ndarray:
        # Half the time of a solve against the identity. Its info flags only a
        # zero diagonal, which a Cholesky factor lacks.
        inv, _ = dtrtri(self._precision_chol, lower=1)
        inv.flags.writeable = False
        return inv

    def _lapack_ok(self, routine: str, info: int) -> None:
        if info != 0:
            raise NumericalError(f"LAPACK {routine} failed with info = {info} on the "
                                 f"posterior covariance at n_level = {float(self.n_level)!r}")

    def covariance_spectrum(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) of the posterior covariance ``C = V diag(lam)
        V^T`` and the projections ``V^T d`` of an (N,) or (N, R) block ``d``,
        without forming the eigenvectors V.

        The covariance, not the precision, is decomposed: the precision's
        condition number reaches 6.7e27 on a mildly ill-posed problem with
        prior smoothness 5, which would destroy the large covariance
        eigenvalues that dominate posterior radii. LAPACK reduces ``C = Q T
        Q^T`` to tridiagonal form (dsytrd), applies the reflectors Q^T to
        ``d`` (dormqr) and solves ``T = Z diag(lam) Z^T`` by divide and conquer
        (dstevd), so ``V^T d = Z^T Q^T d``; the back-transformation ``V = Q Z``
        of a full eigensolver is skipped. Computed eigenvalues down to
        ``-EIGENVALUE_RTOL * n_dim * max`` are the rounding of a zero and are
        set to zero; a more negative one, or a failed LAPACK call, raises
        ``NumericalError``.
        """
        d = self._block(d, "d")
        n = self.problem.n_dim
        # numpy forms ``A.T @ A`` by a symmetric rank-k update: exactly
        # symmetric, so its Fortran-ordered transpose is the same matrix and
        # LAPACK reduces it in place without a copy.
        cov = (self._chol_inv.T @ self._chol_inv).T
        lwork, info = dsytrd_lwork(n, lower=1)
        self._lapack_ok("dsytrd_lwork", info)
        tri, diag, off, tau, info = dsytrd(cov, lower=1, lwork=int(lwork), overwrite_a=1)
        self._lapack_ok("dsytrd", info)
        proj = np.array(d.reshape(n, -1))
        if n > 1:
            # A lower reduction leaves row 0 alone; its reflectors are the QR
            # factor of the trailing (N - 1) block.
            refl = np.asfortranarray(tri[1:, :-1])
            _, work, info = dormqr("L", "T", refl, tau, proj[1:], -1)
            self._lapack_ok("dormqr", info)
            proj[1:], _, info = dormqr("L", "T", refl, tau, proj[1:], int(work[0]))
            self._lapack_ok("dormqr", info)
            del refl
        del cov, tri  # freed before dstevd allocates its N x N workspace
        lam, z, info = dstevd(diag, off if n > 1 else np.zeros(1))
        self._lapack_ok("dstevd", info)
        floor = -EIGENVALUE_RTOL * n * lam[-1]
        if not (lam[-1] > 0 and lam[0] >= floor):
            raise NumericalError(f"posterior covariance eigenvalue {lam[0]:.3e} below the "
                                 f"rounding floor {floor:.3e} (largest {lam[-1]:.3e})")
        np.maximum(lam, 0.0, out=lam)
        return lam, (z.T @ proj).reshape(d.shape)

    def covariance_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of
        the posterior covariance: ``covariance_spectrum`` of the identity."""
        lam, vt = self.covariance_spectrum(np.eye(self.problem.n_dim))
        return lam, vt.T


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
                                  mc: int = 2000, seed: int = 0) -> ExceedanceEstimate:
    """Self-normalized prior-sampling estimate of the posterior exceedance.

    Draws come from the prior; each is weighted by ``exp(-potential)``. The
    estimated normalizer is checked to be strictly positive and finite, and an
    effective sample size below 10 marks the result as degenerate.
    """
    if mc < 1000:
        raise ParameterError("mc must be >= 1000 for the weighted estimator")
    if xi < 0:
        raise ParameterError("radius must be nonnegative")
    u0 = as_vector(u0, problem.n_dim, "u0")
    rng = substream(seed, "weighted-exceedance")
    draws = rng.standard_normal((mc, problem.n_dim)) * np.sqrt(problem.prior.variances)[None, :]

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

"""Posterior computations: the conjugate Gaussian form and exceedance.

The conjugate posterior factorizes over independent blocks of coordinates:
the precision, its Cholesky factor and the sampling factor are
``quadform.BlockDiagonal`` operators on the whitened Gram's blocks, and the
mean solve, triangular inverse, covariance eigensolve and sampling product go
part by part. The precision is factored in place, and the covariance comes
from the factor.

The exceedance ``P(||u - u0|| > xi | y)`` that pipelines report is a tail of
the quadratic form over ``covariance_spectrum`` (``quadform.tails``). The
sampler ``posterior_exceedance_grid`` is its Monte Carlo cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dtrtri

from . import quadform
from .errors import NumericalError, ParameterError
from .rng import substream
from .spectral import InverseProblem, DataSample, as_vector, check_noise_level

JITTER_DOUBLINGS = 3


def cholesky_with_jitter(mat: quadform.BlockDiagonal) -> quadform.BlockDiagonal:
    """Lower Cholesky factor of the symmetric ``quadform.BlockDiagonal``
    ``mat``, as a ``BlockDiagonal``, escalating a scaled-identity jitter on
    failure.

    LAPACK dpotrf factors each part in place when it is a writeable
    Fortran-ordered float array, and a copy otherwise, and its strict upper
    triangle is zeroed; a run of one-row blocks takes ``sqrt``, dpotrf's
    operation on one row. The jitter, 1e-12 * ||mat||_F doubled at most
    ``JITTER_DOUBLINGS`` times, shifts every block. A failed attempt has
    overwritten part of a lower triangle, so before a retry each part is
    restored from its untouched upper triangle and saved diagonal: every
    attempt factors ``mat + jitter I`` itself.
    """
    out = mat.map(lambda lo, hi, p: np.require(p, dtype=float, requirements=["F", "W"]))
    diags = [_diagonal(p).copy() for p in out.parts]
    jitter = 0.0
    for attempt in range(JITTER_DOUBLINGS + 2):  # unjittered, then each jitter
        if jitter:
            for p, d in zip(out.parts, diags):
                _diagonal(p)[...] = d + jitter
        if _factor_parts(out.parts):
            return out
        for p, d in zip(out.parts, diags):
            if p.ndim == 2:
                _set_upper(p.T)
            _diagonal(p)[...] = d
        jitter = 1e-12 * math.sqrt(out.square_sum()) if attempt == 0 else 2.0 * jitter
    raise NumericalError("Cholesky failed after jitter escalation",
                         condition_number=float(np.linalg.cond(out.dense())))


def _diagonal(part: np.ndarray) -> np.ndarray:
    """Writeable view of a part's diagonal: a run is its own diagonal."""
    return np.einsum("ii->i", part) if part.ndim == 2 else part


def _factor_parts(parts) -> bool:
    """Factor the Fortran-ordered parts in place and zero their strict upper
    triangles; False, upper triangles untouched, if one is not definite."""
    for p in parts:
        if p.ndim == 1:
            if not np.all(p > 0):
                return False
            np.sqrt(p, out=p)
        elif dpotrf(p, lower=1, clean=0, overwrite_a=1)[1]:
            return False
    for p in parts:
        if p.ndim == 2:
            _set_upper(p, zero=True)
    return True


def _set_upper(a: np.ndarray, zero: bool = False) -> np.ndarray:
    """Overwrite the strict upper triangle of the square ``a`` in place with
    the transpose of its strict lower one, or with zeros when ``zero``, one
    column at a time: each step copies between views, so nothing the size of
    ``a`` is allocated. On ``a.T`` it restores the lower triangle from the
    upper one."""
    for j in range(1, a.shape[0]):
        a[:j, j] = 0.0 if zero else a[j, :j]
    return a


# Rows of a sampling factor's block read at a time by the triangular-pattern check.
_CHECK_ROWS = 64


@dataclass(frozen=True, eq=False)
class PosteriorGaussian:
    """Gaussian posterior in phi-coordinates: a length-N vector ``mean`` and
    a covariance factor (covariance = factor @ factor.T), a
    ``quadform.BlockDiagonal`` whose blocks are upper-triangular with a
    positive diagonal and whose runs of one-row blocks are positive."""

    mean: np.ndarray
    cov_factor: quadform.BlockDiagonal
    n_level: float

    def __post_init__(self):
        check_noise_level(self.n_level)
        if not isinstance(self.cov_factor, quadform.BlockDiagonal):
            raise ParameterError("covariance factor must be a BlockDiagonal, not "
                                 + type(self.cov_factor).__name__)
        object.__setattr__(self, "mean", as_vector(self.mean, self.n_dim, "mean"))
        if not np.all(np.isfinite(self.mean)):
            raise ParameterError("mean must be finite")
        # A few rows of a part at a time, so no N x N temporary: left of the
        # rows' first diagonal entry every entry is zero, and so is the strict
        # lower triangle of their square at the diagonal; every entry is
        # finite, and the diagonal positive.
        for (lo, hi, run), part in zip(self.cov_factor.segments, self.cov_factor.parts):
            for top in range(0, hi - lo, _CHECK_ROWS):
                rows = part[top:top + _CHECK_ROWS]
                where = f"rows {lo + top}:{lo + top + rows.shape[0]}"
                if not run and (np.count_nonzero(rows[:, :top]) or np.count_nonzero(
                        np.tril(rows[:, top:top + rows.shape[0]], -1))):
                    raise ParameterError(f"covariance factor must be upper-triangular ({where})")
                if not (np.all(np.isfinite(rows))
                        and np.all((rows if run else np.diagonal(rows[:, top:])) > 0)):
                    raise ParameterError("covariance factor must be finite with a positive "
                                         f"diagonal ({where})")

    @property
    def n_dim(self) -> int:
        return self.cov_factor.n_dim

    def distances(self, u0: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Distances from u0 of the posterior draws ``mean + cov_factor @ z``,
        one per column of the (N, count) standard-normal array ``z``.

        Overwrites ``z`` when it is a writeable C-ordered float array (any
        other ``z`` is copied first), so no second (N, count) array exists:
        in memory such a ``z`` is the Fortran-ordered (count, N) ``z^T``. On
        each block BLAS dtrmm forms ``z^T cov_factor^T``, a right-side product
        with a lower-triangular matrix, in place; each run scales its columns.
        The offset is then added and the squares summed as
        ``np.linalg.norm(dev, axis=0)`` does.
        """
        z = np.require(z, dtype=float, requirements=["C", "W"])
        if z.ndim != 2 or z.shape[0] != self.n_dim:
            raise ParameterError(f"z must be an ({self.n_dim}, count) array, got shape {z.shape}")
        zt = z.T
        for (lo, hi, run), part in zip(self.cov_factor.segments, self.cov_factor.parts):
            if run:
                zt[:, lo:hi] *= part
            else:
                dtrmm(1.0, part.T, zt[:, lo:hi], side=1, lower=1, overwrite_b=1)
        z += (self.mean - u0)[:, None]
        z *= z
        return np.sqrt(np.add.reduce(z, axis=0))


def posterior_precision(problem: InverseProblem, n_level: float) -> quadform.BlockDiagonal:
    """Prior precision plus ``n`` times the whitened Gram, on the Gram's
    blocks, in fresh parts that ``cholesky_with_jitter`` factors in place."""
    check_noise_level(n_level)
    inv_var = 1.0 / problem.prior.variances

    def part(lo: int, hi: int, gram: np.ndarray) -> np.ndarray:
        out = np.multiply(gram, n_level)
        _diagonal(out)[...] += inv_var[lo:hi]
        return out
    return problem.whitened_gram.map(part)


@dataclass(frozen=True, eq=False)
class PosteriorFactor:
    """The data-independent part of the conjugate posterior at one noise
    level: factor once per n, then condition on any number of data draws.

    The precision's Cholesky factor L, a read-only ``quadform.BlockDiagonal``
    on the problem's blocks, is the only factorization. ``covariance_spectrum``
    takes each block of the covariance ``L^{-T} L^{-1}`` from L by LAPACK
    dpotri; the triangular inverse, whose transpose is the sampling factor,
    is formed only on the first ``condition``. A run of one-row blocks takes
    these calls' closed forms in their own operation order: ``1 / l``, then
    ``(1 / l) * (1 / l)``."""

    problem: InverseProblem
    n_level: float
    _precision_chol: quadform.BlockDiagonal

    def mean(self, y: np.ndarray) -> np.ndarray:
        """Posterior mean given data ``y`` (e-coordinates): a vector, or an
        (N, R) block of R data draws with one mean per column, from one
        ``BlockDiagonal.cho_solve`` of ``n M^T W y`` (W the whitening root),
        which ``problem.whitened_adjoint`` forms without M."""
        y = self._block(y, "y")
        rhs = self.n_level * self.problem.whitened_adjoint(self.problem.noise_whiten(y))
        return self._precision_chol.cho_solve(rhs, cho_solve)

    def condition(self, y: np.ndarray) -> PosteriorGaussian:
        """Posterior given data ``y`` (e-coordinates)."""
        return PosteriorGaussian(mean=self.mean(y), cov_factor=self._cov_factor,
                                 n_level=self.n_level)

    def _block(self, x, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim > 2 or x.shape[:1] != (self.problem.n_dim,):
            raise ParameterError(f"{name} must be a length-{self.problem.n_dim} vector or an "
                                 f"({self.problem.n_dim}, R) block, got shape {x.shape}")
        return x

    @cached_property
    def _cov_factor(self) -> quadform.BlockDiagonal:
        """The sampling factor ``L^{-T}`` (read-only), which every posterior
        shares: per block the transpose of dtrtri's ``L^{-1}``, uncopied
        (half the time of a solve against the identity; its info flags only a
        zero diagonal, which a Cholesky factor lacks), and ``1 / l`` per run."""
        return self._precision_chol.map(
            lambda lo, hi, l: dtrtri(l, lower=1)[0].T if l.ndim == 2 else 1.0 / l).read_only()

    def _covariance(self, lo: int, hi: int, l: np.ndarray) -> np.ndarray:
        """The covariance ``L^{-T} L^{-1}`` on one part ``l`` of L: dpotri on
        a copy of a block, which holds it in the lower triangle that
        ``quadform.block_spectrum`` reads; ``(1 / l) * (1 / l)`` on a run."""
        if l.ndim == 1:
            inv = 1.0 / l
            return inv * inv
        cov, info = dpotri(np.array(l, order="F"), lower=1, overwrite_c=1)
        if info:
            raise NumericalError(f"LAPACK dpotri failed with info = {info} on the posterior "
                                 f"covariance at n_level = {float(self.n_level)!r}, rows {lo}:{hi}")
        return cov

    def covariance_spectrum(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) of the posterior covariance ``C = V diag(lam)
        V^T`` and the projections ``V^T d`` of an (N,) or (N, R) block ``d``,
        without forming the eigenvectors V (``quadform.block_spectrum``, one
        part of L at a time). Each block of C is formed from L only when it
        is decomposed, and reduced in place.

        The covariance, not the precision, is decomposed: the precision's
        condition number reaches 6.7e27 on a mildly ill-posed problem with
        prior smoothness 5, which would destroy the large covariance
        eigenvalues that dominate posterior radii.
        """
        d = self._block(d, "d")
        return quadform.block_spectrum(self._precision_chol, d,
                                       f"posterior covariance at n_level = {float(self.n_level)!r}",
                                       self._covariance)


def factor_posterior(problem: InverseProblem, n_level: float) -> PosteriorFactor:
    """Factor the conjugate posterior at noise level ``n_level`` once; the
    result conditions on any number of data draws. The precision's parts are
    built Fortran-ordered and factored in place, the layout LAPACK's solves
    read without a copy."""
    p_chol = cholesky_with_jitter(posterior_precision(problem, n_level)).read_only()
    return PosteriorFactor(problem, n_level, p_chol)


def conjugate_posterior(problem: InverseProblem, data: DataSample) -> PosteriorGaussian:
    """Closed-form Gaussian posterior for the problem's Gaussian prior."""
    return factor_posterior(problem, data.n_level).condition(data.y)


# ---------------------------------------------------------------------------
# Exceedance probabilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExceedanceEstimate:
    """Monte Carlo estimate of the posterior mass outside a ball, with its
    binomial standard error."""

    value: float
    std_error: float
    mc_count: int
    xi: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ParameterError(f"exceedance estimate {self.value} outside [0, 1]")
        if self.std_error > 0.5 / math.sqrt(self.mc_count) + 1e-12:
            raise ParameterError("standard error exceeds the binomial bound")


def _binomial_se(p: float, count: float) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / count)


def posterior_exceedance_grid(post: PosteriorGaussian, u0: np.ndarray, xis,
                              mc: int, seed: int) -> list[ExceedanceEstimate]:
    """Monte Carlo exceedance at several radii from one shared sample batch,
    the cross-check of the saddlepoint tails that pipelines report.

    Sharing the batch makes the estimates exactly non-increasing in xi.
    """
    if mc < 100:
        raise ParameterError("mc must be >= 100")
    u0 = as_vector(u0, post.n_dim, "u0")
    rng = substream(seed, "exceedance")
    dist = post.distances(u0, rng.standard_normal((post.n_dim, mc)))
    out = []
    for xi in xis:
        if not xi >= 0:
            raise ParameterError("radius must be nonnegative")
        p = float(np.mean(dist > xi))
        out.append(ExceedanceEstimate(value=p, std_error=_binomial_se(p, mc),
                                      mc_count=mc, xi=float(xi)))
    return out

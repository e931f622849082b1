"""Posterior computations: the conjugate Gaussian form and exceedance.

The conjugate posterior factorizes over independent blocks of coordinates:
the precision, its Cholesky factor and the sampling factor are
``quadform.BlockDiagonal`` operators on the whitened Gram's blocks, and the
mean solve, triangular inverse, covariance eigensolve and sampling product go
part by part. The precision is factored once, in place, with no jitter: a
precision that is not positive definite raises ``NumericalError`` naming its
rows. A factor part's lower triangle is L, and nothing in the package reads
above it; the one exception is ``factor_posterior``'s read-only factor,
which is clean. ``posterior_spectrum``, the pipelines' one call per n,
inverts each part of its fresh factor in place (LAPACK dpotri) just before
its block is reduced; ``PosteriorFactor`` reduces copies of its factor.

The exceedance ``P(||u - u0|| > xi | y)`` that pipelines report is a tail of
the quadratic form over that spectrum (``quadform.tails``). The sampler
``posterior_exceedance_grid`` is its Monte Carlo cross-check.
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


def cholesky_with_jitter(mat: quadform.BlockDiagonal) -> quadform.BlockDiagonal:
    """Lower Cholesky factor of the symmetric positive definite
    ``BlockDiagonal`` ``mat``. Despite the name (which the benchmark harness
    binds) no jitter is added: LAPACK dpotrf factors each part once, in place
    when it is a writeable Fortran-ordered float array and in a copy
    otherwise. L is each part's lower triangle; nothing in the package reads
    the precision's entries that dpotrf leaves above it (``factor_posterior``
    zeroes them). A run of one-row blocks takes ``sqrt``. The first part that
    is not positive definite raises ``NumericalError`` naming its rows."""
    def factor(lo: int, hi: int, part: np.ndarray) -> np.ndarray:
        part = np.require(part, dtype=float, requirements=["F", "W"])
        if part.ndim == 1:
            bad = lo + np.flatnonzero(~(part > 0))
            if bad.size:
                raise NumericalError(f"Cholesky factor: rows {bad[0]}:{bad[0] + 1} are not "
                                     "positive definite")
            return np.sqrt(part, out=part)
        chol, info = dpotrf(part, lower=1, clean=0, overwrite_a=1)
        if info:
            raise NumericalError(f"Cholesky factor: rows {lo}:{hi} are not positive definite "
                                 f"(LAPACK dpotrf: leading minor of order {info})")
        return chol
    return mat.map(factor)


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
    blocks, in fresh Fortran-ordered parts that ``cholesky_with_jitter``
    factors once, in place."""
    check_noise_level(n_level)
    inv_var = 1.0 / problem.prior.variances

    def part(lo: int, hi: int, gram: np.ndarray) -> np.ndarray:
        out = np.multiply(gram, n_level)
        out[np.diag_indices(hi - lo, out.ndim)] += inv_var[lo:hi]  # a run is its diagonal
        return out
    return problem.whitened_gram.map(part)


def _as_block(x, n_dim: int, name: str) -> np.ndarray:
    """``x`` as a float length-N vector or (N, R) block."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 2 or x.shape[:1] != (n_dim,):
        raise ParameterError(f"{name} must be a length-{n_dim} vector or an "
                             f"({n_dim}, R) block, got shape {x.shape}")
    return x


def _mean(problem: InverseProblem, n_level: float, chol: quadform.BlockDiagonal,
          y: np.ndarray) -> np.ndarray:
    """The posterior mean given the vector or block ``y``, from the
    precision's Cholesky factor ``chol``: one ``BlockDiagonal.cho_solve`` of
    ``n M^T W y`` (W the whitening root), which ``problem.whitened_adjoint``
    forms without M."""
    rhs = n_level * problem.whitened_adjoint(problem.noise_whiten(y))
    return chol.cho_solve(rhs, cho_solve)


def _covariance(lo: int, hi: int, l: np.ndarray, what: str) -> np.ndarray:
    """The covariance ``L^{-T} L^{-1}`` on one part ``l`` of L, written over
    ``l`` (a writeable Fortran-ordered array): dpotri on a block, which holds
    it in the lower triangle that ``quadform.block_spectrum`` reads;
    ``(1 / l) * (1 / l)`` on a run."""
    if l.ndim == 1:
        np.divide(1.0, l, out=l)
        return np.multiply(l, l, out=l)
    cov, info = dpotri(l, lower=1, overwrite_c=1)
    if info:
        raise NumericalError(f"LAPACK dpotri failed with info = {info} on the {what}, "
                             f"rows {lo}:{hi}")
    return cov


def _covariance_spectrum(segments, parts, d: np.ndarray,
                         n_level: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) of the posterior covariance ``C = V diag(lam)
    V^T`` and the projections ``V^T d`` of an (N,) or (N, R) block ``d``,
    without forming V: the one inversion and reduction of the factor's parts.
    ``parts`` yields each part of L on ``segments`` in order, writeable,
    Fortran-ordered and held by nothing else. Each is inverted in place only
    when its block is decomposed and reduced in place by
    ``quadform.block_spectrum``, which lets it go before dstevd allocates its
    eigenvectors and workspace.

    The covariance, not the precision, is decomposed: the precision's
    condition number reaches 6.7e27 on a mildly ill-posed problem with prior
    smoothness 5, which would destroy the large covariance eigenvalues that
    dominate posterior radii.
    """
    what = f"posterior covariance at n_level = {float(n_level)!r}"
    return quadform.block_spectrum(
        segments, (_covariance(lo, hi, next(parts), what) for lo, hi, _ in segments), d, what)


@dataclass(frozen=True, eq=False)
class PosteriorFactor:
    """The data-independent part of the conjugate posterior at one noise
    level: factor once per n, then condition on any number of data draws.

    The precision's Cholesky factor L, a read-only ``quadform.BlockDiagonal``
    on the problem's blocks, is the only factorization. The covariance comes
    from the factor: ``covariance_spectrum`` runs ``posterior_spectrum``'s
    eigensolve on a copy of each part of L, made when its block is reduced;
    the triangular inverse, whose transpose is the sampling factor, is formed
    only on the first ``condition``. A run of one-row blocks takes these
    calls' closed forms in their own operation order: ``1 / l``, then
    ``(1 / l) * (1 / l)``."""

    problem: InverseProblem
    n_level: float
    _precision_chol: quadform.BlockDiagonal

    def mean(self, y: np.ndarray) -> np.ndarray:
        """Posterior mean given data ``y`` (e-coordinates): a vector, or an
        (N, R) block of R data draws with one mean per column."""
        return _mean(self.problem, self.n_level, self._precision_chol,
                     _as_block(y, self.problem.n_dim, "y"))

    def condition(self, y: np.ndarray) -> PosteriorGaussian:
        """Posterior given data ``y`` (e-coordinates)."""
        return PosteriorGaussian(mean=self.mean(y), cov_factor=self._cov_factor,
                                 n_level=self.n_level)

    @cached_property
    def _cov_factor(self) -> quadform.BlockDiagonal:
        """The sampling factor ``L^{-T}`` (read-only), which every posterior
        shares: per block the transpose of dtrtri's ``L^{-1}``, uncopied
        (half the time of a solve against the identity; its info flags only a
        zero diagonal, which a Cholesky factor lacks), and ``1 / l`` per run."""
        return self._precision_chol.map(
            lambda lo, hi, l: dtrtri(l, lower=1)[0].T if l.ndim == 2 else 1.0 / l).read_only()

    def covariance_spectrum(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) of the posterior covariance and the
        projections ``V^T d`` of an (N,) or (N, R) block ``d``
        (``_covariance_spectrum``), bit for bit as ``posterior_spectrum``
        gives them; L stays intact for ``condition``."""
        d = _as_block(d, self.problem.n_dim, "d")
        chol = self._precision_chol
        return _covariance_spectrum(chol.segments,
                                    (np.array(l, order="F") for l in chol.parts),
                                    d, self.n_level)


def factor_posterior(problem: InverseProblem, n_level: float) -> PosteriorFactor:
    """Factor the conjugate posterior at noise level ``n_level`` once; the
    result conditions on any number of data draws. The precision's parts are
    built Fortran-ordered and factored in place, the layout LAPACK's solves
    read without a copy, then zeroed above L in place: the factor's triangular
    inverse, the sampling factor, is read whole."""
    chol = cholesky_with_jitter(posterior_precision(problem, n_level))
    for l in (l for l in chol.parts if l.ndim == 2):
        np.copyto(l, 0.0, where=np.tri(l.shape[0], k=-1, dtype=bool).T)
    return PosteriorFactor(problem, n_level, chol.read_only())


def posterior_spectrum(problem: InverseProblem, n_level: float, y: np.ndarray,
                       u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) of the posterior covariance at ``n_level`` and
    the projections ``V^T (mean - u0)`` of the posterior mean given data
    ``y``, a vector or an (N, R) block with one mean and one column of
    projections per column: the pipelines' one call per n.

    It owns the fresh Cholesky factor L from dpotrf to dstevd. The mean is
    solved with L as ``PosteriorFactor.mean`` solves it; then each part of L
    is handed to ``_covariance_spectrum``, which inverts it in place, so L,
    the covariance and dstevd's arrays are never held together and no part
    is copied. The result equals ``factor_posterior``'s route bit for bit.
    """
    y = _as_block(y, problem.n_dim, "y")
    u0 = as_vector(u0, problem.n_dim, "u0")
    chol = cholesky_with_jitter(posterior_precision(problem, n_level))
    d = _mean(problem, n_level, chol, y)
    d -= u0 if d.ndim == 1 else u0[:, None]
    segments, parts = chol.segments, list(chol.parts)
    del chol
    return _covariance_spectrum(segments, (parts.pop(0) for _ in segments), d, n_level)


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

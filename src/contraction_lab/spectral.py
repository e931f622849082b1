"""Truncated spectral-coordinate model of a linear Gaussian inverse problem.

Everything lives in a fixed N-dimensional coordinate space. The operator acts
diagonally in the e-basis through its singular values; a second orthonormal
basis (the columns of an orthogonal coupling matrix) carries the prior. Data
follow ``y = G u + noise / sqrt(n)`` with Gaussian noise that is either
diagonal in the e-basis or given by a dense SPD covariance. The coupling T
is held once, as a ``quadform.BlockDiagonal``: the identity is one run of
ones and a banded coupling its seeded blocks, with no N x N array, while a
coupling that arrives as a dense matrix is split on its zero pattern by
``_coupling_blocks``. Where the noise is diagonal, the whitened forward map M
and the whitened Gram are ``quadform.BlockDiagonal`` operators formed from
T's parts; M's dense view is formed only when ``whitened_forward`` is read.

Indexing convention: coordinate k runs from 1 to N in formulas; arrays are
0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.blas import dtrmm, dtrmv
from scipy.linalg.lapack import dpotrf, dsyevd

from . import quadform
from .errors import ConstructionError, NumericalError, ParameterError
from .rng import substream

ORTHOGONALITY_TOL = 1e-10


def as_vector(x, n_dim: int, name: str) -> np.ndarray:
    """``x`` as a float array of shape ``(n_dim,)``; no copy when it already is one."""
    v = np.asarray(x, dtype=float)
    if v.shape != (n_dim,):
        raise ParameterError(f"{name} must be a length-{n_dim} vector, got shape {v.shape}")
    return v


def check_noise_level(n_level: float) -> None:
    """Raise ``ParameterError`` unless the noise level is positive and finite."""
    if not 0 < n_level < math.inf:
        raise ParameterError(f"n_level must be positive and finite, got {n_level!r}")


def _frozen(x: np.ndarray) -> np.ndarray:
    """Read-only float copy, so freezing never touches the caller's array."""
    return _read_only(np.array(x, dtype=float))


def _read_only(v: np.ndarray) -> np.ndarray:
    """``v`` itself, made read-only; for arrays no caller holds."""
    v.flags.writeable = False
    return v


def _coupling_blocks(t: np.ndarray) -> np.ndarray:
    """Edges of the finest diagonal blocks outside which the square ``t`` is
    exactly zero, in one scan: coordinate i reaches its row's last nonzero
    column and its column's last nonzero row (at least i), and a block ends
    after k exactly when nothing up to k reaches past k. A nonzero corner
    couples the first coordinate to the last: one block without a scan."""
    n = t.shape[0]
    if t[-1, 0] != 0 or t[0, -1] != 0:
        return np.array([0, n])
    nz = t != 0
    np.fill_diagonal(nz, True)
    reach = n - 1 - np.minimum(nz[:, ::-1].argmax(axis=1), nz[::-1].argmax(axis=0))
    return np.flatnonzero(np.insert(np.maximum.accumulate(reach) == np.arange(n), 0, True))


def _scale_rows(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Multiply row i of ``x`` (vector or matrix) by ``s[i]``."""
    if x.ndim == 1:
        return s * x
    return s[:, None] * x


# ---------------------------------------------------------------------------
# Operator spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MildFamily:
    """Polynomial singular-value decay ``(1 + k^2)^(-alpha/2)`` up to constants."""

    alpha: float
    c1: float = 1.0
    c2: float = 1.0


@dataclass(frozen=True)
class SevereFamily:
    """Exponential singular-value decay ``(1+k^2)^(-a) * exp(-2 c0 k^(-beta))``.

    Decay requires ``beta < 0`` (the exponent then grows like ``k**|beta|``).
    """

    alpha1: float
    alpha2: float
    c0: float
    beta: float


SpectrumFamily = MildFamily | SevereFamily


@dataclass(frozen=True, eq=False)
class OperatorSpectrum:
    """Singular values of the forward operator, non-increasing and positive."""

    n_dim: int
    rho: np.ndarray
    family: SpectrumFamily | None = None  # None marks an explicit spectrum

    def __post_init__(self):
        if self.n_dim < 1:
            raise ParameterError("n_dim must be >= 1")
        rho = _frozen(as_vector(self.rho, self.n_dim, "rho"))
        object.__setattr__(self, "rho", rho)
        if not np.all(np.isfinite(rho)) or np.any(rho <= 0):
            raise ParameterError("all singular values must be positive and finite")
        if np.any(np.diff(rho) > 0):
            raise ParameterError("singular values must be non-increasing in k")

    def envelope_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Lower/upper family envelope at every stored index, or None if explicit."""
        k = np.arange(1, self.n_dim + 1, dtype=float)
        if isinstance(self.family, MildFamily):
            base = (1.0 + k**2) ** (-self.family.alpha / 2.0)
            return self.family.c1 * base, self.family.c2 * base
        if isinstance(self.family, SevereFamily):
            expo = np.exp(-2.0 * self.family.c0 * k ** (-self.family.beta))
            lo = (1.0 + k**2) ** (-self.family.alpha1) * expo
            hi = (1.0 + k**2) ** (-self.family.alpha2) * expo
            return lo, hi
        return None


def make_spectrum(family: SpectrumFamily | np.ndarray, n_dim: int) -> OperatorSpectrum:
    """Build a spectrum from a family spec or an explicit value vector.

    The family representative runs through the middle of the envelope
    (geometric mean of the two bounds); for a mild family with c1 = c2 = 1
    that is exactly ``(1 + k^2)^(-alpha/2)``.
    """
    k = np.arange(1, n_dim + 1, dtype=float)
    if isinstance(family, MildFamily):
        if family.alpha < 0:
            raise ParameterError("mild family requires alpha >= 0")
        if family.c1 <= 0 or family.c2 <= 0 or family.c1 > family.c2:
            raise ParameterError("mild family requires 0 < c1 <= c2")
        rho = math.sqrt(family.c1 * family.c2) * (1.0 + k**2) ** (-family.alpha / 2.0)
        return OperatorSpectrum(n_dim, rho, family)
    if isinstance(family, SevereFamily):
        if family.alpha1 < family.alpha2 or family.alpha2 < 0:
            raise ParameterError("severe family requires alpha1 >= alpha2 >= 0")
        if family.c0 <= 0:
            raise ParameterError("severe family requires c0 > 0")
        mean_alpha = 0.5 * (family.alpha1 + family.alpha2)
        rho = (1.0 + k**2) ** (-mean_alpha) * np.exp(-2.0 * family.c0 * k ** (-family.beta))
        return OperatorSpectrum(n_dim, rho, family)
    return OperatorSpectrum(n_dim, np.asarray(family, dtype=float), None)


# ---------------------------------------------------------------------------
# Orthogonal basis couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCoupling:
    pass


@dataclass(frozen=True)
class BandedCoupling:
    """Column j supported on rows ``[ceil(j*lo_ratio)-1, ceil(j*hi_ratio)]``."""

    lo_ratio: float = 1.0 / 3.0
    hi_ratio: float = 2.0


@dataclass(frozen=True, eq=False)
class ReflectionCoupling:
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class ExpSkewCoupling:
    a_matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class ExplicitCoupling:
    t_matrix: np.ndarray


CouplingKind = IdentityCoupling | BandedCoupling | ReflectionCoupling | ExpSkewCoupling | ExplicitCoupling


@dataclass(frozen=True, eq=False)
class OrthogonalCoupling:
    """Orthogonal matrix T whose column j holds the j-th prior-basis vector,
    held once, as ``t``, on the finest diagonal blocks outside which T is
    exactly zero: a banded coupling's seeded blocks, one run of ones for the
    identity, a dense T's zero-pattern blocks. ``t``'s parts are made
    read-only and checked to be orthonormal part by part. ``kind`` holds
    read-only copies of its arrays; an explicit kind holds the dense T that
    ``t``'s parts view (its one part itself when T is one block).
    """

    n_dim: int
    t: quadform.BlockDiagonal
    kind: CouplingKind

    def __post_init__(self):
        if not isinstance(self.t, quadform.BlockDiagonal) or self.t.n_dim != self.n_dim:
            raise ParameterError("t must be a BlockDiagonal operator of size n_dim")
        err_sq = 0.0  # T'T is zero between blocks: ||T'T - I||_F sums over the parts
        for (lo, hi, run), p in zip(self.t.segments, self.t.read_only().parts):
            gram = p * p if run else p.T @ p
            gram.flat[::1 if run else hi - lo + 1] -= 1.0
            err_sq += np.linalg.norm(gram) ** 2
        err = math.sqrt(err_sq)
        if not err < ORTHOGONALITY_TOL:  # a NaN entry makes err NaN, which fails too
            raise ParameterError(f"coupling is not orthonormal: ||T'T - I||_F = {err:.3e}")


def band_window(j: int, lo_ratio: float, hi_ratio: float, n_dim: int) -> tuple[int, int]:
    """Allowed row range (1-based, inclusive) for banded column j."""
    lo = max(1, math.ceil(j * lo_ratio) - 1)
    hi = min(n_dim, math.ceil(j * hi_ratio))
    return lo, hi


def _banded_blocks(n_dim: int, lo_ratio: float, hi_ratio: float,
                   rng: np.random.Generator) -> list[tuple[int, int]]:
    """Seeded partition of 1..N into blocks that sit strictly inside every
    member column's band window (1-based inclusive bounds)."""
    blocks = []
    a = 1
    while a <= n_dim:
        b_max = a
        while b_max < n_dim:
            b = b_max + 1
            # stay strictly below the top edge of the narrowest column,
            # and above the bottom edge of the widest one
            if b > math.ceil(a * hi_ratio) - 1:
                break
            if max(1, math.ceil(b * lo_ratio) - 1) > a:
                break
            b_max = b
        size = int(rng.integers(1, b_max - a + 2))
        blocks.append((a, a + size - 1))
        a += size
    return blocks


def _haar_orthogonal(size: int, rng: np.random.Generator, run: bool = False) -> np.ndarray:
    """A Haar-random orthogonal block of ``size`` rows, or with ``run`` the
    diagonal of ``size`` one-row blocks drawn in turn: each is the sign of
    one normal, as the size-one block is."""
    if run:
        return np.sign(rng.standard_normal(size))
    z = rng.standard_normal((size, size))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def _dense_coupling(t: np.ndarray, kind: CouplingKind) -> OrthogonalCoupling:
    """The coupling whose T arrives as the square array ``t``, which no
    caller holds: made read-only and split into views of its blocks, which
    ``_coupling_blocks`` reads off its zero pattern."""
    t = _read_only(t)
    return OrthogonalCoupling(t.shape[0], quadform.BlockDiagonal.from_dense(
        t, _coupling_blocks(t)), kind)


def make_coupling(kind: CouplingKind, n_dim: int, seed: int = 0) -> OrthogonalCoupling:
    """Construct an orthogonal coupling of the requested kind.

    The identity is one run of ones. Banded couplings are built from seeded
    orthogonal blocks placed inside the band pattern, so entries outside
    every column's window are exactly zero while the whole matrix stays
    orthogonal to rounding error.
    """
    if n_dim < 1:
        raise ParameterError("n_dim must be >= 1")
    if isinstance(kind, IdentityCoupling):
        return OrthogonalCoupling(n_dim, quadform.BlockDiagonal(
            np.arange(n_dim + 1), lambda lo, hi, run: np.ones(hi - lo)), kind)
    if isinstance(kind, BandedCoupling):
        if not (0 < kind.lo_ratio < kind.hi_ratio):
            raise ParameterError("banded coupling requires 0 < lo_ratio < hi_ratio")
        if kind.hi_ratio <= 1.0 and n_dim > 1:
            raise ConstructionError("band pattern infeasible: hi_ratio <= 1 leaves no room above the diagonal")
        rng = substream(seed, "banded-coupling")
        edges = [0] + [b for _, b in _banded_blocks(n_dim, kind.lo_ratio, kind.hi_ratio, rng)]
        return OrthogonalCoupling(n_dim, quadform.BlockDiagonal(
            edges, lambda lo, hi, run: _haar_orthogonal(hi - lo, rng, run)), kind)
    if isinstance(kind, ReflectionCoupling):
        v = as_vector(kind.v, n_dim, "v")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ParameterError("reflection vector must be nonzero")
        v = _read_only(v / norm)
        return _dense_coupling(np.eye(n_dim) - 2.0 * np.outer(v, v), ReflectionCoupling(v))
    if isinstance(kind, ExpSkewCoupling):
        a = _frozen(kind.a_matrix)
        if a.shape != (n_dim, n_dim):
            raise ParameterError("skew generator must be square of size n_dim")
        skew_err = np.abs(a + a.T).max()
        if skew_err > 1e-12 * max(1.0, np.abs(a).max()):
            raise ParameterError(f"generator is not skew-symmetric: max|A + A'| = {skew_err:.3e}")
        from scipy.linalg import expm

        return _dense_coupling(expm(a), ExpSkewCoupling(a))
    if isinstance(kind, ExplicitCoupling):
        t = _frozen(kind.t_matrix)
        if t.shape != (n_dim, n_dim):
            raise ParameterError("an explicit coupling must be a square matrix of size n_dim")
        return _dense_coupling(t, ExplicitCoupling(t))
    raise ParameterError(f"unknown coupling kind: {kind!r}")


# ---------------------------------------------------------------------------
# Gaussian sequence measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GaussianSequenceMeasure:
    """Centered Gaussian measure, diagonal on the axes ``basis`` names ("phi"
    for priors, "e" for noise), with the given coordinate variances, stored
    as a read-only copy.
    """

    n_dim: int
    variances: np.ndarray
    basis: str

    def __post_init__(self):
        if self.basis not in ("e", "phi"):
            raise ParameterError("basis must be 'e' or 'phi'")
        v = _frozen(as_vector(self.variances, self.n_dim, "variances"))
        object.__setattr__(self, "variances", v)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ParameterError("all variances must be positive and finite")


@dataclass(frozen=True, eq=False)
class DenseNoise:
    """Centered Gaussian noise with a dense SPD covariance ``zeta`` in
    e-coordinates, held as the lower Cholesky factor L of its whitening root
    ``W = zeta^(-1/2) = L L'``.

    ``root_factor`` is read-only and Fortran-ordered, read in place by BLAS and
    ``cho_solve`` (its lower triangle only): a copy of a caller's array, and
    the fresh read-only factor itself that ``dense_noise`` and ``colored_noise`` make.
    """

    n_dim: int
    root_factor: np.ndarray
    basis: ClassVar[str] = "e"

    def __post_init__(self):
        f = self.root_factor
        if not (isinstance(f, np.ndarray) and f.dtype == float and f.flags.f_contiguous
                and f.flags.owndata and not f.flags.writeable):
            f = _read_only(np.array(f, dtype=float, order="F"))
        if f.shape != (self.n_dim, self.n_dim):
            raise ParameterError("root_factor must be square of size n_dim")
        if not np.all(np.isfinite(f)) or np.any(np.diagonal(f) <= 0):
            raise ParameterError("root_factor must be finite with a positive diagonal")
        object.__setattr__(self, "root_factor", f)

    @cached_property
    def dense(self) -> np.ndarray:
        """The covariance ``zeta = W^(-2)`` (read-only)."""
        w_inv = cho_solve((self.root_factor, True), np.eye(self.n_dim), check_finite=False)
        return _read_only(w_inv @ w_inv)


def power_law_prior(delta: float, n_dim: int) -> GaussianSequenceMeasure:
    """Prior variances ``(1 + k^2)^(-1/2 - delta)`` along the phi-basis."""
    if delta <= 0:
        raise ParameterError("prior smoothness delta must be positive")
    k = np.arange(1, n_dim + 1, dtype=float)
    return GaussianSequenceMeasure(n_dim, (1.0 + k**2) ** (-0.5 - delta), "phi")


def explicit_prior(variances, n_dim: int) -> GaussianSequenceMeasure:
    return GaussianSequenceMeasure(n_dim, np.asarray(variances, dtype=float), "phi")


def white_noise(n_dim: int) -> GaussianSequenceMeasure:
    return GaussianSequenceMeasure(n_dim, np.ones(n_dim), "e")


def diagonal_noise(variances, n_dim: int) -> GaussianSequenceMeasure:
    return GaussianSequenceMeasure(n_dim, np.asarray(variances, dtype=float), "e")


def _is_symmetric(a: np.ndarray) -> bool:
    """Square, and equal to its transpose to 1e-12 of its largest entry."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    diff = np.subtract(a, a.T)
    return bool(np.abs(diff, out=diff).max() <= 1e-12 * max(1.0, a.max(), -a.min()))


def _noise_from_root(root: np.ndarray, failure: str) -> DenseNoise:
    """Dense noise whose whitening root is the SPD matrix ``root``, which is
    factored in place when it is Fortran-ordered; ``failure`` is the error
    message when it is not positive definite."""
    factor, info = dpotrf(root, lower=1, overwrite_a=1)
    if info != 0:
        raise ParameterError(failure)
    return DenseNoise(root.shape[0], _read_only(factor))


def dense_noise(covariance: np.ndarray) -> DenseNoise:
    """Wrap a dense SPD covariance (e-coordinates) as a noise measure: one
    ``eigh`` gives its whitening root ``V diag(v^(-1/2)) V'``."""
    cov = np.asarray(covariance, dtype=float)
    if not _is_symmetric(cov):
        raise ParameterError("dense covariance must be symmetric")
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= 0:
        raise ParameterError(f"noise covariance is not SPD: min eigenvalue {vals.min():.3e}")
    half = vecs * vals**-0.25
    return _noise_from_root(half @ half.T, "the whitening root of the noise covariance "
                                           "is not numerically positive definite")


_NOT_POSITIVE = "G^(-{a}) + {k} is not positive definite; {k} must be a positive operator"


def _shifted(spectrum: OperatorSpectrum, a: float, k: np.ndarray, k_name: str) -> np.ndarray:
    """``G^(-a) + K`` as a new Fortran-ordered array, for a symmetric K of size n_dim."""
    k = np.asarray(k, dtype=float)
    if k.shape != (spectrum.n_dim, spectrum.n_dim) or not _is_symmetric(k):
        raise ParameterError(f"{k_name} must be a symmetric matrix of size n_dim")
    out = np.array(k, order="F")
    diag = np.arange(spectrum.n_dim)
    out[diag, diag] += spectrum.rho ** (-a)
    return out


def colored_noise(spectrum: OperatorSpectrum, r: float, k1: np.ndarray) -> DenseNoise:
    """Noise covariance ``(G^(-r) + K1)^(-2)``: its whitening root is
    ``G^(-r) + K1`` itself, so one Cholesky factorization and no eigensolve."""
    if not (0 < r < 1):
        raise ParameterError("colored noise requires r in (0, 1)")
    return _noise_from_root(_shifted(spectrum, r, k1, "K1"), _NOT_POSITIVE.format(a="r", k="K1"))


def hilbert_scale_prior(spectrum: OperatorSpectrum, t: float, l: float,
                        k2: np.ndarray) -> tuple[OrthogonalCoupling, GaussianSequenceMeasure]:
    """Prior covariance ``(G^(-t) + K2)^(-l)``: its eigenbasis becomes the
    coupling and its eigenvalues the prior variances (non-increasing).
    LAPACK dsyevd decomposes the fresh Fortran-ordered ``G^(-t) + K2`` in
    place (lower triangle), so the eigenvectors occupy that array and no
    copy of it is made; a nonzero ``info`` raises ``NumericalError``."""
    if t <= 0:
        raise ParameterError("hilbert-scale prior requires t > 0")
    if not (0 < l <= 2):
        raise ParameterError("hilbert-scale prior requires l in (0, 2]")
    vals, vecs, info = dsyevd(_shifted(spectrum, t, k2, "K2"), lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"LAPACK dsyevd failed with info = {info} on the hilbert-scale "
                             "prior's G^(-t) + K2")
    if vals.min() <= 0:
        raise ParameterError(_NOT_POSITIVE.format(a="t", k="K2"))
    coupling = _dense_coupling(vecs, ExplicitCoupling(vecs))
    prior = GaussianSequenceMeasure(spectrum.n_dim, vals**-l, "phi")
    return coupling, prior


def random_spd(n_dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Diagonally dominant random SPD matrix with spectral norm <= 2*scale:
    ``scale * (I + S / (1.05 ||S||_2))`` for the symmetric part S of a
    seeded Gaussian draw, built in the draw's own array."""
    rng = substream(seed, "spd")
    s = rng.standard_normal((n_dim, n_dim))
    s += s.T
    s *= 0.5
    norm = np.abs(np.linalg.eigvalsh(s)).max()
    if norm > 0:
        s /= 1.05 * norm
    s.flat[::n_dim + 1] += 1.0
    s *= scale
    return s


# ---------------------------------------------------------------------------
# The assembled inverse problem and data simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InverseProblem:
    """Bundle of operator, basis coupling, prior and noise at one truncation.

    The whitened forward map and its Gram matrix are computed lazily and
    cached; all fields are immutable so instances are safe to share across
    threads.
    """

    operator: OperatorSpectrum
    coupling: OrthogonalCoupling
    prior: GaussianSequenceMeasure
    noise: GaussianSequenceMeasure | DenseNoise
    n_dim: int

    def __post_init__(self):
        dims = {self.operator.n_dim, self.coupling.n_dim, self.prior.n_dim,
                self.noise.n_dim, self.n_dim}
        if len(dims) != 1:
            raise ParameterError(f"all members must share n_dim, got {sorted(dims)}")
        if not isinstance(self.prior, GaussianSequenceMeasure) or self.prior.basis != "phi":
            raise ParameterError("prior must be diagonal in the phi-basis")
        if self.noise.basis != "e":
            raise ParameterError("noise must be expressed in the e-basis")

    # -- noise geometry ----------------------------------------------------

    def noise_whiten(self, x: np.ndarray) -> np.ndarray:
        """Apply the inverse square root of the noise covariance to a vector
        or to the columns of a block; dense noise takes ``L (L' x)``."""
        x = np.asarray(x, dtype=float)
        if not isinstance(self.noise, DenseNoise):
            return _scale_rows(x, self.noise.variances**-0.5)
        f = self.noise.root_factor
        if x.ndim == 1:
            return dtrmv(f, dtrmv(f, x, lower=1, trans=1), lower=1, overwrite_x=1)
        return dtrmm(1.0, f, dtrmm(1.0, f, x, lower=1, trans_a=1), lower=1, overwrite_b=1)

    def noise_color(self, x: np.ndarray) -> np.ndarray:
        """Apply the square root of the noise covariance to a vector or to the
        columns of a block; dense noise solves ``W z = x`` on L."""
        x = np.asarray(x, dtype=float)
        if not isinstance(self.noise, DenseNoise):
            return _scale_rows(x, self.noise.variances**0.5)
        return cho_solve((self.noise.root_factor, True), x, check_finite=False)

    # -- forward map ---------------------------------------------------------

    @cached_property
    def whitened_forward(self) -> np.ndarray:
        """M = zeta^(-1/2) G T, the whitened forward map on phi-coordinates:
        ``forward_blocks().dense()``, read-only. No pipeline holds it; they
        read ``forward_blocks``, ``whitened_gram`` and ``whitened_adjoint``."""
        return _read_only(self.forward_blocks().dense())

    def forward_blocks(self) -> quadform.BlockDiagonal:
        """M on ``gram_blocks``, the one construction of M: under diagonal
        noise each part is formed from T's as ``zeta_B^(-1/2) (rho_B T_BB)``;
        under dense noise the one block is ``zeta^(-1/2) (rho T)``, or the
        cached ``whitened_forward`` when it is held."""
        if isinstance(self.noise, DenseNoise):
            m = vars(self).get("whitened_forward")
            if m is None:
                m = self.noise_whiten(self.operator.rho[:, None] * self.coupling.t.dense())
            return quadform.BlockDiagonal.from_dense(m)
        rho, scale = self.operator.rho, self.noise.variances**-0.5
        return self.coupling.t.map(
            lambda lo, hi, t: _scale_rows(_scale_rows(t, rho[lo:hi]), scale[lo:hi]))

    def whitened_adjoint(self, x: np.ndarray) -> np.ndarray:
        """``M^T x = T^T (rho * zeta^(-1/2) x)`` for a vector or the columns
        of a block, from the arrays the problem holds: the whitening root is
        symmetric, so M is never formed; ``T^T`` goes block by block."""
        v = _scale_rows(self.noise_whiten(x), self.operator.rho)
        return self.coupling.t.apply(v, transpose=True)

    @cached_property
    def whitened_gram(self) -> quadform.BlockDiagonal:
        """M^T M on ``gram_blocks`` (read-only), from ``forward_blocks``. numpy
        forms ``B^T B`` by a symmetric rank-k update, so each block is exactly
        symmetric and its Fortran-ordered transpose is the same matrix."""
        return self.forward_blocks().map(
            lambda lo, hi, m: (m.T @ m).T if m.ndim == 2 else m * m).read_only()

    @property
    def gram_blocks(self) -> np.ndarray:
        """The problem's one partition (read-only edges): the coupling's
        blocks under diagonal noise, ``[0, N]`` under dense noise. M is zero
        off them, so the whitened Gram, every posterior precision and ``M
        Lambda M^T`` are ``quadform.BlockDiagonal`` operators on them."""
        if isinstance(self.noise, DenseNoise):
            return _read_only(np.array([0, self.n_dim]))
        return self.coupling.t.edges


@dataclass(frozen=True, eq=False)
class DataSample:
    """One realization of the observation model at noise scaling ``n_level``;
    ``y`` and ``u0`` are read-only copies of the arrays passed in."""

    y: np.ndarray
    n_level: float
    u0: np.ndarray  # phi-coordinates
    seed: int

    def __post_init__(self):
        check_noise_level(self.n_level)
        y = _frozen(self.y)
        if not np.all(np.isfinite(y)):
            raise ParameterError("y must be finite-valued")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "u0", _frozen(self.u0))


def forward_apply(problem: InverseProblem, u: np.ndarray) -> np.ndarray:
    """e-coordinates of G u for ``u`` given in phi-coordinates."""
    u = as_vector(u, problem.n_dim, "u")
    return problem.operator.rho * problem.coupling.t.apply(u)


def simulate_data(problem: InverseProblem, u0: np.ndarray, n_level: float, seed: int) -> DataSample:
    """Draw ``y = G u0 + zeta^(1/2) z / sqrt(n)`` with a seeded standard normal z."""
    check_noise_level(n_level)
    u0 = as_vector(u0, problem.n_dim, "u0")
    rng = substream(seed, "simulate")
    z = rng.standard_normal(problem.n_dim)
    y = forward_apply(problem, u0) + problem.noise_color(z) / math.sqrt(n_level)
    return DataSample(y=y, n_level=float(n_level), u0=u0, seed=seed)


def power_law_truth(gamma: float, n_dim: int) -> np.ndarray:
    """Truth with phi-coordinates ``j^(-gamma - 1/2)``: borderline smoothness gamma."""
    if not gamma > 0:
        raise ParameterError("gamma must be positive")
    j = np.arange(1, n_dim + 1, dtype=float)
    return j ** (-gamma - 0.5)

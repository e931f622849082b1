"""Truncated spectral-coordinate model of a linear Gaussian inverse problem.

Everything lives in a fixed N-dimensional coordinate space. The operator acts
diagonally in the e-basis through its singular values; a second orthonormal
basis (the columns of an orthogonal coupling matrix) carries the prior. Data
follow ``y = G u + noise / sqrt(n)`` with Gaussian noise that is either
diagonal in the e-basis or given by a dense SPD covariance.

Indexing convention: coordinate k runs from 1 to N in formulas; arrays are
0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstructionError, ParameterError
from .rng import substream

ORTHOGONALITY_TOL = 1e-10


def as_vector(x, n_dim: int, name: str) -> np.ndarray:
    """``x`` as a float array of shape ``(n_dim,)``; no copy when it already is one."""
    v = np.asarray(x, dtype=float)
    if v.shape != (n_dim,):
        raise ParameterError(f"{name} must be a length-{n_dim} vector, got shape {v.shape}")
    return v


def _frozen(x: np.ndarray) -> np.ndarray:
    """Read-only float copy, so freezing never touches the caller's array."""
    return _read_only(np.array(x, dtype=float))


def _read_only(v: np.ndarray) -> np.ndarray:
    """``v`` itself, made read-only; for arrays no caller holds."""
    v.flags.writeable = False
    return v


def _orthonormal(q, n_dim: int, name: str) -> np.ndarray:
    """Read-only copy of ``q``, checked to be orthonormal within ``ORTHOGONALITY_TOL``."""
    q = _frozen(q)
    if q.shape != (n_dim, n_dim):
        raise ParameterError(f"{name} must be square of size n_dim")
    err = np.linalg.norm(q.T @ q - np.eye(n_dim))
    if err >= ORTHOGONALITY_TOL:
        raise ParameterError(f"{name} is not orthonormal: ||Q'Q - I||_F = {err:.3e}")
    return q


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
    """Orthogonal matrix whose column j holds the j-th prior-basis vector."""

    n_dim: int
    t_matrix: np.ndarray
    kind: CouplingKind

    def __post_init__(self):
        object.__setattr__(self, "t_matrix", _orthonormal(self.t_matrix, self.n_dim, "t_matrix"))


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


def _haar_orthogonal(size: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((size, size))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def make_coupling(kind: CouplingKind, n_dim: int, seed: int = 0) -> OrthogonalCoupling:
    """Construct an orthogonal coupling of the requested kind.

    Banded couplings are built from seeded orthogonal blocks placed inside
    the band pattern, so entries outside every column's window are exactly
    zero while the whole matrix stays orthogonal to rounding error.
    """
    if n_dim < 1:
        raise ParameterError("n_dim must be >= 1")
    if isinstance(kind, IdentityCoupling):
        return OrthogonalCoupling(n_dim, np.eye(n_dim), kind)
    if isinstance(kind, BandedCoupling):
        if not (0 < kind.lo_ratio < kind.hi_ratio):
            raise ParameterError("banded coupling requires 0 < lo_ratio < hi_ratio")
        if kind.hi_ratio <= 1.0 and n_dim > 1:
            raise ConstructionError("band pattern infeasible: hi_ratio <= 1 leaves no room above the diagonal")
        rng = substream(seed, "banded-coupling")
        t = np.zeros((n_dim, n_dim))
        for a, b in _banded_blocks(n_dim, kind.lo_ratio, kind.hi_ratio, rng):
            t[a - 1:b, a - 1:b] = _haar_orthogonal(b - a + 1, rng)
        return OrthogonalCoupling(n_dim, t, kind)
    if isinstance(kind, ReflectionCoupling):
        v = as_vector(kind.v, n_dim, "v")
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ParameterError("reflection vector must be nonzero")
        v = v / norm
        t = np.eye(n_dim) - 2.0 * np.outer(v, v)
        return OrthogonalCoupling(n_dim, t, ReflectionCoupling(v))
    if isinstance(kind, ExpSkewCoupling):
        a = np.asarray(kind.a_matrix, dtype=float)
        if a.shape != (n_dim, n_dim):
            raise ParameterError("skew generator must be square of size n_dim")
        skew_err = np.abs(a + a.T).max()
        if skew_err > 1e-12 * max(1.0, np.abs(a).max()):
            raise ParameterError(f"generator is not skew-symmetric: max|A + A'| = {skew_err:.3e}")
        from scipy.linalg import expm

        return OrthogonalCoupling(n_dim, expm(a), kind)
    if isinstance(kind, ExplicitCoupling):
        return OrthogonalCoupling(n_dim, np.asarray(kind.t_matrix, dtype=float), kind)
    raise ParameterError(f"unknown coupling kind: {kind!r}")


# ---------------------------------------------------------------------------
# Gaussian sequence measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GaussianSequenceMeasure:
    """Centered Gaussian measure with the given coordinate variances.

    ``basis`` names the axes the measure is diagonal on ("phi" for priors,
    "e" for noise). A dense covariance is stored as its eigendecomposition:
    ``variances`` holds the eigenvalues and ``vectors`` the orthonormal
    eigenbasis in e-coordinates (None means diagonal). Both arrays are
    stored as read-only copies.
    """

    n_dim: int
    variances: np.ndarray
    basis: str
    vectors: np.ndarray | None = None

    def __post_init__(self):
        if self.basis not in ("e", "phi"):
            raise ParameterError("basis must be 'e' or 'phi'")
        v = _frozen(as_vector(self.variances, self.n_dim, "variances"))
        object.__setattr__(self, "variances", v)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ParameterError("all variances must be positive and finite")
        if self.vectors is not None:
            object.__setattr__(self, "vectors", _orthonormal(self.vectors, self.n_dim, "vectors"))

    @cached_property
    def dense(self) -> np.ndarray | None:
        """The covariance ``V diag(variances) V'`` (read-only), or None if diagonal."""
        if self.vectors is None:
            return None
        return _read_only((self.vectors * self.variances) @ self.vectors.T)


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
    return bool(np.abs(a - a.T).max() <= 1e-12 * max(1.0, np.abs(a).max()))


def dense_noise(covariance: np.ndarray) -> GaussianSequenceMeasure:
    """Wrap a dense SPD covariance (e-coordinates) as a noise measure in its eigenbasis."""
    cov = np.asarray(covariance, dtype=float)
    if not _is_symmetric(cov):
        raise ParameterError("dense covariance must be symmetric")
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() <= 0:
        raise ParameterError(f"noise covariance is not SPD: min eigenvalue {vals.min():.3e}")
    return GaussianSequenceMeasure(cov.shape[0], vals[::-1], "e", vecs[:, ::-1])


def _shifted_eigh(spectrum: OperatorSpectrum, a: float, k: np.ndarray,
                  a_name: str, k_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of ``G^(-a) + K`` for a
    symmetric K that keeps the sum positive definite."""
    k = np.asarray(k, dtype=float)
    if k.shape != (spectrum.n_dim, spectrum.n_dim) or not _is_symmetric(k):
        raise ParameterError(f"{k_name} must be a symmetric matrix of size n_dim")
    vals, vecs = np.linalg.eigh(np.diag(spectrum.rho ** (-a)) + k)
    if vals.min() <= 0:
        raise ParameterError(f"G^(-{a_name}) + {k_name} is not positive definite; "
                             f"{k_name} must be a positive operator")
    return vals, vecs


def colored_noise(spectrum: OperatorSpectrum, r: float, k1: np.ndarray) -> GaussianSequenceMeasure:
    """Noise covariance ``(G^(-r) + K1)^(-2)``, kept in the eigenbasis of ``G^(-r) + K1``."""
    if not (0 < r < 1):
        raise ParameterError("colored noise requires r in (0, 1)")
    vals, vecs = _shifted_eigh(spectrum, r, k1, "r", "K1")
    return GaussianSequenceMeasure(spectrum.n_dim, vals**-2.0, "e", vecs)


def hilbert_scale_prior(spectrum: OperatorSpectrum, t: float, l: float,
                        k2: np.ndarray) -> tuple[OrthogonalCoupling, GaussianSequenceMeasure]:
    """Prior covariance ``(G^(-t) + K2)^(-l)``: its eigenbasis becomes the
    coupling and its eigenvalues the prior variances (non-increasing)."""
    if t <= 0:
        raise ParameterError("hilbert-scale prior requires t > 0")
    if not (0 < l <= 2):
        raise ParameterError("hilbert-scale prior requires l in (0, 2]")
    vals, vecs = _shifted_eigh(spectrum, t, k2, "t", "K2")
    coupling = OrthogonalCoupling(spectrum.n_dim, vecs, ExplicitCoupling(vecs))
    prior = GaussianSequenceMeasure(spectrum.n_dim, vals**-l, "phi")
    return coupling, prior


def random_spd(n_dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Diagonally dominant random SPD matrix with spectral norm <= 2*scale."""
    rng = substream(seed, "spd")
    s = rng.standard_normal((n_dim, n_dim))
    s = 0.5 * (s + s.T)
    norm = np.abs(np.linalg.eigvalsh(s)).max()
    if norm > 0:
        s = s / (1.05 * norm)
    return scale * (np.eye(n_dim) + s)


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
    noise: GaussianSequenceMeasure
    n_dim: int

    def __post_init__(self):
        dims = {self.operator.n_dim, self.coupling.n_dim, self.prior.n_dim,
                self.noise.n_dim, self.n_dim}
        if len(dims) != 1:
            raise ParameterError(f"all members must share n_dim, got {sorted(dims)}")
        if self.prior.basis != "phi" or self.prior.vectors is not None:
            raise ParameterError("prior must be diagonal in the phi-basis")
        if self.noise.basis != "e":
            raise ParameterError("noise must be expressed in the e-basis")

    # -- noise geometry ----------------------------------------------------

    def _noise_power(self, x: np.ndarray, power: float) -> np.ndarray:
        """Apply the noise covariance raised to ``power`` through its eigenpairs."""
        scale = self.noise.variances**power
        vecs = self.noise.vectors
        if vecs is None:
            return _scale_rows(np.asarray(x, dtype=float), scale)
        return vecs @ _scale_rows(vecs.T @ x, scale)

    def noise_whiten(self, x: np.ndarray) -> np.ndarray:
        """Apply the inverse square root of the noise covariance."""
        return self._noise_power(x, -0.5)

    def noise_color(self, x: np.ndarray) -> np.ndarray:
        """Apply the square root of the noise covariance."""
        return self._noise_power(x, 0.5)

    # -- forward map ---------------------------------------------------------

    @cached_property
    def whitened_forward(self) -> np.ndarray:
        """M = zeta^(-1/2) G T, the whitened forward map on phi-coordinates
        (read-only)."""
        return _read_only(self.noise_whiten(self.operator.rho[:, None] * self.coupling.t_matrix))

    @cached_property
    def whitened_gram(self) -> np.ndarray:
        """M^T M (read-only)."""
        m = self.whitened_forward
        return _read_only(m.T @ m)


@dataclass(frozen=True, eq=False)
class DataSample:
    """One realization of the observation model at noise scaling ``n_level``;
    ``y`` and ``u0`` are read-only copies of the arrays passed in."""

    y: np.ndarray
    n_level: float
    u0: np.ndarray  # phi-coordinates
    seed: int

    def __post_init__(self):
        if self.n_level <= 0:
            raise ParameterError("n_level must be positive")
        y = _frozen(self.y)
        if not np.all(np.isfinite(y)):
            raise ParameterError("y must be finite-valued")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "u0", _frozen(self.u0))


def forward_apply(problem: InverseProblem, u: np.ndarray) -> np.ndarray:
    """e-coordinates of G u for ``u`` given in phi-coordinates."""
    u = as_vector(u, problem.n_dim, "u")
    return problem.operator.rho * (problem.coupling.t_matrix @ u)


def simulate_data(problem: InverseProblem, u0: np.ndarray, n_level: float, seed: int) -> DataSample:
    """Draw ``y = G u0 + zeta^(1/2) z / sqrt(n)`` with a seeded standard normal z."""
    if n_level <= 0:
        raise ParameterError("n_level must be positive")
    u0 = as_vector(u0, problem.n_dim, "u0")
    rng = substream(seed, "simulate")
    z = rng.standard_normal(problem.n_dim)
    y = forward_apply(problem, u0) + problem.noise_color(z) / math.sqrt(n_level)
    return DataSample(y=y, n_level=float(n_level), u0=u0, seed=seed)


def power_law_truth(gamma: float, n_dim: int) -> np.ndarray:
    """Truth with phi-coordinates ``j^(-gamma - 1/2)``: borderline smoothness gamma."""
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    j = np.arange(1, n_dim + 1, dtype=float)
    return j ** (-gamma - 0.5)

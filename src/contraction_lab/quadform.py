"""Tails and quantiles of Gaussian quadratic forms.

The form is ``Q = sum_i (c_i + sqrt(lam_i) Z_i)**2`` with independent
standard normal ``Z_i``: the squared distance from a fixed point of a
Gaussian vector, written in the eigenbasis of its covariance (``lam`` the
eigenvalues, ``c`` the offset's coordinates). Every routine takes ``lam`` and
``c2 = c**2``; the cumulant generating function is written with ``c2``
directly, so a vanishing eigenvalue never becomes a divisor.

Tails use the Lugannani-Rice saddlepoint formula (Lugannani & Rice, Adv.
Appl. Prob. 12, 1980), parameterized by the saddlepoint ``s`` on its domain
``(-inf, 1/(2 max lam))``. Its accuracy improves with the effective number of
degrees of freedom; Imhof's integral (Biometrika 48, 1961) is the test
oracle. The Chernoff exponent ``min_{s >= 0} K(s) - s q`` is a rigorous
upper bound on the log tail and is minimized at the same saddlepoint.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError, ParameterError

# Below this |s sqrt(K'')| the Lugannani-Rice terms 1/u - 1/w cancel to
# rounding noise; the formula is replaced by its s -> 0 limit there.
_NEAR_MEAN = 1e-4
# Steps tried when widening a bracket before giving up; the last upper end
# tried is t = 1 - 2**-48, where 1 - 2 s lam is still resolved.
_BRACKET_STEPS = 48
_T_TOP = 1.0 - 2.0**-_BRACKET_STEPS


def _terms(lam, c2) -> tuple[np.ndarray, np.ndarray]:
    lam = np.asarray(lam, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if lam.ndim != 1 or lam.shape != c2.shape or lam.size == 0:
        raise ParameterError("lam and c2 must be non-empty vectors of equal length")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(c2))):
        raise ParameterError("lam and c2 must be finite")
    if np.any(lam < 0) or np.any(c2 < 0) or lam.max() <= 0:
        raise ParameterError("lam and c2 must be nonnegative, with some lam positive")
    return lam, c2


def cgf(s: float, lam, c2) -> tuple[float, float, float]:
    """``K(s)``, ``K'(s)`` and ``K''(s)`` of ``Q`` at a saddlepoint
    ``s < 1/(2 max lam)``; a non-finite value raises ``NumericalError``."""
    lam, c2 = _terms(lam, c2)
    return _cgf(s, lam, c2)


def _cgf(s: float, lam: np.ndarray, c2: np.ndarray) -> tuple[float, float, float]:
    a = (2.0 * s) * lam
    d = 1.0 - a
    if d.min() <= 0:
        raise ParameterError("saddlepoint outside the domain s < 1/(2 max lam)")
    inv = 1.0 / d
    c2_inv = c2 * inv
    lam_inv = lam * inv
    k0 = float((s * c2_inv - 0.5 * np.log1p(-a)).sum())
    k1 = float((lam_inv + c2_inv * inv).sum())
    k2 = float((lam_inv * (2.0 * lam_inv + 4.0 * c2_inv * inv)).sum())
    if not (math.isfinite(k0) and math.isfinite(k1) and math.isfinite(k2)):
        raise NumericalError(f"quadratic-form cumulants not finite at s = {s!r}")
    return k0, k1, k2


def _lugannani_rice(s: float, lam: np.ndarray, c2: np.ndarray) -> tuple[float, float]:
    """``(q, P(Q > q))`` at the saddlepoint ``s`` solving ``K'(s) = q``."""
    k0, q, k2 = _cgf(s, lam, c2)
    u = s * math.sqrt(k2)
    if abs(u) < _NEAR_MEAN:
        # s -> 0 limit: 1/2 - skewness / (6 sqrt(2 pi)), skewness = K'''(0) / K''(0)^1.5
        k2_0 = float(np.sum(lam * (2.0 * lam + 4.0 * c2)))
        k3_0 = float(np.sum(lam * lam * (8.0 * lam + 24.0 * c2)))
        return q, 0.5 - k3_0 / (6.0 * math.sqrt(2.0 * math.pi) * k2_0**1.5)
    w = math.copysign(math.sqrt(max(2.0 * (s * q - k0), 0.0)), s)
    density = math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    return q, 0.5 * math.erfc(w / math.sqrt(2.0)) + density * (1.0 / u - 1.0 / w)


def _solve(fn, lam: np.ndarray, what: str) -> float:
    """Root in ``s`` of the decreasing function ``fn`` of the saddlepoint.

    The search runs in ``t = 2 s max(lam)``, whose domain is ``(-inf, 1)``:
    the upper end moves toward 1 and the lower end doubles away from 0 until
    they bracket a sign change.
    """
    scale = 2.0 * float(lam.max())
    hi, lo = 0.5, -1.0
    for _ in range(_BRACKET_STEPS):
        if fn(hi / scale) <= 0:
            break
        hi = 0.5 * (1.0 + hi)
    else:
        raise NumericalError(f"saddlepoint bracket failed for the {what} (upper end)")
    for _ in range(_BRACKET_STEPS):
        if fn(lo / scale) >= 0:
            break
        lo *= 2.0
    else:
        raise NumericalError(f"saddlepoint bracket failed for the {what} (lower end)")
    t, info = brentq(lambda t: fn(t / scale), lo, hi, xtol=1e-14, full_output=True,
                     disp=False)
    if not info.converged:
        raise NumericalError(f"saddlepoint solve for the {what} did not converge")
    return t / scale


def _saddlepoint(q: float, lam: np.ndarray, c2: np.ndarray) -> float:
    """The ``s`` solving ``K'(s) = q``."""
    return _solve(lambda s: q - _cgf(s, lam, c2)[1], lam, f"tail at q = {q!r}")


def tail(q: float, lam, c2) -> float:
    """Saddlepoint approximation to ``P(Q > q)``."""
    lam, c2 = _terms(lam, c2)
    if not (q > 0 and math.isfinite(q)):
        raise ParameterError("q must be positive and finite")
    return _lugannani_rice(_saddlepoint(q, lam, c2), lam, c2)[1]


def log_chernoff(q: float, lam, c2) -> float:
    """Chernoff exponent ``min_{s >= 0} K(s) - s q``: ``P(Q > q)`` is at most
    its exponential.

    It is 0 for ``q <= K'(0) = E Q``. When the saddlepoint lies closer to the
    pole ``1/(2 max lam)`` than the bracket search resolves (a deep tail),
    the exponent is taken at the last upper end tried instead; every ``s`` in
    ``[0, 1/(2 max lam))`` gives a valid bound.
    """
    lam, c2 = _terms(lam, c2)
    if math.isnan(q):
        raise ParameterError("q must not be NaN")
    if q <= float(lam.sum() + c2.sum()):
        return 0.0
    s = _T_TOP / (2.0 * float(lam.max()))
    k0, k1, _ = _cgf(s, lam, c2)
    if k1 >= q:
        s = _saddlepoint(q, lam, c2)
        k0 = _cgf(s, lam, c2)[0]
    return min(0.0, k0 - s * q)


def quantile(p: float, lam, c2) -> float:
    """The ``q`` with saddlepoint tail ``P(Q > q) = p``."""
    lam, c2 = _terms(lam, c2)
    if not (0.0 < p < 1.0):
        raise ParameterError("tail probability p must lie in (0, 1)")
    s = _solve(lambda s: _lugannani_rice(s, lam, c2)[1] - p, lam, f"quantile at p = {p!r}")
    return _cgf(s, lam, c2)[1]

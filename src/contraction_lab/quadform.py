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

Saddlepoints come from one safeguarded Newton-bisection that runs on a batch:
forms that share ``lam`` and differ in their offsets, one row of ``c2`` each.
``quantiles`` exposes the batch; the scalar routines solve a batch of one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from .errors import NumericalError, ParameterError

# Below this |s sqrt(K'')| the Lugannani-Rice terms 1/u - 1/w cancel to
# rounding noise; the formula is replaced by its s -> 0 limit there.
_NEAR_MEAN = 1e-4
# Steps tried when widening a bracket before giving up; the last upper end
# tried is t = 1 - 2**-48, where 1 - 2 s lam is still resolved.
_BRACKET_STEPS = 48
_T_TOP = 1.0 - 2.0**-_BRACKET_STEPS
# The solve stops once a step in t = 2 s max(lam) is below _XTOL + _RTOL |t|;
# the relative part (four ulps) matters where the lower end has doubled so
# far from 0 that doubles are spaced wider than _XTOL. Bisection alone
# narrows the widest bracket the search can return (width 2**46) below _XTOL
# in 93 steps; _MAX_STEPS leaves room for the Newton steps in between.
_XTOL = 1e-14
_RTOL = 4.0 * float(np.finfo(float).eps)
_MAX_STEPS = 240
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _terms(lam, c2, batch: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``lam`` as a vector and ``c2`` as an (R, N) batch of rows."""
    lam = np.asarray(lam, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if batch:
        if lam.ndim != 1 or c2.ndim != 2 or c2.shape[1] != lam.size or c2.shape[0] == 0:
            raise ParameterError("lam must be a vector and c2 an (R, len(lam)) array, R >= 1")
    elif lam.ndim != 1 or lam.shape != c2.shape:
        raise ParameterError("lam and c2 must be non-empty vectors of equal length")
    if lam.size == 0:
        raise ParameterError("lam and c2 must be non-empty vectors of equal length")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(c2))):
        raise ParameterError("lam and c2 must be finite")
    if np.any(lam < 0) or np.any(c2 < 0) or lam.max() <= 0:
        raise ParameterError("lam and c2 must be nonnegative, with some lam positive")
    return lam, c2.reshape(-1, lam.size)


def cgf(s: float, lam, c2) -> tuple[float, float, float]:
    """``K(s)``, ``K'(s)`` and ``K''(s)`` of ``Q`` at a saddlepoint
    ``s < 1/(2 max lam)``; a non-finite value raises ``NumericalError``."""
    lam, c2 = _terms(lam, c2)
    return tuple(float(k[0]) for k in _cgf(np.array([s], dtype=float), lam, c2))


def _cgf(s: np.ndarray, lam: np.ndarray, c2: np.ndarray, rows: np.ndarray | None = None,
         third: bool = False) -> tuple[np.ndarray, ...]:
    """``K``, ``K'``, ``K''`` (and ``K'''`` if ``third``) of the rows
    ``rows`` of ``c2`` (all rows if None), row ``rows[j]`` at ``s[j]``."""
    if rows is not None:
        c2 = c2[rows]
    a = (2.0 * s)[:, None] * lam
    d = 1.0 - a
    if d.min() <= 0:
        raise ParameterError("saddlepoint outside the domain s < 1/(2 max lam)")
    inv = 1.0 / d
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        c2_inv = c2 * inv
        lam_inv = lam * inv
        c2_inv2 = c2_inv * inv
        out = [(s[:, None] * c2_inv - 0.5 * np.log1p(-a)).sum(axis=1),
               (lam_inv + c2_inv2).sum(axis=1),
               (lam_inv * (2.0 * lam_inv + 4.0 * c2_inv2)).sum(axis=1)]
        if third:
            out.append((lam_inv * lam_inv * (8.0 * lam_inv + 24.0 * c2_inv2)).sum(axis=1))
    bad = np.flatnonzero(~np.all(np.isfinite(out), axis=0))
    if bad.size:
        r = bad[0]
        raise NumericalError(f"quadratic-form cumulants not finite at s = {float(s[r])!r} "
                             f"(row {r if rows is None else rows[r]})")
    return tuple(out)


def _lugannani_rice(s: np.ndarray, lam: np.ndarray, c2: np.ndarray,
                    rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(q, P(Q > q), dP/ds)`` of the rows ``rows`` of ``c2`` at the
    saddlepoints ``s`` solving ``K'(s) = q``; the derivative is 0 where the
    s -> 0 limit is used."""
    k0, q, k2, k3 = _cgf(s, lam, c2, rows, third=True)
    sd = np.sqrt(k2)
    u = s * sd
    near = np.abs(u) < _NEAR_MEAN
    w = np.copysign(np.sqrt(np.maximum(2.0 * (s * q - k0), 0.0)), s)
    density = np.exp(-0.5 * w * w) / _SQRT_2PI
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # rows near the mean
        p = ndtr(-w) + density * (1.0 / u - 1.0 / w)
        # w w' = s K'' and u' = sqrt(K'') + s K''' / (2 sqrt(K''))
        du = sd + s * k3 / (2.0 * sd)
        dp = density * (s * k2 / w**3 - du / (u * u) - sd)
    if near.any():
        # s -> 0 limit: 1/2 - skewness / (6 sqrt(2 pi)), skewness = K'''(0) / K''(0)^1.5
        _, _, k2_0, k3_0 = _cgf(np.zeros(np.count_nonzero(near)), lam, c2, rows[near],
                                third=True)
        p[near] = 0.5 - k3_0 / (6.0 * _SQRT_2PI * k2_0**1.5)
        dp[near] = 0.0
    return q, p, dp


def _solve(fn, lam: np.ndarray, rows: int, what: str) -> np.ndarray:
    """Roots in ``s`` of ``rows`` decreasing functions of the saddlepoint.

    ``fn(s, idx)`` returns the values and ``s``-derivatives of the functions
    ``idx`` at ``s[j]`` for row ``idx[j]``. The search runs in
    ``t = 2 s max(lam)``, whose domain is ``(-inf, 1)``: the upper end moves
    toward 1 and the lower end doubles away from 0 until they bracket a sign
    change; then each row takes Newton steps, bisecting whenever a step would
    leave its bracket or fails to halve the step before it.
    """
    scale = 2.0 * float(lam.max())
    lo, hi = np.full(rows, -np.inf), np.full(rows, 0.5)
    idx, t = np.arange(rows), hi.copy()
    for _ in range(_BRACKET_STEPS):
        up = fn(t / scale, idx)[0] > 0
        lo[idx[up]] = t[up]  # a tried upper end that falls short is a lower end
        idx, t = idx[up], 0.5 * (1.0 + t[up])
        hi[idx] = t
        if idx.size == 0:
            break
    else:
        raise NumericalError(f"saddlepoint bracket failed for the {what}, row {idx[0]} "
                             "(upper end)")
    idx = np.flatnonzero(np.isinf(lo))
    t = np.full(idx.size, -1.0)
    for _ in range(_BRACKET_STEPS):
        if idx.size == 0:
            break
        down = fn(t / scale, idx)[0] < 0
        hi[idx[down]] = t[down]
        lo[idx[~down]] = t[~down]
        idx, t = idx[down], 2.0 * t[down]
    if idx.size:
        raise NumericalError(f"saddlepoint bracket failed for the {what}, row {idx[0]} "
                             "(lower end)")

    x = 0.5 * (lo + hi)
    last = hi - lo
    idx = np.arange(rows)
    for _ in range(_MAX_STEPS):
        f, df = fn(x[idx] / scale, idx)
        xi, lo_i, hi_i = x[idx], lo[idx], hi[idx]
        lo_i = np.where(f > 0, xi, lo_i)
        hi_i = np.where(f < 0, xi, hi_i)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / (df / scale)
        newton = xi - step
        ok = (newton >= lo_i) & (newton <= hi_i) & (2.0 * np.abs(step) <= last[idx])
        half = 0.5 * (hi_i - lo_i)
        dx = np.where(ok, np.abs(step), half)
        x[idx] = np.where(f == 0, xi, np.where(ok, newton, lo_i + half))
        lo[idx], hi[idx], last[idx] = lo_i, hi_i, dx
        idx = idx[(f != 0) & (dx >= _XTOL + _RTOL * np.abs(x[idx]))]
        if idx.size == 0:
            return x / scale
    raise NumericalError(f"saddlepoint solve for the {what} did not converge, row {idx[0]}")


def _saddlepoint(q: float, lam: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """The ``s`` solving ``K'(s) = q``, one per row of ``c2``."""
    def fn(s, idx):
        _, k1, k2 = _cgf(s, lam, c2, idx)
        return q - k1, -k2
    return _solve(fn, lam, c2.shape[0], f"tail at q = {q!r}")


def tail(q: float, lam, c2) -> float:
    """Saddlepoint approximation to ``P(Q > q)``."""
    lam, c2 = _terms(lam, c2)
    if not (q > 0 and math.isfinite(q)):
        raise ParameterError("q must be positive and finite")
    return float(_lugannani_rice(_saddlepoint(q, lam, c2), lam, c2, np.arange(1))[1][0])


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
    s = np.array([_T_TOP / (2.0 * float(lam.max()))])
    k0, k1, _ = _cgf(s, lam, c2)
    if k1[0] >= q:
        s = _saddlepoint(q, lam, c2)
        k0 = _cgf(s, lam, c2)[0]
    return min(0.0, float(k0[0] - s[0] * q))


def quantiles(p: float, lam, c2) -> np.ndarray:
    """The ``q`` with saddlepoint tail ``P(Q > q) = p`` for each row of the
    (R, N) array ``c2``, all with the eigenvalues ``lam``."""
    lam, c2 = _terms(lam, c2, batch=True)
    if not (0.0 < p < 1.0):
        raise ParameterError("tail probability p must lie in (0, 1)")

    def fn(s, idx):
        _, tail_p, dp = _lugannani_rice(s, lam, c2, idx)
        return tail_p - p, dp
    s = _solve(fn, lam, c2.shape[0], f"quantile at p = {p!r}")
    return _cgf(s, lam, c2)[1]


def quantile(p: float, lam, c2) -> float:
    """The ``q`` with saddlepoint tail ``P(Q > q) = p``."""
    lam, c2 = _terms(lam, c2)
    return float(quantiles(p, lam, c2)[0])

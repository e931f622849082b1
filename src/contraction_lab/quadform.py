"""Tails and quantiles of Gaussian quadratic forms.

The form is ``Q = sum_i (c_i + sqrt(lam_i) Z_i)**2`` with independent
standard normal ``Z_i``: the squared distance from a fixed point of a
Gaussian vector, written in the eigenbasis of its covariance (``lam`` the
eigenvalues, ``c`` the offset's coordinates). Every routine takes ``lam`` and
``c2 = c**2``; the cumulant generating function is written with ``c2``
directly, so a vanishing eigenvalue never becomes a divisor.

``block_spectrum`` computes ``lam`` and the offsets' coordinates from a
covariance and an offset without forming eigenvectors, one part of a
``BlockDiagonal`` operator at a time (a problem's ``gram_blocks``):
independent blocks of coordinates add independent terms to Q. An operator
takes its edges from its caller; no routine here reads a partition off a zero
pattern (``spectral`` does, once per coupling).

``tails`` is the one tail evaluator. One saddlepoint ``s`` of ``K'(s) = q``
per row, on the domain ``(-inf, 1/(2 max lam))``, gives the Lugannani-Rice
approximation to ``log P(Q <= q)`` (Lugannani & Rice, Adv. Appl. Prob. 12,
1980) on either side of the mean, ``P(Q > q) = -expm1(log_cdf)``, and the
Chernoff exponent ``K(s) - s q``: a rigorous upper bound on the log of the
tail on the saddlepoint's side of 0. The formula's accuracy improves with the
effective number of degrees of freedom; Imhof's integral (Biometrika 48,
1961) is the test oracle. ``log_cdf_product`` is a rigorous lower bound on
the lower tail from independence, ``P(Q <= q) >= prod_i P((c_i + sqrt(lam_i)
Z_i)**2 <= q_i)`` for any split ``sum q_i = q``.

Saddlepoints come from one safeguarded Newton-bisection that runs on a batch:
forms that share ``lam`` and differ in their offsets, one row of ``c2`` each.
``quantiles`` starts it from a two-moment chi-square guess per row.
Every routine takes such a batch, an (R, N) array ``c2``; a single form is a
batch of one row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dormqr, dstevd, dsytrd, dsytrd_lwork
from scipy.special import chdtri, erf, erfc, erfcx, log_ndtr, ndtr

from .errors import NumericalError, ParameterError

# A symmetric eigensolver's eigenvalues are accurate to about
# n * EIGENVALUE_RTOL * ||A||_2, so a computed eigenvalue of a covariance down
# to minus that is the rounding of a zero.
EIGENVALUE_RTOL = float(np.finfo(float).eps)

# Below this |s sqrt(K'')| the Lugannani-Rice terms 1/u - 1/w cancel to
# rounding noise; the formula is replaced by its s -> 0 limit there.
_NEAR_MEAN = 1e-4
# Steps tried when widening a bracket before giving up; the last upper end
# tried is t = 1 - 2**-48, where 1 - 2 s lam is still resolved.
_BRACKET_STEPS = 48
_T_TOP = 1.0 - 2.0**-_BRACKET_STEPS
# The lower end doubles from t = -1 at most this often: K is finite for every
# s < 0, and a lower tail at q above Q's infimum q0 puts the saddlepoint near
# t = -N max(lam) / (q - q0), so the last end tried (t = _T_BOTTOM = -2**599)
# reaches q - q0 down to about 1e-180 N max(lam).
_LOWER_STEPS = 600
_T_BOTTOM = -2.0 ** (_LOWER_STEPS - 1)
# The solve stops once a step in t = 2 s max(lam) is below _XTOL + _RTOL |t|;
# the relative part (four ulps) matters where the lower end has doubled so
# far from 0 that doubles are spaced wider than _XTOL. Bisection alone
# narrows any bracket the search can return below that in 93 steps (a
# bracket [2 t, t] of width 2**46 and up, against _XTOL; any wider one
# against _RTOL |t|, in about 50); _MAX_STEPS leaves room for the Newton
# steps in between.
_XTOL = 1e-14
_RTOL = 4.0 * float(np.finfo(float).eps)
_MAX_STEPS = 240
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = math.log(_SQRT_2PI)
_SQRT_HALF = math.sqrt(0.5)
# The product bound's split: outer Newton steps on the log multiplier and
# inner Newton steps on each log radius, at most. Any split that spends at
# most q is a valid bound, so running out of steps costs tightness only.
_SPLIT_OUTER_STEPS = 12
_SPLIT_INNER_STEPS = 8
_SPLIT_START_STEPS = 24
_SPLIT_TOL = 1e-10
# Largest change of a log radius in one inner step (a factor e**3), and the
# range a log radius stays in, where r**2 and r * m stay finite.
_SPLIT_MAX_STEP = 3.0
_SPLIT_LOG_R = 300.0
# Below this r (m + 1) the interval mass P(|m + Z| <= r) is its two-term
# series; the remainder is O((r (m + 1))**4) relative.
_SPLIT_SERIES = 1e-4


def _lapack_ok(routine: str, info: int, what: str) -> None:
    if info != 0:
        raise NumericalError(f"LAPACK {routine} failed with info = {info} on the {what}")


class BlockDiagonal:
    """A square N x N matrix that is zero off its diagonal blocks ``edges``
    (increasing from 0 to N), held by its blocks, never as one N x N array.
    ``segments`` lists ``(lo, hi, run)``: each block of more than one row,
    and each maximal run of one-row blocks (``run`` True). ``parts`` holds
    each block (Fortran-ordered where the package builds it, transposed in
    the posterior's sampling factor; a one-block operator's is its matrix
    itself) or a run's diagonal as a vector, on which each operation takes
    its closed form. ``dense()``, not ``__array__``, makes the N x N array.
    The package's operators are ``read_only``, but for the fresh precision
    that ``posterior.cholesky_with_jitter`` factors in place."""

    def __init__(self, edges, part):
        """``part(lo, hi, run)`` makes each segment's part, in order."""
        edges = np.array(edges)
        if edges.ndim != 1 or edges.size < 2 or edges[0] != 0 or np.any(np.diff(edges) <= 0):
            raise ParameterError(f"blocks must be increasing edges from 0 to N, got {edges}")
        edges.flags.writeable = False
        one = np.diff(edges) == 1
        starts = np.flatnonzero(np.append(True, ~(one[1:] & one[:-1])))
        self.edges, self.segments = edges, tuple(
            (int(edges[a]), int(edges[b]), bool(one[a]))
            for a, b in zip(starts, np.append(starts[1:], one.size)))
        self.parts = tuple(part(*segment) for segment in self.segments)
        for (lo, hi, run), p in zip(self.segments, self.parts):
            if np.shape(p) != ((hi - lo,) if run else (hi - lo, hi - lo)):
                raise ParameterError(f"blocks: part {lo}:{hi} has shape {np.shape(p)}")

    @classmethod
    def from_dense(cls, mat: np.ndarray, edges=None) -> BlockDiagonal:
        """Views of the blocks ``edges`` (None: one, ``mat`` itself) of the
        square ``mat``; entries off the blocks are not read."""
        n = mat.shape[0]
        op = cls([0, n] if edges is None else edges, lambda lo, hi, run: (
            np.diagonal(mat)[lo:hi] if run else mat if hi - lo == n else mat[lo:hi, lo:hi]))
        if op.n_dim != n:
            raise ParameterError(f"blocks must end at {n}, got {op.edges}")
        return op

    @property
    def n_dim(self) -> int:
        return int(self.edges[-1])

    def map(self, fn) -> BlockDiagonal:
        """The operator whose parts are ``fn(lo, hi, part)``."""
        parts = iter(self.parts)
        return BlockDiagonal(self.edges, lambda lo, hi, run: fn(lo, hi, next(parts)))

    def read_only(self) -> BlockDiagonal:
        for p in self.parts:
            p.flags.writeable = False
        return self

    def dense(self) -> np.ndarray:
        """The Fortran-ordered N x N matrix; one block is its part, uncopied."""
        if len(self.parts) == 1 and self.parts[0].ndim == 2:
            return self.parts[0]
        out = np.zeros((self.n_dim, self.n_dim), order="F")
        for (lo, hi, run), p in zip(self.segments, self.parts):
            rows = np.arange(lo, hi) if run else slice(lo, hi)
            out[rows, rows] = p
        return out

    def square_sum(self) -> float:
        """Sum of squared entries, one dot product per part: for one block,
        the square that ``np.linalg.norm`` takes the root of, bit for bit."""
        return sum(float(f @ f) for f in (p.ravel(order="K") for p in self.parts))

    def transpose_apply(self, x: np.ndarray) -> np.ndarray:
        """``A^T x`` for a vector or block ``x``, one product per part."""
        out = np.empty_like(x)
        for (lo, hi, run), p in zip(self.segments, self.parts):
            if run:
                out[lo:hi] = (p if x.ndim == 1 else p[:, None]) * x[lo:hi]
            else:
                out[lo:hi] = p.T @ x[lo:hi]
        return out

    def cho_solve(self, b: np.ndarray, solve) -> np.ndarray:
        """``(L L^T)^{-1} b`` in ``b``'s rows, for the Cholesky factor L this
        holds: ``solve`` (scipy's ``cho_solve``) per block, and per run
        ``(b * (1 / l)) * (1 / l)``, a 1 x 1 ``cho_solve``'s operations."""
        for (lo, hi, run), l in zip(self.segments, self.parts):
            if run:
                inv = 1.0 / l if b.ndim == 1 else (1.0 / l)[:, None]
                b[lo:hi] *= inv
                b[lo:hi] *= inv
            else:
                b[lo:hi] = solve((l, True), b[lo:hi], check_finite=False)
        return b


def block_spectrum(op: BlockDiagonal, d: np.ndarray, what: str,
                   block) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) of the symmetric positive semi-definite ``cov
    = V diag(lam) V^T`` whose parts are ``block(lo, hi, part)`` of those of
    ``op``, and the projections ``V^T d`` of an (N,) or (N, R) block ``d``,
    without forming V. Each part is made only when it is decomposed. A block
    (its lower triangle read) goes to ``_tridiagonal_spectrum``, which frees
    it before the eigensolve; it is reduced in place when it is a writeable
    Fortran-ordered array and copied otherwise. A run's entries are its
    eigenvalues, each of which must be positive, and ``d``'s rows its
    projections. Errors name the rows of their segment; the eigenvalues are
    merged by a stable sort, and the projections follow.
    """
    n = op.n_dim
    lam = np.empty(n)
    proj = np.array(d.reshape(n, -1))
    for (lo, hi, run), part in zip(op.segments, op.parts):
        if run:
            lam[lo:hi] = block(lo, hi, part)
            bad = lo + np.flatnonzero(~(lam[lo:hi] > 0))
            if bad.size:  # the first one-row block that is not positive
                _clip_rounding(lam[bad[0]:bad[0] + 1], f"{what}, rows {bad[0]}:{bad[0] + 1}")
        else:
            lam[lo:hi], proj[lo:hi] = _tridiagonal_spectrum(
                np.require(block(lo, hi, part), float, ["F", "W"]), proj[lo:hi],
                f"{what}, rows {lo}:{hi}")
    order = np.argsort(lam, kind="stable")
    return lam[order], proj[order].reshape(d.shape)


def _tridiagonal_spectrum(cov: np.ndarray, d: np.ndarray,
                          what: str) -> tuple[np.ndarray, np.ndarray]:
    """``block_spectrum`` of one block of two or more rows.

    LAPACK reduces ``cov = Q T Q^T`` to tridiagonal form (dsytrd, lower
    triangle, in place: a Fortran-ordered ``cov`` is overwritten), applies the
    reflectors Q^T to ``d`` (dormqr) and solves ``T = Z diag(lam) Z^T`` by
    divide and conquer (dstevd), so ``V^T d = Z^T Q^T d``; the
    back-transformation ``V = Q Z`` of a full eigensolver is skipped. Computed
    eigenvalues go through ``_clip_rounding``, and a failed LAPACK call
    raises ``NumericalError`` naming ``what``.
    """
    n = cov.shape[0]
    lwork, info = dsytrd_lwork(n, lower=1)
    _lapack_ok("dsytrd_lwork", info, what)
    tri, diag, off, tau, info = dsytrd(cov, lower=1, lwork=int(lwork), overwrite_a=1)
    _lapack_ok("dsytrd", info, what)
    proj = np.array(d.reshape(n, -1))
    # A lower reduction leaves row 0 alone; its reflectors are the QR factor
    # of the trailing (N - 1) rows of the first N - 1 columns. dormqr reads
    # them in place through an (N, N - 1) Fortran view that starts at tri[1, 0]
    # with leading dimension N: it reads the first N - 1 rows of each column,
    # never the last (the next column's row 0).
    refl = np.ndarray((n, n - 1), buffer=tri.T, offset=tri.itemsize, order="F")
    _, work, info = dormqr("L", "T", refl, tau, proj[1:], -1)
    _lapack_ok("dormqr", info, what)
    proj[1:], _, info = dormqr("L", "T", refl, tau, proj[1:], int(work[0]))
    _lapack_ok("dormqr", info, what)
    del refl, cov, tri  # freed before dstevd allocates its N x N workspace
    lam, z, info = dstevd(diag, off)
    _lapack_ok("dstevd", info, what)
    _clip_rounding(lam, what)
    return lam, (z.T @ proj).reshape(d.shape)


def _clip_rounding(lam: np.ndarray, what: str) -> None:
    """Set the ascending eigenvalues ``lam`` of a b-row block down to
    ``-EIGENVALUE_RTOL * b * max`` to zero, the rounding of a zero; raise
    ``NumericalError`` naming ``what`` on a more negative one."""
    floor = -EIGENVALUE_RTOL * lam.size * lam[-1]
    if not (lam[-1] > 0 and lam[0] >= floor):
        raise NumericalError(f"eigenvalue {lam[0]:.3e} of the {what} below the rounding "
                             f"floor {floor:.3e} (largest {lam[-1]:.3e})")
    np.maximum(lam, 0.0, out=lam)


def _terms(lam, c2) -> tuple[np.ndarray, np.ndarray]:
    """``lam`` as a vector and ``c2`` as an (R, N) batch of rows."""
    lam = np.asarray(lam, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if lam.ndim != 1 or c2.ndim != 2 or c2.shape[1] != lam.size or c2.shape[0] == 0:
        raise ParameterError("lam must be a vector and c2 an (R, len(lam)) array, R >= 1")
    if lam.size == 0:
        raise ParameterError("lam and c2 must be non-empty")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(c2))):
        raise ParameterError("lam and c2 must be finite")
    if np.any(lam < 0) or np.any(c2 < 0) or lam.max() <= 0:
        raise ParameterError("lam and c2 must be nonnegative, with some lam positive")
    return lam, c2


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


def _lugannani_rice(s: np.ndarray, lam: np.ndarray, c2: np.ndarray, rows: np.ndarray,
                    cum=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(q, P(Q > q), dP/ds)`` of the rows ``rows`` of ``c2`` at the
    saddlepoints ``s`` solving ``K'(s) = q``, from their four cumulants
    ``cum`` there (None: evaluated here); the derivative is 0 where the
    s -> 0 limit is used."""
    k0, q, k2, k3 = _cgf(s, lam, c2, rows, third=True) if cum is None else cum
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


def _solve(fn, lam: np.ndarray, rows: int, what: str, start: np.ndarray | None = None,
           stop_at_top: bool = False) -> np.ndarray:
    """Roots in ``s`` of ``rows`` decreasing functions of the saddlepoint.

    ``fn(s, idx)`` returns the values and ``s``-derivatives of the functions
    ``idx`` at ``s[j]`` for row ``idx[j]``. The search runs in
    ``t = 2 s max(lam)``, whose domain is ``(-inf, 1)``. A row with a usable
    ``start`` (``_warm_bracket``) is bracketed around it; every other row is
    bracketed from scratch: the upper end moves toward 1 and the lower end
    doubles away from 0 until they bracket a sign change; with
    ``stop_at_top``, a row still short at the last upper end tried,
    ``_T_TOP``, returns that end instead of raising. Then each row takes
    Newton steps, bisecting whenever a step would leave its bracket or fails
    to halve the step before it.
    """
    scale = 2.0 * float(lam.max())
    lo, hi = np.full(rows, -np.inf), np.full(rows, 0.5)
    x = np.full(rows, np.nan)
    idx = np.arange(rows)
    if start is not None:
        idx = _warm_bracket(fn, scale * start, scale, lo, hi, x)
    t = hi[idx]
    for _ in range(_BRACKET_STEPS):
        if idx.size == 0:
            break
        up = fn(t / scale, idx)[0] > 0
        lo[idx[up]] = t[up]  # a tried upper end that falls short is a lower end
        idx, t = idx[up], 0.5 * (1.0 + t[up])
        hi[idx] = t
    else:
        if idx.size and not stop_at_top:
            raise NumericalError(f"saddlepoint bracket failed for the {what}, row {idx[0]} "
                                 "(upper end)")
        hi[idx] = lo[idx]  # a bracket of width 0 at _T_TOP, where Newton stops at once
    idx = np.flatnonzero(np.isinf(lo))
    t = np.full(idx.size, -1.0)
    for _ in range(_LOWER_STEPS):
        if idx.size == 0:
            break
        down = fn(t / scale, idx)[0] < 0
        hi[idx[down]] = t[down]
        lo[idx[~down]] = t[~down]
        idx, t = idx[down], 2.0 * t[down]
    if idx.size:
        raise NumericalError(f"saddlepoint bracket failed for the {what}, row {idx[0]} "
                             "(lower end)")

    x = np.where(np.isnan(x), 0.5 * (lo + hi), x)
    last = hi - lo
    idx = np.arange(rows)
    for _ in range(_MAX_STEPS):
        f, df = fn(x[idx] / scale, idx)
        xi, lo_i, hi_i = x[idx], lo[idx], hi[idx]
        lo_i = np.where(f > 0, xi, lo_i)
        hi_i = np.where(f < 0, xi, hi_i)
        # A flat or subnormal slope makes an infinite step, which fails the
        # bracket test below and bisects.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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


def _warm_bracket(fn, t0: np.ndarray, scale: float, lo: np.ndarray, hi: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Bracket the roots of ``_solve``'s rows near the starting points
    ``t0`` (in t) with two evaluations per row; returns the rows left for
    the search from scratch.

    A start is used where it lies in ``[_T_BOTTOM, _T_TOP]``, the range the
    search from scratch evaluates. The Newton step from it predicts the
    root, and the other end is tried a quarter of that step beyond the
    prediction. Both stay within one step of the search from scratch of the
    start: up to halfway to ``_T_TOP`` (to half the start, below t = -1) and
    down to twice the start (to -2, above t = -1). So bisection narrows the
    bracket within ``_MAX_STEPS``. Where the two ends bracket a sign change
    they become ``lo`` and ``hi``, and the row's first point in ``x`` is the
    root of the inverse cubic Hermite interpolant of ``t(f)`` through both
    ends (their midpoint, where it falls outside; a start that is a root is
    both ends). A row with no usable start, slope or prediction, or no sign
    change, falls back.
    """
    rows = np.flatnonzero((t0 >= _T_BOTTOM) & (t0 <= _T_TOP))
    t0 = t0[rows]
    if rows.size:
        f0, df0 = fn(t0 / scale, rows)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            guess = t0 - f0 / (df0 / scale)
        top = np.where(t0 < -1.0, 0.5 * t0, 0.5 * (_T_TOP + t0))
        bottom = np.maximum(2.0 * np.minimum(t0, -1.0), _T_BOTTOM)
        use = (df0 < 0) & (guess > bottom) & (guess < top)
        rows, t0, f0, df0, guess, top, bottom = (v[use] for v in (rows, t0, f0, df0, guess,
                                                                 top, bottom))
    if rows.size:
        far = np.clip(1.25 * guess - 0.25 * t0, bottom, top)
        f1, df1 = fn(far / scale, rows)
        crossed = np.where(f0 > 0, f1 <= 0, f1 >= 0) & (df1 < 0)
        rows, t0, f0, df0, far, f1, df1 = (v[crossed] for v in (rows, t0, f0, df0, far, f1, df1))
        lo[rows], hi[rows] = np.minimum(t0, far), np.maximum(t0, far)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            h = f1 - f0
            u = -f0 / h
            root_t = ((2.0 * u - 3.0) * u * u + 1.0) * t0 + (3.0 - 2.0 * u) * u * u * far \
                + (u - 1.0) * u * h * ((u - 1.0) * scale / df0 + u * scale / df1)
            inside = (root_t >= lo[rows]) & (root_t <= hi[rows])
        x[rows] = np.where(inside, root_t, 0.5 * (lo[rows] + hi[rows]))
    return np.flatnonzero(np.isnan(x))


def _saddlepoint(q, lam: np.ndarray, c2: np.ndarray, what: str) -> np.ndarray:
    """The ``s`` solving ``K'(s) = q``, one per row of ``c2``; ``q`` is one
    level for every row or one per row. A root past the last upper end tried
    is returned as that end, ``s = _T_TOP / (2 max lam)``."""
    levels = np.broadcast_to(np.asarray(q, dtype=float), c2.shape[:1])

    def fn(s, idx):
        _, k1, k2 = _cgf(s, lam, c2, idx)
        return levels[idx] - k1, -k2
    return _solve(fn, lam, c2.shape[0], what, stop_at_top=True)


def quantiles(p: float, lam, c2) -> np.ndarray:
    """The ``q`` with saddlepoint tail ``P(Q > q) = p`` for each row of the
    (R, N) array ``c2``, all with the eigenvalues ``lam``. The solve starts
    from ``_two_moment_start``."""
    lam, c2 = _terms(lam, c2)
    if not (0.0 < p < 1.0):
        raise ParameterError("tail probability p must lie in (0, 1)")

    def fn(s, idx):
        _, tail_p, dp = _lugannani_rice(s, lam, c2, idx)
        return tail_p - p, dp
    s = _solve(fn, lam, c2.shape[0], f"quantile at p = {p!r}", _two_moment_start(p, lam, c2))
    return _cgf(s, lam, c2)[1]


def _two_moment_start(p: float, lam: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Per-row guess at the saddlepoint of the quantile at tail ``p``: Q
    matched in mean ``mu`` and variance by ``a`` times a chi-square with
    ``mu / a`` degrees of freedom, whose quantile is ``q0`` and whose
    saddlepoint at ``q0`` is ``(1 - mu / q0) / (2 a)``. Where a moment sum
    overflows the guess is not finite, and ``_solve`` does not use it."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu = lam.sum() + c2.sum(axis=1)
        a = (lam @ lam + 2.0 * (c2 @ lam)) / mu
        q0 = a * chdtri(mu / a, p)
        return (1.0 - mu / q0) / (2.0 * a)


def _levels(q, rows: int) -> np.ndarray:
    """``q`` as one level per row: a scalar for every row, or a vector."""
    q = np.asarray(q, dtype=float)
    if q.ndim > 1 or (q.ndim == 1 and q.size != rows):
        raise ParameterError(f"q must be a scalar or one level per row ({rows})")
    if np.any(np.isnan(q)):
        raise ParameterError("q must not be NaN")
    return np.array(np.broadcast_to(q, (rows,)))


def _floor(lam: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """``Q``'s essential infimum per row: the offsets of the zero-variance
    terms. ``P(Q <= q) = 0`` for q at or below it, since some lam is
    positive."""
    return c2[:, lam == 0].sum(axis=1)


class Tails(NamedTuple):
    """Per row: the Lugannani-Rice ``log P(Q <= q)``, an approximation that
    bounds nothing, and Chernoff exponents that bound ``log P(Q > q)`` and
    ``log P(Q <= q)`` from above."""
    log_cdf: np.ndarray
    log_sf_bound: np.ndarray
    log_cdf_bound: np.ndarray


def tails(q, lam, c2) -> Tails:
    """Both tails of Q at ``q`` for each row of the (R, N) array ``c2``;
    ``q`` is one level or one per row. One saddlepoint ``s`` of ``K'(s) =
    q`` per row, and the cumulants there, give both answers.

    ``log_cdf`` is the Lugannani-Rice ``Phi(w) + phi(w) (1/w - 1/u)``. Below
    the mean (``s < 0``) it is evaluated as ``log Phi(w)`` plus a relative
    correction, so deep lower tails do not underflow; elsewhere it is
    ``log1p`` of minus the upper tail, so ``P(Q > q) = -expm1(log_cdf)``.

    ``min(0, K(s) - s q)`` is the Chernoff exponent, the minimum over ``s``
    on the saddlepoint's side of 0: ``log_sf_bound`` above the mean ``K'(0)``
    and ``log_cdf_bound`` below it, each 0 on the other side. At or below
    the infimum of Q, ``log_cdf`` and ``log_cdf_bound`` are ``-inf``. A
    saddlepoint closer to the pole ``1/(2 max lam)`` than the bracket search
    resolves stops at the last upper end tried: the exponent there is still
    a bound (``-inf`` at ``q = inf``), and ``log_cdf`` is ``-0.0``, the
    rounding of a tail below ``exp(-2**47)``. One below the last lower end
    tried raises ``NumericalError``.
    """
    lam, c2 = _terms(lam, c2)
    q = _levels(q, c2.shape[0])
    mean = lam.sum() + c2.sum(axis=1)
    log_cdf, exponent = np.full(q.size, -np.inf), np.full(q.size, -np.inf)
    live = np.flatnonzero(q > _floor(lam, c2))
    if live.size:
        c2, level = c2[live], q[live]
        s = _saddlepoint(level, lam, c2, "Lugannani-Rice tail")
        cum = np.array(_cgf(s, lam, c2, third=True))
        k0, _, k2, _ = cum
        exponent[live] = np.minimum(0.0, k0 - s * level)
        u = s * np.sqrt(k2)
        lower = (s < 0) & (np.abs(u) >= _NEAR_MEAN)
        upper = np.flatnonzero(~lower)
        log_cdf[live[upper]] = np.log1p(
            -_lugannani_rice(s[upper], lam, c2, upper, cum[:, upper])[1])
        if lower.any():
            w = -np.sqrt(np.maximum(2.0 * (s * level - k0), 0.0))[lower]
            # phi(w) / Phi(w) = sqrt(2 / pi) / erfcx(-w / sqrt 2), without underflow
            corr = math.sqrt(2.0 / math.pi) / erfcx(-w * _SQRT_HALF) * (1.0 / w - 1.0 / u[lower])
            if np.any(corr <= -1.0):
                row = live[np.flatnonzero(lower)[np.argmax(corr <= -1.0)]]
                raise NumericalError(f"Lugannani-Rice lower tail not positive, row {row}")
            log_cdf[live[lower]] = log_ndtr(w) + np.log1p(corr)
    return Tails(log_cdf, np.where(q > mean, exponent, 0.0), np.where(q < mean, exponent, 0.0))


# ---------------------------------------------------------------------------
# The product lower bound
# ---------------------------------------------------------------------------

def _interval(r: np.ndarray, m: np.ndarray, value_only: bool = False):
    """Terms of ``H(r) = P(|m + Z| <= r)`` for standard normal Z.

    Returns ``log H``, and unless ``value_only`` also ``kappa = log(H' / (2 r
    H))`` (the log of ``d log H / d(r**2)``) and ``d kappa / d log r``. Each
    branch forms ``log H`` and ``e = log H + (r - m)**2 / 2`` directly, so the
    Gaussian exponent of a distant interval never cancels: ``r < m`` goes
    through ``erfcx`` (``Phi(x) = erfcx(-x / sqrt 2) exp(-x**2 / 2) / 2``),
    small ``r (m + 1)`` through the series ``2 r phi(m) (1 + (m**2 - 1)
    r**2 / 6)``.
    """
    lo, hi, rm = r - m, r + m, r * m
    half_lo2 = 0.5 * lo * lo
    log_h, e = np.empty_like(r), np.empty_like(r)
    series = r * (m + 1.0) < _SPLIT_SERIES
    below = (lo < 0) & ~series
    near_one = (lo > 1.0) & ~series
    mid = ~(series | below | near_one)
    if series.any():
        rs, ms = r[series], m[series]
        base = np.log(2.0 * rs) - _LOG_SQRT_2PI + np.log1p((ms * ms - 1.0) * rs * rs / 6.0)
        log_h[series] = base - 0.5 * ms * ms
        e[series] = base - rs * ms + 0.5 * rs * rs
    if below.any():
        ex_lo = erfcx(-lo[below] * _SQRT_HALF)
        gap = np.log(erfcx(hi[below] * _SQRT_HALF) / ex_lo) - 2.0 * rm[below]
        e[below] = np.log(0.5 * ex_lo) + np.log(-np.expm1(gap))
        log_h[below] = e[below] - half_lo2[below]
    if mid.any():
        log_h[mid] = np.log(0.5 * (erf(hi[mid] * _SQRT_HALF) + erf(lo[mid] * _SQRT_HALF)))
        e[mid] = log_h[mid] + half_lo2[mid]
    if near_one.any():
        log_h[near_one] = np.log1p(-0.5 * (erfc(hi[near_one] * _SQRT_HALF)
                                           + erfc(lo[near_one] * _SQRT_HALF)))
        e[near_one] = log_h[near_one] + half_lo2[near_one]
    if value_only:
        return log_h
    log_ratio = np.log1p(np.exp(-2.0 * rm)) - _LOG_SQRT_2PI - e  # log(H' / H)
    kappa = log_ratio - np.log(2.0 * r)
    slope = -r * (r - m * np.tanh(rm)) - 1.0 - r * np.exp(log_ratio)
    return log_h, kappa, slope


def _bracketed(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``x``, or the bracket's midpoint where ``x`` lies beyond it; a step
    passes an end only toward the other end already found, so both ends are
    finite there."""
    outside = (x < lo) | (x > hi)
    if outside.any():
        x = x.copy()
        x[outside] = 0.5 * (lo[outside] + hi[outside])
    return x


def _split_radii(rho, target, m, steps: int = _SPLIT_INNER_STEPS):
    """Newton steps on each log radius ``rho`` toward ``kappa(rho) = target``
    (``kappa`` decreases in ``rho``), bisecting inside the bracket found so
    far whenever a step would leave it. Returns the log radii and ``d rho /
    d target = 1 / slope``, taken as 0 where rounding left the slope of a
    far-out term nonnegative."""
    rho = np.clip(rho, -_SPLIT_LOG_R, _SPLIT_LOG_R)
    lo, hi = np.full(rho.shape, -np.inf), np.full(rho.shape, np.inf)
    for _ in range(steps):
        _, kappa, slope = _interval(np.exp(rho), m)
        f = kappa - target
        lo = np.where(f > 0, rho, lo)
        hi = np.where(f < 0, rho, hi)
        step = np.sign(f)  # a slope that rounding made nonnegative: plain unit steps
        np.divide(-f, slope, out=step, where=slope < 0)
        step = np.clip(step, -_SPLIT_MAX_STEP, _SPLIT_MAX_STEP)
        rho = np.clip(_bracketed(rho + step, lo, hi), -_SPLIT_LOG_R, _SPLIT_LOG_R)
        if np.all(np.abs(step) <= _SPLIT_TOL * np.maximum(1.0, np.abs(rho))):
            break
    return rho, np.divide(1.0, slope, out=np.zeros_like(slope), where=slope < 0)


def log_cdf_product(q, lam, c2) -> np.ndarray:
    """Rigorous lower bound on ``log P(Q <= q)`` for each row of ``c2``:
    ``sum_i log P((c_i + sqrt(lam_i) Z_i)**2 <= q_i)`` over a split ``sum_i
    q_i <= q``, since the terms are independent.

    A zero-variance term takes exactly ``q_i = c_i**2``; the bound is
    ``-inf`` when those leave nothing. Each other term's log probability is
    concave in ``q_i`` (Prekopa), so the best split equalizes the slopes
    ``d/dq_i log P`` at a multiplier mu: Newton steps on ``log mu`` make the
    split spend q, each nested in Newton steps on the terms' log radii
    ``log sqrt(q_i / lam_i)``. The split is then scaled to spend
    ``(1 - 4 EIGENVALUE_RTOL) q``, a margin for the rounding of its sum, and
    the bound is evaluated there, so it is valid however far the solve got.
    """
    lam, c2 = _terms(lam, c2)
    q = _levels(q, c2.shape[0])
    budget = q - _floor(lam, c2)
    out = np.full(q.size, -np.inf)
    live = np.flatnonzero(budget > 0)
    if live.size == 0:
        return out
    pos = lam > 0
    lam, budget = lam[pos], budget[live]
    m = np.sqrt(c2[np.ix_(live, np.flatnonzero(pos))] / lam)
    log_lam = np.log(lam)

    # Start from an even split, where each term's slope is 1 / (2 q_i) for a
    # small radius; the large-radius guess solves the Gaussian-tail form of
    # kappa and caps the start so that no term begins far out on the tail.
    nu = np.log(lam.size / (2.0 * budget))
    target = nu[:, None] + log_lam
    rho = -0.5 * (target + math.log(2.0))
    tail = m + np.sqrt(np.maximum(-2.0 * target - 2.0 * _LOG_SQRT_2PI
                                  - 2.0 * np.log(2.0 * (m + 1.0)), 0.0))
    rho = np.where(tail > 0, np.minimum(rho, np.log(np.maximum(tail, 1e-300))), rho)
    rho, drho = _split_radii(rho, target, m, _SPLIT_START_STEPS)

    nu_lo, nu_hi = np.full(nu.shape, -np.inf), np.full(nu.shape, np.inf)
    for _ in range(_SPLIT_OUTER_STEPS):
        share = lam * np.exp(2.0 * rho)
        spent = share.sum(axis=1)
        g = np.log(spent / budget)
        if np.all(np.abs(g) <= _SPLIT_TOL):
            break
        nu_lo = np.where(g > 0, nu, nu_lo)
        nu_hi = np.where(g < 0, nu, nu_hi)
        dg = 2.0 * (share * drho).sum(axis=1) / spent  # d g / d nu
        step = np.sign(g)  # unit steps where no radius responds
        np.divide(-g, dg, out=step, where=dg < 0)
        new = _bracketed(nu + step, nu_lo, nu_hi)
        rho = rho + np.clip((new - nu)[:, None] * drho, -_SPLIT_MAX_STEP, _SPLIT_MAX_STEP)
        nu = new
        target = nu[:, None] + log_lam
        rho, drho = _split_radii(rho, target, m)

    r = np.exp(rho)
    spent = (lam * r * r).sum(axis=1)
    r *= np.sqrt((1.0 - 4.0 * EIGENVALUE_RTOL) * budget / spent)[:, None]
    out[live] = _interval(r, m, value_only=True).sum(axis=1)
    return out

"""Reference routes that tests compare the package's block-diagonal code
against: the partition of a zero pattern by its definition, and the sampling
factor scattered into one N x N array as the posterior held it before it
stayed a ``quadform.BlockDiagonal``."""

import numpy as np
from scipy.linalg.blas import dtrmm

from contraction_lab import quadform


def zero_pattern_blocks(mat: np.ndarray) -> np.ndarray:
    """Edges of the finest diagonal blocks outside which the square ``mat``
    is exactly zero, by definition: a block ends before k exactly when
    ``mat[:k, k:]`` and ``mat[k:, :k]`` are all zero."""
    n = mat.shape[0]
    inner = [k for k in range(1, n) if not (np.any(mat[:k, k:]) or np.any(mat[k:, :k]))]
    return np.array([0] + inner + [n])


def scattered_factor(post) -> np.ndarray:
    """A posterior's sampling factor as one C-ordered N x N array: the
    transpose of ``L^{-1}`` scattered by ``dense()`` into a Fortran-ordered
    array."""
    return post.cov_factor.map(lambda lo, hi, p: p.T).dense().T


def scattered_distances(post, u0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``post.distances(u0, z)`` through the scattered factor: BLAS dtrmm on
    each diagonal block of ``L^{-1}``, one-row blocks included, over the
    operator's edges, in place on a copy of ``z``."""
    lower, z = scattered_factor(post).T, np.array(z, dtype=float, order="C")
    edges = post.cov_factor.edges
    for lo, hi in zip(edges[:-1], edges[1:]):
        dtrmm(1.0, lower[lo:hi, lo:hi], z.T[:, lo:hi], side=1, lower=1, overwrite_b=1)
    z += (post.mean - u0)[:, None]
    z *= z
    return np.sqrt(np.add.reduce(z, axis=0))


def scattered_trace(post) -> float:
    """``post.covariance_trace()`` through the scattered factor: the square
    sum of ``from_dense`` views of its blocks."""
    return quadform.BlockDiagonal.from_dense(scattered_factor(post),
                                             post.cov_factor.edges).square_sum()

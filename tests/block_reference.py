"""Reference routes that tests compare the package's block-diagonal code
against: the partition of a zero pattern by its definition, the sampling
factor scattered into one N x N array as the posterior held it before it
stayed a ``quadform.BlockDiagonal``, and the small-ball residual norms one
coordinate at a time."""

import math

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


def per_block_residual_norms(prob, u0: np.ndarray) -> np.ndarray:
    """``small_ball_form(prob, u0).residual_norms`` one coordinate at a time,
    in its summation order, from the dense ``whitened_forward``: for j in a
    block, the columns j to the block's end of M times u0, added from the
    right, squared and summed over the block's rows as ``np.add.reduce``
    sums a vector; plus the squared whole images of the later blocks, added
    from the last block on."""
    m, edges = prob.whitened_forward, prob.gram_blocks
    norms, later = [0.0], 0.0
    for lo, hi in reversed(list(zip(edges[:-1], edges[1:]))):
        image = np.zeros(hi - lo)
        for j in range(hi - 1, lo - 1, -1):
            image = image + m[lo:hi, j] * u0[j]
            own = np.add.reduce(image * image)
            norms.append(math.sqrt(own + later))
        later = later + own
    return np.array(norms[::-1])

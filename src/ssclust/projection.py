"""Gaussian random projection of the data matrix.

A seeded m x D Gaussian sketch G (entries N(0, 1/m)) maps the data to a
lower dimension while nearly preserving pairwise distances, so the
self-expressive solve can run on G @ Y instead of Y.  The 1/m variance
makes projected squared distances unbiased estimates of the originals.

G is never held whole: `project` draws it in blocks of BLOCK_ROWS rows
from the seeded generator and multiplies each block into its rows of
G @ Y as it is drawn, so the sketch costs one block of memory, not m x D.
`ProjectionMatrix.values` draws the full matrix on request.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


# Rows of G drawn and multiplied at a time.  Any block of two or more rows
# gives a product bit-identical to the dense G @ Y; a single row goes
# through BLAS gemv, which rounds differently, so a one-row tail is folded
# into the block before it.
BLOCK_ROWS = 64


@dataclass
class ProjectionMatrix:
    """Seeded Gaussian sketching matrix (m x D), drawn when it is used."""

    m: int
    D: int
    seed: int

    def blocks(self):
        """Yield (start, block): consecutive row blocks of G, in fill order."""
        rng = np.random.default_rng(self.seed)
        scale = 1.0 / np.sqrt(self.m)
        start = 0
        while start < self.m:
            stop = start + BLOCK_ROWS
            if stop >= self.m - 1:  # the last block, with a one-row tail folded in
                stop = self.m
            yield start, rng.normal(0.0, scale, size=(stop - start, self.D))
            start = stop

    @property
    def values(self):
        """The whole m x D matrix, drawn in one piece."""
        rng = np.random.default_rng(self.seed)
        return rng.normal(0.0, 1.0 / np.sqrt(self.m), size=(self.m, self.D))


@dataclass
class DistortionReport:
    """Worst-case pairwise distance distortion of a projection.

    max_expansion = max ratio - 1 and max_contraction = 1 - min ratio,
    both clamped below at zero; pair_count is the total number of column
    pairs, skipped_pairs the zero-distance pairs excluded from ratios.
    """

    max_expansion: float
    max_contraction: float
    pair_count: int
    skipped_pairs: int = 0


def gaussian_matrix(m, D, seed):
    """The m x D sketch with iid N(0, 1/m) entries, fixed fill order."""
    if m < 1 or m > D:
        raise InputError(f"need 1 <= m <= D, got m={m}, D={D}")
    return ProjectionMatrix(m=m, D=D, seed=seed)


def project(G, Y):
    """Apply the sketch: returns G @ Y with shape (m, N)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or G.D != Y.shape[0]:
        raise InputError(
            f"projection expects {G.D} rows, got data of shape {Y.shape}"
        )
    out = np.empty((G.m, Y.shape[1]))
    for start, block in G.blocks():
        np.matmul(block, Y, out=out[start : start + block.shape[0]])
        # freed before the next block is drawn: with two blocks live, the
        # second sometimes landed in fresh pages and raised peak RSS by a block
        del block
    return out


def column_distances(Y):
    """Distances between the columns of Y for pairs i < j, in row-major order.

    Differences are taken before norms, so duplicate columns give exactly 0.
    """
    X = np.ascontiguousarray(Y.T)  # points as contiguous rows
    dists = [np.empty(0)]
    for i in range(X.shape[0] - 1):
        diff = X[i + 1 :] - X[i]
        dists.append(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
    return np.concatenate(dists)


def jl_distortion(Y, Y_proj):
    """Compare pairwise column distances before and after projection."""
    Y = np.asarray(Y, dtype=float)
    Y_proj = np.asarray(Y_proj, dtype=float)
    n = Y.shape[1]
    if Y_proj.shape[1] != n:
        raise InputError(
            f"column counts differ: {n} vs {Y_proj.shape[1]}"
        )
    if n < 2:
        raise InputError("need at least two columns")

    orig = column_distances(Y)
    proj = column_distances(Y_proj)
    nz = orig > 0
    skipped = int(np.count_nonzero(~nz))
    ratios = proj[nz] / orig[nz]
    if ratios.size == 0:
        return DistortionReport(0.0, 0.0, pair_count=orig.size, skipped_pairs=skipped)
    return DistortionReport(
        max_expansion=max(float(ratios.max()) - 1.0, 0.0),
        max_contraction=max(1.0 - float(ratios.min()), 0.0),
        pair_count=orig.size,
        skipped_pairs=skipped,
    )

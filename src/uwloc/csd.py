"""Nonparametric chi-square divergence estimation from two sample sets.

Given n samples of P and m samples of Q in R^d, the divergence
chi2(P || Q) = E_P[p/q] - 1 is estimated from k-nearest-neighbor density
ratios: for each P sample, the ratio of the k-NN radius in Q to the k-NN
radius within P (self excluded) raised to the dimension, with the
bias-corrected (k-1)/k weight on the plug-in mean.

Points with a zero radius on either side (exact duplicates) contribute an
undefined ratio and are excluded from the mean and counted in the
estimate's excluded_points; the sample counts inside the formula keep
their original values so the correction factors stay those of the full
sets.

Each k-NN search is exact. Up to _EXACT_MAX_PAIRS query-point pairs it is
a blocked pairwise search in numpy; above that it is scipy's cKDTree,
imported by the first such search: loading scipy.spatial brings in scipy's
linalg, sparse and BLAS too, which no other step of the pipeline needs.
2^20 pairs is where the two cost the same, counting the tree's import
(about 1 000 samples a side). The pairwise search sums the squared
coordinate differences as cKDTree does, so both return the same distances
bit for bit and the estimate does not depend on which one ran.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError

# Neighbor order the estimate-csd command uses when given none.
DEFAULT_K = 5

# Largest query-point pair count searched pairwise rather than by cKDTree.
_EXACT_MAX_PAIRS = 1 << 20
# Pairs per block of the pairwise search: two or three float64 buffers of
# this many entries, 2 MB each.
_BLOCK_DISTANCES = 1 << 18


@dataclass
class CsdEstimate:
    """k-NN divergence estimate with the quantities that produced it.

    raw is the bias-corrected plug-in value and may be negative by sampling
    noise; clamped = max(raw, 0) is what bound evaluation consumes.
    excluded_points counts P samples dropped for zero-radius degeneracy.
    """

    n: int
    m: int
    k: int
    d: int
    raw: float
    clamped: float
    excluded_points: int


def _as_points(samples) -> np.ndarray:
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EstimationError("samples must be a non-empty (count, dim) array")
    if not np.all(np.isfinite(pts)):
        raise EstimationError("samples must be finite")
    return pts


def _knn_distances(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(len(queries), k) ascending distances from each query to its k nearest
    points; the one k-NN search, see the module docstring."""
    if len(points) * len(queries) <= _EXACT_MAX_PAIRS:
        return _knn_distances_brute(points, queries, k)
    return _knn_distances_kdtree(points, queries, k)


def _knn_distances_kdtree(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    from scipy.spatial import cKDTree  # on first use; see the module docstring

    tree = cKDTree(points)
    dists, _ = tree.query(queries, k=k)
    if k == 1:
        dists = dists[:, None]
    return dists


def _sum_squares(queries, points, coords, out, scratch) -> None:
    """out = the sum over coords, in order, of (query - point)^2 per pair."""
    first, *rest = coords
    np.subtract(queries[:, first, None], points[:, first], out=out)
    np.multiply(out, out, out=out)
    for c in rest:
        np.subtract(queries[:, c, None], points[:, c], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(out, scratch, out=out)


def _knn_distances_brute(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact pairwise search in blocks of at most _BLOCK_DISTANCES pairs.

    Squared distances are summed as cKDTree sums them: each whole group of
    four coordinates feeds four lane sums (coordinate c to lane c % 4), the
    lanes are added in order, then the remaining coordinates one by one;
    below d = 8 that is plain coordinate order. The k smallest squared
    distances are then partitioned out, sorted and square-rooted, so the
    result equals cKDTree's bit for bit.
    """
    d = queries.shape[1]
    grouped = d - d % 4
    terms = ([range(j, grouped, 4) for j in range(min(grouped, 4))]
             + [range(c, c + 1) for c in range(grouped, d)])
    rows = min(len(queries), max(1, _BLOCK_DISTANCES // len(points)))
    block = np.empty((rows, len(points)))
    scratch = np.empty_like(block)
    # a term of one coordinate needs no buffer of its own
    lane = np.empty_like(block) if grouped > 4 else scratch
    dists = np.empty((len(queries), k))
    for start in range(0, len(queries), rows):
        chunk = queries[start:start + rows]
        sq, tmp, term = block[:len(chunk)], scratch[:len(chunk)], lane[:len(chunk)]
        sq.fill(0.0)
        for coords in terms:
            _sum_squares(chunk, points, coords, term, tmp)
            np.add(sq, term, out=sq)
        sq.partition(k - 1, axis=1)
        nearest = sq[:, :k]
        nearest.sort(axis=1)
        np.sqrt(nearest, out=dists[start:start + len(chunk)])
    return dists


def estimate_csd(samples_p, samples_q, k: int) -> CsdEstimate:
    """Estimate chi2(P || Q) from samples of each distribution.

    samples_p: (n, d) draws from P, the distribution in the numerator.
    samples_q: (m, d) draws from Q.
    k: neighbor order, >= 2 (the bias correction needs k - 1 > 0).

    A k below 2 or sets of different dimension are a ConfigError, the
    caller's input; too few samples, or none left, an EstimationError.

    Returns a CsdEstimate; see the module docstring for the estimator and
    the duplicate-exclusion policy.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    pts_p = _as_points(samples_p)
    pts_q = _as_points(samples_q)
    if pts_p.shape[1] != pts_q.shape[1]:
        raise ConfigError(
            f"sample sets disagree on dimension: {pts_p.shape[1]} and {pts_q.shape[1]}"
        )
    n, d = pts_p.shape
    m = pts_q.shape[0]
    if n < k + 1:
        raise EstimationError(f"need at least k+1={k + 1} samples of P, got {n}")
    if m < k:
        raise EstimationError(f"need at least k={k} samples of Q, got {m}")
    # k-th neighbor within P, self excluded: query k+1, drop the self hit.
    rho = _knn_distances(pts_p, pts_p, k + 1)[:, k]
    nu = _knn_distances(pts_q, pts_p, k)[:, k - 1]

    valid = (rho > 0.0) & (nu > 0.0)
    excluded = int(n - np.count_nonzero(valid))
    if excluded == n:
        raise EstimationError("all points excluded: sample sets are degenerate")

    ratios = (m * nu[valid] ** d) / ((n - 1) * rho[valid] ** d)
    raw = float((k - 1) / k * ratios.mean() - 1.0)
    return CsdEstimate(
        n=n, m=m, k=k, d=d, raw=raw, clamped=max(raw, 0.0), excluded_points=excluded
    )


def load_samples(path) -> np.ndarray:
    """Read a (count, dim) point cloud from a comma-separated file, one point
    per row; ConfigError if the file holds no rows, is not all numbers (a
    header line too) or holds a NaN or infinite entry."""
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file with no rows; make that an error.
            warnings.simplefilter("error", UserWarning)
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except UserWarning as exc:
        raise ConfigError(f"{path} holds no samples") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not a numeric comma-separated file: {exc}") from exc
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise ConfigError(f"{path} holds a non-finite sample in row {int(np.argmin(finite)) + 1}")
    return _as_points(pts)

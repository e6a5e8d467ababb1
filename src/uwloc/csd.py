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

The k-NN search is scipy's cKDTree, imported by the first search: loading
scipy.spatial brings in scipy's linalg, sparse and BLAS too, which no other
step of the pipeline needs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EstimationError

# Neighbor order the estimate-csd command uses when given none.
DEFAULT_K = 5


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


def _knn_distances_kdtree(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    from scipy.spatial import cKDTree  # on first use; see the module docstring

    tree = cKDTree(points)
    dists, _ = tree.query(queries, k=k)
    if k == 1:
        dists = dists[:, None]
    return dists


def _knn_distances_brute(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    # Exact pairwise search; quadratic, the reference the KD-tree is tested
    # against on small inputs.
    diff = queries[:, None, :] - points[None, :, :]
    dists = np.sqrt(np.sum(diff * diff, axis=2))
    dists.sort(axis=1)
    return dists[:, :k]


def estimate_csd(samples_p, samples_q, k: int) -> CsdEstimate:
    """Estimate chi2(P || Q) from samples of each distribution.

    samples_p: (n, d) draws from P, the distribution in the numerator.
    samples_q: (m, d) draws from Q.
    k: neighbor order, >= 2 (the bias correction needs k - 1 > 0).

    Returns a CsdEstimate; see the module docstring for the estimator and
    the duplicate-exclusion policy.
    """
    pts_p = _as_points(samples_p)
    pts_q = _as_points(samples_q)
    if pts_p.shape[1] != pts_q.shape[1]:
        raise EstimationError("sample sets disagree on dimension")
    n, d = pts_p.shape
    m = pts_q.shape[0]
    if k < 2:
        raise EstimationError("k must be >= 2")
    if n < k + 1:
        raise EstimationError(f"need at least k+1={k + 1} samples of P, got {n}")
    if m < k:
        raise EstimationError(f"need at least k={k} samples of Q, got {m}")
    # k-th neighbor within P, self excluded: query k+1, drop the self hit.
    rho = _knn_distances_kdtree(pts_p, pts_p, k + 1)[:, k]
    nu = _knn_distances_kdtree(pts_q, pts_p, k)[:, k - 1]

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
    per row; ConfigError if the file holds no rows or is not all numbers (a
    header line too)."""
    try:
        with warnings.catch_warnings():
            # loadtxt only warns on a file with no rows; make that an error.
            warnings.simplefilter("error", UserWarning)
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except UserWarning as exc:
        raise ConfigError(f"{path} holds no samples") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not a numeric comma-separated file: {exc}") from exc
    return _as_points(pts)

"""Dense NL x NL references that the closed forms of uwloc are checked against.

The pipeline never builds an observation covariance: uwloc.bounds computes
the chi-square divergence from per-bin response energies alone, and
GridEvaluator scores candidates through receiver spectra. The functions
here form the dense objects those shortcuts replace (the covariance, its
per-frequency blocks, their eigenvalues, the determinant-form divergence,
its SNR limits and the per-candidate log-likelihood), so the tests can
compare the two on small instances.

No function here calls a private uwloc helper: where an oracle needs the
same rule as the package (leaving log space, the per-bin energies), it
spells the rule out in its own lines, so a fault in the package's helper
cannot pass on both sides of a comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from uwloc.bounds import BOUNDARY_RTOL, delta_squared_closed_form

# Largest off-block mass, relative to the whole matrix, that
# block_diagonalize accepts as rounding.
_BLOCK_RTOL = 1e-10
# SNR at which snr_limits reports the low-SNR divergence.
LOW_SNR_PROBE = 1e-6


class StructureError(ValueError):
    """A matrix claimed to be block-structured is not (block_diagonalize)."""


@dataclass
class BlockForm:
    """Per-frequency L x L blocks of an interleave-permuted covariance.

    permutation is an index map: permuted[j] = original[permutation[j]],
    applied symmetrically to rows and columns. Block k of the permuted
    matrix couples all receivers at frequency bin k.
    """

    blocks: np.ndarray
    permutation: np.ndarray
    l_count: int
    n_bins: int

    def to_dense(self) -> np.ndarray:
        """Rebuild the original-order dense covariance from the blocks."""
        size = self.l_count * self.n_bins
        permuted = np.zeros((size, size), dtype=complex)
        for k in range(self.n_bins):
            sl = slice(k * self.l_count, (k + 1) * self.l_count)
            permuted[sl, sl] = self.blocks[k]
        inverse = np.empty(size, dtype=int)
        inverse[self.permutation] = np.arange(size)
        return permuted[np.ix_(inverse, inverse)]


def _as_matrix(stack) -> np.ndarray:
    return np.atleast_2d(np.asarray(stack, dtype=complex))


def _from_log(log_value: float) -> float:
    """max(exp(log_value) - 1, 0), or math.inf where that exceeds float64."""
    try:
        return max(math.expm1(log_value), 0.0)
    except OverflowError:
        return math.inf


def build_covariance(stack, signal_power: float, noise_power: float) -> np.ndarray:
    """Dense NL x NL covariance: signal_power * H H^H + noise_power * I.

    Receiver-major ordering: entry (l*N + k, l'*N + k') is nonzero only for
    k = k'. Intended for small instances and oracles; the closed-form paths
    never build it.
    """
    if signal_power < 0:
        raise ValueError("signal power must be >= 0")
    if noise_power <= 0:
        raise ValueError("noise power must be > 0")
    h = _as_matrix(stack)
    l_count, n_bins = h.shape
    size = l_count * n_bins
    cov = np.zeros((size, size), dtype=complex)
    bins = np.arange(n_bins)
    for row in range(l_count):
        for col in range(l_count):
            cov[row * n_bins + bins, col * n_bins + bins] = (
                signal_power * h[row] * np.conj(h[col])
            )
    cov[np.diag_indices(size)] += noise_power
    return cov


def interleave_permutation(l_count: int, n_bins: int) -> np.ndarray:
    """Index map sending receiver-major (l, k) storage to frequency-major."""
    j = np.arange(l_count * n_bins)
    return (j % l_count) * n_bins + j // l_count


def block_diagonalize(cov, l_count: int) -> BlockForm:
    """Per-frequency blocks of a dense receiver-major covariance.

    Applies the interleave permutation and verifies that nothing lives
    outside the permuted block pattern.
    """
    cov = np.asarray(cov, dtype=complex)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise StructureError("covariance must be square")
    size = cov.shape[0]
    if size % l_count != 0:
        raise StructureError("matrix size is not a multiple of l_count")
    n_bins = size // l_count
    perm = interleave_permutation(l_count, n_bins)
    permuted = cov[np.ix_(perm, perm)]
    blocks = np.zeros((n_bins, l_count, l_count), dtype=complex)
    rebuilt = np.zeros_like(permuted)
    for k in range(n_bins):
        sl = slice(k * l_count, (k + 1) * l_count)
        blocks[k] = permuted[sl, sl]
        rebuilt[sl, sl] = blocks[k]
    leak = np.linalg.norm(permuted - rebuilt)
    scale = max(np.linalg.norm(cov), 1e-300)
    if leak > _BLOCK_RTOL * scale:
        raise StructureError(
            f"matrix is not block structured: off-block mass {leak:.3e} "
            f"(relative {leak / scale:.3e})"
        )
    return BlockForm(blocks, perm, l_count, n_bins)


def eigenvalues_closed_form(h_bin, signal_power: float, noise_power: float) -> np.ndarray:
    """Eigenvalues of one per-frequency block, largest first.

    A rank-one update of a scaled identity has one shifted eigenvalue and
    L-1 copies of the noise floor.
    """
    if noise_power <= 0:
        raise ValueError("noise power must be > 0")
    h_bin = np.asarray(h_bin, dtype=complex)
    out = np.full(h_bin.size, float(noise_power))
    out[0] += signal_power * float(np.vdot(h_bin, h_bin).real)
    return out


def _check_hermitian(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    herm_gap = np.linalg.norm(matrix - matrix.conj().T)
    if herm_gap > 1e-8 * max(1.0, np.linalg.norm(matrix)):
        raise ValueError(f"{name} is not Hermitian")
    return 0.5 * (matrix + matrix.conj().T)


def _logdet_pd(matrix: np.ndarray, name: str) -> float:
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(factor).real)))


def csd_exact(sigma_q, sigma_p) -> float:
    """Chi-square divergence between the two zero-mean complex Gaussians.

    det(sigma_q) / (det(sigma_p) det(2I - sigma_p inv(sigma_q))) - 1 in
    log space; finite iff every generalized eigenvalue of (sigma_p, sigma_q)
    stays below 2. Returns math.inf otherwise, or where the value exceeds
    float64.
    """
    sigma_q = _check_hermitian(sigma_q, "sigma_q")
    sigma_p = _check_hermitian(sigma_p, "sigma_p")
    logdet_q = _logdet_pd(sigma_q, "sigma_q")
    logdet_p = _logdet_pd(sigma_p, "sigma_p")
    mu = scipy.linalg.eigh(sigma_p, sigma_q, eigvals_only=True)
    margin = 2.0 - mu
    if np.any(margin <= BOUNDARY_RTOL * 2.0):
        return math.inf
    total = logdet_q - logdet_p - math.fsum(np.log(margin))
    return _from_log(total)


def snr_limits(stack_q, stack_p):
    """High-SNR divergence limit and the low-SNR probe value.

    The high-SNR limit is prod_k 1/(rho_k (2 - rho_k)) - 1 with rho_k the
    per-bin energy ratio actual/presumed and e_k the per-bin response
    energy; math.inf when some bin fails 2 eq_k > ep_k with relative
    margin BOUNDARY_RTOL (rho_k >= 2, boundary = violated), rho_k = 0, or
    it exceeds float64. The low-SNR behavior is reported as
    the closed-form divergence at snr = LOW_SNR_PROBE, which must vanish
    as the probe does.
    """
    energy_q, energy_p = (np.sum(np.abs(_as_matrix(stack)) ** 2, axis=0)
                          for stack in (stack_q, stack_p))
    if energy_q.shape != energy_p.shape:
        raise ValueError("stacks disagree on the number of frequency bins")
    if np.any(energy_q <= 0):
        raise ValueError("presumed response energy must be positive per bin")
    scale = np.maximum(2.0 * energy_q, energy_p)
    finite = bool(np.all(2.0 * energy_q - energy_p > BOUNDARY_RTOL * scale))
    rho = energy_p / energy_q
    if not finite or np.any(rho == 0):
        high = math.inf
    else:
        log_high = -math.fsum(np.log(rho)) - math.fsum(np.log(2.0 - rho))
        high = _from_log(log_high)
    low = delta_squared_closed_form(stack_q, stack_p, LOW_SNR_PROBE)
    return high, low


def concentrated_loglikelihood(
    observation, stack, signal_power: float, noise_power: float
) -> float:
    """Candidate-position log-likelihood, position-independent terms dropped.

    observation: (L, N) complex array of received bins.
    stack: (L, N) response array for the candidate.

    Equals -log det(cov) - x^H inv(cov) x up to an additive constant that
    does not depend on the candidate response.
    """
    if noise_power <= 0:
        raise ValueError("noise power must be > 0")
    if signal_power < 0:
        raise ValueError("signal power must be >= 0")
    x = np.asarray(observation, dtype=complex)
    h = np.asarray(stack, dtype=complex)
    if x.shape != h.shape:
        raise ValueError("observation and response stack shapes disagree")
    inner = np.sum(np.conj(h) * x, axis=0)
    energy = np.sum(np.abs(h) ** 2, axis=0)
    gain = signal_power * energy + noise_power
    score = signal_power * np.abs(inner) ** 2 / (noise_power * gain) - np.log(gain)
    return float(np.sum(score))

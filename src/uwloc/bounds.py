"""Covariance structure and mismatch bounds for the stacked Gaussian model.

Observations under the presumed model (design-time, subscript q) and the
actual model (test-time, subscript p) are zero-mean circular complex
Gaussians whose NL x NL covariances share one structure: a rank-one update
per frequency bin. Everything here exploits that structure: closed-form
eigenvalues, block diagonalization under the receiver/frequency interleave,
the chi-square divergence between the two observation laws (exact
determinant form and O(NL) product form), its SNR limits, and the two
MSE-degradation bounds built from it.

_energy_form holds the per-bin energies and finiteness rule that
gamma_and_condition, delta_squared_closed_form and snr_limits share.

Infinite divergence is an explicit result value (math.inf), not an
exception, so sweep curves can carry vacuous-bound regions. A finite
divergence too large for float64 is reported as math.inf as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csd import estimate_csd
from .errors import EstimationError, StructureError

# Relative margin at which a boundary case counts as violated (divergence
# infinite) rather than finite; keeps near-singular denominators out.
BOUNDARY_RTOL = 1e-12
# Largest off-block mass, relative to the whole matrix, that
# block_diagonalize accepts as rounding.
_BLOCK_RTOL = 1e-10
# SNR at which snr_limits reports the low-SNR divergence.
LOW_SNR_PROBE = 1e-6


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


@dataclass
class BoundEvaluation:
    """Empirical bound assembly from error samples.

    strong_bound = mse_q + sqrt(var_q * csd_error) with csd_error the clamped
    k-NN divergence estimate between the two error-sample sets, and
    excluded_points the actual-model samples that estimate left out as
    duplicates. The closed-form counterpart is weak_bound(mse_q, var_q,
    delta2).
    """

    mse_q: float
    mse_p: float
    var_q: float
    csd_error: float
    strong_bound: float
    excluded_points: int


def _as_matrix(stack) -> np.ndarray:
    return np.atleast_2d(np.asarray(stack, dtype=complex))


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


def _divergence_from_log(log_value: float) -> float:
    """max(exp(log_value) - 1, 0), or math.inf where that exceeds float64.

    The one rule every closed-form divergence leaves log space by: a
    finite divergence too large to represent is as vacuous as an infinite
    one, so it is reported as math.inf, never as OverflowError. A
    chi-square divergence is never negative, so a log sum that rounds
    below 0 reads as 0.
    """
    try:
        return max(math.expm1(log_value), 0.0)
    except OverflowError:
        return math.inf


def _energy_form(stack_q, stack_p, snr: float):
    """(energy_q, energy_p, finite): the energy form's one per-bin law.

    e_k is bin k's response energy, the sum over receivers of |h|^2. The
    divergence at snr is finite iff every bin has 2 eq_k + 1/snr > ep_k,
    with relative margin BOUNDARY_RTOL (boundary = violated); snr =
    math.inf gives the high-SNR rule 2 eq_k > ep_k.
    """
    if snr <= 0:
        raise ValueError("snr must be > 0")
    energy_q, energy_p = (np.sum(np.abs(_as_matrix(stack)) ** 2, axis=0)
                          for stack in (stack_q, stack_p))
    if energy_q.shape != energy_p.shape:
        raise ValueError("stacks disagree on the number of frequency bins")
    lhs = 2.0 * energy_q + 1.0 / snr
    scale = np.maximum(np.abs(lhs), np.abs(energy_p))
    finite = bool(np.all(lhs - energy_p > BOUNDARY_RTOL * scale))
    return energy_q, energy_p, finite


def gamma_and_condition(stack_q, stack_p, snr: float):
    """Per-bin eigenvalue ratios and the finiteness condition.

    gamma[k, 0] = (snr * eq_k + 1) / (snr * ep_k + 1) with e the per-bin
    response energies; remaining columns are identically 1. The divergence
    is finite iff every gamma[k, 0] > 1/2, which is _energy_form's rule.
    """
    energy_q, energy_p, ok = _energy_form(stack_q, stack_p, snr)
    gamma = np.ones((energy_q.size, _as_matrix(stack_q).shape[0]))
    gamma[:, 0] = (snr * energy_q + 1.0) / (snr * energy_p + 1.0)
    return gamma, ok


def delta_squared_closed_form(stack_q, stack_p, snr: float) -> float:
    """Chi-square divergence of the two observation laws, product form.

    Evaluates prod_k (snr eq + 1)^2 / ((snr ep + 1)(snr (2 eq - ep) + 1)) - 1
    from the per-bin energies alone, as exp(compensated log sum) - 1.
    Returns math.inf when _energy_form's finiteness rule fails or the value
    exceeds float64.
    """
    energy_q, energy_p, finite = _energy_form(stack_q, stack_p, snr)
    if not finite:
        return math.inf
    terms = (
        2.0 * np.log1p(snr * energy_q)
        - np.log1p(snr * energy_p)
        - np.log1p(snr * (2.0 * energy_q - energy_p))
    )
    return _divergence_from_log(math.fsum(terms))


def csd_exact(sigma_q, sigma_p) -> float:
    """Chi-square divergence between the two zero-mean complex Gaussians.

    det(sigma_q) / (det(sigma_p) det(2I - sigma_p inv(sigma_q))) - 1 in
    log space; finite iff every generalized eigenvalue of (sigma_p, sigma_q)
    stays below 2. Returns math.inf otherwise, or where the value exceeds
    float64.
    """
    import scipy.linalg  # dense oracle only; kept out of module load

    sigma_q = _check_hermitian(sigma_q, "sigma_q")
    sigma_p = _check_hermitian(sigma_p, "sigma_p")
    logdet_q = _logdet_pd(sigma_q, "sigma_q")
    logdet_p = _logdet_pd(sigma_p, "sigma_p")
    mu = scipy.linalg.eigh(sigma_p, sigma_q, eigvals_only=True)
    margin = 2.0 - mu
    if np.any(margin <= BOUNDARY_RTOL * 2.0):
        return math.inf
    total = logdet_q - logdet_p - math.fsum(np.log(margin))
    return _divergence_from_log(total)


def snr_limits(stack_q, stack_p):
    """High-SNR divergence limit and the low-SNR probe value.

    The high-SNR limit is prod_k 1/(rho_k (2 - rho_k)) - 1 with rho_k the
    per-bin energy ratio actual/presumed; math.inf when _energy_form's rule
    fails at snr = math.inf (rho_k >= 2), rho_k = 0, or it exceeds float64.
    The low-SNR behavior is reported as the closed-form divergence at
    snr = LOW_SNR_PROBE, which must vanish as the probe does.
    """
    energy_q, energy_p, finite = _energy_form(stack_q, stack_p, math.inf)
    if np.any(energy_q <= 0):
        raise ValueError("presumed response energy must be positive per bin")
    rho = energy_p / energy_q
    if not finite or np.any(rho == 0):
        high = math.inf
    else:
        log_high = -math.fsum(np.log(rho)) - math.fsum(np.log(2.0 - rho))
        high = _divergence_from_log(log_high)
    low = delta_squared_closed_form(stack_q, stack_p, LOW_SNR_PROBE)
    return high, low


def weak_bound(mse_q: float, var_q: float, delta2: float) -> float:
    """Closed-form MSE bound: mse_q + sqrt(var_q * delta2).

    Degenerate variance dominates: var_q = 0 returns mse_q for any delta2.
    Infinite delta2 yields an explicitly vacuous math.inf bound; a negative
    or NaN delta2 raises ValueError.
    """
    if mse_q < 0 or var_q < 0:
        raise ValueError("moments must be >= 0")
    if var_q == 0.0:
        return float(mse_q)
    if math.isinf(delta2):
        return math.inf
    if not delta2 >= 0:
        raise ValueError(f"delta2 must be >= 0, got {delta2!r}")
    return float(mse_q + math.sqrt(var_q * delta2))


def strong_bound(errors_q, errors_p, k_nn: int) -> BoundEvaluation:
    """Estimator-agnostic MSE bound from two error-sample sets.

    Works purely on samples of the localization error vector under the
    presumed-model and actual-model test sets; the divergence between the
    two error laws is estimated with the k-NN module.
    """
    errors_q = np.atleast_2d(np.asarray(errors_q, dtype=float))
    errors_p = np.atleast_2d(np.asarray(errors_p, dtype=float))
    if errors_q.shape[0] < 2 or errors_p.shape[0] < 2:
        raise EstimationError("need at least 2 error samples per set")
    sq_q = np.sum(errors_q**2, axis=1)
    sq_p = np.sum(errors_p**2, axis=1)
    mse_q = float(sq_q.mean())
    mse_p = float(sq_p.mean())
    var_q = float(np.var(sq_q))
    estimate = estimate_csd(errors_p, errors_q, k_nn)
    strong = mse_q + math.sqrt(var_q * estimate.clamped)
    return BoundEvaluation(
        mse_q,
        mse_p,
        var_q,
        csd_error=estimate.clamped,
        strong_bound=strong,
        excluded_points=estimate.excluded_points,
    )


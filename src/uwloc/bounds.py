"""Covariance structure and mismatch bounds for the stacked Gaussian model.

Observations under the presumed model (design-time, subscript q) and the
actual model (test-time, subscript p) are zero-mean circular complex
Gaussians whose NL x NL covariances share one structure: a rank-one update
per frequency bin. Everything here exploits that structure: closed-form
eigenvalues, block diagonalization under the receiver/frequency interleave,
a joint diagonalizer for covariance pairs, the chi-square divergence between
the two observation laws (exact determinant form and O(NL) product form),
its SNR limits, and the two MSE-degradation bounds built from it.

Infinite divergence is an explicit result value (math.inf), not an
exception, so sweep curves can carry vacuous-bound regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .csd import estimate_csd
from .errors import EstimationError, JointDiagonalizationError, StructureError
from .signal import FrequencyResponseStack

# Relative margin at which a boundary case counts as violated (divergence
# infinite) rather than finite; keeps near-singular denominators out.
BOUNDARY_RTOL = 1e-12


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
class JointDiagonalization:
    """Eigenbasis of sigma_q @ inv(sigma_p) with joint-diagonality diagnostics.

    basis columns are eigenvectors of the ratio matrix; both covariances are
    diagonal under inv(basis) sigma inv(basis)^H. offdiag_q / offdiag_p are
    the relative off-diagonal Frobenius masses left by that transform;
    ratios_distinct records whether the eigenvalue-distinctness condition
    held (it fails harmlessly for, e.g., an identical pair).
    """

    basis: np.ndarray
    ratios: np.ndarray
    offdiag_q: float
    offdiag_p: float
    ratios_distinct: bool


@dataclass
class MismatchReport:
    """Everything the closed-form analysis says about one model pair.

    lambda_q / lambda_p hold the NL covariance eigenvalues in frequency-major
    order (bin k contributes entries k*L..(k+1)*L-1). gamma is the (N, L)
    per-bin eigenvalue ratio; columns beyond the first are identically 1.
    delta2_closed and csd_exact may be math.inf (vacuous-bound region).
    """

    lambda_q: np.ndarray
    lambda_p: np.ndarray
    gamma: np.ndarray
    condition_ok: bool
    delta2_closed: float
    csd_exact: float
    rho: np.ndarray
    high_snr_limit: float
    low_snr_limit: float


@dataclass
class BoundEvaluation:
    """Empirical bound assembly from error samples.

    strong_bound = mse_q + sqrt(var_q * csd_error) with csd_error the clamped
    k-NN divergence estimate between the two error-sample sets. weak_bound
    stays None until a closed-form divergence is attached via with_weak.
    """

    mse_q: float
    mse_p: float
    var_q: float
    csd_error: float
    strong_bound: float
    weak_bound: float | None = None
    csd_detail: object = None

    def with_weak(self, delta2: float) -> "BoundEvaluation":
        return BoundEvaluation(
            self.mse_q,
            self.mse_p,
            self.var_q,
            self.csd_error,
            self.strong_bound,
            weak_bound=weak_bound(self.mse_q, self.var_q, delta2),
            csd_detail=self.csd_detail,
        )


def _as_matrix(stack) -> np.ndarray:
    if isinstance(stack, FrequencyResponseStack):
        return stack.h
    return np.atleast_2d(np.asarray(stack, dtype=complex))


def _bin_energies(stack) -> np.ndarray:
    """Per-frequency response energies: sum over receivers of |h|^2, (N,)."""
    h = _as_matrix(stack)
    return np.sum(np.abs(h) ** 2, axis=0)


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


def block_diagonalize(
    source,
    *,
    signal_power: float | None = None,
    noise_power: float | None = None,
    l_count: int | None = None,
    rtol: float = 1e-10,
) -> BlockForm:
    """Per-frequency blocks of a covariance under the interleave permutation.

    Accepts either a FrequencyResponseStack (with both powers, building the
    blocks directly) or a dense receiver-major covariance (with l_count,
    verifying that nothing lives outside the permuted block pattern).
    """
    if isinstance(source, FrequencyResponseStack) or (
        isinstance(source, np.ndarray) and source.ndim == 2 and signal_power is not None
    ):
        h = _as_matrix(source)
        if signal_power is None or noise_power is None:
            raise ValueError("stack input needs signal_power and noise_power")
        l_count, n_bins = h.shape
        cols = h.T  # (N, L)
        blocks = signal_power * cols[:, :, None] * np.conj(cols[:, None, :])
        blocks += noise_power * np.eye(l_count)[None, :, :]
        perm = interleave_permutation(l_count, n_bins)
        return BlockForm(blocks, perm, l_count, n_bins)

    cov = np.asarray(source, dtype=complex)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise StructureError("covariance must be square")
    if l_count is None:
        raise StructureError("dense input needs l_count")
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
    if leak > rtol * scale:
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


def joint_diagonalizer(
    sigma_q,
    sigma_p,
    *,
    distinct_rtol: float = 1e-8,
    offdiag_tol: float = 1e-6,
) -> JointDiagonalization:
    """Eigenbasis of sigma_q @ inv(sigma_p), with joint-diagonality checks.

    The returned basis U holds eigenvectors of omega = sigma_q inv(sigma_p)
    as columns and diagonalizes both inputs by the inverse congruence
    inv(U) sigma inv(U)^H. It is built from the definite-pencil form
    W^H sigma_p W = I, W^H sigma_q W = diag(ratios), U = sigma_p W, which
    stays valid even when ratios repeat (Lemma-style distinctness then fails
    only for the raw eig construction); ratios_distinct records whether the
    pairwise-distinct condition held. If the transform still leaves
    off-diagonal mass above offdiag_tol, a JointDiagonalizationError carries
    the diagnostics instead of returning a misleading basis.
    """
    sigma_q = _check_hermitian(sigma_q, "sigma_q")
    sigma_p = _check_hermitian(sigma_p, "sigma_p")
    try:
        ratios, pencil = scipy.linalg.eigh(sigma_q, sigma_p)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ValueError("sigma_p is not positive definite") from exc
    basis = sigma_p @ pencil

    def offdiag_mass(matrix):
        transformed = pencil.conj().T @ matrix @ pencil
        diag = np.diag(np.diag(transformed))
        denom = max(np.linalg.norm(transformed), 1e-300)
        return float(np.linalg.norm(transformed - diag) / denom)

    off_q = offdiag_mass(sigma_q)
    off_p = offdiag_mass(sigma_p)
    scale = float(np.max(np.abs(ratios))) if ratios.size else 1.0
    gap = np.abs(ratios[:, None] - np.conj(ratios)[None, :]).astype(float)
    np.fill_diagonal(gap, np.inf)
    distinct = bool(gap.min() > distinct_rtol * max(scale, 1e-300))
    result = JointDiagonalization(basis, ratios, off_q, off_p, distinct)
    if max(off_q, off_p) > offdiag_tol:
        raise JointDiagonalizationError(
            "pencil basis does not jointly diagonalize the pair "
            f"(off-diagonal mass q={off_q:.3e}, p={off_p:.3e})",
            diagnostics=result,
        )
    return result


def _condition_margin_ok(energy_q, energy_p, snr, rtol):
    lhs = 2.0 * energy_q + 1.0 / snr
    rhs = energy_p
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    return np.all(lhs - rhs > rtol * scale)


def gamma_and_condition(stack_q, stack_p, snr: float, *, rtol: float = BOUNDARY_RTOL):
    """Per-bin eigenvalue ratios and the finiteness condition.

    gamma[k, 0] = (snr * eq_k + 1) / (snr * ep_k + 1) with e the per-bin
    response energies; remaining columns are identically 1. The divergence
    is finite iff every gamma[k, 0] > 1/2, checked as
    2 eq_k + 1/snr > ep_k with relative margin rtol (boundary = violated).
    """
    if snr <= 0:
        raise ValueError("snr must be > 0")
    energy_q = _bin_energies(stack_q)
    energy_p = _bin_energies(stack_p)
    l_count = _as_matrix(stack_q).shape[0]
    gamma = np.ones((energy_q.size, l_count))
    gamma[:, 0] = (snr * energy_q + 1.0) / (snr * energy_p + 1.0)
    ok = bool(_condition_margin_ok(energy_q, energy_p, snr, rtol))
    return gamma, ok


def delta_squared_closed_form(
    stack_q, stack_p, snr: float, *, rtol: float = BOUNDARY_RTOL
) -> float:
    """Chi-square divergence of the two observation laws, product form.

    Evaluates prod_k (snr eq + 1)^2 / ((snr ep + 1)(snr (2 eq - ep) + 1)) - 1
    from the per-bin energies alone, as exp(compensated log sum) - 1.
    Returns math.inf when the finiteness condition fails.
    """
    if snr <= 0:
        raise ValueError("snr must be > 0")
    energy_q = _bin_energies(stack_q)
    energy_p = _bin_energies(stack_p)
    if energy_q.shape != energy_p.shape:
        raise ValueError("stacks disagree on the number of frequency bins")
    if not _condition_margin_ok(energy_q, energy_p, snr, rtol):
        return math.inf
    terms = (
        2.0 * np.log1p(snr * energy_q)
        - np.log1p(snr * energy_p)
        - np.log1p(snr * (2.0 * energy_q - energy_p))
    )
    return math.expm1(math.fsum(terms))


def csd_exact(sigma_q, sigma_p, *, rtol: float = BOUNDARY_RTOL) -> float:
    """Chi-square divergence between the two zero-mean complex Gaussians.

    det(sigma_q) / (det(sigma_p) det(2I - sigma_p inv(sigma_q))) - 1 in
    log space; finite iff every generalized eigenvalue of (sigma_p, sigma_q)
    stays below 2. Returns math.inf otherwise.
    """
    sigma_q = _check_hermitian(sigma_q, "sigma_q")
    sigma_p = _check_hermitian(sigma_p, "sigma_p")
    logdet_q = _logdet_pd(sigma_q, "sigma_q")
    logdet_p = _logdet_pd(sigma_p, "sigma_p")
    mu = scipy.linalg.eigh(sigma_p, sigma_q, eigvals_only=True)
    margin = 2.0 - mu
    if np.any(margin <= rtol * 2.0):
        return math.inf
    total = logdet_q - logdet_p - math.fsum(np.log(margin))
    return math.expm1(total)


def snr_limits(stack_q, stack_p, *, low_snr_probe: float = 1e-6):
    """High-SNR divergence limit and the low-SNR probe value.

    The high-SNR limit is prod_k 1/(rho_k (2 - rho_k)) - 1 with rho_k the
    per-bin energy ratio actual/presumed; math.inf when any rho_k >= 2.
    The low-SNR behavior is reported as the closed-form divergence at
    snr = low_snr_probe, which must vanish as the probe does.
    """
    energy_q = _bin_energies(stack_q)
    energy_p = _bin_energies(stack_p)
    if np.any(energy_q <= 0):
        raise ValueError("presumed response energy must be positive per bin")
    rho = energy_p / energy_q
    margin = 2.0 - rho
    if np.any(margin <= BOUNDARY_RTOL * 2.0) or np.any(rho <= 0):
        high = math.inf
    else:
        high = math.expm1(-math.fsum(np.log(rho)) - math.fsum(np.log(margin)))
    low = delta_squared_closed_form(stack_q, stack_p, low_snr_probe)
    return high, low


def weak_bound(mse_q: float, var_q: float, delta2: float) -> float:
    """Closed-form MSE bound: mse_q + sqrt(var_q * delta2).

    Degenerate variance dominates: var_q = 0 returns mse_q for any delta2.
    Infinite delta2 yields an explicitly vacuous math.inf bound.
    """
    if mse_q < 0 or var_q < 0:
        raise ValueError("moments must be >= 0")
    if var_q == 0.0:
        return float(mse_q)
    if math.isinf(delta2):
        return math.inf
    if delta2 < 0:
        raise ValueError("delta2 must be >= 0")
    return float(mse_q + math.sqrt(var_q * delta2))


def strong_bound(errors_q, errors_p, k_nn: int = 5) -> BoundEvaluation:
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
        csd_detail=estimate,
    )


def mismatch_report(
    stack_q, stack_p, signal_power: float, noise_power: float
) -> MismatchReport:
    """Full closed-form analysis of a presumed/actual model pair."""
    snr = signal_power / noise_power
    h_q = _as_matrix(stack_q)
    h_p = _as_matrix(stack_p)
    l_count, n_bins = h_q.shape
    energy_q = _bin_energies(h_q)
    energy_p = _bin_energies(h_p)
    lam_q = np.tile(float(noise_power), (n_bins, l_count))
    lam_p = lam_q.copy()
    lam_q[:, 0] += signal_power * energy_q
    lam_p[:, 0] += signal_power * energy_p
    gamma, condition_ok = gamma_and_condition(h_q, h_p, snr)
    delta2 = delta_squared_closed_form(h_q, h_p, snr)
    exact = csd_exact(
        build_covariance(h_q, signal_power, noise_power),
        build_covariance(h_p, signal_power, noise_power),
    )
    with np.errstate(divide="ignore"):
        rho = np.where(energy_q > 0, energy_p / np.where(energy_q > 0, energy_q, 1.0), np.inf)
    if np.any(energy_q <= 0):
        high, low = math.inf, delta_squared_closed_form(h_q, h_p, 1e-6)
    else:
        high, low = snr_limits(h_q, h_p)
    return MismatchReport(
        lambda_q=lam_q.reshape(-1),
        lambda_p=lam_p.reshape(-1),
        gamma=gamma,
        condition_ok=condition_ok,
        delta2_closed=delta2,
        csd_exact=exact,
        rho=rho,
        high_snr_limit=high,
        low_snr_limit=low,
    )

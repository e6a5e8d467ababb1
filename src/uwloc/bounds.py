"""Mismatch divergence and bounds for the stacked Gaussian model.

Observations under the presumed model (design-time, subscript q) and the
actual model (test-time, subscript p) are zero-mean circular complex
Gaussians whose NL x NL covariances share one structure: a rank-one update
per frequency bin. The chi-square divergence between the two observation
laws is computed here from the per-bin response energies alone, in O(NL)
without forming a covariance (the product form, exact where each bin's
presumed and actual responses are parallel), and the two MSE-degradation
bounds are built from it. The dense covariance forms it is checked against
are test references (tests/oracles.py).

_energy_form holds the per-bin energies and finiteness rule that
gamma_and_condition and delta_squared_closed_form share.

Infinite divergence is an explicit result value (math.inf), not an
exception, so sweep curves can carry vacuous-bound regions. A finite
divergence too large for float64 is reported as math.inf as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csd import estimate_csd
from .errors import EstimationError

# Relative margin at which a boundary case counts as violated (divergence
# infinite) rather than finite; keeps near-singular denominators out.
BOUNDARY_RTOL = 1e-12


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


def _divergence_from_log(log_value: float) -> float:
    """max(exp(log_value) - 1, 0), or math.inf where that exceeds float64.

    The rule the closed-form divergence leaves log space by: a finite
    divergence too large to represent is as vacuous as an infinite
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


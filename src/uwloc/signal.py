"""Frequency-domain observation model built on ray arrival sets.

The model works on an N-point angular frequency grid w_k = 2*pi*(k-1)/(N*T_s).
Each receiver sees x_l[k] = s[k] * h_l[k] + v_l[k], where h_l[k] is the channel
frequency response synthesized from (delay, gain) arrivals, s is the source
spectrum, and v is circular complex Gaussian noise. Fractional delays are
exact here; nothing is ever sampled in time. This module builds the
responses h and stores observations; uwloc.harness draws s and v.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import ConfigError


@dataclass
class FrequencyResponseStack:
    """Channel frequency responses for all receivers: h[l, k], shape (L, N)."""

    h: np.ndarray

    def __post_init__(self):
        self.h = np.atleast_2d(np.asarray(self.h, dtype=complex))

    @property
    def receiver_count(self) -> int:
        return self.h.shape[0]

    @property
    def bin_count(self) -> int:
        return self.h.shape[1]


def angular_frequencies(n_bins: int, sample_period: float) -> np.ndarray:
    """Angular frequency grid: w_k = 2*pi*(k-1)/(N*T_s), k = 1..N."""
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    if sample_period <= 0:
        raise ConfigError("sample_period must be > 0")
    return 2.0 * np.pi * np.arange(n_bins) / (n_bins * sample_period)


def steering_matrix(delays, omegas) -> np.ndarray:
    """Unit-modulus steering matrix with entries exp(-j w_k tau_r).

    Row k collects the conjugated phases of every arrival at frequency w_k,
    so that steering_matrix @ gains gives the frequency response.
    """
    delays = np.asarray(delays, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    return np.exp(-1j * np.outer(omegas, delays))


def frequency_response(steering, gains) -> np.ndarray:
    """Per-bin response h[k] = sum_r gains[r] * exp(-j w_k tau_r)."""
    return np.asarray(steering) @ np.asarray(gains, dtype=complex)


def response_stack(
    env: channel.Environment,
    receivers,
    position,
    n_bins: int,
    sample_period: float,
    *,
    min_distance: float = channel.DEFAULT_MIN_DISTANCE,
) -> FrequencyResponseStack:
    """Build the (L, N) response stack for one source position."""
    stacks = response_stack_batch(
        env,
        receivers,
        np.asarray(position, dtype=float)[None, :],
        n_bins,
        sample_period,
        min_distance=min_distance,
    )
    return FrequencyResponseStack(stacks[0])


def response_stack_batch(
    env: channel.Environment,
    receivers,
    positions,
    n_bins: int,
    sample_period: float,
    *,
    min_distance: float = channel.DEFAULT_MIN_DISTANCE,
    check_distance: bool = True,
    chunk: int = 4096,
) -> np.ndarray:
    """Response stacks for many positions; returns (M, L, N) complex.

    Work is chunked so the (chunk, L, R, N) phase tensor stays small.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    omegas = angular_frequencies(n_bins, sample_period)
    total = positions.shape[0]
    recv = np.atleast_2d(np.asarray(receivers, dtype=float))
    out = np.empty((total, recv.shape[0], n_bins), dtype=complex)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        delays, gains = channel.arrivals_batch(
            env,
            recv,
            positions[start:stop],
            min_distance=min_distance,
            check_distance=check_distance,
        )
        phases = np.exp(
            -1j * delays[..., None] * omegas[None, None, None, :]
        )  # (m, L, R, N)
        out[start:stop] = np.einsum("mlr,mlrn->mln", gains, phases)
    return out


_DUMP_MAGIC = "UWOBS1"


def save_observations(path, values: np.ndarray, seed, fmt: str = "csv") -> None:
    """Write a (T, L, N) block of observations as a flat dump.

    Layout per observation: row-major over (receiver, bin), each complex
    entry stored as interleaved re, im. The header records L, N, count, and
    the generating seed. fmt is "csv" (text rows) or "bin" (float64
    little-endian payload after a one-line text header).
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 3:
        raise ConfigError("expected observations shaped (count, L, N)")
    count, l_count, n_bins = values.shape
    flat = values.reshape(count, l_count * n_bins)
    interleaved = np.empty((count, 2 * l_count * n_bins), dtype=np.float64)
    interleaved[:, 0::2] = flat.real
    interleaved[:, 1::2] = flat.imag
    header = f"{_DUMP_MAGIC} L={l_count} N={n_bins} count={count} seed={seed}\n"
    if fmt == "csv":
        with open(path, "w") as handle:
            handle.write("# " + header)
            for row in interleaved:
                handle.write(",".join(repr(float(v)) for v in row))
                handle.write("\n")
    elif fmt == "bin":
        with open(path, "wb") as handle:
            handle.write(header.encode("ascii"))
            handle.write(interleaved.astype("<f8").tobytes())
    else:
        raise ConfigError(f"unknown observation dump format: {fmt}")


def load_observations(path):
    """Read an observation dump; returns (values (T, L, N), header dict)."""
    with open(path, "rb") as handle:
        first = handle.readline().decode("ascii")
        payload = handle.read()
    text = first.lstrip("# ").strip()
    parts = text.split()
    if not parts or parts[0] != _DUMP_MAGIC:
        raise ConfigError("not an observation dump")
    meta = dict(item.split("=", 1) for item in parts[1:])
    l_count = int(meta["L"])
    n_bins = int(meta["N"])
    count = int(meta["count"])
    width = 2 * l_count * n_bins
    try:
        if first.startswith("#"):
            rows = np.loadtxt(
                io.StringIO(payload.decode("ascii")), delimiter=",", ndmin=2
            )
        else:
            rows = np.frombuffer(payload, dtype="<f8").reshape(count, width)
    except ValueError as exc:
        raise ConfigError(f"observation dump payload is corrupt: {exc}") from exc
    if rows.shape != (count, width):
        raise ConfigError("observation dump payload has the wrong shape")
    values = rows[:, 0::2] + 1j * rows[:, 1::2]
    return values.reshape(count, l_count, n_bins), meta

"""Frequency-domain observation model built on ray arrival sets.

The model works on an N-point angular frequency grid w_k = 2*pi*(k-1)/(N*T_s).
Each receiver sees x_l[k] = s[k] * h_l[k] + v_l[k], where h_l[k] is the channel
frequency response synthesized from (delay, gain) arrivals, s is the source
spectrum, and v is circular complex Gaussian noise. Fractional delays are
exact here; nothing is ever sampled in time. This module builds the
responses h and stores observations; uwloc.harness draws s and v.
"""

from __future__ import annotations

import os

import numpy as np

from . import channel
from .errors import ConfigError


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
) -> np.ndarray:
    """The (L, N) complex response stack for one source position."""
    stacks = response_stack_batch(
        env,
        receivers,
        np.asarray(position, dtype=float)[None, :],
        n_bins,
        sample_period,
    )
    return stacks[0]


# Positions per stack-building chunk, bounding the phase tensor.
_STACK_CHUNK = 256


def response_stack_batch(
    env: channel.Environment,
    receivers,
    positions,
    n_bins: int,
    sample_period: float,
) -> np.ndarray:
    """Response stacks for many positions; returns (M, L, N) complex.

    The phases exp(-j w tau) are written as cos and -sin straight into one
    complex buffer, with no complex argument tensor. Work is chunked over
    positions, so beyond the (M, L, N) output the transient is one chunk's
    float64 angle and complex128 phase tensors, _STACK_CHUNK*L*R*N*24 bytes
    for R arrivals per path (about 9 MB at L = 4, R = 6 and N = 64), plus
    its arrival tables, whatever M is. Each position's stack is the same
    for any chunk size.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    omegas = angular_frequencies(n_bins, sample_period)
    total = positions.shape[0]
    recv = np.atleast_2d(np.asarray(receivers, dtype=float))
    out = np.empty((total, recv.shape[0], n_bins), dtype=complex)
    for start in range(0, total, _STACK_CHUNK):
        stop = min(start + _STACK_CHUNK, total)
        delays, gains = channel.arrivals_batch(env, recv, positions[start:stop])
        angle = delays[..., None] * omegas  # (m, L, R, N)
        phases = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=phases.real)
        np.sin(angle, out=phases.imag)
        np.negative(phases.imag, out=phases.imag)
        out[start:stop] = np.einsum("mlr,mlrn->mln", gains, phases)
    return out


_DUMP_MAGIC = "UWOBS1"


def save_observations(path, values: np.ndarray, seed) -> None:
    """Write a (T, L, N) block of observations as a binary dump.

    A one-line ASCII header "UWOBS1 L=<L> N=<N> count=<T> seed=<seed>" is
    followed by the raw little-endian complex128 ("<c16") payload:
    row-major over (observation, receiver, bin), each entry re then im as
    float64. A complex128 block on a little-endian host is written from its
    own buffer, with no copy.
    """
    block = np.ascontiguousarray(values, dtype="<c16")
    if block.ndim != 3 or 0 in block.shape:
        raise ConfigError("expected a non-empty observation block (count, L, N)")
    count, l_count, n_bins = block.shape
    header = f"{_DUMP_MAGIC} L={l_count} N={n_bins} count={count} seed={seed}\n"
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(block.data)


def load_observations(path):
    """Read an observation dump; returns (values (T, L, N), header dict).

    The payload is read straight into the returned "<c16" array, so every
    bit written comes back. Anything but a well-formed dump (another file,
    a malformed header, a corrupt, misshapen or non-finite (NaN or
    infinite) payload) raises ConfigError.
    """
    with open(path, "rb") as handle:
        first = handle.readline()
        parts = first.decode("ascii", errors="replace").split()
        if not parts or parts[0] != _DUMP_MAGIC:
            raise ConfigError("not an observation dump")
        try:
            meta = dict(item.split("=", 1) for item in parts[1:])
            l_count, n_bins, count = (int(meta[key]) for key in ("L", "N", "count"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(
                f"observation dump header is malformed: {first!r}"
            ) from exc
        if min(l_count, n_bins, count) < 1:
            raise ConfigError(f"observation dump header is malformed: {first!r}")
        # The size is checked before the header's count sizes an allocation.
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        expected = 16 * count * l_count * n_bins
        if size == expected:
            values = np.empty((count, l_count, n_bins), dtype="<c16")
            size = handle.readinto(values.view(np.uint8))
        if size != expected:
            raise ConfigError(
                f"observation dump payload is corrupt: {size} bytes, "
                f"the header needs {expected}"
            )
    finite = np.isfinite(values).reshape(count, -1).all(axis=1)
    if not finite.all():
        raise ConfigError(
            f"observation dump payload is not finite in observation "
            f"{int(np.argmin(finite))}"
        )
    return values, meta

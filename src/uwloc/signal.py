"""Frequency-domain observation model built on ray arrival sets.

The model works on an N-point angular frequency grid w_k = 2*pi*(k-1)/(N*T_s).
Each receiver sees x_l[k] = s[k] * h_l[k] + v_l[k], where h_l[k] is the channel
frequency response synthesized from (delay, gain) arrivals, s is the source
spectrum, and v is circular complex Gaussian noise. Fractional delays are
exact here; nothing is ever sampled in time. Each arrival's phases come
from a factored table of F + N/F entries, F the smallest divisor of N at or
above sqrt(N) (see response_stack_batch). This module builds the
responses h and stores observations; uwloc.harness draws s and v.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import channel
from .errors import ConfigError


def core_count() -> int:
    """The number of CPUs this process may run on, at least 1.

    That is its CPU affinity set where the OS has one (Linux), else
    os.cpu_count() (macOS has no sched_getaffinity).
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def angular_frequencies(n_bins: int, sample_period: float) -> np.ndarray:
    """Angular frequency grid: w_k = 2*pi*(k-1)/(N*T_s), k = 1..N."""
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    if sample_period <= 0:
        raise ConfigError("sample_period must be > 0")
    return 2.0 * np.pi * np.arange(n_bins) / (n_bins * sample_period)


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


# Positions per stack-building chunk, bounding the phase tables.
_STACK_CHUNK = 256


def _fine_count(n_bins: int) -> int:
    """F, the smallest divisor of n_bins at or above its square root."""
    return next(f for f in range(math.isqrt(n_bins - 1) + 1, n_bins + 1)
                if n_bins % f == 0)


def _factored_response(delays, gains, omegas, angle, phases, out) -> None:
    """out[..., c, f] = sum_r gains[..., r] * exp(-j w_k delays[..., r]), k = c*F + f.

    delays and gains hold (..., R) arrivals and omegas the N-bin grid;
    angle and phases are (..., R, F + N/F) float64 and complex128 scratch
    and out is (..., N/F, F), for F = _fine_count(N).
    """
    fine = _fine_count(omegas.size)
    np.multiply(delays[..., None], np.concatenate([omegas[:fine], omegas[::fine]]),
                out=angle)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    coarse = phases[..., fine:]
    coarse *= gains[..., None]
    np.matmul(coarse.swapaxes(-1, -2), phases[..., :fine], out=out)


def response_stack_batch(
    env: channel.Environment,
    receivers,
    positions,
    n_bins: int,
    sample_period: float,
) -> np.ndarray:
    """Response stacks for many positions; returns (M, L, N) complex.

    Bin k (from 0) is written k = c*F + f, F = _fine_count(N), so the stack
    of one position and receiver is the (N/F, F) matrix product
    sum_r (g_r exp(-j w_cF tau_r)) exp(-j w_f tau_r), written straight into
    the output rows: each arrival takes cos and -sin of only F fine and
    N/F coarse angles (8 + 8 at N = 64, against 64; a prime N has F = N,
    the direct sum). Work is chunked over positions, and each chunk's rows
    are split into one block per thread, min(core_count(), chunk) threads
    made for this call. The calling thread computes each chunk's arrivals,
    the next chunk's while the threads work. A thread fills a block's
    (rows, L, R, F + N/F) angle and phase tables in a buffer slot of its
    own and multiplies them into those rows of the output; it takes the
    next block, of this chunk or the next, as soon as it is free. The
    slots are allocated here once and together hold one chunk's float64
    angle and complex128 phase tables, so beyond the (M, L, N) output the
    transient is _STACK_CHUNK*L*R*(F + N/F)*24 bytes for R arrivals per
    path (about 2.4 MB at L = 4, R = 6 and N = 64, against 9 MB for N-wide
    tables), plus three chunks' arrival tables, whatever M and the thread
    count are. Each position's stack is the same, to the bit, for any
    chunk size and thread count; a failure in a thread is raised here,
    and no thread outlives the call.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    omegas = angular_frequencies(n_bins, sample_period)
    fine = _fine_count(n_bins)
    total = positions.shape[0]
    recv = np.atleast_2d(np.asarray(receivers, dtype=float))
    out = np.empty((total, recv.shape[0], n_bins // fine, fine), dtype=complex)
    if total == 0:
        return out.reshape(total, -1, n_bins)

    def arrivals(start):
        return channel.arrivals_batch(env, recv, positions[start:start + _STACK_CHUNK])

    delays, gains = arrivals(0)
    threads = min(core_count(), delays.shape[0])
    rows = -(-delays.shape[0] // threads)
    angle = np.empty((threads, rows, *delays.shape[1:], fine + n_bins // fine))
    phases = np.empty(angle.shape, dtype=complex)
    # At most `threads` blocks run at once, so a slot is always free.
    free = queue.SimpleQueue()
    for slot in range(threads):
        free.put(slot)

    def fill(delays, gains, start):
        """The stacks of positions start + (0 .. len(delays)) in a free slot."""
        slot = free.get()
        try:
            count = delays.shape[0]
            _factored_response(delays, gains, omegas, angle[slot, :count],
                               phases[slot, :count], out[start:start + count])
        finally:
            free.put(slot)

    with ThreadPoolExecutor(threads) as pool:
        previous = []
        for start in range(0, total, _STACK_CHUNK):
            current = [
                pool.submit(fill, delays[lo:lo + rows], gains[lo:lo + rows], start + lo)
                for lo in range(0, delays.shape[0], rows)
            ]
            if start + _STACK_CHUNK < total:
                delays, gains = arrivals(start + _STACK_CHUNK)
            # Two chunks in flight keep every thread busy; waiting for the
            # older one bounds the arrival tables held.
            for future in previous:
                future.result()
            previous = current
        for future in previous:
            future.result()
    return out.reshape(total, -1, n_bins)


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

"""Stratified ocean waveguide environments and image-method multipath channels.

Coordinates are (x, y, z) in meters with z measured downward: z = 0 is the sea
surface and z = water_depth is the bottom. The sound speed varies with depth
only, as a piecewise-linear profile. A channel between a source position and a
receiver is a finite set of ray arrivals (delay in seconds, complex gain),
built by mirroring the source across the two boundaries and keeping the
shortest-delay arrivals.

Delays follow the straight-ray stratified model: the travel time of a path is
the line integral of slowness 1/c(z) along the straight segment. Reflected
paths integrate over the mirror-extended profile, which equals the sum of
in-column integrals over the folded sub-segments.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, finite, finite_array, items, whole

DEFAULT_MIN_DISTANCE = 10.0

# Vertical offsets below this (meters) are treated as horizontal paths.
_FLAT_TOLERANCE = 1e-9


@dataclass
class Environment:
    """Waveguide description: depth, sound-speed profile, boundary losses.

    ssp is an (M, 2) array of (depth, sound_speed) breakpoints, strictly
    increasing in depth and spanning [0, water_depth]. Reflection
    coefficients are per-bounce complex gains with magnitude <= 1, given as
    a number or as [re, im]. ray_budget is the number of modeled arrivals
    per receiver. Construction checks every value: a wrong type or a
    non-finite number raises ConfigError at once, and one ConfigError
    lists every other broken invariant.
    """

    water_depth: float
    ssp: np.ndarray
    surface_reflection: complex
    bottom_reflection: complex
    absorption_db_per_m: float
    ray_budget: int

    def __post_init__(self):
        self.water_depth = finite(self.water_depth, "water_depth")
        self.absorption_db_per_m = finite(self.absorption_db_per_m, "absorption_db_per_m")
        self.ray_budget = whole(self.ray_budget, "ray_budget")
        self.ssp = finite_array(self.ssp, "ssp depths and speeds")
        issues = []
        for name in ("surface_reflection", "bottom_reflection"):
            value = getattr(self, name)
            if isinstance(value, numbers.Number) and not isinstance(value, bool):
                value = (value.real, value.imag)
            if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 2:
                raise ConfigError(f"'{name}' must be a number or [re, im], got {value!r}")
            setattr(self, name, complex(*items(value, finite, name)))
            if abs(getattr(self, name)) > 1 + 1e-12:
                issues.append(f"{name.replace('_', ' ')} magnitude must be <= 1")
        depth = self.water_depth
        if not depth > 0:
            issues.append("water depth must be > 0")
        if self.ssp.ndim != 2 or self.ssp.shape[1] != 2 or self.ssp.shape[0] < 2:
            issues.append("ssp must be an (M, 2) array of (depth, speed) with M >= 2")
        else:
            depths, speeds = self.ssp.T
            if np.any(np.diff(depths) <= 0):
                issues.append("ssp breakpoints not increasing")
            tol = 1e-9 * max(1.0, abs(depth))
            if abs(depths[0]) > tol or (depth > 0 and abs(depths[-1] - depth) > tol):
                issues.append("ssp breakpoints must span [0, water_depth]")
            if np.any(speeds <= 0):
                issues.append("sound speeds must be > 0")
        if self.absorption_db_per_m < 0:
            issues.append("absorption must be >= 0")
        if self.ray_budget < 1:
            issues.append("ray budget must be >= 1")
        if issues:
            raise ConfigError("invalid environment: " + "; ".join(issues))


@dataclass
class Geometry:
    """Receiver array and axis-aligned volume of interest.

    receivers is (L, 3) with L >= 1; volume is (2, 3) holding the min and
    max corners, min <= max; construction raises ConfigError on any other
    shape or a non-finite coordinate. The source position is not part of
    the geometry: the harness takes it from the experiment config or draws
    it. The far-field model holds only at least DEFAULT_MIN_DISTANCE from
    every receiver, so the experiment config checks the receiver depths,
    the volume, the grid box and an explicit source against the water
    column when it is built (box_issues), and nothing downstream checks
    again.
    """

    receivers: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        self.receivers = np.atleast_2d(finite_array(self.receivers, "receiver coordinates"))
        self.volume = finite_array(self.volume, "volume coordinates")
        if self.receivers.ndim != 2 or self.receivers.shape[1] != 3 or self.receivers.shape[0] < 1:
            raise ConfigError("receivers must be an (L, 3) array with L >= 1")
        if self.volume.shape != (2, 3):
            raise ConfigError("volume must be a (2, 3) array of min/max corners")
        if np.any(self.volume[0] > self.volume[1]):
            raise ConfigError("volume min corner exceeds max corner")


def box_distance(receivers, box) -> np.ndarray:
    """(L,) distance from each receiver r to the box [lo, hi], |r - clip(r, lo, hi)|.

    A point is the box with lo = hi.
    """
    lo, hi = box
    return np.linalg.norm(receivers - np.clip(receivers, lo, hi), axis=1)


def box_issues(boxes: dict, receivers, water_depth: float) -> list[str]:
    """The far-field rules that the named boxes [lo, hi] break, one message each.

    Each box, with finite corners, must lie in the water column
    [0, water_depth] and keep DEFAULT_MIN_DISTANCE from every receiver, so
    that every position in it has a finite, meaningful 1/d gain. An empty
    list means all keep them.
    """
    issues = []
    for label, (lo, hi) in boxes.items():
        if lo[2] < 0 or hi[2] > water_depth:
            issues.append(f"{label} depths must lie in [0, water_depth]")
        gaps = box_distance(receivers, (lo, hi))
        nearest = int(np.argmin(gaps))
        if gaps[nearest] < DEFAULT_MIN_DISTANCE:
            issues.append(
                f"{label} is {gaps[nearest]:.3g} m from the receiver at "
                f"{receivers[nearest].tolist()}, below the far-field "
                f"minimum {DEFAULT_MIN_DISTANCE:g} m"
            )
    return issues


class _SlownessTable:
    """Closed-form slowness integrals over a piecewise-linear profile.

    Precomputes the antiderivative S(z) = integral of 1/c from 0 to z at the
    breakpoints. Within a segment where c(z) = c0 + g (z - z0), the integral
    is log1p(g dz / c0)/g, falling back to dz/c0 when g = 0. The extended
    antiderivative mirrors the profile across both boundaries, which is what
    an unfolded image-source path traverses.
    """

    def __init__(self, ssp: np.ndarray, water_depth: float):
        ssp = np.asarray(ssp, dtype=float)
        self.z = ssp[:, 0]
        self.c = ssp[:, 1]
        self.depth = float(water_depth)
        dz = np.diff(self.z)
        dc = np.diff(self.c)
        self.grad = dc / dz
        seg = np.where(
            self.grad == 0.0,
            dz / self.c[:-1],
            np.log1p(np.divide(self.grad * dz, self.c[:-1])) / np.where(self.grad == 0.0, 1.0, self.grad),
        )
        self.cum = np.concatenate(([0.0], np.cumsum(seg)))
        self.full = float(self.cum[-1])
        self.c_max = float(self.c.max())

    def speed(self, z):
        return np.interp(z, self.z, self.c)

    def speed_extended(self, z):
        r = np.abs(z) % (2.0 * self.depth)
        r = np.where(r <= self.depth, r, 2.0 * self.depth - r)
        return self.speed(r)

    def integral(self, z):
        """S(z) for z inside [0, water_depth]."""
        z = np.asarray(z, dtype=float)
        idx = np.clip(np.searchsorted(self.z, z, side="right") - 1, 0, len(self.z) - 2)
        dz = z - self.z[idx]
        g = self.grad[idx]
        c0 = self.c[idx]
        flat = dz / c0
        safe_g = np.where(g == 0.0, 1.0, g)
        sloped = np.log1p(safe_g * dz / c0) / safe_g
        return self.cum[idx] + np.where(g == 0.0, flat, sloped)

    def integral_extended(self, z):
        """S(z) over the mirror-extended profile, any real z."""
        z = np.asarray(z, dtype=float)
        a = np.abs(z)
        period = 2.0 * self.depth
        q = np.floor(a / period)
        r = a - period * q
        folded = np.where(r <= self.depth, r, period - r)
        part = self.integral(folded)
        part = np.where(r <= self.depth, part, 2.0 * self.full - part)
        return np.sign(z) * (2.0 * self.full * q + part)

    def delay(self, dist, z0, z1):
        """Straight-ray travel time over a path of length dist from depth z0
        to depth z1; the depths may be unfolded images, and broadcast.

        A steep path integrates slowness over depth and scales it by
        dist / (z1 - z0); a flat one takes the speed at its mean depth.
        """
        dz = z1 - z0
        steep = np.abs(dz) > _FLAT_TOLERANCE
        safe_dz = np.where(steep, dz, 1.0)
        slant = dist * (self.integral_extended(z1) - self.integral_extended(z0)) / safe_dz
        flat = dist / self.speed_extended(0.5 * (z0 + z1))
        return np.where(steep, slant, flat)


def stratified_delay(ssp, start, end) -> float:
    """Travel time along the straight segment from start to end.

    ssp is the (M, 2) breakpoint array; both endpoints must lie within the
    water column covered by the profile.
    """
    ssp = np.asarray(ssp, dtype=float)
    depth = float(ssp[-1, 0])
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    for point in (start, end):
        if point[2] < 0 or point[2] > depth:
            raise ValueError("path endpoint outside the water column")
    table = _SlownessTable(ssp, depth)
    return float(table.delay(np.linalg.norm(end - start), start[2], end[2]))


def _image_table(water_depth: float, max_bounces: int):
    """Mirror-source bookkeeping for bounce counts 0..max_bounces.

    Image depth = sign * z_source + offset. Listed in increasing bounce
    count, surface-first before bottom-first within a count.
    """
    sign = [1.0]
    offset = [0.0]
    n_surface = [0]
    n_bottom = [0]
    d = water_depth
    for n in range(1, max_bounces + 1):
        if n % 2 == 1:
            sign += [-1.0, -1.0]
            offset += [(1 - n) * d, (n + 1) * d]
            n_surface += [(n + 1) // 2, (n - 1) // 2]
            n_bottom += [(n - 1) // 2, (n + 1) // 2]
        else:
            sign += [1.0, 1.0]
            offset += [n * d, -n * d]
            n_surface += [n // 2, n // 2]
            n_bottom += [n // 2, n // 2]
    return (
        np.array(sign),
        np.array(offset),
        np.array(n_surface),
        np.array(n_bottom),
    )


def arrivals_batch(env: Environment, receivers, positions):
    """Image-method arrivals from many source positions to all receivers.

    Returns (delays, gains) of shape (M, L, R), sorted by ascending delay
    along the last axis. Gains follow spherical spreading 1/d, per-bounce
    reflection products, and absorption 10^(-alpha d / 20); positions are
    far-field by the experiment config's box_issues check.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    receivers = np.atleast_2d(np.asarray(receivers, dtype=float))
    table = _SlownessTable(env.ssp, env.water_depth)
    budget = int(env.ray_budget)
    depth = float(env.water_depth)

    z_src = positions[:, 2]
    z_rec = receivers[:, 2]
    horiz = np.linalg.norm(
        positions[:, None, :2] - receivers[None, :, :2], axis=-1
    )  # (M, L)

    max_bounces = budget + 2
    while True:
        sign, offset, n_surf, n_bot = _image_table(depth, max_bounces)
        zeta = sign[:, None] * z_src[None, :] + offset[:, None]  # (I, M)
        dz = zeta[:, :, None] - z_rec[None, None, :]  # (I, M, L)
        dist = np.sqrt(horiz[None, :, :] ** 2 + dz**2)
        delays = table.delay(dist, z_rec, zeta[:, :, None])
        # Stable sort: equal delays resolve to the lower bounce count.
        order = np.argsort(delays, axis=0, kind="stable")[:budget]  # (R, M, L)
        kept_delays = np.take_along_axis(delays, order, axis=0)
        # Any image with one more bounce is at least this slow; if that beats
        # every kept delay the enumeration is complete.
        floor_next = max_bounces * depth / table.c_max
        if floor_next > float(kept_delays[-1].max()) or max_bounces > 100000:
            break
        max_bounces *= 2

    refl = (env.surface_reflection ** n_surf) * (env.bottom_reflection ** n_bot)
    kept_dist = np.take_along_axis(dist, order, axis=0)
    kept_refl = refl[order]
    attn = 10.0 ** (-env.absorption_db_per_m * kept_dist / 20.0)
    kept_gains = kept_refl / kept_dist * attn

    delays_out = np.moveaxis(kept_delays, 0, 2)
    gains_out = np.moveaxis(kept_gains, 0, 2)
    return delays_out, gains_out


def average_attenuation(
    env: Environment,
    geometry: Geometry,
    sample_count: int,
    rng_seed,
) -> float:
    """Mean over uniform volume positions of the receiver-mean CIR energy.

    CIR energy per receiver is the sum of squared gain magnitudes. The
    volume keeps DEFAULT_MIN_DISTANCE from every receiver (box_issues), so
    every sample's 1/d^2 energy is finite.
    """
    if sample_count < 1:
        raise ConfigError("sample_count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    lo, hi = geometry.volume
    points = rng.uniform(lo, hi, size=(int(sample_count), 3))
    _, gains = arrivals_batch(env, geometry.receivers, points)
    energy = np.sum(np.abs(gains) ** 2, axis=2)  # (M, L)
    return float(energy.mean(axis=1).mean())

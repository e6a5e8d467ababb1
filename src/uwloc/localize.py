"""Source localization: grid maximum likelihood and a learned regressor.

Positions are (x, y, z) in meters, z positive down, matching the channel
module. The ML path scores candidate positions with the concentrated
log-likelihood of the stacked observation under the rank-one-per-bin
Gaussian model, -log det(cov) - x^H inv(cov) x with cov the candidate's
observation covariance; additive terms that do not depend on the
candidate are dropped, so no covariance is formed. Ties on the grid
resolve to the lowest linear node index.

That score is linear in the per-bin receiver auto and cross spectra of the
observation, so GridEvaluator screens a chunk of T observations over G
nodes with float32 GEMMs: a (T, L*L*N) matrix of the trials' spectra
against a (G, L*L*N) design, both in the layout of _receiver_spectra, one
block of _SCREEN_NODES nodes at a time. The design is the noise-free node
products (built once) weighted for one (signal power, noise power) level;
each block of it is formed just before its GEMM, so the whole design is
never held. A written-out rounding bound
on the float32 scores selects the nodes that can still be the maximum;
only those, and the winner's axis neighbors, are rescored in float64, so
the argmax and the peak interpolation are those of the float64 score.
Memory: float32 products plus the complex stacks, about 2*G*L*L*N*4 bytes
at L = 4 receivers, and per noise level one (G, N) float32 weight array;
every other buffer, in construction, a level build or a call, is sized by
a block of nodes or trials, not by G.

The learned path regresses position from |x| and the same spectra with a
small fully-connected network implemented here on plain numpy, so
training is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, TrainingError, finite_array, items, whole
from .signal import response_stack_batch

MODEL_MAGIC = "UWNET1"


@dataclass
class GridSpec:
    """Axis-aligned search grid.

    counts nodes per axis, linearly spaced from lower to upper inclusive
    (a single-count axis sits at lower). peak_interpolation fits a parabola
    through the peak and its axis neighbors for sub-grid output; the
    config's "grid" section owns its default (on).
    """

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray
    peak_interpolation: bool

    def __post_init__(self):
        if not isinstance(self.peak_interpolation, bool):
            raise ConfigError(
                f"grid peak_interpolation must be true or false: {self.peak_interpolation!r}"
            )
        counts = items(self.counts, whole, "counts")
        self.lower = finite_array(self.lower, "grid box coordinates").reshape(-1)
        self.upper = finite_array(self.upper, "grid box coordinates").reshape(-1)
        self.counts = np.array(counts, dtype=int)
        if not self.lower.size == self.upper.size == self.counts.size == 3:
            raise ConfigError("grid lower, upper and counts need 3 numbers each")
        if np.any(self.counts < 1):
            raise ConfigError("grid counts must be >= 1")
        if np.any(self.upper < self.lower):
            raise ConfigError("grid upper bound below lower bound")

    @property
    def shape(self) -> tuple:
        return tuple(int(c) for c in self.counts)

    def steps(self) -> np.ndarray:
        span = self.upper - self.lower
        return np.where(self.counts > 1, span / np.maximum(self.counts - 1, 1), 0.0)

    def axes(self) -> list:
        return [
            np.linspace(self.lower[i], self.upper[i], self.counts[i])
            for i in range(3)
        ]

    def nodes(self) -> np.ndarray:
        """All grid nodes, (G, 3); linear index runs z fastest, x slowest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def quantization_floor(self) -> float:
        """RMS error of rounding a uniform position to the nearest node."""
        return float(np.linalg.norm(self.steps()) / math.sqrt(12.0))


# Unit roundoff and smallest normal of float32, for the screen's error bound.
_U32 = 2.0**-24
_TINY32 = float(np.finfo(np.float32).tiny)
# The bound is certified only while every value the screen forms stays
# below this, far under the float32 overflow threshold 2^128.
_SAFE32 = 2.0**120
# Trial/node pairs rescored per gather, bounding the (pairs, L, N) buffers.
_RESCORE_PAIRS = 64
# Trials screened per pass, bounding the (trials, K) float32 spectra.
_LOCATE_CHUNK = 512
# Nodes screened per GEMM, bounding the (trials, nodes) float32 screen and
# the (nodes, L*L*N) float32 design block; also the node block in which
# construction and a level build write their (G, ...) arrays.
_SCREEN_NODES = 512
# Guards every GridEvaluator's level build, so no instance holds a lock.
_LEVEL_LOCK = threading.Lock()


def _float32_floor(values: np.ndarray) -> np.ndarray:
    """The least float32 at or above each float64 value.

    For any float32 x, x >= value exactly when x >= this, so the screen
    compares in float32 with the outcome of the float64 comparison.
    """
    with np.errstate(over="ignore"):
        out = values.astype(np.float32)
        low = out < values
        out[low] = np.nextafter(out[low], np.float32(np.inf))
    return out


def _receiver_spectra(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the per-bin receiver auto and cross spectra of x into out.

    x is a (T, L, N) complex batch and out a caller's (T, L*L, N) real
    buffer, float32 or float64; each value is formed in float64 and
    rounded once into out. With the P = L(L-1)/2 receiver pairs l < l' in
    np.triu_indices order, out holds, each block running over the N bins:

    - L auto spectra |x_l|^2;
    - P real parts of x_l conj(x_l');
    - P imaginary parts of x_l conj(x_l').

    Beside out the call holds one (T, N) float64 and two (T, N) complex
    buffers. The cross term is conj(x_l') * x_l in this operand order,
    written to a buffer apart from both operands, so a row's bits do not
    depend on T: numpy's SIMD complex multiply rounds a*b and b*a
    differently, swapped x_l * conj(x_l') above 256 KiB, and multiplies a
    one-element array in place with other roundings.
    """
    l_count = x.shape[1]
    row, col = np.triu_indices(l_count, 1)
    for l in range(l_count):
        np.square(np.abs(x[:, l]), out=out[:, l])
    conj = np.empty((x.shape[0], x.shape[2]), dtype=complex)
    cross = np.empty_like(conj)
    for p, (r, c) in enumerate(zip(row, col), start=l_count):
        np.conj(x[:, c], out=conj)
        np.multiply(conj, x[:, r], out=cross)
        out[:, p] = cross.real
        out[:, p + row.size] = cross.imag
    return out


def _weights(energy, signal_power, noise_power, gain, weight) -> None:
    """Write gain = s e + sigma^2 and w = s / (sigma^2 gain) of energy rows.

    gain and weight are caller buffers of energy's shape. The level build
    and the rescore both form w here, so a rescored row has the bits of
    the level's row.
    """
    np.multiply(energy, signal_power, out=gain)
    gain += noise_power
    np.multiply(gain, noise_power, out=weight)
    np.divide(signal_power, weight, out=weight)


class _Level(NamedTuple):
    """What GridEvaluator keeps for one (signal power, noise power)."""

    signal_power: float
    noise_power: float
    w32: np.ndarray  # (G, N) float32 weights
    offset: np.ndarray  # (G,) float64
    offset32: np.ndarray  # (G,) float32
    bin_max: np.ndarray  # (N,) m_k
    top_offset: float  # max |offset|
    top_weight: float  # max w
    top_bin: float  # max m_k


class GridEvaluator:
    """Grid ML scorer: a float32 GEMM screen, then an exact float64 rescore.

    Build once per (environment, receivers, grid) from the (G, L, N)
    candidate responses h; locate() then scores any number of observations
    x against them. The score of node g is the module's concentrated
    log-likelihood,

        S_g(x) = sum_k w_gk |h_gk^H x_k|^2 - offset_g,
        w = s / (sigma^2 gain),  gain = s |h|^2 + sigma^2,
        offset_g = sum_k log(gain_gk).

    The per-bin matched power |h^H x|^2 is linear in the receiver auto and
    cross spectra of x, so the noise-free products are kept as one real
    float32 (G, K) array, K = L*L*N: the _receiver_spectra of h with the
    cross blocks doubled, so that a trial's row z, the _receiver_spectra
    of x, gives sum_k |h_gk^H x_k|^2 as their dot product. The design D is
    the products weighted per node and bin by w, multiplied in float32 by w
    rounded to float32. A _Level holds what depends only on the level
    (signal_power, noise_power): w in float32, the offset, the per-bin
    maximum m_k = max_g w_gk |h_gk|^2 and the scalars max |offset|, max w
    and max m_k. The last level is kept, so the q and p trials of one
    sweep point share it.

    A chunk of T trials is screened by float32 GEMMs, z @ D^T - offset,
    one (T, _SCREEN_NODES) block of nodes at a time; each block's rows of
    D are written into one scratch block just before its GEMM. Rounding
    the inputs, each K-term dot product
    (|fl(a^T b) - a^T b| <= gamma_K |a|^T |b|, Higham 2002, section 3.1)
    and the offset subtraction move every float32 score of trial t from
    S_g by less than

        e_t = 2 (K + 8) u beta_t + 4 u max_g |offset_g|
              + 2 K tiny ((1 + max w) max_k |x_tk|^2 + max_k m_k + 2),
        beta_t = sum_k m_k |x_tk|^2,

    with u = 2^-24. Cauchy-Schwarz bounds sum_j |D_gj| |z_tj| by beta_t;
    the factor 2 covers the denominator of gamma_K and the rounding of the
    float64 rescore; the last term, with tiny = 2^-126, covers underflow
    (gradual or flushed to zero) and is negligible at any usual scale.
    Every node within 2 e_t of the trial's float32 maximum is a candidate,
    so the float64 maximizers are always among them. Each block keeps the
    nodes within 2 e_t of its own maximum, which include every such node
    of the block, and the end of the screen drops those below the overall
    maximum - 2 e_t; the candidates are thus those of one (T, G) screen.
    The candidates, and
    the axis neighbors of the winner for interpolation, are rescored in
    float64 from |h^H x|^2, with the float64 w of their nodes recomputed
    from energies by the operations of the level build (_weights), so
    with its bits; the argmax (ties to the lowest node index) and the
    parabola use those scores. A trial in which a float32 value could
    overflow (beta_t + max |offset|, max |x_tk|^2, max w or max m_k at or
    above 2^120) or is not finite makes every node a candidate.

    Memory: float32 products, G*L*L*N*4 bytes, plus the complex128
    stacks kept for rescoring, G*L*N*16 bytes, and the float64 energies,
    G*N*8 bytes; 2*G*L*L*N*4 bytes at L = 4. Construction fills energies
    and products one _SCREEN_NODES block of nodes at a time, so beyond
    what the evaluator keeps it holds one block's buffers,
    _SCREEN_NODES*N*40 bytes. A level keeps one (G, N) float32 weight
    array, G*N*4 bytes, and (G,) and (N,) vectors; it is built one block
    at a time with two (_SCREEN_NODES, N) float64 buffers and no (G, N)
    float64 array. locate may run on several threads at once: a level is
    built under one module lock and never changed afterwards, so a call
    at a new level replaces the cached one at once, while calls at the
    old level keep theirs. Holding no lock, an instance pickles by
    default. Beyond its level, a call holds one (_SCREEN_NODES, L*L*N)
    float32 design block and one block's (T, _SCREEN_NODES) float32
    screen and bool mask, with T at most _LOCATE_CHUNK, whatever G is,
    and the rescore gathers _RESCORE_PAIRS rows at a time.
    """

    def __init__(self, spec: GridSpec, stacks: np.ndarray):
        self.spec = spec
        stacks = np.asarray(stacks, dtype=complex)
        if stacks.ndim != 3 or stacks.shape[0] != int(np.prod(spec.counts)):
            raise ConfigError("stacks must be (node_count, L, N)")
        self.nodes = spec.nodes()
        self.stacks = stacks
        node_count, l_count, n_bins = stacks.shape
        self.energies = np.zeros((node_count, n_bins))
        self.products = np.empty((node_count, l_count * l_count, n_bins), np.float32)
        for start in range(0, node_count, _SCREEN_NODES):
            part = slice(start, start + _SCREEN_NODES)
            block = stacks[part]
            for l in range(l_count):
                self.energies[part] += np.abs(block[:, l]) ** 2
            _receiver_spectra(block, self.products[part])
            self.products[part, l_count:] *= 2.0  # exact in float32
        self._cached = None  # the last _Level built
        shape = spec.shape
        self.strides = np.array(
            [shape[1] * shape[2], shape[2], 1], dtype=int
        )

    @classmethod
    def from_scene(
        cls, env, receivers, spec: GridSpec, n_bins: int, sample_period: float
    ) -> "GridEvaluator":
        stacks = response_stack_batch(env, receivers, spec.nodes(), n_bins, sample_period)
        return cls(spec, stacks)

    def _level(self, signal_power: float, noise_power: float) -> _Level:
        """The _Level of (signal_power, noise_power), built if not cached.

        The last level built is kept for the next call. A level is never
        changed once built, so a call keeps its own while another call
        replaces the cached one.
        """
        with _LEVEL_LOCK:
            level = self._cached
            key = (signal_power, noise_power)
            if level is None or (level.signal_power, level.noise_power) != key:
                level = self._cached = self._build_level(signal_power, noise_power)
            return level

    def _build_level(self, signal_power: float, noise_power: float) -> _Level:
        """Build a level one _SCREEN_NODES block of nodes at a time.

        The float64 gain and w of a block live in two block-sized buffers;
        only their float32 w, the offsets and the maxima are kept.
        """
        node_count, n_bins = self.energies.shape
        w32 = np.empty((node_count, n_bins), np.float32)
        offset = np.empty(node_count)
        bin_max = np.full(n_bins, -np.inf)
        top_weight = -np.inf
        rows = min(_SCREEN_NODES, node_count)
        gain_buf, weight_buf = np.empty((rows, n_bins)), np.empty((rows, n_bins))
        for start in range(0, node_count, _SCREEN_NODES):
            part = slice(start, start + _SCREEN_NODES)
            energy = self.energies[part]
            gain, weight = gain_buf[: energy.shape[0]], weight_buf[: energy.shape[0]]
            _weights(energy, signal_power, noise_power, gain, weight)
            offset[part] = np.sum(np.log(gain, out=gain), axis=1)
            with np.errstate(over="ignore"):
                # Overflow here makes every trial fail the safety test.
                w32[part] = weight
            top_weight = np.maximum(top_weight, np.max(weight))
            weight *= energy
            np.maximum(bin_max, np.max(weight, axis=0), out=bin_max)
        return _Level(
            signal_power, noise_power, w32, offset, offset.astype(np.float32),
            bin_max, np.max(np.abs(offset)), top_weight, np.max(bin_max),
        )

    def locate(
        self, observations, signal_power: float, noise_power: float
    ) -> np.ndarray:
        """Grid argmax position (T, 3) for each of a (T, L, N) batch.

        With spec.peak_interpolation, each interior peak axis gets a
        parabolic sub-step correction clamped to half a step. A noise
        power outside (0, inf) or a signal power outside [0, inf), NaN
        included, raises ValueError naming it; so does an observation with
        a NaN or infinite entry, naming the first such trial.
        """
        if not 0 < noise_power < math.inf:
            raise ValueError(f"noise power must be finite and > 0, got {noise_power!r}")
        if not 0 <= signal_power < math.inf:
            raise ValueError(f"signal power must be finite and >= 0, got {signal_power!r}")
        obs = np.asarray(observations, dtype=complex)
        if obs.ndim != 3 or obs.shape[1:] != self.stacks.shape[1:]:
            raise ValueError("observations must be (T, L, N) matching the stacks")
        finite = np.isfinite(obs).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(
                f"observation {int(np.argmin(finite))} has a non-finite entry"
            )
        total = obs.shape[0]
        out = np.empty((total, 3))
        level = self._level(signal_power, noise_power)
        for start in range(0, total, _LOCATE_CHUNK):
            block = obs[start : start + _LOCATE_CHUNK]
            best, peak = self._argmax(block, level)
            pos = self.nodes[best]
            if self.spec.peak_interpolation:
                self._interpolate(block, level, best, peak, pos)
            out[start : start + block.shape[0]] = pos
        return out

    def _argmax(self, block: np.ndarray, level: _Level) -> tuple:
        """(best node (T,), its float64 score (T,)) for a chunk of trials."""
        stats = np.empty((block.shape[0], self.products[0].size), np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            # Overflow here only happens in trials the safety test rejects.
            _receiver_spectra(block, stats.reshape(block.shape[0], -1, block.shape[2]))

        terms = stats.shape[1]
        norms = np.sum(block.real**2 + block.imag**2, axis=1)  # (T, N): |x_tk|^2
        beta = norms @ level.bin_max
        top_norm = np.max(norms, axis=1)
        bound = (
            2.0 * (terms + 8) * _U32 * beta
            + 4.0 * _U32 * level.top_offset
            + 2.0 * terms * _TINY32
            * ((1.0 + level.top_weight) * top_norm + level.top_bin + 2.0)
        )
        safe = (
            (beta + level.top_offset < _SAFE32)
            & (top_norm < _SAFE32)
            & (max(level.top_weight, level.top_bin) < _SAFE32)
        )
        node_count = self.products.shape[0]
        # The design D, one block of nodes at a time, as the GEMM packs it.
        scratch = np.empty((min(_SCREEN_NODES, node_count), terms), np.float32)
        top = np.full(block.shape[0], -np.inf)
        kept, values = [], []
        for start in range(0, node_count, _SCREEN_NODES):
            part = slice(start, start + _SCREEN_NODES)
            products = self.products[part]
            design = scratch[: products.shape[0]]
            with np.errstate(over="ignore", invalid="ignore"):
                # Overflow here makes every trial fail the safety test.
                np.multiply(
                    products, level.w32[part, None, :],
                    out=design.reshape(products.shape),
                )
                screen = stats @ design.T  # (T, nodes of the block)
                screen -= level.offset32[part]
                peak = np.max(screen, axis=1)
                np.maximum(top, peak, out=top)
                candidates = screen >= _float32_floor(peak - 2.0 * bound)[:, None]
            candidates[~safe] = True
            flat = np.flatnonzero(candidates)
            trials, nodes = np.divmod(flat, screen.shape[1])
            kept.append(trials * node_count + (start + nodes))
            values.append(screen.ravel()[flat])
        kept = np.concatenate(kept)
        trials = kept // node_count
        with np.errstate(invalid="ignore"):
            floor = np.where(safe, top - 2.0 * bound, -np.inf)
        keep = (np.concatenate(values) >= floor[trials]) | ~safe[trials]
        # Sorted flat indices put the candidates in (trial, node) order.
        trials, nodes = np.divmod(np.sort(kept[keep]), node_count)
        exact = self._rescore(block, trials, nodes, level)
        # trials is sorted, so each trial's group starts where it changes;
        # sort each group by descending score, then ascending node.
        order = np.lexsort((nodes, -exact, trials))
        first = order[np.flatnonzero(np.diff(trials, prepend=-1))]
        return nodes[first], exact[first]

    def _rescore(self, block, trials, nodes, level: _Level) -> np.ndarray:
        """Float64 scores S_g(x_t) for the (trial, node) pairs given.

        Each batch of _RESCORE_PAIRS pairs gathers its stacks, conjugates
        them in place, and recomputes its rows of the float64 w from
        energies with _weights, the level build's code.
        """
        scores = np.empty(trials.size)
        for start in range(0, trials.size, _RESCORE_PAIRS):
            part = slice(start, start + _RESCORE_PAIRS)
            g = nodes[part]
            terms = self.stacks[g]
            np.conj(terms, out=terms)
            # Not in place: see _receiver_spectra.
            inner = np.sum(np.multiply(terms, block[trials[part]]), axis=1)
            power = inner.real**2 + inner.imag**2
            gain = self.energies[g]
            weight = np.empty_like(gain)
            _weights(gain, level.signal_power, level.noise_power, gain, weight)
            weight *= power
            scores[part] = np.sum(weight, axis=1) - level.offset[g]
        return scores

    def _interpolate(self, block, level, best, peak, pos):
        shape = self.spec.shape
        steps = self.spec.steps()
        multi = np.stack(np.unravel_index(best, shape), axis=1)
        for axis in range(3):
            if shape[axis] < 3 or steps[axis] == 0.0:
                continue
            coord = multi[:, axis]
            interior = np.flatnonzero((coord > 0) & (coord < shape[axis] - 1))
            if interior.size == 0:
                continue
            rows = best[interior]
            stride = self.strides[axis]
            s_lo, s_hi = self._rescore(
                block,
                np.concatenate([interior, interior]),
                np.concatenate([rows - stride, rows + stride]),
                level,
            ).reshape(2, -1)
            s0 = peak[interior]
            denom = s_lo + s_hi - 2.0 * s0
            concave = denom < 0.0
            delta = np.where(
                concave,
                0.5 * (s_lo - s_hi) / np.where(concave, denom, -1.0),
                0.0,
            )
            delta = np.clip(delta, -0.5, 0.5)
            pos[interior, axis] += delta * steps[axis]


# ----------------------------------------------------------------------
# Learned localizer
# ----------------------------------------------------------------------


def _check_attenuation(attenuation: float) -> None:
    # Written so that NaN fails too; +inf would give all-zero features.
    if not 0.0 < attenuation < math.inf:
        raise ConfigError(f"attenuation must be finite and > 0: {attenuation!r}")


def feature_count(l_count: int, n_bins: int) -> int:
    """Features per observation of L receivers and N bins, (L + L*L)*N."""
    return (l_count + l_count * l_count) * n_bins


def extract_features(observations, attenuation: float) -> np.ndarray:
    """Phase-invariant feature rows (T, F) of a (T, L, N) observation batch.

    Layout per observation, with x the bins scaled by 1/sqrt(attenuation):
    all |x| (L*N), then the _receiver_spectra of x (L*L*N), each invariant
    to a common phase rotation. The rows are written into one (T, F)
    array; beside it the call holds the scaled copy of the batch and the
    buffers of _receiver_spectra. A NaN, infinite or non-positive
    attenuation raises ConfigError.
    """
    _check_attenuation(attenuation)
    arr = np.asarray(observations, dtype=complex)
    if arr.ndim != 3:
        raise ValueError("observations must be (T, L, N)")
    t_count, l_count, n_bins = arr.shape
    scaled = arr / math.sqrt(attenuation)
    feats = np.empty((t_count, l_count + l_count * l_count, n_bins))
    np.abs(scaled, out=feats[:, :l_count])
    _receiver_spectra(scaled, feats[:, l_count:])
    return feats.reshape(t_count, feature_count(l_count, n_bins))


@dataclass
class TrainingSet:
    """Feature matrix (count, features) with target positions (count, 3)."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise ConfigError("features and targets must be 2-D")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ConfigError("features and targets disagree on example count")
        if self.targets.shape[1] != 3:
            raise ConfigError("targets must be (count, 3) positions")

    @property
    def count(self) -> int:
        return self.features.shape[0]


# Observations per block of NetModel.locate, bounding its (block, F)
# features and activations.
_NET_ROWS = 128


@dataclass
class NetModel:
    """Fully-connected position regressor with its preprocessing constants.

    weights[i] is (fan_in, fan_out); hidden layers use ReLU, the output is
    linear. Features are standardized with feature_mean/scale, targets with
    target_mean/scale; predictions are de-standardized and clipped to
    [clip_lower, clip_upper] per axis.
    """

    weights: list
    biases: list
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    target_mean: np.ndarray
    target_scale: np.ndarray
    clip_lower: np.ndarray
    clip_upper: np.ndarray

    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def predict(self, features) -> np.ndarray:
        """Positions (T, 3) for a (T, F) feature batch."""
        feats = np.array(features, dtype=float)
        if feats.ndim != 2 or feats.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"features of shape {feats.shape} are not (count, "
                f"{self.weights[0].shape[0]}) rows for this model"
            )
        return self._positions(feats)

    def locate(self, observations, attenuation: float) -> np.ndarray:
        """Positions (T, 3) for a (T, L, N) observation batch.

        This computes predict(extract_features(observations, attenuation)),
        but the batch goes through in blocks of _NET_ROWS observations: each
        block's features are extracted, standardized in their own buffer
        and run through the net. Beyond the batch and the (T, 3) result a
        call holds one block's features and activations, whatever T is.

        A last block under _NET_ROWS // 2 rows takes the second half of the
        block before it. So every block starts at a multiple of
        _NET_ROWS // 2 and, unless it is the whole batch, holds at least
        that many rows. BLAS rounds a GEMM row by where it falls in the
        kernel's row tiles, and runs a product of one or a few rows on
        other kernels; aligned blocks of that size keep each row where the
        whole batch's GEMM has it. The rows match predict's bit for bit for
        the default net (1280 -> 256 x 3 -> 3) and small ones at every T up
        to 1 000 tried on OpenBLAS. From about 1 300 rows OpenBLAS runs the
        whole batch's GEMM another way, and its rows differ from the
        blocks' in the last bits; a first layer a few units wide behind
        1280 inputs, run on its small-matrix kernel in blocks, can differ
        as well.
        """
        _check_attenuation(attenuation)
        obs = np.asarray(observations, dtype=complex)
        width = self.weights[0].shape[0]
        if obs.ndim != 3 or feature_count(*obs.shape[1:]) != width:
            raise ValueError(
                f"observations of shape {obs.shape} are not (count, L, N) "
                f"with (L + L*L)*N = {width} for this model"
            )
        total = obs.shape[0]
        out = np.empty((total, self.weights[-1].shape[1]))
        starts = list(range(0, total, _NET_ROWS))
        if len(starts) > 1 and total - starts[-1] < _NET_ROWS // 2:
            starts[-1] -= _NET_ROWS // 2
        for start, stop in zip(starts, starts[1:] + [total]):
            out[start:stop] = self._positions(
                extract_features(obs[start:stop], attenuation)
            )
        return out

    def _positions(self, feats: np.ndarray) -> np.ndarray:
        """Positions (T, 3) of raw feature rows, standardized in place in feats."""
        feats -= self.feature_mean
        feats /= self.feature_scale
        _, out = _forward(feats, self.weights, self.biases)
        out *= self.target_scale
        out += self.target_mean
        np.clip(out, self.clip_lower, self.clip_upper, out=out)
        return out


def _forward(x, weights, biases) -> tuple:
    """(acts, out) of the net on a standardized (T, F) batch x.

    acts[i] is the input of layer i (acts[0] is x); each hidden layer
    writes max(a @ w + b, 0) into its product's buffer, and the output
    layer is linear.
    """
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        a = acts[-1] @ w
        a += b
        acts.append(np.maximum(a, 0.0, out=a))
    out = acts[-1] @ weights[-1]
    out += biases[-1]
    return acts, out


# Columns per block of the feature standard deviation: its (count, block)
# temporary stays a small fraction of the (count, F) features.
_STD_BLOCK = 128


def train_net(
    features,
    targets,
    *,
    hidden,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    seed,
    clip_lower,
    clip_upper,
):
    """Train the position regressor with Adam on mean-squared error.

    Returns (model, loss_curve) where loss_curve[e] is the mean minibatch
    loss of epoch e in standardized target units; the model clips its
    predictions to [clip_lower, clip_upper] per axis. Raises TrainingError
    if the loss ever goes non-finite.

    Memory: beyond the caller's features and targets, training holds one
    standardized minibatch buffer and its activations, the parameters and
    the two Adam moments (3x the parameter bytes), and per step one
    gradient and one temporary per parameter array. The feature standard
    deviation is taken _STD_BLOCK columns at a time, so no (count, F)
    array is made.
    """
    feats = np.asarray(features, dtype=float)
    targs = np.asarray(targets, dtype=float)
    if feats.ndim != 2 or targs.ndim != 2 or feats.shape[0] != targs.shape[0]:
        raise TrainingError("features and targets must be matching 2-D arrays")
    count = feats.shape[0]
    if count < 2:
        raise TrainingError("need at least 2 training examples")
    if epochs < 1 or batch_size < 1:
        raise TrainingError("epochs and batch_size must be >= 1")

    f_mean = feats.mean(axis=0)
    # An axis-0 reduction adds row by row within each column, so column
    # blocks give the bits of one whole-array call.
    f_std = np.concatenate([
        feats[:, start : start + _STD_BLOCK].std(axis=0)
        for start in range(0, feats.shape[1], _STD_BLOCK)
    ])
    f_scale = np.where(f_std < 1e-12, 1.0, f_std)
    t_mean = targs.mean(axis=0)
    t_std = targs.std(axis=0)
    t_scale = np.where(t_std < 1e-12, 1.0, t_std)
    y_all = (targs - t_mean) / t_scale

    rng = np.random.default_rng(seed)
    sizes = [feats.shape[1], *[int(h) for h in hidden], targs.shape[1]]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        # He-style scaling keeps ReLU activations from dying out.
        weights.append(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))

    params = weights + biases
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    loss_curve = []
    x_buf = np.empty((min(batch_size, count), feats.shape[1]))

    for epoch in range(epochs):
        order = rng.permutation(count)
        epoch_losses = []
        for start in range(0, count, batch_size):
            batch = order[start : start + batch_size]
            # Every index is in range; mode="clip" makes take write straight
            # into x_buf instead of through a buffer of the same size.
            x = np.take(feats, batch, axis=0, out=x_buf[: batch.size], mode="clip")
            x -= f_mean
            x /= f_scale
            y = y_all[batch]

            acts, pred = _forward(x, weights, biases)
            resid = pred - y
            loss = float(np.mean(resid**2))
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch offset {start} "
                    f"(last finite epoch mean: "
                    f"{loss_curve[-1] if loss_curve else 'none'})"
                )
            epoch_losses.append(loss)

            grad = 2.0 * resid / resid.size
            grads_w = [None] * len(weights)
            grads_b = [None] * len(weights)
            for layer in range(len(weights) - 1, -1, -1):
                grads_w[layer] = acts[layer].T @ grad
                grads_b[layer] = grad.sum(axis=0)
                if layer > 0:
                    grad = (grad @ weights[layer].T) * (acts[layer] > 0.0)

            step += 1
            bias1 = 1.0 - beta1**step
            bias2 = 1.0 - beta2**step
            for param, m, v, g in zip(params, moment1, moment2, grads_w + grads_b):
                # In place, with the roundings of m = beta1 m + (1 - beta1) g,
                # v = beta2 v + (1 - beta2) g^2 and
                # param -= lr (m / bias1) / (sqrt(v / bias2) + eps);
                # g is this step's own gradient and is overwritten.
                tmp = np.square(g)
                tmp *= 1 - beta2
                v *= beta2
                v += tmp
                g *= 1 - beta1
                m *= beta1
                m += g
                np.divide(m, bias1, out=g)
                g *= learning_rate
                np.divide(v, bias2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += eps
                g /= tmp
                param -= g
        loss_curve.append(float(np.mean(epoch_losses)))

    model = NetModel(
        weights=weights,
        biases=biases,
        feature_mean=f_mean,
        feature_scale=f_scale,
        target_mean=t_mean,
        target_scale=t_scale,
        clip_lower=np.asarray(clip_lower, dtype=float).reshape(-1),
        clip_upper=np.asarray(clip_upper, dtype=float).reshape(-1),
    )
    return model, np.asarray(loss_curve)


def save_model(path, model: NetModel) -> None:
    """Write a model as an ascii header line plus little-endian float64 data.

    Header: "UWNET1 layers=<in>,<h1>,...,<out>\\n". Payload order: per layer
    weights then bias, then feature_mean, feature_scale, target_mean,
    target_scale, clip_lower, clip_upper. Weights are row-major (fan_in,
    fan_out).
    """
    sizes = model.layer_sizes()
    header = f"{MODEL_MAGIC} layers={','.join(str(s) for s in sizes)}\n"
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        for w, b in zip(model.weights, model.biases):
            handle.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            handle.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        for arr in (
            model.feature_mean,
            model.feature_scale,
            model.target_mean,
            model.target_scale,
            model.clip_lower,
            model.clip_upper,
        ):
            handle.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> NetModel:
    """Read a model written by save_model; validates magic and payload size."""
    with open(path, "rb") as handle:
        header = handle.readline().decode("ascii", errors="replace").strip()
        payload = handle.read()
    parts = header.split()
    if len(parts) != 2 or parts[0] != MODEL_MAGIC or not parts[1].startswith("layers="):
        raise ConfigError(f"not a {MODEL_MAGIC} model file: header {header!r}")
    try:
        sizes = [int(v) for v in parts[1][len("layers="):].split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad layer sizes in header {header!r}") from exc
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigError(f"bad layer sizes in header {header!r}")
    data = np.frombuffer(payload, dtype="<f8")
    expected = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    expected += 2 * sizes[0] + 4 * sizes[-1]
    if data.size != expected:
        raise ConfigError(
            f"model payload holds {data.size} values, expected {expected}"
        )
    pos = 0

    def take(shape):
        nonlocal pos
        size = int(np.prod(shape))
        block = data[pos : pos + size].reshape(shape).copy()
        pos += size
        return block

    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(take((fan_in, fan_out)))
        biases.append(take((fan_out,)))
    return NetModel(
        weights=weights,
        biases=biases,
        feature_mean=take((sizes[0],)),
        feature_scale=take((sizes[0],)),
        target_mean=take((sizes[-1],)),
        target_scale=take((sizes[-1],)),
        clip_lower=take((sizes[-1],)),
        clip_upper=take((sizes[-1],)),
    )

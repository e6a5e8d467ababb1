"""Source localization: grid maximum likelihood and a learned regressor.

Positions are (x, y, z) in meters, z positive down, matching the channel
module. The ML path scores candidate positions with the concentrated
log-likelihood of the stacked observation under the rank-one-per-bin
Gaussian model; additive terms that do not depend on the candidate are
dropped. Ties on the grid resolve to the lowest linear node index.

The learned path regresses position from a phase-invariant feature vector
with a small fully-connected network implemented here on plain numpy, so
training is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingError
from .signal import response_stack_batch

MODEL_MAGIC = "UWNET1"


@dataclass
class GridSpec:
    """Axis-aligned search grid.

    counts nodes per axis, linearly spaced from lower to upper inclusive
    (a single-count axis sits at lower). peak_interpolation fits a parabola
    through the peak and its axis neighbors for sub-grid output.
    """

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray
    peak_interpolation: bool = False

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float).reshape(3)
        self.upper = np.asarray(self.upper, dtype=float).reshape(3)
        self.counts = np.asarray(self.counts, dtype=int).reshape(3)
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


def concentrated_loglikelihood(
    observation, stack, signal_power: float, noise_power: float
) -> float:
    """Candidate-position log-likelihood, position-independent terms dropped.

    observation: (L, N) complex array of received bins.
    stack: FrequencyResponseStack or (L, N) array for the candidate.

    Equals -log det(cov) - x^H inv(cov) x up to an additive constant that
    does not depend on the candidate response.
    """
    if noise_power <= 0:
        raise ValueError("noise power must be > 0")
    if signal_power < 0:
        raise ValueError("signal power must be >= 0")
    x = np.asarray(observation, dtype=complex)
    h = stack.h if hasattr(stack, "h") else np.asarray(stack, dtype=complex)
    if x.shape != h.shape:
        raise ValueError("observation and response stack shapes disagree")
    inner = np.sum(np.conj(h) * x, axis=0)
    energy = np.sum(np.abs(h) ** 2, axis=0)
    gain = signal_power * energy + noise_power
    score = signal_power * np.abs(inner) ** 2 / (noise_power * gain) - np.log(gain)
    return float(np.sum(score))


class GridEvaluator:
    """Response stacks precomputed over a fixed grid for repeated searches.

    Build once per (environment, receivers, grid); locate() then scores any
    number of observations against the cached stacks.
    """

    def __init__(self, spec: GridSpec, stacks: np.ndarray):
        self.spec = spec
        self.stacks = np.asarray(stacks, dtype=complex)
        if self.stacks.ndim != 3 or self.stacks.shape[0] != int(np.prod(spec.counts)):
            raise ConfigError("stacks must be (node_count, L, N)")
        self.nodes = spec.nodes()
        self.energies = np.sum(np.abs(self.stacks) ** 2, axis=1)  # (G, N)
        shape = spec.shape
        self.strides = np.array(
            [shape[1] * shape[2], shape[2], 1], dtype=int
        )

    @classmethod
    def from_scene(
        cls, env, receivers, spec: GridSpec, n_bins: int, sample_period: float
    ) -> "GridEvaluator":
        # Grid nodes may legitimately sit close to a receiver; the distance
        # guard stays off here and applies only to actual sources.
        stacks = response_stack_batch(
            env, receivers, spec.nodes(), n_bins, sample_period, check_distance=False
        )
        return cls(spec, stacks)

    def locate(
        self,
        observations,
        signal_power: float,
        noise_power: float,
        *,
        interpolate: bool | None = None,
        chunk: int = 512,
    ) -> np.ndarray:
        """Grid argmax position for each observation.

        observations: (L, N) array or (T, L, N) batch.
        Returns (3,) for a single observation, else (T, 3).
        With interpolation, each interior peak axis gets a parabolic
        sub-step correction clamped to half a step.
        """
        if noise_power <= 0:
            raise ValueError("noise power must be > 0")
        if interpolate is None:
            interpolate = self.spec.peak_interpolation
        single = False
        obs = np.asarray(observations, dtype=complex)
        if obs.ndim == 2:
            obs = obs[None]
            single = True
        if obs.ndim != 3 or obs.shape[1:] != self.stacks.shape[1:]:
            raise ValueError("observations must be (T, L, N) matching the stacks")
        total = obs.shape[0]
        l_count = obs.shape[1]
        gain = signal_power * self.energies + noise_power  # (G, N)
        weight = signal_power / (noise_power * gain)
        offset = np.sum(np.log(gain), axis=1)  # (G,)
        # The per-bin matched power |h^H x|^2 expands into receiver
        # auto/cross spectra, turning the score into a few large matrix
        # products over the frequency axis instead of one small product
        # per bin.
        auto = [
            weight * (self.stacks[:, l, :].real ** 2 + self.stacks[:, l, :].imag ** 2)
            for l in range(l_count)
        ]
        pairs = [
            (l, l2, weight * (np.conj(self.stacks[:, l, :]) * self.stacks[:, l2, :]))
            for l in range(l_count)
            for l2 in range(l + 1, l_count)
        ]
        out = np.empty((total, 3))
        for start in range(0, total, chunk):
            block = obs[start : start + chunk]
            scores = np.zeros((self.stacks.shape[0], block.shape[0]))
            for l in range(l_count):
                power = block[:, l, :].real ** 2 + block[:, l, :].imag ** 2
                scores += auto[l] @ power.T
            for l, l2, cross in pairs:
                spectra = block[:, l, :] * np.conj(block[:, l2, :])
                scores += 2.0 * (cross @ spectra.T).real
            scores -= offset[:, None]
            best = np.argmax(scores, axis=0)
            pos = self.nodes[best].copy()
            if interpolate:
                self._interpolate(scores, best, pos)
            out[start : start + block.shape[0]] = pos
        return out[0] if single else out

    def _interpolate(self, scores: np.ndarray, best: np.ndarray, pos: np.ndarray):
        shape = self.spec.shape
        steps = self.spec.steps()
        trial_idx = np.arange(best.size)
        multi = np.stack(np.unravel_index(best, shape), axis=1)
        for axis in range(3):
            if shape[axis] < 3 or steps[axis] == 0.0:
                continue
            coord = multi[:, axis]
            interior = (coord > 0) & (coord < shape[axis] - 1)
            if not np.any(interior):
                continue
            rows = best[interior]
            cols = trial_idx[interior]
            stride = self.strides[axis]
            s0 = scores[rows, cols]
            s_lo = scores[rows - stride, cols]
            s_hi = scores[rows + stride, cols]
            denom = s_lo + s_hi - 2.0 * s0
            concave = denom < 0.0
            delta = np.where(
                concave,
                0.5 * (s_lo - s_hi) / np.where(concave, denom, -1.0),
                0.0,
            )
            delta = np.clip(delta, -0.5, 0.5)
            pos[cols, axis] += delta * steps[axis]


# ----------------------------------------------------------------------
# Learned localizer
# ----------------------------------------------------------------------


def extract_features(observations, attenuation: float = 1.0) -> np.ndarray:
    """Phase-invariant feature vector(s) from received frequency bins.

    Layout per observation, with x the bins scaled by 1/sqrt(attenuation):
    all |x| (L*N), all |x|^2 (L*N), then for receiver pairs l < l' in
    lexicographic order the real parts of x_l conj(x_l') (pairs*N) followed
    by the imaginary parts (pairs*N). Every block is invariant to a common
    phase rotation of the observation.
    """
    if attenuation <= 0:
        raise ConfigError("attenuation must be > 0")
    arr = np.asarray(observations, dtype=complex)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError("observations must be (L, N) or (T, L, N)")
    t_count, l_count, _ = arr.shape
    scaled = arr / math.sqrt(attenuation)
    mag = np.abs(scaled)
    row, col = np.triu_indices(l_count, 1)
    cross = scaled[:, row, :] * np.conj(scaled[:, col, :])
    feats = np.concatenate(
        [
            mag.reshape(t_count, -1),
            (mag**2).reshape(t_count, -1),
            cross.real.reshape(t_count, -1),
            cross.imag.reshape(t_count, -1),
        ],
        axis=1,
    )
    return feats[0] if single else feats


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
        feats = np.asarray(features, dtype=float)
        single = feats.ndim == 1
        if single:
            feats = feats[None]
        if feats.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"feature length {feats.shape[1]} does not match the model "
                f"input size {self.weights[0].shape[0]}"
            )
        a = (feats - self.feature_mean) / self.feature_scale
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        out = a @ self.weights[-1] + self.biases[-1]
        out = out * self.target_scale + self.target_mean
        out = np.clip(out, self.clip_lower, self.clip_upper)
        return out[0] if single else out


def train_net(
    features,
    targets,
    *,
    hidden=(256, 256, 256),
    epochs: int = 40,
    batch_size: int = 256,
    learning_rate: float = 1e-3,
    seed=0,
    clip_lower=None,
    clip_upper=None,
):
    """Train the position regressor with Adam on mean-squared error.

    Returns (model, loss_curve) where loss_curve[e] is the mean minibatch
    loss of epoch e in standardized target units. Raises TrainingError if
    the loss ever goes non-finite.
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
    f_std = feats.std(axis=0)
    f_scale = np.where(f_std < 1e-12, 1.0, f_std)
    t_mean = targs.mean(axis=0)
    t_std = targs.std(axis=0)
    t_scale = np.where(t_std < 1e-12, 1.0, t_std)
    x_all = (feats - f_mean) / f_scale
    y_all = (targs - t_mean) / t_scale

    if clip_lower is None:
        clip_lower = targs.min(axis=0)
    if clip_upper is None:
        clip_upper = targs.max(axis=0)

    rng = np.random.default_rng(seed)
    sizes = [feats.shape[1], *[int(h) for h in hidden], targs.shape[1]]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        # He-style scaling keeps ReLU activations from dying out.
        weights.append(rng.standard_normal((fan_in, fan_out)) * math.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    loss_curve = []

    for epoch in range(epochs):
        order = rng.permutation(count)
        epoch_losses = []
        for start in range(0, count, batch_size):
            batch = order[start : start + batch_size]
            x = x_all[batch]
            y = y_all[batch]

            acts = [x]
            a = x
            for w, b in zip(weights[:-1], biases[:-1]):
                a = np.maximum(a @ w + b, 0.0)
                acts.append(a)
            pred = a @ weights[-1] + biases[-1]

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
            for layer in range(len(weights)):
                for store_m, store_v, param, g in (
                    (m_w, v_w, weights, grads_w),
                    (m_b, v_b, biases, grads_b),
                ):
                    store_m[layer] = beta1 * store_m[layer] + (1 - beta1) * g[layer]
                    store_v[layer] = beta2 * store_v[layer] + (1 - beta2) * g[layer] ** 2
                    param[layer] -= (
                        learning_rate
                        * (store_m[layer] / bias1)
                        / (np.sqrt(store_v[layer] / bias2) + eps)
                    )
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

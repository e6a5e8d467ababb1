"""Monte-Carlo experiment driver: mismatch curves, datasets, reports.

One experiment sweeps a target SNR grid. At each point it simulates trials
under the presumed environment and under the actual environment, localizes
every trial with the presumed-model estimator, and assembles the empirical
RMSE values, the sample-based bound, and the closed-form bound into one
curve row.

Determinism contract: every random stream is derived from the single master
seed through derive_seed(master, stage, index), and observations are drawn
in TRIAL_CHUNK-sized chunks that each own such a stream. Results are
therefore byte-identical for a fixed config and seed, regardless of worker
count. The scene streams are "source" (source position, when the config
gives none) and "attenuation" (presumed-environment average attenuation).
Observation streams are "trial-q:i" and "trial-p:i" (SNR point i),
"train-observations", "dataset-observations" and "simulate", indexed by
chunk. Each chunk of `count` observations x = s h + v draws, in this order:
the waveform s, real parts then imaginary parts, shape (count, N); then the
noise v, real parts then imaginary parts, shape (count, L, N).

Each pipeline step is one function here that the sweep and the command
line both call: observation_chunks (every draw; the sweep's trials share
its chunking and per-chunk draw, so that each chunk can run as its own
unit), derive_scene, source_response, build_training_set,
train_model, grid_evaluator, and the dump writers simulate and
generate_dataset. Every position a step forms is
far-field: building an ExperimentConfig checks that the volume, the grid
box and an explicit source lie in both water columns and keep
channel.DEFAULT_MIN_DISTANCE from every receiver.

Workers: every process of a sweep gets share = max(1, cores // W) of the
cores, W = min(workers, SNR points), cores being signal.core_count(). Before
set-up starts any thread, run_experiment limits glibc malloc to one arena
(_one_malloc_arena), so threads do not each keep their own freed memory.
Set-up runs in the parent before any pool: its response stacks (the ML
grid, the net's training set) are built on one thread per core inside each
signal.response_stack_batch call, and those threads end with the call, so
no thread is alive when a pool forks. The trials then run as units, one
chunk of one point's q or p half each, through one scheduler (_run_points)
on a pool or on threads, which _trial_phase picks: with W > 1 a pool of W
forked processes, each capping the OpenBLAS that numpy loaded at share
threads (see _init_worker); with W = 1, for either estimator, threads in
the parent: two on a share of at least 2 cores, whose OpenBLAS is capped
at share // 2 threads for the trial phase and restored afterwards, and one
where the share is 1 core or no OpenBLAS can be capped. No unit runs on
the calling thread. Every unit is queued up front in the serial order,
and run_experiment assembles each point on the calling thread as soon as
its units are done, while later points run. A failure cancels the later
units not yet started; the StageError raised is the same at every worker
count, the first in the order point 0's trials (q half, then p half),
point 0's assembly, point 1's trials, and so on.
Two ML threads share one GridEvaluator and its cached noise level: a
point's q and p chunks use the same level, and a chunk at the next level
replaces it without waiting for the other thread (see GridEvaluator).

SNR accounting: the reported target SNR is average received signal power
over noise power, so the noise power at a grid point is
signal_power * average_attenuation / snr_linear. Closed-form divergences
take the raw ratio signal_power / noise_power; response energies carry the
attenuation there.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import threading
import time
import zlib
from collections.abc import Callable
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import channel, signal as signal_mod
from .errors import ConfigError, StageError, finite, finite_array, items, whole
from .localize import (
    GridEvaluator,
    GridSpec,
    TrainingSet,
    extract_features,
    train_net,
)

SIGNAL_POWER = 1.0
TRIAL_CHUNK = 500
DEFAULT_SNR_DB = tuple(range(-10, 31, 2))

CSV_COLUMNS = (
    "snr_db",
    "rmse_q",
    "rmse_p",
    "bound_strong",
    "bound_weak",
    "delta2",
    "csd_estimate",
    "condition_ok",
    "trials",
    "seed",
)


def derive_seed(master: int, stage: str, index: int) -> np.random.SeedSequence:
    """Deterministic per-stage seed: entropy [master, crc32(stage), index]."""
    return np.random.SeedSequence(
        [int(master), zlib.crc32(stage.encode("utf-8")), int(index)]
    )


@dataclass
class NetConfig:
    train_size: int = 6000
    train_snr_db: float = 16.0
    hidden: tuple = (256, 256, 256)
    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 1e-3

    def __post_init__(self):
        for name in ("train_size", "epochs", "batch_size"):
            setattr(self, name, whole(getattr(self, name), name))
        self.hidden = items(self.hidden, whole, "hidden")
        self.train_snr_db = finite(self.train_snr_db, "train_snr_db")
        self.learning_rate = finite(self.learning_rate, "learning_rate")
        if self.train_size < 2:
            raise ConfigError(f"net train_size must be >= 2, got {self.train_size}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"net hidden widths must be >= 1, got {list(self.hidden)}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("net epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError(f"net learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class ExperimentConfig:
    environment_q: channel.Environment
    environment_p: channel.Environment
    geometry: channel.Geometry
    n_bins: int
    sample_period: float
    snr_db: tuple = DEFAULT_SNR_DB
    trials: int = 10000
    estimator: str = "ml"
    grid: GridSpec | None = None
    net: NetConfig = field(default_factory=NetConfig)
    csd_k: int = 5
    seed: int = 0
    source: np.ndarray | None = None
    attenuation_samples: int = 2048

    def __post_init__(self):
        for name in ("n_bins", "trials", "csd_k", "seed", "attenuation_samples"):
            setattr(self, name, whole(getattr(self, name), name))
        self.sample_period = finite(self.sample_period, "sample_period")
        self.snr_db = items(self.snr_db, finite, "snr_db")
        if self.estimator not in ("ml", "net"):
            raise ConfigError(f"unknown estimator '{self.estimator}'")
        if self.n_bins < 1 or self.sample_period <= 0:
            raise ConfigError("need n_bins >= 1 and sample_period > 0")
        if self.csd_k < 2:
            raise ConfigError(f"csd_k must be >= 2, got {self.csd_k}")
        if self.trials < self.csd_k + 1:
            raise ConfigError(
                f"trials must be >= csd_k + 1 = {self.csd_k + 1} for the "
                f"divergence estimate, got {self.trials}"
            )
        if len(self.snr_db) == 0:
            raise ConfigError("snr grid is empty")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        depth = min(self.environment_q.water_depth, self.environment_p.water_depth)
        if self.grid is None:
            self.grid = GridSpec(**_grid_defaults(self.geometry.volume))
        receivers = self.geometry.receivers
        boxes = {"volume": self.geometry.volume,
                 "grid box": (self.grid.lower, self.grid.upper)}
        if self.source is not None:
            self.source = finite_array(self.source, "source coordinates").reshape(-1)
            if self.source.size != 3:
                raise ConfigError(f"source needs 3 coordinates, got {self.source.size}")
            boxes["source"] = (self.source, self.source)
        problems = channel.box_issues(boxes, receivers, depth)
        if np.any(receivers[:, 2] < 0) or np.any(receivers[:, 2] > depth):
            problems.insert(0, "receiver depths must lie in [0, water_depth]")
        if problems:
            raise ConfigError("invalid scene: " + "; ".join(problems))


def _grid_defaults(volume: np.ndarray) -> dict:
    """The grid's defaults, for a grid left out whole or in part: the search
    volume's corners, (31, 31, 7) nodes and peak interpolation on."""
    return {"lower": volume[0], "upper": volume[1], "counts": (31, 31, 7),
            "peak_interpolation": True}


def _read(cls, data, section: str, defaults: dict | None = None):
    """cls built from the JSON object data; the one reader of config JSON.

    null reads as {}. Keys that data leaves out take defaults, then the
    dataclass's own. A non-object, a key that names no field of cls and a
    field that nothing gives raise ConfigError; cls checks the values.
    """
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError(f"config '{section}' must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    unknown = data.keys() - {item.name for item in fields}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    values = {**(defaults or {}), **data}
    for item in fields:
        required = (item.default is dataclasses.MISSING
                    and item.default_factory is dataclasses.MISSING)
        if required and item.name not in values:
            raise ConfigError(f"{section} is missing '{item.name}'")
    return cls(**values)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON.

    Each nested object is read into its dataclass first, the grid with the
    search volume's defaults, then the top level.
    """
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    data = dict(data)
    for name, cls in (("environment_q", channel.Environment),
                      ("environment_p", channel.Environment),
                      ("geometry", channel.Geometry), ("net", NetConfig)):
        if name in data:
            data[name] = _read(cls, data[name], name)
    if "geometry" in data:
        defaults = _grid_defaults(data["geometry"].volume)
        data["grid"] = _read(GridSpec, data.get("grid"), "grid", defaults)
    return _read(ExperimentConfig, data, "config")


def config_to_dict(value):
    """Round-trippable JSON form of a config (for report echo); the one writer.

    Recurses into every value: a dataclass becomes an object of its
    fields, an array or tuple a list, a complex [re, im].
    """
    if dataclasses.is_dataclass(value):
        return {item.name: config_to_dict(getattr(value, item.name))
                for item in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [config_to_dict(item) for item in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


@dataclass
class CurvePoint:
    snr_db: float
    rmse_q: float
    rmse_p: float
    bound_strong: float
    bound_weak: float
    delta2: float
    csd_estimate: float
    condition_ok: bool
    trials: int
    seed: int

    def row(self) -> list:
        out = []
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            if name == "condition_ok":
                out.append("true" if value else "false")
            elif name in ("trials", "seed"):
                out.append(str(int(value)))
            else:
                out.append(repr(float(value)))
        return out


@dataclass
class ExperimentResult:
    points: list
    metadata: dict


def _draw_observations(master: int, stage: str, chunk_idx: int, h: np.ndarray,
                       noise_power: float, count: int) -> np.ndarray:
    """One chunk of count observations x = s h + v, shape (count, L, N).

    h is one (L, N) response shared by every observation or a (count, L, N)
    stack with one response per observation. The draw order is the one in
    the module docstring. Every draw passes through one float64 scratch
    buffer into the real or imaginary part it scales, so beyond the result
    no complex temporary is made; the bits are those of
    s = sqrt(P/2) (re + 1j im) per draw and x = s h + v.
    """
    if not (math.isfinite(noise_power) and noise_power >= 0):
        raise ConfigError(f"noise power must be finite and >= 0, got {noise_power!r}")
    rng = np.random.default_rng(derive_seed(master, stage, chunk_idx))
    shape = (count, *h.shape[-2:])
    scratch = np.empty(math.prod(shape))
    waveform = np.empty((count, shape[-1]), dtype=complex)
    draws = scratch[: waveform.size].reshape(waveform.shape)
    for part in (waveform.real, waveform.imag):
        rng.standard_normal(out=draws)
        np.multiply(draws, math.sqrt(SIGNAL_POWER / 2.0), out=part)
    observations = waveform[:, None, :] * h
    draws = scratch.reshape(shape)
    for part in (observations.real, observations.imag):
        rng.standard_normal(out=draws)
        draws *= math.sqrt(noise_power / 2.0)
        part += draws
    return observations


def observation_chunks(master: int, stage: str, h: np.ndarray | Callable,
                       noise_power: float, count: int):
    """Yield (rows, observations) for count observations, chunk by chunk.

    rows is the slice of the full (count, L, N) block that the chunk fills.
    h is one (L, N) response shared by every observation, or a function
    that maps rows to the chunk's (size, L, N) stack of per-observation
    responses. A caller with one response per observation thus builds one
    chunk's stack at a time and never holds the (count, L, N) stack.
    """
    for chunk_idx, rows in enumerate(_chunk_rows(count)):
        block = h(rows) if callable(h) else h
        yield rows, _draw_observations(master, stage, chunk_idx, block,
                                       noise_power, rows.stop - rows.start)


def _chunk_rows(count: int) -> list:
    """The row slice of each TRIAL_CHUNK-sized chunk of count observations."""
    return [slice(start, min(start + TRIAL_CHUNK, count))
            for start in range(0, count, TRIAL_CHUNK)]


@contextmanager
def _stage(name: str, seed: int):
    """Re-raise a failure inside the block as StageError(name, seed).

    ConfigError passes through unchanged, so a configuration problem found
    in any stage still reads as one.
    """
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise StageError(name, seed, exc) from exc


# Worker-side state for process pools; set once per worker by the
# initializer, so the grid stacks reach a worker once (a forked worker
# inherits them), not with every unit.
_WORKER_STATE = None


def _openblas_functions(*names: str) -> list:
    """Per OpenBLAS this process loaded, its ctypes functions openblas_<name>.

    Libraries are found as threadpoolctl finds them: every mapped file of
    /proc/self/maps whose name holds "openblas" is opened with RTLD_NOLOAD.
    Each library gives one tuple, a function per name, under the first
    symbol scheme among scipy_openblas_<name>64_, scipy_openblas_<name>,
    openblas_<name>64_ and openblas_<name> that exports every name. Empty
    where /proc/self/maps does not exist or no OpenBLAS is loaded.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            mapped = [line.split(maxsplit=5) for line in handle]
    except OSError:
        return []
    paths = dict.fromkeys(
        parts[5].strip() for parts in mapped
        if len(parts) == 6 and "openblas" in os.path.basename(parts[5]).lower()
    )
    functions = []
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            found = tuple(
                getattr(library, f"{prefix}openblas_{name}{suffix}", None)
                for name in names
            )
            if None not in found:
                functions.append(found)
                break
    return functions


def _set_blas_threads(threads: int) -> list:
    """Set every OpenBLAS this process loaded to `threads` threads.

    Returns (set_num_threads, previous count) per library, so a caller
    restores exactly what it changed; empty where no OpenBLAS is loaded.
    """
    changed = []
    for get_threads, set_threads in _openblas_functions(
        "get_num_threads", "set_num_threads"
    ):
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        changed.append((set_threads, get_threads()))
        set_threads(threads)
    return changed


# mallopt's parameter number for the arena limit, from glibc's malloc.h.
_M_ARENA_MAX = -8


@cache
def _one_malloc_arena() -> None:
    """Limit glibc malloc to its main arena, once per process.

    Each thread that allocates would otherwise get an arena of its own,
    which keeps the memory that thread frees. Arenas made before the call
    stay in use, so it has to run before any thread allocates. Where the C
    library has no mallopt it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _core_share(workers: int) -> int:
    """Cores per process when `workers` processes split this one's CPUs."""
    return max(1, signal_mod.core_count() // workers)


def _init_worker(state):
    """Keep the run state and cap BLAS at this worker's share of the cores.

    Without the cap every forked worker keeps the parent's BLAS thread
    count, and workers x threads oversubscribe the cores.
    """
    global _WORKER_STATE
    _WORKER_STATE = state
    _set_blas_threads(state["share"])


def _estimate(state, obs: np.ndarray, noise_power: float) -> np.ndarray:
    """Error samples (estimate - source) of one chunk of observations."""
    if state["estimator"] == "ml":
        estimates = state["evaluator"].locate(obs, SIGNAL_POWER, noise_power)
    else:
        estimates = state["model"].predict(extract_features(obs, state["attenuation"]))
    return estimates - state["source"][None, :]


def _trial_chunk(state, master: int, point_idx: int, kind: str,
                 noise_power: float, chunk_idx: int, count: int) -> np.ndarray:
    """Error samples (count, 3) of one chunk of SNR point point_idx's q or p half."""
    obs = _draw_observations(master, f"trial-{kind}:{point_idx}", chunk_idx,
                             state[f"h_{kind}"], noise_power, count)
    return _estimate(state, obs, noise_power)


def _pooled_chunk(*unit) -> np.ndarray:
    """_trial_chunk in a pool worker, on the state that _init_worker kept."""
    return _trial_chunk(_WORKER_STATE, *unit)


def _run_points(tasks: list, submit: Callable):
    """Yield each task's errors {"q": (trials, 3), "p": (trials, 3)}, in order.

    A unit is one chunk of one point's q or p half. Every unit is submitted
    up front in the serial order (point 0's q chunks, its p chunks, point 1,
    and so on) through submit(*unit) -> Future, which _trial_phase gives;
    the workers take units in that order, and a point is yielded as soon as
    its own units are done. The first failure cancels every later unit not
    yet started and stops the submitting. Outcomes are read in order, so
    the results and the failure are the serial ones whether a pool or
    threads ran the units: StageError ("snr[i]:q" or "snr[i]:p") of the
    first failing half.
    """
    units = [
        (master, point_idx, kind, noise_power, chunk_idx, rows.stop - rows.start)
        for master, point_idx, noise_power, trials in tasks
        for kind in ("q", "p")
        for chunk_idx, rows in enumerate(_chunk_rows(trials))
    ]
    futures, stopped = [], threading.Event()

    def stop_after(index, future):
        # Units start in order, so none before a failing one still waits. A
        # broken pool fails its pending units itself and cannot fail a
        # cancelled one.
        failure = None if future.cancelled() else future.exception()
        if failure is not None and not isinstance(failure, BrokenExecutor):
            stopped.set()
            for later in futures[index + 1 :]:
                later.cancel()

    for index, unit in enumerate(units):
        if stopped.is_set():
            break
        try:
            future = submit(*unit)
        except BrokenExecutor as exc:  # a worker died since the last submit
            future = Future()
            future.set_exception(exc)
        futures.append(future)
        future.add_done_callback(partial(stop_after, index))
        if stopped.is_set():  # a failure seen after the check above
            future.cancel()

    outcomes = iter(futures)
    for master, point_idx, _, trials in tasks:
        errors = {}
        for kind in ("q", "p"):
            with _stage(f"snr[{point_idx}]:{kind}", master):
                errors[kind] = np.concatenate(
                    [next(outcomes).result() for _ in _chunk_rows(trials)]
                )
        yield errors


@contextmanager
def _trial_phase(state, workers: int):
    """The submit for _run_points: the one place that picks where units run.

    - W > 1: a pool of W forked processes, each keeping the state and
      capping its OpenBLAS at state["share"] threads (see _init_worker). A
      unit reaches a worker as its arguments only, through _pooled_chunk,
      so the state is never pickled per unit.
    - W = 1: threads in this process, none of them the calling one. Two
      when the share is at least 2 cores and an OpenBLAS whose threads can
      be set is loaded, with every OpenBLAS capped at share // 2 threads
      so the two threads' GEMMs do not oversubscribe the cores; the old
      counts come back on exit. One otherwise. The rule is the same for
      both estimators: the ML scorer keeps no design and malloc keeps one
      arena, so two ML threads hold about what one did.

    On exit, also on a raise, the executor cancels the units still queued,
    waits for the running ones and shuts down.
    """
    changed = []
    if workers > 1:
        executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(state,)
        )
        submit = partial(executor.submit, _pooled_chunk)
    else:
        if state["share"] >= 2:
            changed = _set_blas_threads(state["share"] // 2)
        executor = ThreadPoolExecutor(max_workers=2 if changed else 1)
        submit = partial(executor.submit, _trial_chunk, state)
    try:
        yield submit
    finally:
        executor.shutdown(cancel_futures=True)
        for set_threads, count in changed:
            set_threads(count)


def _uniform_positions(rng, volume: np.ndarray, count: int) -> np.ndarray:
    lo, hi = volume
    return rng.uniform(lo, hi, size=(count, 3))


def derive_scene(config: ExperimentConfig) -> tuple:
    """(source, attenuation): what every command derives before drawing.

    source is config.source, or a uniform draw over the search volume from
    the "source" stream; attenuation is the presumed environment's average
    attenuation over the volume from the "attenuation" stream.
    """
    if config.source is None:
        rng = np.random.default_rng(derive_seed(config.seed, "source", 0))
        source = _uniform_positions(rng, config.geometry.volume, 1)[0]
    else:
        source = config.source
    attenuation = channel.average_attenuation(
        config.environment_q,
        config.geometry,
        sample_count=config.attenuation_samples,
        rng_seed=derive_seed(config.seed, "attenuation", 0),
    )
    return source, attenuation


def noise_level(attenuation: float, snr_db: float) -> float:
    """Noise power that puts the average received signal power snr_db above it;
    ConfigError if that power is not a finite, positive float."""
    try:
        power = SIGNAL_POWER * attenuation / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        power = math.nan
    if not 0.0 < power < math.inf:
        raise ConfigError(f"snr {snr_db!r} dB gives no finite, positive noise power")
    return power


def source_response(config: ExperimentConfig, env: channel.Environment,
                    source: np.ndarray) -> np.ndarray:
    """The (L, N) response of env at the source."""
    return signal_mod.response_stack(
        env, config.geometry.receivers, source, config.n_bins, config.sample_period
    )


def _presumed_stacks(config: ExperimentConfig, positions: np.ndarray):
    """rows -> the presumed environment's (rows, L, N) stacks at positions[rows]."""
    return lambda rows: signal_mod.response_stack_batch(
        config.environment_q,
        config.geometry.receivers,
        positions[rows],
        config.n_bins,
        config.sample_period,
    )


def build_training_set(config: ExperimentConfig, attenuation: float) -> TrainingSet:
    """Labelled features drawn from the presumed environment at train SNR.

    Response stacks, observations and features are made one observation
    chunk at a time, so beyond the returned (train_size, F) features and
    (train_size, 3) targets the transient is one chunk's worth, whatever
    train_size is.
    """
    net = config.net
    rng_pos = np.random.default_rng(derive_seed(config.seed, "train-positions", 0))
    positions = _uniform_positions(rng_pos, config.geometry.volume, net.train_size)
    feats = None
    for rows, obs in observation_chunks(
        config.seed, "train-observations", _presumed_stacks(config, positions),
        noise_level(attenuation, net.train_snr_db), net.train_size,
    ):
        block_feats = extract_features(obs, attenuation)
        if feats is None:
            feats = np.empty((net.train_size, block_feats.shape[1]))
        feats[rows] = block_feats
    return TrainingSet(features=feats, targets=positions)


def train_model(config: ExperimentConfig, training: TrainingSet) -> tuple:
    """(model, loss_curve) of the net that config.net describes, fitted to training.

    The one place config.net becomes train_net's arguments: the weights
    draw from the "train-net" stream and predictions are clipped to the
    search volume.
    """
    net = config.net
    return train_net(
        training.features,
        training.targets,
        hidden=net.hidden,
        epochs=net.epochs,
        batch_size=net.batch_size,
        learning_rate=net.learning_rate,
        seed=derive_seed(config.seed, "train-net", 0),
        clip_lower=config.geometry.volume[0],
        clip_upper=config.geometry.volume[1],
    )


def grid_evaluator(config: ExperimentConfig) -> GridEvaluator:
    """The ML scorer: config.grid's nodes in the presumed environment."""
    return GridEvaluator.from_scene(
        config.environment_q,
        config.geometry.receivers,
        config.grid,
        config.n_bins,
        config.sample_period,
    )


def _prepare_state(config: ExperimentConfig) -> dict:
    """Everything the per-chunk trial runner needs, built deterministically."""
    source, attenuation = derive_scene(config)
    state = {
        "estimator": config.estimator,
        "source": source,
        "attenuation": attenuation,
        "h_q": source_response(config, config.environment_q, source),
        "h_p": source_response(config, config.environment_p, source),
        "evaluator": None,
        "model": None,
    }
    if config.estimator == "ml":
        state["evaluator"] = grid_evaluator(config)
    return state


def run_experiment(
    config: ExperimentConfig, *, workers: int = 1, progress=None
) -> ExperimentResult:
    """Sweep the SNR grid and assemble curve points plus metadata.

    progress, if given, is called with one status string per finished stage.
    Failures inside a stage surface as StageError carrying the stage name
    and the master seed; a ConfigError passes through unchanged.
    """
    started = time.monotonic()
    _one_malloc_arena()

    def note(text):
        if progress is not None:
            progress(text)

    with _stage("setup", config.seed):
        state = _prepare_state(config)
    noise_powers = [noise_level(state["attenuation"], db) for db in config.snr_db]

    loss_curve = None
    if config.estimator == "net":
        with _stage("train", config.seed):
            state["model"], loss_curve = train_model(
                config, build_training_set(config, state["attenuation"])
            )
        note(f"trained net, final loss {loss_curve[-1]:.4g}")

    tasks = [
        (config.seed, idx, noise_powers[idx], config.trials)
        for idx in range(len(config.snr_db))
    ]
    workers = min(workers, len(tasks))
    state["share"] = _core_share(workers)
    points = []
    excluded = []
    with _trial_phase(state, workers) as submit:
        # Each point is assembled here while the later points' trials run.
        for idx, (db, gather) in enumerate(zip(config.snr_db, _run_points(tasks, submit))):
            with _stage(f"snr[{idx}]:assemble", config.seed):
                evaluation = bounds_mod.strong_bound(gather["q"], gather["p"], k_nn=config.csd_k)
                snr_raw = SIGNAL_POWER / noise_powers[idx]
                delta2 = bounds_mod.delta_squared_closed_form(state["h_q"], state["h_p"], snr_raw)
                _, condition_ok = bounds_mod.gamma_and_condition(
                    state["h_q"], state["h_p"], snr_raw
                )
                weak_mse = bounds_mod.weak_bound(evaluation.mse_q, evaluation.var_q, delta2)
                point = CurvePoint(
                    snr_db=float(db),
                    rmse_q=math.sqrt(evaluation.mse_q),
                    rmse_p=math.sqrt(evaluation.mse_p),
                    bound_strong=math.sqrt(evaluation.strong_bound),
                    bound_weak=math.sqrt(weak_mse),
                    delta2=delta2,
                    csd_estimate=evaluation.csd_error,
                    condition_ok=condition_ok,
                    trials=config.trials,
                    seed=config.seed,
                )
            points.append(point)
            excluded.append(evaluation.excluded_points)
            note(
                f"snr {db:+.1f} dB: rmse_q {point.rmse_q:.3g} rmse_p {point.rmse_p:.3g} "
                f"strong {point.bound_strong:.3g}"
            )

    metadata = {
        "config": config_to_dict(config),
        "source": [float(v) for v in state["source"]],
        "attenuation_q": float(state["attenuation"]),
        "quantization_floor": config.grid.quantization_floor(),
        "csd_excluded_points": excluded,
        "estimator": config.estimator,
        "elapsed_seconds": time.monotonic() - started,
        "versions": _version_stamp(),
    }
    if loss_curve is not None:
        metadata["net_loss_curve"] = [float(v) for v in loss_curve]
    return ExperimentResult(points=points, metadata=metadata)


def _version_stamp() -> dict:
    import platform

    import scipy

    from . import __version__

    return {
        "uwloc": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def emit_outputs(result: ExperimentResult, out_dir) -> dict:
    """Write curve.csv, curve.dat (gnuplot), and report.txt; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curve_csv = out / "curve.csv"
    rows = [point.row() for point in result.points]
    with open(curve_csv, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")

    curve_dat = out / "curve.dat"
    with open(curve_dat, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# " + " ".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(" ".join(row) + "\n")

    report = out / "report.txt"
    meta = result.metadata
    lines = []
    lines.append("environment mismatch localization experiment")
    lines.append("=" * len(lines[0]))
    versions = meta.get("versions", {})
    lines.append(" | ".join(
        f"{name} {versions.get(name, '?')}" for name in ("uwloc", "numpy", "scipy", "python")
    ))
    lines.append(f"estimator: {meta.get('estimator')}")
    lines.append(f"source: {meta.get('source')}")
    lines.append(f"average attenuation (presumed env): {meta.get('attenuation_q')!r}")
    lines.append(f"grid quantization floor: {meta.get('quantization_floor')!r} m")
    if "net_loss_curve" in meta:
        lines.append(f"net final training loss: {meta['net_loss_curve'][-1]!r}")
    lines.append(f"elapsed seconds: {meta.get('elapsed_seconds'):.1f}")
    lines.append("")
    lines.append("config:")
    lines.append(json.dumps(meta.get("config", {}), indent=2, sort_keys=True))
    lines.append("")
    widths = [max(len(c), 12) for c in CSV_COLUMNS]
    lines.append("  ".join(c.rjust(w) for c, w in zip(CSV_COLUMNS, widths)))
    for row in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    ok_count = sum(1 for p in result.points if p.condition_ok)
    lines.append("")
    lines.append(
        f"finiteness condition satisfied at {ok_count} of {len(result.points)} points"
    )
    excluded = meta.get("csd_excluded_points", [])
    if excluded:
        lines.append("")
        lines.append("actual-model error samples csd_estimate excluded as duplicates:")
        for point, count in zip(result.points, excluded):
            lines.append(f"  snr {point.snr_db:+.1f} dB: {count} of {point.trials}")
    with open(report, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return {"curve_csv": curve_csv, "curve_dat": curve_dat, "report": report}


def parse_curve_csv(path) -> list:
    """Read back a curve.csv written by emit_outputs."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ConfigError(f"{path} does not start with the expected curve header")
    points = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ConfigError(f"curve row has {len(cells)} cells: {line!r}")
        values = {}
        for name, cell in zip(CSV_COLUMNS, cells):
            if name == "condition_ok":
                if cell not in ("true", "false"):
                    raise ConfigError(f"bad condition flag {cell!r}")
                values[name] = cell == "true"
            elif name in ("trials", "seed"):
                values[name] = int(cell)
            else:
                values[name] = float(cell)
        points.append(CurvePoint(**values))
    return points


def write_positions(path, positions) -> None:
    """Write (count, 3) positions as an "x,y,z" CSV, floats in repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("x,y,z\n")
        for row in positions:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_observations(out_dir, config: ExperimentConfig, stage: str, h,
                        count: int, snr_db: float, attenuation: float,
                        extra: dict) -> dict:
    """Draw count observations from stage's stream and write them to out_dir.

    h is as in observation_chunks; the noise sits snr_db below the average
    received signal. Writes observations.bin and meta.json (count, SNR,
    noise power, attenuation, seed and bins, plus extra); returns the paths.
    """
    noise_power = noise_level(attenuation, snr_db)
    values = None
    for rows, obs in observation_chunks(config.seed, stage, h, noise_power, count):
        if values is None:
            values = np.empty((count, *obs.shape[1:]), dtype=complex)
        values[rows] = obs
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"observations": out / "observations.bin", "meta": out / "meta.json"}
    signal_mod.save_observations(paths["observations"], values, seed=config.seed)
    meta = {
        "count": count,
        "snr_db": snr_db,
        "noise_power": noise_power,
        "attenuation": attenuation,
        "seed": config.seed,
        "n_bins": config.n_bins,
        "sample_period": config.sample_period,
        **extra,
    }
    with open(paths["meta"], "w", encoding="utf-8", newline="\n") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return paths


def generate_dataset(
    config: ExperimentConfig, count: int, snr_db: float, out_dir
) -> dict:
    """Sample labelled observations from the presumed environment to disk.

    Writes observations.bin (stacked spectra), labels.csv (x,y,z rows), and
    meta.json. Positions and noise derive from the master seed, stages
    'dataset-positions' and 'dataset-observations'.
    """
    if count < 1:
        raise ConfigError("dataset count must be >= 1")
    rng = np.random.default_rng(derive_seed(config.seed, "dataset-positions", 0))
    positions = _uniform_positions(rng, config.geometry.volume, count)
    _, attenuation = derive_scene(config)
    paths = _write_observations(
        out_dir, config, "dataset-observations", _presumed_stacks(config, positions),
        count, snr_db, attenuation, {"config": config_to_dict(config)},
    )
    paths["labels"] = Path(out_dir) / "labels.csv"
    write_positions(paths["labels"], positions)
    return paths


def simulate(config: ExperimentConfig, count: int, snr_db: float,
             environment: str, out_dir) -> np.ndarray:
    """Observations of the config's source to disk; returns the source.

    environment "q" draws them in the presumed environment, "p" in the
    actual one, from the "simulate" stream; the noise level is set by the
    presumed environment's attenuation either way. Writes observations.bin
    and meta.json.
    """
    if count < 1:
        raise ConfigError("simulate count must be >= 1")
    env = config.environment_q if environment == "q" else config.environment_p
    source, attenuation = derive_scene(config)
    h = source_response(config, env, source)
    _write_observations(
        out_dir, config, "simulate", h, count, snr_db, attenuation,
        {"source": [float(v) for v in source], "environment": environment},
    )
    return source


def default_experiment_config() -> dict:
    """Documented shallow-water scenario with a moderate environment mismatch.

    The presumed environment is a 100 m column with a mild downward
    gradient and a 0.6 bottom reflection. The actual environment differs
    the way a survey can be wrong: 2 m shallower, sound speed off by about
    2 m/s with a different profile shape, and a softer bottom (0.5). The
    perturbation shifts multipath delays by a fraction of a cycle at the
    band edge, so the peak of the presumed-model search surface stays in
    the correct grid cell at high SNR while its shape degrades through the
    threshold region.
    """
    return {
        "environment_q": {
            "water_depth": 100.0,
            "ssp": [[0.0, 1510.0], [40.0, 1500.0], [100.0, 1490.0]],
            "surface_reflection": [-0.95, 0.0],
            "bottom_reflection": [0.6, 0.0],
            "absorption_db_per_m": 5e-4,
            "ray_budget": 6,
        },
        "environment_p": {
            "water_depth": 98.0,
            "ssp": [[0.0, 1512.0], [40.0, 1498.5], [98.0, 1489.0]],
            "surface_reflection": [-0.95, 0.0],
            "bottom_reflection": [0.5, 0.0],
            "absorption_db_per_m": 5e-4,
            "ray_budget": 6,
        },
        "geometry": {
            "receivers": [
                [0.0, 0.0, 30.0],
                [600.0, 0.0, 40.0],
                [0.0, 600.0, 50.0],
                [600.0, 600.0, 35.0],
            ],
            "volume": [[150.0, 150.0, 20.0], [450.0, 450.0, 80.0]],
        },
        "n_bins": 64,
        "sample_period": 0.016,
        "snr_db": [float(v) for v in range(-10, 20, 2)],
        "trials": 10000,
        "estimator": "ml",
        "grid": {"counts": [31, 31, 7], "peak_interpolation": True},
        "net": {
            "train_size": 6000,
            "train_snr_db": 16.0,
            "hidden": [256, 256, 256],
            "epochs": 40,
            "batch_size": 256,
            "learning_rate": 1e-3,
        },
        "csd_k": 5,
        "seed": 20260814,
        "source": None,
        "attenuation_samples": 2048,
    }

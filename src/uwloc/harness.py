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

SNR accounting: the reported target SNR is average received signal power
over noise power, so the noise power at a grid point is
signal_power * average_attenuation / snr_linear. Closed-form divergences
take the raw ratio signal_power / noise_power; response energies carry the
attenuation there.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import channel, signal as signal_mod
from .errors import ConfigError, StageError
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
        if self.grid is None:
            self.grid = GridSpec(
                lower=self.geometry.volume[0],
                upper=self.geometry.volume[1],
                counts=(31, 31, 7),
                peak_interpolation=True,
            )
        if self.source is not None:
            self.source = np.asarray(self.source, dtype=float).reshape(3)


_GRID_KEYS = {"counts", "lower", "upper", "peak_interpolation"}
_NET_KEYS = {
    "train_size",
    "train_snr_db",
    "hidden",
    "epochs",
    "batch_size",
    "learning_rate",
}
_TOP_KEYS = {
    "environment_q",
    "environment_p",
    "geometry",
    "n_bins",
    "sample_period",
    "snr_db",
    "trials",
    "estimator",
    "grid",
    "net",
    "csd_k",
    "seed",
    "source",
    "attenuation_samples",
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("environment_q", "environment_p", "geometry", "n_bins", "sample_period"):
        if key not in data:
            raise ConfigError(f"config is missing '{key}'")
    env_q = channel.environment_from_dict(data["environment_q"])
    env_p = channel.environment_from_dict(data["environment_p"])
    geometry = channel.geometry_from_dict(data["geometry"])
    problems = channel.validate_environment(env_q) + channel.validate_environment(env_p)
    problems += channel.validate_geometry(geometry, env_q)
    if problems:
        raise ConfigError("invalid scene: " + "; ".join(problems))

    grid = None
    if "grid" in data and data["grid"] is not None:
        gd = dict(data["grid"])
        unknown = set(gd) - _GRID_KEYS
        if unknown:
            raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
        grid = GridSpec(
            lower=np.asarray(gd.get("lower", geometry.volume[0]), dtype=float),
            upper=np.asarray(gd.get("upper", geometry.volume[1]), dtype=float),
            counts=np.asarray(gd.get("counts", (31, 31, 7)), dtype=int),
            peak_interpolation=bool(gd.get("peak_interpolation", False)),
        )

    net = NetConfig()
    if "net" in data and data["net"] is not None:
        nd = dict(data["net"])
        unknown = set(nd) - _NET_KEYS
        if unknown:
            raise ConfigError(f"unknown net keys: {sorted(unknown)}")
        defaults = NetConfig()
        net = NetConfig(
            train_size=int(nd.get("train_size", defaults.train_size)),
            train_snr_db=float(nd.get("train_snr_db", defaults.train_snr_db)),
            hidden=tuple(int(h) for h in nd.get("hidden", defaults.hidden)),
            epochs=int(nd.get("epochs", defaults.epochs)),
            batch_size=int(nd.get("batch_size", defaults.batch_size)),
            learning_rate=float(nd.get("learning_rate", defaults.learning_rate)),
        )

    source = data.get("source")
    return ExperimentConfig(
        environment_q=env_q,
        environment_p=env_p,
        geometry=geometry,
        n_bins=int(data["n_bins"]),
        sample_period=float(data["sample_period"]),
        snr_db=tuple(float(v) for v in data.get("snr_db", DEFAULT_SNR_DB)),
        trials=int(data.get("trials", 10000)),
        estimator=str(data.get("estimator", "ml")),
        grid=grid,
        net=net,
        csd_k=int(data.get("csd_k", 5)),
        seed=int(data.get("seed", 0)),
        source=None if source is None else np.asarray(source, dtype=float),
        attenuation_samples=int(data.get("attenuation_samples", 2048)),
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """Round-trippable JSON form of a config (for report echo)."""
    return {
        "environment_q": channel.environment_to_dict(config.environment_q),
        "environment_p": channel.environment_to_dict(config.environment_p),
        "geometry": channel.geometry_to_dict(config.geometry),
        "n_bins": config.n_bins,
        "sample_period": config.sample_period,
        "snr_db": list(config.snr_db),
        "trials": config.trials,
        "estimator": config.estimator,
        "grid": {
            "counts": [int(c) for c in config.grid.counts],
            "lower": [float(v) for v in config.grid.lower],
            "upper": [float(v) for v in config.grid.upper],
            "peak_interpolation": config.grid.peak_interpolation,
        },
        "net": dataclasses.asdict(config.net) | {"hidden": list(config.net.hidden)},
        "csd_k": config.csd_k,
        "seed": config.seed,
        "source": None if config.source is None else [float(v) for v in config.source],
        "attenuation_samples": config.attenuation_samples,
    }


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


def _complex_normal(rng, shape, power: float) -> np.ndarray:
    scale = math.sqrt(power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _draw_observations(master: int, stage: str, chunk_idx: int, h: np.ndarray,
                       noise_power: float, count: int) -> np.ndarray:
    """One chunk of count observations x = s h + v, shape (count, L, N).

    h is one (L, N) response shared by every observation or a (count, L, N)
    stack with one response per observation. The draw order is the one in
    the module docstring.
    """
    if noise_power < 0:
        raise ConfigError("noise power must be >= 0")
    rng = np.random.default_rng(derive_seed(master, stage, chunk_idx))
    waveform = _complex_normal(rng, (count, h.shape[-1]), SIGNAL_POWER)
    noise = _complex_normal(rng, (count, *h.shape[-2:]), noise_power)
    return waveform[:, None, :] * h + noise


def observation_chunks(master: int, stage: str, h: np.ndarray,
                       noise_power: float, count: int):
    """Yield (rows, observations) for count observations, chunk by chunk.

    rows is the slice of the full (count, L, N) block that the chunk fills;
    h is as in _draw_observations, a per-observation stack being sliced by
    rows.
    """
    start = 0
    for chunk_idx, size in enumerate(_chunk_sizes(count)):
        rows = slice(start, start + size)
        block = h if h.ndim == 2 else h[rows]
        yield rows, _draw_observations(master, stage, chunk_idx, block,
                                       noise_power, size)
        start += size


def _chunk_sizes(total: int) -> list:
    sizes = [TRIAL_CHUNK] * (total // TRIAL_CHUNK)
    if total % TRIAL_CHUNK:
        sizes.append(total % TRIAL_CHUNK)
    return sizes


# Worker-side state for process pools; set once per worker by the
# initializer so the grid stacks are pickled once, not per task.
_WORKER_STATE = None


def _init_worker(state):
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_chunk(state, master: int, point_idx: int, kind: str, chunk_idx: int,
               count: int, noise_power: float) -> np.ndarray:
    h = state["h_q"] if kind == "q" else state["h_p"]
    obs = _draw_observations(master, f"trial-{kind}:{point_idx}", chunk_idx, h,
                             noise_power, count)
    if state["estimator"] == "ml":
        estimates = state["evaluator"].locate(obs, SIGNAL_POWER, noise_power)
    else:
        feats = extract_features(obs, state["attenuation"])
        estimates = state["model"].predict(feats)
    return estimates - state["source"][None, :]


def _worker_entry(args):
    key = args[:4]
    master, point_idx, kind, chunk_idx, count, noise_power = args
    return key, _run_chunk(_WORKER_STATE, master, point_idx, kind, chunk_idx,
                           count, noise_power)


def _uniform_positions(rng, volume: np.ndarray, count: int) -> np.ndarray:
    lo, hi = volume
    return rng.uniform(0.0, 1.0, size=(count, 3)) * (hi - lo)[None, :] + lo[None, :]


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
    """Noise power that puts the average received signal power snr_db above it."""
    return SIGNAL_POWER * attenuation / 10.0 ** (snr_db / 10.0)


def build_training_set(config: ExperimentConfig, attenuation: float) -> TrainingSet:
    """Labelled features drawn from the presumed environment at train SNR."""
    net = config.net
    rng_pos = np.random.default_rng(derive_seed(config.seed, "train-positions", 0))
    positions = _uniform_positions(rng_pos, config.geometry.volume, net.train_size)
    stacks = signal_mod.response_stack_batch(
        config.environment_q,
        config.geometry.receivers,
        positions,
        config.n_bins,
        config.sample_period,
    )
    feats = None
    for rows, obs in observation_chunks(
        config.seed, "train-observations", stacks,
        noise_level(attenuation, net.train_snr_db), net.train_size,
    ):
        block_feats = extract_features(obs, attenuation)
        if feats is None:
            feats = np.empty((net.train_size, block_feats.shape[1]))
        feats[rows] = block_feats
    return TrainingSet(features=feats, targets=positions)


def _prepare_state(config: ExperimentConfig) -> dict:
    """Everything the per-chunk trial runner needs, built deterministically."""
    geometry = config.geometry
    source, attenuation = derive_scene(config)
    dist = np.linalg.norm(geometry.receivers - source[None, :], axis=1)
    if dist.min() < channel.DEFAULT_MIN_DISTANCE:
        raise ConfigError(
            f"source {source.tolist()} is {dist.min():.3g} m from a receiver, "
            f"below the far-field minimum {channel.DEFAULT_MIN_DISTANCE:g} m"
        )
    h_q = signal_mod.response_stack(
        config.environment_q, geometry.receivers, source, config.n_bins,
        config.sample_period,
    ).h
    h_p = signal_mod.response_stack(
        config.environment_p, geometry.receivers, source, config.n_bins,
        config.sample_period,
    ).h
    state = {
        "estimator": config.estimator,
        "source": source,
        "attenuation": attenuation,
        "h_q": h_q,
        "h_p": h_p,
        "evaluator": None,
        "model": None,
    }
    if config.estimator == "ml":
        state["evaluator"] = GridEvaluator.from_scene(
            config.environment_q,
            geometry.receivers,
            config.grid,
            config.n_bins,
            config.sample_period,
        )
    return state


def run_experiment(
    config: ExperimentConfig, *, workers: int = 1, progress=None
) -> ExperimentResult:
    """Sweep the SNR grid and assemble curve points plus metadata.

    progress, if given, is called with one status string per finished stage.
    Failures inside a stage surface as StageError carrying the stage name
    and the master seed.
    """
    started = time.monotonic()

    def note(text):
        if progress is not None:
            progress(text)

    try:
        state = _prepare_state(config)
    except (ConfigError, StageError):
        raise
    except Exception as exc:
        raise StageError("setup", config.seed, exc) from exc

    loss_curve = None
    if config.estimator == "net":
        try:
            training = build_training_set(config, state["attenuation"])
            model, loss_curve = train_net(
                training.features,
                training.targets,
                hidden=config.net.hidden,
                epochs=config.net.epochs,
                batch_size=config.net.batch_size,
                learning_rate=config.net.learning_rate,
                seed=derive_seed(config.seed, "train-net", 0),
                clip_lower=config.geometry.volume[0],
                clip_upper=config.geometry.volume[1],
            )
            state["model"] = model
        except StageError:
            raise
        except Exception as exc:
            raise StageError("train", config.seed, exc) from exc
        note(f"trained net, final loss {loss_curve[-1]:.4g}")

    noise_powers = [noise_level(state["attenuation"], db) for db in config.snr_db]

    jobs = []
    for idx in range(len(config.snr_db)):
        for kind in ("q", "p"):
            for chunk_idx, count in enumerate(_chunk_sizes(config.trials)):
                jobs.append(
                    (config.seed, idx, kind, chunk_idx, count, noise_powers[idx])
                )

    results = {}
    if workers <= 1:
        for args in jobs:
            key = args[:4]
            try:
                results[key] = _run_chunk(state, *args)
            except Exception as exc:
                raise StageError(f"snr[{args[1]}]:{args[2]}", config.seed, exc) from exc
    else:
        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(state,)
            ) as pool:
                for key, errors in pool.map(_worker_entry, jobs, chunksize=1):
                    results[key] = errors
        except Exception as exc:
            raise StageError("trials", config.seed, exc) from exc

    points = []
    for idx, db in enumerate(config.snr_db):
        try:
            gather = {}
            for kind in ("q", "p"):
                chunks = [
                    results[(config.seed, idx, kind, c)]
                    for c in range(len(_chunk_sizes(config.trials)))
                ]
                gather[kind] = np.concatenate(chunks, axis=0)
            evaluation = bounds_mod.strong_bound(
                gather["q"], gather["p"], k_nn=config.csd_k
            )
            snr_raw = SIGNAL_POWER / noise_powers[idx]
            delta2 = bounds_mod.delta_squared_closed_form(
                state["h_q"], state["h_p"], snr_raw
            )
            _, condition_ok = bounds_mod.gamma_and_condition(
                state["h_q"], state["h_p"], snr_raw
            )
            weak_mse = bounds_mod.weak_bound(
                evaluation.mse_q, evaluation.var_q, delta2
            )
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
        except StageError:
            raise
        except Exception as exc:
            raise StageError(f"snr[{idx}]:assemble", config.seed, exc) from exc
        points.append(point)
        note(
            f"snr {db:+.1f} dB: rmse_q {point.rmse_q:.3g} rmse_p {point.rmse_p:.3g} "
            f"strong {point.bound_strong:.3g}"
        )

    metadata = {
        "config": config_to_dict(config),
        "source": [float(v) for v in state["source"]],
        "attenuation_q": float(state["attenuation"]),
        "quantization_floor": config.grid.quantization_floor(),
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
    lines.append(
        "uwloc "
        + str(versions.get("uwloc", "?"))
        + " | numpy "
        + str(versions.get("numpy", "?"))
        + " | scipy "
        + str(versions.get("scipy", "?"))
        + " | python "
        + str(versions.get("python", "?"))
    )
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state_rng = np.random.default_rng(derive_seed(config.seed, "dataset-positions", 0))
    positions = _uniform_positions(state_rng, config.geometry.volume, count)
    stacks = signal_mod.response_stack_batch(
        config.environment_q,
        config.geometry.receivers,
        positions,
        config.n_bins,
        config.sample_period,
    )
    _, attenuation = derive_scene(config)
    noise_power = noise_level(attenuation, snr_db)
    values = np.empty_like(stacks)
    for rows, obs in observation_chunks(
        config.seed, "dataset-observations", stacks, noise_power, count
    ):
        values[rows] = obs

    obs_path = out / "observations.bin"
    signal_mod.save_observations(obs_path, values, seed=config.seed, fmt="bin")
    labels_path = out / "labels.csv"
    with open(labels_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("x,y,z\n")
        for row in positions:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    meta_path = out / "meta.json"
    meta = {
        "count": count,
        "snr_db": snr_db,
        "noise_power": noise_power,
        "attenuation": attenuation,
        "seed": config.seed,
        "n_bins": config.n_bins,
        "sample_period": config.sample_period,
        "config": config_to_dict(config),
    }
    with open(meta_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return {"observations": obs_path, "labels": labels_path, "meta": meta_path}


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

"""Experiment orchestration: seeds, config, trials, and curve output."""

import copy
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import types
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import EXTRA_QUEUED_CALLS, BrokenProcessPool
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from uwloc import bounds as bounds_mod, channel, csd, harness, localize, signal as signal_mod
from uwloc.cli import main
from uwloc.errors import ConfigError, StageError
from uwloc.harness import (
    DEFAULT_SNR_DB,
    SIGNAL_POWER,
    TRIAL_CHUNK,
    CurvePoint,
    ExperimentConfig,
    ExperimentResult,
    NetConfig,
    _init_worker,
    _openblas_functions,
    _prepare_state,
    _run_points,
    _set_blas_threads,
    _trial_chunk,
    _uniform_positions,
    build_training_set,
    config_from_dict,
    config_to_dict,
    derive_scene,
    derive_seed,
    emit_outputs,
    generate_dataset,
    load_config,
    noise_level,
    observation_chunks,
    parse_curve_csv,
    run_experiment,
)
from uwloc.localize import GridEvaluator, GridSpec, extract_features
from uwloc.signal import load_observations, response_stack_batch
from test_localize import random_model


# The documented scenario: what the acceptance criteria, the benchmark and
# the README's commands run.
DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "experiment_default.json"


def default_config_dict() -> dict:
    """The documented scenario's JSON, for a test that edits it."""
    return json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))


def tiny_config_dict(**overrides):
    """Desk-scale scenario: seconds, not minutes, but still a sane search.

    Grid steps (12, 12, 10 m) stay inside the band's mainlobe so the ML
    search surface is unambiguous at high SNR.
    """
    data = {
        "environment_q": {
            "water_depth": 100.0,
            "ssp": [[0.0, 1500.0], [100.0, 1500.0]],
            "surface_reflection": [-0.9, 0.0],
            "bottom_reflection": [0.5, 0.0],
            "absorption_db_per_m": 1e-4,
            "ray_budget": 4,
        },
        "environment_p": {
            "water_depth": 99.0,
            "ssp": [[0.0, 1502.0], [99.0, 1502.0]],
            "surface_reflection": [-0.9, 0.0],
            "bottom_reflection": [0.45, 0.0],
            "absorption_db_per_m": 1e-4,
            "ray_budget": 4,
        },
        "geometry": {
            "receivers": [[0.0, 0.0, 30.0], [240.0, 0.0, 40.0], [0.0, 240.0, 55.0]],
            "volume": [[60.0, 60.0, 40.0], [108.0, 108.0, 60.0]],
        },
        "n_bins": 8,
        "sample_period": 0.016,
        "snr_db": [0.0, 20.0],
        "trials": 40,
        "estimator": "ml",
        # without sub-grid interpolation a high-SNR point collapses every
        # estimate onto one node and the error-sample divergence degenerates
        "grid": {"counts": [5, 5, 3], "peak_interpolation": True},
        "csd_k": 3,
        "seed": 99,
        "attenuation_samples": 64,
    }
    data.update(overrides)
    return data


TINY_NET = {
    "train_size": 64,
    "train_snr_db": 15.0,
    "hidden": [16],
    "epochs": 3,
    "batch_size": 32,
    "learning_rate": 3e-3,
}


class TestDeriveSeed:
    def test_entropy_layout_is_frozen(self):
        ss = derive_seed(7, "trial-q:3", 2)
        assert list(ss.entropy) == [7, zlib.crc32(b"trial-q:3"), 2]

    def test_streams_are_distinct_and_reproducible(self):
        draws = {}
        for master, stage, index in [
            (1, "a", 0),
            (1, "a", 1),
            (1, "b", 0),
            (2, "a", 0),
        ]:
            value = np.random.default_rng(derive_seed(master, stage, index)).random()
            again = np.random.default_rng(derive_seed(master, stage, index)).random()
            assert value == again
            draws[(master, stage, index)] = value
        assert len(set(draws.values())) == len(draws)


def hand_drawn(master, stage, chunk_idx, h, noise_power, count):
    """x = s h + v rebuilt from the documented draw order.

    One generator per (master, stage, chunk): waveform real parts then
    imaginary parts, (count, N) each, then noise real parts then imaginary
    parts, (count, L, N) each; circular Gaussian with per-bin powers
    SIGNAL_POWER and noise_power. h is one (L, N) response or (count, L, N).
    """
    rng = np.random.default_rng(derive_seed(master, stage, chunk_idx))
    l_count, n_bins = h.shape[-2:]
    wave_re = rng.standard_normal((count, n_bins))
    wave_im = rng.standard_normal((count, n_bins))
    noise_re = rng.standard_normal((count, l_count, n_bins))
    noise_im = rng.standard_normal((count, l_count, n_bins))
    waveform = math.sqrt(SIGNAL_POWER / 2.0) * (wave_re + 1j * wave_im)
    noise = math.sqrt(noise_power / 2.0) * (noise_re + 1j * noise_im)
    return waveform[:, None, :] * h + noise


def hand_scene(config):
    """Source ("source" stream) and presumed-environment attenuation."""
    lo, hi = config.geometry.volume
    rng = np.random.default_rng(derive_seed(config.seed, "source", 0))
    source = rng.uniform(0.0, 1.0, size=(1, 3))[0] * (hi - lo) + lo
    attenuation = channel.average_attenuation(
        config.environment_q,
        config.geometry,
        sample_count=config.attenuation_samples,
        rng_seed=derive_seed(config.seed, "attenuation", 0),
    )
    return source, attenuation


def hand_noise_power(attenuation, snr_db):
    return SIGNAL_POWER * attenuation / 10.0 ** (snr_db / 10.0)


class TestDrawContract:
    """Every observation any command draws follows one seeded recipe."""

    def test_trial_chunk(self):
        config = config_from_dict(tiny_config_dict())
        state = _prepare_state(config)
        source, attenuation = hand_scene(config)
        assert np.array_equal(state["source"], source)
        assert state["attenuation"] == attenuation
        seen = []

        class Recorder:
            def locate(self, observations, signal_power, noise_power):
                seen.append(observations)
                return np.zeros((observations.shape[0], 3))

        state["evaluator"] = Recorder()
        noise_power = hand_noise_power(attenuation, 20.0)
        trials = 2 * TRIAL_CHUNK + 7
        with ThreadPoolExecutor(max_workers=1) as executor:
            errors, = _run_points([(config.seed, 1, noise_power, trials)],
                                  partial(executor.submit, _trial_chunk, state))
        assert [obs.shape[0] for obs in seen] == [TRIAL_CHUNK, TRIAL_CHUNK, 7] * 2
        want = hand_drawn(config.seed, "trial-p:1", 2, state["h_p"], noise_power, 7)
        assert np.array_equal(seen[5], want)
        for kind in ("q", "p"):
            assert np.array_equal(errors[kind], np.tile(-source, (trials, 1)))

    def test_training_features(self):
        size = TRIAL_CHUNK + 20
        net = {"train_size": size, "train_snr_db": 15.0}
        config = config_from_dict(tiny_config_dict(net=net))
        _, attenuation = hand_scene(config)
        training = build_training_set(config, attenuation)
        stacks = response_stack_batch(
            config.environment_q, config.geometry.receivers, training.targets,
            config.n_bins, config.sample_period,
        )
        noise_power = hand_noise_power(attenuation, 15.0)
        for chunk_idx, rows in enumerate([slice(0, TRIAL_CHUNK), slice(TRIAL_CHUNK, size)]):
            count = rows.stop - rows.start
            obs = hand_drawn(config.seed, "train-observations", chunk_idx,
                             stacks[rows], noise_power, count)
            assert np.array_equal(
                training.features[rows], extract_features(obs, attenuation)
            )

    def test_dataset_observations(self, tmp_path):
        count = TRIAL_CHUNK + 3
        config = config_from_dict(tiny_config_dict())
        paths = generate_dataset(config, count=count, snr_db=12.0, out_dir=tmp_path)
        values, _ = load_observations(paths["observations"])
        labels = np.loadtxt(paths["labels"], delimiter=",", skiprows=1)
        stacks = response_stack_batch(
            config.environment_q, config.geometry.receivers, labels,
            config.n_bins, config.sample_period,
        )
        _, attenuation = hand_scene(config)
        noise_power = hand_noise_power(attenuation, 12.0)
        want = np.concatenate([
            hand_drawn(config.seed, "dataset-observations", 0,
                       stacks[:TRIAL_CHUNK], noise_power, TRIAL_CHUNK),
            hand_drawn(config.seed, "dataset-observations", 1,
                       stacks[TRIAL_CHUNK:], noise_power, 3),
        ])
        assert np.array_equal(values, want)

    def test_simulate_observations(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config_dict()))
        assert main(["simulate", "--config", str(config_path), "--out",
                     str(tmp_path / "sim"), "--count", "6", "--snr-db", "4",
                     "--env", "p"]) == 0
        values, _ = load_observations(tmp_path / "sim" / "observations.bin")
        config = config_from_dict(tiny_config_dict())
        source, attenuation = hand_scene(config)
        h = response_stack_batch(
            config.environment_p, config.geometry.receivers, source[None, :],
            config.n_bins, config.sample_period,
        )[0]
        want = hand_drawn(config.seed, "simulate", 0, h,
                          hand_noise_power(attenuation, 4.0), 6)
        assert np.array_equal(values, want)

    @pytest.mark.parametrize("noise_power", [-1.0, math.nan, math.inf])
    def test_draw_rejects_bad_noise_power(self, noise_power):
        # NaN passed the old `noise_power < 0` test and drew NaN observations
        h = np.ones((2, 4), dtype=complex)
        with pytest.raises(ConfigError, match="noise power must be finite and >= 0"):
            list(harness.observation_chunks(0, "simulate", h, noise_power, 3))


class TestChunking:
    def test_uniform_positions_cover_volume(self):
        volume = np.array([[0.0, 0.0, 0.0], [10.0, 20.0, 30.0]])
        rng = np.random.default_rng(0)
        pts = _uniform_positions(rng, volume, 100000)
        assert np.all(pts >= volume[0]) and np.all(pts <= volume[1])
        center = (volume[0] + volume[1]) / 2
        extent = volume[1] - volume[0]
        assert np.all(np.abs(pts.mean(axis=0) - center) < 0.01 * extent)

    def test_training_set_transient_does_not_grow(self):
        # Stacks are built one chunk at a time, so what build_training_set
        # holds beyond its result is the same at any train_size; numpy
        # reports its buffers to tracemalloc.
        beyond = []
        for size in (1000, 3000):
            config = config_from_dict(tiny_config_dict(n_bins=64, net={"train_size": size}))
            _, attenuation = hand_scene(config)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                training = build_training_set(config, attenuation)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            kept = training.features.nbytes + training.targets.nbytes
            beyond.append(peak - base - kept)
        assert abs(beyond[1] - beyond[0]) <= 1e6, beyond

    def test_net_chunk_transient_does_not_grow(self):
        # The net estimates a chunk one row block at a time, so what a
        # trial chunk holds beyond its observations and its (T, 3) errors
        # is the same at two blocks and at a whole chunk.
        config = config_from_dict(tiny_config_dict(n_bins=64, estimator="net"))
        state = _prepare_state(config)
        state["model"] = random_model(
            [localize.feature_count(3, 64), 256, 256, 256, 3], np.random.default_rng(5)
        )
        noise_power = hand_noise_power(state["attenuation"], 10.0)
        beyond = []
        for count in (2 * localize._NET_ROWS, TRIAL_CHUNK):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                errors = _trial_chunk(state, config.seed, 0, "q", noise_power, 0, count)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            kept = count * 3 * 64 * 16 + 2 * errors.nbytes  # observations, output
            beyond.append(peak - base - kept)
        assert abs(beyond[1] - beyond[0]) <= 1e6, beyond


class TestCurveIo:
    def make_points(self):
        return [
            CurvePoint(-10.0, 135.4, 136.5, 220.0, 230.5, 0.25, 0.21, True, 40, 99),
            CurvePoint(20.0, 3.9, 4.9, 10.5, math.inf, math.inf, 1.75, False, 40, 99),
        ]

    def test_round_trip_including_inf(self, tmp_path):
        result = ExperimentResult(points=self.make_points(), metadata={
            "config": {}, "estimator": "ml", "source": [1.0, 2.0, 3.0],
            "attenuation_q": 0.01, "quantization_floor": 5.0,
            "elapsed_seconds": 1.0, "versions": {},
        })
        paths = emit_outputs(result, tmp_path / "out")
        got = parse_curve_csv(paths["curve_csv"])
        assert len(got) == 2
        for a, b in zip(got, self.make_points()):
            assert a == b
        dat_lines = paths["curve_dat"].read_text().splitlines()
        assert dat_lines[0].startswith("# snr_db ")
        assert len(dat_lines) == 3
        report = paths["report"].read_text()
        assert "finiteness condition satisfied at 1 of 2 points" in report

    def test_empty_curve_is_header_only(self, tmp_path):
        result = ExperimentResult(points=[], metadata={
            "config": {}, "estimator": "ml", "source": [0, 0, 0],
            "attenuation_q": 1.0, "quantization_floor": 1.0,
            "elapsed_seconds": 0.0, "versions": {},
        })
        paths = emit_outputs(result, tmp_path)
        assert parse_curve_csv(paths["curve_csv"]) == []

    def test_parse_rejects_corruption(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("snr,rmse\n1,2\n")
        with pytest.raises(ConfigError):
            parse_curve_csv(bad_header)

        result = ExperimentResult(points=self.make_points(), metadata={
            "config": {}, "estimator": "ml", "source": [0, 0, 0],
            "attenuation_q": 1.0, "quantization_floor": 1.0,
            "elapsed_seconds": 0.0, "versions": {},
        })
        paths = emit_outputs(result, tmp_path)
        lines = paths["curve_csv"].read_text().splitlines()
        short_row = tmp_path / "short.csv"
        short_row.write_text(lines[0] + "\n" + lines[1].rsplit(",", 1)[0] + "\n")
        with pytest.raises(ConfigError):
            parse_curve_csv(short_row)
        bad_flag = tmp_path / "flag.csv"
        bad_flag.write_text(lines[0] + "\n" + lines[1].replace("true", "maybe") + "\n")
        with pytest.raises(ConfigError):
            parse_curve_csv(bad_flag)

    @pytest.mark.parametrize("column, cell", [("rmse_q", "abc"), ("trials", "4.5"),
                                              ("seed", "x"), ("condition_ok", "1")])
    def test_parse_names_the_column_of_a_bad_cell(self, tmp_path, column, cell):
        # abc in a float column and 4.5 in an int column raised a bare ValueError
        paths = emit_outputs(ExperimentResult(points=self.make_points()[:1], metadata={
            "config": {}, "estimator": "ml", "source": [0, 0, 0],
            "attenuation_q": 1.0, "quantization_floor": 1.0,
            "elapsed_seconds": 0.0, "versions": {},
        }), tmp_path)
        header, row = paths["curve_csv"].read_text().splitlines()
        cells = row.split(",")
        cells[header.split(",").index(column)] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "\n" + ",".join(cells) + "\n")
        with pytest.raises(ConfigError, match=f"bad {column} cell '{cell}'"):
            parse_curve_csv(bad)

    def test_columns_are_the_curve_point_fields(self):
        fields = dataclasses.fields(CurvePoint)
        assert harness.CSV_COLUMNS == tuple(item.name for item in fields)
        point = self.make_points()[1]
        assert point.row() == ["20.0", "3.9", "4.9", "10.5", "inf", "inf", "1.75",
                               "false", "40", "99"]


class TestNoiseLevel:
    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, math.inf, -math.inf])
    def test_no_finite_positive_power_is_config_error(self, snr_db):
        # 4000 dB overflowed 10^(snr/10) with OverflowError; -4000 dB and
        # -inf divided by zero, and inf gave a zero noise power
        with pytest.raises(ConfigError, match="no finite, positive noise power"):
            noise_level(0.25, snr_db)

    @pytest.mark.parametrize("attenuation, snr_db",
                             [(0.25, -10.0), (3.7e-5, 18.0), (1.0, 3000.0), (2.0, -3000.0)])
    def test_keeps_the_formula(self, attenuation, snr_db):
        assert noise_level(attenuation, snr_db) == hand_noise_power(attenuation, snr_db)


class TestConfig:
    def test_round_trip(self, tmp_path):
        # the writer's output reads back to the same config, through JSON
        # that holds no NaN or infinity
        path = tmp_path / "config.json"
        for raw in (tiny_config_dict(), default_config_dict()):
            data = config_to_dict(config_from_dict(raw))
            assert config_to_dict(config_from_dict(data)) == data
            path.write_text(json.dumps(data, allow_nan=False))
            assert config_to_dict(load_config(path)) == data

    def test_grid_defaults_to_volume(self):
        config = config_from_dict(tiny_config_dict(grid=None))
        np.testing.assert_array_equal(config.grid.lower, config.geometry.volume[0])
        np.testing.assert_array_equal(config.grid.upper, config.geometry.volume[1])

    def test_partial_grid_takes_the_same_defaults(self):
        omitted = tiny_config_dict()
        del omitted["grid"]
        for data in (omitted, tiny_config_dict(grid={}), tiny_config_dict(grid=None)):
            grid = config_from_dict(data).grid
            np.testing.assert_array_equal(grid.counts, (31, 31, 7))
            np.testing.assert_array_equal(grid.lower, [60.0, 60.0, 40.0])
            np.testing.assert_array_equal(grid.upper, [108.0, 108.0, 60.0])
            assert grid.peak_interpolation is True
        partial = config_from_dict(tiny_config_dict(grid={"counts": [3, 3, 3]})).grid
        assert partial.peak_interpolation is True

    def test_omitted_keys_take_the_dataclass_defaults(self):
        data = tiny_config_dict()
        for key in ("snr_db", "trials", "estimator", "csd_k", "seed",
                    "attenuation_samples", "net"):
            data.pop(key, None)
        config = config_from_dict(data)
        defaults = ExperimentConfig(
            config.environment_q, config.environment_p, config.geometry,
            config.n_bins, config.sample_period,
        )
        for key in ("snr_db", "trials", "estimator", "csd_k", "seed",
                    "attenuation_samples", "net", "source"):
            assert getattr(config, key) == getattr(defaults, key)

    @pytest.mark.parametrize("snr", [300.5, -301.0, 3000.0, -3000.0])
    def test_snr_db_outside_the_scorer_range(self, snr):
        with pytest.raises(ConfigError, match=f"snr_db entry {snr!r} lies outside"):
            config_from_dict(tiny_config_dict(snr_db=[0.0, snr]))
        config = config_from_dict(tiny_config_dict())
        with pytest.raises(ConfigError, match="snr_db entry"):
            dataclasses.replace(config, snr_db=(snr,))

    @pytest.mark.parametrize("snr", [300.0, -300.0])
    def test_scorer_runs_at_the_ends_of_the_range(self, snr):
        # The suite turns every RuntimeWarning into an error; at 3000 dB
        # the scorer's float64 weights overflowed.
        config = config_from_dict(tiny_config_dict(snr_db=[snr]))
        state = _prepare_state(config)
        noise_power = noise_level(state["attenuation"], snr)
        (_, block), = observation_chunks(config.seed, "edge", state["h_q"], noise_power, 20)
        positions = state["evaluator"].locate(block, SIGNAL_POWER, noise_power)
        assert np.isfinite(positions).all()

    def test_shipped_snr_grids_lie_in_the_scorer_range(self):
        edges = config_from_dict(tiny_config_dict(snr_db=[-300, 300])).snr_db
        assert edges == (-300.0, 300.0)
        shipped = default_config_dict()["snr_db"]
        for grid in (DEFAULT_SNR_DB, shipped, tiny_config_dict()["snr_db"]):
            assert max(abs(db) for db in grid) <= 300.0

    def test_bad_value_is_config_error(self):
        with pytest.raises(ConfigError, match="'trials'"):
            config_from_dict(tiny_config_dict(trials="many"))
        with pytest.raises(ConfigError, match="'hidden'"):
            config_from_dict(tiny_config_dict(net={"hidden": 16}))
        for bad, match in (
            ({"source": [1, 2]}, "source"),
            ({"grid": [1, 2]}, "'grid'"),
            ({"grid": {"counts": [3, 3]}}, "grid"),
            ({"grid": {"lower": "x"}}, "grid"),
            ({"net": 5}, "'net'"),
            ({"net": {"hidden": [0]}}, "hidden"),
            ({"net": {"hidden": [-3]}}, "hidden"),
            ({"net": {"hidden": [2.5]}}, "hidden"),
            ({"net": {"batch_size": 0}}, "batch_size"),
            ({"net": {"epochs": 0}}, "epochs"),
            ({"net": {"epochs": math.inf}}, "epochs"),
            ({"net": {"train_size": 1}}, "train_size"),
            ({"net": {"learning_rate": -1}}, "learning_rate"),
            ({"net": {"learning_rate": math.nan}}, "learning_rate"),
            ({"net": {"train_snr_db": math.nan}}, "train_snr_db"),
            ({"snr_db": [math.nan]}, "snr_db"),
            ({"grid": {"peak_interpolation": 0}}, "peak_interpolation"),
            ({"grid": {"peak_interpolation": None}}, "peak_interpolation"),
            ({"trials": 40.5}, "'trials'"),
            ({"n_bins": "abc"}, "'n_bins'"),
            ({"n_bins": None}, "'n_bins'"),
            ({"n_bins": 3.7}, "'n_bins'"),
            ({"sample_period": "x"}, "'sample_period'"),
            ({"grid": {"counts": [31.7, 31, 7]}}, "'counts'"),
            ({"grid": {"counts": [31, True, 7]}}, "'counts'"),
            ({"net": {"epochs": True}}, "'epochs'"),
            ({"seed": True}, "'seed'"),
            ({"source": [84.0, math.nan, 50.0]}, "source coordinates must be finite"),
            ({"geometry": {"receivers": [[0.0, 0.0, 30.0], [240.0, 0.0, math.nan],
                                         [0.0, 240.0, 55.0]],
                           "volume": [[60.0, 60.0, 40.0], [108.0, 108.0, 60.0]]}},
             "receiver coordinates must be finite"),
            ({"geometry": {"receivers": [[0.0, 0.0, 30.0], [240.0, 0.0, 40.0],
                                         [0.0, 240.0, 55.0]],
                           "volume": [[60.0, 60.0, 40.0], [math.inf, 108.0, 60.0]]}},
             "volume coordinates must be finite"),
            ({"grid": {"lower": [60.0, 60.0, math.nan]}}, "grid box coordinates must be finite"),
            ({"grid": {"upper": [108.0, math.inf, 60.0]}}, "grid box coordinates must be finite"),
        ):
            with pytest.raises(ConfigError, match=match):
                config_from_dict(tiny_config_dict(**bad))
        for section in ("environment_q", "environment_p"):
            for bad, match in (
                ({"sound_speed": 1500.0}, f"unknown {section} keys"),
                ({"ray_budget": 6.7}, "'ray_budget'"),
                ({"ray_budget": True}, "'ray_budget'"),
                ({"absorption_db_per_m": math.nan}, "'absorption_db_per_m'"),
                ({"ssp": [[0.0, 1500.0], [50.0, math.nan], [100.0, 1500.0]]},
                 "ssp depths and speeds must be finite"),
                ({"water_depth": "100"}, "'water_depth'"),
                ({"bottom_reflection": "0.5"}, "'bottom_reflection'"),
                ({"bottom_reflection": [math.nan, 0.0]}, "'bottom_reflection'"),
            ):
                data = tiny_config_dict()
                data[section] = dict(data[section], **bad)
                with pytest.raises(ConfigError, match=match):
                    config_from_dict(data)

    @pytest.mark.parametrize("bad, match", [
        ({"geometry": {"receivers": [["0", "0", "30"], ["240", "0", "40"], ["0", "240", "55"]],
                       "volume": [[60.0, 60.0, 40.0], [108.0, 108.0, 60.0]]}},
         "receiver coordinates must be finite numbers in a regular array, got '0'"),
        ({"geometry": {"receivers": [[0.0, 0.0, 30.0], [240.0, 0.0], [0.0, 240.0, 55.0]],
                       "volume": [[60.0, 60.0, 40.0], [108.0, 108.0, 60.0]]}},
         r"receiver coordinates must be finite numbers in a regular array, got \[0.0, 0.0, 30.0\]"),
        ({"geometry": {"receivers": [[0.0, 0.0, 30.0], [240.0, 0.0, 40.0], [0.0, 240.0, 55.0]],
                       "volume": [[60.0, 60.0, 40.0], [108.0, "108", 60.0]]}},
         "volume coordinates must be finite numbers in a regular array, got '108'"),
        ({"grid": {"lower": [True, 60.0, 40.0]}}, "grid box coordinates must be finite numbers in a regular array, got True"),
        ({"grid": {"upper": [108.0, None, 60.0]}}, "grid box coordinates must be finite numbers in a regular array, got None"),
        ({"source": ["84", "84", "50"]}, "source coordinates must be finite numbers in a regular array, got '84'"),
        ({"source": [84.0, 84.0]}, "source needs 3 coordinates, got 2"),
    ])
    def test_coordinates_must_be_numbers(self, bad, match):
        # strings and booleans used to pass np.asarray(..., dtype=float)
        with pytest.raises(ConfigError, match=match):
            config_from_dict(tiny_config_dict(**bad))

    @pytest.mark.parametrize("row", [["50", "1500"], [50.0, False]])
    def test_ssp_entries_must_be_numbers(self, row):
        data = tiny_config_dict()
        data["environment_q"]["ssp"] = [[0.0, 1500.0], row, [100.0, 1500.0]]
        with pytest.raises(ConfigError, match="ssp depths and speeds must be finite numbers"):
            config_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("trials", 40.5),
        ("seed", True),
        ("csd_k", 5.0),
        ("attenuation_samples", 2048.5),
        ("sample_period", math.nan),
    ])
    def test_replace_checks_types(self, field, value):
        # dataclasses.replace (as `--seed` uses) runs the same checks as parsing.
        config = config_from_dict(tiny_config_dict())
        with pytest.raises(ConfigError, match=f"'{field}' must be a"):
            dataclasses.replace(config, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 10.0),
        ("hidden", (16, 8.5)),
        ("learning_rate", "0.01"),
    ])
    def test_net_config_checks_types(self, field, value):
        with pytest.raises(ConfigError, match=f"'{field}' must be a"):
            NetConfig(**{field: value})

    def test_string_snr_grid_is_not_read_per_character(self):
        # "10" used to become the SNR grid (1.0, 0.0).
        data = dict(default_config_dict(), snr_db="10")
        with pytest.raises(ConfigError, match="JSON array"):
            config_from_dict(data)
        data["snr_db"] = [10]
        assert config_from_dict(data).snr_db == (10.0,)

    def test_peak_interpolation_takes_only_a_boolean(self):
        # bool("false") is True: a string would turn interpolation on.
        with pytest.raises(ConfigError, match="true or false"):
            config_from_dict(tiny_config_dict(grid={"peak_interpolation": "false"}))
        for flag in (False, True):
            grid = config_from_dict(tiny_config_dict(grid={"peak_interpolation": flag})).grid
            assert grid.peak_interpolation is flag

    @pytest.mark.parametrize("section", [
        None, "environment_q", "environment_p", "geometry", "grid", "net",
    ])
    def test_unknown_key_in_any_section(self, section):
        data = tiny_config_dict(net={})
        (data if section is None else data[section])["extra"] = 1
        with pytest.raises(ConfigError, match=f"unknown {section or 'config'} keys"):
            config_from_dict(data)

    def test_rejects_unknown_keys(self):
        # grid keys of an earlier schema, and a source inside the geometry
        for key in ("nx", "refine_factor"):
            with pytest.raises(ConfigError, match="unknown grid keys"):
                config_from_dict(tiny_config_dict(grid={"counts": [3, 3, 3], key: 5}))
        geometry = dict(tiny_config_dict()["geometry"], source=[84.0, 84.0, 50.0])
        with pytest.raises(ConfigError, match="unknown geometry keys"):
            config_from_dict(tiny_config_dict(geometry=geometry))

    def test_rejects_missing_and_invalid(self):
        data = tiny_config_dict()
        del data["environment_p"]
        with pytest.raises(ConfigError, match="missing"):
            config_from_dict(data)
        with pytest.raises(ConfigError):
            config_from_dict(tiny_config_dict(trials=1))
        # the divergence estimate needs k >= 2 and at least k + 1 trials
        with pytest.raises(ConfigError, match="csd_k"):
            config_from_dict(tiny_config_dict(csd_k=1))
        with pytest.raises(ConfigError, match="csd_k"):
            config_from_dict(tiny_config_dict(csd_k=3, trials=3))
        assert config_from_dict(tiny_config_dict(csd_k=3, trials=4)).trials == 4
        with pytest.raises(ConfigError):
            config_from_dict(tiny_config_dict(estimator="oracle"))
        with pytest.raises(ConfigError):
            config_from_dict(tiny_config_dict(snr_db=[]))

    def test_rejects_bad_scene(self):
        data = tiny_config_dict()
        data["geometry"]["receivers"][0][2] = 500.0  # below the seabed
        with pytest.raises(ConfigError, match="invalid scene"):
            config_from_dict(data)

    def test_far_field_checked_however_config_is_built(self):
        # dataclasses.replace is how the CLI applies --seed
        config = config_from_dict(tiny_config_dict())
        near = GridSpec([0.0, 0.0, 30.0], [48.0, 48.0, 50.0], [5, 5, 3], True)
        with pytest.raises(ConfigError, match="grid box is 0 m"):
            dataclasses.replace(config, grid=near)
        with pytest.raises(ConfigError, match="source is 5 m"):
            dataclasses.replace(config, source=[0.0, 0.0, 35.0])
        # the actual column (99 m) is the shallower one
        with pytest.raises(ConfigError, match="source depths"):
            dataclasses.replace(config, source=[84.0, 84.0, 99.5])
        assert dataclasses.replace(config, seed=5).seed == 5

    def test_default_config_is_valid(self):
        config = load_config(DEFAULT_CONFIG)
        assert config.estimator == "ml"
        assert len(config.snr_db) == 15
        assert config.trials == 10000
        np.testing.assert_array_equal(config.grid.lower, config.geometry.volume[0])


class TestStageError:
    def test_carries_context(self):
        err = StageError("snr[3]:q", 42, ValueError("boom"))
        assert err.stage == "snr[3]:q"
        assert err.seed == 42
        assert isinstance(err.cause, ValueError)
        assert "snr[3]:q" in str(err) and "42" in str(err) and "boom" in str(err)


class TestPeakMemory:
    def test_report_and_metadata_show_the_peak(self, tmp_path):
        config = config_from_dict(tiny_config_dict())
        baseline = run_experiment(config, workers=1)
        pooled = run_experiment(config, workers=2)
        for result, name in ((baseline, "one"), (pooled, "two")):
            peak = result.metadata["peak_rss_mb"]
            # This process alone holds numpy, so at least a few MB.
            assert 5.0 < peak < 1e5
            paths = emit_outputs(result, tmp_path / name)
            assert f"peak resident memory: {peak:.1f} MB" in paths["report"].read_text()
        # The curve does not carry it.
        assert ((tmp_path / "one" / "curve.csv").read_bytes()
                == (tmp_path / "two" / "curve.csv").read_bytes())

    @pytest.mark.parametrize("platform, unit", [("linux", 2**10), ("darwin", 2**20)])
    def test_children_count_and_units(self, monkeypatch, platform, unit):
        usage = {"self": 3 * unit, "children": 5 * unit}
        fake = type(sys)("resource")
        fake.RUSAGE_SELF, fake.RUSAGE_CHILDREN = "self", "children"
        fake.getrusage = lambda who: types.SimpleNamespace(ru_maxrss=usage[who])
        monkeypatch.setitem(sys.modules, "resource", fake)
        monkeypatch.setattr(sys, "platform", platform)
        assert harness._peak_rss_mb() == 5.0

    def test_line_omitted_without_resource(self, monkeypatch, tmp_path):
        # A None entry makes the import raise ImportError, as on Windows.
        monkeypatch.setitem(sys.modules, "resource", None)
        result = run_experiment(config_from_dict(tiny_config_dict()), workers=1)
        assert "peak_rss_mb" not in result.metadata
        report = emit_outputs(result, tmp_path)["report"].read_text()
        assert "peak resident memory" not in report


class TestRunExperiment:
    @pytest.mark.parametrize("workers", [0, -1, True])
    def test_rejects_a_worker_count_below_one(self, workers):
        # 0 used to divide by zero in _core_share, and -1 ran the sweep.
        with pytest.raises(ConfigError, match="'workers' must be"):
            run_experiment(config_from_dict(tiny_config_dict()), workers=workers)

    def test_deterministic_and_worker_invariant(self):
        first = run_experiment(config_from_dict(tiny_config_dict()), workers=1)
        again = run_experiment(config_from_dict(tiny_config_dict()), workers=1)
        pooled = run_experiment(config_from_dict(tiny_config_dict()), workers=2)
        rows = [p.row() for p in first.points]
        assert [p.row() for p in again.points] == rows
        assert [p.row() for p in pooled.points] == rows

        meta = first.metadata
        for key in (
            "config",
            "source",
            "attenuation_q",
            "quantization_floor",
            "elapsed_seconds",
            "versions",
        ):
            assert key in meta
        assert meta["estimator"] == "ml"

        low, high = first.points
        assert high.rmse_q < low.rmse_q
        for point in first.points:
            assert point.bound_strong >= point.rmse_q
            assert point.trials == 40 and point.seed == 99

        # Three chunks per half, which two workers may split between them.
        data = tiny_config_dict(trials=2 * TRIAL_CHUNK + 7)
        serial = run_experiment(config_from_dict(data), workers=1)
        pooled = run_experiment(config_from_dict(data), workers=2)
        assert [p.row() for p in pooled.points] == [p.row() for p in serial.points]

    def test_net_deterministic_and_worker_invariant(self, tmp_path):
        data = tiny_config_dict(estimator="net", net=TINY_NET)
        first = run_experiment(config_from_dict(data), workers=1)
        pooled = run_experiment(config_from_dict(data), workers=2)
        rows = [p.row() for p in first.points]
        assert len(rows) == 2
        assert [p.row() for p in pooled.points] == rows
        assert pooled.metadata["net_loss_curve"] == first.metadata["net_loss_curve"]
        # Net estimates at 0 dB repeat, so the divergence estimate drops
        # duplicate error samples; the count reaches the report.
        assert first.metadata["csd_excluded_points"] == [14, 0]
        assert pooled.metadata["csd_excluded_points"] == [14, 0]
        report = emit_outputs(first, tmp_path / "out")["report"].read_text()
        assert "  snr +0.0 dB: 14 of 40\n  snr +20.0 dB: 0 of 40\n" in report

    @pytest.mark.parametrize("estimator", ["ml", "net"])
    def test_both_knn_paths_write_the_same_curve(self, monkeypatch, tmp_path, estimator):
        # 40 samples a side are searched pairwise; a pair limit of 0 sends
        # every k-NN search to cKDTree instead.
        data = tiny_config_dict(estimator=estimator, net=TINY_NET)
        curves = []
        for limit in (csd._EXACT_MAX_PAIRS, 0):
            monkeypatch.setattr(csd, "_EXACT_MAX_PAIRS", limit)
            result = run_experiment(config_from_dict(data), workers=1)
            curves.append(emit_outputs(result, tmp_path / str(limit))["curve_csv"].read_bytes())
        assert curves[0] == curves[1]

    def test_divergence_rounding_below_zero_reads_zero(self):
        # 8 dB/m leaves per-bin energies near 1e-31 of the source's, where the
        # closed form's log sum rounds to about -2e-47; the run used to stop
        # at point 0 with "delta2 must be >= 0".
        data = tiny_config_dict()
        for env in ("environment_q", "environment_p"):
            data[env] = dict(data[env], absorption_db_per_m=8.0)
        points = run_experiment(config_from_dict(data), workers=1).points
        assert [p.delta2 >= 0.0 for p in points] == [True, True]

    def test_pooled_failure_names_its_stage(self, monkeypatch, tmp_path, capsys):
        data = tiny_config_dict()
        _, attenuation = derive_scene(config_from_dict(data))
        failing = noise_level(attenuation, data["snr_db"][1])
        locate = GridEvaluator.locate

        def fail_at_one_level(self, observations, signal_power, noise_power, **kw):
            if noise_power == failing:
                raise ValueError("injected locate failure")
            return locate(self, observations, signal_power, noise_power, **kw)

        # Forked pool workers inherit the patched class.
        monkeypatch.setattr(GridEvaluator, "locate", fail_at_one_level)
        stages = []
        for workers in (1, 2):
            with pytest.raises(StageError) as info:
                run_experiment(config_from_dict(data), workers=workers)
            stages.append(info.value.stage)
            assert info.value.seed == data["seed"]
            assert "injected locate failure" in str(info.value.cause)
        assert stages == ["snr[1]:q", "snr[1]:q"]

        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        for workers in ("1", "2"):
            code = main(["experiment", "--config", str(path), "--workers", workers,
                         "--out", str(tmp_path / f"out{workers}")])
            assert code == 3
            assert "stage 'snr[1]:q' failed" in capsys.readouterr().err

    def test_pooled_failure_starts_no_further_point(self, monkeypatch, tmp_path):
        data = tiny_config_dict(snr_db=[float(v) for v in range(10)])
        _, attenuation = derive_scene(config_from_dict(data))
        failing = noise_level(attenuation, data["snr_db"][0])
        record = tmp_path / "calls"
        record.mkdir()
        locate = GridEvaluator.locate

        def fail_at_first_point(self, observations, signal_power, noise_power, **kw):
            if noise_power == failing:
                raise ValueError("injected locate failure")
            (record / repr(noise_power)).touch()
            time.sleep(0.05)
            return locate(self, observations, signal_power, noise_power, **kw)

        # Forked pool workers inherit the patched class.
        monkeypatch.setattr(GridEvaluator, "locate", fail_at_first_point)
        with pytest.raises(StageError) as info:
            run_experiment(config_from_dict(data), workers=2)
        assert info.value.stage == "snr[0]:q"
        # Both units of point 0 fail. Only the units already in the pool's
        # call queue may still start (three with two workers: points 1 and
        # 2); every later one is cancelled. A pool fed through Executor.map
        # ran four points.
        assert len(os.listdir(record)) <= 2

    def test_a_dying_worker_names_its_half(self, monkeypatch, tmp_path, capsys):
        parent = os.getpid()
        locate = GridEvaluator.locate

        def die_in_a_worker(self, observations, signal_power, noise_power, **kw):
            if os.getpid() != parent:
                os._exit(1)
            return locate(self, observations, signal_power, noise_power, **kw)

        # Forked pool workers inherit the patched class. Every chunk kills
        # its worker, so the first unit, point 0's q half, breaks the pool.
        monkeypatch.setattr(GridEvaluator, "locate", die_in_a_worker)
        data = tiny_config_dict()
        with pytest.raises(StageError) as info:
            run_experiment(config_from_dict(data), workers=2)
        assert info.value.stage == "snr[0]:q"
        assert isinstance(info.value.cause, BrokenProcessPool)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        code = main(["experiment", "--config", str(path), "--workers", "2",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "stage 'snr[0]:q' failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_a_pool_broken_before_a_submit_names_that_half(self):
        # A worker that dies between two units leaves the next submit to
        # raise; that unit's half carries the failure.
        def broken(*unit):
            raise BrokenProcessPool("a worker died")

        with pytest.raises(StageError) as info:
            list(_run_points([(99, 0, 1.0, 40)], broken))
        assert info.value.stage == "snr[0]:q"
        assert isinstance(info.value.cause, BrokenProcessPool)

    def test_config_error_in_a_later_stage_is_not_wrapped(self, monkeypatch, tmp_path,
                                                           capsys):
        def reject(self, observations, signal_power, noise_power, **kw):
            raise ConfigError("injected configuration problem")

        # Forked pool workers inherit the patched class.
        monkeypatch.setattr(GridEvaluator, "locate", reject)
        data = tiny_config_dict()
        for workers in (1, 2):
            with pytest.raises(ConfigError, match="injected configuration problem"):
                run_experiment(config_from_dict(data), workers=workers)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        code = main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: injected configuration problem" in capsys.readouterr().err

    def test_matched_environments(self):
        data = tiny_config_dict(trials=80)
        data["environment_p"] = copy.deepcopy(data["environment_q"])
        result = run_experiment(config_from_dict(data), workers=1)
        for point in result.points:
            assert point.delta2 == 0.0
            assert point.condition_ok
            assert point.bound_weak == pytest.approx(point.rmse_q)
            ratio = point.rmse_p / point.rmse_q
            assert 1 / 1.5 < ratio < 1.5

    def test_progress_messages(self):
        notes = []
        run_experiment(
            config_from_dict(tiny_config_dict()), workers=1, progress=notes.append
        )
        assert sum("snr" in text for text in notes) == 2

    def test_net_estimator(self):
        data = tiny_config_dict(
            estimator="net",
            trials=8,
            snr_db=[10.0],
            net=TINY_NET,
        )
        result = run_experiment(config_from_dict(data), workers=1)
        (point,) = result.points
        assert math.isfinite(point.rmse_q) and point.rmse_q > 0
        volume_diag = math.dist([60, 60, 40], [108, 108, 60])
        assert point.rmse_q < volume_diag  # clipping alone guarantees this
        assert len(result.metadata["net_loss_curve"]) == 3

    def test_fixed_source_respected_and_validated(self):
        data = tiny_config_dict(source=[84.0, 84.0, 50.0])
        result = run_experiment(config_from_dict(data), workers=1)
        assert result.metadata["source"] == [84.0, 84.0, 50.0]
        near = tiny_config_dict(source=[0.0, 0.0, 30.0])  # on a receiver
        with pytest.raises(ConfigError, match="far-field"):
            run_experiment(config_from_dict(near), workers=1)


# Set before a test pool forks, so its workers inherit it.
_POOL_BARRIER = None


def _worker_blas_threads(_):
    # Both tasks wait here, so each of the two workers runs one of them.
    _POOL_BARRIER.wait(timeout=30)
    return os.getpid(), blas_threads()


def blas_threads():
    """The thread count of every OpenBLAS this process loaded, keyed by the
    address of its get function, which names the library."""
    return {ctypes.cast(get, ctypes.c_void_p).value: int(get())
            for get, in _openblas_functions("get_num_threads")}


def loaded_before(counts, before):
    """counts for the libraries of before only: a run may be the first to load
    a library (scipy's OpenBLAS, when a k-NN search above csd._EXACT_MAX_PAIRS
    pairs loads cKDTree), whose count it neither caps nor has to restore."""
    return {library: counts[library] for library in before}


class TestWorkerBlasThreads:
    def test_each_worker_gets_its_share_of_the_cores(self, monkeypatch):
        getters = _openblas_functions("get_num_threads")
        if not getters:
            pytest.skip("numpy is not linked against OpenBLAS")
        parent = blas_threads()
        monkeypatch.setitem(globals(), "_POOL_BARRIER", multiprocessing.Barrier(2))
        share = harness._core_share(2)
        with ProcessPoolExecutor(
            max_workers=2, initializer=_init_worker, initargs=({"share": share},)
        ) as pool:
            seen = dict(pool.map(_worker_blas_threads, range(2)))
        assert len(seen) == 2
        assert all(threads == dict.fromkeys(parent, share) for threads in seen.values())
        assert blas_threads() == parent


class TestCoreCount:
    def test_without_sched_getaffinity(self, monkeypatch):
        # macOS has no os.sched_getaffinity; the count falls back to
        # os.cpu_count(), and to 1 where that is unknown.
        want = [p.row() for p in
                run_experiment(config_from_dict(tiny_config_dict()), workers=1).points]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert signal_mod.core_count() == (os.cpu_count() or 1)
        assert harness._core_share(1) == signal_mod.core_count()
        result = run_experiment(config_from_dict(tiny_config_dict()), workers=1)
        assert [p.row() for p in result.points] == want
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert signal_mod.core_count() == 1

    @pytest.mark.parametrize("estimator", ["ml", "net"])
    def test_one_worker_sweep_leaves_no_thread(self, monkeypatch, estimator):
        # Stacks and, for the net, the trial halves run on threads here;
        # none may be left alive for a later --workers 2 pool to fork.
        monkeypatch.setattr(signal_mod, "core_count", lambda: 2)
        before = threading.active_count()
        data = tiny_config_dict(estimator=estimator, net=TINY_NET)
        run_experiment(config_from_dict(data), workers=1)
        assert threading.active_count() == before


class TestMallocArena:
    def test_a_c_library_without_mallopt_is_skipped(self, monkeypatch):
        # macOS's libc has no mallopt; the arena limit is then left alone.
        class NoMallopt:
            pass

        monkeypatch.setattr(harness.ctypes, "CDLL", lambda name: NoMallopt())
        harness._one_malloc_arena.__wrapped__()


def force_core_share(monkeypatch, share):
    """Run the sweep as if each of its processes had `share` cores."""
    monkeypatch.setattr(harness, "_core_share", lambda workers: share)


def record_trial_draws(monkeypatch, on_draw):
    """Call on_draw(stage) before each trial chunk's draw, in the drawing thread."""
    draw = harness._draw_observations

    def recording(master, stage, *args):
        if stage.startswith("trial-"):
            on_draw(stage)
        return draw(master, stage, *args)

    monkeypatch.setattr(harness, "_draw_observations", recording)


ESTIMATORS = ("net", "ml")


class TestThreadedHalves:
    """At one worker the trial chunks run on two threads, for either estimator."""

    def data(self, estimator="net", **overrides):
        return tiny_config_dict(estimator=estimator, net=TINY_NET, **overrides)

    def test_threaded_serial_and_pooled_agree(self, monkeypatch):
        for estimator in ESTIMATORS:
            # Two chunks per half, so each thread draws more than one stream.
            data = self.data(estimator, trials=TRIAL_CHUNK + 7)
            monkeypatch.undo()
            runs = [run_experiment(config_from_dict(data), workers=2)]
            threads = set()
            record_trial_draws(monkeypatch,
                               lambda stage: threads.add(threading.get_ident()))
            for share in (2, 1):
                force_core_share(monkeypatch, share)
                runs.append(run_experiment(config_from_dict(data), workers=1))
                if share == 2 and _openblas_functions("set_num_threads"):
                    assert threads and threading.get_ident() not in threads
            first = runs[0]
            for result in runs[1:]:
                assert ([p.row() for p in result.points]
                        == [p.row() for p in first.points])
                for key in ("net_loss_curve", "csd_excluded_points"):
                    assert result.metadata.get(key) == first.metadata.get(key)

    def test_a_held_chunk_holds_up_no_other(self, monkeypatch):
        # One chunk per half. The first chunk drawn waits until the last one
        # is drawn, so the other thread has to take every other chunk, the
        # next point's too, without waiting for the held half.
        if not _openblas_functions("set_num_threads"):
            pytest.skip("numpy is not linked against OpenBLAS")
        config = config_from_dict(self.data())
        last = f"trial-p:{len(config.snr_db) - 1}"
        drawn = threading.Event()
        first = threading.Lock()

        def hold_first(stage):
            if stage == last:
                drawn.set()
            elif first.acquire(blocking=False):
                assert drawn.wait(timeout=30), "the held chunk stalled the others"

        record_trial_draws(monkeypatch, hold_first)
        force_core_share(monkeypatch, 2)
        run_experiment(config, workers=1)
        assert first.locked() and drawn.is_set()

    @pytest.mark.parametrize("failing, stage", [
        ({"trial-p:1"}, "snr[1]:p"),
        ({"trial-q:1", "trial-p:1"}, "snr[1]:q"),
    ])
    def test_failure_order(self, monkeypatch, tmp_path, capsys, failing, stage):
        def fail(drawn):
            if drawn in failing:
                if drawn.startswith("trial-q"):
                    time.sleep(0.2)  # the q half fails last, yet is raised first
                raise ValueError(f"injected draw failure at {drawn}")

        record_trial_draws(monkeypatch, fail)
        force_core_share(monkeypatch, 2)
        for estimator in ESTIMATORS:
            data = self.data(estimator)
            for workers in (1, 2):
                with pytest.raises(StageError) as info:
                    run_experiment(config_from_dict(data), workers=workers)
                assert info.value.stage == stage
            path = tmp_path / f"{estimator}.json"
            path.write_text(json.dumps(data))
            for workers in ("1", "2"):
                code = main(["experiment", "--config", str(path), "--workers", workers,
                             "--out", str(tmp_path / f"{estimator}{workers}")])
                assert code == 3
                assert f"stage '{stage}' failed" in capsys.readouterr().err

    @pytest.mark.parametrize("share", [2, 6])
    def test_blas_capped_in_the_halves_and_restored(self, monkeypatch, share):
        if not _openblas_functions("get_num_threads"):
            pytest.skip("numpy is not linked against OpenBLAS")
        seen = []
        estimate = harness._estimate

        def recording(state, observations, noise_power):
            if threading.current_thread() is not threading.main_thread():
                seen.append(blas_threads())
            return estimate(state, observations, noise_power)

        def fail(stage):
            raise ValueError("injected draw failure")

        changed = _set_blas_threads(4)  # a count neither cap equals
        try:
            before = blas_threads()
            for estimator in ESTIMATORS:
                monkeypatch.undo()
                force_core_share(monkeypatch, share)
                monkeypatch.setattr(harness, "_estimate", recording)
                seen.clear()
                run_experiment(config_from_dict(self.data(estimator)), workers=1)
                cap = dict.fromkeys(before, max(1, share // 2))
                assert seen and all(loaded_before(threads, before) == cap for threads in seen)
                assert loaded_before(blas_threads(), before) == before

                record_trial_draws(monkeypatch, fail)
                with pytest.raises(StageError):
                    run_experiment(config_from_dict(self.data(estimator)), workers=1)
                assert loaded_before(blas_threads(), before) == before
        finally:
            for set_threads, count in changed:
                set_threads(count)

    @pytest.mark.parametrize("share", [2, 1])
    def test_ml_units_on_two_threads_from_share_2(self, monkeypatch, share):
        # ML units run off the calling thread at a share of 2 cores, and on
        # one thread that is not the calling one at a share of 1.
        if share == 2 and not _openblas_functions("set_num_threads"):
            pytest.skip("numpy is not linked against OpenBLAS")
        threads = set()
        locate = GridEvaluator.locate

        def recording(self, observations, signal_power, noise_power):
            threads.add(threading.get_ident())
            return locate(self, observations, signal_power, noise_power)

        monkeypatch.setattr(GridEvaluator, "locate", recording)
        force_core_share(monkeypatch, share)
        run_experiment(config_from_dict(tiny_config_dict()), workers=1)
        assert threads and threading.get_ident() not in threads
        if share == 1:
            assert len(threads) == 1

    def test_one_thread_where_no_openblas_can_be_capped(self, monkeypatch):
        # Without an OpenBLAS to cap, two threads would oversubscribe the
        # cores; the units of either estimator run on one thread that is
        # not the calling one.
        monkeypatch.setattr(harness, "_set_blas_threads", lambda threads: [])
        force_core_share(monkeypatch, 2)
        threads = set()
        record_trial_draws(monkeypatch, lambda stage: threads.add(threading.get_ident()))
        for estimator in ESTIMATORS:
            threads.clear()
            run_experiment(config_from_dict(self.data(estimator)), workers=1)
            assert len(threads) == 1 and threading.get_ident() not in threads


# (workers, core share) of each executor _trial_phase picks.
EXECUTORS = {"one thread": (1, 1), "threads": (1, 2), "pool": (2, 1)}


class TestScheduler:
    """Every unit is queued up front, and each point is assembled when done."""

    def run(self, monkeypatch, executor, data, **kwargs):
        workers, share = EXECUTORS[executor]
        if executor == "threads" and not _openblas_functions("set_num_threads"):
            pytest.skip("numpy is not linked against OpenBLAS")
        force_core_share(monkeypatch, share)
        return run_experiment(config_from_dict(data), workers=workers, **kwargs)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_a_failing_unit_cancels_every_unit_not_started(self, monkeypatch, tmp_path,
                                                           executor):
        def fail_first(stage):
            (tmp_path / stage).touch()
            if stage == "trial-q:0":
                time.sleep(0.05)  # every unit is queued by now
                raise ValueError("injected draw failure")
            time.sleep(0.15)  # no other unit ends before the failure is seen

        record_trial_draws(monkeypatch, fail_first)
        data = tiny_config_dict(snr_db=[float(v) for v in range(8)])
        with pytest.raises(StageError) as info:
            self.run(monkeypatch, executor, data)
        assert info.value.stage == "snr[0]:q"
        # Beside the failing unit only the units already taken may start: the
        # other thread's, or each pool worker's and those in the pool's call
        # queue (workers + EXTRA_QUEUED_CALLS of them).
        may_start = {"one thread": 1, "threads": 2, "pool": 4 + EXTRA_QUEUED_CALLS}[executor]
        order = [f"trial-{kind}:{idx}" for idx in range(8) for kind in "qp"]
        started = set(os.listdir(tmp_path))
        assert "trial-q:0" in started and started <= set(order[:may_start])

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_a_held_unit_of_point_1_holds_up_no_note_of_point_0(self, monkeypatch,
                                                                executor):
        # Point 1's q unit waits until point 0's progress note is out, so that
        # note may not wait for point 1's units. Forked pool workers share
        # the event.
        noted = multiprocessing.Event()

        def hold(stage):
            if stage == "trial-q:1":
                assert noted.wait(timeout=10), "point 0 waited for point 1"

        def progress(text):
            if text.startswith("snr +0.0 dB"):
                noted.set()

        record_trial_draws(monkeypatch, hold)
        self.run(monkeypatch, executor, tiny_config_dict(), progress=progress)
        assert noted.is_set()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_an_assembly_failure_comes_before_later_trials(self, monkeypatch, executor):
        # Every unit of point 1 fails, likely before point 0 is assembled;
        # point 0's assembly comes first in the order, so its failure is raised.
        def fail_point_1(stage):
            if stage.endswith(":1"):
                raise ValueError("injected draw failure")

        def fail_bound(*args, **kwargs):
            raise ValueError("injected assembly failure")

        record_trial_draws(monkeypatch, fail_point_1)
        monkeypatch.setattr(bounds_mod, "strong_bound", fail_bound)
        with pytest.raises(StageError) as info:
            self.run(monkeypatch, executor, tiny_config_dict())
        assert info.value.stage == "snr[0]:assemble"
        assert "injected assembly failure" in str(info.value.cause)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_an_assembly_failure_cancels_the_queued_units(self, monkeypatch, tmp_path,
                                                          executor):
        # Point 0's assembly fails while the later points' units are queued;
        # leaving the trial phase drops those, so few of the 16 ever start.
        def record(stage):
            (tmp_path / stage).touch()
            time.sleep(0.05)

        def fail_bound(*args, **kwargs):
            raise ValueError("injected assembly failure")

        record_trial_draws(monkeypatch, record)
        monkeypatch.setattr(bounds_mod, "strong_bound", fail_bound)
        data = tiny_config_dict(snr_db=[float(v) for v in range(8)])
        with pytest.raises(StageError) as info:
            self.run(monkeypatch, executor, data)
        assert info.value.stage == "snr[0]:assemble"
        assert len(os.listdir(tmp_path)) < 12

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_no_thread_outlives_a_run(self, monkeypatch, executor):
        def fail(stage):
            raise ValueError("injected draw failure")

        before = threading.active_count()
        self.run(monkeypatch, executor, tiny_config_dict())
        assert threading.active_count() == before
        record_trial_draws(monkeypatch, fail)
        with pytest.raises(StageError):
            self.run(monkeypatch, executor, tiny_config_dict())
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []


class TestGenerateDataset:
    def test_round_trip_and_determinism(self, tmp_path):
        config = config_from_dict(tiny_config_dict())
        first = generate_dataset(config, count=6, snr_db=12.0, out_dir=tmp_path / "a")
        values, meta = load_observations(first["observations"])
        assert values.shape == (6, 3, 8)
        assert meta["count"] == "6" and meta["seed"] == "99"

        labels = np.loadtxt(first["labels"], delimiter=",", skiprows=1)
        assert labels.shape == (6, 3)
        volume = config.geometry.volume
        assert np.all(labels >= volume[0]) and np.all(labels <= volume[1])

        stored = json.loads(first["meta"].read_text())
        assert stored["count"] == 6 and stored["snr_db"] == 12.0
        assert stored["config"]["seed"] == 99

        second = generate_dataset(config, count=6, snr_db=12.0, out_dir=tmp_path / "b")
        assert (
            first["observations"].read_bytes() == second["observations"].read_bytes()
        )
        assert first["labels"].read_bytes() == second["labels"].read_bytes()

    def test_rejects_empty(self, tmp_path):
        config = config_from_dict(tiny_config_dict())
        with pytest.raises(ConfigError):
            generate_dataset(config, count=0, snr_db=0.0, out_dir=tmp_path)

    def test_rejects_snr_without_noise_power(self, tmp_path):
        # -inf divided by zero in noise_level
        config = config_from_dict(tiny_config_dict())
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="no finite, positive noise power"):
            generate_dataset(config, 3, -math.inf, out)
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", [3000.0, -3000.0, 300.5])
    def test_rejects_snr_outside_the_scorer_range(self, tmp_path, snr_db):
        # 3000 dB has a finite noise power; its dump overflowed the ML
        # scorer's weights in localize and exited 0 with a garbage rmse
        config = config_from_dict(tiny_config_dict())
        for name, write in (("dataset", partial(generate_dataset, config, 3)),
                            ("simulate", partial(harness.simulate, config, 3,
                                                 environment="p"))):
            out = tmp_path / name
            with pytest.raises(ConfigError, match="noise power within 300 dB of"):
                write(snr_db=snr_db, out_dir=out)
            assert not out.exists()

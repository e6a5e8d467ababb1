"""Grid ML localization, feature extraction, and the learned regressor."""

import math
import multiprocessing
import pickle
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uwloc import localize
from uwloc.channel import Environment
from uwloc.errors import ConfigError, TrainingError
from uwloc.localize import (
    GridEvaluator,
    GridSpec,
    NetModel,
    TrainingSet,
    extract_features,
    load_model,
    save_model,
    train_net,
)
from uwloc.harness import observation_chunks
from uwloc.signal import response_stack, response_stack_batch
from oracles import concentrated_loglikelihood

SAMPLE_PERIOD = 0.016
N_BINS = 16
RECEIVERS = np.array(
    [[0.0, 0.0, 30.0], [240.0, 0.0, 40.0], [0.0, 240.0, 55.0], [240.0, 240.0, 35.0]]
)


def iso_env(depth=100.0, speed=1500.0):
    return Environment(
        water_depth=depth,
        ssp=[[0.0, speed], [depth, speed]],
        surface_reflection=-0.9,
        bottom_reflection=0.5,
        absorption_db_per_m=1e-4,
        ray_budget=5,
    )


def small_grid(counts=(7, 7, 5), interpolate=False):
    return GridSpec(
        lower=np.array([60.0, 60.0, 40.0]),
        upper=np.array([120.0, 120.0, 60.0]),
        counts=np.array(counts),
        peak_interpolation=interpolate,
    )


def observe(env, position, noise_power, seed):
    """One (L, N) observation of a source at position."""
    stack = response_stack(env, RECEIVERS, position, N_BINS, SAMPLE_PERIOD)
    (_, block), = observation_chunks(seed, "observe", stack, noise_power, 1)
    return block[0]


def dense_loglikelihood(x, h, signal_power, noise_power):
    """Per-bin full Gaussian log density, constants included."""
    l_count, n_bins = x.shape
    total = 0.0
    for k in range(n_bins):
        cov = signal_power * np.outer(h[:, k], np.conj(h[:, k]))
        cov += noise_power * np.eye(l_count)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign.real > 0
        total -= logdet + float(np.real(np.conj(x[:, k]) @ np.linalg.solve(cov, x[:, k])))
    return total


class TestGridSpec:
    def test_nodes_run_z_fastest(self):
        spec = small_grid(counts=(2, 2, 3))
        nodes = spec.nodes()
        assert nodes.shape == (12, 3)
        np.testing.assert_array_equal(nodes[0], spec.lower)
        assert nodes[1][2] > nodes[0][2]
        np.testing.assert_array_equal(nodes[1][:2], spec.lower[:2])
        np.testing.assert_array_equal(nodes[-1], spec.upper)

    def test_steps_and_floor(self):
        spec = GridSpec([0.0, 0.0, 0.0], [60.0, 60.0, 20.0], [7, 7, 5], False)
        np.testing.assert_array_equal(spec.steps(), [10.0, 10.0, 5.0])
        want = np.linalg.norm([10.0, 10.0, 5.0]) / math.sqrt(12.0)
        assert spec.quantization_floor() == pytest.approx(want, rel=1e-12)

    def test_single_count_axis_is_flat(self):
        spec = GridSpec([0.0, 0.0, 50.0], [10.0, 10.0, 50.0], [3, 3, 1], False)
        assert spec.steps()[2] == 0.0
        assert np.all(spec.nodes()[:, 2] == 50.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            GridSpec([0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [2, 2, 2], False)
        with pytest.raises(ConfigError):
            GridSpec([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2, 0, 2], False)

    # A fraction used to run as 31 nodes and a boolean as 1.
    @pytest.mark.parametrize("counts", [[31.7, 31, 7], [True, 31, 7]],
                             ids=["fraction", "boolean"])
    def test_rejects_non_integer_counts(self, counts):
        with pytest.raises(ConfigError, match="'counts' must be a whole number"):
            GridSpec([0.0, 0.0, 0.0], [60.0, 60.0, 20.0], counts, False)

    def test_rejects_nan_lower(self):
        with pytest.raises(ConfigError, match="grid box coordinates must be finite"):
            GridSpec([0.0, math.nan, 0.0], [60.0, 60.0, 20.0], [7, 7, 5], False)


class TestConcentratedLoglikelihood:
    def test_matches_dense_form_up_to_constant(self):
        # The dropped terms do not depend on the candidate, so score
        # differences between candidates must match the dense computation.
        env = iso_env()
        rng = np.random.default_rng(0)
        x = observe(env, np.array([90.0, 85.0, 50.0]), 0.05, seed=1)
        candidates = rng.uniform([60, 60, 40], [120, 120, 60], size=(6, 3))
        s2, v2 = 1.0, 0.05
        conc, dense = [], []
        for pos in candidates:
            stack = response_stack(env, RECEIVERS, pos, N_BINS, SAMPLE_PERIOD)
            conc.append(concentrated_loglikelihood(x, stack, s2, v2))
            dense.append(dense_loglikelihood(x, stack, s2, v2))
        conc_d = np.diff(conc)
        dense_d = np.diff(dense)
        np.testing.assert_allclose(conc_d, dense_d, rtol=1e-8, atol=1e-8)

    def test_noiseless_peak_at_true_position(self):
        env = iso_env()
        true = np.array([95.0, 75.0, 48.0])
        obs = observe(env, true, 0.0, seed=2)
        stack_true = response_stack(env, RECEIVERS, true, N_BINS, SAMPLE_PERIOD)
        best = concentrated_loglikelihood(obs, stack_true, 1.0, 1e-4)
        rng = np.random.default_rng(3)
        for _ in range(50):
            other = rng.uniform([60, 60, 40], [120, 120, 60])
            stack = response_stack(env, RECEIVERS, other, N_BINS, SAMPLE_PERIOD)
            assert concentrated_loglikelihood(obs, stack, 1.0, 1e-4) < best

    def test_rejects_bad_arguments(self):
        x = np.ones((2, 3), dtype=complex)
        with pytest.raises(ValueError):
            concentrated_loglikelihood(x, x, 1.0, 0.0)
        with pytest.raises(ValueError):
            concentrated_loglikelihood(x, x, -1.0, 1.0)
        with pytest.raises(ValueError):
            concentrated_loglikelihood(x, np.ones((3, 3)), 1.0, 1.0)


class TestGridEvaluator:
    def test_exact_node_recovery(self):
        env = iso_env()
        spec = small_grid()
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        node = spec.nodes()[137]
        obs = observe(env, node, 1e-6, seed=4)
        got = evaluator.locate(obs[None], 1.0, 1e-6)
        np.testing.assert_array_equal(got, [node])

    def test_matches_exhaustive_argmax(self):
        env = iso_env()
        spec = small_grid(counts=(5, 5, 3))
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        nodes = spec.nodes()
        for seed in (5, 6, 7):
            x = observe(env, np.array([83.0, 104.0, 52.0]), 0.2, seed=seed)
            scores = [
                concentrated_loglikelihood(
                    x,
                    response_stack(env, RECEIVERS, node, N_BINS, SAMPLE_PERIOD),
                    1.0,
                    0.2,
                )
                for node in nodes
            ]
            want = nodes[int(np.argmax(scores))]
            got = evaluator.locate(x[None], 1.0, 0.2)
            np.testing.assert_array_equal(got, [want])

    def test_batch_matches_single(self, monkeypatch):
        # Chunks of 2 split the batch of 3 across two screens.
        monkeypatch.setattr(localize, "_LOCATE_CHUNK", 2)
        env = iso_env()
        spec = small_grid(counts=(5, 5, 3))
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        batch = np.stack(
            [observe(env, np.array([70.0, 110.0, 45.0]), 0.1, seed=s)
             for s in (8, 9, 10)]
        )
        got = evaluator.locate(batch, 1.0, 0.1)
        singles = [evaluator.locate(b[None], 1.0, 0.1) for b in batch]
        np.testing.assert_array_equal(got, np.concatenate(singles))

    def test_phase_rotation_leaves_estimate_unchanged(self):
        env = iso_env()
        spec = small_grid(counts=(5, 5, 3))
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        x = observe(env, np.array([100.0, 80.0, 55.0]), 0.1, seed=11)
        base = evaluator.locate(x[None], 1.0, 0.1)
        rotated = evaluator.locate(np.exp(1.3j) * x[None], 1.0, 0.1)
        np.testing.assert_array_equal(rotated, base)

    def test_zero_signal_power_ties_to_first_node(self):
        env = iso_env()
        spec = small_grid(counts=(3, 3, 3))
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        obs = observe(env, np.array([90.0, 90.0, 50.0]), 0.1, seed=12)
        got = evaluator.locate(obs[None], 0.0, 1.0)
        np.testing.assert_array_equal(got, spec.nodes()[:1])

    def test_high_snr_rmse_within_quantization_floor(self):
        env = iso_env()
        spec = small_grid()
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        rng = np.random.default_rng(13)
        nodes = spec.nodes()
        picks = rng.integers(0, len(nodes), size=100)
        noise = 1e-5
        batch = np.stack(
            [observe(env, nodes[i], noise, seed=1000 + t)
             for t, i in enumerate(picks)]
        )
        got = evaluator.locate(batch, 1.0, noise)
        rmse = float(np.sqrt(np.mean(np.sum((got - nodes[picks]) ** 2, axis=1))))
        assert rmse <= spec.quantization_floor()

    def test_interpolation_stays_within_half_step(self):
        env = iso_env()
        spec = small_grid()
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        interpolating = GridEvaluator(small_grid(interpolate=True), evaluator.stacks)
        true = np.array([87.0, 93.0, 51.0])  # off grid
        obs = observe(env, true, 1e-6, seed=14)[None]
        plain = evaluator.locate(obs, 1.0, 1e-6)[0]
        interp = interpolating.locate(obs, 1.0, 1e-6)[0]
        assert np.any(interp != plain)
        np.testing.assert_array_less(np.abs(interp - plain), spec.steps() / 2 + 1e-9)
        # the sub-grid correction should not hurt here
        assert np.linalg.norm(interp - true) <= np.linalg.norm(plain - true)

    def test_rejects_malformed_stacks(self):
        spec = small_grid(counts=(2, 2, 2))
        with pytest.raises(ConfigError):
            GridEvaluator(spec, np.ones((5, 2, 4), dtype=complex))

    def test_design_cache_follows_noise_level(self):
        # The one-entry cache must be rebuilt whenever either power changes,
        # including a return to a level it held before.
        env = iso_env()
        spec = small_grid(counts=(5, 5, 3), interpolate=True)
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        batch = np.stack(
            [observe(env, np.array([78.0, 96.0, 47.0]), 0.1, seed=s) for s in (15, 16)]
        )
        for signal_power, noise_power in ((1.0, 0.1), (1.0, 2.0), (1.0, 0.1), (0.05, 0.1)):
            fresh = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
            np.testing.assert_array_equal(
                evaluator.locate(batch, signal_power, noise_power),
                fresh.locate(batch, signal_power, noise_power),
            )

    @pytest.mark.parametrize("l_count", [1, 2, 3, 4, 5])
    def test_products_match_concatenated_oracle(self, l_count):
        # Oracle: the products as one concatenation of full-size float64
        # blocks; construction must round the same values into float32.
        rng = np.random.default_rng(40 + l_count)
        spec = small_grid(counts=(3, 4, 5))
        shape = (60, l_count, 33)
        stacks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacks *= 10.0 ** rng.uniform(-3, 3, size=(60, l_count, 1))
        row, col = np.triu_indices(l_count, 1)
        cross = np.conj(stacks[:, row, :]) * stacks[:, col, :]
        want = np.concatenate(
            [stacks.real**2 + stacks.imag**2, 2.0 * cross.real, -2.0 * cross.imag],
            axis=1,
            dtype=np.float32,
        )
        evaluator = GridEvaluator(spec, stacks)
        assert evaluator.products.dtype == np.float32
        assert np.array_equal(evaluator.products, want)
        assert np.array_equal(evaluator.energies, np.sum(np.abs(stacks) ** 2, axis=1))

    def test_construction_transient_is_small(self):
        # Construction may not hold full-size temporaries next to what the
        # evaluator keeps; numpy reports its buffers to tracemalloc.
        rng = np.random.default_rng(44)
        spec = small_grid(counts=(11, 11, 5))
        shape = (605, 4, 64)
        stacks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluator = GridEvaluator(spec, stacks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = (
            evaluator.products.nbytes + evaluator.energies.nbytes + evaluator.nodes.nbytes
        )
        assert peak - base <= 1.5 * kept, (peak - base, kept)

    def test_rejects_negative_signal_power(self):
        spec = GridSpec([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3, 1, 1], False)
        evaluator = GridEvaluator(spec, np.ones((3, 2, 4), dtype=complex))
        with pytest.raises(ValueError):
            evaluator.locate(np.ones((1, 2, 4)), -1.0, 1.0)

    @pytest.mark.parametrize("signal_power, noise_power, named", [
        (1.0, np.nan, "noise power must be finite and > 0, got nan"),
        (1.0, np.inf, "noise power must be finite and > 0, got inf"),
        (1.0, 0.0, "noise power must be finite and > 0, got 0.0"),
        (np.nan, 1.0, "signal power must be finite and >= 0, got nan"),
        (np.inf, 1.0, "signal power must be finite and >= 0, got inf"),
    ], ids=["noise-nan", "noise-inf", "noise-zero", "signal-nan", "signal-inf"])
    def test_rejects_non_finite_powers(self, signal_power, noise_power, named):
        # A NaN or infinite power used to locate every trial at node 0.
        spec = GridSpec([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3, 1, 1], False)
        evaluator = GridEvaluator(spec, np.ones((3, 2, 4), dtype=complex))
        with pytest.raises(ValueError, match=named):
            evaluator.locate(np.ones((1, 2, 4)), signal_power, noise_power)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_observation(self, bad):
        spec = GridSpec([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3, 1, 1], False)
        evaluator = GridEvaluator(spec, np.ones((3, 2, 4), dtype=complex))
        x = np.ones((3, 2, 4), dtype=complex)
        x[1, 0, 0] = bad
        with pytest.raises(ValueError, match="observation 1 "):
            evaluator.locate(x, 1.0, 1.0)
        with pytest.raises(ValueError, match="observation 0 "):
            evaluator.locate(x[1:], 1.0, 1.0)

    def test_near_ties_follow_float64_scores(self):
        # Nodes 11-19 are nodes 0-8 moved by about 1e-7 relative, node 20 is
        # node 9 scaled by 1 + 1e-9 and node 21 duplicates node 10. float32
        # cannot order these pairs, so the float64 scores must decide, and
        # the exact tie must go to the lower index.
        rng = np.random.default_rng(24)

        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        base = cnormal(11, 3, 5)
        twins = base[:9] * (1.0 + 1e-7 * cnormal(9, 3, 5))
        stacks = np.concatenate([base, twins, base[9:10] * (1.0 + 1e-9), base[10:]])
        spec = GridSpec([0.0, 0.0, 0.0], [21.0, 0.0, 0.0], [22, 1, 1], False)
        evaluator = GridEvaluator(spec, stacks)
        batch = 3.0 * base + 0.1 * cnormal(11, 3, 5)
        got = evaluator.locate(batch, 1.0, 0.1)
        for centre, (x, pos) in enumerate(zip(batch, got)):
            scores = np.array(
                [concentrated_loglikelihood(x, h, 1.0, 0.1) for h in stacks]
            )
            want = int(np.argmax(scores))
            pair = (centre, centre + 11)
            assert want in pair
            assert abs(scores[pair[0]] - scores[pair[1]]) < 1e-6 * abs(scores[want])
            if centre == 10:
                assert scores[10] == scores[21] and want == 10
            np.testing.assert_array_equal(pos, spec.nodes()[want])

    def test_interpolation_matches_float64_parabola(self):
        env = iso_env()
        spec = small_grid(interpolate=True)
        nodes = spec.nodes()
        stacks = response_stack_batch(env, RECEIVERS, nodes, N_BINS, SAMPLE_PERIOD)
        evaluator = GridEvaluator(spec, stacks)
        noise = 0.02
        true = np.array([87.0, 93.0, 51.0])
        batch = np.stack([observe(env, true, noise, seed=s) for s in range(30, 42)])
        got = evaluator.locate(batch, 1.0, noise)
        steps = spec.steps()
        strides = (spec.counts[1] * spec.counts[2], spec.counts[2], 1)
        for x, pos in zip(batch, got):
            scores = np.array(
                [concentrated_loglikelihood(x, h, 1.0, noise) for h in stacks]
            )
            best = int(np.argmax(scores))
            want = nodes[best].copy()
            index = np.unravel_index(best, spec.shape)
            for axis in range(3):
                if not 0 < index[axis] < spec.counts[axis] - 1:
                    continue
                s_lo = scores[best - strides[axis]]
                s_hi = scores[best + strides[axis]]
                denom = s_lo + s_hi - 2.0 * scores[best]
                if denom < 0.0:
                    delta = np.clip(0.5 * (s_lo - s_hi) / denom, -0.5, 0.5)
                    want[axis] += delta * steps[axis]
            np.testing.assert_allclose(pos, want, rtol=0, atol=1e-9)


class TestSharedLevel:
    """One cached level shared by concurrent calls; no design is kept."""

    def case(self):
        env = iso_env()
        spec = small_grid(counts=(5, 5, 3), interpolate=True)
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        batch = np.stack(
            [observe(env, np.array([78.0, 96.0, 47.0]), 0.1, seed=s) for s in range(6)]
        )
        return evaluator, batch

    def test_threads_at_two_levels(self):
        # Four threads, two per level, more than a 2-core host has cores; a
        # short switch interval makes the interpreter interleave them often.
        evaluator, batch = self.case()
        levels = [(1.0, 0.1), (1.0, 2.0)]
        want = {
            level: GridEvaluator(evaluator.spec, evaluator.stacks).locate(batch, *level)
            for level in levels
        }
        barrier = threading.Barrier(4)
        got = {level: [] for level in levels}

        def run(level):
            barrier.wait(timeout=30)
            for _ in range(10):
                got[level].append(evaluator.locate(batch, *level))

        threads = [
            threading.Thread(target=run, args=(level,), daemon=True)
            for level in levels * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "locate deadlocked"
        for level in levels:
            assert len(got[level]) == 20
            for rows in got[level]:
                np.testing.assert_array_equal(rows, want[level])

    def test_locate_allocates_less_than_a_design(self):
        # The weighted products are formed one block of _SCREEN_NODES nodes
        # at a time, so a call never holds a (G, L*L*N) float32 design.
        rng = np.random.default_rng(53)
        counts = (-(-4 * localize._SCREEN_NODES // 64), 8, 8)
        shape = (int(np.prod(counts)), 4, 16)
        stacks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = GridSpec([0.0, 0.0, 0.0], [30.0, 20.0, 10.0], counts, True)
        evaluator = GridEvaluator(spec, stacks)
        batch = stacks[[5, 900, 2000]] + 0.3 * rng.standard_normal((3, 4, 16))
        design_bytes = shape[0] * 4 * 4 * shape[2] * 4
        assert evaluator.products.nbytes == design_bytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluator.locate(batch, 1.0, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < design_bytes, (peak - base, design_bytes)

    def test_pickle_round_trip_locates_identically(self):
        evaluator, batch = self.case()
        want = evaluator.locate(batch, 1.0, 0.1)  # holds a level and its lock
        clone = pickle.loads(pickle.dumps(evaluator))
        np.testing.assert_array_equal(clone.locate(batch, 1.0, 0.1), want)
        np.testing.assert_array_equal(
            clone.locate(batch, 1.0, 2.0), evaluator.locate(batch, 1.0, 2.0)
        )

    def test_locates_in_a_spawned_process(self):
        # spawn (macOS's default) and forkserver pickle what a worker gets.
        evaluator, batch = self.case()
        want = evaluator.locate(batch, 1.0, 0.1)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            got = pool.submit(evaluator.locate, batch, 1.0, 0.1).result(timeout=120)
        np.testing.assert_array_equal(got, want)


def level_arrays(level):
    return [value for value in level if isinstance(value, np.ndarray)]


class TestBlockWorkingSet:
    """Construction, a level build and a call hold block-sized buffers."""

    def case(self):
        # 12 blocks of _SCREEN_NODES nodes, one receiver and 128 bins, so
        # that a chunk's per-call buffers stay below G*N*8 bytes.
        rng = np.random.default_rng(57)
        counts = (12 * localize._SCREEN_NODES // 64, 8, 8)
        shape = (int(np.prod(counts)), 1, 128)
        stacks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = GridSpec([0.0, 0.0, 0.0], [30.0, 20.0, 10.0], counts, True)
        return spec, stacks, rng

    def test_construction_holds_one_block_of_buffers(self):
        spec, stacks, _ = self.case()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluator = GridEvaluator(spec, stacks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = (
            evaluator.products.nbytes + evaluator.energies.nbytes + evaluator.nodes.nbytes
        )
        # The kernel's two complex rows per node, and a float64 row to spare.
        block = localize._SCREEN_NODES * stacks.shape[2] * (16 + 16 + 8)
        assert peak - base <= kept + block, (peak - base, kept, block)

    def test_level_build_holds_block_buffers_only(self):
        spec, stacks, _ = self.case()
        evaluator = GridEvaluator(spec, stacks)
        node_count, n_bins = evaluator.energies.shape
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            level = evaluator._level(1.0, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(array.nbytes for array in level_arrays(level))
        block = localize._SCREEN_NODES * n_bins * 8
        assert peak - base <= kept + 3 * block, (peak - base, kept, block)
        for array in level_arrays(level):
            assert not (array.dtype == np.float64 and array.ndim == 2), array.shape
        assert level.w32.shape == (node_count, n_bins)

    def test_locate_at_a_new_level_allocates_less_than_a_weight_table(self):
        spec, stacks, rng = self.case()
        evaluator = GridEvaluator(spec, stacks)
        node_count, n_bins = evaluator.energies.shape
        evaluator.locate(stacks[:2], 1.0, 0.1)
        rows = rng.integers(0, node_count, localize._LOCATE_CHUNK)
        noise = rng.standard_normal((rows.size, 1, n_bins, 2)) @ np.array([1.0, 1j])
        batch = stacks[rows] + 0.3 * noise
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluator.locate(batch, 1.0, 0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(array.nbytes for array in level_arrays(evaluator._cached))
        table = node_count * n_bins * 8
        assert peak - base - kept < table, (peak - base, kept, table)


@st.composite
def weight_case(draw):
    """Stacks (G, L, N) of wide dynamic range, trials, powers, block sizes."""
    g = draw(st.integers(1, 40))
    # One receiver, one bin and one pair per batch make one-element complex
    # products, which numpy rounds differently in place.
    l_count = draw(st.just(1) | st.integers(1, 4))
    n_bins = draw(st.just(1) | st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    stacks = cnormal(g, l_count, n_bins) * 10.0 ** rng.uniform(-4, 4, (g, 1, n_bins))
    if draw(st.booleans()):
        stacks[rng.integers(0, g)] = 0.0
    block = cnormal(3, l_count, n_bins) * 10.0 ** rng.uniform(-4, 4)
    signal_power = draw(st.sampled_from([0.0, 1.0]) | st.floats(1e-6, 1e6))
    noise_power = draw(st.floats(1e-20, 1e20))
    screen = draw(st.just(1) | st.integers(1, g + 1))
    pairs = draw(st.just(1) | st.integers(1, 70))
    return stacks, block, signal_power, noise_power, screen, pairs


class TestLevelBits:
    @settings(max_examples=150, deadline=None)
    @given(case=weight_case())
    def test_level_and_rescore_keep_the_full_table_bits(self, case):
        # Oracle: the level and the rescore as one full-size float64 weight
        # table, weight = signal_power / (noise_power * gain), and the
        # products built in one block.
        stacks, block, signal_power, noise_power, screen, pairs = case
        g = stacks.shape[0]
        spec = GridSpec([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [g, 1, 1], False)
        whole = GridEvaluator(spec, stacks)
        with mock.patch.object(localize, "_SCREEN_NODES", screen), \
                mock.patch.object(localize, "_RESCORE_PAIRS", pairs):
            evaluator = GridEvaluator(spec, stacks)
            level = evaluator._level(signal_power, noise_power)
            trials = np.repeat(np.arange(3), g)
            nodes = np.tile(np.arange(g), 3)
            got = evaluator._rescore(block, trials, nodes, level)
        assert np.array_equal(evaluator.products, whole.products)
        assert np.array_equal(evaluator.energies, whole.energies)
        gain = signal_power * evaluator.energies + noise_power
        weight = signal_power / (noise_power * gain)
        offset = np.sum(np.log(gain), axis=1)
        with np.errstate(over="ignore"):
            assert np.array_equal(level.w32, weight.astype(np.float32))
        assert np.array_equal(level.offset, offset)
        assert np.array_equal(level.offset32, offset.astype(np.float32))
        assert np.array_equal(level.bin_max, np.max(weight * evaluator.energies, axis=0))
        assert level.top_weight == np.max(weight)
        assert level.top_offset == np.max(np.abs(offset))
        assert level.top_bin == np.max(level.bin_max)
        inner = np.sum(np.conj(stacks[nodes]) * block[trials], axis=1)
        power = inner.real**2 + inner.imag**2
        want = np.sum(weight[nodes] * power, axis=1) - offset[nodes]
        assert np.array_equal(got, want)


class TestBlockedScreen:
    def test_float32_floor_keeps_every_comparison(self):
        # For float32 x, x >= v must hold exactly when x >= v's float32 floor.
        rng = np.random.default_rng(51)
        info = np.finfo(np.float32)
        big, tiny = float(info.max), float(info.smallest_subnormal)
        values = np.concatenate([
            [np.inf, -np.inf, np.nan, 0.0, -0.0, big, -big, 1.5 * big, -1.5 * big,
             tiny, 0.5 * tiny, -0.5 * tiny, 1.0 + 2.0**-30],
            rng.standard_normal(300) * 10.0 ** rng.uniform(-45, 45, 300),
        ])
        with np.errstate(over="ignore"):
            near = values.astype(np.float32)
            x = np.concatenate([
                near,
                np.nextafter(near, np.float32(np.inf)),
                np.nextafter(near, np.float32(-np.inf)),
            ])
        floor = localize._float32_floor(values)
        assert floor.dtype == np.float32
        np.testing.assert_array_equal(
            x[:, None] >= floor[None, :], x[:, None] >= values[None, :]
        )

    @pytest.mark.parametrize("interpolate", [False, True])
    def test_block_size_changes_nothing(self, monkeypatch, interpolate):
        # Nodes 12-23 repeat nodes 0-11, so every trial has exact ties;
        # trial 0 is scaled past the float32 safety test.
        rng = np.random.default_rng(50)

        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        base = cnormal(12, 3, 5)
        stacks = np.concatenate([base, base])
        spec = GridSpec([0.0, 0.0, 0.0], [30.0, 20.0, 10.0], [4, 3, 2], interpolate)
        node_count = stacks.shape[0]
        evaluator = GridEvaluator(spec, stacks)
        batch = 3.0 * base[[3, 0, 5, 11, 7]] + 0.3 * cnormal(5, 3, 5)
        batch[0] *= 1e19
        rescored = []
        rescore = GridEvaluator._rescore

        def recording(self, block, trials, nodes, level):
            rescored.append(trials)
            return rescore(self, block, trials, nodes, level)

        monkeypatch.setattr(GridEvaluator, "_rescore", recording)
        outputs = []
        for size in (1, 7, node_count, node_count + 1):
            monkeypatch.setattr(localize, "_SCREEN_NODES", size)
            rescored.clear()
            outputs.append(evaluator.locate(batch, 1.0, 0.1))
            # The screen's candidates come first: all of trial 0's nodes.
            assert np.count_nonzero(rescored[0] == 0) == node_count
        for out in outputs[1:]:
            np.testing.assert_array_equal(out, outputs[0])
        if not interpolate:
            # Each exact tie goes to the lower node: 0, 5, 11 and 7.
            np.testing.assert_array_equal(
                outputs[0][1:], spec.nodes()[[0, 5, 11, 7]]
            )


@st.composite
def scorer_case(draw):
    """Random stacks (G, L, N), observations (T, L, N) and powers."""
    g = draw(st.integers(2, 30))
    l_count = draw(st.integers(1, 5))
    n_bins = draw(st.integers(1, 8))
    t_count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    signal_power = draw(st.floats(1e-2, 1e2))
    noise_power = draw(st.floats(1e-2, 1e2))
    stacks = cnormal(g, l_count, n_bins)
    observations = cnormal(t_count, l_count, n_bins)
    return stacks, observations, signal_power, noise_power


class TestFusedScorerProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=scorer_case())
    def test_argmax_matches_loglikelihood(self, case):
        stacks, observations, signal_power, noise_power = case
        spec = GridSpec([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [stacks.shape[0], 1, 1], False)
        evaluator = GridEvaluator(spec, stacks)
        want = []
        for x in observations:
            scores = np.array([
                concentrated_loglikelihood(x, h, signal_power, noise_power)
                for h in stacks
            ])
            top, second = np.sort(scores)[::-1][:2]
            assume(top - second > 1e-9 * (1.0 + abs(top)))
            want.append(spec.nodes()[int(np.argmax(scores))])
        # Chunks of 2 split a batch of 3 across two screens.
        with mock.patch.object(localize, "_LOCATE_CHUNK", 2):
            got = evaluator.locate(observations, signal_power, noise_power)
        np.testing.assert_array_equal(got, np.stack(want))


class TestExtractFeatures:
    def test_hand_layout(self):
        x = np.array([[[1 + 2j, 3 - 1j], [0.5j, -2 + 0j]]])
        got = extract_features(x, 1.0)
        mags = [abs(1 + 2j), abs(3 - 1j), 0.5, 2.0]
        cross = [(1 + 2j) * np.conj(0.5j), (3 - 1j) * np.conj(-2 + 0j)]
        want = np.array(
            mags
            + [m * m for m in mags]
            + [c.real for c in cross]
            + [c.imag for c in cross]
        )
        np.testing.assert_allclose(got, [want], rtol=1e-15)

    def test_feature_count(self):
        l_count, n_bins, trials = 4, 8, 3
        x = np.zeros((trials, l_count, n_bins), dtype=complex)
        got = extract_features(x, 1.0)
        pairs = l_count * (l_count - 1) // 2
        assert got.shape == (trials, 2 * l_count * n_bins + 2 * pairs * n_bins)
        assert np.all(got == 0.0)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 16)) + 1j * rng.standard_normal((2, 3, 16))
        base = extract_features(x, 1.0)
        rotated = extract_features(np.exp(0.77j) * x, 1.0)
        np.testing.assert_allclose(rotated, base, rtol=1e-12, atol=1e-12)

    def test_attenuation_scaling(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        att = 0.3
        scaled = extract_features(x, att)
        manual = extract_features(x / math.sqrt(att), 1.0)
        np.testing.assert_allclose(scaled, manual, rtol=1e-12)
        with pytest.raises(ConfigError):
            extract_features(x, 0.0)

    @pytest.mark.parametrize("attenuation", [math.nan, math.inf])
    def test_rejects_non_finite_attenuation(self, attenuation):
        # NaN passed the old `attenuation <= 0` test and gave NaN features;
        # +inf gave all-zero features.
        x = np.ones((2, 3, 4), dtype=complex)
        with pytest.raises(ConfigError, match="attenuation must be finite and > 0"):
            extract_features(x, attenuation)

    def test_rows_do_not_depend_on_the_batch(self):
        # One batch of 500 rows and the same rows one at a time, bit for bit:
        # the cross terms multiply their operands in one order at every size.
        rng = np.random.default_rng(18)
        x = rng.standard_normal((500, 4, 64)) + 1j * rng.standard_normal((500, 4, 64))
        one_by_one = [extract_features(x[i : i + 1], 0.37) for i in range(len(x))]
        assert np.array_equal(extract_features(x, 0.37), np.concatenate(one_by_one))


@st.composite
def spectra_case(draw):
    """Random complex stacks h (G, L, N) and observations x (T, L, N)."""
    l_count = draw(st.integers(1, 5))
    n_bins = draw(st.integers(1, 8))
    g = draw(st.integers(1, 6))
    t_count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3, 3))

    def cnormal(*shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return cnormal(g, l_count, n_bins), cnormal(t_count, l_count, n_bins)


def spectra(x, dtype=float):
    t_count, l_count, n_bins = x.shape
    out = np.empty((t_count, l_count * l_count, n_bins), dtype)
    return localize._receiver_spectra(x, out)


class TestReceiverSpectra:
    @settings(max_examples=100, deadline=None)
    @given(case=spectra_case())
    def test_products_dot_stats_is_matched_power(self, case):
        # With the cross blocks doubled, the spectra of h dotted with those
        # of x per bin are |h^H x|^2, to rounding relative to |h|^2 |x|^2.
        h, x = case
        l_count = h.shape[1]
        products = spectra(h)
        products[:, l_count:] *= 2.0
        got = np.einsum("gkn,tkn->tgn", products, spectra(x))
        want = np.abs(np.einsum("gln,tln->tgn", np.conj(h), x)) ** 2
        scale = np.einsum("gn,tn->tgn", np.sum(np.abs(h) ** 2, axis=1),
                          np.sum(np.abs(x) ** 2, axis=1))
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(case=spectra_case(), attenuation=st.floats(1e-6, 1e3))
    def test_feature_tail_is_the_kernel(self, case, attenuation):
        _, x = case
        t_count, l_count, n_bins = x.shape
        want = spectra(x / math.sqrt(attenuation)).reshape(t_count, -1)
        got = extract_features(x, attenuation)[:, l_count * n_bins :]
        assert np.array_equal(got, want)

    @settings(max_examples=50, deadline=None)
    @given(case=spectra_case())
    def test_float32_is_float64_rounded_once(self, case):
        _, x = case
        assert np.array_equal(spectra(x, np.float32), spectra(x).astype(np.float32))


class TestTrainingSet:
    def test_validates_shapes(self):
        with pytest.raises(ConfigError):
            TrainingSet(np.ones((4, 2)), np.ones((3, 3)))
        with pytest.raises(ConfigError):
            TrainingSet(np.ones((4, 2)), np.ones((4, 2)))
        ts = TrainingSet(np.ones((4, 2)), np.ones((4, 3)))
        assert ts.count == 4


def fit(features, targets, **net):
    """train_net with its predictions clipped to the targets' box."""
    return train_net(
        features,
        targets,
        clip_lower=np.min(targets, axis=0),
        clip_upper=np.max(targets, axis=0),
        **net,
    )


def reference_train(features, targets, hidden, epochs, batch_size,
                    learning_rate, seed):
    """train_net written plainly: a standardized copy of every feature
    row and out-of-place Adam updates. Returns (weights, biases,
    feature_scale, loss_curve)."""
    feats, targs = np.asarray(features, float), np.asarray(targets, float)
    count = feats.shape[0]
    f_std = feats.std(axis=0)
    f_scale = np.where(f_std < 1e-12, 1.0, f_std)
    t_std = targs.std(axis=0)
    t_scale = np.where(t_std < 1e-12, 1.0, t_std)
    x_all = (feats - feats.mean(axis=0)) / f_scale
    y_all = (targs - targs.mean(axis=0)) / t_scale
    rng = np.random.default_rng(seed)
    sizes = [feats.shape[1], *hidden, targs.shape[1]]
    weights = [
        rng.standard_normal((i, o)) * math.sqrt(2.0 / i)
        for i, o in zip(sizes[:-1], sizes[1:])
    ]
    biases = [np.zeros(o) for o in sizes[1:]]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    loss_curve = []
    for _ in range(epochs):
        order = rng.permutation(count)
        losses = []
        for start in range(0, count, batch_size):
            batch = order[start : start + batch_size]
            acts = [x_all[batch]]
            for w, b in zip(weights[:-1], biases[:-1]):
                acts.append(np.maximum(acts[-1] @ w + b, 0.0))
            resid = acts[-1] @ weights[-1] + biases[-1] - y_all[batch]
            losses.append(float(np.mean(resid**2)))
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
                for ms, vs, param, g in (
                    (m_w, v_w, weights, grads_w),
                    (m_b, v_b, biases, grads_b),
                ):
                    ms[layer] = beta1 * ms[layer] + (1 - beta1) * g[layer]
                    vs[layer] = beta2 * vs[layer] + (1 - beta2) * g[layer] ** 2
                    param[layer] = param[layer] - (
                        learning_rate
                        * (ms[layer] / bias1)
                        / (np.sqrt(vs[layer] / bias2) + eps)
                    )
        loss_curve.append(float(np.mean(losses)))
    return weights, biases, f_scale, np.asarray(loss_curve)


def reference_predict(model, feats):
    """NetModel.predict written out of place."""
    a = (feats - model.feature_mean) / model.feature_scale
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    out = (a @ model.weights[-1] + model.biases[-1]) * model.target_scale
    return np.clip(out + model.target_mean, model.clip_lower, model.clip_upper)


class TestTrainNet:
    def test_matches_reference_loop(self):
        # 70 rows in minibatches of 32 leave a partial last batch of 6;
        # feature 2 is constant, so its scale falls back to 1.
        rng = np.random.default_rng(17)
        feats = rng.standard_normal((70, 9)) * rng.uniform(0.1, 10.0, 9)
        feats[:, 2] = 3.0
        targets = rng.uniform([0, 0, 10], [50, 60, 20], size=(70, 3))
        args = dict(hidden=(16, 8), epochs=4, batch_size=32, learning_rate=3e-3)
        model, curve = fit(feats, targets, seed=9, **args)
        weights, biases, f_scale, want_curve = reference_train(
            feats, targets, seed=9, **args
        )
        assert f_scale[2] == 1.0
        assert np.array_equal(model.feature_scale, f_scale)
        assert np.array_equal(curve, want_curve)
        for got, want in zip(model.weights + model.biases, weights + biases):
            assert np.array_equal(got, want)
        fresh = 3.0 * rng.standard_normal((25, 9))
        assert np.array_equal(model.predict(fresh), reference_predict(model, fresh))

    def test_memory_beyond_inputs_and_parameters(self):
        # Training may hold one minibatch and per-step temporaries next to
        # the caller's features, the parameters and the two Adam moments,
        # but no (count, F) array; numpy reports its buffers to tracemalloc.
        rng = np.random.default_rng(16)
        feats = rng.standard_normal((2000, 1024))
        targets = rng.standard_normal((2000, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model, _ = fit(
                feats, targets, hidden=(16,), epochs=1, batch_size=256,
                learning_rate=1e-3, seed=2,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state = 3 * sum(p.nbytes for p in model.weights + model.biases)
        assert peak - base - state <= 0.25 * feats.nbytes, (peak - base - state)

    def test_memorizes_small_set(self):
        rng = np.random.default_rng(18)
        feats = rng.standard_normal((24, 6))
        targets = rng.uniform(0.0, 100.0, size=(24, 3))
        model, curve = fit(
            feats,
            targets,
            hidden=(48,),
            epochs=800,
            batch_size=24,
            learning_rate=5e-3,
            seed=1,
        )
        assert curve[-1] < 1e-4
        assert curve[-1] < curve[0] / 50.0
        pred = model.predict(feats)
        rmse = float(np.sqrt(np.mean(np.sum((pred - targets) ** 2, axis=1))))
        assert rmse < 0.1 * np.std(targets) * math.sqrt(3)

    def test_learns_linear_map(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((5, 3))
        feats = rng.standard_normal((600, 5))
        targets = feats @ a + np.array([10.0, -4.0, 2.0])
        model, _ = fit(
            feats, targets, hidden=(32, 32), epochs=200, batch_size=128,
            learning_rate=1e-3, seed=2,
        )
        fresh = rng.standard_normal((200, 5))
        pred = model.predict(fresh)
        want = fresh @ a + np.array([10.0, -4.0, 2.0])
        # interior predictions; clipping to the training box distorts the
        # comparison, so only score points inside it
        inside = np.all((want > model.clip_lower) & (want < model.clip_upper), axis=1)
        assert inside.sum() > 50
        err = np.sqrt(np.mean(np.sum((pred[inside] - want[inside]) ** 2, axis=1)))
        scale = np.sqrt(np.mean(np.sum((want[inside]) ** 2, axis=1)))
        assert err < 0.1 * scale

    def test_seed_determinism(self):
        rng = np.random.default_rng(20)
        feats = rng.standard_normal((40, 4))
        targets = rng.standard_normal((40, 3))
        net = dict(hidden=(16,), epochs=10, batch_size=256, learning_rate=1e-3)
        m1, c1 = fit(feats, targets, seed=7, **net)
        m2, c2 = fit(feats, targets, seed=7, **net)
        np.testing.assert_array_equal(c1, c2)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)
        m3, _ = fit(feats, targets, seed=8, **net)
        assert any(
            not np.array_equal(w1, w3) for w1, w3 in zip(m1.weights, m3.weights)
        )

    def test_divergent_learning_rate_raises(self):
        # Adam's normalized steps keep moderate blowups finite; a rate this
        # size overflows the squared loss within an epoch.
        rng = np.random.default_rng(21)
        feats = rng.standard_normal((64, 4))
        targets = rng.standard_normal((64, 3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fit(
                    feats,
                    targets,
                    hidden=(16, 16),
                    epochs=50,
                    batch_size=256,
                    learning_rate=1e100,
                    seed=3,
                )

    def test_predictions_clipped_to_given_box(self):
        # The box need not be the targets' own: the pipeline passes the
        # search volume.
        rng = np.random.default_rng(22)
        feats = rng.standard_normal((30, 4))
        targets = rng.uniform([0, 0, 10], [50, 60, 20], size=(30, 3))
        lower, upper = np.array([5.0, -3.0, 12.0]), np.array([40.0, 70.0, 18.0])
        model, _ = train_net(
            feats, targets, hidden=(8,), epochs=5, batch_size=256,
            learning_rate=1e-3, seed=4, clip_lower=lower, clip_upper=upper,
        )
        np.testing.assert_array_equal(model.clip_lower, lower)
        np.testing.assert_array_equal(model.clip_upper, upper)
        wild = model.predict(100.0 * rng.standard_normal((20, 4)))
        assert np.all(wild >= lower) and np.all(wild <= upper)
        assert np.any(wild == lower) and np.any(wild == upper)

    def test_rejects_bad_inputs(self):
        net = dict(hidden=(4,), epochs=1, batch_size=256, learning_rate=1e-3, seed=0)
        with pytest.raises(TrainingError):
            fit(np.ones((1, 2)), np.ones((1, 3)), **net)
        with pytest.raises(TrainingError):
            fit(np.ones((4, 2)), np.ones((3, 3)), **net)
        with pytest.raises(TrainingError):
            fit(np.ones((4, 2)), np.ones((4, 3)), **(net | {"epochs": 0}))


def random_model(sizes, rng):
    """A NetModel of the given layer sizes with random parameters."""
    weights = [rng.standard_normal((i, o)) * math.sqrt(2.0 / i)
               for i, o in zip(sizes[:-1], sizes[1:])]
    return NetModel(
        weights=weights,
        biases=[0.1 * rng.standard_normal(o) for o in sizes[1:]],
        feature_mean=rng.standard_normal(sizes[0]),
        feature_scale=rng.uniform(0.5, 2.0, sizes[0]),
        target_mean=rng.uniform(0.0, 100.0, 3),
        target_scale=rng.uniform(1.0, 20.0, 3),
        clip_lower=np.full(3, -1e3),
        clip_upper=np.full(3, 1e3),
    )


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestNetLocate:
    BLOCK = localize._NET_ROWS

    # The default net (4 receivers x 64 bins -> 1280 features, 256 x 3
    # hidden) and a small one.
    @pytest.mark.parametrize("l_count, n_bins, hidden", [
        (4, 64, (256, 256, 256)),
        (3, 8, (16, 8)),
    ])
    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 500])
    def test_equals_whole_batch_predict(self, l_count, n_bins, hidden, count):
        rng = np.random.default_rng(count)
        width = localize.feature_count(l_count, n_bins)
        model = random_model([width, *hidden, 3], rng)
        obs = complex_normal(rng, count, l_count, n_bins)
        np.testing.assert_array_equal(
            model.locate(obs, 0.37), model.predict(extract_features(obs, 0.37))
        )

    def test_blocks(self):
        # Blocks of BLOCK rows; a last one under BLOCK // 2 rows takes the
        # second half of the one before it.
        rng = np.random.default_rng(3)
        model = random_model([localize.feature_count(3, 8), 4, 3], rng)
        block, half = self.BLOCK, self.BLOCK // 2
        for count, want in ((3 * block + 1, [block, block, half, half + 1]),
                            (3 * block + half, [block] * 3 + [half]),
                            (half, [half]), (0, [])):
            seen = []

            def recording(obs, attenuation):
                seen.append(obs.shape[0])
                return extract_features(obs, attenuation)

            with mock.patch.object(localize, "extract_features", recording):
                got = model.locate(complex_normal(rng, count, 3, 8), 1.0)
            assert got.shape == (count, 3)
            assert seen == want

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(4)
        model = random_model([localize.feature_count(3, 8), 4, 3], rng)
        with pytest.raises(ValueError, match="= 96 for this model"):
            model.locate(np.ones((2, 3, 16), dtype=complex), 1.0)
        with pytest.raises(ValueError):
            model.locate(np.ones((3, 8), dtype=complex), 1.0)
        for attenuation in (math.nan, math.inf, 0.0):
            with pytest.raises(ConfigError):
                model.locate(np.ones((0, 3, 8), dtype=complex), attenuation)


class TestModelIo:
    def make_model(self, seed=23):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((30, 5))
        targets = rng.standard_normal((30, 3))
        model, _ = fit(
            feats, targets, hidden=(8, 4), epochs=3, batch_size=256,
            learning_rate=1e-3, seed=5,
        )
        return model, feats

    def test_round_trip(self, tmp_path):
        model, feats = self.make_model()
        path = tmp_path / "model.uwnet"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.layer_sizes() == model.layer_sizes()
        for got, want in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(loaded.biases, model.biases):
            np.testing.assert_array_equal(got, want)
        for name in (
            "feature_mean",
            "feature_scale",
            "target_mean",
            "target_scale",
            "clip_lower",
            "clip_upper",
        ):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        np.testing.assert_array_equal(loaded.predict(feats), model.predict(feats))

    def test_rejects_corrupt_files(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.uwnet"
        save_model(path, model)
        raw = path.read_bytes()

        bad_magic = tmp_path / "magic.uwnet"
        bad_magic.write_bytes(b"NOTNET" + raw[6:])
        with pytest.raises(ConfigError):
            load_model(bad_magic)

        truncated = tmp_path / "short.uwnet"
        truncated.write_bytes(raw[:-16])
        with pytest.raises(ConfigError):
            load_model(truncated)

        bad_sizes = tmp_path / "sizes.uwnet"
        bad_sizes.write_bytes(raw.replace(b"layers=5,8,4,3", b"layers=5,x,4,3", 1))
        with pytest.raises(ConfigError):
            load_model(bad_sizes)

    def test_predict_rejects_wrong_width(self):
        model, _ = self.make_model()
        with pytest.raises(ValueError):
            model.predict(np.ones((2, 7)))
        with pytest.raises(ValueError):
            model.predict(np.ones(5))

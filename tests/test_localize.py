"""Grid ML localization, feature extraction, and the learned regressor."""

import math

import numpy as np
import pytest

from uwloc.channel import Environment
from uwloc.errors import ConfigError, TrainingError
from uwloc.localize import (
    GridEvaluator,
    GridSpec,
    NetModel,
    TrainingSet,
    concentrated_loglikelihood,
    extract_features,
    load_model,
    save_model,
    train_net,
)
from uwloc.harness import observation_chunks
from uwloc.signal import response_stack

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


def small_grid(counts=(7, 7, 5)):
    return GridSpec(
        lower=np.array([60.0, 60.0, 40.0]),
        upper=np.array([120.0, 120.0, 60.0]),
        counts=np.array(counts),
    )


def observe(env, position, noise_power, seed):
    """One (L, N) observation of a source at position."""
    stack = response_stack(env, RECEIVERS, position, N_BINS, SAMPLE_PERIOD)
    (_, block), = observation_chunks(seed, "observe", stack.h, noise_power, 1)
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
        spec = GridSpec([0.0, 0.0, 0.0], [60.0, 60.0, 20.0], [7, 7, 5])
        np.testing.assert_array_equal(spec.steps(), [10.0, 10.0, 5.0])
        want = np.linalg.norm([10.0, 10.0, 5.0]) / math.sqrt(12.0)
        assert spec.quantization_floor() == pytest.approx(want, rel=1e-12)

    def test_single_count_axis_is_flat(self):
        spec = GridSpec([0.0, 0.0, 50.0], [10.0, 10.0, 50.0], [3, 3, 1])
        assert spec.steps()[2] == 0.0
        assert np.all(spec.nodes()[:, 2] == 50.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            GridSpec([0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [2, 2, 2])
        with pytest.raises(ConfigError):
            GridSpec([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2, 0, 2])


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
            dense.append(dense_loglikelihood(x, stack.h, s2, v2))
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
        got = evaluator.locate(obs, 1.0, 1e-6, interpolate=False)
        np.testing.assert_array_equal(got, node)

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
            got = evaluator.locate(x, 1.0, 0.2, interpolate=False)
            np.testing.assert_array_equal(got, want)

    def test_batch_matches_single(self):
        env = iso_env()
        spec = small_grid(counts=(5, 5, 3))
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        batch = np.stack(
            [observe(env, np.array([70.0, 110.0, 45.0]), 0.1, seed=s)
             for s in (8, 9, 10)]
        )
        got = evaluator.locate(batch, 1.0, 0.1, interpolate=False, chunk=2)
        singles = [evaluator.locate(b, 1.0, 0.1, interpolate=False) for b in batch]
        np.testing.assert_array_equal(got, np.stack(singles))

    def test_phase_rotation_leaves_estimate_unchanged(self):
        env = iso_env()
        spec = small_grid(counts=(5, 5, 3))
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        x = observe(env, np.array([100.0, 80.0, 55.0]), 0.1, seed=11)
        base = evaluator.locate(x, 1.0, 0.1, interpolate=False)
        rotated = evaluator.locate(np.exp(1.3j) * x, 1.0, 0.1, interpolate=False)
        np.testing.assert_array_equal(rotated, base)

    def test_zero_signal_power_ties_to_first_node(self):
        env = iso_env()
        spec = small_grid(counts=(3, 3, 3))
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        obs = observe(env, np.array([90.0, 90.0, 50.0]), 0.1, seed=12)
        got = evaluator.locate(obs, 0.0, 1.0, interpolate=False)
        np.testing.assert_array_equal(got, spec.nodes()[0])

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
        got = evaluator.locate(batch, 1.0, noise, interpolate=False)
        rmse = float(np.sqrt(np.mean(np.sum((got - nodes[picks]) ** 2, axis=1))))
        assert rmse <= spec.quantization_floor()

    def test_interpolation_stays_within_half_step(self):
        env = iso_env()
        spec = small_grid()
        evaluator = GridEvaluator.from_scene(env, RECEIVERS, spec, N_BINS, SAMPLE_PERIOD)
        true = np.array([87.0, 93.0, 51.0])  # off grid
        obs = observe(env, true, 1e-6, seed=14)
        plain = evaluator.locate(obs, 1.0, 1e-6, interpolate=False)
        interp = evaluator.locate(obs, 1.0, 1e-6, interpolate=True)
        assert np.any(interp != plain)
        np.testing.assert_array_less(np.abs(interp - plain), spec.steps() / 2 + 1e-9)
        # the sub-grid correction should not hurt here
        assert np.linalg.norm(interp - true) <= np.linalg.norm(plain - true)

    def test_rejects_malformed_stacks(self):
        spec = small_grid(counts=(2, 2, 2))
        with pytest.raises(ConfigError):
            GridEvaluator(spec, np.ones((5, 2, 4), dtype=complex))


class TestExtractFeatures:
    def test_hand_layout(self):
        x = np.array([[1 + 2j, 3 - 1j], [0.5j, -2 + 0j]])
        got = extract_features(x)
        mags = [abs(1 + 2j), abs(3 - 1j), 0.5, 2.0]
        cross = [(1 + 2j) * np.conj(0.5j), (3 - 1j) * np.conj(-2 + 0j)]
        want = np.array(
            mags
            + [m * m for m in mags]
            + [c.real for c in cross]
            + [c.imag for c in cross]
        )
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_feature_count(self):
        l_count, n_bins, trials = 4, 8, 3
        x = np.zeros((trials, l_count, n_bins), dtype=complex)
        got = extract_features(x)
        pairs = l_count * (l_count - 1) // 2
        assert got.shape == (trials, 2 * l_count * n_bins + 2 * pairs * n_bins)
        assert np.all(got == 0.0)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        base = extract_features(x)
        rotated = extract_features(np.exp(0.77j) * x)
        np.testing.assert_allclose(rotated, base, rtol=1e-12, atol=1e-12)

    def test_attenuation_scaling(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        att = 0.3
        scaled = extract_features(x, attenuation=att)
        manual = extract_features(x / math.sqrt(att))
        np.testing.assert_allclose(scaled, manual, rtol=1e-12)
        with pytest.raises(ConfigError):
            extract_features(x, attenuation=0.0)


class TestTrainingSet:
    def test_validates_shapes(self):
        with pytest.raises(ConfigError):
            TrainingSet(np.ones((4, 2)), np.ones((3, 3)))
        with pytest.raises(ConfigError):
            TrainingSet(np.ones((4, 2)), np.ones((4, 2)))
        ts = TrainingSet(np.ones((4, 2)), np.ones((4, 3)))
        assert ts.count == 4


class TestTrainNet:
    def test_memorizes_small_set(self):
        rng = np.random.default_rng(18)
        feats = rng.standard_normal((24, 6))
        targets = rng.uniform(0.0, 100.0, size=(24, 3))
        model, curve = train_net(
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
        model, _ = train_net(
            feats, targets, hidden=(32, 32), epochs=200, batch_size=128, seed=2
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
        m1, c1 = train_net(feats, targets, hidden=(16,), epochs=10, seed=7)
        m2, c2 = train_net(feats, targets, hidden=(16,), epochs=10, seed=7)
        np.testing.assert_array_equal(c1, c2)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)
        m3, _ = train_net(feats, targets, hidden=(16,), epochs=10, seed=8)
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
                train_net(
                    feats,
                    targets,
                    hidden=(16, 16),
                    epochs=50,
                    learning_rate=1e100,
                    seed=3,
                )

    def test_clip_defaults_to_target_box(self):
        rng = np.random.default_rng(22)
        feats = rng.standard_normal((30, 4))
        targets = rng.uniform([0, 0, 10], [50, 60, 20], size=(30, 3))
        model, _ = train_net(feats, targets, hidden=(8,), epochs=5, seed=4)
        np.testing.assert_array_equal(model.clip_lower, targets.min(axis=0))
        np.testing.assert_array_equal(model.clip_upper, targets.max(axis=0))
        wild = model.predict(100.0 * rng.standard_normal((20, 4)))
        assert np.all(wild >= model.clip_lower) and np.all(wild <= model.clip_upper)

    def test_rejects_bad_inputs(self):
        with pytest.raises(TrainingError):
            train_net(np.ones((1, 2)), np.ones((1, 3)))
        with pytest.raises(TrainingError):
            train_net(np.ones((4, 2)), np.ones((3, 3)))
        with pytest.raises(TrainingError):
            train_net(np.ones((4, 2)), np.ones((4, 3)), epochs=0)


class TestModelIo:
    def make_model(self, seed=23):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((30, 5))
        targets = rng.standard_normal((30, 3))
        model, _ = train_net(feats, targets, hidden=(8, 4), epochs=3, seed=5)
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

    def test_predict_single_matches_batch(self):
        # the BLAS vector and matrix paths may differ in the last ulp
        model, feats = self.make_model()
        batch = model.predict(feats)
        np.testing.assert_allclose(
            model.predict(feats[0]), batch[0], rtol=1e-12, atol=1e-15
        )

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
            model.predict(np.ones(7))

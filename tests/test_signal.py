"""Frequency-domain observation model: grids, responses, synthesis, dumps."""

import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwloc import signal as signal_mod
from uwloc.channel import Environment, arrivals_batch
from uwloc.errors import ConfigError
from uwloc.harness import SIGNAL_POWER, observation_chunks
from uwloc.signal import (
    angular_frequencies,
    load_observations,
    response_stack,
    response_stack_batch,
    save_observations,
)


def draw(h, noise_power, count, master=0):
    """count observations x = s h + v from the harness synthesizer."""
    chunks = observation_chunks(master, "test", h, noise_power, count)
    return np.concatenate([obs for _, obs in chunks])


class TestAngularFrequencies:
    def test_single_bin(self):
        assert np.array_equal(angular_frequencies(1, 0.125), [0.0])

    def test_four_bins_unit_period(self):
        got = angular_frequencies(4, 1.0)
        np.testing.assert_allclose(
            got, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], rtol=0, atol=1e-15
        )

    def test_second_bin_half_period(self):
        assert angular_frequencies(8, 0.5)[1] == pytest.approx(np.pi / 2, rel=1e-15)

    def test_uniform_spacing_from_zero(self):
        got = angular_frequencies(9, 0.37)
        assert got[0] == 0.0
        np.testing.assert_allclose(
            np.diff(got), 2 * np.pi / (9 * 0.37), rtol=1e-13
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            angular_frequencies(0, 1.0)
        with pytest.raises(ConfigError):
            angular_frequencies(4, 0.0)


def kernel(delays, gains, omegas):
    """signal._factored_response on (..., R) arrivals; returns (..., N)."""
    delays = np.asarray(delays, dtype=float)
    n_bins = omegas.size
    fine = signal_mod._fine_count(n_bins)
    angle = np.empty((*delays.shape, fine + n_bins // fine))
    phases = np.empty(angle.shape, dtype=complex)
    out = np.empty((*delays.shape[:-1], n_bins // fine, fine), dtype=complex)
    signal_mod._factored_response(delays, np.asarray(gains, dtype=complex), omegas,
                                  angle, phases, out)
    return out.reshape(*delays.shape[:-1], n_bins)


def exact_response(delays, gains, omegas):
    """sum_r g_r exp(-j w_k tau_r) in 50-digit arithmetic on the float64 inputs."""
    with mpmath.workdps(50):
        terms = [(mpmath.mpc(g.real, g.imag), mpmath.mpf(tau))
                 for tau, g in zip(delays, gains)]
        return np.array([
            complex(mpmath.fsum(g * mpmath.expj(-mpmath.mpf(w) * tau) for g, tau in terms))
            for w in omegas
        ])


def rounding_bound(delays, gains, omegas):
    """16 u (1 + max_r |w_k tau_r|) sum_r |g_r| per bin, for R <= 8 arrivals.

    Each phase is off by a few u per radian of its angle (the product
    w tau, and w_cF + w_f against w_k, each entry of the grid within a
    few u of its exact value) plus about u from cos and sin, and the
    gain products and the sum over R arrivals add about (R + 4) u of
    sum_r |g_r|.
    """
    u = np.finfo(float).eps / 2
    angle = np.abs(np.outer(omegas, delays)).max(axis=1)
    return 16 * u * (1 + angle) * np.abs(gains).sum()


class TestSteeringMatrix:
    # One arrival of unit gain: each bin is its steering entry exp(-j w_k tau).
    def test_zero_delays_all_ones(self):
        got = kernel(np.zeros((3, 1)), np.ones((3, 1)), angular_frequencies(6, 0.25))
        assert np.array_equal(got, np.ones((3, 6), dtype=complex))

    def test_half_period_phase(self):
        # omega grid of N=4, T_s=1 puts pi at bin index 2; tau=1 then flips sign.
        got = kernel([1.0], [1.0], angular_frequencies(4, 1.0))
        assert got[2] == pytest.approx(-1.0, abs=1e-12)

    def test_unit_modulus_and_formula(self):
        rng = np.random.default_rng(5)
        delays = rng.uniform(0.0, 3.0, size=(7, 1))
        omegas = angular_frequencies(12, 0.05)
        got = kernel(delays, np.ones((7, 1)), omegas)
        assert got.shape == (7, 12)
        np.testing.assert_allclose(np.abs(got), 1.0, rtol=1e-12)
        np.testing.assert_allclose(got, np.exp(-1j * delays * omegas), rtol=1e-13)


class TestFrequencyResponse:
    def test_fine_count(self):
        got = [signal_mod._fine_count(n) for n in (1, 2, 7, 9, 10, 12, 13, 16, 64)]
        assert got == [1, 2, 7, 3, 5, 4, 13, 4, 8]

    def test_flat_channel(self):
        got = kernel([0.0], [1.0], angular_frequencies(8, 0.125))
        assert np.allclose(got, 1.0, atol=1e-15)

    def test_destructive_interference(self):
        got = kernel([0.0, 1.0], [1.0, 1.0], angular_frequencies(4, 1.0))
        assert abs(got[2]) < 1e-12

    def test_matches_dft_of_sampled_impulse_train(self):
        # Delays at integer multiples of the sample period reduce the model
        # to a DFT of the gain train.
        rng = np.random.default_rng(10)
        n_bins, t_s = 16, 0.02
        omegas = angular_frequencies(n_bins, t_s)
        for _ in range(20):
            taps = rng.integers(0, n_bins, size=5)
            gains = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            got = kernel(taps * t_s, gains, omegas)
            train = np.zeros(n_bins, dtype=complex)
            np.add.at(train, taps, gains)
            np.testing.assert_allclose(got, np.fft.fft(train), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n_bins", [1, 7, 12, 13, 16, 64])
    def test_within_rounding_bound_of_exact_sum(self, n_bins):
        # The factored phases do not carry the bits of exp(-j w_k tau); the
        # contract is the stated rounding bound against the exact sum of
        # the same float64 delays, gains and grid, which the direct formula
        # meets too.
        rng = np.random.default_rng(n_bins)
        omegas = angular_frequencies(n_bins, 1e-3)
        for arrivals in (1, 3, 8):
            delays = rng.uniform(0.0, 1.0, size=arrivals)
            gains = rng.standard_normal(arrivals) + 1j * rng.standard_normal(arrivals)
            want = exact_response(delays, gains, omegas)
            bound = rounding_bound(delays, gains, omegas)
            assert np.all(np.abs(kernel(delays, gains, omegas) - want) <= bound)
            direct = np.exp(-1j * np.outer(omegas, delays)) @ gains
            assert np.all(np.abs(direct - want) <= bound)

    @settings(max_examples=40, deadline=None)
    @given(
        n_bins=st.integers(1, 130),
        arrivals=st.integers(1, 8),
        sample_period=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_rounding_bound_any_bin_count(self, n_bins, arrivals, sample_period,
                                                 seed):
        rng = np.random.default_rng(seed)
        omegas = angular_frequencies(n_bins, sample_period)
        delays = rng.uniform(0.0, 1.0, size=arrivals)
        gains = rng.standard_normal(arrivals) + 1j * rng.standard_normal(arrivals)
        got = kernel(delays, gains, omegas)
        want = exact_response(delays, gains, omegas)
        assert np.all(np.abs(got - want) <= rounding_bound(delays, gains, omegas))


class TestResponseStack:
    def iso_env(self):
        return Environment(
            water_depth=100.0,
            ssp=[[0.0, 1500.0], [100.0, 1500.0]],
            surface_reflection=-1.0,
            bottom_reflection=0.5,
            absorption_db_per_m=1e-4,
            ray_budget=5,
        )

    def test_matches_manual_steering_sum(self):
        env = self.iso_env()
        receivers = np.array([[0.0, 0.0, 30.0], [200.0, 50.0, 60.0]])
        position = np.array([120.0, 80.0, 45.0])
        n_bins, t_s = 12, 0.01
        stack = response_stack(env, receivers, position, n_bins, t_s)
        assert stack.shape == (2, n_bins) and stack.dtype == complex
        delays, gains = arrivals_batch(env, receivers, position[None, :])
        omegas = angular_frequencies(n_bins, t_s)
        for l in range(2):
            want = np.exp(-1j * np.outer(omegas, delays[0, l])) @ gains[0, l]
            np.testing.assert_allclose(stack[l], want, rtol=1e-12)

    def test_batch_chunking_invariant(self, monkeypatch):
        env = self.iso_env()
        receivers = [[0.0, 0.0, 30.0], [200.0, 50.0, 60.0]]
        rng = np.random.default_rng(3)
        positions = rng.uniform([50, 50, 20], [250, 250, 80], size=(9, 3))
        # Prime bin counts take one coarse row, composite ones several.
        for n_bins in (1, 7, 8, 12, 13):
            monkeypatch.setattr(signal_mod, "_STACK_CHUNK", 256)
            monkeypatch.setattr(signal_mod, "core_count", lambda: 1)
            full = response_stack_batch(env, receivers, positions, n_bins, 0.01)
            assert full.shape == (9, 2, n_bins)
            monkeypatch.setattr(signal_mod, "_STACK_CHUNK", 4)
            # The ragged last chunk has one row, fewer than two or three threads.
            for threads in (1, 2, 3):
                monkeypatch.setattr(signal_mod, "core_count", lambda n=threads: n)
                chunked = response_stack_batch(env, receivers, positions, n_bins, 0.01)
                assert chunked.tobytes() == full.tobytes(), (n_bins, threads)

    @pytest.mark.parametrize("failing_chunk", [1, 2])
    def test_batch_thread_failure_is_raised_and_no_thread_outlives(self, monkeypatch,
                                                                   failing_chunk):
        # Chunks of 4 rows: the second chunk, or the ragged last one, fails.
        env = self.iso_env()
        receivers = [[0.0, 0.0, 30.0], [200.0, 50.0, 60.0]]
        positions = np.random.default_rng(6).uniform([50, 50, 20], [250, 250, 80],
                                                     size=(9, 3))
        monkeypatch.setattr(signal_mod, "_STACK_CHUNK", 4)
        monkeypatch.setattr(signal_mod, "core_count", lambda: 2)
        before = threading.active_count()
        kernel = signal_mod._factored_response

        class Boom(Exception):
            pass

        def fail_in_one_chunk(*args):
            # Each row block is written into a view of the output.
            out = args[-1]
            first_row = (out.ctypes.data - out.base.ctypes.data) // out[0].nbytes
            if first_row // 4 == failing_chunk:
                raise Boom
            kernel(*args)

        monkeypatch.setattr(signal_mod, "_factored_response", fail_in_one_chunk)
        with pytest.raises(Boom):
            response_stack_batch(env, receivers, positions, 8, 0.01)
        assert threading.active_count() == before
        monkeypatch.setattr(signal_mod, "_factored_response", kernel)
        response_stack_batch(env, receivers, positions, 8, 0.01)
        assert threading.active_count() == before

    def test_batch_transient_is_one_chunk(self):
        # Beyond its output a stack build holds one chunk's float64 angle
        # and complex128 phase tables, F + N/F = 16 entries per arrival at
        # N = 64 (24 bytes an entry), and arrival tables, whatever the
        # position count. numpy reports its buffers to tracemalloc. The
        # budget is three times the tables of 256 positions (the arrivals
        # of one chunk take about half of that at their peak); one chunk's
        # N-wide angle and phase tensors alone are four times the tables.
        env = self.iso_env()
        receivers = [[0.0, 0.0, 30.0], [200.0, 50.0, 60.0], [90.0, 210.0, 45.0],
                     [240.0, 240.0, 35.0]]
        n_bins, rays = 64, env.ray_budget
        budget = 3 * 256 * len(receivers) * rays * (8 + 8) * 24
        rng = np.random.default_rng(5)
        for count in (600, 1300):
            positions = rng.uniform([50, 50, 20], [250, 250, 80], size=(count, 3))
            tracemalloc.start()
            try:
                out = response_stack_batch(env, receivers, positions, n_bins, 0.01)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes < budget, (count, peak - out.nbytes, budget)


class TestDrawWaveform:
    # Through a unit response without noise an observation is the waveform.
    def test_deterministic_for_seed(self):
        ones = np.ones((1, 32))
        a = draw(ones, 0.0, 4, master=123)
        assert np.array_equal(a, draw(ones, 0.0, 4, master=123))
        assert not np.array_equal(a, draw(ones, 0.0, 4, master=124))

    def test_mean_and_variance(self):
        n_bins, draws = 8, 30000
        block = draw(np.ones((1, n_bins)), 0.0, draws, master=42)[:, 0, :]
        # Each real component has variance SIGNAL_POWER/2; the mean of all
        # samples stays within 3 standard errors.
        band = 3.0 * math.sqrt(SIGNAL_POWER / 2.0 / block.size)
        assert abs(block.real.mean()) < band
        assert abs(block.imag.mean()) < band
        per_bin_var = np.mean(np.abs(block) ** 2, axis=0)
        np.testing.assert_allclose(per_bin_var, SIGNAL_POWER, rtol=0.02)


class TestSynthesize:
    def test_noiseless_identity_channel(self):
        x = draw(np.ones((3, 16)), 0.0, 2)
        for l in range(1, 3):
            assert np.array_equal(x[:, l], x[:, 0])

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigError):
            draw(np.ones((1, 4)), -0.1, 1)

    def test_noise_only_covariance(self):
        # With a zero response the observation is pure noise; per-bin
        # receiver vectors are i.i.d., so bins double as extra draws.
        l_count, n_bins, draws, noise_power = 2, 64, 1500, 0.8
        x = draw(np.zeros((l_count, n_bins)), noise_power, draws, master=2024)
        cov = np.einsum("tlk,tmk->lm", x, np.conj(x)) / (draws * n_bins)
        np.testing.assert_allclose(cov, noise_power * np.eye(l_count), atol=0.02 * noise_power)

    def test_full_model_covariance(self):
        from uwloc.bounds import build_covariance

        rng = np.random.default_rng(77)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        noise_power, draws = 0.6, 20000
        x = draw(h, noise_power, draws, master=77).reshape(draws, -1)
        emp = x.T @ np.conj(x) / draws
        want = build_covariance(h, SIGNAL_POWER, noise_power)
        err = np.linalg.norm(emp - want) / np.linalg.norm(want)
        assert err < 0.05

    def test_linearity_shared_seed(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        noise = draw(np.zeros_like(h), 0.5, 4, master=99)
        x1 = draw(h, 0.5, 4, master=99)
        x2 = draw(2.0 * h, 0.5, 4, master=99)
        np.testing.assert_allclose(x2 - noise, 2.0 * (x1 - noise), atol=1e-12)
        # one shared response and the same response per observation agree
        per_observation = np.broadcast_to(h, (4, 3, 16))
        assert np.array_equal(draw(per_observation, 0.5, 4, master=99), x1)


class TestObservationDump:
    def make_values(self, rng, count=5, l_count=2, n_bins=4):
        return rng.standard_normal((count, l_count, n_bins)) + 1j * rng.standard_normal(
            (count, l_count, n_bins)
        )

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        values = self.make_values(rng)
        path = tmp_path / "obs.bin"
        save_observations(path, values, seed=321)
        loaded, meta = load_observations(path)
        assert np.array_equal(loaded, values)
        assert meta == {"L": "2", "N": "4", "count": "5", "seed": "321"}

    def test_round_trip_keeps_every_bit(self, tmp_path):
        # Signed zeros too: each entry's re and im come back bit for bit,
        # and the payload is the raw little-endian complex128 block.
        values = self.make_values(np.random.default_rng(11))
        values[0, 0, 0] = complex(-0.0, -0.0)
        values[1, 1, 2] = complex(0.0, -0.0)
        values[2, 0, 3] = complex(-0.0, 0.0)
        path = tmp_path / "obs.bin"
        save_observations(path, values, seed=0)
        loaded, _ = load_observations(path)
        assert loaded.view(np.uint64).tobytes() == values.view(np.uint64).tobytes()
        raw = path.read_bytes()
        assert raw[raw.index(b"\n") + 1 :] == values.astype("<c16").tobytes()

    def test_save_writes_from_the_block_itself(self, tmp_path):
        # numpy reports its buffers to tracemalloc; a complex128 block needs
        # no interleaved or byte-string copy.
        values = self.make_values(np.random.default_rng(12), count=2000, l_count=4,
                                  n_bins=64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_observations(tmp_path / "obs.bin", values, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * values.nbytes, peak

    def test_rejects_bad_shape_and_format(self, tmp_path):
        rng = np.random.default_rng(8)
        with pytest.raises(ConfigError):
            save_observations(tmp_path / "x", rng.standard_normal((3, 4)), seed=0)
        with pytest.raises(ConfigError):
            save_observations(tmp_path / "x", np.zeros((0, 2, 4)), seed=0)
        # a text dump with the header behind "# " is not the binary format
        text = tmp_path / "obs.csv"
        text.write_text("# UWOBS1 L=1 N=1 count=1 seed=0\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="not an observation dump"):
            load_observations(text)

    @pytest.mark.parametrize(
        "header",
        [
            b"UWOBS1 L=2\n",
            b"\xff\xfe\n",
            b"UWOBS1 L=2 N=x count=5 seed=0\n",
            b"UWOBS1 L=2 N=4 count 5 seed=0\n",
            b"UWOBS1 L=-2 N=-4 count=5 seed=0\n",
        ],
    )
    def test_rejects_malformed_header(self, tmp_path, header):
        rng = np.random.default_rng(10)
        path = tmp_path / "obs.bin"
        save_observations(path, self.make_values(rng), seed=0)
        raw = path.read_bytes()
        path.write_bytes(header + raw[raw.index(b"\n") + 1 :])
        with pytest.raises(ConfigError):
            load_observations(path)

    def test_rejects_wrong_magic_and_truncation(self, tmp_path):
        rng = np.random.default_rng(9)
        values = self.make_values(rng)
        path = tmp_path / "obs.bin"
        save_observations(path, values, seed=0)
        raw = path.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOTOBS" + raw[6:])
        with pytest.raises(ConfigError):
            load_observations(bad)
        short = tmp_path / "short.bin"
        short.write_bytes(raw[:-16])
        with pytest.raises(ConfigError):
            load_observations(short)

    def test_rejects_non_finite_payload(self, tmp_path):
        values = np.ones((3, 2, 4), dtype=complex)
        values[1, 0, 0] = np.nan
        path = tmp_path / "obs.bin"
        save_observations(path, values, seed=0)
        with pytest.raises(ConfigError, match="not finite in observation 1"):
            load_observations(path)

"""Waveguide arrival model: geometry, delays, gains, scene I/O."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from uwloc import channel
from uwloc.channel import (
    DEFAULT_MIN_DISTANCE,
    Environment,
    Geometry,
    arrivals_batch,
    average_attenuation,
    environment_from_dict,
    environment_to_dict,
    geometry_from_dict,
    geometry_to_dict,
    stratified_delay,
    validate_environment,
    validate_geometry,
)
from uwloc.errors import ConfigError, DegenerateGeometryError


def iso_env(depth=100.0, speed=1500.0, surface=-1.0, bottom=0.5,
            absorption=0.0, budget=4):
    return Environment(
        water_depth=depth,
        ssp=[[0.0, speed], [depth, speed]],
        surface_reflection=surface,
        bottom_reflection=bottom,
        absorption_db_per_m=absorption,
        ray_budget=budget,
    )


def layered_env(budget=6):
    return Environment(
        water_depth=100.0,
        ssp=[[0.0, 1520.0], [30.0, 1495.0], [100.0, 1505.0]],
        surface_reflection=-0.9,
        bottom_reflection=0.45,
        absorption_db_per_m=2e-4,
        ray_budget=budget,
    )


def _delay_oracle(env, start, end):
    """Straight-ray travel time by adaptive quadrature on 1/c(z)."""
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    dist = np.linalg.norm(end - start)
    depths = env.ssp[:, 0]
    speeds = env.ssp[:, 1]

    def slowness(t):
        z = start[2] + t * (end[2] - start[2])
        return 1.0 / np.interp(z, depths, speeds)

    if abs(end[2] - start[2]) > 0:
        knots = sorted(
            (z - start[2]) / (end[2] - start[2])
            for z in depths
            if min(start[2], end[2]) < z < max(start[2], end[2])
        )
    else:
        knots = None
    value, _ = quad(slowness, 0.0, 1.0, points=knots, limit=200,
                    epsabs=1e-14, epsrel=1e-12)
    return dist * value


class TestValidation:
    def test_good_environment_is_clean(self):
        assert validate_environment(layered_env()) == []

    def test_bad_depth(self):
        env = iso_env()
        env.water_depth = -5.0
        assert any("depth" in msg for msg in validate_environment(env))

    def test_nonincreasing_breakpoints(self):
        env = iso_env()
        env.ssp = np.array([[0.0, 1500.0], [60.0, 1490.0], [60.0, 1480.0],
                            [100.0, 1500.0]])
        assert any("increasing" in msg for msg in validate_environment(env))

    def test_ssp_must_span_column(self):
        env = iso_env()
        env.ssp = np.array([[0.0, 1500.0], [80.0, 1500.0]])
        assert any("span" in msg for msg in validate_environment(env))

    def test_nonpositive_speed(self):
        env = iso_env()
        env.ssp = np.array([[0.0, 1500.0], [100.0, 0.0]])
        assert any("> 0" in msg for msg in validate_environment(env))

    def test_ray_budget(self):
        env = iso_env(budget=0)
        assert any("budget" in msg for msg in validate_environment(env))

    def test_reflection_magnitude(self):
        env = iso_env(surface=-1.2)
        assert any("reflection" in msg for msg in validate_environment(env))

    def test_validation_is_total(self):
        env = iso_env(budget=0, surface=2.0)
        env.water_depth = 0.0
        msgs = validate_environment(env)
        assert len(msgs) >= 3

    def test_geometry_checks(self):
        env = iso_env()
        geo = Geometry(
            receivers=[[0.0, 0.0, 50.0]],
            volume=[[10.0, 10.0, 20.0], [5.0, 90.0, 80.0]],
        )
        msgs = validate_geometry(geo, env)
        assert any("volume" in msg for msg in msgs)

    def test_receiver_outside_column(self):
        env = iso_env()
        geo = Geometry(
            receivers=[[0.0, 0.0, 150.0]],
            volume=[[10.0, 10.0, 20.0], [90.0, 90.0, 80.0]],
        )
        assert validate_geometry(geo, env)


class TestStratifiedDelay:
    def test_isovelocity_is_exact(self):
        env = iso_env()
        start = [0.0, 0.0, 10.0]
        end = [300.0, 40.0, 90.0]
        dist = np.linalg.norm(np.subtract(end, start))
        assert stratified_delay(env.ssp, start, end) == pytest.approx(
            dist / 1500.0, rel=1e-14
        )

    def test_horizontal_path(self):
        env = layered_env()
        # c at 30 m is the breakpoint value 1495
        got = stratified_delay(env.ssp, [0.0, 0.0, 30.0], [500.0, 0.0, 30.0])
        assert got == pytest.approx(500.0 / 1495.0, rel=1e-12)

    def test_vertical_two_layer(self):
        env = layered_env()
        got = stratified_delay(env.ssp, [0.0, 0.0, 0.0], [0.0, 0.0, 100.0])
        want = _delay_oracle(env, [0.0, 0.0, 0.0], [0.0, 0.0, 100.0])
        assert got == pytest.approx(want, rel=1e-9)

    def test_oblique_against_quadrature(self):
        env = layered_env()
        rng = np.random.default_rng(20260814)
        for _ in range(25):
            start = rng.uniform([0, 0, 0], [800, 800, 100])
            end = rng.uniform([0, 0, 0], [800, 800, 100])
            if abs(end[2] - start[2]) < 1e-6:
                end[2] = start[2] + 5.0
            got = stratified_delay(env.ssp, start, end)
            want = _delay_oracle(env, start, end)
            assert got == pytest.approx(want, rel=1e-9)

    def test_endpoint_outside_column_raises(self):
        env = layered_env()
        with pytest.raises(ValueError):
            stratified_delay(env.ssp, [0, 0, -5.0], [10, 0, 50.0])


class TestImageMethod:
    def test_direct_and_first_images_isovelocity(self):
        # Hand values: receiver at depth 40, source 1 km away at depth 50.
        env = iso_env(budget=4)
        delays, gains = arrivals_batch(env, [[0.0, 0.0, 40.0]], [[1000.0, 0.0, 50.0]])
        d_direct = math.hypot(1000.0, 10.0)
        d_surface = math.hypot(1000.0, 90.0)   # image at z = -50
        d_bottom = math.hypot(1000.0, 110.0)   # image at z = 150
        d_sb = math.hypot(1000.0, 190.0)       # image at z = -150
        assert delays[0, 0] == pytest.approx(
            np.array([d_direct, d_surface, d_bottom, d_sb]) / 1500.0, rel=1e-12
        )
        want_gains = np.array(
            [1 / d_direct, -1 / d_surface, 0.5 / d_bottom, -0.5 / d_sb]
        )
        assert gains[0, 0] == pytest.approx(want_gains, rel=1e-12)

    def test_absorption_scales_gains(self):
        env_dry = iso_env(absorption=0.0)
        env_wet = iso_env(absorption=1e-3)
        receiver, source = [[0.0, 0.0, 40.0]], [[1000.0, 0.0, 50.0]]
        dry_delays, dry_gains = arrivals_batch(env_dry, receiver, source)
        wet_delays, wet_gains = arrivals_batch(env_wet, receiver, source)
        assert np.array_equal(dry_delays, wet_delays)
        dists = 1500.0 * dry_delays
        ratio = np.abs(wet_gains) / np.abs(dry_gains)
        assert ratio == pytest.approx(10.0 ** (-1e-3 * dists / 20.0), rel=1e-12)

    def test_delays_sorted_and_positive(self):
        env = layered_env(budget=8)
        rng = np.random.default_rng(7)
        for _ in range(20):
            src = rng.uniform([100, 100, 5], [900, 900, 95])
            rcv = rng.uniform([0, 0, 5], [80, 80, 95])
            arr_d, _ = arrivals_batch(env, rcv[None, :], src[None, :])
            delays = arr_d[0, 0]
            assert delays.shape == (8,)
            assert np.all(delays > 0)
            assert np.all(np.diff(delays) >= 0)

    def test_truncation_keeps_shortest_prefix(self):
        env_small = layered_env(budget=5)
        env_large = layered_env(budget=9)
        receiver, source = [[0.0, 0.0, 35.0]], [[400.0, 250.0, 60.0]]
        small_delays, small_gains = arrivals_batch(env_small, receiver, source)
        large_delays, large_gains = arrivals_batch(env_large, receiver, source)
        assert small_delays[0, 0] == pytest.approx(large_delays[0, 0, :5], rel=1e-14)
        assert small_gains[0, 0] == pytest.approx(large_gains[0, 0, :5], rel=1e-14)

    def test_reciprocity(self):
        env = layered_env()
        a = np.array([50.0, 60.0, 25.0])
        b = np.array([700.0, 500.0, 70.0])
        fwd_d, fwd_g = arrivals_batch(env, a[None, :], b[None, :])
        rev_d, rev_g = arrivals_batch(env, b[None, :], a[None, :])
        assert fwd_d == pytest.approx(rev_d, rel=1e-13)
        assert fwd_g == pytest.approx(rev_g, rel=1e-13)

    def test_reflected_delay_equals_folded_segments(self):
        # The surface bounce delay must equal the sum of the two physical
        # leg delays through the stratified profile.
        env = layered_env(budget=2)
        src = np.array([300.0, 0.0, 50.0])
        rcv = np.array([0.0, 0.0, 40.0])
        arr_d, _ = arrivals_batch(env, rcv[None, :], src[None, :])
        surface_delay = arr_d[0, 0, 1]
        frac = src[2] / (src[2] + rcv[2])  # fold point by similar triangles
        fold = src + frac * (rcv - src)
        fold[2] = 0.0
        legs = stratified_delay(env.ssp, src, fold) + stratified_delay(
            env.ssp, fold, rcv
        )
        assert surface_delay == pytest.approx(legs, rel=1e-12)

    def test_gain_magnitudes_with_equal_reflection_strengths(self):
        # Isovelocity only: with constant sound speed, delay order equals
        # length order, so equal-strength boundaries give non-increasing
        # magnitudes. A depth-dependent profile can reorder arrivals (a
        # longer path through faster water arrives first) and break this.
        env = iso_env(surface=complex(-0.8), bottom=complex(0.8), budget=10)
        rng = np.random.default_rng(3)
        for _ in range(15):
            src = rng.uniform([100, 100, 5], [900, 900, 95])
            rcv = rng.uniform([0, 0, 5], [80, 80, 95])
            _, gains = arrivals_batch(env, rcv[None, :], src[None, :])
            mags = np.abs(gains[0, 0])
            assert np.all(np.diff(mags) <= 1e-12 * mags[:-1])

    def test_stratification_can_reorder_arrivals(self):
        # Counterexample kept on purpose: a shallow source in a fast surface
        # layer makes the surface bounce (658.1 m) arrive before the shorter
        # direct path (657.6 m), so magnitudes are not monotone in delay.
        env = layered_env(budget=4)
        src = np.array([656.9728, 334.1766, 5.1341])
        rcv = np.array([77.8768, 23.8721, 33.2587])
        delays, gains = arrivals_batch(env, rcv[None, :], src[None, :])
        mags = np.abs(gains[0, 0])
        assert delays[0, 0, 0] < delays[0, 0, 1]
        assert mags[0] < mags[1]

    def test_gain_envelope(self):
        # Any arrival is no stronger than an unreflected path of its length.
        env = layered_env(budget=10)
        c_min = env.ssp[:, 1].min()
        rng = np.random.default_rng(4)
        for _ in range(15):
            src = rng.uniform([100, 100, 5], [900, 900, 95])
            rcv = rng.uniform([0, 0, 5], [80, 80, 95])
            delays, gains = arrivals_batch(env, rcv[None, :], src[None, :])
            envelope = 1.0 / (c_min * delays[0, 0])
            assert np.all(np.abs(gains[0, 0]) <= envelope * (1 + 1e-12))

    def test_min_distance_guard(self):
        env = iso_env()
        receiver, source = [[0.0, 0.0, 50.0]], [[3.0, 0.0, 50.0]]
        with pytest.raises(DegenerateGeometryError):
            arrivals_batch(env, receiver, source)
        # the guard is off where the caller asks (grid nodes, volume samples)
        delays, _ = arrivals_batch(env, receiver, source, check_distance=False)
        assert delays.shape == (1, 1, 4)
        # a source at the threshold passes
        arrivals_batch(env, receiver, [[10.0, 0.0, 50.0]])
        assert DEFAULT_MIN_DISTANCE == 10.0


class TestAverageAttenuation:
    def test_stub_arrivals(self, monkeypatch):
        # Two receivers with one ray each of amplitude 1 and sqrt(3):
        # energies 1 and 3, mean 2, regardless of sampled positions.
        env = iso_env()
        geo = Geometry(
            receivers=[[0.0, 0.0, 40.0], [50.0, 0.0, 40.0]],
            volume=[[200.0, 0.0, 30.0], [400.0, 100.0, 70.0]],
        )

        def stub(env_, receivers, positions, **kwargs):
            m = positions.shape[0]
            delays = np.full((m, 2, 1), 0.1)
            gains = np.zeros((m, 2, 1), dtype=complex)
            gains[:, 0, 0] = 1.0
            gains[:, 1, 0] = math.sqrt(3.0)
            return delays, gains

        monkeypatch.setattr(channel, "arrivals_batch", stub)
        got = average_attenuation(env, geo, sample_count=64, rng_seed=0)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_single_point_volume(self):
        env = iso_env(absorption=0.0, budget=1)
        point = np.array([500.0, 0.0, 50.0])
        geo = Geometry(
            receivers=[[0.0, 0.0, 40.0]],
            volume=[point, point],
        )
        got = average_attenuation(env, geo, sample_count=16, rng_seed=1)
        d = math.hypot(500.0, 10.0)
        assert got == pytest.approx(1.0 / d**2, rel=1e-12)

    def test_sampling_stability(self):
        env = layered_env()
        geo = Geometry(
            receivers=[[0.0, 0.0, 30.0], [600.0, 0.0, 40.0]],
            volume=[[150.0, 150.0, 20.0], [450.0, 450.0, 80.0]],
        )
        small = average_attenuation(env, geo, sample_count=10_000, rng_seed=5)
        large = average_attenuation(env, geo, sample_count=100_000, rng_seed=6)
        assert abs(small - large) / large < 0.01

    def test_deterministic_in_seed(self):
        env = layered_env()
        geo = Geometry(
            receivers=[[0.0, 0.0, 30.0]],
            volume=[[150.0, 150.0, 20.0], [450.0, 450.0, 80.0]],
        )
        a = average_attenuation(env, geo, sample_count=512, rng_seed=9)
        b = average_attenuation(env, geo, sample_count=512, rng_seed=9)
        assert a == b


class TestSceneIO:
    def scene_dict(self):
        return {
            "environment": {
                "water_depth": 100.0,
                "ssp": [[0.0, 1510.0], [40.0, 1500.0], [100.0, 1490.0]],
                "surface_reflection": [-0.95, 0.0],
                "bottom_reflection": 0.6,
                "absorption_db_per_m": 5e-4,
                "ray_budget": 6,
            },
            "geometry": {
                "receivers": [[0.0, 0.0, 30.0], [600.0, 0.0, 40.0]],
                "volume": [[150.0, 150.0, 20.0], [450.0, 450.0, 80.0]],
            },
        }

    def test_round_trip(self):
        scene = self.scene_dict()
        env = environment_from_dict(scene["environment"])
        geo = geometry_from_dict(scene["geometry"], env)
        env2 = environment_from_dict(environment_to_dict(env))
        geo2 = geometry_from_dict(geometry_to_dict(geo), env2)
        assert np.array_equal(env.ssp, env2.ssp)
        assert env.surface_reflection == env2.surface_reflection
        assert env.bottom_reflection == env2.bottom_reflection
        assert np.array_equal(geo.receivers, geo2.receivers)
        assert np.array_equal(geo.volume, geo2.volume)
        assert geometry_to_dict(geo2) == scene["geometry"]

    def test_complex_reflection_coefficients(self):
        scene = self.scene_dict()
        scene["environment"]["surface_reflection"] = [-0.9, 0.1]
        env = environment_from_dict(scene["environment"])
        assert env.surface_reflection == complex(-0.9, 0.1)

    def test_invalid_environment_rejected(self):
        scene = self.scene_dict()
        scene["environment"]["ray_budget"] = 0
        with pytest.raises(ConfigError):
            environment_from_dict(scene["environment"])

    def test_missing_key_rejected(self):
        scene = self.scene_dict()
        del scene["environment"]["water_depth"]
        with pytest.raises(ConfigError):
            environment_from_dict(scene["environment"])

    def test_geometry_source_rejected(self):
        # The source is a top-level experiment key; inside the geometry it
        # would be accepted and then ignored, so it is an unknown key.
        scene = self.scene_dict()
        scene["geometry"]["source"] = [300.0, 200.0, 50.0]
        env = environment_from_dict(scene["environment"])
        with pytest.raises(ConfigError, match="unknown geometry keys"):
            geometry_from_dict(scene["geometry"], env)
        with pytest.raises(ConfigError, match="JSON object"):
            geometry_from_dict([[0.0, 0.0, 30.0]], env)

    def test_batch_matches_single(self):
        env = layered_env()
        receivers = np.array([[0.0, 0.0, 30.0], [600.0, 0.0, 40.0]])
        positions = np.array([[300.0, 200.0, 50.0], [400.0, 350.0, 30.0]])
        delays, gains = arrivals_batch(env, receivers, positions)
        for m in range(2):
            for l in range(2):
                single_delays, single_gains = arrivals_batch(
                    env, receivers[l : l + 1], positions[m : m + 1]
                )
                assert delays[m, l] == pytest.approx(single_delays[0, 0], rel=1e-14)
                assert gains[m, l] == pytest.approx(single_gains[0, 0], rel=1e-14)

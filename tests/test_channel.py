"""Waveguide arrival model: geometry, delays, gains, scene I/O."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from uwloc import channel
from uwloc.channel import (
    DEFAULT_MIN_DISTANCE,
    Environment,
    Geometry,
    arrivals_batch,
    average_attenuation,
    box_distance,
    stratified_delay,
)
from uwloc.errors import ConfigError
from uwloc.harness import ExperimentConfig, config_from_dict, config_to_dict


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
        env = layered_env()
        assert env.ssp.shape == (3, 2) and env.ray_budget == 6
        assert env.surface_reflection == complex(-0.9, 0.0)

    def test_bad_depth(self):
        with pytest.raises(ConfigError, match="water depth must be > 0"):
            dataclasses.replace(iso_env(), water_depth=-5.0)

    def test_nonincreasing_breakpoints(self):
        ssp = [[0.0, 1500.0], [60.0, 1490.0], [60.0, 1480.0], [100.0, 1500.0]]
        with pytest.raises(ConfigError, match="increasing"):
            dataclasses.replace(iso_env(), ssp=ssp)

    def test_ssp_must_span_column(self):
        with pytest.raises(ConfigError, match="span"):
            dataclasses.replace(iso_env(), ssp=[[0.0, 1500.0], [80.0, 1500.0]])

    def test_nonpositive_speed(self):
        with pytest.raises(ConfigError, match="sound speeds must be > 0"):
            dataclasses.replace(iso_env(), ssp=[[0.0, 1500.0], [100.0, 0.0]])

    def test_ray_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            iso_env(budget=0)
        with pytest.raises(ConfigError, match="budget"):
            dataclasses.replace(iso_env(), ray_budget=0)
        with pytest.raises(ConfigError, match="'ray_budget' must be a whole number"):
            dataclasses.replace(iso_env(), ray_budget=6.7)

    def test_reflection_magnitude(self):
        with pytest.raises(ConfigError, match="surface reflection magnitude"):
            iso_env(surface=-1.2)

    def test_validation_is_total(self):
        # one error lists every broken invariant: depth, breakpoints,
        # surface reflection and ray budget
        with pytest.raises(ConfigError) as info:
            iso_env(depth=0.0, budget=0, surface=2.0)
        assert len(str(info.value).split("; ")) >= 3

    def test_geometry_checks(self):
        with pytest.raises(ConfigError, match="volume min corner exceeds max corner"):
            Geometry(
                receivers=[[0.0, 0.0, 50.0]],
                volume=[[10.0, 10.0, 20.0], [5.0, 90.0, 80.0]],
            )
        with pytest.raises(ConfigError, match=r"receivers must be an \(L, 3\)"):
            Geometry(receivers=[[0.0, 50.0]], volume=[[10.0, 10.0, 20.0], [90.0, 90.0, 80.0]])
        with pytest.raises(ConfigError, match=r"volume must be a \(2, 3\)"):
            Geometry(receivers=[[0.0, 0.0, 50.0]], volume=[10.0, 10.0, 20.0])

    def test_receiver_outside_column(self):
        env = iso_env()
        geo = Geometry(
            receivers=[[0.0, 0.0, 150.0]],
            volume=[[10.0, 10.0, 20.0], [90.0, 90.0, 80.0]],
        )
        with pytest.raises(ConfigError, match="receiver depths"):
            ExperimentConfig(env, env, geo, 8, 0.01)

    def test_near_source_rejected_at_config_load(self):
        env = iso_env()
        geo = Geometry(
            receivers=[[0.0, 0.0, 50.0]],
            volume=[[100.0, 100.0, 20.0], [200.0, 200.0, 80.0]],
        )
        with pytest.raises(ConfigError, match="source is 3 m .* far-field minimum"):
            ExperimentConfig(env, env, geo, 8, 0.01, source=[3.0, 0.0, 50.0])
        # a source at the threshold passes
        ExperimentConfig(env, env, geo, 8, 0.01, source=[10.0, 0.0, 50.0])
        assert DEFAULT_MIN_DISTANCE == 10.0


@st.composite
def box_case(draw):
    """Random receivers (L, 3), a box [lo, hi] and points drawn inside it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l_count = draw(st.integers(1, 5))
    receivers = rng.uniform(-200.0, 200.0, size=(l_count, 3))
    corners = rng.uniform(-100.0, 100.0, size=(2, 3))
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    if draw(st.booleans()):
        hi = lo.copy()  # a point
    inside = rng.uniform(lo, hi, size=(20, 3))
    return receivers, lo, hi, inside


class TestBoxDistance:
    @settings(max_examples=150, deadline=None)
    @given(case=box_case())
    def test_is_the_nearest_point_of_the_box(self, case):
        receivers, lo, hi, inside = case
        got = box_distance(receivers, (lo, hi))
        assert got.shape == (receivers.shape[0],)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        for points in (corners, inside):
            gaps = np.linalg.norm(receivers[:, None, :] - points[None, :, :], axis=-1)
            assert np.all(got <= gaps.min(axis=1) * (1 + 1e-12) + 1e-12)
        # a point of the box attains it: each coordinate moves onto the
        # nearer face only when it lies outside the box's range
        nearest = np.where(receivers < lo, lo, np.where(receivers > hi, hi, receivers))
        assert np.all((nearest >= lo) & (nearest <= hi))
        np.testing.assert_allclose(
            got, np.linalg.norm(receivers - nearest, axis=1), rtol=1e-12
        )


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
        """An experiment config whose presumed environment gives one
        reflection as [re, im] and the other as a number."""
        environment = {
            "water_depth": 100.0,
            "ssp": [[0.0, 1510.0], [40.0, 1500.0], [100.0, 1490.0]],
            "surface_reflection": [-0.95, 0.0],
            "bottom_reflection": 0.6,
            "absorption_db_per_m": 5e-4,
            "ray_budget": 6,
        }
        return {
            "environment_q": environment,
            "environment_p": dict(environment),
            "geometry": {
                "receivers": [[0.0, 0.0, 30.0], [600.0, 0.0, 40.0]],
                "volume": [[150.0, 150.0, 20.0], [450.0, 450.0, 80.0]],
            },
            "n_bins": 8,
            "sample_period": 0.016,
        }

    def test_round_trip(self):
        scene = self.scene_dict()
        config = config_from_dict(scene)
        again = config_from_dict(config_to_dict(config))
        env, env2 = config.environment_q, again.environment_q
        assert np.array_equal(env.ssp, env2.ssp)
        assert env.surface_reflection == env2.surface_reflection
        assert env.bottom_reflection == env2.bottom_reflection == complex(0.6, 0.0)
        assert np.array_equal(config.geometry.receivers, again.geometry.receivers)
        assert np.array_equal(config.geometry.volume, again.geometry.volume)
        assert config_to_dict(again)["geometry"] == scene["geometry"]

    def test_complex_reflection_coefficients(self):
        scene = self.scene_dict()
        scene["environment_q"]["surface_reflection"] = [-0.9, 0.1]
        env = config_from_dict(scene).environment_q
        assert env.surface_reflection == complex(-0.9, 0.1)

    def test_invalid_environment_rejected(self):
        scene = self.scene_dict()
        scene["environment_q"]["ray_budget"] = 0
        with pytest.raises(ConfigError, match="ray budget must be >= 1"):
            config_from_dict(scene)

    def test_missing_key_rejected(self):
        scene = self.scene_dict()
        del scene["environment_q"]["water_depth"]
        with pytest.raises(ConfigError, match="environment_q is missing 'water_depth'"):
            config_from_dict(scene)

    def test_geometry_source_rejected(self):
        # The source is a top-level experiment key; inside the geometry it
        # would be accepted and then ignored, so it is an unknown key.
        scene = self.scene_dict()
        scene["geometry"]["source"] = [300.0, 200.0, 50.0]
        with pytest.raises(ConfigError, match="unknown geometry keys"):
            config_from_dict(scene)
        scene["geometry"] = [[0.0, 0.0, 30.0]]
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict(scene)

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

"""Nearest-neighbor chi-square divergence estimation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwloc import csd
from uwloc.csd import (
    _knn_distances,
    _knn_distances_brute,
    _knn_distances_kdtree,
    estimate_csd,
    load_samples,
)
from uwloc.errors import ConfigError, EstimationError
from oracles import csd_exact


def gaussian_1d(rng, n, std):
    return rng.normal(0.0, std, size=n)


class TestKnnRadius:
    def test_collinear_hand_values(self):
        points = np.array([[0.0], [1.0], [2.0]])
        for search in (_knn_distances_kdtree, _knn_distances_brute):
            assert search(points, np.array([[0.0]]), 3).tolist() == [[0.0, 1.0, 2.0]]
            assert search(points, np.array([[0.0]]), 1).tolist() == [[0.0]]

    def test_exclude_self_shifts_rank(self):
        # estimate_csd skips a P sample's self match by taking rank k + 1
        # of P queried at itself
        points = np.array([[0.0], [1.0], [2.0]])
        assert _knn_distances_kdtree(points, points, 2)[:, 1].tolist() == [1.0, 1.0, 1.0]

    def test_backends_agree(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((200, 3))
        queries = rng.standard_normal((25, 3))
        for k in (1, 3, 7):
            tree = _knn_distances_kdtree(points, queries, k)
            brute = _knn_distances_brute(points, queries, k)
            assert tree.shape == brute.shape == (25, k)
            np.testing.assert_array_equal(tree, brute)


# (points, queries) counts: small ragged ones, 2^20 pairs and either side of
# it, and counts the pairwise search's block (_BLOCK_DISTANCES // points rows)
# does not divide, down to one row of more than _BLOCK_DISTANCES points.
SEARCH_SIZES = st.one_of(
    st.tuples(st.integers(1, 60), st.integers(1, 60)),
    st.sampled_from([
        (1024, 1024), (1024, 1023), (1025, 1024), (1000, 1049), (700, 1600),
        (csd._BLOCK_DISTANCES, 3), (csd._BLOCK_DISTANCES + 1, 2),
    ]),
)


@st.composite
def search_inputs(draw):
    """(points, queries, k): clouds that may sit on a lattice (many equal
    distances), repeat rows, or query points of their own."""
    count_p, count_q = draw(SEARCH_SIZES)
    d = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(8, count_p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    points, queries = (rng.standard_normal((count, d)) for count in (count_p, count_q))
    if draw(st.booleans()):
        points, queries = np.round(2.0 * points), np.round(2.0 * queries)
    points, queries = scale * points, scale * queries
    repeats = draw(st.integers(0, count_p - 1))
    points[:repeats] = points[rng.integers(repeats, count_p, size=repeats)]
    if draw(st.booleans()):
        queries = points[:count_q]
    return points, queries, k


class TestSearchPaths:
    @settings(max_examples=60, deadline=None)
    @given(search_inputs())
    def test_pairwise_and_tree_distances_are_equal(self, inputs):
        points, queries, k = inputs
        tree = _knn_distances_kdtree(points, queries, k)
        brute = _knn_distances_brute(points, queries, k)
        assert brute.shape == (len(queries), k)
        assert np.array_equal(brute, tree)
        assert np.array_equal(_knn_distances(points, queries, k), tree)

    @pytest.mark.parametrize("pairs, path", [
        (csd._EXACT_MAX_PAIRS, "_knn_distances_brute"),
        (csd._EXACT_MAX_PAIRS + 1024, "_knn_distances_kdtree"),
    ])
    def test_the_entry_point_picks_by_pair_count(self, monkeypatch, pairs, path):
        calls = []
        for name in ("_knn_distances_brute", "_knn_distances_kdtree"):
            monkeypatch.setattr(csd, name, lambda p, q, k, name=name: calls.append(name))
        _knn_distances(np.zeros((1024, 1)), np.zeros((pairs // 1024, 1)), 2)
        assert calls == [path]


class TestEstimateCsd:
    def test_self_divergence_near_zero(self):
        rng = np.random.default_rng(1)
        p = gaussian_1d(rng, 100000, 1.0)
        q = gaussian_1d(rng, 100000, 1.0)
        got = estimate_csd(p, q, k=5)
        assert abs(got.clamped) <= 0.05
        assert got.n == 100000 and got.m == 100000
        assert got.d == 1 and got.k == 5

    def test_gaussian_scale_mismatch(self):
        # For N(0,1) against N(0,2) in one dimension the divergence is
        # 2/sqrt(3) - 1.
        rng = np.random.default_rng(2)
        p = gaussian_1d(rng, 100000, 1.0)
        q = gaussian_1d(rng, 100000, math.sqrt(2.0))
        want = 2.0 / math.sqrt(3.0) - 1.0
        got = estimate_csd(p, q, k=5)
        assert got.clamped == pytest.approx(want, rel=0.15)

    def test_multivariate_against_closed_form(self):
        # Proper complex Gaussian vectors in C^3 embedded as R^6 samples;
        # the closed-form divergence between the two covariances is then
        # exactly the divergence between the sampled laws. P narrower than
        # Q keeps the density ratio bounded, where the estimator converges
        # at this sample size; broad-P pairs need far more samples.
        rng = np.random.default_rng(3)
        dim, n = 3, 40000
        sigma_q = np.eye(dim, dtype=complex)
        sigma_p = 0.6 * np.eye(dim, dtype=complex)

        def draw(sigma, count):
            scale = np.sqrt(np.diag(sigma).real / 2.0)
            z = scale * (
                rng.standard_normal((count, dim))
                + 1j * rng.standard_normal((count, dim))
            )
            return np.hstack([z.real, z.imag])

        want = csd_exact(sigma_q, sigma_p)
        got = estimate_csd(draw(sigma_p, n), draw(sigma_q, n), k=5)
        assert got.clamped == pytest.approx(want, rel=0.25)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal((500, 2))
        q = rng.standard_normal((600, 2))
        base = estimate_csd(p, q, k=4)
        shuffled = estimate_csd(
            p[rng.permutation(500)], q[rng.permutation(600)], k=4
        )
        assert shuffled.raw == base.raw
        assert shuffled.clamped == base.clamped

    def test_duplicates_are_counted_not_warned(self):
        # A zero self radius at k=2 needs three coincident copies. The
        # count is the one report: no warning is raised.
        rng = np.random.default_rng(5)
        p = rng.standard_normal((50, 1))
        p_dup = np.concatenate([p, p[:3], p[:3]])
        q = rng.standard_normal((60, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimate_csd(p_dup, q, k=2)
        assert got.excluded_points == 9
        assert got.n == 56

    def test_consistency_trend(self):
        # Mean absolute error against the analytic value shrinks as the
        # sample size grows.
        want = 2.0 / math.sqrt(3.0) - 1.0
        rng = np.random.default_rng(6)

        def mean_error(size, trials):
            errors = []
            for _ in range(trials):
                p = gaussian_1d(rng, size, 1.0)
                q = gaussian_1d(rng, size, math.sqrt(2.0))
                errors.append(abs(estimate_csd(p, q, k=5).clamped - want))
            return float(np.mean(errors))

        coarse = mean_error(1000, 20)
        medium = mean_error(10000, 20)
        fine = mean_error(100000, 10)
        assert fine < medium < coarse

    def test_clamping_floor(self):
        rng = np.random.default_rng(7)
        # Tight cluster inside a broad reference set drives the raw value
        # negative; the reported estimate clamps at zero.
        p = rng.standard_normal((2000, 1)) * 0.05
        q = np.concatenate([p, rng.standard_normal((2000, 1)) * 3.0])
        got = estimate_csd(p, q + 1e-9, k=5)
        if got.raw < 0.0:
            assert got.clamped == 0.0
        assert got.clamped >= 0.0

    def test_preconditions(self):
        rng = np.random.default_rng(8)
        p = rng.standard_normal((20, 1))
        q = rng.standard_normal((20, 1))
        # k is a parameter, not a sample count: below 2 it is a config problem
        with pytest.raises(ConfigError, match="k must be >= 2, got 1"):
            estimate_csd(p, q, k=1)
        with pytest.raises(EstimationError):
            estimate_csd(p[:4], q, k=5)
        with pytest.raises(EstimationError):
            estimate_csd(p, q[:4], k=5)
        with pytest.raises(EstimationError):
            estimate_csd(np.empty((0, 1)), q, k=5)
        with pytest.raises(EstimationError):
            estimate_csd(np.array([1.0, np.nan, 2.0]), q, k=2)

    def test_all_excluded_raises(self):
        p = np.zeros((10, 1))
        q = np.linspace(0.0, 1.0, 12).reshape(-1, 1)
        with pytest.raises(EstimationError):
            estimate_csd(p, q, k=2)


class TestSampleFiles:
    def test_round_trip_2d(self, tmp_path):
        rng = np.random.default_rng(9)
        samples = rng.standard_normal((40, 3))
        path = tmp_path / "samples.csv"
        np.savetxt(path, samples, delimiter=",")
        got = load_samples(path)
        np.testing.assert_array_equal(got, samples)

    def test_round_trip_1d_becomes_column(self, tmp_path):
        samples = np.array([0.25, -1.5, 3.0])
        path = tmp_path / "scalar.csv"
        np.savetxt(path, samples, delimiter=",")
        got = load_samples(path)
        assert got.shape == (3, 1)
        np.testing.assert_array_equal(got[:, 0], samples)

    @pytest.mark.parametrize("text", ["x,y,z\n1.0,2.0,3.0\n", "1.0,2.0\n3.0,abc\n",
                                      "1.0,2.0\n3.0\n"])
    def test_non_numeric_file_is_config_error(self, tmp_path, text):
        # np.loadtxt's ValueError escaped the CLI with a traceback
        path = tmp_path / "samples.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match="samples.csv is not a numeric"):
            load_samples(path)

"""Covariance structure, divergences, and the MSE degradation bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uwloc.bounds import (
    BOUNDARY_RTOL,
    delta_squared_closed_form,
    gamma_and_condition,
    strong_bound,
    weak_bound,
)
from uwloc.errors import EstimationError
from oracles import (
    StructureError,
    block_diagonalize,
    build_covariance,
    csd_exact,
    eigenvalues_closed_form,
    interleave_permutation,
    snr_limits,
)


def random_stack(rng, l_count=2, n_bins=3):
    return rng.standard_normal((l_count, n_bins)) + 1j * rng.standard_normal(
        (l_count, n_bins)
    )


def random_pd(rng, size):
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return a @ a.conj().T + size * np.eye(size)


class TestBuildCovariance:
    def test_noise_only(self):
        stack = np.ones((2, 3))
        got = build_covariance(stack, 0.0, 0.7)
        assert np.array_equal(got, 0.7 * np.eye(6))

    def test_scalar_case(self):
        got = build_covariance(np.array([[1.0 + 0j]]), 2.0, 0.5)
        assert got.shape == (1, 1)
        assert got[0, 0] == 2.5

    def test_structure_and_psd_floor(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            stack = random_stack(rng, l_count=3, n_bins=4)
            s2, v2 = rng.uniform(0.1, 4.0), rng.uniform(0.1, 2.0)
            cov = build_covariance(stack, s2, v2)
            assert np.allclose(cov, cov.conj().T)
            floor = np.linalg.eigvalsh(cov).min()
            assert floor >= v2 * (1.0 - 1e-10)

    def test_rejects_bad_powers(self):
        stack = np.ones((1, 1))
        with pytest.raises(ValueError):
            build_covariance(stack, -1.0, 1.0)
        with pytest.raises(ValueError):
            build_covariance(stack, 1.0, 0.0)


class TestBlockDiagonalize:
    def test_single_bin_is_identity_permutation(self):
        rng = np.random.default_rng(2)
        stack = random_stack(rng, l_count=3, n_bins=1)
        cov = build_covariance(stack, 1.2, 0.4)
        form = block_diagonalize(cov, l_count=3)
        assert form.n_bins == 1
        assert np.array_equal(form.blocks[0], cov)
        assert np.array_equal(form.permutation, np.arange(3))

    def test_determinant_factorization(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            l_count = int(rng.integers(1, 5))
            n_bins = int(rng.integers(1, 9))
            stack = random_stack(rng, l_count, n_bins)
            cov = build_covariance(stack, 0.8, 0.5)
            form = block_diagonalize(cov, l_count=l_count)
            det_full = np.linalg.det(cov)
            det_blocks = np.prod([np.linalg.det(b) for b in form.blocks])
            assert abs(det_full - det_blocks) < 1e-10 * abs(det_full)

    def test_eigenvalue_multiset_preserved(self):
        rng = np.random.default_rng(5)
        stack = random_stack(rng, l_count=2, n_bins=2)
        cov = build_covariance(stack, 1.1, 0.6)
        form = block_diagonalize(cov, l_count=2)
        want = np.sort(np.linalg.eigvalsh(cov))
        got = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in form.blocks]))
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_reconstruction_is_exact(self):
        rng = np.random.default_rng(6)
        stack = random_stack(rng, l_count=3, n_bins=5)
        cov = build_covariance(stack, 0.7, 0.2)
        form = block_diagonalize(cov, l_count=3)
        assert np.array_equal(form.to_dense(), cov)

    def test_rejects_non_block_matrix(self):
        rng = np.random.default_rng(7)
        dense = random_pd(rng, 6)
        with pytest.raises(StructureError):
            block_diagonalize(dense, l_count=2)

    def test_rejects_malformed_input(self):
        with pytest.raises(StructureError):
            block_diagonalize(np.zeros((4, 3)), l_count=2)
        with pytest.raises(StructureError):
            block_diagonalize(np.eye(5), l_count=2)

    def test_interleave_permutation_contract(self):
        perm = interleave_permutation(2, 3)
        assert sorted(perm) == list(range(6))
        # receiver-major index l*N + k lands at frequency-major k*L + l
        for j, target in enumerate(perm):
            l, k = j % 2, j // 2
            assert target == l * 3 + k


class TestEigenvaluesClosedForm:
    def test_hand_value(self):
        got = eigenvalues_closed_form(np.array([1.0, 0.0]), 1.0, 1.0)
        assert np.array_equal(got, [2.0, 1.0])

    def test_zero_response(self):
        got = eigenvalues_closed_form(np.zeros(3), 5.0, 0.25)
        assert np.array_equal(got, [0.25, 0.25, 0.25])

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            l_count = 4
            h = rng.standard_normal(l_count) + 1j * rng.standard_normal(l_count)
            s2, v2 = rng.uniform(0.05, 3.0), rng.uniform(0.05, 2.0)
            block = s2 * np.outer(h, np.conj(h)) + v2 * np.eye(l_count)
            want = np.sort(np.linalg.eigvalsh(block))[::-1]
            got = eigenvalues_closed_form(h, s2, v2)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            eigenvalues_closed_form(np.ones(2), 1.0, 0.0)


class TestGammaCondition:
    def test_matched(self):
        rng = np.random.default_rng(13)
        stack = random_stack(rng)
        gamma, ok = gamma_and_condition(stack, stack, 2.0)
        assert ok
        np.testing.assert_allclose(gamma, 1.0, rtol=1e-14)

    def test_boundary_hand_value(self):
        h_q = np.array([[1.0 + 0j]])
        h_p = np.array([[math.sqrt(3.0) + 0j]])
        gamma, ok = gamma_and_condition(h_q, h_p, 1.0)
        assert gamma[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert not ok

    def test_later_columns_are_ones(self):
        rng = np.random.default_rng(14)
        gamma, _ = gamma_and_condition(
            random_stack(rng, l_count=4), random_stack(rng, l_count=4), 0.7
        )
        assert np.array_equal(gamma[:, 1:], np.ones((3, 3)))

    def test_margin_rule(self):
        h_q = np.array([[1.0 + 0j]])
        snr = 1.0
        boundary = math.sqrt(2.0 + 1.0 / snr)
        _, ok_inside = gamma_and_condition(
            h_q, np.array([[boundary * 0.999]]), snr
        )
        _, ok_at = gamma_and_condition(h_q, np.array([[boundary]]), snr)
        assert ok_inside and not ok_at

    def test_rejects_bad_snr(self):
        with pytest.raises(ValueError):
            gamma_and_condition(np.ones((1, 1)), np.ones((1, 1)), 0.0)


def pointwise_term(gamma):
    return gamma * gamma / (2.0 * gamma - 1.0)


class TestDeltaSquared:
    def test_matched_is_exactly_zero(self):
        rng = np.random.default_rng(15)
        stack = random_stack(rng)
        assert delta_squared_closed_form(stack, stack, 3.0) == 0.0

    def test_scalar_hand_value(self):
        h_q = np.array([[1.0 + 0j]])
        h_p = np.array([[math.sqrt(0.5) + 0j]])
        got = delta_squared_closed_form(h_q, h_p, 1.0)
        assert got == pytest.approx(1.0 / 15.0, rel=1e-12)

    def test_boundary_is_infinite(self):
        snr = 1.0
        h_q = np.array([[1.0 + 0j]])
        h_p = np.array([[math.sqrt(2.0 + 1.0 / snr) + 0j]])
        assert delta_squared_closed_form(h_q, h_p, snr) == math.inf

    def test_equals_gamma_product(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            stack_q = random_stack(rng, l_count=3, n_bins=5)
            h_p = stack_q * rng.uniform(0.7, 1.2, size=(1, 5))
            snr = rng.uniform(0.1, 10.0)
            delta2 = delta_squared_closed_form(stack_q, h_p, snr)
            gamma, ok = gamma_and_condition(stack_q, h_p, snr)
            assert ok and delta2 >= 0.0
            want = np.prod(pointwise_term(gamma[:, 0])) - 1.0
            assert delta2 == pytest.approx(want, rel=1e-10)

    def test_pointwise_term_at_least_one(self):
        gammas = np.linspace(0.500001, 5.0, 4001)
        terms = pointwise_term(gammas)
        assert np.all(terms >= 1.0)
        assert pointwise_term(1.0) == 1.0
        away = gammas[np.abs(gammas - 1.0) > 1e-3]
        assert np.all(pointwise_term(away) > 1.0)

    def test_monotone_in_actual_energy(self):
        # N=1: divergence falls on (0, eq], rises on [eq, 2 eq + 1/snr)
        snr, eq = 2.0, 1.5
        h_q = np.array([[math.sqrt(eq) + 0j]])

        def value(ep):
            return delta_squared_closed_form(h_q, np.array([[math.sqrt(ep)]]), snr)

        falling = [value(ep) for ep in np.linspace(0.05, eq, 30)]
        assert np.all(np.diff(falling) < 0.0)
        rising = [value(ep) for ep in np.linspace(eq, 2 * eq + 1 / snr - 0.05, 30)]
        assert np.all(np.diff(rising) > 0.0)

    def test_nondecreasing_in_snr(self):
        rng = np.random.default_rng(17)
        stack_q = random_stack(rng, l_count=2, n_bins=4)
        h_p = stack_q * rng.uniform(0.8, 1.15, size=(1, 4))
        values = [
            delta_squared_closed_form(stack_q, h_p, snr)
            for snr in np.logspace(-3, 3, 25)
        ]
        assert np.all(np.diff(values) >= -1e-15)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            delta_squared_closed_form(np.ones((1, 2)), np.ones((1, 3)), 1.0)


class TestCsdExact:
    def test_identical(self):
        rng = np.random.default_rng(18)
        sigma = random_pd(rng, 4)
        assert abs(csd_exact(sigma, sigma.copy())) < 1e-10

    def test_scalar_hand_value(self):
        got = csd_exact(np.array([[2.0]]), np.array([[1.5]]))
        assert got == pytest.approx(1.0 / 15.0, rel=1e-12)

    def test_matches_product_form_on_commuting_pair(self):
        rng = np.random.default_rng(19)
        stack_q = random_stack(rng, l_count=2, n_bins=3)
        scales = rng.uniform(0.8, 1.1, size=3)
        h_p = stack_q * scales[None, :]
        s2, v2 = 1.0, 0.5
        closed = delta_squared_closed_form(stack_q, h_p, s2 / v2)
        exact = csd_exact(
            build_covariance(stack_q, s2, v2), build_covariance(h_p, s2, v2)
        )
        assert exact == pytest.approx(closed, rel=1e-10)

    def test_eigenvalue_at_two_is_infinite(self):
        assert csd_exact(np.array([[1.0]]), np.array([[2.0]])) == math.inf
        assert csd_exact(np.array([[1.0]]), np.array([[2.1]])) == math.inf
        near = 2.0 * (1.0 - 10 * BOUNDARY_RTOL)
        assert math.isfinite(csd_exact(np.array([[1.0]]), np.array([[near]])))

    def test_rejects_indefinite_input(self):
        with pytest.raises(ValueError):
            csd_exact(np.diag([1.0, -1.0]), np.eye(2))


class TestSnrLimits:
    def test_matched_energies(self):
        stack = np.ones((2, 4))
        high, low = snr_limits(stack, stack)
        assert high == 0.0
        assert low == 0.0

    def test_hand_value_half_ratio(self):
        h_q = np.array([[1.0 + 0j]])
        h_p = np.array([[math.sqrt(0.5) + 0j]])
        high, low = snr_limits(h_q, h_p)
        assert high == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert 0.0 <= low < 1e-3

    def test_ratio_two_is_infinite(self):
        h_q = np.array([[1.0 + 0j]])
        assert snr_limits(h_q, np.array([[math.sqrt(2.0)]]))[0] == math.inf

    def test_low_probe_vanishes(self):
        rng = np.random.default_rng(20)
        stack_q = random_stack(rng, l_count=3, n_bins=6)
        h_p = stack_q * rng.uniform(0.75, 1.3, size=(1, 6))
        _, low = snr_limits(stack_q, h_p)
        assert 0.0 <= low < 1e-3

    def test_rejects_zero_presumed_energy(self):
        with pytest.raises(ValueError):
            snr_limits(np.zeros((1, 2)), np.ones((1, 2)))


@st.composite
def parallel_pair(draw):
    """h_q (L, N) and h_p = c_k h_q per bin k with complex c_k, and snr.

    Each bin's actual energy is a drawn fraction of its finiteness boundary
    2 eq_k + 1/snr, from well inside to past it, so the energy ratios
    |c_k|^2 fall on both sides of 1 and the pairs on both sides of the
    boundary. Presumed energies lie in [0.5, 2] and snr in [0.1, 100]:
    there the dense oracle's log-determinants and generalized eigenvalues
    keep about 1e-11 relative accuracy, which at snr * energy far from 1
    (either way) they lose.
    """
    l_count = draw(st.integers(1, 3))
    n_bins = draw(st.integers(1, 5))
    snr = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]) | st.floats(0.1, 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_q = random_stack(rng, l_count, n_bins)
    energy_q = 10.0 ** rng.uniform(-0.3, 0.3, n_bins)
    h_q *= np.sqrt(energy_q / np.sum(np.abs(h_q) ** 2, axis=0))
    fractions = np.array(draw(st.lists(st.floats(0.02, 1.5), min_size=n_bins,
                                       max_size=n_bins)))
    ratios = fractions * (2.0 + 1.0 / (snr * energy_q))
    # Clear of the boundary, where the two paths may round to either side,
    # and of equal energies, where the divergence sinks below the oracle's
    # resolution.
    assume(np.all(np.abs(fractions - 1.0) > 1e-3))
    assume(np.all(np.abs(ratios - 1.0) > 0.05))
    phases = np.exp(2j * np.pi * rng.uniform(size=n_bins))
    return h_q, h_q * (np.sqrt(ratios) * phases)[None, :], snr


class TestEnergyFormAgainstDenseOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=parallel_pair())
    def test_closed_form_and_condition_match_the_dense_value(self, case):
        h_q, h_p, snr = case
        exact = csd_exact(build_covariance(h_q, snr, 1.0), build_covariance(h_p, snr, 1.0))
        closed = delta_squared_closed_form(h_q, h_p, snr)
        assert gamma_and_condition(h_q, h_p, snr)[1] == math.isfinite(exact)
        if math.isfinite(exact):
            assert closed == pytest.approx(exact, rel=1e-9)
        else:
            assert closed == math.inf


class TestBeyondFloat64:
    def test_finite_divergence_too_large_reads_infinite(self):
        # Finite in exact arithmetic (the condition holds in every bin), but
        # exp(783) - 1 exceeds float64; each closed form says math.inf.
        h_q = np.ones((1, 200), dtype=complex)
        h_p = math.sqrt(1.99) * h_q
        snr = 1e6
        assert gamma_and_condition(h_q, h_p, snr)[1]
        assert delta_squared_closed_form(h_q, h_p, snr) == math.inf
        assert snr_limits(h_q, h_p)[0] == math.inf
        exact = csd_exact(
            build_covariance(h_q, snr, 1.0), build_covariance(h_p, snr, 1.0)
        )
        assert exact == math.inf
        # 150 bins (exp(587)) still fit and stay finite
        assert 1e250 < delta_squared_closed_form(h_q[:, :150], h_p[:, :150], snr) < math.inf


class TestWeakBound:
    def test_matched(self):
        assert weak_bound(1.7, 2.0, 0.0) == 1.7

    def test_arithmetic(self):
        assert weak_bound(1.0, 4.0, 0.25) == 2.0

    def test_zero_variance_dominates(self):
        assert weak_bound(1.5, 0.0, 7.0) == 1.5
        assert weak_bound(1.5, 0.0, math.inf) == 1.5

    def test_infinite_divergence_is_vacuous(self):
        assert weak_bound(1.0, 1.0, math.inf) == math.inf

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            weak_bound(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            weak_bound(1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            weak_bound(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            weak_bound(1.0, 1.0, math.nan)


class TestStrongBound:
    def test_identical_sample_sets(self):
        rng = np.random.default_rng(21)
        errors = rng.standard_normal((400, 3))
        got = strong_bound(errors, errors.copy(), k_nn=4)
        assert got.csd_error == 0.0
        assert got.strong_bound == got.mse_q
        assert got.mse_p == got.mse_q

    def test_moments_and_assembly(self):
        errors_q = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        errors_p = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        got = strong_bound(errors_q, errors_p, k_nn=2)
        sq = np.array([1.0, 4.0, 9.0])
        assert got.mse_q == pytest.approx(sq.mean())
        assert got.mse_p == pytest.approx(4.0)
        assert got.var_q == pytest.approx(np.var(sq))
        assert got.strong_bound == pytest.approx(
            got.mse_q + math.sqrt(got.var_q * got.csd_error)
        )

    def test_gaussian_shift_oracle(self):
        # Q errors N(0, I), P errors N(mu, I) in 3-D: the divergence between
        # the error laws is exp(|mu|^2) - 1 and the assembled bound must
        # cover the true degraded MSE.
        rng = np.random.default_rng(22)
        n = 20000
        mu = np.array([0.5, 0.4, 0.3])
        errors_q = rng.standard_normal((n, 3))
        errors_p = rng.standard_normal((n, 3)) + mu
        got = strong_bound(errors_q, errors_p, k_nn=5)
        chi2 = math.expm1(float(mu @ mu))
        assert got.csd_error == pytest.approx(chi2, rel=0.2)
        analytic_bound = 3.0 + math.sqrt(6.0 * chi2)
        assert got.strong_bound == pytest.approx(analytic_bound, rel=0.1)
        assert got.mse_p <= got.strong_bound

    def test_counts_excluded_duplicates(self):
        rng = np.random.default_rng(23)
        errors_q = rng.standard_normal((100, 3))
        errors_p = rng.standard_normal((100, 3))
        assert strong_bound(errors_q, errors_p, k_nn=4).excluded_points == 0
        errors_p[:6] = errors_p[0]
        got = strong_bound(errors_q, errors_p, k_nn=4)
        assert got.excluded_points == 6

    def test_rejects_tiny_sample_sets(self):
        with pytest.raises(EstimationError):
            strong_bound(np.ones((1, 3)), np.ones((5, 3)), k_nn=2)


"""Acceptance gate: every deliverable criterion, one test and verdict each.

Criteria 7 and 8a share one full-scale production sweep (session fixture);
everything else runs at the scale its criterion states. Criteria 7, 8a, 8b
and 9 run configs/experiment_default.json, the file the benchmark runs.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from uwloc import channel
from uwloc.bounds import (
    block_diagonalize,
    build_covariance,
    csd_exact,
    delta_squared_closed_form,
    eigenvalues_closed_form,
    snr_limits,
)
from uwloc.csd import estimate_csd
from uwloc.harness import (
    build_training_set,
    derive_seed,
    generate_dataset,
    load_config,
    run_experiment,
)
from uwloc.localize import extract_features, train_net
from uwloc.signal import load_observations
from test_harness import DEFAULT_CONFIG, default_config_dict


def verdict(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="session")
def production_run():
    config = load_config(DEFAULT_CONFIG)
    started = time.perf_counter()
    result = run_experiment(config, workers=1)
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_criterion_1_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for i in range(200):
        l_count = int(rng.integers(2, 5))
        h = rng.standard_normal(l_count) + 1j * rng.standard_normal(l_count)
        s2 = rng.uniform(0.05, 4.0)
        v2 = rng.uniform(0.05, 2.0)
        block = s2 * np.outer(h, np.conj(h)) + v2 * np.eye(l_count)
        want = np.sort(np.linalg.eigvalsh(block))[::-1]
        got = eigenvalues_closed_form(h, s2, v2)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - started
    verdict(
        worst < 1e-10 and elapsed < 5.0,
        "criterion 1 (closed-form eigenvalues)",
        f"200 instances, worst relative error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_block_structure_oracle():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst_det = 0.0
    worst_eig = 0.0
    for i in range(100):
        l_count = int(rng.integers(1, 5))
        n_bins = int(rng.integers(1, 9))
        h = rng.standard_normal((l_count, n_bins)) + 1j * rng.standard_normal(
            (l_count, n_bins)
        )
        s2 = rng.uniform(0.05, 3.0)
        v2 = rng.uniform(0.1, 2.0)
        cov = build_covariance(h, s2, v2)
        form = block_diagonalize(cov, l_count=l_count)
        det_full = np.linalg.det(cov)
        det_blocks = np.prod([np.linalg.det(b) for b in form.blocks])
        worst_det = max(worst_det, abs(det_full - det_blocks) / abs(det_full))
        want = np.sort(np.linalg.eigvalsh(cov))
        got = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in form.blocks]))
        worst_eig = max(worst_eig, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - started
    verdict(
        worst_det < 1e-10 and worst_eig < 1e-10 and elapsed < 10.0,
        "criterion 2 (block-structure oracle)",
        f"100 instances, worst det error {worst_det:.2e}, "
        f"worst eigenvalue error {worst_eig:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_commuting_pair_cross_oracle():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    worst = 0.0
    for i in range(100):
        l_count = int(rng.integers(1, 4))
        n_bins = int(rng.integers(1, 7))
        h_q = rng.standard_normal((l_count, n_bins)) + 1j * rng.standard_normal(
            (l_count, n_bins)
        )
        s2, v2 = 1.0, rng.uniform(0.2, 2.0)
        scales = rng.uniform(0.3, 0.9, size=n_bins)  # below 1: condition holds
        h_p = h_q * scales[None, :]
        closed = delta_squared_closed_form(h_q, h_p, s2 / v2)
        exact = csd_exact(build_covariance(h_q, s2, v2), build_covariance(h_p, s2, v2))
        worst = max(worst, abs(closed - exact) / exact)

        # violating pair: push one bin's energy past twice-presumed-plus-noise
        energy = float(np.sum(np.abs(h_q[:, 0]) ** 2))
        bad = scales.copy()
        bad[0] = 1.2 * math.sqrt(2.0 + v2 / (s2 * energy))
        h_bad = h_q * bad[None, :]
        closed_bad = delta_squared_closed_form(h_q, h_bad, s2 / v2)
        exact_bad = csd_exact(
            build_covariance(h_q, s2, v2), build_covariance(h_bad, s2, v2)
        )
        assert closed_bad == math.inf and exact_bad == math.inf
    elapsed = time.perf_counter() - started
    verdict(
        worst < 1e-10 and elapsed < 10.0,
        "criterion 3 (commuting-pair cross oracle)",
        f"100 valid + 100 violating pairs, worst relative gap {worst:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_scalar_hand_value():
    h_q = np.array([[1.0 + 0j]])
    h_p = np.array([[math.sqrt(0.5) + 0j]])
    closed = delta_squared_closed_form(h_q, h_p, 1.0)
    exact = csd_exact(np.array([[2.0]]), np.array([[1.5]]))
    want = 1.0 / 15.0
    err_closed = abs(closed - want) / want
    err_exact = abs(exact - want) / want
    verdict(
        err_closed < 1e-12 and err_exact < 1e-12,
        "criterion 4 (scalar hand value)",
        f"both paths at 1/15: closed rel {err_closed:.2e}, exact rel {err_exact:.2e}",
    )


def test_criterion_5_snr_limits():
    rng = np.random.default_rng(105)
    worst_high = 0.0
    worst_low = 0.0
    for i in range(20):
        n_bins = 16
        eq = rng.uniform(0.5, 2.0, size=n_bins)
        rho = rng.uniform(0.5, 1.5, size=n_bins)
        h_q = np.sqrt(eq)[None, :].astype(complex)
        h_p = np.sqrt(rho * eq)[None, :].astype(complex)
        want = np.prod(1.0 / (rho * (2.0 - rho))) - 1.0
        got = delta_squared_closed_form(h_q, h_p, 1e8)
        worst_high = max(worst_high, abs(got - want) / abs(want))
        worst_low = max(worst_low, delta_squared_closed_form(h_q, h_p, 1e-6))
        high, low = snr_limits(h_q, h_p)
        assert high == pytest.approx(want, rel=1e-12)
        assert low == pytest.approx(
            delta_squared_closed_form(h_q, h_p, 1e-6), rel=1e-12
        )
    verdict(
        worst_high < 1e-6 and worst_low < 1e-3,
        "criterion 5 (snr limits)",
        f"high-snr worst relative error {worst_high:.2e} at snr 1e8, "
        f"low-snr worst value {worst_low:.2e}",
    )


def test_criterion_6_csd_estimator_calibration():
    started = time.perf_counter()
    n = 100000

    want_1d = 2.0 / math.sqrt(3.0) - 1.0
    estimates = []
    for seed in range(10):
        rng = np.random.default_rng(600 + seed)
        p = rng.normal(0.0, 1.0, size=n)
        q = rng.normal(0.0, math.sqrt(2.0), size=n)
        estimates.append(estimate_csd(p, q, k=5).clamped)
    mean_1d = float(np.mean(estimates))
    rel_1d = abs(mean_1d - want_1d) / want_1d

    # 3-D proper complex Gaussians as R^6 samples: the complex determinant
    # form is exactly the divergence of the embedded laws. P narrower than
    # Q keeps the density ratio bounded so the estimator is in its
    # convergent regime at this n (broad-P pairs need far more samples).
    dim = 3
    sigma_q = np.eye(dim, dtype=complex)
    sigma_p = 0.6 * np.eye(dim, dtype=complex)
    want_3d = csd_exact(sigma_q, sigma_p)

    def draw(rng, sigma, count):
        scale = np.sqrt(np.diag(sigma).real / 2.0)
        z = scale * (
            rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        )
        return np.hstack([z.real, z.imag])

    estimates_3d = []
    for seed in range(3):
        rng = np.random.default_rng(660 + seed)
        estimates_3d.append(
            estimate_csd(draw(rng, sigma_p, n), draw(rng, sigma_q, n), k=5).clamped
        )
    mean_3d = float(np.mean(estimates_3d))
    rel_3d = abs(mean_3d - want_3d) / want_3d
    elapsed = time.perf_counter() - started
    verdict(
        rel_1d < 0.15 and rel_3d < 0.20 and elapsed < 60.0,
        "criterion 6 (csd estimator calibration)",
        f"1-D {mean_1d:.4f} vs {want_1d:.4f} ({rel_1d:.1%}), "
        f"3-D {mean_3d:.4f} vs {want_3d:.4f} ({rel_3d:.1%}), {elapsed:.1f}s",
    )


def test_criterion_7_bound_validity_production_curve(production_run):
    result, elapsed = production_run
    points = result.points
    assert len(points) >= 15

    above = all(p.rmse_p >= p.rmse_q for p in points)
    covered = all(p.rmse_p <= p.bound_strong for p in points)
    gaps = [(p.bound_strong - p.rmse_p) / p.rmse_p for p in points]
    mid_max = max(gaps[1:-1])
    threshold_shape = gaps[0] < mid_max and gaps[-1] < mid_max

    detail = (
        f"{len(points)} snr points, {points[0].trials} trials each; "
        f"degradation everywhere {above}, bound covers everywhere {covered}, "
        f"edge gaps ({gaps[0]:.3f}, {gaps[-1]:.3f}) < mid max {mid_max:.3f}, "
        f"{elapsed:.0f}s"
    )
    verdict(
        above and covered and threshold_shape and elapsed < 1800.0,
        "criterion 7 (bound validity, production curve)",
        detail,
    )


def test_criterion_8a_ml_rmse_near_quantization_floor(production_run):
    result, _ = production_run
    floor = result.metadata["quantization_floor"]
    top = result.points[-1]
    verdict(
        top.rmse_q <= 2.0 * floor,
        "criterion 8a (ml estimator sanity)",
        f"matched rmse {top.rmse_q:.2f} m at {top.snr_db:+.0f} dB vs "
        f"2x floor {2 * floor:.2f} m",
    )


def test_criterion_8b_net_beats_mean_baseline(tmp_path):
    config = load_config(DEFAULT_CONFIG)
    attenuation = channel.average_attenuation(
        config.environment_q,
        config.geometry,
        sample_count=config.attenuation_samples,
        rng_seed=derive_seed(config.seed, "attenuation", 0),
    )
    training = build_training_set(config, attenuation)
    model, _ = train_net(
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
    paths = generate_dataset(
        config, count=1000, snr_db=config.net.train_snr_db, out_dir=tmp_path
    )
    values, _ = load_observations(paths["observations"])
    labels = np.loadtxt(paths["labels"], delimiter=",", skiprows=1)

    pred = model.predict(extract_features(values, attenuation))
    net_rmse = float(np.sqrt(np.mean(np.sum((pred - labels) ** 2, axis=1))))
    center = training.targets.mean(axis=0)
    base_rmse = float(
        np.sqrt(np.mean(np.sum((labels - center[None, :]) ** 2, axis=1)))
    )
    verdict(
        base_rmse >= 2.0 * net_rmse,
        "criterion 8b (net beats mean baseline)",
        f"net rmse {net_rmse:.1f} m vs baseline {base_rmse:.1f} m "
        f"({base_rmse / net_rmse:.2f}x) on 1000 matched examples",
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    # Reduced scale: reproducibility is a property of the seed derivation,
    # not of the trial count, and two full sweeps would dominate the suite.
    data = default_config_dict()
    data["trials"] = 200
    data["snr_db"] = [-6.0, 0.0, 6.0, 12.0, 18.0]
    data["grid"] = {"counts": [9, 9, 5], "peak_interpolation": True}
    data["n_bins"] = 32
    data["attenuation_samples"] = 512
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))

    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "uwloc.cli",
                "experiment",
                "--config",
                str(config_path),
                "--workers",
                "1",
                "--out",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "curve.csv").read_bytes())
    verdict(
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        "criterion 9 (reproducibility)",
        f"two --workers 1 runs, curve.csv identical ({len(outputs[0])} bytes)",
    )

"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

TINY_ML = run.Workload("tiny-ml", "ml", 1, 20)
TINY_NET = run.Workload("tiny-net", "net", 1, 20, {"train_size": 64, "hidden": [16], "epochs": 2})
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def tiny_base():
    base = json.loads(run.DEFAULT_CONFIG.read_text(encoding="utf-8"))
    base.update(snr_db=[0.0, 12.0], n_bins=16, attenuation_samples=64,
                grid={"counts": [5, 5, 3], "peak_interpolation": True})
    return base


def test_wrappers_restore_the_originals():
    probes = tracing.pipeline_probes()
    originals = [vars(owner)[attr] for owner, attr, _, _ in probes]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(probes):
            for (owner, attr, _, _), original in zip(probes, originals):
                assert vars(owner)[attr] is not original
            raise RuntimeError("leave the block early")
    for (owner, attr, _, _), original in zip(probes, originals):
        assert vars(owner)[attr] is original


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, {}], ["b", 1.0, 4.0, 0, {"n": 2}], ["b", 5.0, 6.0, 0, {"n": 1}]]
    totals = tracing.self_times(spans)
    assert totals["a"]["s"] == pytest.approx(6.0)
    assert totals["b"] == {"s": pytest.approx(4.0), "calls": 2, "n": 3}
    assert tracing.root_time(spans) == 10.0


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_job_writes_the_untraced_curve(tiny_base, tmp_path, workers):
    config = run.make_config(tiny_base, TINY_ML, 0, TINY_ML.trials)
    plain = run.run_job(config, 1, tmp_path / "plain")
    traced = run.run_job(config, workers, tmp_path / "traced", traced=True)
    assert plain.exit_code == traced.exit_code == 0
    assert traced.digest == plain.digest
    layers = tracing.layer_metrics(traced.trace["spans"], traced.trace["worker_spans"],
                                   traced.trace["import_s"])
    # 2 SNR points x 2 environments, one locate call each, in whichever
    # process ran them.
    assert layers["localize.locate.calls"] == 4
    assert layers["localize.locate.trials"] == 4 * TINY_ML.trials
    assert (len(traced.trace["worker_spans"]) > 0) == (workers > 1)


def test_metric_names_are_well_formed(tiny_base):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    layers = tracing.layer_metrics([], [], 0.0)
    produced = [*layers, *run.LAYER_UNITS, "harness.cpu_util", "trace.overhead_frac"]
    for name in declared + produced:
        assert NAME.fullmatch(name), name
    assert set(layers) | {"trace.unaccounted_s"} == set(run.LAYER_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(run.LAYER_UNITS) | {
        "harness.cpu_util", "trace.overhead_frac"}


@pytest.mark.parametrize("workload", [TINY_ML, TINY_NET], ids=lambda w: w.name)
def test_tiny_config_completes_end_to_end(tiny_base, workload):
    result = run.run_workload(workload, 3, 0.0, False, tiny_base, None)
    check = result["check"]
    assert check.attempted == 2 * len(tiny_base["snr_db"]) * run.MIN_MAIN_REPS
    assert check.failed == 0, check.notes
    metrics = result["metrics"]
    assert set(metrics) == {"wall_s", "setup_s", "trials_per_s", "peak_rss_mb"}
    # trials_per_s is left out: 14 extra trials cost less than the noise.
    assert all(metrics[name][0] > 0 for name in ("wall_s", "setup_s", "peak_rss_mb"))


def test_tiny_traced_run_reports_every_layer(tiny_base):
    result = run.run_workload(TINY_NET, 3, 0.0, True, tiny_base, None)
    assert result["check"].failed == 0, result["check"].notes
    metrics = result["metrics"]
    assert set(metrics) == set(run.LAYER_UNITS) | {"harness.cpu_util", "trace.overhead_frac"}
    assert metrics["localize.locate.calls"][0] == 0
    assert metrics["localize.train_net.s"][0] > 0


def test_workload_seed_reaches_the_config_and_the_curve(tiny_base, tmp_path):
    first = run.make_config(tiny_base, TINY_ML, 1, TINY_ML.trials)
    second = run.make_config(tiny_base, TINY_ML, 2, TINY_ML.trials)
    assert first["seed"] == run.scene_seed(1) != second["seed"] == run.scene_seed(2)
    jobs = [run.run_job(c, 1, tmp_path / str(i)) for i, c in enumerate((first, second))]
    assert all(job.exit_code == 0 for job in jobs)
    assert jobs[0].digest != jobs[1].digest
    assert {int(row["seed"]) for row in jobs[0].rows} == {first["seed"]}


def test_check_counts_failed_rows(tiny_base):
    config = run.make_config(tiny_base, TINY_ML, 0, TINY_ML.trials)
    rows = [{"snr_db": str(s), "rmse_q": "1.0", "rmse_p": "2.0", "bound_strong": "3.0",
             "csd_estimate": "0.5"} for s in config["snr_db"]]
    reference = {"rows": [{k: float(v) for k, v in r.items()} for r in rows]}
    job = run.Job(config=config, workers=1, traced=False, exit_code=0, digest="d", rows=rows)
    assert run.check_job(job, reference, "d") == 0
    assert run.check_job(job, reference, "other digest") == len(rows)
    rows[0] = {**rows[0], "rmse_p": "inf"}
    rows[1] = {**rows[1], "csd_estimate": "0.500001"}
    assert run.check_job(job, reference, "d") == 2
    assert run.check_job(job, None, "d") == 1
    assert run.check_job(run.Job(config=config, workers=1, traced=False), None, None) == len(rows)

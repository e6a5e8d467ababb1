"""End-to-end benchmark of the uwloc mismatch sweep.

    python3 perfbench/run.py --workload ml-sweep --seed 0 --seconds 35 --trace 0

Each job is one `uwloc experiment` batch run in a fresh process
(job.py -> uwloc.cli.main), on a config generated from
configs/experiment_default.json. Jobs run one at a time from this single
process: a closed loop with one client. The workload seed picks the scene
the config describes; uwloc sees only the generated config.

--trace 0 measures wall time, set-up time, marginal trial throughput and
peak memory. --trace 1 alternates untraced and traced jobs and reports
per-layer times and counts. Every job's curve is checked (see check_job);
the last line of stdout is the JSON result. --workload all runs every
workload in turn and also requires ml-sweep and ml-sweep-w2 to write
byte-identical curves. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_CONFIG = ROOT / "configs" / "experiment_default.json"
REFERENCE = BENCH / "reference.json"
WORK = BENCH / ".work"

# Workload seed n runs scene SCENE_SEED_BASE + n % SCENES; the curves of
# every scene were recorded once (record_reference.py), so every run is
# checked against numbers from the baseline commit.
SCENE_SEED_BASE = 20260814
SCENES = 16
# rmse_q, rmse_p, bound_strong and csd_estimate must match the reference to
# this relative tolerance: loose enough for float64 reassociation, tight
# enough that a changed argmax on one trial shows. delta2, bound_weak and
# condition_ok are not compared; the exact divergence changes them by design.
RTOL = 1e-6
COMPARED = ("rmse_q", "rmse_p", "bound_strong", "csd_estimate")
FINITE = ("rmse_q", "rmse_p", "bound_strong")
OUTPUTS = ("curve.csv", "curve.dat", "report.txt")

MIN_MAIN_REPS = 3
MIN_TRACE_PAIRS = 2
JOB_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    estimator: str
    workers: int
    trials: int
    net: dict = field(default_factory=dict)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ml-sweep", "ml", 1, 300),
        Workload("ml-sweep-w2", "ml", 2, 300),
        Workload("net-sweep", "net", 1, 5000, {"train_size": 3000, "epochs": 10}),
    )
}


def scene_seed(seed: int) -> int:
    return SCENE_SEED_BASE + seed % SCENES


def setup_trials(base: dict) -> int:
    # The smallest trial count a sweep completes: the k-NN divergence needs
    # csd_k + 1 error samples, and ExperimentConfig accepts fewer only to
    # fail after every trial has run.
    return int(base.get("csd_k", 5)) + 1


def make_config(base: dict, workload: Workload, seed: int, trials: int) -> dict:
    config = json.loads(json.dumps(base))
    config["seed"] = scene_seed(seed)
    config["trials"] = trials
    config["estimator"] = workload.estimator
    config["net"] = {**config.get("net", {}), **workload.net}
    return config


def config_key(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


@dataclass
class Job:
    config: dict
    workers: int
    traced: bool
    exit_code: int = -1
    wall_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    digest: str | None = None
    rows: list | None = None
    trace: dict | None = None
    log_tail: str = ""


def run_job(config: dict, workers: int, work_dir: Path, traced: bool = False) -> Job:
    """Launch one batch job in a fresh process and wait for it to end.

    wall_s runs from launching the process until it has exited, after
    writing curve.csv, curve.dat and report.txt. CPU time and peak RSS come
    from wait4, which covers the job and the pool workers it reaped.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    out_dir = work_dir / "out"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    command = [sys.executable, str(BENCH / "job.py")]
    prefix = work_dir / "spans"
    if traced:
        command += ["--trace-prefix", str(prefix)]
    command += ["--", "experiment", "--config", str(config_path),
                "--out", str(out_dir), "--workers", str(workers)]
    job = Job(config=config, workers=workers, traced=traced)
    log_path = work_dir / "job.log"
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        watchdog = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            _kill_group(proc.pid)
            if status is None:
                os.waitpid(proc.pid, 0)
        job.wall_s = time.perf_counter() - started
    proc.returncode = job.exit_code = os.waitstatus_to_exitcode(status)
    job.cpu_s = usage.ru_utime + usage.ru_stime
    job.peak_rss_mb = usage.ru_maxrss / 1024.0
    job.log_tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    csv_path = out_dir / "curve.csv"
    if job.exit_code == 0 and all((out_dir / name).is_file() for name in OUTPUTS):
        data = csv_path.read_bytes()
        job.digest = hashlib.sha256(data).hexdigest()
        job.rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
    if traced and job.exit_code == 0:
        parent = json.loads((work_dir / "spans.json").read_text(encoding="utf-8"))
        workers_spans = [
            json.loads(path.read_text(encoding="utf-8"))["spans"]
            for path in sorted(work_dir.glob("spans.*.json"))
        ]
        job.trace = {"import_s": parent["import_s"], "spans": parent["spans"],
                     "worker_spans": workers_spans}
    shutil.rmtree(work_dir, ignore_errors=True)
    return job


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def check_job(job: Job, reference: dict | None, expected_digest: str | None) -> int:
    """Number of curve rows that fail the correctness check.

    A job that exits non-zero or misses an output fails every row; so does
    one whose curve.csv differs from expected_digest (an earlier job with
    the same config). Otherwise a row fails if rmse_q, rmse_p or
    bound_strong is not finite, or if a COMPARED column is off the
    reference by more than RTOL. reference None skips that comparison.
    """
    expected_rows = len(job.config["snr_db"])
    if job.rows is None or len(job.rows) != expected_rows:
        return expected_rows
    if expected_digest is not None and job.digest != expected_digest:
        return expected_rows
    failed = 0
    for idx, row in enumerate(job.rows):
        values = {name: float(row[name]) for name in COMPARED + ("snr_db",)}
        bad = not all(math.isfinite(values[name]) for name in FINITE)
        if reference is not None:
            ref = reference["rows"][idx]
            bad = bad or values["snr_db"] != ref["snr_db"] or not all(
                math.isclose(values[name], ref[name], rel_tol=RTOL, abs_tol=0.0)
                for name in COMPARED
            )
        failed += bad
    return failed


class Checker:
    """Checks jobs in turn; the first job of each config fixes its digest."""

    def __init__(self, references: dict | None):
        self.references = references
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def __call__(self, job: Job) -> Job:
        key = config_key(job.config)
        expected = self.digests.setdefault(key, job.digest)
        if self.references is not None and key not in self.references:
            self.notes.append(f"no reference recorded for config {key[:12]}")
            failed = len(job.config["snr_db"])
        else:
            reference = None if self.references is None else self.references[key]
            failed = check_job(job, reference, expected)
        if failed:
            self.notes.append(
                f"{failed} failed rows (exit {job.exit_code}, workers {job.workers}, "
                f"traced {job.traced}, trials {job.config['trials']})"
            )
            if job.rows is None:
                self.notes.append("job output tail:\n" + job.log_tail[-1000:])
        self.attempted += len(job.config["snr_db"])
        self.failed += failed
        return job


def _within_budget(started: float, seconds: float, jobs: list, minimum: int) -> bool:
    """Whether to start another round: below the minimum, or if one more
    round as long as the average so far still ends within seconds."""
    if len(jobs) < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed * (len(jobs) + 1) / len(jobs) <= seconds


def measure(workload: Workload, seed: int, seconds: float, base: dict,
            references: dict | None, work: Path) -> dict:
    """End-to-end metrics of one workload (the --trace 0 run)."""
    check = Checker(references)
    main_config = make_config(base, workload, seed, workload.trials)
    small = setup_trials(base)
    setup_config = make_config(base, workload, seed, small)
    if workload.workers > 1:
        # Determinism probe: the same config at one worker must write the
        # same bytes as the pooled jobs (the checker compares digests).
        check(run_job(setup_config, 1, work / "probe"))
    # Set-up and main jobs alternate so that both sample the same periods
    # of a noisy host; trials_per_s depends on their difference.
    started = time.perf_counter()
    setup_jobs, main_jobs = [], []
    while _within_budget(started, seconds, main_jobs, MIN_MAIN_REPS):
        setup_jobs.append(check(run_job(setup_config, workload.workers, work / f"setup{len(setup_jobs)}")))
        main_jobs.append(check(run_job(main_config, workload.workers, work / f"main{len(main_jobs)}")))

    snr_points = len(base["snr_db"])
    wall_s = statistics.median(j.wall_s for j in main_jobs)
    setup_s = statistics.median(j.wall_s for j in setup_jobs)
    marginal = wall_s - setup_s
    trials_per_s = 2 * snr_points * (workload.trials - small) / marginal if marginal > 0 else 0.0
    all_jobs = setup_jobs + main_jobs
    return {
        "metrics": {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "trials_per_s": (trials_per_s, "1/s"),
            "peak_rss_mb": (max(j.peak_rss_mb for j in all_jobs), "MB"),
        },
        "samples": {
            "wall_s": [j.wall_s for j in main_jobs],
            "setup_s": [j.wall_s for j in setup_jobs],
            "peak_rss_mb": [j.peak_rss_mb for j in all_jobs],
        },
        "digest": main_jobs[0].digest,
        "check": check,
    }


def measure_layers(workload: Workload, seed: int, seconds: float, base: dict,
                   references: dict | None, work: Path) -> dict:
    """Per-layer metrics of one workload (the --trace 1 run)."""
    check = Checker(references)
    config = make_config(base, workload, seed, workload.trials)
    started = time.perf_counter()
    plain, traced = [], []
    while _within_budget(started, seconds, traced, MIN_TRACE_PAIRS):
        plain.append(check(run_job(config, workload.workers, work / f"plain{len(plain)}")))
        traced.append(check(run_job(config, workload.workers, work / f"traced{len(traced)}", traced=True)))

    per_job = []
    for job in traced:
        if job.trace is None:
            continue
        layers = tracing.layer_metrics(job.trace["spans"], job.trace["worker_spans"],
                                       job.trace["import_s"])
        layers["trace.unaccounted_s"] = (
            job.wall_s - job.trace["import_s"] - tracing.root_time(job.trace["spans"])
        )
        per_job.append(layers)
    metrics = {}
    for name in per_job[0] if per_job else ():
        metrics[name] = (statistics.median(m[name] for m in per_job), LAYER_UNITS[name])
    metrics["harness.cpu_util"] = (
        statistics.median(j.cpu_s / j.wall_s for j in plain), "cores"
    )
    plain_wall = statistics.median(j.wall_s for j in plain)
    traced_wall = statistics.median(j.wall_s for j in traced)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "frac")
    return {
        "metrics": metrics,
        "samples": {"untraced_wall_s": [j.wall_s for j in plain],
                    "traced_wall_s": [j.wall_s for j in traced]},
        "digest": plain[0].digest,
        "check": check,
    }


LAYER_UNITS = {
    "localize.locate.s": "s",
    "localize.locate.calls": "count",
    "localize.locate.trials": "count",
    "localize.locate.trials_per_s": "1/s",
    "localize.locate.boundary_frac": "frac",
    "localize.train_net.s": "s",
    "localize.train_net.s_per_epoch": "s",
    "localize.predict.s": "s",
    "localize.extract_features.s": "s",
    "signal.response_stack_batch.s": "s",
    "signal.response_stack_batch.positions": "count",
    "channel.arrivals_batch.s": "s",
    "channel.arrivals_batch.pairs": "count",
    "channel.average_attenuation.s": "s",
    "csd.estimate_csd.s": "s",
    "csd.estimate_csd.points": "count",
    "csd.excluded_frac": "frac",
    "bounds.strong_bound.s": "s",
    "bounds.closed_form.s": "s",
    "bounds.condition_ok_frac": "frac",
    "harness.self.s": "s",
    "harness.build_training_set.s": "s",
    "harness.emit_outputs.s": "s",
    "cli.import_s": "s",
    "cli.load_config.s": "s",
    "trace.unaccounted_s": "s",
}


def machine_facts() -> dict:
    """Cores, CPU model, BLAS as loaded, library versions, thread variables."""
    import ctypes

    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": None},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            path = next((line.split()[-1] for line in handle if "openblas" in line), None)
    except OSError:
        path = None
    if path is not None:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                facts["blas"]["threads"] = int(getter())
                break
    return facts


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 base: dict, references: dict | None) -> dict:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        measure_fn = measure_layers if trace else measure
        return measure_fn(workload, seed, seconds, base, references, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload: Workload, seed: int, result: dict) -> None:
    check = result["check"]
    print(f"workload {workload.name}: seed {seed} -> scene seed {scene_seed(seed)}, "
          f"trials {workload.trials}, workers {workload.workers}, one client, closed loop")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':40s} {check.failed / check.attempted:14.6g} frac "
          f"({check.failed} of {check.attempted} curve rows)")
    for name, values in result["samples"].items():
        print(f"  samples {name}: n={len(values)} " + " ".join(f"{v:.4f}" for v in values))
    print(f"  curve.csv sha256 {result['digest']}")
    for note in check.notes:
        print(f"  note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_job kills and reaps its job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "uwloc" / "cli.py").is_file() or not DEFAULT_CONFIG.is_file():
        print(f"error: {ROOT} does not hold src/uwloc and configs/experiment_default.json",
              file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    base = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))["configs"]
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), base, references)
        report(WORKLOADS[name], args.seed, results[name])

    attempted = sum(r["check"].attempted for r in results.values())
    failed = sum(r["check"].failed for r in results.values())
    correct = failed == 0
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{n}.{k}": {"value": v, "unit": u}
                   for n, r in results.items() for k, (v, u) in r["metrics"].items()}
        same = results["ml-sweep"]["digest"] == results["ml-sweep-w2"]["digest"]
        print(f"ml-sweep and ml-sweep-w2 curve.csv identical: {same}")
        correct = correct and same
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

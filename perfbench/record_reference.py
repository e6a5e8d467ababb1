"""Record the reference curves that run.py checks every job against.

    python3 perfbench/record_reference.py

Runs each distinct workload config (main and set-up trial counts) once per
scene at one worker and writes reference.json, keyed by the sha256 of the
config. Record at the commit whose curves are the reference; a program
change that moves a compared column by design re-records and says why.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    base = json.loads(run.DEFAULT_CONFIG.read_text(encoding="utf-8"))
    configs = {}
    for seed in range(run.SCENES):
        for workload in run.WORKLOADS.values():
            for trials in (run.setup_trials(base), workload.trials):
                config = run.make_config(base, workload, seed, trials)
                configs.setdefault(run.config_key(config), config)
    recorded = {}
    work = run.WORK / f"record-{os.getpid()}"
    for count, (key, config) in enumerate(sorted(configs.items()), 1):
        job = run.run_job(config, 1, work)
        if job.rows is None:
            print(f"error: reference job failed:\n{job.log_tail}", file=sys.stderr)
            return 1
        recorded[key] = {
            "seed": config["seed"],
            "estimator": config["estimator"],
            "trials": config["trials"],
            "digest": job.digest,
            "rows": [{name: float(row[name]) for name in ("snr_db",) + run.COMPARED}
                     for row in job.rows],
        }
        print(f"[{count}/{len(configs)}] {config['estimator']} seed {config['seed']} "
              f"trials {config['trials']}: {job.wall_s:.2f} s", flush=True)
    payload = {"rtol": run.RTOL, "compared": list(run.COMPARED), "configs": recorded}
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

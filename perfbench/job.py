"""One `uwloc experiment` batch job, run in a fresh process as users run it.

    python3 perfbench/job.py [--trace-prefix PREFIX] -- experiment --config ... --out ...

Without --trace-prefix it imports uwloc.cli and calls main() and nothing
else. With it, the job times the import, wraps the pipeline's public
functions (see tracing.py), runs main(), restores them, and writes
'<PREFIX>.json' holding the parent's spans; forked pool workers write
'<PREFIX>.<pid>.json' themselves.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1 :]
    if not own:
        from uwloc import cli

        return cli.main(cli_args)

    if own[0] != "--trace-prefix" or len(own) != 2:
        raise SystemExit("usage: job.py [--trace-prefix PREFIX] -- <uwloc arguments>")
    prefix = own[1]
    started = time.perf_counter()
    from uwloc import cli

    import_s = time.perf_counter() - started
    import tracing

    tracer = tracing.Tracer()
    tracer.follow_forks(prefix)
    with tracer.installed(tracing.pipeline_probes()):
        code = cli.main(cli_args)
    tracer.dump(prefix + ".json", import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED_AT [SCALE]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s runs from
process start to inputs ready: interpreter start, importing superspan
from this checkout's src/, building the points and seeded inputs and
loading the references.  The pass then runs every job once and checks
its result; pass_s is the time from the first call to the last verified
result.  With TRACE=1 the tracer is installed after set-up and the
per-layer metrics and spans of the pass are reported too.

Prints one JSON object on its last stdout line.  A job that raises or
fails its check is counted and named; set-up failure exits nonzero.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_jobs(job_list, tracer=None):
    """Run and check every job once; returns (names of failed jobs,
    job name -> digest of its result)."""
    failures = []
    digests = {}
    for job in job_list:
        try:
            if tracer:
                with tracer.job_span(job.name):
                    summary = job.run()
            else:
                summary = job.run()
            ok = job.check(summary)
        except Exception:  # a job's failure is counted, the pass goes on
            traceback.print_exc()
            ok, summary = False, None
        if not ok:
            failures.append(job.name)
            continue
        digests[job.name] = job.digest(summary)
        if tracer and isinstance(summary, str):
            tracer.report_bytes += len(summary.encode())
    return failures, digests


def main(argv) -> int:
    workload, seed, traced, spawned_at = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    scale = argv[4] if len(argv) > 4 else "full"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import superspan
    import superspan.cli  # noqa: F401  (detect jobs run through it)
    if Path(superspan.__file__).resolve().parent.parent != src.resolve():
        print(f"superspan imported from {superspan.__file__}, not from {src}", file=sys.stderr)
        return 2
    import jobs
    job_list = jobs.build(superspan, workload, seed, scale)
    setup_s = time.monotonic() - spawned_at

    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer().install()
    start = time.perf_counter()
    failures, digests = run_jobs(job_list, tracer)
    pass_s = time.perf_counter() - start

    result = {
        "traced": traced,
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(job_list),
        "failures": failures,
        "digests": digests,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing"] = sorted(tracer.missing)
        result["spans"] = [[job, parent, name, begin - start, end - start]
                           for job, parent, name, begin, end, _ in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

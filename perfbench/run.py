"""The superspan benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one caller: passes run one after another, each in a
fresh interpreter (perfbench/worker.py), so no pass reuses state that an
earlier pass of the same jobs left behind, as a `superspan` CLI user
pays the cold cost on every invocation.  Passes start until --seconds
have gone by (at least MIN_PASSES of each kind).

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes, reports the per-layer metrics
(medians over traced passes) and trace.overhead_s, checks that traced
and untraced reports are identical, and writes the spans of every traced
pass to .perfbench-out/.

Readable lines come first on stdout; the last line is the JSON result.
The exit code is nonzero, with no result, when a pass cannot run at all
(for instance without the package sources next to perfbench/).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from jobs import SCALES, WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS, aggregate  # noqa: E402

MIN_PASSES = 3         # of each kind, so a median exists
PASS_TIMEOUT_S = 150   # one pass; the whole run must end within 180 s
RUN_LIMIT_S = 165      # start no pass that could end after this


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, traced: bool, scale: str) -> dict:
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         "1" if traced else "0", repr(spawned_at), scale],
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> list:
    """All passes of one run, in order."""
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        passes.append(run_pass(workload, seed, traced, scale))
        now = time.monotonic()
        kinds = [sum(1 for p in passes if p["traced"] == t) for t in {False, trace}]
        if now - start >= seconds and min(kinds) >= MIN_PASSES:
            return passes
        if now - start + 2 * (now - began) > RUN_LIMIT_S:
            return passes


def consistent(passes) -> bool:
    """Every pass produced the same report bytes for each job."""
    seen = {}
    for p in passes:
        for job, digest in p["digests"].items():
            if seen.setdefault(job, digest) != digest:
                return False
    return True


def summarize(workload: str, seed: int, passes: list, trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    times = sorted(p["pass_s"] for p in plain)
    pass_s = median(times)
    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and {len(traced)} "
          f"traced passes, one fresh process each")
    # a percentile above the median with ten samples beyond it needs more
    # than 20 passes, so the median is the one reported
    print(f"pass_s        {pass_s:.4f} s    median of {len(plain)} passes "
          f"(min {times[0]:.4f}, max {times[-1]:.4f})")
    if not trace:
        setup_s = median(p["setup_s"] for p in plain)
        rss = max(p["peak_rss_mib"] for p in plain)
        print(f"setup_s       {setup_s:.4f} s    median of {len(plain)} process starts")
        print(f"peak_rss_mib  {rss:.2f} MiB   largest of {len(plain)} processes")
    print(f"error_rate    {failed / attempted:.4f}       {failed} of {attempted} jobs "
          f"raised or failed their reference check")
    for name in sorted({job for p in passes for job in p["failures"]}):
        print(f"  failed: {name}")
    same_reports = consistent(passes)
    if not same_reports:
        print("  reports differ between passes of the same jobs")

    if trace:
        layers = aggregate([p["layers"] for p in traced])
        layers["trace.overhead_s"] = median(p["pass_s"] for p in traced) - pass_s
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _, _ in LAYER_METRICS if name in layers}
        for name, value in metrics.items():
            print(f"  {name:28s} {value['value']:.6g} {value['unit']}")
        missing = sorted({n for p in traced for n in p["missing"]})
        if missing:
            print(f"  not wrapped (absent at this commit): {', '.join(missing)}")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "span_fields": ["job", "parent", "name", "start_s", "end_s"],
                       "passes": [p["spans"] for p in traced]}, fh)
    else:
        metrics = {
            "pass_s": {"value": pass_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": failed == 0 and same_reports, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="smoke: tiny jobs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        passes = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args.workload, args.seed, passes, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

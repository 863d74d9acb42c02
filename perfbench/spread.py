"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads detect-growth analysis --seeds 0-9 \
        [--trace 0|1] [--seconds S] [--out FILE]

For every workload and metric it prints the median of the runs, the
first and third quartiles (statistics.quantiles(values, n=4)) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  --out writes these statistics and every run's value
as JSON.  Runs are sequential; each is `run.py` in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads:
        values = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(seed_list(args.seeds))} runs, seeds {args.seeds}")
        stats = summary["workloads"][workload] = {}
        for name, vals in values.items():
            mid = median(vals)
            q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            share = (q3 - q1) / mid if mid else 0.0
            stats[name] = {"median": mid, "q1": q1, "q3": q3, "spread": share, "values": vals}
            bound = bounds.get(name)
            print(f"  {name:28s} median {mid:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {share:8.4f}" + (f"  bound {bound}" if bound is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write refs.json: the semantic part of every detect job's report.

Run from the repository root:  python3 perfbench/make_refs.py

The references pin the reports of the commit they were written at; a
change that alters any of them changes what superspan detects.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import superspan  # noqa: E402
import superspan.cli  # noqa: E402
from jobs import DETECT_JOBS, REFS_PATH, detect_argv, detect_job_name, run_cli, semantic_part  # noqa: E402


def main() -> None:
    refs = {}
    for workload, specs in DETECT_JOBS.items():
        for point, r, m_full, m_smoke in specs:
            for M in (m_full, m_smoke):
                name = detect_job_name(point, r, M)
                doc = json.loads(run_cli(superspan, detect_argv(point, r, M, seed=0)))
                refs[name] = semantic_part(doc)
                counts = [s["intersection_count"] for s in doc["subspaces"]]
                print(f"{name}: {len(doc['tuples'])} tuples, intersection counts {counts}")
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

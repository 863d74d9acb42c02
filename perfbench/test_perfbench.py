"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import superspan  # noqa: E402
import superspan.cli  # noqa: E402,F401
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _run_jobs(job_list, tracer=None):
    failures, digests = worker.run_jobs(job_list, tracer)
    assert failures == []
    return digests


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_passes_reference_check(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--scale", "smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES
    assert set(result["metrics"]) == {"pass_s", "setup_s", "peak_rss_mib", "ok_rate"}
    assert result["metrics"]["ok_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_reports_equal_untraced(workload):
    job_list = jobs.build(superspan, workload, 5, "smoke")
    plain = _run_jobs(job_list)
    mul = superspan.field.FieldValue.__mul__
    with tracing.Tracer() as tracer:
        assert superspan.field.FieldValue.__mul__ is not mul
        traced = _run_jobs(job_list, tracer)
    assert superspan.field.FieldValue.__mul__ is mul
    assert superspan.detect.modular_rank_filter is superspan.linalg.modular_rank_filter
    assert traced == plain
    assert not tracer.missing
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead_s"} == {m[0] for m in tracing.LAYER_METRICS}
    stages = ("filter", "confirm", "group", "intersect", "partition", "self")
    assert sum(metrics[f"detect.{s}_s"] for s in stages) == pytest.approx(metrics["detect.total_s"])
    if workload != "analysis":
        assert metrics["detect.total_s"] > 0 and metrics["detect.filter_calls"] > 0
        assert metrics["jsonio.report_bytes"] > 0


def test_traced_run_through_the_command(capsys):
    assert run.main(["--workload", "detect-growth", "--seed", "1", "--seconds", "0",
                     "--scale", "smoke", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m[0] for m in tracing.LAYER_METRICS}
    assert result["metrics"]["detect.intersect_calls"]["value"] == 3


def test_missing_names_are_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + [("superspan.linalg", "gone")])
    monkeypatch.setattr(tracing, "COUNTERS", [
        c for c in tracing.COUNTERS if not c[1].startswith("ModularResidue.")
    ] + [("superspan.field", "ModularResidue.gone", "field.residue_mul", False),
         ("superspan.field", "Gone.__mul__", "field.residue_pow", False),
         ("superspan.nowhere", "f", "nowhere.f", False)])
    job_list = jobs.build(superspan, "detect-growth", 0, "smoke")
    plain = _run_jobs(job_list)
    with tracing.Tracer() as tracer:
        assert _run_jobs(job_list, tracer) == plain
    assert tracer.missing == {"linalg.gone", "field.residue_mul", "field.residue_pow",
                              "nowhere.f"}
    metrics = tracing.layer_metrics(tracer)
    assert "field.residue_mul_calls" not in metrics
    assert "field.residue_pow_calls" not in metrics
    assert metrics["field.reduce_calls"] > 0 and metrics["detect.filter_calls"] > 0


def test_no_sources_leaves_run_failing(tmp_path):
    """Without src/ next to perfbench/ a pass cannot start: exit nonzero."""
    import os
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analysis",
                           "--seed", "0", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refs_hold_the_known_results():
    refs = jobs.load_refs()

    def counts(point, r, M):
        return [s["intersection_count"]
                for s in refs[jobs.detect_job_name(point, r, M)]["subspaces"]]

    assert counts("1,2,-3", 2, 21) == [3]
    assert counts("sextic", 2, 10) == [3, 3]
    assert counts("1,z5,2,3", 3, 12) == [4]
    for point, r, M in [("2,3,5,7", 3, 12), ("1,2,3,6", 3, 12), ("1,z5,z5^2", 2, 9),
                        ("1,z5,z5^2,z5^3", 3, 7)]:
        assert counts(point, r, M) == []
    for workload, specs in jobs.DETECT_JOBS.items():
        for point, r, m_full, m_smoke in specs:
            for M in (m_full, m_smoke):
                assert jobs.detect_job_name(point, r, M) in refs


def test_sextic_literal_is_the_worked_example():
    spec, coords = jobs.POINTS["sextic"]
    field = superspan.jsonio.parse_field_spec(spec)
    assert superspan.jsonio.decode_point(coords, field) == superspan.sextic_point()


def test_quadric_checked_count():
    assert jobs.quadric_checked(5) == 120960


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [m[:3] for m in tracing.LAYER_METRICS]
    assert bench["paths"] == [HERE.name]

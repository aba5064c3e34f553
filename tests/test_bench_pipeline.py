"""The stage bench runs end to end on a tiny trace.

benchmarks/bench_pipeline.py is loaded from its file; its full workloads
take tens of seconds, so this runs one reduced workload once.
"""

import importlib.util
import json
import pathlib
import sys

BENCH = (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
         / "bench_pipeline.py")
_spec = importlib.util.spec_from_file_location("bench_pipeline", BENCH)
bench_pipeline = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_pipeline  # dataclasses look the module up
_spec.loader.exec_module(bench_pipeline)


def test_bench_reports_every_stage_and_count(tmp_path):
    tiny = bench_pipeline.Workload("tiny", 12, 64_000_000, 16_000_000,
                                   (300, 900), 11)
    results = bench_pipeline.bench([tiny], runs=1, warmup=0)
    stages = results["tiny"]["stages"]
    assert list(stages) == list(bench_pipeline.STAGES)
    assert all(s["ms"] >= 0 and s["ref"] >= 0 for s in stages.values())
    assert stages["simulate_g10"]["ms"] > 0
    counts = results["tiny"]["counts"]
    assert counts["picks"] > 0
    assert counts["picks"] + counts["drops"] <= counts["periods"]
    assert min(counts[k] for k in ("benefit_queries", "slot_searches",
                                   "benefit_checks")) > 0
    out = tmp_path / "BENCH_pipeline.json"
    for label in ("a", "b"):
        bench_pipeline.append_entry(out, {"label": label, "workloads": results})
    assert [e["label"] for e in json.loads(out.read_text())] == ["a", "b"]

"""Tests of the benchmark itself: span arithmetic, metric aggregation, and
one tiny pass of each workload through the command-line entry point.

Run with: python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def span(sid, name, start, end, parent=None, op="p0:x", **attrs):
    return (sid, name, start, end, parent, op, attrs)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered(0.0, 10.0, []) == 0.0
    assert tracing.covered(0.0, 10.0, [(1, 5), (3, 8)]) == 7.0
    assert tracing.covered(0.0, 10.0, [(3, 8), (1, 5), (9, 12)]) == 8.0
    assert tracing.covered(2.0, 6.0, [(0, 3), (5, 9)]) == 2.0
    assert tracing.covered(0.0, 10.0, [(1, 9), (2, 3), (4, 5)]) == 8.0


def test_self_time_subtracts_the_union_of_overlapping_children():
    # a sweep whose two worker threads evaluate items at the same time
    spans = [span(0, "harness", 0.0, 10.0),
             span(1, "evaluate", 1.0, 5.0, parent=0),
             span(2, "evaluate", 3.0, 8.0, parent=0),
             span(3, "registry", 3.5, 4.0, parent=2)]
    st = tracing.summarize(spans)
    assert st["harness"]["s"] == 10.0
    assert st["harness"]["self_s"] == pytest.approx(3.0)
    assert st["evaluate"]["s"] == 9.0
    assert st["evaluate"]["self_s"] == pytest.approx(8.5)
    assert st["evaluate"]["calls"] == 2


def test_nested_spans_of_one_name_count_once_and_within_filters():
    spans = [span(0, "architectures.compile", 0.0, 4.0),
             span(1, "architectures.compile", 1.0, 2.0, parent=0),
             span(2, "census", 5.0, 9.0),
             span(3, "graphs.sample", 5.5, 6.5, parent=2, edges=10),
             span(4, "graphs.sample", 9.5, 10.0, edges=4)]
    st = tracing.summarize(spans)
    assert st["architectures.compile"]["s"] == 4.0
    assert st["architectures.compile"]["calls"] == 2
    assert st["graphs.sample"]["edges"] == 14
    inside = tracing.summarize(spans, within="census")
    assert inside["graphs.sample"]["s"] == 1.0
    assert inside["graphs.sample"]["edges"] == 10


def test_layer_metrics_are_per_traced_pass_and_zero_where_absent():
    op = "sweep/rw/ladder"
    spans = [span(0, "parser.parse", 0.0, 0.3, op=tracing.SETUP_OP),
             span(1, "harness", 0.0, 6.0, op=tracing.op_id(0, op), items=3),
             span(2, "rw", 0.0, 1.0, parent=1, op=tracing.op_id(0, op),
                  n=1000),
             span(3, "rw", 1.0, 5.0, parent=1, op=tracing.op_id(0, op),
                  n=2000),
             span(4, "census", 10.0, 12.0, op="p0:c", roots=100, overflow=20,
                  classes=7),
             span(5, "census", 20.0, 22.0, op="p1:c", roots=100, overflow=0,
                  classes=5),
             span(6, "sparse_limit", 30.0, 31.0, op="p1:s",
                  truncated_mass=0.02),
             span(7, "sparse_limit", 32.0, 33.0, op="p1:s",
                  truncated_mass=0.05)]
    m = tracing.layer_metrics(spans, passes=2, setups=3, growth_op=op,
                              overhead_s=0.25)
    assert [name for name in m] == [name for name, _ in tracing.LAYER_METRICS]
    assert m["parser.parse_s"]["value"] == pytest.approx(0.1)
    assert m["harness.sweep_s"]["value"] == 3.0
    assert m["harness.self_s"]["value"] == 0.5
    assert m["harness.items"]["value"] == 1.5
    assert m["rw.nodes"]["value"] == 1500
    assert m["rw.s_per_node"]["value"] == pytest.approx(5.0 / 3000)
    assert m["rw.growth"]["value"] == pytest.approx((4.0 / 2000) / (1 / 1000))
    assert m["census.roots"]["value"] == 100
    assert m["census.useful_ratio"]["value"] == pytest.approx(0.9)
    assert m["sparse_limit.truncated_mass"]["value"] == 0.05
    assert m["dense_limit.s"]["value"] == 0.0
    assert m["trace.overhead_s"] == {"value": 0.25, "unit": "s"}
    declared = {d["name"]: d["unit"] for d in SPEC["per_layer"]}
    assert declared == {k: v["unit"] for k, v in m.items()}


def test_tracer_nests_pool_tasks_under_their_sweep_and_uninstalls():
    from aggterm import graphs, harness, parser
    term = parser.parse_term("mean[v](H(v))", 1)
    original = harness.run_sweep
    tracer = tracing.Tracer()
    tracer.op = "p0:test"
    tracer.install(tracing.layer_targets())
    try:
        harness.run_sweep(harness.SweepConfig(
            subject=term, model=graphs.ErModel(graphs.DenseSchedule(0.3)),
            feature_dist=graphs.Uniform01(1), sizes=(10, 20), samples=2,
            seed=5, workers=2))
    finally:
        tracer.uninstall()
    assert harness.run_sweep is original
    sweep = [s for s in tracer.spans if s[1] == "harness"]
    assert len(sweep) == 1 and sweep[0][6] == {"items": 4}
    evals = [s for s in tracer.spans if s[1] == "evaluate"]
    assert len(evals) == 4
    assert all(s[4] == sweep[0][0] for s in evals)


def _record(kind, seconds, ok=True, **facts):
    return {"name": kind, "kind": kind, "seconds": seconds, "ok": ok,
            "facts": facts}


def test_end_to_end_metrics_from_pass_records():
    passes = [
        {"traced": False, "wall_s": 4.0, "ops": [
            _record("sweep", 2.0, items=4),
            _record("limit", 1.0, truth=(0.01, 0.001)),
            _record("limit", 0.5, truth=(0.002, 0.001), dist=0.02),
            _record("census", 0.5, roots=900)]},
        {"traced": False, "wall_s": 6.0, "ops": [
            _record("sweep", 4.0, items=4),
            _record("limit", 1.0, ok=False),
            _record("limit", 0.5, truth=(0.004, 0.01), dist=0.04),
            _record("census", 0.5, roots=100)]},
        {"traced": True, "wall_s": 60.0, "ops": [_record("sweep", 60.0)]},
    ]
    e2e = run.end_to_end(passes)
    assert e2e["wall_s"] == (5.0, "s")
    assert e2e["sweep_items_per_s"][0] == pytest.approx(8 / 6.0)
    assert e2e["limit_s"][0] == 1.5
    assert e2e["census_roots_per_s"][0] == pytest.approx(1000.0)
    assert e2e["error_rate"][0] == 1 / 8
    assert e2e["limit_abs_err"][0] == pytest.approx((0.01 + 0.004) / 2)
    assert e2e["stderr_coverage"][0] == pytest.approx(2 / 3)
    assert e2e["sweep_limit_dist"][0] == pytest.approx(0.03)
    only_sweeps = run.end_to_end([{"traced": False, "wall_s": 1.0,
                                   "ops": [_record("sweep", 1.0, items=2)]}])
    assert set(only_sweeps) == {"wall_s", "sweep_items_per_s", "error_rate"}


def test_traced_runs_pair_passes_on_shared_inputs_in_abba_order():
    plan = [run.pass_plan(i, tracing=True) for i in range(6)]
    assert plan == [(False, 0), (True, 0), (True, 1), (False, 1),
                    (False, 2), (True, 2)]
    assert run.pass_plan(5, tracing=False) == (False, 5)
    passes = [{"inputs": i, "traced": t, "wall_s": w}
              for (t, i), w in zip(plan, [4.0, 4.5, 6.0, 5.0, 3.0])]
    # pairs 0 and 1 are complete (+0.5, +1.0); pair 2 lacks a traced pass
    assert run.tracing_overhead(passes) == pytest.approx(0.75)


def test_oracles_agree_with_closed_forms():
    from aggterm import graphs
    import workloads
    assert sum(workloads.poisson_pmf(2.0, j) for j in range(40)) == \
        pytest.approx(1.0)
    # path 0-1-2: an end walks back with 1/2, the middle always returns
    g = graphs.from_edges(3, np.array([0, 1]), np.array([1, 2]))
    assert list(workloads.two_step_returns(g)) == [0.5, 1.0, 0.5]
    assert workloads.law_tolerance(0.0) == workloads.LAW_GATE
    assert workloads.law_tolerance(0.01) == pytest.approx(0.45)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_meets_the_output_contract(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    declared = {d["name"]: d["unit"] for d in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense_check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

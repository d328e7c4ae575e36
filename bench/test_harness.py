"""Self-tests of the benchmark harness: ``python -m pytest bench/test_harness.py``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import relaxmdim  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relaxmdim import cli, graph, localization, uniform_tree  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        tracing.Span("root", 0.0, 10.0, -1, "j"),
        tracing.Span("a", 1.0, 4.0, 0, "j"),
        tracing.Span("b", 3.0, 6.0, 0, "j"),  # overlaps a: the union [1, 6] counts once
        tracing.Span("a.child", 2.0, 3.0, 1, "j"),
        tracing.Span("late", 9.0, 12.0, 0, "j"),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_sum_self_time_and_calls_per_name():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("x", 0.0, 2.0, -1, "j"),
        tracing.Span("y", 0.5, 1.0, 0, "j"),
        tracing.Span("y", 1.0, 1.25, 0, "j"),
    ]
    tracer.counters["trees.md_sum"] = 7
    metrics = tracing.layer_metrics(tracer)
    assert metrics["x.s"] == pytest.approx(1.25)
    assert metrics["y.s"] == pytest.approx(0.75)
    assert (metrics["x.calls"], metrics["y.calls"], metrics["trees.md_sum"]) == (1, 2, 7)


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "relaxmdim" or name.startswith("relaxmdim.")
        for attr, value in vars(module).items()
    }


def test_wrappers_record_spans_and_restore_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracer):
            # the by-name imports in cli and localization are wrapped too
            assert cli.all_pairs_distances is not before[("relaxmdim.graph", "all_pairs_distances")]
            assert localization.all_pairs_distances is graph.all_pairs_distances
            localization.sweep_metrics(uniform_tree(30, seed=1), [0, 2], resolver="exact-tree")
            raise RuntimeError("restore must survive an error")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracing.layer_metrics(tracer)
    assert metrics["localization.sweep_metrics.calls"] == 1
    assert metrics["graph.all_pairs_distances.calls"] == 1
    assert metrics["trees.exact_tree_md.calls"] == 2
    assert metrics["graph.apsp_result_mb"] == pytest.approx(30 * 30 * 4 / 1e6)
    sweep = next(i for i, s in enumerate(tracer.spans) if s.name == "localization.sweep_metrics")
    assert all(s.parent == sweep for s in tracer.spans if s.name == "trees.exact_tree_md")


@pytest.fixture
def mdim_job(tmp_path):
    edges = tmp_path / "tree.txt"
    workloads.write_edge_list(edges, uniform_tree(40, seed=3))
    job = workloads.Job("mdim", ("mdim", str(edges), "--method", "exact-tree", "--k", "2",
                                 "--out", str(tmp_path / "mdim.json")), ("mdim.json",))
    assert cli.main(list(job.argv)) == 0
    return job, tmp_path


def test_a_tampered_result_file_is_a_failed_operation(mdim_job):
    job, out = mdim_job
    committed = {"mdim.json": workloads.digest(out / "mdim.json")}
    assert run.verify_job(job, 0, out, {}, committed) == []
    payload = json.loads((out / "mdim.json").read_text())
    payload["sigma_r"] += 1  # still a valid, verified report: only the digest catches it
    (out / "mdim.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    errors = run.verify_job(job, 0, out, {}, committed)
    assert errors == [f"mdim.json differs from the committed digest (now {workloads.digest(out / 'mdim.json')})"]


def test_unverified_witness_and_nonzero_exit_fail(mdim_job):
    job, out = mdim_job
    assert run.verify_job(job, 3, out, {}, {}) == ["exit code 3"]
    payload = json.loads((out / "mdim.json").read_text())
    payload["verified"] = False
    (out / "mdim.json").write_text(json.dumps(payload))
    assert run.verify_job(job, 0, out, {}, {}) == ["witness not verified"]


def test_density_md_mismatch_counts_each_solve():
    result = {"errors": [], "md": {"r0": [5, 6, 7], "uniform": [1, 2]}}
    seen: dict = {}
    assert run.verify_density(result, seen, {"md.r0": [5, 6, 7], "md.uniform": [1, 2]}) == []
    changed = {"errors": ["r=0: density far from the limit"], "md": {"r0": [5, 0, 0], "uniform": [1, 2]}}
    assert len(run.verify_density(changed, seen, {})) == 3


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        assert {f"{name}.calls" for name, _ in workload.bypass} <= set(run.per_layer_units())

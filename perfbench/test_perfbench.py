"""Self-test of the benchmark harness: python3 -m pytest perfbench -q

Runs every workload at a tiny size, untraced and traced, and checks the
result contract, the exactness of per-layer counts, the tracer's loud
failure and clean restore, and the refusal to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _check_metrics(result, units):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(units)
    for name, unit in units.items():
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], (int, float))


def test_benchmark_json_names_the_emitted_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_every_seeded_input_has_a_reference():
    refs = run.load_references()
    for workload in WORKLOADS.values():
        for op in workload.pool():
            assert op.key in refs, op.key


def test_seed_fixes_the_batch():
    for workload in WORKLOADS.values():
        assert workload.batch(7) == workload.batch(7)
        batches = {tuple(workload.batch(seed)) for seed in range(20)}
        assert len(batches) > 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_run_emits_end_to_end_metrics(name):
    details, result = run.run(name, seed=3, seconds=0, trace=False, tiny=True)
    _check_metrics(result, run.END_TO_END_UNITS)
    assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END_UNITS)
    assert details["host"]["nproc"] >= 1
    if name == "direct":
        assert details["verify_s"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_counts_repeat_exactly(name):
    first = run.run(name, seed=5, seconds=0, trace=True, tiny=True)
    second = run.run(name, seed=5, seconds=0, trace=True, tiny=True)
    for details, result in (first, second):
        _check_metrics(result, spans.PER_LAYER_UNITS)
        assert details["counts_repeat"] is True
    counts = [{k: r["metrics"][k]["value"] for k in spans.COUNT_METRICS} for _, r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["factorizations.enumerate.calls"] > 0


def test_tracer_refuses_a_missing_layer_and_restores_bindings():
    nm = run.import_package()
    presentations = sys.modules["numonoid.presentations"]
    before = {name: getattr(nm, name) for name in ("apery", "factorization_graph")}
    with spans.traced(spans.Tracer()):
        assert nm.factorization_graph is not before["factorization_graph"]
        assert presentations.factorization_graph is nm.factorization_graph
    assert {name: getattr(nm, name) for name in before} == before

    original = presentations._atom_union
    del presentations._atom_union
    try:
        with pytest.raises(LookupError, match="_atom_union"):
            with spans.traced(spans.Tracer()):
                pass
    finally:
        presentations._atom_union = original
    assert nm.factorization_graph is before["factorization_graph"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *BENCHMARK["command"][1:],
           "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""The result-identity gate and the benchmark's names."""

import json
import os
import re
import subprocess
import sys

import pytest

import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ROOT = os.path.dirname(run.HERE)


def _runs(*digests, errors=()):
    return [{"digest": d, "errors": list(errors), "cells": 1} for d in digests]


@pytest.fixture
def runner():
    return run.Runner(seed=42)


def test_recorded_digests_cover_seeds_42_and_7(runner):
    for workload in run.WORKLOADS:
        assert {"42", "7"} <= set(runner.recorded[workload])


def test_gate_passes_the_recorded_report(runner):
    want = runner.recorded["tunnel"]["42"]
    assert runner.problems("tunnel", _runs(want, want)) == []


def test_gate_fires_on_a_perturbed_report(runner):
    from guardsim import harness
    cfg = harness.config_from_dict(workloads.config_doc("long_flood", 42))
    report = workloads.run(harness, "long_flood", cfg)
    good = workloads.digest(harness.report_to_json(report))
    assert runner.problems("long_flood", _runs(good)) == []
    report["cells"][0]["steady"]["n_completed"] += 1
    bad = workloads.digest(harness.report_to_json(report))
    found = runner.problems("long_flood", _runs(bad, bad))
    assert len(found) == 1 and "not the recorded" in found[0]


def test_gate_fires_when_traced_and_untraced_differ():
    r = run.Runner(seed=123_456)  # no recorded digest at this seed
    assert r.problems("matrix", _runs("a", "a")) == []
    assert len(r.problems("matrix", _runs("a", "b"))) == 1


def test_gate_fires_on_a_cell_error(runner):
    want = runner.recorded["long_flood"]["42"]
    found = runner.problems("long_flood",
                            _runs(want, errors=["ZeroDivisionError: x"]))
    assert found == ["long_flood: cell error: ZeroDivisionError: x"]


def test_names_match_the_benchmark_contract():
    names = (list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
             + spans.GROUPS)
    assert all(NAME.match(n) for n in names), \
        [n for n in names if not NAME.match(n)]
    assert set(spans.GROUPS) <= set(run.PER_LAYER)


def test_benchmark_json_agrees_with_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(m["better"] == "lower" for m in doc["end_to_end"])
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert doc["paths"] == ["perfbench"]


def test_workload_configs_parse():
    from guardsim import harness
    for workload in run.WORKLOADS:
        cfg = harness.config_from_dict(workloads.config_doc(workload, 7))
        assert cfg.seed == 7


def _loaded_by(code: str) -> set:
    """Modules that `code` loads in a fresh interpreter."""
    probe = ("import sys; before = set(sys.modules); "
             f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {run.HERE!r}]; "
             f"{code}; loaded = sorted(set(sys.modules) - before); "
             "import json; print(json.dumps(loaded))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    return set(json.loads(out))


def test_child_loads_nothing_guardsim_imports_before_timing_it():
    needed = _loaded_by("import guardsim.harness")
    preloaded = _loaded_by("import child; child.reference.setup_task(); "
                           "child.workloads.config_doc('matrix', 1)")
    assert "dataclasses" in needed
    assert not needed & preloaded

"""The benchmark's own tests (tiny inputs; about half a minute).

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import tracer as tracer_mod  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def run_cli(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    script = cwd / "perfbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_passes_gate_and_prints_benchmark_metrics(workload):
    proc = run_cli(workload, trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = run_cli(workload, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == PER_LAYER


def test_per_layer_names_match_benchmark_json():
    assert tracer_mod.per_layer_metric_names() == PER_LAYER


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("sweep-cold-reference", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _targets():
    for module, path, _ in tracer_mod.SPAN_TARGETS + tracer_mod.COUNT_TARGETS:
        yield tracer_mod._resolve(module, path)
    from repro.exec.cache import ResultCache
    from repro.exec.campaign import CampaignRunner
    from repro.experiments.scenarios import BroadcastScenario

    yield ResultCache, "entry_paths"
    yield CampaignRunner, "run"
    yield BroadcastScenario, "run"


def test_trace_wrappers_are_removed_after_traced_run(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in _targets()]
    tracer = tracer_mod.Tracer()
    session = wl.SweepSession("sweep-cold-reference", "tiny", 0, tmp_path)
    tracer.install()
    try:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
        session.run_pass(wl.Outcome())
    finally:
        tracer.uninstall()
        session.close()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
    names = {rec[0] for rec in tracer.spans}
    assert {"exec.runtable", "exec.specs.build", "radio.engine.run",
            "analysis.packing", "exec.cache.put"} <= names
    assert tracer.counts["protocols.evidence.adds"] > 0
    assert tracer.profiler.total("transmit") > 0


def test_one_seed_gives_identical_row_digests_twice(tmp_path):
    digests = []
    for attempt in range(2):
        session = wl.SweepSession("sweep-cold-reference", "tiny", 3,
                                  tmp_path / str(attempt))
        outcome = wl.Outcome()
        session.run_pass(outcome)
        session.close()
        assert not outcome.errors
        digests.extend(outcome.digests)
    assert len(digests) == 2 and digests[0] == digests[1]


def test_self_time_subtracts_union_of_children():
    root = ["root", 0.0, 10.0, None]
    a = ["a", 1.0, 4.0, root]
    b = ["b", 3.0, 6.0, root]  # overlaps a: union of children is [1, 6]
    c = ["c", 2.0, 3.0, a]
    selfs = tracer_mod.self_times([root, a, b, c])
    assert selfs[id(root)] == pytest.approx(5.0)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(c)] == pytest.approx(1.0)


def test_serve_operations_keep_the_store_size_and_pass_the_gate(tmp_path):
    session = wl.ServeSession(wl.SERVE_SCALES["tiny"], 0, tmp_path)
    try:
        session.prime()
        size = len(session.cache)
        outcome = wl.Outcome()
        for _ in range(wl.EPOCH_OPS + 20):  # crosses a service restart
            session.run_op(outcome)
        assert not outcome.errors and outcome.failed == 0
        assert session.extensions > len(session.specs)  # extensions repeat
        assert len(session.cache) == size
    finally:
        session.close()

"""Tests of the benchmark itself, each workload at minimal length.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that every metric ``BENCHMARK.json`` names is printed with
its unit, that a wrong reference artifact, an op over its timeout and
a trace that does not account for its op each count as a failed op,
and that the command refuses to run without the program's source.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def bench_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_command(REPO, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        for entry in SPEC["end_to_end"]:
            assert result["metrics"][entry["name"]]["value"] > 0, entry["name"]


def _corrupt(original):
    def build():
        reference = original()
        reference["study_json"] = reference["study_json"].replace("Clear", "Clean", 1)
        reference["study_digest"] = "0" * 64
        return reference

    return build


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failed_op(bench_module, workload, monkeypatch, capsys):
    if workload == "cold-table1":
        original = bench_module.paper_table_text
        monkeypatch.setattr(
            bench_module, "paper_table_text",
            lambda: original().replace("Clear", "Clean", 1),
        )
    else:
        monkeypatch.setattr(
            bench_module, "build_study_reference",
            _corrupt(bench_module.build_study_reference),
        )
    code = bench_module.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_op_over_its_timeout_counts_as_failed_op(bench_module, monkeypatch, capsys):
    # ``repro table1`` takes seconds; the 1 s floor cuts every op short.
    monkeypatch.setitem(bench_module.OP_TIMEOUT_S, "cold-table1", 0.1)
    code = bench_module.main(
        ["--workload", "cold-table1", "--seed", "3", "--seconds", "1", "--trace", "0"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _trace(*spans):
    return {"spans": [list(span) for span in spans], "counters": {}}


def test_trace_that_accounts_for_the_op_gives_self_times(bench_module):
    probes = bench_module.probes
    trace = _trace(
        ["op", 0, 1_000_000_000, -1, 0, 0],
        ["net.request", 100_000_000, 600_000_000, 0, 64, 0],
        ["crypto.ctr", 200_000_000, 300_000_000, 1, 16, 0],
    )
    metrics = probes.op_layer_metrics(trace, 0, 1.0, 95.0)
    assert metrics["net.self_s"] == pytest.approx(0.4)
    assert metrics["crypto.self_s"] == pytest.approx(0.1)
    assert metrics["obs.unattributed_s"] == pytest.approx(0.5)
    assert metrics["obs.accounted_pct"] == pytest.approx(100.0)
    assert metrics["net.request.bytes"] == 64


def test_root_span_short_of_the_wall_time_fails_the_check(bench_module):
    probes = bench_module.probes
    trace = _trace(["op", 0, 500_000_000, -1, 0, 0])
    with pytest.raises(probes.UnaccountedTrace, match="50.0%"):
        probes.op_layer_metrics(trace, 0, 1.0, 95.0)


def test_span_outside_the_root_tree_fails_the_check(bench_module):
    probes = bench_module.probes
    # A span another thread opened while the op ran: parent -1.
    trace = _trace(
        ["op", 0, 1_000_000_000, -1, 0, 0],
        ["crypto.ctr", 200_000_000, 300_000_000, -1, 16, 0],
    )
    with pytest.raises(probes.UnaccountedTrace, match="1 spans"):
        probes.op_layer_metrics(trace, 0, 1.0, 95.0)


def test_unaccounted_traced_op_counts_as_failed_op(bench_module, monkeypatch, capsys):
    # No root span can cover more than the whole wall time.
    monkeypatch.setitem(bench_module.ACCOUNTED_FLOOR_PCT, "child", 101.0)
    code = bench_module.main(
        ["--workload", "cold-table1", "--seed", "3", "--seconds", "1", "--trace", "1"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    # Each pair is one untraced op, which passes, and one traced op.
    assert result["attempted"] == 2 * result["failed"] >= 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(tmp_path, "cold-table1", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

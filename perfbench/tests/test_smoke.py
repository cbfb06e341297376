"""Smoke test of the benchmark harness: one short pass per workload.

    python3 -m pytest perfbench/tests -q

Needs the modpoisson sources under src/ of the same checkout.  Takes about
half a minute per workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_checks_every_op_and_reaches_every_layer(workload, tmp_path):
    result = run.measure(workload, 7, 1.0, True, tmp_path)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _names("per_layer")
    ops = workloads.build(workload, 7, tmp_path)
    for records in result["records"]:
        probes = [r for r in records if r["op"].probe]
        if probes:  # a traced pass runs the whole op list
            assert [r["op"].name for r in records] == [op.name for op in ops]
        for r in records:
            assert r["checked"] or r["op"].probe, r["op"].name
    for layer in workloads.LAYERS_USED[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer

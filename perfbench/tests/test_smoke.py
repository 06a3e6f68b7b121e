"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/tests -q

Runs every workload with ``--seconds 1`` (a thirtieth of the nominal
size), untraced and traced, and checks that each metric named in
BENCHMARK.json is printed with its unit, that no op fails, and that the
traced run's work counts repeat exactly for the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("oracle.enum_elems", "quotient.vertices", "cli.contract_violations")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench(workload, 3, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["pass_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 3, 1), bench(workload, 3, 1)
    assert_metrics(first, SPEC["per_layer"])
    assert first["failed"] == 0 and second["failed"] == 0
    for name, m in first["metrics"].items():
        if name.endswith(".calls") or name in EXACT:
            assert m["value"] == second["metrics"][name]["value"], name
    # the three ROADMAP item-5 inputs are the only known contract breaks
    assert first["metrics"]["cli.contract_violations"]["value"] <= 3


def test_missing_sources_fail(tmp_path):
    """Outside a full checkout the benchmark refuses to run."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()

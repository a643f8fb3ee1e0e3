"""Smoke self-test of the benchmark: one instance per workload, untraced and
traced, with every metric of BENCHMARK.json present under its unit.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import bench  # noqa: E402
import compare  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_with_its_unit(workload, trace, section, tmp_path):
    doc = bench.run(run.ROOT, workload, seed=0, seconds=0.0, trace=trace, count=1,
                    outdir=tmp_path)
    assert doc["correct"], doc["failures"]
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0, name


def test_workloads_match_the_command():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


def test_counts_repeat_across_seeds(tmp_path):
    a, b = (bench.run(run.ROOT, "sdp_cold", seed=s, seconds=0.0, trace=False, count=2,
                      outdir=tmp_path)
            for s in (0, 7919))
    assert a["fingerprints"] != b["fingerprints"]
    assert compare.exact_counts(a) == compare.exact_counts(b)
    assert a["counts"]["steps"] == [357, 240]


def test_last_line_is_the_result(capsys, tmp_path):
    assert run.main(["--workload", "sdp_cold", "--seed", "3", "--seconds", "0"],
                    count=1, outdir=tmp_path) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sdp_cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

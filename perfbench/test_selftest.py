"""Smoke test of the benchmark command on the toy-size reference pools.

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload untraced and traced for one second, checks that each
metric named in ``BENCHMARK.json`` is printed with its unit, that a corrupted
reference answer makes the command fail, and that the command refuses to run
without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TOY = HERE / "refs" / "toy"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, refs=TOY, cwd=ROOT, bench=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(bench), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--refs-dir", str(refs)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert res["metrics"]["completion_rate"]["value"] == 1.0
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_corrupted_reference_fails(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(TOY, refs)
    path = refs / "drcr-1k-joint.json"
    doc = json.loads(path.read_text())
    row = next(r for r in doc["rows"] if r[4] == "optimal")
    row[5] += 1
    path.write_text(json.dumps(doc))
    proc = run("drcr-1k-joint", refs=refs)
    assert proc.returncode != 0
    res = result(proc)
    assert res["correct"] is False and res["failed"] >= 1
    assert res["metrics"]["completion_rate"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], cwd=tmp_path,
               bench=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

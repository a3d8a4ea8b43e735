"""Smoke test of the benchmark harness itself.

Runs every workload for one second, untraced and traced, and checks that
each metric BENCHMARK.json names is emitted with its unit; checks that the
harness refuses to run without the package sources; and checks the
comparison verdicts on made-up records. Takes about a minute:

    python3 -m pytest -q benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRIPT = SPEC["command"][1]

sys.path.insert(0, str(ROOT / "benchmarks"))
import compare  # noqa: E402


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, SCRIPT, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    record = tmp_path / "runs.jsonl"
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--record", str(record)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in names]
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    env = json.loads(record.read_text(encoding="utf-8").splitlines()[-1])["env"]
    assert set(env) == {"python", "numpy", "nproc", "cpu", "commit", "seed"}
    if trace:
        assert (tmp_path / f"trace-{workload}-1.jsonl").stat().st_size > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "exact_short", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    old = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [x * 1.3 for x in old]
    assert compare.verdict(old, faster, lower=False, bound=0.1) == "better"
    assert compare.verdict(old, [x * 0.8 for x in old], lower=False, bound=0.1) == "worse"
    assert compare.verdict(old, old, lower=False, bound=0.1) == "same"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(old, noisy, lower=False, bound=0.1) == "unresolved"

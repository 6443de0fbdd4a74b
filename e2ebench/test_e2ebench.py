"""The benchmark's own tests: its failure paths must trip.

Run from the repository root with ``python3 -m pytest e2ebench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tampered_reference_is_caught():
    proc = _run("--workload", "composite-sim", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--tamper")
    assert proc.returncode == 1, proc.stderr
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


@pytest.mark.parametrize("workload", ["composite-sim", "serve-orbit", "frame-mp"])
def test_traced_run_reports_every_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "4", "--seconds", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert list(result["metrics"]) == names
    assert 0.0 < result["metrics"]["layers.coverage"]["value"] <= 1.0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "composite-sim", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=str(tmp_path / "e2ebench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

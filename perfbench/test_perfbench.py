"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run the benchmark's short mode (every workload once at its smallest
size, untraced and traced, with every check on), verify that the stored
references regenerate exactly from the seeds, and check that the
benchmark refuses to run without the package source.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_short_mode_runs_every_workload_correctly():
    proc = _run(["perfbench/run.py", "--short"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for name in ("finite-queries", "linking", "cli-batch"):
        for trace in (0, 1):
            assert f"{name} trace={trace}: correct=True" in proc.stdout


def test_stored_references_regenerate_exactly():
    proc = _run(["perfbench/reference.py", "--check"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "DIFFERS" not in proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(
        ["perfbench/run.py", "--workload", "linking", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

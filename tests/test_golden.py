"""Every cli-batch run prints what ``tests/cli_outputs.golden`` records.

``tools/cli_outputs.py`` records each command line of the benchmark's
cli-batch workload; the golden file holds one digest per run of its exit
code, standard output and standard error.  A change that alters outputs on
purpose rewrites the file with ``python3 tools/cli_outputs.py --golden``.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)


def _differences(lines: list[str]) -> str:
    """Empty when ``lines`` are the golden file's; else the count of runs
    that differ and the keys of the first few."""
    golden = pathlib.Path(cli_outputs.GOLDEN).read_text(encoding="utf-8").splitlines()
    if len(lines) != len(golden):
        return f"{len(lines)} runs recorded, {len(golden)} in the golden file"
    differ = [new.split(" ", 1)[1] for new, old in zip(lines, golden) if new != old]
    return "" if not differ else f"{len(differ)} runs differ, first: " + "; ".join(differ[:5])


def test_cli_outputs_match_the_golden_file(monkeypatch):
    # record puts the checkout's src and perfbench first on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert _differences(cli_outputs.digest_lines(cli_outputs.record(str(ROOT)))) == ""


def test_cli_outputs_do_not_depend_on_hash_order(tmp_path):
    out = tmp_path / "runs.json"
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_outputs.py"), "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    runs = json.loads(out.read_text(encoding="utf-8"))
    assert _differences(cli_outputs.digest_lines(runs)) == ""

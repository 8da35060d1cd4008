"""Record what every cli-batch command prints, for comparing two checkouts.

    python3 tools/cli_outputs.py --out outputs.json
    python3 tools/cli_outputs.py --root ../other-checkout --out other.json
    cmp outputs.json other.json
    python3 tools/cli_outputs.py --golden

For each seed in ``SEEDS``, at short and at full scale, the description
files of the benchmark's cli-batch workload (``perfbench/inputs.py`` and
``perfbench/workloads.py``) are written to a fresh temporary directory,
and every command line of the workload runs in-process through
``matroid_kappa.cli.parse_and_run``, once with ``--output=json`` and once
with ``--output=text``.  The package and the benchmark are imported from
the checkout named by ``--root`` (by default the one holding this file).
The exit code, standard output and standard error of each run are written
to one JSON file, with the temporary directory replaced by ``<workdir>``,
so the files of two checkouts compare byte for byte.

``--golden`` writes ``tests/cli_outputs.golden`` instead: one line per
run, a digest of its exit code, standard output and standard error, then
its key (seed, scale, output mode and argv).  ``tests/test_golden.py``
records the runs again and compares them with that file; a change that
alters outputs on purpose rewrites it with ``--golden``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(DEFAULT_ROOT, "tests", "cli_outputs.golden")
SEEDS = (0, 1, 2, 501, 502)
SCALES = ("short", "full")
OUTPUTS = ("json", "text")


def record(root: str) -> list[dict]:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    cli = importlib.import_module("matroid_kappa.cli")
    inputs = importlib.import_module("inputs")
    workloads = importlib.import_module("workloads")

    runs = []
    for seed in SEEDS:
        for scale in SCALES:
            spec = inputs.cli_batch(seed, scale)
            with tempfile.TemporaryDirectory() as workdir:
                for fname, desc in spec["files"].items():
                    with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                        fh.write(workloads.render(desc))
                for cmd in spec["commands"]:
                    # cli_argv puts the --output=json flag first
                    argv = workloads.cli_argv(cmd, workdir)[1:]
                    for output in OUTPUTS:
                        code, out, err = workloads.run_cli(cli, [f"--output={output}", *argv])
                        runs.append({
                            "seed": seed,
                            "scale": scale,
                            "argv": [a.replace(workdir, "<workdir>") for a in argv],
                            "output": output,
                            "exit": code,
                            "stdout": out.replace(workdir, "<workdir>"),
                            "stderr": err.replace(workdir, "<workdir>"),
                        })
    return runs


def digest_lines(runs: list[dict]) -> list[str]:
    """One line per run: a digest of what it printed, then its key."""
    lines = []
    for run in runs:
        body = json.dumps([run["exit"], run["stdout"], run["stderr"]])
        key = json.dumps([run["seed"], run["scale"], run["output"], run["argv"]])
        lines.append(f"{hashlib.sha256(body.encode()).hexdigest()[:16]} {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=DEFAULT_ROOT, help="checkout to run (default: this one)")
    dest = ap.add_mutually_exclusive_group(required=True)
    dest.add_argument("--out", help="JSON file to write")
    dest.add_argument("--golden", action="store_true", help=f"write the digests to {GOLDEN}")
    args = ap.parse_args(argv)
    runs = record(os.path.abspath(args.root))
    with open(args.out or GOLDEN, "w", encoding="utf-8") as fh:
        if args.golden:
            fh.writelines(line + "\n" for line in digest_lines(runs))
        else:
            json.dump(runs, fh, indent=1)
            fh.write("\n")
    print(f"{len(runs)} runs written to {args.out or GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of matroid-kappa: one closed-loop caller per workload.

    python3 perfbench/run.py --workload finite-queries --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --short

Run from the root of a checkout; the package is imported from its
``src`` directory.  A run repeats whole passes of the workload's
operations until ``--seconds`` have passed, each pass after a fresh
set-up (import plus building the inputs), then checks every answer
against the reference (``reference.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 1`` reports the per-layer metrics instead and
writes its spans to ``perfbench/out/``.  ``--short`` runs every workload
once at its smallest size with all checks on.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REPIN_EVERY = 8

sys.path.insert(0, HERE)

import probes  # noqa: E402
import reference  # noqa: E402
from inputs import probes as probe_inputs  # noqa: E402
from oracles import RefMatroid  # noqa: E402
from tracing import Tracer, untraced_call  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """A fresh import of the package from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "matroid_kappa" or n.startswith("matroid_kappa.")]:
        del sys.modules[name]
    return importlib.import_module("matroid_kappa")


class Loop:
    """Whole passes of a workload, one operation at a time.

    Every pass starts with a timed set-up: a fresh import of the package
    and a fresh build of the pass's inputs, so memos start cold and the
    set-up times are sampled across the whole run.  Each operation is
    timed on its own, and every timing metric is taken from the fastest
    repetition: on a shared machine the same code runs at two speeds,
    depending on what other tenants run beside it (see README), and the
    minimum reads the uncontended one.  For the same reason the process
    moves to the CPU that is fastest at the moment before every set-up and
    every REPIN_EVERY operations.
    """

    def __init__(self, workload, workdir: str):
        self.workload, self.workdir = workload, workdir
        self.first: dict = {}
        self.mismatches: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.mk = None

    def run(self, seconds: float, tracer=None, max_passes=None):
        """Passes until ``seconds`` elapsed; returns (set-up times, {op: times})."""
        call = tracer.call if tracer else untraced_call
        clock = time.perf_counter
        end = clock() + seconds
        setups, times = [], {}
        while True:
            pin_fastest_cpu()
            # collect the benchmark's own garbage first, so that no
            # collection of it lands inside a timed set-up
            gc.collect()
            start = clock()
            self.mk = import_package()
            ops = self.workload.setup(self.mk, self.workdir)
            setups.append(clock() - start)
            for i, (op_id, fn) in enumerate(ops):
                if i and i % REPIN_EVERY == 0:
                    pin_fastest_cpu()
                self.attempted += 1
                t0 = clock()
                try:
                    ans = tracer.run_op(op_id, fn, call) if tracer else fn(call)
                except Exception as exc:  # an operation's failure is counted, not fatal
                    self.failures.append(f"{op_id}: {type(exc).__name__}: {exc}")
                    continue
                times.setdefault(op_id, []).append(clock() - t0)
                self._record(op_id, ans)
            if clock() >= end or len(setups) == max_passes:
                return setups, times

    def _record(self, op_id, ans):
        # the first answer is checked against the reference after the
        # timed loop; later passes must repeat it exactly
        ans = json.loads(json.dumps(ans))
        if op_id not in self.first:
            self.first[op_id] = ans
        elif self.first[op_id] != ans:
            self.mismatches.append(f"{op_id}: answer changed between passes")

    def problems(self, expected: dict) -> list[str]:
        # an operation that raised is counted in ``failed``; correctness
        # speaks of the operations that answered
        answered = {k: v for k, v in expected.items() if k in self.first}
        return self.mismatches + self.workload.check(self.first, answered)


# a small graph whose kappa(a, e) scan takes about 0.3 ms on an
# uncontended vCPU of the machine the benchmark was written on
CAL_DESC = {
    "type": "graphic",
    "edges": [
        ["a", "1", "2"], ["b", "2", "3"], ["c", "3", "1"], ["d", "3", "4"],
        ["e", "4", "5"], ["f", "5", "3"], ["g", "1", "5"], ["h", "2", "4"],
    ],
}


def calibrate() -> float:
    """Time a fixed piece of pure-Python work that does not use the package."""
    start = time.perf_counter()
    RefMatroid(CAL_DESC).kappa_between(["a"], ["e"])
    return time.perf_counter() - start


def pin_fastest_cpu() -> None:
    """Move this process to whichever allowed CPU runs ``calibrate`` fastest.

    Only this process's own CPU affinity changes, within the CPUs it was
    started with.
    """
    cpus = sorted(ALLOWED_CPUS)
    if len(cpus) < 2:
        return
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        took = min(calibrate() for _ in range(3))
        if best is None or took < best[0]:
            best = (took, cpu)
    os.sched_setaffinity(0, {best[1]})


ALLOWED_CPUS = os.sched_getaffinity(0)


def op_minima(times: dict) -> list[float]:
    return [min(t) for t in times.values()]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    workload = WORKLOADS[name](seed, scale)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    loop = Loop(workload, workdir)
    max_passes = 1 if scale == "short" else None
    try:
        if not trace:
            setups, times = loop.run(seconds, max_passes=max_passes)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems = loop.problems(reference.expected(name, seed, scale))
            fastest = op_minima(times)
            metrics = {
                "setup_s": (min(setups), "s"),
                "throughput_ops_s": (len(fastest) / sum(fastest), "1/s"),
                "latency_p50_ms": (statistics.median(fastest) * 1e3, "ms"),
                "latency_p90_ms": (percentile(fastest, 90) * 1e3, "ms"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
            }
        else:
            # untraced and traced passes alternate; the difference in time
            # per pass is the tracing overhead
            tracer = Tracer()
            times = ({}, {})
            end = time.perf_counter() + seconds
            for i in itertools.count():
                _, got = loop.run(0, tracer=tracer if i % 2 else None, max_passes=1)
                for op_id, t in got.items():
                    times[i % 2].setdefault(op_id, []).extend(t)
                if i % 2 and (time.perf_counter() >= end or max_passes):
                    break
            overhead = (sum(op_minima(times[1])) / sum(op_minima(times[0])) - 1) * 100
            pspec = probe_inputs(seed, scale)
            pwant = reference.expected("probes", seed, scale)
            problems = loop.problems(reference.expected(name, seed, scale))
            for rep in range(probes.PROBE_REPS):
                pin_fastest_cpu()
                panswers, counts, pfailed = probes.run_probes(
                    loop.mk, tracer, pspec, workdir, rep
                )
                loop.attempted += sum(len(v) for v in panswers.values())
                loop.failures += pfailed
                problems += probes.check_probes(panswers, pwant, pspec)
            peak = probes.peak_kib(loop.mk, pspec)
            values = probes.layer_metrics(tracer, counts, peak, overhead)
            metrics = {k: (values[k], unit) for k, unit in probes.PER_LAYER.items()}
            tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in loop.failures + problems:
        print(f"problem: {line}", file=sys.stderr)
    return not problems, loop.attempted, len(loop.failures), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matroid-kappa benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="every workload once, smallest size")
    args = ap.parse_args(argv)
    if not args.short and args.workload is None:
        ap.error("--workload is required unless --short is given")

    if not os.path.isfile(os.path.join(ROOT, "src", "matroid_kappa", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.short:
        ok = True
        attempted = failed = 0
        for name in WORKLOADS:
            for trace in (False, True):
                good, att, fail, _ = run_workload(name, 0, 0, trace, scale="short")
                print(f"{name} trace={int(trace)}: correct={good} attempted={att} failed={fail}")
                ok &= good
                attempted += att
                failed += fail
        print(result_line(ok, attempted, failed, {}))
        return 0 if ok and not failed else 1

    correct, attempted, failed, metrics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer probes of the traced run.

Each probe calls one layer of the package on fresh seeded inputs inside a
span, so a layer's cost is read without the layers above it.  The probes
are the same for every workload; their answers are checked against the
reference like any other.  ``PER_LAYER`` lists every per-layer metric
with its unit and, in the README, the end-to-end metric it should move.
"""

from __future__ import annotations

import os
import statistics
import tracemalloc

import inputs
from oracles import blocks
from tracing import untraced_call
from workloads import build, make_family, render, run_cli, window_problems

INDEP_BATCH = 128

PER_LAYER = {
    **{f"core.indep_us.{rep}": "us" for rep in inputs.INDEP_REPS},
    "core.rank_us": "us",
    "core.circuits_ms": "ms",
    "core.build_us": "us",
    "constructions.minor_us": "us",
    "constructions.components_ms": "ms",
    "connectivity.kappa_us": "us",
    "connectivity.kappa_between_ms": "ms",
    "connectivity.kappa_between_warm_ms": "ms",
    "connectivity.kappa_between_peak_kib": "KiB",
    "connectivity.separation_ms": "ms",
    "linking.partition_ms": "ms",
    "linking.constructive_ms": "ms",
    "linking.zone_elements": "count",
    "windows.window_build_ms": "ms",
    "windows.stabilize_ms": "ms",
    "windows.certificate_ms": "ms",
    "windows.link_ms": "ms",
    "windows.windows_evaluated": "count",
    "windows.capped_windows": "count",
    "fileformat.parse_us": "us",
    "axioms.check_ms": "ms",
    "cli.call_ms": "ms",
    "cli.self_us": "us",
    "trace.overhead_pct": "%",
}


def _indep_batch(m, sets):
    return [m.is_independent(s) for s in sets]


PROBE_REPS = 3


FAILED = "failed"


def run_probes(mk, tracer, spec: dict, workdir: str, rep: int):
    """Run every probe once under ``tracer``; returns (answers, counts, failures).

    Operation ids are ``probe/<rep>/...``, so repetitions can be told apart.
    A probe that raises is listed in ``failures`` and answers ``FAILED``.
    """
    call = tracer.call
    answers = {"indep": [], "between": [], "link": [], "windows": [], "texts": [], "explicit": []}
    counts = {"zone_elements": 0, "windows_evaluated": 0, "capped_windows": 0}
    failures = []

    def op(op_id, fn):
        try:
            return tracer.run_op(f"probe/{rep}/{op_id}", fn)
        except Exception as exc:  # a probe's failure is counted, not fatal
            failures.append(f"probe/{rep}/{op_id}: {type(exc).__name__}: {exc}")
            return FAILED

    # core: cold independence verdicts, one span per batch of distinct sets
    for i, p in enumerate(spec["indep"]):
        def indep(p=p):
            # core.build_us times the graphic and gf2 constructors only
            build_call = call if p["rep"] in ("graphic", "gf2") else untraced_call
            m = build_call("core.build", build, mk, p["matroid"])
            sets = [m.ground.set_of(s) for s in p["sets"]]
            return call(f"core.indep[{p['rep']}]", _indep_batch, m, sets)

        answers["indep"].append(op(f"indep/{i}", indep))

    # core, constructions and connectivity on fresh 11-element instances
    for i, p in enumerate(spec["between"]):
        def between(p=p):
            fresh = lambda: build(mk, p["matroid"])  # noqa: E731
            got = {}
            m = fresh()
            got["rank"] = call("core.rank", m.rank, m.ground.set_of(p["kx"]))
            m = fresh()
            got["kappa"] = call("connectivity.kappa", mk.kappa, m, m.ground.set_of(p["kx"]))
            m = fresh()
            got["circuits"] = sorted(sorted(c) for c in call("core.circuits", m.circuits))
            m = fresh()
            spec_ = mk.MinorSpec(m.ground.set_of(p["contract"]), m.ground.set_of(p["delete"]))
            got["minor_rank"] = call("constructions.minor", mk.take_minor, m, spec_).full_rank
            got["dual_rank"] = call("constructions.minor", mk.dual, m).full_rank
            m = fresh()
            parts = call("constructions.components", mk.components, m)
            got["components"] = blocks(parts.to_jsonable())
            m = fresh()
            x, y = m.ground.set_of(p["x"]), m.ground.set_of(p["y"])
            got["kappa_between"] = call("connectivity.kappa_between", mk.kappa_between, m, x, y)
            warm = call("connectivity.kappa_between_warm", mk.kappa_between, m, x, y)
            if warm != got["kappa_between"]:
                got["kappa_between"] = None
            m = fresh()
            got["connected"] = call("connectivity.is_k_connected", mk.is_k_connected, m, 2)
            return got

        answers["between"].append(op(f"between/{i}", between))

    # linking on fresh 9-element instances
    for i, p in enumerate(spec["link"]):
        def link(p=p):
            values = []
            for solver in ("linking_partition", "constructive_linking"):
                m = build(mk, p["matroid"])
                x, y = m.ground.set_of(p["x"]), m.ground.set_of(p["y"])
                res = call(f"linking.{solver}", getattr(mk, solver), m, x, y)
                values.append(res.achieved)
                zones = [e["zone"] for e in res.trace if e.get("stage") == "window"]
                if solver == "constructive_linking" and zones:
                    counts["zone_elements"] += len(zones[-1])
            return values[0] if values[0] == values[1] else None

        answers["link"].append(op(f"link/{i}", link))

    # windows: building, stabilising, certificates and windowed linking
    for i, q in enumerate(spec["windows"]):
        def windows(q=q):
            start = inputs.family_radius(q["family"], q["x"] + q["y"])
            extra = {"zone_extra": q["zone_extra"]} if "zone_extra" in q else {}
            policy = mk.StabilizationPolicy(max_window=q["max_window"], **extra)
            windows = range(start, q["max_window"] + 1)
            fam = make_family(mk, q["family"])
            for n in windows:
                call("windows.window", fam.window, n)
            certs = []
            if q["certificate"]:
                cert = mk.certified_separation(fam, q["certificate"])
                call("windows.certificate", cert.validate, fam, windows, q["x"], q["y"])
                certs = [cert]
            fam = make_family(mk, q["family"])
            rep = call(
                "windows.stabilize", mk.stabilized_kappa_between, fam, q["x"], q["y"], policy, certs
            )
            counts["windows_evaluated"] += len(rep.values)
            counts["capped_windows"] += sum(how == "capped" for _, how in rep.settled)
            if certs:
                fam = make_family(mk, q["family"])
                res = call("windows.link", mk.windowed_linking, fam, q["x"], q["y"], policy, certs)
                if res.achieved != rep.certified_value:
                    return None
            return {"values": [list(v) for v in rep.values], "certified": rep.certified_value}

        answers["windows"].append(op(f"windows/{i}", windows))

    # fileformat, axioms and cli: files written once, parsed many times
    from matroid_kappa import cli, fileformat

    paths = []
    for i, desc in enumerate(spec["texts"]):
        path = os.path.join(workdir, f"probe{i}.matroid")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(desc))
        paths.append(path)
    for i, path in enumerate(paths):
        def text(path=path):
            got = None
            for _ in range(5):
                m = call("fileformat.parse", fileformat.parse_matroid_file, path)
                call("core.rank_full", m.rank, m.ground.full())
                call("cli.rank", run_cli, cli, ["--output=json", "rank", path])
                for verb in ("kappa-between", "components", "circuits"):
                    argv = ["--output=json", verb, path]
                    if verb == "kappa-between":
                        labels = list(m.ground)
                        argv[2:2] = [f"--x={labels[0]}", f"--y={labels[-1]}"]
                    call("cli.parse_and_run", run_cli, cli, argv)
                got = {
                    "rank": m.full_rank,
                    "basis": list(m.basis()),
                    "circuits": sorted(sorted(c) for c in m.circuits()),
                }
            return got

        answers["texts"].append(op(f"text/{i}", text))
    for i, desc in enumerate(spec["explicit"]):
        def explicit(desc=desc):
            body = render(desc)
            m = call("axioms.parse_explicit", fileformat.parse_matroid_text, body)
            g = m.ground
            family = frozenset(
                mask for mask in range(g.full_mask + 1) if m.is_independent(g.from_mask(mask))
            )
            report = call("axioms.check_axioms", mk.check_axioms, g, independent_masks=family)
            return m.full_rank if report.ok else None

        answers["explicit"].append(op(f"explicit/{i}", explicit))
    return answers, counts, failures


def peak_kib(mk, spec: dict) -> float:
    """Median tracemalloc peak of one cold kappa(X, Y) scan, in a pass of its own."""
    peaks = []
    tracemalloc.start()
    try:
        for p in spec["between"]:
            m = build(mk, p["matroid"])
            x, y = m.ground.set_of(p["x"]), m.ground.set_of(p["y"])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mk.kappa_between(m, x, y)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks)


def layer_metrics(tracer, counts: dict, peak: float, overhead_pct: float) -> dict:
    """Per-layer metrics from the probe spans.

    A time is the median span duration within one probe repetition, taken
    from the fastest repetition, as the workloads take their fastest pass.
    """
    durs: dict[str, dict[str, list[int]]] = {}
    for _, name, start, end, _, op in tracer.spans:
        if op and op.startswith("probe/"):
            rep = op.split("/")[1]
            durs.setdefault(name, {}).setdefault(rep, []).append(end - start)

    def us(name, per=1):
        return min(statistics.median(d) for d in durs[name].values()) / 1e3 / per

    def ms(name):
        return us(name) / 1e3

    out = {
        f"core.indep_us.{rep}": us(f"core.indep[{rep}]", INDEP_BATCH) for rep in inputs.INDEP_REPS
    }
    out.update(
        {
            "core.rank_us": us("core.rank"),
            "core.circuits_ms": ms("core.circuits"),
            "core.build_us": us("core.build"),
            "constructions.minor_us": us("constructions.minor"),
            "constructions.components_ms": ms("constructions.components"),
            "connectivity.kappa_us": us("connectivity.kappa"),
            "connectivity.kappa_between_ms": ms("connectivity.kappa_between"),
            "connectivity.kappa_between_warm_ms": ms("connectivity.kappa_between_warm"),
            "connectivity.kappa_between_peak_kib": peak,
            "connectivity.separation_ms": ms("connectivity.is_k_connected"),
            "linking.partition_ms": ms("linking.linking_partition"),
            "linking.constructive_ms": ms("linking.constructive_linking"),
            "linking.zone_elements": counts["zone_elements"],
            "windows.window_build_ms": ms("windows.window"),
            "windows.stabilize_ms": ms("windows.stabilize"),
            "windows.certificate_ms": ms("windows.certificate"),
            "windows.link_ms": ms("windows.link"),
            "windows.windows_evaluated": counts["windows_evaluated"],
            "windows.capped_windows": counts["capped_windows"],
            "fileformat.parse_us": us("fileformat.parse"),
            "axioms.check_ms": ms("axioms.check_axioms"),
            "cli.call_ms": min(
                statistics.median(durs["cli.rank"][rep] + durs["cli.parse_and_run"][rep])
                for rep in durs["cli.rank"]
            ) / 1e6,
            # the rank verb's own cost beyond parsing the file and asking
            # the library for the same rank
            "cli.self_us": us("cli.rank") - us("fileformat.parse") - us("core.rank_full"),
            "trace.overhead_pct": overhead_pct,
        }
    )
    return out


def check_probes(answers: dict, expected: dict, spec: dict) -> list[str]:
    problems = []
    for group in ("indep", "between", "link", "explicit"):
        for i, (got, want) in enumerate(zip(answers[group], expected[group])):
            if got != want and got != FAILED:
                problems.append(f"probe {group}/{i}: got {got!r}, expected {want!r}")
    windows = zip(answers["windows"], expected["windows"], spec["windows"])
    for i, (got, want, q) in enumerate(windows):
        if got == FAILED:
            continue
        if got is None:
            problems.append(f"probe windows/{i}: windowed linking missed the certified value")
        elif q["certificate"]:
            found = window_problems(got["values"], got["certified"], want)
            problems += [f"probe windows/{i}: {p}" for p in found]
        elif any(v > exact for (_, v), (_, exact) in zip(got["values"], want)):
            problems.append(f"probe windows/{i}: a lower bound exceeds the exact value")
    for i, (got, want) in enumerate(zip(answers["texts"], expected["texts"])):
        if got != FAILED and any(got[k] != want[k] for k in ("rank", "basis", "circuits")):
            problems.append(f"probe text/{i}: summary differs from the reference")
    return problems

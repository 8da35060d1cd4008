"""The three closed-loop workloads: inputs, operations and answer checks.

A workload turns its seeded descriptions (``inputs.py``) into package
objects, yields the operations of one pass, and checks the answers of a
pass against the expected values of ``reference.py``.  Every operation
is a function of the call helper ``call(span_name, fn, *args)``, which
records a span around each call into the package in traced runs and is
a plain call otherwise.  Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from functools import partial

import inputs
import reference
from oracles import RefMatroid, blocks


def build(mk, desc: dict):
    """The package matroid of a description, through its public API."""
    kind = desc["type"]
    if kind == "graphic":
        return mk.graphic_matroid([tuple(e) for e in desc["edges"]])
    if kind == "gf2":
        return mk.gf2_matroid(desc["labels"], desc["rows"])
    if kind == "uniform":
        return mk.uniform_matroid(desc["labels"], desc["k"])
    if kind == "explicit":
        return mk.explicit_matroid(desc["labels"], desc["independent"])
    if kind == "dual":
        return mk.dual(build(mk, desc["of"]))
    if kind == "minor":
        base = build(mk, desc["of"])
        spec = mk.MinorSpec(
            base.ground.set_of(desc["contract"]), base.ground.set_of(desc["delete"])
        )
        return mk.take_minor(base, spec)
    if kind == "sum":
        return mk.direct_sum([build(mk, p) for p in desc["parts"]])
    raise ValueError(f"unknown description type {kind!r}")


def partition_problems(ref: RefMatroid, x, y, contract, delete, want: int) -> list[str]:
    """What Tutte's linking theorem requires of a partition (C, D).

    C and D split the elements outside X and Y, and kappa of X in M/C\\D,
    computed by the reference oracle, equals kappa_M(X, Y).
    """
    free = set(ref.labels) - set(x) - set(y)
    out = []
    if set(contract) & set(delete) or set(contract) | set(delete) != free:
        out.append(f"partition does not split the free elements: {contract} / {delete}")
    got = ref.minor_kappa(contract, delete, x)
    if got != want:
        out.append(f"kappa in M/C\\D is {got}, expected {want}")
    return out


def window_problems(values, certified, want) -> list[str]:
    """Windowed lower bounds never exceed the window's exact value, never
    decrease, and a certified value is the exact limit."""
    out = []
    if [n for n, _ in values] != [n for n, _ in want]:
        out.append(f"windows {values} differ from {want}")
        return out
    seq = [v for _, v in values]
    if seq != sorted(seq):
        out.append(f"lower bounds decrease: {seq}")
    for (n, v), (_, exact) in zip(values, want):
        if v > exact:
            out.append(f"window {n}: bound {v} above exact value {exact}")
    if certified != want[-1][1]:
        out.append(f"certified {certified}, expected {want[-1][1]}")
    return out


class Workload:
    """Shared shape: descriptions at construction, objects in ``setup``."""

    name = ""

    def setup(self, mk, workdir: str) -> list[tuple[str, object]]:
        """Build the inputs of one pass; returns its (op id, operation) list."""
        raise NotImplementedError

    def check(self, answers: dict, expected: dict) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# finite-queries
# ---------------------------------------------------------------------------


def _finite_query(mk, m, q, call):
    g = m.ground
    op = q["op"]
    if op == "kappa":
        return call("connectivity.kappa", mk.kappa, m, g.set_of(q["x"]))
    if op.startswith("kappa_between"):
        x, y = g.set_of(q["x"]), g.set_of(q["y"])
        return call(f"connectivity.{op}", mk.kappa_between, m, x, y)
    if op == "is_k_connected":
        return call("connectivity.is_k_connected", mk.is_k_connected, m, q["k"])
    parts = call("constructions.components", mk.components, m)
    return blocks(parts.to_jsonable())


class FiniteQueries(Workload):
    name = "finite-queries"

    def __init__(self, seed, scale):
        self.instances = inputs.finite_queries(seed, scale)

    def setup(self, mk, workdir):
        # one instance per entry, shared by its queries only
        ops = []
        for inst in self.instances:
            m = build(mk, inst["matroid"])
            for i, q in enumerate(inst["queries"]):
                ops.append((f"{inst['name']}/{i}", partial(_finite_query, mk, m, q)))
        return ops

    def check(self, answers, expected):
        return [
            f"{key}: got {answers[key]!r}, expected {want!r}"
            for key, want in expected.items()
            if answers[key] != want
        ]


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------


def make_family(mk, family_id: str):
    if family_id == "double-ladder":
        return mk.double_ladder()
    if family_id == "double-ladder-rungless":
        return mk.double_ladder(include_rungs=False)
    return mk.infinite_uniform(int(family_id[len("infinite-uniform(") : -1]))


def _finite_link(mk, m, q, call):
    solver = getattr(mk, q["op"])
    res = call(f"linking.{q['op']}", solver, m, m.ground.set_of(q["x"]), m.ground.set_of(q["y"]))
    return {
        "contract": sorted(res.spec.contract),
        "delete": sorted(res.spec.delete),
        "achieved": res.achieved,
        "target": res.target,
    }


def _windowed(mk, fam, q, call):
    cert = call("windows.certified_separation", mk.certified_separation, fam, q["certificate"])
    policy = mk.StabilizationPolicy(max_window=q["max_window"])
    if q["op"] == "stabilized_kappa_between":
        rep = call(
            "windows.stabilized_kappa_between",
            mk.stabilized_kappa_between, fam, q["x"], q["y"], policy, [cert],
        )
        return {"values": [list(v) for v in rep.values], "certified": rep.certified_value}
    res = call("windows.windowed_linking", mk.windowed_linking, fam, q["x"], q["y"], policy, [cert])
    return {
        "window": res.window_index,
        "contract": sorted(res.spec.contract),
        "delete": sorted(res.spec.delete),
        "achieved": res.achieved,
        "target": res.target,
        "values": [list(v) for v in res.report.values],
        "certified": res.report.certified_value,
    }


def check_windowed_link(ans, q, want) -> list[str]:
    out = window_problems(ans["values"], ans["certified"], want)
    final = want[-1][1]
    if ans["achieved"] != final or ans["target"] != final:
        out.append(f"achieved {ans['achieved']} / target {ans['target']}, expected {final}")
    window = RefMatroid(reference.family_window(q["family"], ans["window"]))
    out += partition_problems(window, q["x"], q["y"], ans["contract"], ans["delete"], final)
    return out


class Linking(Workload):
    name = "linking"

    def __init__(self, seed, scale):
        self.spec = inputs.linking(seed, scale)
        self.queries = {q["name"]: q for q in self.spec["finite"] + self.spec["windowed"]}

    def setup(self, mk, workdir):
        # every operation gets an instance or family of its own, so nothing
        # is shared between calls; finite calls come first in every pass
        ops = [
            (q["name"], partial(_finite_link, mk, build(mk, q["matroid"]), q))
            for q in self.spec["finite"]
        ]
        ops += [
            (q["name"], partial(_windowed, mk, make_family(mk, q["family"]), q))
            for q in self.spec["windowed"]
        ]
        return ops

    def check(self, answers, expected):
        problems = []
        for key, want in expected.items():
            q = self.queries[key]
            ans = answers[key]
            if q["op"] == "stabilized_kappa_between":
                found = window_problems(ans["values"], ans["certified"], want)
            elif q["op"] == "windowed_linking":
                found = check_windowed_link(ans, q, want)
            else:
                found = partition_problems(
                    RefMatroid(q["matroid"]), q["x"], q["y"], ans["contract"], ans["delete"], want
                )
                if ans["achieved"] != want or ans["target"] != want:
                    found.append(f"achieved {ans['achieved']} / target {ans['target']}")
            problems += [f"{key}: {p}" for p in found]
        return problems


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def render(desc: dict) -> str:
    """Description-file text; derived files name their bases by file name."""
    kind = desc["type"]
    if kind == "uniform":
        return f"type: uniform\nelements: {' '.join(desc['labels'])}\nk: {desc['k']}\n"
    if kind == "graphic":
        labels = " ".join(e[0] for e in desc["edges"])
        edges = " ".join(f"{lab}={u}-{v}" for lab, u, v in desc["edges"])
        return f"type: graphic\nelements: {labels}\nedges: {edges}\n"
    if kind == "gf2":
        rows = "\n".join(" ".join(map(str, r)) for r in desc["rows"])
        return f"type: linear-gf2\nelements: {' '.join(desc['labels'])}\nmatrix:\n{rows}\n"
    if kind == "explicit":
        sets = "\n".join(",".join(s) if s else "{}" for s in desc["independent"])
        return f"type: explicit\nelements: {' '.join(desc['labels'])}\nindependent:\n{sets}\n"
    if kind == "dual":
        return f"type: file-derived\nbase: {desc['of']}\napply: dual\n"
    if kind == "minor":
        return (
            f"type: file-derived\nbase: {desc['of']}\napply: minor\n"
            f"contract: {' '.join(desc['contract'])}\ndelete: {' '.join(desc['delete'])}\n"
        )
    if kind == "sum":
        first, *rest = desc["parts"]
        return f"type: file-derived\nbase: {first}\napply: sum\nwith: {' '.join(rest)}\n"
    raise ValueError(kind)


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.parse_and_run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_argv(cmd: dict, workdir: str) -> list[str]:
    if cmd["verb"] == "sum":
        return ["--output=json", "sum", *(os.path.join(workdir, f) for f in cmd["files"])]
    if cmd["verb"] == "family":
        return ["--output=json", "family", *cmd["args"]]
    return ["--output=json", cmd["verb"], *cmd["args"], os.path.join(workdir, cmd["file"])]


def _cli_op(cli, argv, call):
    code, out, err = call("cli.parse_and_run", run_cli, cli, argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.strip()}")
    return json.loads(out)


def summary_problems(got: dict, want: dict) -> list[str]:
    out = []
    if sorted(got["elements"]) != want["elements"]:
        out.append(f"elements {got['elements']}")
    if got["rank"] != want["rank"]:
        out.append(f"rank {got['rank']}, expected {want['rank']}")
    if got["basis"] != want["basis"]:
        out.append(f"basis {got['basis']}, expected {want['basis']}")
    if sorted(sorted(c) for c in got["circuits"]) != want["circuits"]:
        out.append("circuits differ")
    return out


class CliBatch(Workload):
    name = "cli-batch"

    def __init__(self, seed, scale):
        self.spec = inputs.cli_batch(seed, scale)

    def setup(self, mk, workdir):
        import importlib

        cli = importlib.import_module("matroid_kappa.cli")
        for fname, desc in self.spec["files"].items():
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(render(desc))
        return [
            (f"{i}:{cmd['verb']}", partial(_cli_op, cli, cli_argv(cmd, workdir)))
            for i, cmd in enumerate(self.spec["commands"])
        ]

    def check(self, answers, expected):
        files = self.spec["files"]
        problems = []
        for i, cmd in enumerate(self.spec["commands"]):
            key = f"{i}:{cmd['verb']}"
            if key not in expected:
                continue
            doc, want = answers[key], expected[key]
            verb = cmd["verb"]
            found = []
            if verb == "check-axioms":
                if doc["report"]["ok"] is not True:
                    found.append("axioms reported failing for a matroid")
            elif verb == "circuits":
                if sorted(sorted(c) for c in doc["circuits"]) != want:
                    found.append("circuits differ")
            elif verb in ("rank", "kappa", "kappa-between"):
                got = doc["rank" if verb == "rank" else "kappa"]
                if got != want:
                    found.append(f"got {got}, expected {want}")
            elif verb in ("dual", "minor", "sum"):
                found = summary_problems(doc[verb], want)
            elif verb == "components":
                if blocks(doc["components"]) != want:
                    found.append(f"blocks {doc['components']}, expected {want}")
            elif verb == "connected":
                if doc["blocks"] != want or doc["connected"] != (want == 1):
                    found.append(f"got {doc['blocks']} blocks, expected {want}")
            elif verb == "separation":
                found = self._separation_problems(doc["separation"], cmd, want)
            elif verb == "link":
                res = doc["result"]
                ref = RefMatroid(inputs.resolve(files, cmd["file"]))
                x, y = reference._flag(cmd["args"], "x"), reference._flag(cmd["args"], "y")
                found = partition_problems(
                    ref, x, y, res["spec"]["contract"], res["spec"]["delete"], want
                )
                if res["achieved"] != want or res["target"] != want:
                    found.append(f"achieved {res['achieved']}, expected {want}")
            elif cmd["operation"] == "window-info":
                found = summary_problems(doc["matroid"], want)
            elif cmd["operation"] == "kappa-between":
                rep = doc["report"]
                found = window_problems(rep["values"], rep["certified_value"], want)
            else:
                res = doc["result"]
                ans = {
                    "window": res["window"],
                    "contract": res["spec"]["contract"],
                    "delete": res["spec"]["delete"],
                    "achieved": res["achieved"],
                    "target": res["target"],
                    "values": res["report"]["values"],
                    "certified": res["report"]["certified_value"],
                }
                found = check_windowed_link(ans, cmd, want)
            problems += [f"{key}: {p}" for p in found]
        return problems

    def _separation_problems(self, sep, cmd, exists: bool) -> list[str]:
        if (sep is not None) != exists:
            return [f"separation {'found' if sep else 'missing'}, expected exists={exists}"]
        if sep is None:
            return []
        ref = RefMatroid(inputs.resolve(self.spec["files"], cmd["file"]))
        left, right = set(sep["left"]), set(sep["right"])
        out = []
        if left & right or left | right != set(ref.labels):
            out.append("sides do not split the ground set")
        if ref.kappa(left) != sep["kappa"] or sep["order"] != sep["kappa"] + 1:
            out.append(f"kappa {sep['kappa']} / order {sep['order']} wrong")
        k = int(reference._flag(cmd["args"], "k")[0])
        if sep["order"] > min(len(left), len(right), k):
            out.append(f"not a separation of order at most {k}")
        return out


WORKLOADS = {w.name: w for w in (FiniteQueries, Linking, CliBatch)}

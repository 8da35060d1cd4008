"""Seeded inputs of every workload, as plain data.

Matroids are described by dicts (``type`` plus its data, see
``oracles.labels_of``) so that the benchmark can build them with the
package and, independently, answer the same questions with the reference
oracles.  The same (workload, seed, scale) always gives the same inputs.

Random instances are drawn from fixed structural classes (sizes, ranks,
connectedness) so that the work per pass hardly depends on the seed: the
seed moves edges, matrix entries, labels orders and query sets, not the
amount of scanning.
"""

from __future__ import annotations

import random

from oracles import RefMatroid

def _rng(tag: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{tag}:{seed}")


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def random_graph(rng, vertices: int, edges: int, prefix: str = "e") -> dict:
    """A connected multigraph-free graph: spanning tree plus random chords."""
    pairs = []
    for v in range(1, vertices):
        pairs.append((rng.randrange(v), v))
    all_pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    spare = [p for p in all_pairs if p not in pairs]
    rng.shuffle(spare)
    pairs += spare[: edges - len(pairs)]
    rng.shuffle(pairs)
    return {
        "type": "graphic",
        "edges": [[f"{prefix}{i}", f"v{u}", f"v{v}"] for i, (u, v) in enumerate(pairs)],
    }


def grid_graph(rng, rows: int, cols: int) -> dict:
    pairs = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                pairs.append((f"p{i}_{j}", f"p{i}_{j + 1}"))
            if i + 1 < rows:
                pairs.append((f"p{i}_{j}", f"p{i + 1}_{j}"))
    rng.shuffle(pairs)
    return {
        "type": "graphic",
        "edges": [[f"g{i}", u, v] for i, (u, v) in enumerate(pairs)],
    }


def random_gf2(rng, rows: int, cols: int, prefix: str = "c") -> dict:
    return {
        "type": "gf2",
        "labels": [f"{prefix}{j}" for j in range(cols)],
        "rows": [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)],
    }


def uniform(k: int, n: int, prefix: str = "u") -> dict:
    return {"type": "uniform", "labels": [f"{prefix}{j}" for j in range(n)], "k": k}


def dual(desc: dict) -> dict:
    return {"type": "dual", "of": desc}


def minor(rng, desc: dict, n_contract: int, n_delete: int) -> dict:
    labels = list(RefMatroid(desc).labels)
    picked = rng.sample(labels, n_contract + n_delete)
    return {
        "type": "minor",
        "of": desc,
        "contract": picked[:n_contract],
        "delete": picked[n_contract:],
    }


def connected_instance(rng, make, rank: int | None = None) -> dict:
    """Draw from ``make`` until the matroid is connected (and of full ``rank``).

    Connectedness pins the cost of the exhaustive scans: no scan can stop
    early at a zero-connectivity split.
    """
    for _ in range(500):
        desc = make(rng)
        ref = RefMatroid(desc)
        if rank is not None and ref.full_rank != rank:
            continue
        if len(ref.components()) == 1:
            return desc
    raise RuntimeError("no connected instance drawn; the class is too sparse")


def pick_disjoint(rng, labels, *sizes) -> list[list[str]]:
    """Disjoint random subsets of the given sizes, each in canonical order."""
    order = list(labels)
    chosen = rng.sample(order, sum(sizes))
    out, at = [], 0
    for size in sizes:
        part = set(chosen[at : at + size])
        out.append([lab for lab in order if lab in part])
        at += size
    return out


# ---------------------------------------------------------------------------
# finite-queries
# ---------------------------------------------------------------------------

FINITE_CLASSES = (
    ("graph", lambda r: connected_instance(r, lambda q: random_graph(q, 7, 13))),
    ("grid", lambda r: grid_graph(r, 3, 3)),
    ("gf2", lambda r: connected_instance(r, lambda q: random_gf2(q, 5, 13), rank=5)),
    (
        "gf2_dual",
        lambda r: dual(connected_instance(r, lambda q: random_gf2(q, 4, 12), rank=4)),
    ),
    (
        "gf2_minor",
        lambda r: connected_instance(
            r, lambda q: minor(q, random_gf2(q, 6, 16), 1, 2), rank=5
        ),
    ),
    (
        "dual_of_dual",
        lambda r: dual(dual(connected_instance(r, lambda q: random_graph(q, 7, 12)))),
    ),
    (
        "graph_minor",
        lambda r: connected_instance(r, lambda q: minor(q, random_graph(q, 8, 16), 1, 2)),
    ),
    ("uniform", lambda r: uniform(4, 13)),
)


def finite_queries(seed: int, scale: str) -> list[dict]:
    """Instances with their query lists; every query shares the instance memo.

    Query order matters: the cold kappa(X, Y) scans run before the
    k-connectivity scan, which would otherwise leave them all memo hits.
    """
    rng = _rng("finite-queries", seed)
    copies = 2 if scale == "full" else 1
    out = []
    for copy in range(copies):
        for name, make in FINITE_CLASSES:
            desc = make(rng)
            labels = RefMatroid(desc).labels
            n = len(labels)
            queries = []
            # kappa queries are over half of the operations, so the median
            # falls inside them and not on the edge of a costlier group
            for _ in range(6):
                (x,) = pick_disjoint(rng, labels, rng.randint(3, n - 3))
                queries.append({"op": "kappa", "x": x})
            x1, y1 = pick_disjoint(rng, labels, 2, 2)
            x2, y2 = pick_disjoint(rng, labels, 2, 2)
            queries.append({"op": "kappa_between", "x": x1, "y": y1})
            queries.append({"op": "kappa_between", "x": x2, "y": y2})
            queries.append({"op": "kappa_between_warm", "x": x1, "y": y1})
            queries.append({"op": "is_k_connected", "k": 2})
            queries.append({"op": "components"})
            out.append({"name": f"{name}.{copy}", "matroid": desc, "queries": queries})
    return out


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------

LINKING_FINITE = (
    ("graph9", lambda r: random_graph(r, 5, 9)),
    ("graph10", lambda r: random_graph(r, 6, 10)),
    ("gf2_10", lambda r: random_gf2(r, 4, 10)),
    ("gf2_dual_9", lambda r: dual(random_gf2(r, 4, 9))),
    ("uniform", lambda r: uniform(3, 10)),
)


def _ladder_rungs_query(flip: bool, distance: int):
    # the ladder is symmetric under column i -> 1 - i, so both placements
    # of the pair need the same windows
    a = -(distance // 2)
    x, y = a, a + distance
    if flip:
        x, y = 1 - x, 1 - y
    return {
        "family": "double-ladder",
        "x": [f"rung[{x}]"],
        "y": [f"rung[{y}]"],
        "certificate": f"rung:{x}",
    }


def _interleaved_query(a: int):
    x = [f"railT[{a}]", f"railB[{a + 1}]"]
    y = [f"railT[{a + 1}]", f"railB[{a}]"]
    return {
        "family": "double-ladder",
        "x": x,
        "y": y,
        "certificate": f"set:{x[0]}+{x[1]}",
    }


def _rungless_query(b: int):
    a = 0
    return {
        "family": "double-ladder-rungless",
        "x": [f"railT[{a}]"],
        "y": [f"railB[{b}]"],
        "certificate": "rails-split",
    }


def _uniform_query(rng, k: int):
    m = k
    x = [f"a{i}" for i in range(1, m + 1)]
    y = [f"a{i}" for i in rng.sample(range(m + 1, 2 * k + 3), m)]
    return {
        "family": f"infinite-uniform({k})",
        "x": x,
        "y": sorted(y, key=lambda lab: int(lab[1:])),
        "certificate": f"prefix:{m}",
    }


def family_radius(family: str, labels) -> int:
    """The first window holding all labels with final verdicts (FAMILIES.md)."""
    if family.startswith("infinite-uniform("):
        k = int(family[len("infinite-uniform(") : -1])
        return max(max(int(lab[1:]) for lab in labels), 2 * k)
    need = 0
    for lab in labels:
        kind, pos = lab[:-1].split("[")
        pos = int(pos)
        need = max(need, pos - 1, -pos) if kind == "rung" else max(need, pos, -pos)
    return need


def linking(seed: int, scale: str) -> dict:
    rng = _rng("linking", seed)
    # four copies make a pass of 100 operations, enough for a 90th percentile
    copies = 4 if scale == "full" else 1
    finite = []
    windowed = []
    for copy in range(copies):
        for name, make in LINKING_FINITE:
            desc = make(rng)
            labels = RefMatroid(desc).labels
            # finite calls outnumber windowed ones, so they set the median
            for j, solver in enumerate(("linking_partition",) * 2 + ("constructive_linking",)):
                x, y = pick_disjoint(rng, labels, 2, 2)
                finite.append(
                    {
                        "name": f"{name}.{copy}.{j}.{solver}",
                        "matroid": desc,
                        "op": solver,
                        "x": x,
                        "y": y,
                    }
                )
        # the ladder queries are the same for every seed: their cost
        # depends on where they sit, and they take most of a pass
        queries = [
            _ladder_rungs_query(copy % 2 == 1, 2),
            _ladder_rungs_query(copy % 2 == 0, 3),
            _interleaved_query(-(copy % 2)),
            _rungless_query(1 if copy % 2 else -1),
            _uniform_query(rng, 2 + copy % 2),
        ]
        for i, q in enumerate(queries):
            start = family_radius(q["family"], q["x"] + q["y"])
            q["max_window"] = start + 3
            for op in ("stabilized_kappa_between", "windowed_linking"):
                windowed.append(dict(q, name=f"{q['family']}.{copy}.{i}.{op}", op=op))
    return {"finite": finite, "windowed": windowed}


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def _explicit_from(desc: dict, labels) -> dict:
    ref = RefMatroid(desc)
    family = []
    for mask in range(1 << len(labels)):
        s = [lab for i, lab in enumerate(labels) if mask >> i & 1]
        if ref.independent(s):
            family.append(s)
    return {"type": "explicit", "labels": list(labels), "independent": family}


def _connected_minor(rng, base: dict) -> dict:
    """Contract one element and delete another, keeping the minor connected."""
    return connected_instance(rng, lambda q: minor(q, base, 1, 1))


def _cli_files(rng, tag: str) -> dict:
    """One set of description files of all five types, names ending in ``tag``."""

    def name(stem):
        return f"{stem}{tag}.matroid"

    gf2 = connected_instance(rng, lambda q: random_gf2(q, 4, 8), rank=4)
    minor_desc = _connected_minor(rng, gf2)
    return {
        name("graph"): connected_instance(rng, lambda q: random_graph(q, 5, 8)),
        name("gf2"): gf2,
        name("uniform"): uniform(3, 6),
        name("explicit"): _explicit_from(
            connected_instance(rng, lambda q: random_gf2(q, 3, 5, prefix="x"), rank=3),
            [f"x{j}" for j in range(5)],
        ),
        name("graph_dual"): {"type": "dual", "of": name("graph")},
        name("gf2_minor"): dict(minor_desc, of=name("gf2")),
        name("minor_dual"): {"type": "dual", "of": name("gf2_minor")},
        name("sum"): {"type": "sum", "parts": [name("uniform"), name("explicit")]},
    }


def cli_batch(seed: int, scale: str) -> dict:
    """Description files (by name) and the command lines run over them.

    Derived files name their bases by file name, so the files form dual,
    minor and sum chains exactly as a user would write them.
    """
    rng = _rng("cli-batch", seed)
    files = {}
    for copy in range(2 if scale == "full" else 1):
        files.update(_cli_files(rng, f".{copy}"))
    if scale == "short":
        keep = ("graph.0", "explicit.0", "gf2.0", "gf2_minor.0")
        files = {k: files[k] for k in files if k[: -len(".matroid")] in keep}

    commands = []
    for fname in files:
        labels = RefMatroid(resolve(files, fname)).labels
        a, b = pick_disjoint(rng, labels, 2, 2)
        s = pick_disjoint(rng, labels, rng.randint(2, len(labels) - 2))[0]
        c, d = pick_disjoint(rng, labels, 1, 1)
        lx, ly = pick_disjoint(rng, labels, 1, 1)
        cx, cy = pick_disjoint(rng, labels, 1, 2)
        if len(labels) <= 8:
            # the exhaustive axiom check grows too fast beyond 8 elements
            commands.append({"verb": "check-axioms", "file": fname, "args": []})
        commands += [
            {"verb": "circuits", "file": fname, "args": []},
            {"verb": "rank", "file": fname, "args": []},
            {"verb": "rank", "file": fname, "args": ["--set=" + ",".join(s)]},
            {"verb": "dual", "file": fname, "args": []},
            {
                "verb": "minor",
                "file": fname,
                "args": ["--contract=" + ",".join(c), "--delete=" + ",".join(d)],
            },
            {"verb": "components", "file": fname, "args": []},
            {"verb": "connected", "file": fname, "args": []},
            {"verb": "kappa", "file": fname, "args": ["--set=" + ",".join(s)]},
            {
                "verb": "kappa-between",
                "file": fname,
                "args": ["--x=" + ",".join(a), "--y=" + ",".join(b)],
            },
            {"verb": "separation", "file": fname, "args": ["--k=1"]},
            {
                "verb": "link",
                "file": fname,
                "args": ["--x=" + ",".join(lx), "--y=" + ",".join(ly)],
            },
            {
                "verb": "link",
                "file": fname,
                "args": ["--constructive", "--x=" + ",".join(cx), "--y=" + ",".join(cy)],
            },
        ]
    sum_files = ["graph.0.matroid", "explicit.0.matroid"]
    commands.append({"verb": "sum", "files": sum_files, "args": []})
    ladder = _ladder_rungs_query(False, 2)
    uni = _uniform_query(rng, 2)
    rungless = _rungless_query(1)
    for q in (ladder, uni, rungless):
        start = family_radius(q["family"], q["x"] + q["y"])
        op = "link" if q is uni else "kappa-between"
        commands.append(
            {
                "verb": "family",
                "operation": op,
                "family": q["family"],
                "x": q["x"],
                "y": q["y"],
                "args": [
                    f"--id={q['family']}",
                    f"--window={start + 2}",
                    f"--certificate={q['certificate']}",
                    op,
                    "--x=" + ",".join(q["x"]),
                    "--y=" + ",".join(q["y"]),
                ],
            }
        )
    commands.append(
        {
            "verb": "family",
            "operation": "window-info",
            "family": "double-ladder",
            "window": 1,
            "args": ["--id=double-ladder", "--window=1", "window-info"],
        }
    )
    return {"files": files, "commands": commands}


def resolve(files: dict, name: str) -> dict:
    """The self-contained description of a file, bases substituted in."""
    desc = files[name]
    kind = desc["type"]
    if kind == "dual":
        return {"type": "dual", "of": resolve(files, desc["of"])}
    if kind == "minor":
        return dict(desc, of=resolve(files, desc["of"]))
    if kind == "sum":
        return {"type": "sum", "parts": [resolve(files, p) for p in desc["parts"]]}
    return desc


# ---------------------------------------------------------------------------
# layer probes of the traced run
# ---------------------------------------------------------------------------

INDEP_REPS = ("graphic", "gf2", "gf2_contract", "gf2_dual", "dual_of_dual")


def probes(seed: int, scale: str) -> dict:
    """Inputs of the per-layer probes; the same for every workload."""
    rng = _rng("probes", seed)
    count = 6 if scale == "full" else 2
    indep = []
    for rep in INDEP_REPS:
        for _ in range(count):
            if rep == "graphic":
                desc = random_graph(rng, 9, 16)
            elif rep == "gf2":
                desc = random_gf2(rng, 6, 16)
            elif rep == "gf2_contract":
                src = random_gf2(rng, 8, 18)
                picked = rng.sample(src["labels"], 2)
                desc = {"type": "minor", "of": src, "contract": picked, "delete": []}
            elif rep == "gf2_dual":
                desc = dual(random_gf2(rng, 6, 16))
            else:
                desc = dual(dual(random_gf2(rng, 6, 16)))
            labels = RefMatroid(desc).labels
            masks = rng.sample(range(1, 1 << len(labels)), 128)
            sets = [[lab for i, lab in enumerate(labels) if m >> i & 1] for m in masks]
            # half of the sets are cut down near the rank, where both
            # verdicts occur, and the rest are arbitrary
            sets = [s[: rng.randint(3, 8)] if i % 2 else s for i, s in enumerate(sets)]
            indep.append({"rep": rep, "matroid": desc, "sets": sets})
    small = []
    for i in range(count):
        small.append(connected_instance(rng, lambda q: random_graph(q, 6, 11)))
        small.append(connected_instance(rng, lambda q: random_gf2(q, 4, 11), rank=4))
    between = []
    for desc in small:
        labels = RefMatroid(desc).labels
        x, y = pick_disjoint(rng, labels, 2, 2)
        kx = pick_disjoint(rng, labels, len(labels) // 2)[0]
        c, d = pick_disjoint(rng, labels, 2, 2)
        between.append({"matroid": desc, "x": x, "y": y, "kx": kx, "contract": c, "delete": d})
    link = []
    for i in range(count):
        desc = random_graph(rng, 5, 9) if i % 2 else random_gf2(rng, 4, 9)
        x, y = pick_disjoint(rng, RefMatroid(desc).labels, 2, 2)
        link.append({"matroid": desc, "x": x, "y": y})
    windows = [_ladder_rungs_query(False, 3), _interleaved_query(0), _uniform_query(rng, 3)]
    for q in windows:
        q["max_window"] = family_radius(q["family"], q["x"] + q["y"]) + 3
    # a query whose zone cap is reached, so capped windows are exercised
    capped = _interleaved_query(0)
    capped["max_window"] = family_radius(capped["family"], capped["x"] + capped["y"]) + 1
    capped["zone_extra"] = 2
    capped["certificate"] = None
    windows.append(capped)
    texts = [random_graph(rng, 5, 8), random_gf2(rng, 4, 8), uniform(3, 8)]
    explicit = [
        _explicit_from(random_gf2(rng, 3, 6, prefix="x"), [f"x{j}" for j in range(6)])
        for _ in range(count)
    ]
    return {
        "indep": indep,
        "between": between,
        "link": link,
        "windows": windows,
        "texts": texts,
        "explicit": explicit,
    }

"""Expected answers of every workload, computed apart from the package.

Expected values come from the reference oracles in ``oracles.py`` applied
to the seeded inputs of ``inputs.py``; nothing here imports
``matroid_kappa`` or reads its output.  Answers that are not unique (a
linking partition, a separation) are checked by the property the theory
requires instead of by value.

The expected values of the documented seeds are stored in ``refs/``;
other seeds are computed on the fly.  Regenerate or verify the stored
files from the seeds alone with::

    python3 perfbench/reference.py --regenerate
    python3 perfbench/reference.py --check
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import inputs
from oracles import RefMatroid, blocks, uniform_window_kappa

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")
STORED = [("short", 0)] + [("full", s) for s in range(1, 11)]


def _circuits(ref: RefMatroid) -> list[list[str]]:
    return sorted(sorted(c) for c in ref.circuits())


# ---------------------------------------------------------------------------
# windowed families
# ---------------------------------------------------------------------------


def ladder_window(n: int, rungs: bool = True) -> dict:
    """Window n of the double ladder, as FAMILIES.md defines it."""
    edges = []
    for i in range(-n, n + 2):
        if rungs:
            edges.append([f"rung[{i}]", f"t{i}", f"b{i}"])
        if i <= n:
            edges.append([f"railT[{i}]", f"t{i}", f"t{i + 1}"])
            edges.append([f"railB[{i}]", f"b{i}", f"b{i + 1}"])
    return {"type": "graphic", "edges": edges}


def family_window(family: str, n: int) -> dict:
    if family == "double-ladder":
        return ladder_window(n)
    if family == "double-ladder-rungless":
        return ladder_window(n, rungs=False)
    k = int(family[len("infinite-uniform(") : -1])
    return {"type": "uniform", "labels": [f"a{i}" for i in range(1, n + 1)], "k": k}


def certificate_bound(q: dict) -> int:
    cert = q["certificate"]
    if cert.startswith("rung:"):
        return 1
    if cert.startswith("set:"):
        return len(cert[4:].split("+"))
    if cert.startswith("prefix:"):
        k = int(q["family"][len("infinite-uniform(") : -1])
        return min(int(cert[7:]), k)
    if cert == "rails-split":
        return 0
    raise ValueError(cert)


def window_values(q: dict) -> list[list[int]]:
    """Exact kappa(X, Y) of every window the query visits.

    Uniform windows use the closed form; two singletons have kappa 1 iff
    they share a component; otherwise windows small enough are scanned
    and larger ones follow from monotonicity (each window is a deletion
    of the next) once a smaller window reaches a certified upper bound.
    """
    family, x, y = q["family"], q["x"], q["y"]
    start = inputs.family_radius(family, x + y)
    out = []
    reached = None
    for n in range(start, q["max_window"] + 1):
        if family.startswith("infinite-uniform("):
            k = int(family[len("infinite-uniform(") : -1])
            value = uniform_window_kappa(k, n, len(x), len(y))
        else:
            ref = RefMatroid(family_window(family, n))
            if len(x) == 1 and len(y) == 1:
                value = int(any(x[0] in b and y[0] in b for b in ref.components()))
            elif len(ref.labels) - len(x) - len(y) <= 12:
                value = ref.kappa_between(x, y)
            elif reached is not None:
                value = reached
            else:
                raise RuntimeError(f"no reference for window {n} of {q}")
            if q.get("certificate"):
                bound = certificate_bound(q)
                side = [lab for lab in ref.labels if _in_certificate(q, lab)]
                if ref.kappa(side) > bound:
                    raise RuntimeError(f"certificate bound fails on window {n}")
                if value == bound:
                    reached = bound
        out.append([n, value])
    return out


def _in_certificate(q: dict, lab: str) -> bool:
    cert = q["certificate"]
    if cert.startswith("rung:"):
        return lab == f"rung[{cert[5:]}]"
    if cert.startswith("set:"):
        return lab in cert[4:].split("+")
    if cert == "rails-split":
        return lab.startswith("railT[")
    raise ValueError(cert)


# ---------------------------------------------------------------------------
# expected answers per workload
# ---------------------------------------------------------------------------


def expected_finite(seed: int, scale: str) -> dict:
    out = {}
    for inst in inputs.finite_queries(seed, scale):
        ref = RefMatroid(inst["matroid"])
        for i, q in enumerate(inst["queries"]):
            key = f"{inst['name']}/{i}"
            if q["op"] == "kappa":
                out[key] = ref.kappa(q["x"])
            elif q["op"].startswith("kappa_between"):
                out[key] = ref.kappa_between(q["x"], q["y"])
            elif q["op"] == "is_k_connected":
                # no 1-separation iff connected
                out[key] = len(ref.components()) == 1
            else:
                out[key] = blocks(ref.components())
    return out


def expected_linking(seed: int, scale: str) -> dict:
    spec = inputs.linking(seed, scale)
    out = {}
    for q in spec["finite"]:
        out[q["name"]] = RefMatroid(q["matroid"]).kappa_between(q["x"], q["y"])
    for q in spec["windowed"]:
        out[q["name"]] = window_values(q)
    return out


def summary(ref: RefMatroid) -> dict:
    return {
        "elements": sorted(ref.labels),
        "rank": ref.full_rank,
        "basis": ref.greedy_basis(),
        "circuits": _circuits(ref),
    }


def minor_of(desc: dict, contract, delete) -> dict:
    return {"type": "minor", "of": desc, "contract": list(contract), "delete": list(delete)}


def _flag(args, name):
    for a in args:
        if a.startswith(f"--{name}="):
            value = a.split("=", 1)[1]
            return [s for s in value.split(",") if s]
    return None


def has_separation(ref: RefMatroid, k: int) -> bool:
    """Some split (X, E-X) has kappa(X) + 1 <= min(|X|, |E-X|, k)."""
    n = len(ref.labels)
    for size in range(1, n):
        for x in itertools.combinations(ref.labels, size):
            if ref.kappa(x) + 1 <= min(size, n - size, k):
                return True
    return False


def expected_cli(seed: int, scale: str) -> dict:
    spec = inputs.cli_batch(seed, scale)
    files = spec["files"]
    out = {}
    for i, cmd in enumerate(spec["commands"]):
        key = f"{i}:{cmd['verb']}"
        verb, args = cmd["verb"], cmd["args"]
        if verb == "sum":
            desc = {"type": "sum", "parts": [inputs.resolve(files, f) for f in cmd["files"]]}
            out[key] = summary(RefMatroid(desc))
            continue
        if verb == "family":
            if cmd["operation"] == "window-info":
                out[key] = summary(RefMatroid(family_window(cmd["family"], cmd["window"])))
            else:
                q = {
                    "family": cmd["family"],
                    "x": cmd["x"],
                    "y": cmd["y"],
                    "certificate": _flag(args, "certificate")[0],
                    "max_window": int(_flag(args, "window")[0]),
                }
                out[key] = window_values(q)
            continue
        desc = inputs.resolve(files, cmd["file"])
        ref = RefMatroid(desc)
        if verb == "check-axioms":
            out[key] = True
        elif verb == "circuits":
            out[key] = _circuits(ref)
        elif verb == "rank":
            s = _flag(args, "set")
            out[key] = ref.full_rank if s is None else ref.rank(s)
        elif verb == "dual":
            out[key] = summary(RefMatroid({"type": "dual", "of": desc}))
        elif verb == "minor":
            c, d = _flag(args, "contract"), _flag(args, "delete")
            out[key] = summary(RefMatroid(minor_of(desc, c, d)))
        elif verb == "components":
            out[key] = blocks(ref.components())
        elif verb == "connected":
            out[key] = len(ref.components())
        elif verb == "kappa":
            out[key] = ref.kappa(_flag(args, "set"))
        elif verb == "kappa-between":
            out[key] = ref.kappa_between(_flag(args, "x"), _flag(args, "y"))
        elif verb == "separation":
            out[key] = has_separation(ref, int(_flag(args, "k")[0]))
        elif verb == "link":
            out[key] = ref.kappa_between(_flag(args, "x"), _flag(args, "y"))
        else:
            raise ValueError(verb)
    return out


def expected_probes(seed: int, scale: str) -> dict:
    spec = inputs.probes(seed, scale)
    out = {"indep": [], "between": [], "link": [], "windows": [], "texts": [], "explicit": []}
    for p in spec["indep"]:
        ref = RefMatroid(p["matroid"])
        out["indep"].append([ref.independent(s) for s in p["sets"]])
    for p in spec["between"]:
        ref = RefMatroid(p["matroid"])
        out["between"].append(
            {
                "kappa": ref.kappa(p["kx"]),
                "kappa_between": ref.kappa_between(p["x"], p["y"]),
                "rank": ref.rank(p["kx"]),
                "circuits": _circuits(ref),
                "components": blocks(ref.components()),
                "connected": len(ref.components()) == 1,
                "minor_rank": RefMatroid(
                    minor_of(p["matroid"], p["contract"], p["delete"])
                ).full_rank,
                "dual_rank": len(ref.labels) - ref.full_rank,
            }
        )
    for p in spec["link"]:
        out["link"].append(RefMatroid(p["matroid"]).kappa_between(p["x"], p["y"]))
    for q in spec["windows"]:
        out["windows"].append(window_values(q))
    for desc in spec["texts"]:
        out["texts"].append(summary(RefMatroid(desc)))
    for desc in spec["explicit"]:
        out["explicit"].append(RefMatroid(desc).full_rank)
    return out


EXPECTED = {
    "finite-queries": expected_finite,
    "linking": expected_linking,
    "cli-batch": expected_cli,
    "probes": expected_probes,
}


def _ref_path(name: str) -> str:
    return os.path.join(REFS_DIR, f"{name}.json")


def compute_all(name: str) -> dict:
    return {f"{scale}:{seed}": EXPECTED[name](seed, scale) for scale, seed in STORED}


def expected(name: str, seed: int, scale: str) -> dict:
    """Stored expected values of a documented seed, else computed now."""
    path = _ref_path(name)
    key = f"{scale}:{seed}"
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        if key in stored:
            return stored[key]
    # round-trip through JSON so computed and stored values compare alike
    return json.loads(json.dumps(EXPECTED[name](seed, scale)))


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--regenerate", action="store_true", help="rewrite refs/*.json")
    mode.add_argument("--check", action="store_true", help="recompute and compare")
    args = ap.parse_args(argv)
    status = 0
    os.makedirs(REFS_DIR, exist_ok=True)
    for name in EXPECTED:
        text = _dump(compute_all(name))
        path = _ref_path(name)
        if args.regenerate:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {os.path.relpath(path)}")
        else:
            with open(path, encoding="utf-8") as fh:
                same = fh.read() == text
            print(f"{os.path.relpath(path)}: {'ok' if same else 'DIFFERS'}")
            status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())

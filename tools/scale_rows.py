"""Time the scale rows of the ROADMAP table, one JSON line per row.

    python3 tools/scale_rows.py
    python3 tools/scale_rows.py --root ../other-checkout

Each row builds its input afresh (grids from ``tests/helpers.py``, random
binary matrices from a fixed seed) and runs its query under the default
budgets, so no memo carries over from one run to the next; the build is
part of the time.  A row runs three times and reports the best, except
that a row of about 5 s or more runs once.  The count is written in the
table, not read off a first run, so two checkouts measure every row
alike.  Counting wrappers on ``connectivity._largest_common_independent``,
``linking._breaking_core`` and ``windows.InfiniteFamily.window`` give the
intersections, the breaking steps and the window builds (a window that its
family has not built before, the certificate's own window included) of
one run.  ``answer`` is the query's result, with a linking partition
given as a digest of its contract and delete sets, so the lines of two
checkouts compare directly.  The package and the helpers are imported
from the checkout named by ``--root`` (by default the one holding this
file).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import sys
import time
from collections.abc import Callable

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3
ONCE = 1  # the runs of a row that takes about 5 s or more


def _corners(m, count: int = 3):
    labels = m.ground.labels
    return m.ground.set_of(labels[:count]), m.ground.set_of(labels[-count:])


def _digest(result) -> str:
    spec = json.dumps(result.spec.to_jsonable(), sort_keys=True).encode()
    return f"achieved {result.achieved}, spec {hashlib.sha256(spec).hexdigest()[:16]}"


def _wheel(mk, rim: int):
    edges = []
    for i in range(rim):
        edges.append((f"s{i}", "hub", str(i)))
        edges.append((f"r{i}", str(i), str((i + 1) % rim)))
    return mk.graphic_matroid(edges)


def _random_gf2(mk, height: int, width: int):
    """A seeded random binary matroid of ``width`` columns with ``height`` rows."""
    core = mk.core
    rng = random.Random(0)
    ground = core.GroundSet(f"c{j}" for j in range(width))
    return core.BinaryMatroid(ground, tuple(rng.getrandbits(height) for _ in range(width)))


def rows(mk, helpers) -> list[tuple[str, int, Callable[[], object]]]:
    """(name, runs, query) for every row; each query builds its own input."""
    grid = helpers.grid_graph

    def kappa_between_grid(size, count=3, dual=False):
        m = grid(size, size)
        if dual:
            m = mk.dual(m)
        return mk.kappa_between(m, *_corners(m, count))

    def constructive_corners():
        m = grid(30, 30)
        return _digest(mk.constructive_linking(m, *_corners(m)))

    def constructive_pairs():
        rng = random.Random(0)
        answers = []
        for _ in range(5):
            m = grid(20, 20)
            picked = rng.sample(m.ground.labels, 8)
            x, y = m.ground.set_of(picked[:4]), m.ground.set_of(picked[4:])
            answers.append(_digest(mk.constructive_linking(m, x, y)))
        return answers

    def grid_sum():
        part = grid(16, 16, "a")
        m = mk.direct_sum([part, grid(16, 16, "b")])
        x, y = _corners(part)
        return m, m.ground.set_of(x), m.ground.set_of(y)

    def blocks(m):
        return [len(block) for block in mk.components(m).blocks]

    def rung_link(far, max_window):
        fam = mk.double_ladder()
        certs = [mk.certified_separation(fam, "rung:0")]
        policy = mk.StabilizationPolicy(max_window=max_window)
        return _digest(mk.windowed_linking(fam, ["rung[0]"], [far], policy, certs))

    def default_range():
        # no max_window: the range ends at the last window within the budget
        rep = mk.stabilized_kappa_between(mk.double_ladder(), ["rung[0]"], ["rung[3]"])
        return {"values": [list(v) for v in rep.values], "stable_at": rep.stable_at}

    def sum_kappa_between():
        m, x, y = grid_sum()
        return mk.kappa_between(m, x, y)

    def kappa_between_gf2():
        m = _random_gf2(mk, 400, 1200)
        return mk.kappa_between(m, *_corners(m, 100))

    table = [
        ("kappa_between, 20x20 grid, 3 + 3 corner sides", RUNS, lambda: kappa_between_grid(20)),
        ("kappa_between, 30x30 grid, 3 + 3 corner sides", RUNS, lambda: kappa_between_grid(30)),
        ("kappa_between, 60x60 grid, 3 + 3 corner sides", RUNS, lambda: kappa_between_grid(60)),
        ("kappa_between, 60x60 grid, first 30 / last 30 edges", ONCE,
         lambda: kappa_between_grid(60, count=30)),
        ("kappa_between, dual of the 45x45 grid, 3 + 3 corner sides", RUNS,
         lambda: kappa_between_grid(45, dual=True)),
        ("kappa_between, random gf2 400x1200, first 100 / last 100 columns", RUNS,
         kappa_between_gf2),
        ("constructive_linking, 30x30 grid, 3 + 3 corner sides", RUNS, constructive_corners),
        ("constructive_linking, 20x20 grid, five 4 + 4 pairs", RUNS, constructive_pairs),
        ("kappa_between, two 16x16 grids, 3 + 3 sides in one part", ONCE, sum_kappa_between),
        ("components, two 16x16 grids", RUNS, lambda: blocks(grid_sum()[0])),
        ("components, 100x100 grid", RUNS, lambda: blocks(grid(100, 100))),
        ("components, dual of the 45x45 grid", RUNS, lambda: blocks(mk.dual(grid(45, 45)))),
        ("components, random gf2 400x1200", RUNS, lambda: blocks(_random_gf2(mk, 400, 1200))),
        ("windowed_linking, double-ladder windows 37-41, rung[0] to rung[38]", RUNS,
         lambda: rung_link("rung[38]", 41)),
        ("windowed_linking, double-ladder windows 1-42, rung[0] to rung[2]", RUNS,
         lambda: rung_link("rung[2]", 42)),
        ("stabilized_kappa_between, double-ladder default range, rung[0] to rung[3]", RUNS,
         default_range),
    ]
    for rim in (6, 7, 8):
        table.append(
            (f"is_k_connected(W_{rim}, 3)", RUNS,
             lambda rim=rim: mk.is_k_connected(_wheel(mk, rim), 3))
        )
    return table


def measure(root: str) -> None:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    mk = importlib.import_module("matroid_kappa")
    connectivity = importlib.import_module("matroid_kappa.connectivity")
    linking = importlib.import_module("matroid_kappa.linking")
    windows = importlib.import_module("matroid_kappa.windows")
    helpers = importlib.import_module("helpers")

    counts = {"intersections": 0, "breaking_steps": 0, "window_builds": 0}

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)

        setattr(module, name, wrapper)

    counted(connectivity, "_largest_common_independent", "intersections")
    counted(linking, "_breaking_core", "breaking_steps")
    real_window = windows.InfiniteFamily.window

    def window(family, n):
        fresh = n not in family._windows
        built = real_window(family, n)
        counts["window_builds"] += fresh
        return built

    windows.InfiniteFamily.window = window

    for name, repeat, query in rows(mk, helpers):
        runs = []
        for _ in range(repeat):
            before = dict(counts)
            start = time.perf_counter()
            answer = query()
            runs.append(round(time.perf_counter() - start, 4))
        spent = {key: counts[key] - before[key] for key in counts}
        line = {"row": name, "seconds": min(runs), "runs": runs, **spent, "answer": answer}
        print(json.dumps(line), flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=DEFAULT_ROOT, help="checkout to run (default: this one)")
    args = ap.parse_args(argv)
    measure(os.path.abspath(args.root))
    return 0


if __name__ == "__main__":
    sys.exit(main())

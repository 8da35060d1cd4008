"""Connectivity-preserving minors: search, construction, and circuit chains.

For disjoint X and Y there is always a way to contract part of the other
elements and delete the rest without changing kappa(X, Y).  The direct
solver reads one off the matroid intersection behind kappa(X, Y): it
contracts the largest common independent set of M/X and M/Y found there
and deletes the rest; the constructive one grows a small restriction by breaking
low-order separations with circuit pairs until it carries the full
value, then solves inside it.  Each circuit it adds comes from one
matroid intersection, with no circuit enumeration, so it also answers on
a 60-edge grid.

Run:  python3 demos/04_linking_partitions.py
"""

import itertools
import json

from matroid_kappa import (
    breaking_circuits,
    constructive_linking,
    graphic_matroid,
    infinite_kappa_chain,
    kappa_between,
    linking_partition,
    uniform_matroid,
)

k4 = graphic_matroid(
    [(f"e{i}{j}", str(i), str(j)) for i, j in itertools.combinations(range(4), 2)]
)
x = k4.ground.set_of(["e01"])
y = k4.ground.set_of(["e23"])
print("== direct solver on K4 ==")
print(f"kappa(X, Y) = {kappa_between(k4, x, y)}")
res = linking_partition(k4, x, y)
print(f"contract {sorted(res.spec.contract)}, delete {sorted(res.spec.delete)}:",
      f"achieved {res.achieved}")

print()
print("== constructive route on U(2,4), with its trace ==")
u24 = uniform_matroid("abcd", 2)
built = constructive_linking(u24, u24.ground.set_of("ab"), u24.ground.set_of("cd"))
for entry in built.trace:
    print("  " + json.dumps(entry, sort_keys=True))
print(f"achieved {built.achieved}")

print()
print("== constructive route on the 6x6 grid (60 edges) ==")
grid_edges = []
for r, c in itertools.product(range(6), repeat=2):
    if c < 5:
        grid_edges.append((f"h{r}_{c}", f"{r}.{c}", f"{r}.{c + 1}"))
    if r < 5:
        grid_edges.append((f"v{r}_{c}", f"{r}.{c}", f"{r + 1}.{c}"))
grid = graphic_matroid(grid_edges)
gx = grid.ground.set_of(["h1_1", "v2_3", "h2_1"])
gy = grid.ground.set_of(["h4_2", "v3_4", "v4_1"])
built = constructive_linking(grid, gx, gy)
zone = [entry for entry in built.trace if entry["stage"] == "window"][-1]["zone"]
print(f"kappa(X, Y) = {kappa_between(grid, gx, gy)}; the last restriction holds",
      f"{len(zone)} of {len(grid.ground)} edges")
print(f"contract {len(built.spec.contract)}, delete {len(built.spec.delete)}:",
      f"achieved {built.achieved}")

print()
print("== the separation-breaking circuits themselves ==")
xs = u24.ground.set_of("a")
ys = u24.ground.set_of("b")
c1, c2 = breaking_circuits(u24, xs, ys, 1)
print(f"restricted to {{a,b}} the sides fall apart at order 1, but not in U(2,4);")
print(f"the circuits {c1} and {c2} pin them together.")

print()
print("== chains of disjoint circuits across high connectivity ==")
paths = 4
edges = []
for i in range(1, paths + 1):
    edges.append((f"in{i}", "u", f"m{i}"))
    edges.append((f"out{i}", f"m{i}", "v"))
theta = graphic_matroid(edges)
x = theta.ground.set_of([f"in{i}" for i in range(1, paths + 1)])
y = theta.ground.set_of([f"out{i}" for i in range(1, paths + 1)])
print(f"four parallel 2-paths: kappa(X, Y) = {kappa_between(theta, x, y)}")
chain = infinite_kappa_chain(theta, x, y, 3)
for i, c in enumerate(chain.circuits, 1):
    print(f"  circuit {i}: {sorted(c)}")
print(f"the chain's X side stays independent after contracting its middle:",
      chain.x_part_independent)

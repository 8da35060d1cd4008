"""The rank-free connectivity value: removal counts, splits, separations.

kappa(X) asks: take a basis of X and a basis of everything else; how many
elements must leave their union before it is independent again?  On a
finite matroid this equals r(X) + r(E-X) - r(E), but the removal-count
form never mentions ranks, which is what lets it scale to windowed
infinite families (demo 05).

Run:  python3 demos/03_connectivity_kappa.py
"""

from matroid_kappa import (
    constructive_linking,
    del_count,
    dual,
    find_separation,
    graphic_matroid,
    is_k_connected,
    kappa,
    kappa_between,
    kappa_rank_formula,
    uniform_matroid,
)
import itertools

u24 = uniform_matroid("abcd", 2)
g = u24.ground

print("== the removal count ==")
bx = u24.extend_to_basis(g.empty(), g.set_of("ab"))
by = u24.extend_to_basis(g.empty(), g.set_of("cd"))
print(f"bases {bx} and {by}; removals to reach independence: {del_count(u24, bx, by)}")
print(f"kappa(U(2,4), {{a,b}}) = {kappa(u24, g.set_of('ab'))}")
print(f"rank formula gives      {kappa_rank_formula(u24, g.set_of('ab'))}")

print()
print("== the value never depends on the split's bases, nor on duality ==")
print(f"kappa in the dual: {kappa(dual(u24), g.set_of('ab'))}")

print()
print("== submodularity, checked on the spot ==")
k4 = graphic_matroid(
    [(f"e{i}{j}", str(i), str(j)) for i, j in itertools.combinations(range(4), 2)]
)
violations = 0
full = k4.ground.full_mask
for xm in range(full + 1):
    for ym in range(full + 1):
        lhs = kappa(k4, k4.ground.from_mask(xm)) + kappa(k4, k4.ground.from_mask(ym))
        rhs = kappa(k4, k4.ground.from_mask(xm | ym)) + kappa(
            k4, k4.ground.from_mask(xm & ym)
        )
        violations += lhs < rhs
print(f"K4, all {(full + 1) ** 2} pairs: {violations} submodularity violations")

print()
print("== separations ==")
print(f"U(2,4) 3-connected? {is_k_connected(u24, 3)}")
print(f"K4 has an order-2 separation: {find_separation(k4, 2)}")

print()
print("== kappa between two sets, and the cores that witness it ==")
x = k4.ground.set_of(["e01"])
y = k4.ground.set_of(["e23"])
print(f"kappa(K4, e01 vs e23) = {kappa_between(k4, x, y)}")
star = k4.ground.set_of(["e01", "e02", "e03"])
triangle = k4.ground.set_of(["e12", "e13", "e23"])
cores = constructive_linking(k4, star, triangle).trace[0]
print(
    f"kappa(K4, star at 0 vs triangle 123) = {cores['kappa']}, "
    f"witnessed by the cores {cores['x_core']} and {cores['y_core']}"
)

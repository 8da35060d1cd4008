"""Duality, minors, direct sums, and how circuits define connected components.

Run:  python3 demos/02_duality_minors_components.py
"""

from matroid_kappa import (
    MinorSpec,
    components,
    contract,
    direct_sum,
    dual,
    graphic_matroid,
    lift_circuit,
    restrict,
    take_minor,
    uniform_matroid,
)

u24 = uniform_matroid("abcd", 2)
print("== duality ==")
print(f"U(2,4) self-dual (same circuits)? {dual(u24).circuits() == u24.circuits()}")

triangle = graphic_matroid([("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")])
bond = dual(triangle)
print(f"dual of the triangle: circuits {bond.circuits()}  (every pair of edges)")
print(f"double dual is the original? {dual(bond) is triangle}")

print()
print("== minors ==")
g = u24.ground
print(f"restrict U(2,4) to {{a,b}}: circuits {restrict(u24, g.set_of('ab')).circuits()}")
minor = take_minor(u24, MinorSpec(g.set_of("a"), g.set_of("b")))
print(f"contract a, delete b: ground {list(minor.ground)}, rank {minor.rank()}")

print()
print("== a circuit of a contraction lifts back ==")
away = triangle.ground.set_of(["e1"])
inner = contract(triangle, away)
small = inner.ground.set_of(["e2", "e3"])
print(f"{{e2,e3}} is a circuit after contracting e1: {inner.is_circuit(small)}")
print(f"lifted back into the triangle: {lift_circuit(triangle, away, small)}")

print()
print("== components ==")
t1 = graphic_matroid([("a1", "p", "q"), ("a2", "q", "r"), ("a3", "r", "p")])
t2 = graphic_matroid([("b1", "s", "t"), ("b2", "t", "u"), ("b3", "u", "s")])
pair = direct_sum([t1, t2])
parts = components(pair)
print(f"two disjoint triangles: blocks {[sorted(b) for b in parts.blocks]}")
print("two elements share a block exactly when one circuit holds both;")
print("rebuilding the matroid from its blocks gives back the original:")
rebuilt = direct_sum([restrict(pair, b) for b in parts.blocks])
agree = all(
    pair.is_independent(pair.ground.from_mask(mask))
    == rebuilt.is_independent(rebuilt.ground.set_of(pair.ground.from_mask(mask)))
    for mask in range(pair.ground.full_mask + 1)
)
print(f"oracle equality over all subsets: {agree}")

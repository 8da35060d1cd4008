"""Independent reference oracles and corpus builders for the test suite.

Everything here is deliberately naive and separate from the package's
bitmask machinery: label frozensets, itertools scans, and networkx for
graph-side questions.  Expected values in tests come from these oracles,
never from the code under test.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from functools import lru_cache

import networkx as nx
from hypothesis import strategies as st

from matroid_kappa import (
    ElementSet,
    Matroid,
    MinorSpec,
    Separation,
    direct_sum,
    dual,
    explicit_matroid,
    gf2_matroid,
    graphic_matroid,
    kappa,
    kappa_between,
    take_minor,
    uniform_matroid,
)
from matroid_kappa.core import iter_submasks_binary, iter_submasks_lex


def powerset(items):
    items = list(items)
    return itertools.chain.from_iterable(
        itertools.combinations(items, r) for r in range(len(items) + 1)
    )


def brute_rank(indep, subset) -> int:
    """Largest independent subset size, by full scan."""
    best = 0
    for cand in powerset(subset):
        if len(cand) > best and indep(frozenset(cand)):
            best = len(cand)
    return best


def brute_circuits(indep, labels) -> set[frozenset]:
    """Inclusion-minimal dependent sets, by full scan."""
    dependent = [
        frozenset(s) for s in powerset(labels) if not indep(frozenset(s))
    ]
    return {
        d for d in dependent if not any(o < d for o in dependent)
    }


def brute_kappa(indep, labels, x) -> int:
    x = frozenset(x)
    rest = frozenset(labels) - x
    return brute_rank(indep, x) + brute_rank(indep, rest) - brute_rank(indep, labels)


def brute_kappa_between(indep, labels, x, y) -> int:
    x, y = frozenset(x), frozenset(y)
    ground = frozenset(labels)
    full = brute_rank(indep, ground)  # brute_kappa's r(E), scanned once
    return min(
        brute_rank(indep, x | frozenset(s)) + brute_rank(indep, ground - x - frozenset(s)) - full
        for s in powerset(ground - x - y)
    )


def same_independence(m1: Matroid, m2: Matroid) -> bool:
    """Oracle equality over every subset; grounds must carry equal labels."""
    if m1.ground != m2.ground:
        return False
    return all(m1._indep(mask) == m2._indep(mask) for mask in range(m1.ground.full_mask + 1))


def brute_del(indep, left, right) -> int:
    union = frozenset(left) | frozenset(right)
    for size in range(len(union) + 1):
        for removal in itertools.combinations(union, size):
            if indep(union - frozenset(removal)):
                return size
    raise AssertionError("unreachable")


def generic(m: Matroid) -> Matroid:
    """Strip representation data so the generic oracle paths run."""
    return Matroid(m.ground, m._indep)


def oracle_of(m: Matroid):
    """Label-set independence predicate of a package matroid."""

    def indep(s: frozenset) -> bool:
        return m.is_independent(m.ground.set_of(s))

    return indep


def nx_forest_oracle(edges):
    """Graphic independence decided by networkx cycle search."""

    by_label = {lab: (u, v) for lab, u, v in edges}

    def indep(subset: frozenset) -> bool:
        g = nx.MultiGraph()
        for lab in subset:
            u, v = by_label[lab]
            g.add_edge(u, v, key=lab)
        try:
            nx.find_cycle(g)
            return False
        except nx.NetworkXNoCycle:
            return True

    return indep


def random_greedy_basis(m: Matroid, within, rng: random.Random):
    """A basis of the restriction to ``within`` grown in random order."""
    order = list(within)
    rng.shuffle(order)
    cur = m.ground.empty()
    for lab in order:
        grown = cur.with_element(lab)
        if m.is_independent(grown):
            cur = grown
    return cur


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------


@st.composite
def representations(draw, prefix: str = "x", max_n: int = 7, min_n: int = 0):
    """A uniform, graphic, binary or explicit matroid on ``prefix``-labels."""
    n = draw(st.integers(min_n, max_n))
    labels = [f"{prefix}{i}" for i in range(n)]
    kind = draw(st.sampled_from(["uniform", "graphic", "gf2", "explicit"]))
    if kind == "uniform":
        return uniform_matroid(labels, draw(st.integers(0, n + 2)))
    if kind == "graphic":
        # loops and parallel edges come up often on so few vertices
        vertex = st.integers(0, 3).map(str)
        return graphic_matroid((lab, draw(vertex), draw(vertex)) for lab in labels)
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    m = gf2_matroid(labels, rows)
    if kind == "gf2":
        return m
    masks = range(m.ground.full_mask + 1)
    family = [m.ground.from_mask(x) for x in masks if m._indep(x)]
    return explicit_matroid(labels, family, check=False)


@st.composite
def derived_matroids(draw):
    """A representation, or one of its duals, minors or direct sums."""
    m = draw(representations(max_n=6))
    kind = draw(st.sampled_from(["self", "dual", "minor", "dual-minor", "sum", "dual-sum"]))
    if kind.startswith("dual"):
        m = dual(m)
    if kind.endswith("minor"):
        away = draw(st.integers(0, m.ground.full_mask))
        drop = draw(st.integers(0, m.ground.full_mask)) & ~away
        m = take_minor(m, MinorSpec(m.ground.from_mask(away), m.ground.from_mask(drop)))
    if kind.endswith("sum"):
        m = direct_sum([m, draw(representations("s", max_n=4))])
    return m


def uniform_corpus(max_n: int = 8):
    out = []
    for n in range(1, max_n + 1):
        labels = [f"x{i}" for i in range(1, n + 1)]
        for k in range(0, n + 1):
            out.append((f"U({k},{n})", uniform_matroid(labels, k)))
    return out


def _edge_connected(edges) -> bool:
    parent = {}

    def find(a):
        while parent.get(a, a) != a:
            a = parent[a]
        return a

    touched = set()
    for u, v in edges:
        touched.add(u)
        touched.add(v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(v) for v in touched}
    return len(roots) == 1


def _first_use_canon(edges):
    ordered = sorted(tuple(sorted(e)) for e in edges)
    names = {}
    out = []
    for u, v in ordered:
        for w in (u, v):
            if w not in names:
                names[w] = len(names)
        out.append(tuple(sorted((names[u], names[v]))))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def connected_graph_classes(max_edges: int = 6):
    """All connected simple graphs with 1..max_edges edges, up to isomorphism."""
    reps: list[tuple[tuple, nx.Graph]] = []
    seen_strings = set()
    for m in range(1, max_edges + 1):
        verts = range(m + 1)
        pairs = list(itertools.combinations(verts, 2))
        for combo in itertools.combinations(pairs, m):
            if not _edge_connected(combo):
                continue
            canon = _first_use_canon(combo)
            if canon in seen_strings:
                continue
            seen_strings.add(canon)
            g = nx.Graph(canon)
            degs = tuple(sorted(d for _, d in g.degree()))
            tri = sum(nx.triangles(g).values())
            inv = (m, degs, tri)
            if any(
                inv == other_inv and nx.is_isomorphic(g, other)
                for other_inv, other in reps
            ):
                continue
            reps.append((inv, g))
    return tuple(g for _, g in reps)


def graph_corpus(max_edges: int = 6):
    """(name, edge triples, Matroid) for every connected graph class."""
    out = []
    for idx, g in enumerate(connected_graph_classes(max_edges)):
        edges = [
            (f"e{i}", str(u), str(v))
            for i, (u, v) in enumerate(sorted(tuple(sorted(e)) for e in g.edges()))
        ]
        out.append((f"G{idx}(m={len(edges)})", edges, graphic_matroid(edges)))
    return out


def gf2_corpus(count: int = 10, seed: int = 20240214):
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        cols = rng.randint(4, 8)
        rows = rng.randint(3, 5)
        matrix = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        labels = [f"c{i}" for i in range(cols)]
        out.append((f"B{idx}({rows}x{cols})", gf2_matroid(labels, matrix)))
    return out


def full_corpus():
    out = [(name, m) for name, m in uniform_corpus()]
    out += [(name, m) for name, _, m in graph_corpus()]
    out += gf2_corpus()
    return out


def k4_edges():
    return [
        ("e1", "1", "2"),
        ("e2", "1", "3"),
        ("e3", "1", "4"),
        ("e4", "2", "3"),
        ("e5", "2", "4"),
        ("e6", "3", "4"),
    ]


def triangle():
    return graphic_matroid(
        [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")]
    )


def two_triangles():
    t1 = graphic_matroid([("a1", "p", "q"), ("a2", "q", "r"), ("a3", "r", "p")])
    t2 = graphic_matroid([("b1", "s", "t"), ("b2", "t", "u"), ("b3", "u", "s")])
    return direct_sum([t1, t2])


def theta_graph(paths: int = 4):
    """Two hubs joined by ``paths`` internally disjoint length-2 paths."""
    edges = []
    for i in range(1, paths + 1):
        edges.append((f"in{i}", "u", f"m{i}"))
        edges.append((f"out{i}", f"m{i}", "v"))
    return graphic_matroid(edges)


def grid_graph(rows: int, cols: int, prefix: str = ""):
    """Graphic matroid of the rows x cols grid; edges row by row."""

    def vertex(r, c):
        return f"{prefix}{r},{c}"

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"{prefix}h{r}_{c}", vertex(r, c), vertex(r, c + 1)))
            if r + 1 < rows:
                edges.append((f"{prefix}v{r}_{c}", vertex(r, c), vertex(r + 1, c)))
    return graphic_matroid(edges)


def triangle_sum(count: int = 3):
    parts = [
        graphic_matroid(
            [
                (f"t{i}a", f"{i}u", f"{i}v"),
                (f"t{i}b", f"{i}v", f"{i}w"),
                (f"t{i}c", f"{i}w", f"{i}u"),
            ]
        )
        for i in range(count)
    ]
    return direct_sum(parts)


def brute_linking_partition(m: Matroid, x, y):
    """First (contract, delete) split of the free elements, in binary
    counting order, whose minor keeps kappa(X, Y): the exhaustive 2^n scan.

    Bit i of the counter contracts the i-th free element.  Minors and
    kappa come from the package, which the rest of the suite checks
    against the naive oracles above.
    """
    free = m.ground.full_mask & ~x.mask & ~y.mask
    target = kappa_between(m, x, y)
    for cmask in iter_submasks_binary(free):
        spec = MinorSpec(
            ElementSet(m.ground, cmask), ElementSet(m.ground, free & ~cmask)
        )
        minor = take_minor(m, spec)
        if kappa(minor, x.in_universe(minor.ground)) == target:
            return spec
    raise AssertionError("no partition preserves kappa(X, Y)")


def scan_common_independent(m: Matroid, free, base_x, base_y):
    """The reference for ``connectivity._largest_common_independent``: the
    same greedy pass and breadth-first rounds, with every arc found by a
    swap test on every inside b and outside e, r(n - r) tests a round.
    Returns the common set and the set the last round reaches from its
    sources.

    I - b + e is independent exactly when I + e is, or b lies on e's
    fundamental circuit; the spans' circuits, which the suite checks
    against the oracle, answer the test on every representation.
    """

    def swaps(span, b, e):
        found = span.circuit(e)
        return found == 0 or found >> b & 1 == 1

    def indices(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    span_x = m._span(base_x)
    span_y = m._span(base_y)
    common = 0
    for e in indices(free):
        if span_x.adds(e) and span_y.adds(e):
            # a forest span grows only in its fused greedy pass, so each
            # span is built afresh on the grown set
            common |= 1 << e
            span_x = m._span(base_x | common)
            span_y = m._span(base_y | common)
    while True:
        outside = indices(free & ~common)
        inside = indices(common)
        parent = {e: None for e in outside if span_x.adds(e)}
        queue = deque(parent)
        end = None
        while queue:
            at = queue.popleft()
            if common >> at & 1:
                for e in outside:
                    if e not in parent and swaps(span_x, at, e):
                        parent[e] = at
                        queue.append(e)
            elif span_y.adds(at):
                end = at
                break
            else:
                for b in inside:
                    if b not in parent and swaps(span_y, b, at):
                        parent[b] = at
                        queue.append(b)
        if end is None:
            reach = 0
            for e in parent:
                reach |= 1 << e
            return common, reach
        while end is not None:
            common ^= 1 << end
            end = parent[end]
        span_x = m._span(base_x | common)
        span_y = m._span(base_y | common)


def brute_extends_to_separation(m: Matroid, x, y, k: int):
    """First k-separation (U, E minus U) with X inside U and Y outside, in
    canonical subset order over the free elements: the exhaustive scan.

    kappa comes from the package, which the rest of the suite checks
    against the naive oracles above.
    """
    free = m.ground.full_mask & ~x.mask & ~y.mask
    n = len(m.ground)
    for extra in iter_submasks_lex(free):
        umask = x.mask | extra
        size_u = umask.bit_count()
        if size_u < k or n - size_u < k:
            continue
        value = kappa(m, ElementSet(m.ground, umask))
        if value <= k - 1:
            return Separation(
                ElementSet(m.ground, umask),
                ElementSet(m.ground, m.ground.full_mask & ~umask),
                value,
                value + 1,
            )
    return None


def brute_find_separation(m: Matroid, k: int):
    """First split (X, E minus X) in canonical subset order with kappa(X) + 1
    at most min(|X|, |E minus X|, k): the exhaustive scan.

    kappa comes from the package, which the rest of the suite checks
    against the naive oracles above.
    """
    full = m.ground.full_mask
    n = len(m.ground)
    for xmask in iter_submasks_lex(full):
        size_x = xmask.bit_count()
        cap = min(size_x, n - size_x, k)
        if cap < 1:
            continue
        value = kappa(m, ElementSet(m.ground, xmask))
        if value + 1 <= cap:
            return Separation(
                ElementSet(m.ground, xmask),
                ElementSet(m.ground, full & ~xmask),
                value,
                value + 1,
            )
    return None


def _brute_fmt(ground, mask: int) -> str:
    return "{" + ",".join(ground.labels[i] for i in range(len(ground)) if mask >> i & 1) + "}"


def _canon(mask: int) -> tuple:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def brute_c3_tuples(circuit_masks) -> int:
    """Every (C, X, (C_x), z) tuple the C3 scan of ``brute_check_axioms``
    visits, counted by its own product loop with no cap."""
    total = 0
    for cmask in circuit_masks:
        for xmask in iter_submasks_lex(cmask):
            xs = _canon(xmask)
            per_x = [
                [d for d in circuit_masks if d >> x & 1 and not d & (xmask & ~(1 << x))]
                for x in xs
            ]
            if not xs or not all(per_x):
                continue
            for combo in itertools.product(*per_x):
                union = 0
                for d in combo:
                    union |= d
                total += len(_canon(cmask & ~union))
    return total


def brute_check_axioms(ground, independent=None, *, circuits=None, independent_masks=None, c3_budget=20_000):
    """The axiom report by direct scans: quadratic I3, minimal non-members
    from ``itertools.combinations``, and C3 with a linear scan for a circuit
    through each z.  Witnesses, their order, notes and the C3 tuple count
    follow ``check_axioms`` exactly; the ground-size budget is not checked.
    """
    from matroid_kappa import AxiomCheck, AxiomReport, GroundSet

    if not isinstance(ground, GroundSet):
        ground = GroundSet(ground)
    fmt = lambda mask: _brute_fmt(ground, mask)  # noqa: E731
    n = len(ground)
    if circuits is not None:
        circuit_masks = sorted({ground.set_of(c).mask for c in circuits}, key=_canon)
        family = frozenset(
            mask for mask in range(1 << n) if not any(c & mask == c for c in circuit_masks)
        )
    else:
        if independent_masks is not None:
            family = frozenset(independent_masks)
        else:
            family = frozenset(ground.set_of(s).mask for s in independent)
        circuit_masks = []
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                mask = sum(1 << i for i in combo)
                if mask not in family and not any(c & mask == c for c in circuit_masks):
                    circuit_masks.append(mask)
        circuit_masks.sort(key=_canon)
    ordered = sorted(family, key=_canon)

    def i1():
        if 0 in family:
            return AxiomCheck("I1", True)
        return AxiomCheck("I1", False, witness="the empty set is not in the family")

    def i2():
        for mask in ordered:
            for i in _canon(mask):
                sub = mask & ~(1 << i)
                if sub not in family:
                    return AxiomCheck(
                        "I2", False,
                        witness=f"{fmt(mask)} is in the family but its subset {fmt(sub)} is not",
                    )
        return AxiomCheck("I2", True)

    def i3():
        maximal = [m for m in ordered if not any(m != o and m & o == m for o in family)]
        maximal_set = set(maximal)
        for small in ordered:
            if small in maximal_set:
                continue
            for big in maximal:
                if not any(small | (1 << i) in family for i in _canon(big & ~small)):
                    return AxiomCheck(
                        "I3", False,
                        witness=(
                            f"I={fmt(small)} cannot be augmented from the "
                            f"maximal set I'={fmt(big)}"
                        ),
                    )
        return AxiomCheck("I3", True)

    def c1():
        if 0 in circuit_masks:
            return AxiomCheck("C1", False, witness="the empty set appears as a circuit")
        return AxiomCheck("C1", True)

    def c2():
        for a, b in itertools.combinations(circuit_masks, 2):
            if a & b in (a, b):
                small, big = (a, b) if a & b == a else (b, a)
                return AxiomCheck(
                    "C2", False,
                    witness=f"circuit {fmt(small)} is contained in circuit {fmt(big)}",
                )
        return AxiomCheck("C2", True)

    def c3():
        spent = 0
        for cmask in circuit_masks:
            for xmask in iter_submasks_lex(cmask):
                xs = list(_canon(xmask))
                per_x = [
                    [d for d in circuit_masks if d >> x & 1 and not d & (xmask & ~(1 << x))]
                    for x in xs
                ]
                if not xs or not all(per_x):
                    continue
                for combo in itertools.product(*per_x):
                    union = 0
                    for d in combo:
                        union |= d
                    allowed = (cmask | union) & ~xmask
                    for z in _canon(cmask & ~union):
                        spent += 1
                        if spent > c3_budget:
                            return AxiomCheck("C3", True, exhaustive=False)
                        if not any(d >> z & 1 and d & allowed == d for d in circuit_masks):
                            family_txt = ", ".join(
                                f"C_{ground.labels[x]}={fmt(d)}" for x, d in zip(xs, combo)
                            )
                            return AxiomCheck(
                                "C3", False,
                                witness=(
                                    f"C={fmt(cmask)}, X={fmt(xmask)}, {family_txt}, "
                                    f"z={ground.labels[z]}: no circuit through z "
                                    f"inside {fmt(allowed)}"
                                ),
                            )
        return AxiomCheck("C3", True)

    checks = [
        i1(), i2(), i3(),
        AxiomCheck("IM", True, note="maximal extensions always exist over a finite ground set"),
        c1(), c2(), c3(),
    ]
    if circuits is not None:
        note = "independence family induced from the candidate circuits"
        checks = [
            AxiomCheck(c.name, c.passed, c.witness, c.exhaustive, note)
            if c.name in ("I1", "I2", "I3") else c
            for c in checks
        ]
    return AxiomReport(ground, tuple(checks))

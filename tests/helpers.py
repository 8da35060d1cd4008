"""Independent reference oracles and corpus builders for the test suite.

Everything here is deliberately naive and separate from the package's
bitmask machinery: label frozensets, itertools scans, and networkx for
graph-side questions.  Expected values in tests come from these oracles,
never from the code under test.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import networkx as nx
from hypothesis import strategies as st

from matroid_kappa import (
    ElementSet,
    Matroid,
    MinorSpec,
    Separation,
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
    free = frozenset(labels) - x - y
    return min(
        brute_kappa(indep, labels, x | frozenset(s)) for s in powerset(free)
    )


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
def representations(draw, prefix: str = "x", max_n: int = 7):
    """A uniform, graphic, binary or explicit matroid on ``prefix``-labels."""
    n = draw(st.integers(0, max_n))
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
    from matroid_kappa import direct_sum

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
    from matroid_kappa import direct_sum

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

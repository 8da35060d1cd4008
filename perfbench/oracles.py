"""Reference oracles written apart from the package under test.

Nothing here imports ``matroid_kappa``.  A matroid is described by plain
data (see ``inputs.py``) and every question is answered from a rank
function over frozensets of labels:

* graphs: union-find forests;
* GF(2) matrices: row reduction of the selected columns;
* uniform matroids: the closed form min(|S|, k);
* explicit families: the largest listed set inside S;
* duals, minors and direct sums: their rank formulas over the source.

Connectivity, circuits and components are then derived from ranks by
definition (kappa) or by classical theorems (components from the
fundamental circuits of one basis), never by the package's scans.
"""

from __future__ import annotations

import itertools


def labels_of(desc: dict) -> tuple[str, ...]:
    """Ground set of a description, in canonical order."""
    kind = desc["type"]
    if kind == "graphic":
        return tuple(lab for lab, _, _ in desc["edges"])
    if kind in ("gf2", "uniform", "explicit"):
        return tuple(desc["labels"])
    if kind == "dual":
        return labels_of(desc["of"])
    if kind == "minor":
        gone = set(desc["contract"]) | set(desc["delete"])
        return tuple(lab for lab in labels_of(desc["of"]) if lab not in gone)
    if kind == "sum":
        return tuple(lab for part in desc["parts"] for lab in labels_of(part))
    raise ValueError(f"unknown description type {kind!r}")


class RefMatroid:
    """Rank oracle of a described matroid, memoised per frozenset."""

    def __init__(self, desc: dict):
        self.labels = labels_of(desc)
        self.ground = frozenset(self.labels)
        self._memo: dict[frozenset, int] = {}
        self._rank = self._make_rank(desc)
        self.full_rank = self.rank(self.ground)

    def rank(self, s) -> int:
        s = frozenset(s)
        got = self._memo.get(s)
        if got is None:
            got = self._memo[s] = self._rank(s)
        return got

    def _make_rank(self, desc: dict):
        kind = desc["type"]
        if kind == "graphic":
            return _forest_rank(desc["edges"])
        if kind == "gf2":
            return _gf2_rank(desc["labels"], desc["rows"])
        if kind == "uniform":
            k = desc["k"]
            return lambda s: min(len(s), k)
        if kind == "explicit":
            family = [frozenset(f) for f in desc["independent"]]
            return lambda s: max(len(f) for f in family if f <= s)
        if kind == "dual":
            base = RefMatroid(desc["of"])
            return lambda s: len(s) + base.rank(base.ground - s) - base.full_rank
        if kind == "minor":
            base = RefMatroid(desc["of"])
            c = frozenset(desc["contract"])
            rc = base.rank(c)
            return lambda s: base.rank(s | c) - rc
        if kind == "sum":
            parts = [RefMatroid(p) for p in desc["parts"]]
            return lambda s: sum(p.rank(s & p.ground) for p in parts)
        raise ValueError(f"unknown description type {kind!r}")

    # -- derived questions ------------------------------------------------

    def independent(self, s) -> bool:
        return self.rank(s) == len(frozenset(s))

    def kappa(self, x) -> int:
        x = frozenset(x)
        return self.rank(x) + self.rank(self.ground - x) - self.full_rank

    def kappa_between(self, x, y) -> int:
        x, y = frozenset(x), frozenset(y)
        free = [lab for lab in self.labels if lab not in x and lab not in y]
        best = None
        for size in range(len(free) + 1):
            for extra in itertools.combinations(free, size):
                value = self.kappa(x | frozenset(extra))
                if best is None or value < best:
                    best = value
        return best

    def greedy_basis(self) -> list[str]:
        """The first-fit basis in canonical order."""
        basis: list[str] = []
        for lab in self.labels:
            if self.rank(basis + [lab]) > len(basis):
                basis.append(lab)
        return basis

    def circuits(self) -> list[list[str]]:
        """All minimal dependent sets, ordered by their index tuples."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        found: list[frozenset] = []
        for size in range(1, len(self.labels) + 1):
            for combo in itertools.combinations(self.labels, size):
                s = frozenset(combo)
                if any(c <= s for c in found):
                    continue
                if self.rank(s) < size:
                    found.append(s)
        ordered = sorted(found, key=lambda c: sorted(index[lab] for lab in c))
        return [sorted(c, key=index.__getitem__) for c in ordered]

    def components(self) -> list[list[str]]:
        """Connected components from the fundamental circuits of one basis.

        Two elements share a component iff they are linked by a chain of
        fundamental circuits (Krogdahl); loops and coloops are singletons.
        Blocks are listed by their first element in canonical order.
        """
        basis = self.greedy_basis()
        r = len(basis)
        parent = {lab: lab for lab in self.labels}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.labels:
            if e in basis:
                continue
            for b in basis:
                swapped = [z for z in basis if z != b] + [e]
                if self.rank(swapped) == r:
                    parent[find(b)] = find(e)
        by_root: dict[str, list[str]] = {}
        for lab in self.labels:
            by_root.setdefault(find(lab), []).append(lab)
        return sorted(by_root.values(), key=lambda b: self.labels.index(b[0]))

    def minor_kappa(self, contract, delete, x) -> int:
        """kappa of X inside M/C\\D, whose ground set is what C and D leave."""
        c = frozenset(contract)
        rest = self.ground - c - frozenset(delete)
        rc = self.rank(c)

        def r(s):
            return self.rank(frozenset(s) | c) - rc

        x = frozenset(x)
        return r(x) + r(rest - x) - r(rest)


def blocks(parts) -> list[list[str]]:
    """A partition in a canonical form: sorted blocks of sorted labels."""
    return sorted(sorted(b) for b in parts)


def _forest_rank(edges):
    ends = {lab: (u, v) for lab, u, v in edges}

    def rank(s) -> int:
        parent: dict[str, str] = {}

        def find(a):
            root = a
            while parent.get(root, root) != root:
                root = parent[root]
            return root

        merged = 0
        for lab in s:
            u, v = ends[lab]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                merged += 1
        return merged

    return rank


def _gf2_rank(labels, rows):
    # each column as a tuple of bits; rank by eliminating rows of the
    # selected submatrix, one leading column at a time
    col_of = {lab: j for j, lab in enumerate(labels)}

    def rank(s) -> int:
        cols = sorted(col_of[lab] for lab in s)
        work = [[row[j] for j in cols] for row in rows]
        r = 0
        for c in range(len(cols)):
            pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            for i in range(len(work)):
                if i != r and work[i][c]:
                    work[i] = [a ^ b for a, b in zip(work[i], work[r])]
            r += 1
        return r

    return rank


def uniform_window_kappa(k: int, n: int, x_size: int, y_size: int) -> int:
    """kappa(X, Y) in U(k, n): min over |U| of min(|U|,k)+min(n-|U|,k)-min(n,k)."""
    full = min(n, k)
    return min(
        min(u, k) + min(n - u, k) - full for u in range(x_size, n - y_size + 1)
    )

"""Line-oriented matroid description files.

The format is UTF-8 text with ``key: value`` lines::

    type: uniform|graphic|linear-gf2|explicit|file-derived
    elements: a b c d

with labels separated by whitespace and free of ``,``, which separates
the labels of a set wherever one is named.  A label is not ``{}``, which
names the empty set, and does not start with ``@``, which names a file
of labels on the command line.  Then comes type-specific content:

* uniform      - ``k: 2``
* graphic      - ``edges: e1=u-v e2=v-w ...`` (vertex names free of ``-``)
* linear-gf2   - ``matrix:`` then one 0/1 row per line, columns in
  element order
* explicit     - ``independent:`` then one set per line, comma-separated
  labels, ``{}`` for the empty set
* file-derived - ``base: path`` plus ``apply: dual`` or ``apply: minor``
  (with optional ``contract:`` / ``delete:`` label lines) or
  ``apply: sum`` with ``with: path ...``; paths are resolved relative to
  the describing file, and one that leads back to a file being parsed is
  an error

Each type reads only its keys above (file-derived has no ``elements:``),
``contract:`` and ``delete:`` only with ``apply: minor`` and ``with:``
only with ``apply: sum``; any other key is a parse error on its own line.
Blank lines and ``#`` comments are ignored.  Parse errors carry the line
number and a reason; an error inside a ``base:`` or ``with:`` file also
names that file.

A file is identified by its device and inode, read with ``fstat`` from
the handle it is read through, not by its resolved path.  So a file
reached through a symlink, a hard link or a second relative path is the
same file, and a chain of ``base:`` and ``with:`` references that
returns to any of the files it passes through is rejected.
"""

from __future__ import annotations

import os

from .constructions import MinorSpec, direct_sum, dual, take_minor
from .core import (
    ElementSet,
    GroundSet,
    Matroid,
    explicit_matroid,
    gf2_matroid,
    graphic_matroid,
    uniform_matroid,
)
from .errors import DomainError


class ParseError(DomainError):
    """Malformed description file; message carries the line number.

    ``path`` names the file when the error lies in a ``base:`` or ``with:``
    file, written as the referring file gives it; it is None for the file
    being parsed itself.
    """

    def __init__(self, line_no: int, reason: str, path: str | None = None):
        where = f"line {line_no}: {reason}"
        super().__init__(where if path is None else f"{path}: {where}")
        self.line_no = line_no
        self.reason = reason
        self.path = path


def _scan(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def parse_label_set(ground: GroundSet, text: str) -> ElementSet:
    """Comma-separated labels into a set; ``{}`` or empty means the empty set."""
    text = text.strip()
    if text in ("", "{}"):
        return ground.empty()
    return ground.set_of(part.strip() for part in text.split(","))


def parse_matroid_text(text: str, base_dir: str = ".") -> Matroid:
    return _parse_text(text, base_dir, ())


_FileId = tuple[int, int]
"""(st_dev, st_ino) of an open description file."""

_KEYS = {
    "uniform": ("elements", "k"),
    "graphic": ("elements", "edges"),
    "linear-gf2": ("elements", "matrix"),
    "explicit": ("elements", "independent"),
    "file-derived with apply: dual": ("base", "apply"),
    "file-derived with apply: minor": ("base", "apply", "contract", "delete"),
    "file-derived with apply: sum": ("base", "apply", "with"),
}
"""The keys each type reads besides ``type``."""


def _parse_text(text: str, base_dir: str, chain: tuple[_FileId, ...]) -> Matroid:
    """Parse one description; ``chain`` lists the identities of the files
    whose parsing led here, so a derived file cannot name one of them."""
    lines = list(_scan(text))
    if not lines:
        raise ParseError(1, "empty description")

    fields: dict[str, tuple[int, str]] = {}
    tail_key: str | None = None
    tail: list[tuple[int, str]] = []
    for no, line in lines:
        if tail_key is not None:
            tail.append((no, line))
            continue
        if ":" not in line:
            raise ParseError(no, "expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in ("matrix", "independent") and value == "":
            tail_key = key
            fields[key] = (no, "")
            continue
        if key in fields:
            raise ParseError(no, f"duplicate key {key!r}")
        fields[key] = (no, value)

    def need(key: str) -> tuple[int, str]:
        if key not in fields:
            raise ParseError(lines[0][0], f"missing required key {key!r}")
        return fields[key]

    type_no, mtype = need("type")
    kind = mtype
    if kind == "file-derived" and "apply" in fields:
        kind += " with apply: " + fields["apply"][1]
    if kind in _KEYS:
        for key, (no, _) in fields.items():
            if key not in ("type", *_KEYS[kind]):
                raise ParseError(no, f"type {kind} does not read key {key!r}")
    if mtype == "file-derived":
        return _parse_derived(fields, base_dir, type_no, chain)

    el_no, el_text = need("elements")
    labels = el_text.split()
    if not labels:
        raise ParseError(el_no, "elements line lists no labels")
    for lab in labels:
        if "," in lab:
            raise ParseError(el_no, f"label {lab!r} contains ',', which separates set labels")
        if lab == "{}":
            raise ParseError(el_no, "label '{}' reads as the empty set")
        if lab.startswith("@"):
            raise ParseError(el_no, f"label {lab!r} starts with '@', which names a file of labels")
    try:
        ground = GroundSet(labels)
    except DomainError as exc:
        raise ParseError(el_no, str(exc)) from None

    if mtype == "uniform":
        k_no, k_text = need("k")
        try:
            k = int(k_text)
        except ValueError:
            raise ParseError(k_no, f"k must be an integer, got {k_text!r}") from None
        if k < 0:
            raise ParseError(k_no, "k must be non-negative")
        return uniform_matroid(ground, k)

    if mtype == "graphic":
        e_no, e_text = need("edges")
        edges = []
        seen = []
        for token in e_text.split():
            if "=" not in token:
                raise ParseError(e_no, f"edge {token!r} is not label=u-v")
            lab, _, ends = token.partition("=")
            if "-" not in ends:
                raise ParseError(e_no, f"edge {token!r} has no u-v endpoints")
            u, _, v = ends.partition("-")
            if not u or not v:
                raise ParseError(e_no, f"edge {token!r} has an empty endpoint")
            if "-" in v:
                raise ParseError(e_no, f"edge {token!r} has a '-' in a vertex name")
            edges.append((lab, u, v))
            seen.append(lab)
        if seen != labels:
            raise ParseError(
                e_no, "edge labels must match the elements line, in order"
            )
        return graphic_matroid(edges)

    if mtype == "linear-gf2":
        m_no, _ = need("matrix")
        rows = []
        for no, line in tail:
            entries = line.split()
            try:
                row = [int(x) for x in entries]
            except ValueError:
                raise ParseError(no, "matrix rows contain only 0 and 1") from None
            if any(x not in (0, 1) for x in row):
                raise ParseError(no, "matrix rows contain only 0 and 1")
            if len(row) != len(labels):
                raise ParseError(
                    no, f"row has {len(row)} entries, need {len(labels)}"
                )
            rows.append(row)
        if not rows:
            raise ParseError(m_no, "matrix: must be followed by at least one row")
        return gf2_matroid(ground, rows)

    if mtype == "explicit":
        i_no, _ = need("independent")
        family = []
        for no, line in tail:
            try:
                family.append(parse_label_set(ground, line))
            except DomainError as exc:
                raise ParseError(no, str(exc)) from None
        if not family:
            raise ParseError(i_no, "independent: must be followed by sets")
        try:
            return explicit_matroid(ground, family)
        except DomainError as exc:
            raise ParseError(i_no, str(exc)) from None

    raise ParseError(
        type_no,
        f"unknown type {mtype!r}; expected uniform, graphic, linear-gf2, "
        "explicit or file-derived",
    )


def _parse_derived(
    fields, base_dir: str, type_no: int, chain: tuple[_FileId, ...]
) -> Matroid:
    if "base" not in fields:
        raise ParseError(type_no, "file-derived needs a 'base:' path")
    base_no, base_path = fields["base"]
    if "apply" not in fields:
        raise ParseError(type_no, "file-derived needs an 'apply:' operation")
    op_no, op = fields["apply"]
    base = _parse_named(base_dir, base_path, chain, base_no)

    if op == "dual":
        return dual(base)
    if op == "minor":
        contract_text = fields.get("contract", (op_no, ""))[1]
        delete_text = fields.get("delete", (op_no, ""))[1]
        try:
            c = base.ground.set_of(contract_text.split())
            d = base.ground.set_of(delete_text.split())
            return take_minor(base, MinorSpec(c, d))
        except DomainError as exc:
            raise ParseError(op_no, str(exc)) from None
    if op == "sum":
        if "with" not in fields:
            raise ParseError(op_no, "apply: sum needs a 'with:' list of paths")
        w_no, w_text = fields["with"]
        others = [_parse_named(base_dir, p, chain, w_no) for p in w_text.split()]
        if not others:
            raise ParseError(w_no, "'with:' lists no paths")
        try:
            return direct_sum([base, *others])
        except DomainError as exc:
            raise ParseError(w_no, str(exc)) from None
    raise ParseError(op_no, f"unknown apply operation {op!r}")


def parse_matroid_file(path: str) -> Matroid:
    text, ident = read_text(path)
    return _parse_text(text, os.path.dirname(path) or ".", (ident,))


def read_text(path: str) -> tuple[str, _FileId]:
    """The text of a UTF-8 file and the identity of what was read; a file
    that is not UTF-8 is a ``DomainError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        st = os.fstat(fh.fileno())
        try:
            return fh.read(), (st.st_dev, st.st_ino)
        except UnicodeDecodeError as exc:
            raise DomainError(
                f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None


def _parse_named(
    base_dir: str, name: str, chain: tuple[_FileId, ...], line_no: int
) -> Matroid:
    """Parse the file that line ``line_no`` of the last file in ``chain``
    names as ``name``; parse errors inside it carry that name."""
    path = os.path.join(base_dir, name)
    text, ident = read_text(path)
    if ident in chain:
        raise ParseError(line_no, f"{path!r} refers back to a file being parsed")
    try:
        return _parse_text(text, os.path.dirname(path) or ".", chain + (ident,))
    except ParseError as exc:
        if exc.path is not None:
            raise
        raise ParseError(exc.line_no, exc.reason, name) from None


def set_to_jsonable(s: ElementSet) -> list[str]:
    """Canonical JSON form of a set: its labels in canonical order."""
    return list(s)


def matroid_summary(m: Matroid) -> dict:
    return {
        "representation": m.rep,
        "elements": list(m.ground.labels),
        "size": len(m.ground),
        "rank": m.full_rank,
        "basis": set_to_jsonable(m.basis()),
    }

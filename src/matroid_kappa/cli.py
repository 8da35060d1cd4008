"""Command-line front end.

One verb per operation; matroids come from description files (see
:mod:`matroid_kappa.fileformat`), infinite families from ``--id``.  Each
verb is a function ``(args, matroid) -> (payload, text_lines)`` registered
in :func:`_build_parser`.  Exit codes: 0 success, 1 domain or precondition
error, 2 capacity (budget) error, 70 internal invariant violation.
``--output=json`` switches every report to a versioned JSON document.

Verbs that run a budgeted scan accept ``--budget``; they, and only they,
read ``MATROID_KAPPA_BUDGET`` when the flag is absent, and pass the number
to every budgeted scan they run.  Without either, each scan keeps its
library default.  ``separation`` runs a budgeted scan only for ``--k`` of
2 or more and ``family`` only for ``window-info``; otherwise they reject
``--budget`` and leave the variable unread.  ``link`` runs none.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import axioms, budgets
from .budgets import resolve_budget
from .connectivity import find_separation, kappa, kappa_between
from .constructions import MinorSpec, components, direct_sum, dual, take_minor
from .core import GroundSet, Matroid
from .errors import CapacityError, DomainError, InvariantViolation
from .fileformat import (
    matroid_summary,
    parse_label_set,
    parse_matroid_file,
    read_text,
    set_to_jsonable,
)
from .linking import constructive_linking, linking_partition
from .windows import (
    StabilizationPolicy,
    certified_separation,
    double_ladder,
    infinite_uniform,
    omega_tree_truncation,
    stabilized_kappa_between,
    windowed_linking,
)

SCHEMA = "matroid-kappa/1"


class _CliParser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message: str):
        raise DomainError(message)


def _read_set(ground: GroundSet, text: str):
    if text.startswith("@"):
        lines = read_text(text[1:])[0].split("\n")
        return ground.set_of(line.strip() for line in lines if line.strip())
    return parse_label_set(ground, text)


def _sides(args, m: Matroid):
    return _read_set(m.ground, args.x), _read_set(m.ground, args.y)


def _braced(labels) -> str:
    return "{" + ",".join(labels) + "}"


def _listing(title: str, sets) -> list[str]:
    return [f"{title} ({len(sets)}):"] + ["  " + _braced(s) for s in sets]


def _summary(m: Matroid, budget_flag: int | None) -> tuple[dict, list[str]]:
    """Elements, rank and basis, plus the circuits when they fit the budget;
    above it, ``circuits_omitted`` holds the refusal in their place."""
    info = matroid_summary(m)
    lines = [
        f"elements: {' '.join(info['elements'])}",
        f"rank = {info['rank']}",
        f"basis = {_braced(info['basis'])}",
    ]
    try:
        circuits = m.circuits(resolve_budget(budget_flag))
    except CapacityError as exc:
        info["circuits_omitted"] = str(exc)
        return info, lines + [f"circuits: not listed ({exc})"]
    info["circuits"] = [set_to_jsonable(c) for c in circuits]
    return info, lines + _listing("circuits", circuits)


# -- verbs ---------------------------------------------------------------


def _check_axioms_verb(args, m: Matroid):
    # the ground size first; then the table of the sets containing no
    # circuit, with no oracle call per subset
    ground = m.ground
    budgets.check_scan(
        "axiom check", len(ground), resolve_budget(args.budget), budgets.AXIOM_GROUND
    )
    circuits = m.circuits(budget=len(ground))
    members = axioms._without(ground, (c.mask for c in circuits))
    report = axioms._report(ground, members, budgets.AXIOM_C3_TUPLES)
    ok = "true" if report.ok else "false"
    return {"report": report.to_jsonable()}, [str(report), f"ok: {ok}"]


def _circuits_verb(args, m: Matroid):
    circuits = m.circuits(resolve_budget(args.budget))
    payload = {"circuits": [set_to_jsonable(c) for c in circuits]}
    return payload, _listing("circuits", circuits)


def _rank_verb(args, m: Matroid):
    target = None if args.set is None else _read_set(m.ground, args.set)
    value = m.rank(target)
    shown = "E" if target is None else _braced(target)
    return {"set": shown, "rank": value}, [f"rank({shown}) = {value}"]


def _dual_verb(args, m: Matroid):
    payload, lines = _summary(dual(m), args.budget)
    return {"dual": payload}, lines


def _minor_verb(args, m: Matroid):
    spec = MinorSpec(
        _read_set(m.ground, args.contract), _read_set(m.ground, args.delete)
    )
    payload, lines = _summary(take_minor(m, spec), args.budget)
    return {"spec": spec.to_jsonable(), "minor": payload}, lines


def _sum_verb(args, _):
    parts = [parse_matroid_file(p) for p in args.inputs]
    payload, lines = _summary(direct_sum(parts), args.budget)
    return {"sum": payload}, lines


def _components_verb(args, m: Matroid):
    parts = components(m)
    return {"components": parts.to_jsonable()}, _listing("components", parts.blocks)


def _kappa_verb(args, m: Matroid):
    x = _read_set(m.ground, args.set)
    value = kappa(m, x)
    return {"set": set_to_jsonable(x), "kappa": value}, [f"kappa = {value}"]


def _kappa_between_verb(args, m: Matroid):
    x, y = _sides(args, m)
    value = kappa_between(m, x, y)
    payload = {"x": set_to_jsonable(x), "y": set_to_jsonable(y), "kappa": value}
    return payload, [f"kappa(X, Y) = {value}"]


def _separation_verb(args, m: Matroid):
    if args.k < 2 and args.budget is not None:
        raise DomainError("--budget applies only to separation --k of 2 or more")
    sep = find_separation(m, args.k, resolve_budget(args.budget) if args.k >= 2 else None)
    if sep is None:
        return {"separation": None}, ["no separation found"]
    return {"separation": sep.to_jsonable()}, [
        "separation found:",
        f"  left  = {_braced(sep.left)}",
        f"  right = {_braced(sep.right)}",
        f"  kappa = {sep.kappa}, order = {sep.order}",
    ]


def _connected_verb(args, m: Matroid):
    parts = components(m)
    payload = {"connected": parts.is_connected, "blocks": len(parts)}
    return payload, [f"connected: {'true' if parts.is_connected else 'false'}"]


def _link_verb(args, m: Matroid):
    x, y = _sides(args, m)
    solver = constructive_linking if args.constructive else linking_partition
    result = solver(m, x, y)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for entry in result.trace:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return {"result": result.to_jsonable()}, [
        f"kappa(X, Y) = {result.target}",
        f"contract = {_braced(result.spec.contract)}",
        f"delete   = {_braced(result.spec.delete)}",
        f"achieved = {result.achieved}",
    ]


def _family(fid: str):
    if fid == "double-ladder":
        return double_ladder()
    if fid == "double-ladder-rungless":
        return double_ladder(include_rungs=False)
    if fid.startswith("infinite-uniform(") and fid.endswith(")"):
        try:
            k = int(fid[len("infinite-uniform(") : -1])
        except ValueError:
            raise DomainError(
                f"family {fid!r} needs an integer K in infinite-uniform(K)"
            ) from None
        return infinite_uniform(k)
    if fid == "omega-tree":
        return omega_tree_truncation()
    raise DomainError(
        f"unknown family {fid!r}; known: double-ladder, double-ladder-rungless, "
        "infinite-uniform(K), omega-tree"
    )


def _family_verb(args, _):
    if args.budget is not None and args.operation != "window-info":
        raise DomainError("--budget applies only to family window-info")
    family = _family(args.id)
    if args.operation == "window-info":
        if args.window is None:
            raise DomainError("window-info needs --window")
        for flag in ("x", "y", "certificate"):
            if getattr(args, flag) not in (None, []):
                raise DomainError(f"--{flag} does not apply to family window-info")
        payload, lines = _summary(family.window(args.window), args.budget)
        return {"window": args.window, "matroid": payload}, lines
    if args.x is None or args.y is None:
        raise DomainError(f"family {args.operation} needs --x and --y")
    policy = StabilizationPolicy(max_window=args.window)
    x_labels = [s.strip() for s in args.x.split(",") if s.strip()]
    y_labels = [s.strip() for s in args.y.split(",") if s.strip()]
    certs = [certified_separation(family, c) for c in args.certificate]
    if args.operation == "kappa-between":
        report = stabilized_kappa_between(family, x_labels, y_labels, policy, certs)
        return {"report": report.to_jsonable()}, [
            f"family {family.family_id}",
            "window values: " + " ".join(f"{n}:{v}" for n, v in report.values),
            f"stable_at: {report.stable_at}",
            f"certified: {report.certified_value}"
            + (f" (by {report.certificate})" if report.certificate else ""),
        ]
    result = windowed_linking(family, x_labels, y_labels, policy, certs)
    return {"result": result.to_jsonable()}, [
        f"window {result.window_index}, achieved = {result.achieved}",
        f"contract = {_braced(result.spec.contract)}",
        f"delete   = {_braced(result.spec.delete)} plus everything outside the window",
    ]


def _build_parser() -> _CliParser:
    """The command-line grammar.  ``_PARSER`` holds the one built when this
    module loads; parsing leaves it unchanged."""
    parser = _CliParser(prog="matroid-kappa")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, run, budget: bool = True, takes: str | None = "file"):
        """Register ``run`` as ``name``.  ``budget`` adds ``--budget`` (for
        verbs that run a budgeted scan); ``takes`` is "file", "files" or None."""
        p = sub.add_parser(name)
        p.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
        if budget:
            p.add_argument("--budget", type=int, default=None)
        if takes == "file":
            p.add_argument("input", help="matroid description file")
        elif takes == "files":
            p.add_argument("inputs", nargs="+", help="matroid description files")
        p.set_defaults(run=run)
        return p

    verb("check-axioms", _check_axioms_verb)
    verb("circuits", _circuits_verb)
    verb("rank", _rank_verb, budget=False).add_argument("--set", default=None)
    verb("dual", _dual_verb)
    p = verb("minor", _minor_verb)
    p.add_argument("--contract", default="")
    p.add_argument("--delete", default="")
    verb("sum", _sum_verb, takes="files")
    verb("components", _components_verb, budget=False)
    verb("kappa", _kappa_verb, budget=False).add_argument("--set", required=True)
    p = verb("kappa-between", _kappa_between_verb, budget=False)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    verb("separation", _separation_verb).add_argument("--k", type=int, required=True)
    verb("connected", _connected_verb, budget=False)
    p = verb("link", _link_verb, budget=False)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--constructive", action="store_true")
    p.add_argument("--trace", default=None)
    p = verb("family", _family_verb, takes=None)
    p.add_argument("--id", required=True)
    p.add_argument("--window", type=int, default=None, help="largest window index")
    p.add_argument("--certificate", action="append", default=[])
    p.add_argument("operation", choices=("kappa-between", "link", "window-info"))
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    return parser


_PARSER = _build_parser()


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        doc = {"schema": SCHEMA, "verb": args.verb}
        doc.update(payload)
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _dispatch(args) -> int:
    m = parse_matroid_file(args.input) if "input" in args else None
    _emit(args, *args.run(args, m))
    return 0


def parse_and_run(argv: list[str]) -> int:
    """Run one command line; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
        return _dispatch(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 70
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()

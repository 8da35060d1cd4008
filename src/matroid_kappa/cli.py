"""Command-line front end.

One verb per operation; matroids come from description files (see
:mod:`matroid_kappa.fileformat`), infinite families from ``--id``.  Exit
codes: 0 success, 1 domain or precondition error, 2 capacity (budget)
error, 70 internal invariant violation.  ``--output=json`` switches every
report to a versioned JSON document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import budgets
from .axioms import check_axioms
from .connectivity import (
    find_separation,
    kappa,
    kappa_between,
)
from .constructions import MinorSpec, components, direct_sum, dual, take_minor
from .core import GroundSet, Matroid
from .errors import CapacityError, DomainError, InvariantViolation
from .fileformat import (
    matroid_summary,
    parse_label_set,
    parse_matroid_file,
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
        with open(text[1:], encoding="utf-8") as fh:
            labels = [line.strip() for line in fh if line.strip()]
        return ground.set_of(labels)
    return parse_label_set(ground, text)


def _emit(args, verb: str, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        doc = {"schema": SCHEMA, "verb": verb}
        doc.update(payload)
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load(args) -> Matroid:
    return parse_matroid_file(args.input)


def _family(args):
    fid = args.id
    if fid == "double-ladder":
        return double_ladder()
    if fid == "double-ladder-rungless":
        return double_ladder(include_rungs=False)
    if fid.startswith("infinite-uniform(") and fid.endswith(")"):
        return infinite_uniform(int(fid[len("infinite-uniform(") : -1]))
    if fid == "omega-tree":
        return omega_tree_truncation()
    raise DomainError(
        f"unknown family {fid!r}; known: double-ladder, double-ladder-rungless, "
        "infinite-uniform(K), omega-tree"
    )


@functools.cache
def _build_parser() -> _CliParser:
    """The command-line grammar; built once, since parsing leaves it unchanged."""
    parser = _CliParser(prog="matroid-kappa")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, budget: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
        if budget:
            p.add_argument("--budget", type=int, default=None)
        p.add_argument("input", help="matroid description file")
        return p

    verb("check-axioms")
    verb("circuits")

    p = verb("rank", budget=False)
    p.add_argument("--set", default=None)

    verb("dual")

    p = verb("minor")
    p.add_argument("--contract", default="")
    p.add_argument("--delete", default="")

    p = sub.add_parser("sum")
    p.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("inputs", nargs="+", help="matroid description files")

    verb("components")

    p = verb("kappa", budget=False)
    p.add_argument("--set", required=True)

    p = verb("kappa-between")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = verb("separation")
    p.add_argument("--k", type=int, required=True)

    verb("connected")

    p = verb("link")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--constructive", action="store_true")
    p.add_argument("--trace", default=None)

    p = sub.add_parser("family")
    p.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--id", required=True)
    p.add_argument("--window", type=int, default=None, help="largest window index")
    p.add_argument("--plateau", type=int, default=None)
    p.add_argument("--certificate", action="append", default=[])
    p.add_argument(
        "operation", choices=("kappa-between", "link", "window-info")
    )
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    return parser


def _summary_payload(m: Matroid, budget: int | None) -> tuple[dict, list[str]]:
    info = matroid_summary(m)
    lines = [
        f"elements: {' '.join(info['elements'])}",
        f"rank = {info['rank']}",
        f"basis = {{{','.join(info['basis'])}}}",
    ]
    limit = budgets.resolve_budget(budget, budgets.CIRCUIT_ENUMERATION)
    if len(m.ground) <= limit:
        circuits = m.circuits(limit)
        info["circuits"] = [set_to_jsonable(c) for c in circuits]
        lines.append(f"circuits ({len(circuits)}):")
        lines.extend("  {" + ",".join(c) + "}" for c in circuits)
    return info, lines


def _dispatch(args) -> int:
    verb = args.verb

    if verb == "check-axioms":
        m = _load(args)
        limit = budgets.resolve_budget(args.budget, budgets.AXIOM_GROUND)
        if len(m.ground) > limit:
            raise CapacityError(
                f"axiom check over {len(m.ground)} elements exceeds budget {limit}"
            )
        family = frozenset(
            mask for mask in range(m.ground.full_mask + 1) if m._indep(mask)
        )
        report = check_axioms(m.ground, independent_masks=family, budget=limit)
        _emit(
            args,
            verb,
            {"report": report.to_jsonable()},
            [str(report), f"ok: {'true' if report.ok else 'false'}"],
        )
        return 0

    if verb == "circuits":
        m = _load(args)
        limit = budgets.resolve_budget(args.budget, budgets.CIRCUIT_ENUMERATION)
        circuits = m.circuits(limit)
        _emit(
            args,
            verb,
            {"circuits": [set_to_jsonable(c) for c in circuits]},
            [f"circuits ({len(circuits)}):"]
            + ["  {" + ",".join(c) + "}" for c in circuits],
        )
        return 0

    if verb == "rank":
        m = _load(args)
        target = _read_set(m.ground, args.set) if args.set is not None else None
        value = m.rank(target)
        shown = "E" if target is None else "{" + ",".join(target) + "}"
        _emit(args, verb, {"set": shown, "rank": value}, [f"rank({shown}) = {value}"])
        return 0

    if verb == "dual":
        m = _load(args)
        payload, lines = _summary_payload(dual(m), args.budget)
        _emit(args, verb, {"dual": payload}, lines)
        return 0

    if verb == "minor":
        m = _load(args)
        spec = MinorSpec(
            _read_set(m.ground, args.contract), _read_set(m.ground, args.delete)
        )
        payload, lines = _summary_payload(take_minor(m, spec), args.budget)
        _emit(args, verb, {"spec": spec.to_jsonable(), "minor": payload}, lines)
        return 0

    if verb == "sum":
        parts = [parse_matroid_file(p) for p in args.inputs]
        payload, lines = _summary_payload(direct_sum(parts), args.budget)
        _emit(args, verb, {"sum": payload}, lines)
        return 0

    if verb == "components":
        m = _load(args)
        limit = budgets.resolve_budget(args.budget, budgets.CIRCUIT_ENUMERATION)
        parts = components(m, limit)
        _emit(
            args,
            verb,
            {"components": parts.to_jsonable()},
            [f"components ({len(parts)}):"]
            + ["  {" + ",".join(b) + "}" for b in parts.blocks],
        )
        return 0

    if verb == "kappa":
        m = _load(args)
        x = _read_set(m.ground, args.set)
        value = kappa(m, x)
        _emit(args, verb, {"set": set_to_jsonable(x), "kappa": value}, [f"kappa = {value}"])
        return 0

    if verb == "kappa-between":
        m = _load(args)
        x = _read_set(m.ground, args.x)
        y = _read_set(m.ground, args.y)
        limit = budgets.resolve_budget(args.budget, budgets.KAPPA_BETWEEN_FREE)
        value = kappa_between(m, x, y, limit)
        _emit(
            args,
            verb,
            {"x": set_to_jsonable(x), "y": set_to_jsonable(y), "kappa": value},
            [f"kappa(X, Y) = {value}"],
        )
        return 0

    if verb == "separation":
        m = _load(args)
        limit = budgets.resolve_budget(args.budget, budgets.SEPARATION_SCAN)
        sep = find_separation(m, args.k, limit)
        if sep is None:
            _emit(args, verb, {"separation": None}, ["no separation found"])
        else:
            _emit(
                args,
                verb,
                {"separation": sep.to_jsonable()},
                [
                    "separation found:",
                    f"  left  = {{{','.join(sep.left)}}}",
                    f"  right = {{{','.join(sep.right)}}}",
                    f"  kappa = {sep.kappa}, order = {sep.order}",
                ],
            )
        return 0

    if verb == "connected":
        m = _load(args)
        limit = budgets.resolve_budget(args.budget, budgets.CIRCUIT_ENUMERATION)
        parts = components(m, limit)
        _emit(
            args,
            verb,
            {"connected": parts.is_connected, "blocks": len(parts)},
            [f"connected: {'true' if parts.is_connected else 'false'}"],
        )
        return 0

    if verb == "link":
        m = _load(args)
        x = _read_set(m.ground, args.x)
        y = _read_set(m.ground, args.y)
        limit = budgets.resolve_budget(args.budget, budgets.LINKING_FREE)
        solver = constructive_linking if args.constructive else linking_partition
        result = solver(m, x, y, limit)
        if args.trace is not None:
            with open(args.trace, "w", encoding="utf-8") as fh:
                for entry in result.trace:
                    fh.write(json.dumps(entry, sort_keys=True) + "\n")
        _emit(
            args,
            verb,
            {"result": result.to_jsonable()},
            [
                f"kappa(X, Y) = {result.target}",
                f"contract = {{{','.join(result.spec.contract)}}}",
                f"delete   = {{{','.join(result.spec.delete)}}}",
                f"achieved = {result.achieved}",
            ],
        )
        return 0

    if verb == "family":
        if args.budget is not None and args.operation != "window-info":
            raise DomainError("--budget applies only to family window-info")
        family = _family(args)
        default = StabilizationPolicy()
        policy = StabilizationPolicy(
            max_window=default.max_window if args.window is None else args.window,
            plateau_length=(
                default.plateau_length if args.plateau is None else args.plateau
            ),
        )
        if args.operation == "window-info":
            if args.window is None:
                raise DomainError("window-info needs --window")
            payload, lines = _summary_payload(family.window(args.window), args.budget)
            _emit(args, verb, {"window": args.window, "matroid": payload}, lines)
            return 0
        if args.x is None or args.y is None:
            raise DomainError(f"family {args.operation} needs --x and --y")
        x_labels = [s for s in args.x.split(",") if s]
        y_labels = [s for s in args.y.split(",") if s]
        certs = [certified_separation(family, c) for c in args.certificate]
        if args.operation == "kappa-between":
            report = stabilized_kappa_between(family, x_labels, y_labels, policy, certs)
            lines = [
                f"family {family.family_id}",
                "window values: "
                + " ".join(f"{n}:{v}" for n, v in report.values),
                f"stable_at: {report.stable_at}",
                f"certified: {report.certified_value}"
                + (f" (by {report.certificate})" if report.certificate else ""),
            ]
            _emit(args, verb, {"report": report.to_jsonable()}, lines)
            return 0
        if args.operation == "link":
            result = windowed_linking(family, x_labels, y_labels, policy, certs)
            _emit(
                args,
                verb,
                {"result": result.to_jsonable()},
                [
                    f"window {result.window_index}, achieved = {result.achieved}",
                    f"contract = {{{','.join(result.spec.contract)}}}",
                    f"delete   = {{{','.join(result.spec.delete)}}} "
                    "plus everything outside the window",
                ],
            )
            return 0

    raise DomainError(f"unhandled verb {verb!r}")


def parse_and_run(argv: list[str]) -> int:
    """Run one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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

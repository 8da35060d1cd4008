"""Finite matroid toolkit built around a rank-free connectivity function.

Matroids are independence oracles over ordered ground sets; duals and
minors wrap oracles of other matroids.  The connectivity value of a split
is the number of elements that must be removed from the union of two
one-side bases to restore independence, the same number the classical
rank formula gives on finite matroids.  On top of it the package offers
connected components, k-separations, connectivity-preserving minor
partitions (found by search or constructively), and windowed
approximations of infinite finitary families with certified limits.

What loads when.  ``import matroid_kappa`` loads the finite toolkit:
``errors``, ``budgets``, ``core`` (oracles, greedy bases and ranks),
``constructions`` (duals, minors, sums, components) and ``connectivity``
(``kappa``, ``kappa(X, Y)``, separations).  The other four submodules,
``linking``, ``windows``, ``axioms`` and ``fileformat``, load on the
first access to one of their names or to the submodule itself (PEP 562);
from then on every name of a loaded submodule is an ordinary package
attribute.  A session that only asks finite connectivity questions never
compiles or runs their code, about half of the package's source.

The split keeps module compiles out of calls whose time matters.
Everything a finite connectivity query touches is eager, so its first
call costs what later ones do, even in a process that re-imports the
package before every batch of queries.  A long-lived caller loads what
it needs up front: ``matroid_kappa.cli`` imports every layer when it
loads, not when a verb first runs.  ``core.explicit_matroid`` loads the
axiom checker when it first checks a family, as it always has.
"""

import sys
from importlib import import_module

# every public name, by the submodule that defines it
_EXPORTS_BY_MODULE = {
    "errors": (
        "CapacityError",
        "DomainError",
        "InvariantViolation",
        "MatroidError",
        "PreconditionError",
        "UniverseMismatchError",
    ),
    "core": (
        "ElementSet",
        "GroundSet",
        "Matroid",
        "explicit_matroid",
        "free_matroid",
        "gf2_matroid",
        "graphic_matroid",
        "uniform_matroid",
    ),
    "constructions": (
        "ComponentPartition",
        "MinorSpec",
        "components",
        "contract",
        "delete",
        "direct_sum",
        "dual",
        "lift_circuit",
        "restrict",
        "take_minor",
    ),
    "connectivity": (
        "Separation",
        "del_count",
        "find_separation",
        "is_k_connected",
        "kappa",
        "kappa_between",
        "kappa_rank_formula",
    ),
    "linking": (
        "CircuitChain",
        "LinkingResult",
        "breaking_circuits",
        "constructive_linking",
        "extends_to_separation",
        "infinite_kappa_chain",
        "linking_partition",
    ),
    "windows": (
        "InfiniteFamily",
        "SeparationCertificate",
        "StabilizationPolicy",
        "StabilizationReport",
        "WindowedLinkingResult",
        "certified_separation",
        "double_ladder",
        "graph_rule_family",
        "infinite_uniform",
        "ladder_rungs",
        "omega_tree_truncation",
        "rung_partition_counterexample",
        "stabilized_kappa_between",
        "windowed_linking",
    ),
    "axioms": ("AxiomCheck", "AxiomReport", "check_axioms"),
    "fileformat": (
        "ParseError",
        "matroid_summary",
        "parse_label_set",
        "parse_matroid_file",
        "parse_matroid_text",
        "set_to_jsonable",
    ),
}
_LAZY = ("linking", "windows", "axioms", "fileformat")
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = sorted(_EXPORTS)


def _bind(module: str) -> None:
    loaded = sys.modules[f"{__name__}.{module}"]
    for name in _EXPORTS_BY_MODULE[module]:
        globals()[name] = getattr(loaded, name)


for _module in _EXPORTS_BY_MODULE:
    if _module not in _LAZY:
        import_module(f".{_module}", __name__)
        _bind(_module)
del _module


def __getattr__(name: str):
    module = _EXPORTS.get(name, name if name in _LAZY else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f".{module}", __name__)
    # a lazy submodule loads the lazy ones it depends on (windows loads
    # linking); their names are bound too, so no later access comes here
    for lazy in _LAZY:
        if f"{__name__}.{lazy}" in sys.modules:
            _bind(lazy)
    return loaded if name == module else globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY))

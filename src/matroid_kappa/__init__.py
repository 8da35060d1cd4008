"""Finite matroid toolkit built around a rank-free connectivity function.

Matroids are independence oracles over ordered ground sets; duals and
minors wrap oracles of other matroids.  The connectivity value of a split
is the number of elements that must be removed from the union of two
one-side bases to restore independence, the same number the classical
rank formula gives on finite matroids.  On top of it the package offers
connected components, k-separations, connectivity-preserving minor
partitions (found by search or constructively), and windowed
approximations of infinite finitary families with certified limits.
"""

from .axioms import AxiomCheck, AxiomReport, check_axioms
from .connectivity import (
    Separation,
    del_count,
    find_separation,
    grow_pair,
    is_k_connected,
    kappa,
    kappa_between,
    kappa_rank_formula,
)
from .constructions import (
    ComponentPartition,
    MinorSpec,
    components,
    contract,
    delete,
    direct_sum,
    dual,
    lift_circuit,
    restrict,
    take_minor,
)
from .core import (
    ElementSet,
    GroundSet,
    Matroid,
    explicit_matroid,
    free_matroid,
    gf2_matroid,
    graphic_matroid,
    uniform_matroid,
)
from .errors import (
    CapacityError,
    DomainError,
    InvariantViolation,
    MatroidError,
    PreconditionError,
    UniverseMismatchError,
)
from .fileformat import (
    ParseError,
    matroid_summary,
    parse_label_set,
    parse_matroid_file,
    parse_matroid_text,
    set_to_jsonable,
)
from .linking import (
    CircuitChain,
    LinkingResult,
    breaking_circuits,
    constructive_linking,
    extends_to_separation,
    infinite_kappa_chain,
    linking_partition,
)
from .windows import (
    InfiniteFamily,
    SeparationCertificate,
    StabilizationPolicy,
    StabilizationReport,
    WindowedLinkingResult,
    certified_separation,
    double_ladder,
    graph_rule_family,
    infinite_uniform,
    ladder_rungs,
    omega_tree_truncation,
    rung_partition_counterexample,
    stabilized_kappa_between,
    windowed_linking,
)

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "CapacityError",
    "CircuitChain",
    "ComponentPartition",
    "DomainError",
    "ElementSet",
    "GroundSet",
    "InfiniteFamily",
    "InvariantViolation",
    "LinkingResult",
    "Matroid",
    "MatroidError",
    "MinorSpec",
    "ParseError",
    "PreconditionError",
    "Separation",
    "SeparationCertificate",
    "StabilizationPolicy",
    "StabilizationReport",
    "UniverseMismatchError",
    "WindowedLinkingResult",
    "breaking_circuits",
    "certified_separation",
    "check_axioms",
    "components",
    "constructive_linking",
    "contract",
    "del_count",
    "delete",
    "direct_sum",
    "double_ladder",
    "dual",
    "explicit_matroid",
    "extends_to_separation",
    "find_separation",
    "free_matroid",
    "gf2_matroid",
    "graph_rule_family",
    "graphic_matroid",
    "grow_pair",
    "infinite_kappa_chain",
    "infinite_uniform",
    "is_k_connected",
    "kappa",
    "kappa_between",
    "kappa_rank_formula",
    "ladder_rungs",
    "lift_circuit",
    "linking_partition",
    "matroid_summary",
    "omega_tree_truncation",
    "parse_label_set",
    "parse_matroid_file",
    "parse_matroid_text",
    "restrict",
    "rung_partition_counterexample",
    "set_to_jsonable",
    "stabilized_kappa_between",
    "take_minor",
    "uniform_matroid",
    "windowed_linking",
]

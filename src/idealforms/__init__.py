"""Symbolic engine for a family of ideals on countable sets.

The package normalizes ideal expressions to canonical forms, compiles
them into tree schemas whose restrictions of the well-founded ideal
realize them, classifies arbitrary schemas (with embedding witnesses in
the non-Borel case), decides membership of finitely presented query sets
with checkable certificates, and maps scattered countable linear orders
to the same classification.

Submodules load on first use (PEP 562): ``import idealforms`` runs none
of them, and a public name imports its defining module the first time it
is looked up, so a CLI verb pays only for the modules it runs.
"""

import sys as _sys

# each public name, by the submodule that defines it
_EXPORTS = {
    "errors": "FiniteSchema IdealFormsError NotASubset NotLimit ParseError "
              "QuotientOverflow UnknownContainment",
    "ideals": "CanonicalForm IdealExpr Kind b_rank combine iso_check normalize perp",
    "ordinals": "Ordinal OrdKind add compare fund_seq kind",
    "classification": "Borel NonBorel TreeClass classify classify_via_derivative "
                      "scaffold_class",
    "queries": "FinSet Transversal Union",
    "membership": "Ternary frechet_witness id_witness member_of member_perp q_in_id q_in_wf "
                  "subset_of",
    "oracle": "Budget check_witness enumerate_schema explicit_derivative law_suite",
    "orders": "LinTerm NonScattered Scattered WoClass rationalize scattered_check "
              "wo_classify wo_self_dual",
    "rank": "tree_rank",
    "trees": "QueryTerm TreeSchema compile_ideal cone_of in_id in_wf member_elem",
    "text": "parse_expr parse_order parse_ordinal parse_query parse_tree",
    "witnesses": "DominatingBranch EmbeddingWitness UnboundedFamily",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "cli_ideals", "cli_oracle", "cli_orders", "cli_schemas",
                                      "hashcons", "laws", "quotient"}

__all__ = sorted(_MODULE_OF)


def _submodule(name: str):
    # __import__ rather than importlib, so that -X importtime lists the load
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_submodule(module), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)

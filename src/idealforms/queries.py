"""Query terms: finitely presented sets of sequences, and their points.

A query is a schema as it stands (``trees.QueryTerm``), an explicit
finite set, a fan transversal or a finite union.  This module holds the
terms and their denotation, which both the decision procedures of
``membership`` and the oracle that re-checks them read; it decides no
containment and builds no witness.
"""

from __future__ import annotations

from typing import Optional

from . import trees
from .errors import BadArgument
from .hashcons import Algebra, _fold
from .trees import Fan, QueryTerm, Seq, TreeSchema


class FinSet(QueryTerm):
    """An explicit finite set.  It is answered from its elements, not a
    schema: the prefix trie of ``<1000000000>`` would be a fan of a billion
    heads, where these paths cost the length of the text."""

    __slots__ = __match_args__ = ("elements",)

    def _init(self, elements: tuple[Seq, ...]) -> None:
        self.elements = elements
        if len(set(elements)) != len(elements):
            raise BadArgument(f"finite set elements must be pairwise distinct: {self}")


class Transversal(QueryTerm):
    """Shortlex-least element of every nonempty block of a fan."""

    __slots__ = __match_args__ = ("fan",)

    def _init(self, fan: TreeSchema) -> None:
        if not isinstance(fan, Fan):
            raise BadArgument(f"transversal is only defined over a fan, got {fan}")
        self.fan = fan


class Union(QueryTerm):
    __slots__ = ("left", "right", "_leaves")  # _leaves: the _LEAVES fact
    __match_args__ = ("left", "right")


# --------------------------------------------------------------------------
# query denotation
#
# Union is associative, so every fact about a query reads the leaves of
# its union nest, which one loop lists, and never walks the nest itself.


def _flatten(q: Union, answers: list) -> tuple[QueryTerm, ...]:
    out, stack = [], [q]
    while stack:
        x = stack.pop()
        if type(x) is Union:
            stack += (x.right, x.left)
        elif isinstance(x, QueryTerm):
            out.append(x)
        else:
            raise TypeError(f"not a query term: {x!r}")
    return tuple(dict.fromkeys(out))


_LEAVES = Algebra("_leaves", _flatten, kids=lambda q: ())


def _leaves(q: QueryTerm) -> tuple[QueryTerm, ...]:
    """The schemas, finite sets and transversals of a union nest, left to
    right, each once: leaves are interned, and a repeated one adds nothing.
    A union's are its ``_LEAVES`` fact, which one loop fills on the union
    asked alone: the unions below it stay bare."""
    if type(q) is not Union and isinstance(q, QueryTerm):
        return (q,)
    return _fold(q, _LEAVES)


def _transversal_pick(f: Fan, n: int, known: Optional[dict] = None) -> Optional[Seq]:
    # known: trees.pick_least's map of picks, shared by one walk over the blocks
    p = trees.pick_least(trees.block_at(f, n), known)
    return None if p is None else (n,) + p


def q_member(u: Seq, q: QueryTerm, known: Optional[dict] = None) -> bool:
    for x in _leaves(q):
        match x:
            case TreeSchema() if trees.member_elem(u, x, known):
                return True
            case FinSet(elements) if u in elements:
                return True
            case Transversal(fan) if u and u == _transversal_pick(fan, u[0]):
                return True
    return False

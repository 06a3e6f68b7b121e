"""Hash-consing of terms (Filliatre & Conchon, ML Workshop 2006).

Every ordinal and syntax term (``IdealExpr``, ``LinTerm``, ``QueryTerm``,
of which each schema is one), and the small records built from them, is
built through ``_intern``, so structurally equal terms are one object:
``==`` and ``hash`` are identity, validation runs once per distinct term,
and facts derived from a term are memoized in private slots on the term.
The table holds terms weakly; an unreferenced term leaves it, together
with everything memoized on it.  So a memo decides how long the terms
it holds live.  The tail of a chain level builds the level below when
first read and keeps it, so a chain unfolds as far as it is read and
lives as long as its top level.  A successor rank holds the top levels
``trees.compile_form`` compiled at it.  A diagonal tail holds the tails
of its blocks, never their ranks: nothing that holds the tail holds
those ranks, and a limit rank would form a cycle with its diagonal tail.
A memo holds only terms its owner would keep alive anyway, but a spine's
quotient classes hold its zero-cone, no larger than the spine; no memo
names its own term, which would then outlive ``gc.collect()``.

Every sort of term is a term algebra, so every fact computed bottom-up
over a sort is one ``Algebra`` run by the one traversal ``_fold``
(a catamorphism; Meijer, Fokkinga & Paterson, FPCA 1991), which stores
each answer in a slot of the term.  ``_fold`` alone asks whether a slot
is filled, and fills all but the seeded ones; a fact read off one term,
such as a union's leaves or a vertex's quotient classes, is an
``Algebra`` with no children.  A diagonal tail's ``_blocks`` and a rank's
``_levels`` are set when the term is built.  Seeded facts, each for its
reason: ``trees._level`` sets a chain level's ``_empty`` and ``_depth``,
so neither folds the levels below it (``P(100000000)``);
``trees._Algebra`` stores its leaf answers when made, and its folds set
``_empty``, which the next fold reads to find live heads; a level's
``Const`` tail builds its block when first read.

``str`` and ``repr`` of a ``Term`` both call the grammars' one printer,
``text.format_term``, whose text names the term: ``parse(str(t)) is t``.
"""

from __future__ import annotations

import weakref
from importlib import import_module
from operator import attrgetter
from _weakref import _remove_dead_weakref
from typing import Callable

_TABLE: dict[tuple, _Ref] = {}


class _Ref(weakref.ref):
    """Weak reference to an interned term that knows the term's key."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    # runs when a term dies; removes its entry unless a live term holds it
    _remove_dead_weakref(_TABLE, ref.key)


def _intern(*key) -> Interned:
    """The one live term with this key: its class, then its fields.  Fields
    are ints, canonical forms or interned terms (or tuples of them), so the
    key hashes in time linear in its size, never in the depth of the term."""
    ref = _TABLE.get(key)
    node = None if ref is None else ref()
    if node is not None:
        return node
    node = object.__new__(key[0])
    node._init(*key[1:])
    ref = _Ref(node, _forget)
    ref.key = key
    # setdefault inserts atomically, so racing builders all get one term
    while (old := _TABLE.setdefault(key, ref)) is not ref:
        if (live := old()) is not None:
            return live
        _remove_dead_weakref(_TABLE, key)  # a dead term whose callback is pending
    return node


class Interned:
    """Base of hash-consed terms; ``__match_args__`` names the fields, which a record prints."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()
    __new__ = _intern

    def _init(self, *fields) -> None:
        """Set and validate the fields of a new term; raising keeps it out
        of the table.  This default stores the fields named in
        ``__match_args__``; subclasses that validate override it."""
        names = self.__match_args__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            setattr(self, name, value)

    def __getnewargs__(self) -> tuple:  # copy and pickle intern again
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __getstate__(self) -> None:
        # memo slots are not copied: a rank would carry its whole chain
        return None

    def __repr__(self) -> str:  # the records with no grammar hold no deep term
        return f"{type(self).__name__}({', '.join(map(repr, self.__getnewargs__()))})"

    def __str__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(str, self.__getnewargs__()))})"


text = None  # the printer's module, bound on the first print: it imports this one


class Term(Interned):
    """Base of the terms of a grammar (docs/grammar.md).  ``str`` is the
    term's text and ``repr`` names its class around it, ``Ordinal[w^2]``."""

    __slots__ = ()

    def __str__(self) -> str:
        global text
        if text is None:
            text = import_module(".text", __package__)
        return text.format_term(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{self}]"


class Algebra:
    """One bottom-up fact about the terms of a sort, memoized by ``_fold``
    in the slot ``slot`` of every term it reaches.

    ``node(t, answers)`` is the answer at ``t`` from the answers of its
    children ``kids(t)``, in order.  For expressions and orders the
    children are ``text.children``: the fields the grammar's shape reads
    as a sort, so a rank in an expression is data, not a child.
    ``answer`` reads the slot off a term.  The algebra builds it once:
    built in each fold, it made a fold that finds its slot filled about
    50 % slower.
    """

    __slots__ = ("slot", "node", "kids", "answer")

    def __init__(self, slot: str, node: Callable, kids: Callable[[Interned], list]) -> None:
        self.slot, self.node, self.kids, self.answer = slot, node, kids, attrgetter(slot)


def _fold(t: Interned, alg: Algebra):
    """The answer of ``alg`` at ``t``, read from the slot when an earlier
    fold reached ``t``.  The walk keeps its own stack, so depth costs no
    Python frames, and visits the children left to right; a node's answers
    are gathered by ``map``, which adds no frame per node."""
    slot, kids_of, node, answer = alg.slot, alg.kids, alg.node, alg.answer
    stack: list = [t]
    while stack:
        x = stack.pop()
        if type(x) is tuple:  # a term whose children are all done
            x, kids = x
            setattr(x, slot, node(x, [*map(answer, kids)]))
        elif not hasattr(x, slot):
            kids = kids_of(x)
            stack.append((x, kids))
            stack += reversed(kids)
    return getattr(t, slot)

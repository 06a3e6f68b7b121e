"""Tree schemas: finite terms denoting subsets of the finite sequences.

A schema denotes a (usually infinite) set of finite integer sequences.
Fans hang translated blocks under the children of the root; spines hang
copies at the nodes ``0^n 1`` along the all-zero branch.  Diagonal tails
index their blocks by the fundamental sequence of a limit rank and denote
compiled canonical schemas, so the language is closed under the compiler
below and under taking cones.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Optional

from . import ideals, ordinals
from .errors import NotLimit
from .hashcons import Algebra, Term, _fold, _intern
from .ideals import CanonicalForm, IdealExpr, Kind
from .ordinals import Ordinal, OrdKind

Seq = tuple[int, ...]


class QueryTerm(Term):
    """Base class for finitely presented query sets (``queries``), schemas included."""

    __slots__ = ()


class TreeSchema(QueryTerm):
    """Base class for schema terms; all subtypes are immutable and interned."""

    # one slot per schema Algebra: the facts _fold memoizes on each term
    __slots__ = ("_empty", "_pick", "_bound", "_depth", "_wf", "_id", "_rank", "_cls",
                 "_scaffold", "_via", "_classes")


class SchemaSeq(Term):
    """Base class for block sequences used as fan/spine tails."""

    __slots__ = ()


class Empty(TreeSchema):
    """The empty set."""

    __slots__ = ()


class Eps(TreeSchema):
    """The singleton holding the empty sequence."""

    __slots__ = ()


class Chain(TreeSchema):
    """The set of all-zero sequences of positive length."""

    __slots__ = ()


class Full(TreeSchema):
    """Every finite sequence."""

    __slots__ = ()


class Rooted(TreeSchema):
    """The child set plus the empty sequence (cones of chains need this)."""

    __slots__ = __match_args__ = ("child",)
    child: TreeSchema

    def _init(self, child: TreeSchema) -> None:
        self.child = child


class _Blocks(TreeSchema):
    """Head blocks followed by the blocks of a tail sequence."""

    __slots__ = __match_args__ = ("heads", "tail")
    heads: tuple[TreeSchema, ...]
    tail: SchemaSeq

    def _init(self, heads: tuple[TreeSchema, ...], tail: SchemaSeq) -> None:
        self.heads, self.tail = heads, tail


class Fan(_Blocks):
    """Block n translated under child n; heads first, then the tail blocks."""

    __slots__ = ()


class Spine(_Blocks):
    """Copy n translated under 0^n 1 along the all-zero branch."""

    __slots__ = ()


class Const(SchemaSeq):
    """Every block is ``block``.  A chain level's tail is interned by the
    kind and rank of the level below (``p`` and ``rank``, else None) and
    builds it when first read; ``Const`` of a level is that tail, so
    parsed, compiled and diagonal levels are one object."""

    __slots__ = ("block", "p", "rank")
    __match_args__ = ("block",)
    block: TreeSchema

    def __new__(cls, block: TreeSchema) -> Const:
        out = _intern(cls, *(_level_of(block) or (block,)))
        out.block = block
        return out

    def _init(self, *fields) -> None:
        self.p, self.rank = fields if len(fields) == 2 else (None, None)

    def __getattr__(self, name: str) -> TreeSchema:
        if name != "block":  # only a level's tail builds a field on demand
            raise AttributeError(name)
        self.block = _level(self.p, self.rank)
        return self.block


class _Diag(SchemaSeq):
    """Block n is the compiled schema at stage ``rank[n + offset]``."""

    # _blocks: the tail of block i by index, empty when built, whose key holds
    # the block's rank; never on that rank, which a client may hold apart
    __slots__ = ("rank", "offset", "_blocks")
    __match_args__ = ("rank", "offset")
    rank: Ordinal
    offset: int

    def __new__(cls, rank: Ordinal, offset: int = 0) -> _Diag:
        return _intern(cls, rank, offset)

    def _init(self, rank: Ordinal, offset: int) -> None:
        if ordinals.kind(rank) is not OrdKind.LIMIT:
            raise NotLimit(f"diagonal tail needs a limit rank, got {rank}")
        self.rank, self.offset, self._blocks = rank, offset, {}


class QDiag(_Diag):
    """Block n denotes the compiled Q-schema at the n-th fundamental stage."""

    __slots__ = ()


class PDiag(_Diag):
    """Block n denotes the compiled P-schema at the n-th fundamental stage."""

    __slots__ = ()


def _level_of(t: TreeSchema) -> Optional[tuple[bool, Ordinal]]:
    """Whether a chain level ``t`` is a P-level, and its rank; None for any
    other term."""
    if t is CHAIN:
        return False, ordinals.ZERO
    if type(t) is not Fan and type(t) is not Spine or t.heads:
        return None
    p, tail = type(t) is Fan, t.tail
    if type(tail) is not Const:
        return (p, tail.rank) if type(tail) is (QDiag if p else PDiag) and not tail.offset else None
    if tail.rank is None:
        return (True, ordinals.ZERO) if p and tail.block is EPS else None
    return (p, ordinals.succ(tail.rank)) if tail.p is not p else None


EMPTY = Empty()
EPS = Eps()
CHAIN = Chain()
FULL = Full()
CONST_EMPTY = Const(EMPTY)
CONST_FULL = Const(FULL)
# the entries member_elem walks between lookups in a batch's map: a miss costs about two steps
_CHUNK = 8


# --------------------------------------------------------------------------
# schema algebras: the facts hashcons._fold computes bottom-up


def _same(answer):
    return answer


class _Algebra(Algebra):
    """One bottom-up fact about schemas, memoized by ``hashcons._fold`` in
    the slot ``slot`` of every term it reaches.

    ``leaves`` holds the answers at EMPTY, EPS, CHAIN and FULL (stored in
    their slots at once).  ``rooted`` maps a nonempty child's answer to
    the answer of ``Rooted(child)``; with an empty child it denotes EPS.
    ``node(t, heads, tail)`` answers for a fan or spine ``t``: ``heads``
    pairs the index and answer of every nonempty head, and ``tail`` is
    None for a trivial tail, the block's answer for a constant tail, and
    ``diag(tail)`` for a diagonal tail, or block 0's answer when ``diag``
    is None.  No answer of a nonempty term is None: unbounded lengths and
    entries are ``math.inf``.  Each term folded also gets its emptiness
    in ``_empty``, which the next fold reads to find live heads and
    trivial tails.
    """

    __slots__ = ()

    def __init__(
        self,
        slot: str,
        leaves: dict[TreeSchema, object],
        node: Callable,
        rooted: Callable = _same,
        diag: Optional[Callable[[SchemaSeq], object]] = None,
    ) -> None:
        for leaf, answer in leaves.items():
            setattr(leaf, slot, answer)
        eps = leaves[EPS]

        def kids(t: TreeSchema) -> tuple:
            # the heads, then the child that decides a rooted node or a tail
            if type(t) is Rooted:
                return (t.child,)
            if type(t) is not Fan and type(t) is not Spine:
                raise TypeError(f"not a schema: {t!r}")
            tail = t.tail
            if type(tail) is Const:
                return t.heads + (tail.block,) if t.heads else (tail.block,)
            return t.heads + (seq_block(tail, 0),) if diag is None else t.heads

        def whole(t: TreeSchema, answers: list):
            if type(t) is Rooted:
                t._empty = False
                return eps if t.child._empty else rooted(answers[0])
            heads = [(n, answers[n]) for n, h in enumerate(t.heads) if not h._empty] if t.heads else []
            tail = t.tail
            if type(tail) is Const:
                last = None if tail.block._empty else answers[-1]
            else:
                last = answers[-1] if diag is None else diag(tail)
            t._empty = not heads and last is None
            return node(t, heads, last)

        super().__init__(slot, whole, kids=kids)


# --------------------------------------------------------------------------
# compiling canonical forms into schemas


def compile_form(c: CanonicalForm) -> TreeSchema:
    """Schema whose denoted set restricts the well-founded ideal to ``c``:
    for a P- or Q-form, the top ``_level`` of its chain.  A successor rank
    keeps the levels compiled at it in ``_levels`` (Q-level, P-level), so
    a chain and the facts folded on it live as long as its rank; a store
    lost to a racing compile loses only that shortcut."""
    rank, pq = c.rank, c.kind is Kind.PQ
    levels = rank._levels or [None, None]
    for p in (True, False) if pq else (c.kind is Kind.P,):
        levels[p] = levels[p] or _level(p, rank)
    if ordinals.kind(rank) is OrdKind.SUCCESSOR:
        rank._levels = levels
    return Fan((levels[True], levels[False]), CONST_EMPTY) if pq else levels[c.kind is Kind.P]


def _level(p: bool, rank: Ordinal) -> TreeSchema:
    """The P-level (``p``) or Q-level of the chain at ``rank``; above a zero
    or limit rank its tail is the ``Const`` that builds the other level one
    rank down when first read.  A level is never empty, and above zero its
    lengths are unbounded: saying so keeps ``is_empty`` and ``is_finite``
    from folding the levels below."""
    if rank is ordinals.ZERO:
        return Fan((), Const(EPS)) if p else CHAIN
    if not rank.nat:  # a limit rank
        return Fan((), QDiag(rank)) if p else Spine((), PDiag(rank))
    out = _intern(Fan if p else Spine, (), _intern(Const, not p, ordinals.pred(rank)))
    out._empty, out._depth = False, math.inf
    return out


def compile_ideal(e: IdealExpr) -> TreeSchema:
    return compile_form(ideals.normalize(e))


def seq_block(tail: SchemaSeq, i: int) -> TreeSchema:
    """Denoted block ``i`` of a tail sequence."""
    if type(tail) is Const:
        return tail.block
    if not isinstance(tail, _Diag):
        raise TypeError(f"not a schema sequence: {tail!r}")
    memo = tail._blocks
    out = memo.get(i)
    if out is None:
        rank = ordinals.fund_seq(tail.rank, i + tail.offset)
        out = memo[i] = _intern(Const, isinstance(tail, PDiag), rank)
    return out.block


def shift_tail(tail: SchemaSeq, k: int) -> SchemaSeq:
    if k == 0 or isinstance(tail, Const):
        return tail
    if isinstance(tail, _Diag):
        return type(tail)(tail.rank, tail.offset + k)
    raise TypeError(f"not a schema sequence: {tail!r}")


def block_at(node: Fan | Spine, n: int) -> TreeSchema:
    if n < len(node.heads):
        return node.heads[n]
    tail = node.tail  # a constant tail's block is read without a call
    return tail.block if type(tail) is Const else seq_block(tail, n - len(node.heads))


def tail_is_trivial(tail: SchemaSeq) -> bool:
    """True when the tail contributes no elements at all."""
    return isinstance(tail, Const) and is_empty(tail.block)


# --------------------------------------------------------------------------
# denotation basics


_EMPTY = _Algebra(
    "_empty",
    {EMPTY: True, EPS: False, CHAIN: False, FULL: False},
    lambda t, heads, tail: not heads and tail is None,
    diag=lambda tail: False,
)


def is_empty(t: TreeSchema) -> bool:
    return _fold(t, _EMPTY)


def is_finite(t: TreeSchema) -> bool:
    # a set of sequences is finite iff its lengths and entries are bounded
    return _fold(t, _DEPTH) < math.inf and _entry_bound(t) < math.inf


def member_elem(u: Seq, t: TreeSchema, known: Optional[dict] = None) -> bool:
    """Point membership of a sequence in the denoted set: its cone holds
    the empty sequence (Brzozowski, 1964).

    ``known``, shared by one batch, maps (cone, entries left) at each chunk
    boundary an earlier sequence passed to it and its final cone.  A sequence
    longer than ``_CHUNK`` walks ``cone_of`` a chunk at a time, the boundaries
    lying where a multiple of ``_CHUNK`` entries is left, and stops with the
    stored cone where the stored sequence has the same rest.  This is exact:
    the cone of ``v + w`` is the cone of ``w`` in the cone of ``v``."""
    end = len(u)
    if known is None or end <= _CHUNK:
        t = cone_of(t, u)
    else:
        i, passed = end % _CHUNK, []
        if i:
            t = cone_of(t, u[:i])
        while i < end:
            key = (t, end - i)
            if (hit := known.get(key)) is not None and hit[0][i - end:] == u[i:]:
                t = hit[1]
                break
            passed.append(key)
            t = cone_of(t, u[i:i + _CHUNK])
            i += _CHUNK
        known.update(dict.fromkeys(passed, (u, t)))
    return t is EPS or t is FULL or type(t) is Rooted


def spine_root(n: int) -> Seq:
    return (0,) * n + (1,)


def cone_of(t: TreeSchema, u: Seq) -> TreeSchema:
    """Schema of the elements extending ``u``, re-rooted at ``u`` (the
    derivative of Brzozowski, 1964).

    The walk carries its position in ``u`` instead of slicing it, and
    builds a term only where it stops.  At a spine it reads the run of
    zeros at once: a run that ends ``u`` leaves the spine with its blocks
    below the run's length fallen away, a run ended by 1 enters the copy it
    names, and one ended by any other entry falls out of every block.
    """
    i, end = 0, len(u)
    while i < end:
        kind = type(t)
        if kind is Fan:
            t = block_at(t, u[i])
            i += 1
        elif kind is Spine:
            j = i
            while j < end and u[j] == 0:
                j += 1
            if j == end:
                zeros, heads = end - i, t.heads
                return Spine(heads[zeros:], shift_tail(t.tail, max(zeros - len(heads), 0)))
            if u[j] != 1:
                return EMPTY
            t = block_at(t, j - i)
            i = j + 1
        elif kind is Rooted:
            t = t.child
        elif t is CHAIN:
            return EMPTY if any(u[i:]) else Rooted(CHAIN)
        elif not isinstance(t, TreeSchema):
            raise TypeError(f"not a schema: {t!r}")
        else:
            return FULL if t is FULL else EMPTY
    if not isinstance(t, TreeSchema):
        raise TypeError(f"not a schema: {t!r}")
    return t


def gen_member(u: Seq, t: TreeSchema) -> bool:
    """Membership of ``u`` in the tree generated by the denoted set: some
    element extends ``u``."""
    return not is_empty(cone_of(t, u))


def derivatives(t: TreeSchema) -> tuple[tuple[TreeSchema, ...], SchemaSeq]:
    """The one-letter cones of ``t`` as the heads and tail of a fan:
    ``cone_of(t, (n,))`` is head ``n``, then block ``n - len(heads)`` of the
    tail.  So the letter classes are a fan's heads and one tail letter, a
    spine's 0, 1 and the rest, a chain's 0 and the rest, and one class for
    a full set and the other leaves."""
    while type(t) is Rooted:
        t = t.child
    if type(t) is Fan:
        return t.heads, t.tail
    if type(t) is Spine:
        return (cone_of(t, (0,)), block_at(t, 0)), CONST_EMPTY
    if t is CHAIN:
        return (Rooted(CHAIN),), CONST_EMPTY
    if t is not FULL and t is not EMPTY and t is not EPS:
        raise TypeError(f"not a schema: {t!r}")
    return (), CONST_FULL if t is FULL else CONST_EMPTY


# --------------------------------------------------------------------------
# the two ideals

# Diagonal tails only ever hold compiled blocks of rank >= 1: a compiled
# Q-schema is never wholly well-founded and a compiled P-schema is only at
# rank 0, while a compiled P-schema is never branch-dominated and a compiled
# Q-schema is only at rank 0.  Both predicates are therefore constant along
# a diagonal tail and block 0 decides them.


# blocks sit under an antichain of a fan, so any branch enters one block;
# infinitely many spine copies force the zero branch
_WF = _Algebra(
    "_wf",
    {EMPTY: True, EPS: True, CHAIN: False, FULL: False},
    lambda t, heads, tail: (tail is None or type(t) is Fan and tail) and all(a for _, a in heads),
)
# a fan tail makes first coordinates unbounded; spine entries are at most
# 1 and copy offsets keep each position influenced by finitely many copies.
# So in_id(t) holds iff _entry_bound(t) < inf, which the oracle's Frechet check relies on
_ID = _Algebra(
    "_id",
    {EMPTY: True, EPS: True, CHAIN: True, FULL: False},
    lambda t, heads, tail: (tail is None or type(t) is Spine and tail) and all(a for _, a in heads),
)


def in_wf(t: TreeSchema) -> bool:
    """True iff the denoted set is contained in a well-founded tree."""
    return _fold(t, _WF)


def in_id(t: TreeSchema) -> bool:
    """True iff the denoted set is dominated by a single branch."""
    return _fold(t, _ID)


def _depth_node(t: Fan | Spine, heads: list, tail):
    if isinstance(t, Fan):
        bounds = [1 + b for _, b in heads] + ([] if tail is None else [1 + tail])
    elif tail is not None:
        return math.inf  # copy roots alone have unbounded length
    else:
        bounds = [n + 1 + b for n, b in heads]
    deepest = max(bounds, default=0)
    return math.inf if deepest == math.inf else deepest  # one inf, not a new one per node


_DEPTH = _Algebra(
    "_depth",
    {EMPTY: 0, EPS: 0, CHAIN: math.inf, FULL: math.inf},
    _depth_node,
    diag=lambda tail: math.inf,
)


def depth_bound(t: TreeSchema) -> Optional[int]:
    """Maximum element length, or None when lengths are unbounded."""
    out = _fold(t, _DEPTH)
    return None if out == math.inf else out


# --------------------------------------------------------------------------
# bounded enumeration and picks


def iter_len(t: TreeSchema, length: int, max_entry: int, need: bool = False) -> Iterator[Seq]:
    """Denoted elements of exact ``length`` with entries <= max_entry, in
    lexicographic order, produced lazily; with ``need``, only those holding
    an entry equal to ``max_entry``.

    The flag lets the oracle generate one stage of its canonical order
    directly: each constructor passes it on to a block, or drops it once
    the element's own entry (a fan index, a spine root's 1) meets it.
    Four structural facts prune the walk, and none is a fact the oracle
    checks (no ``in_wf``, ``in_id``, rank or classifier is consulted):

    - an empty block is skipped;
    - fan, spine and transversal indices stop at the head count when the
      tail is trivial, and tail indices keep to the window that the tail
      block's least length and depth bound leave for ``length``;
    - nothing is shorter than the least length the ``_pick`` fact holds;
    - with ``need``, a block whose entry bound is below ``max_entry`` is
      skipped.

    The walk keeps its own stack of the fans and spines on the way down,
    each with the blocks still to visit, so depth costs no Python frames
    and a rooted layer costs nothing.
    """
    path: list[int] = []  # the entries of the element being built
    # per fan or spine on the way down: where its entries start in path,
    # the term, the indices of its blocks still to visit, and the length
    # and flag it was given
    stack: list[tuple] = []
    while True:
        while type(t) is Rooted and length:
            t = t.child
        least = least_length(t)
        if least is not None and length >= least and not (need and _entry_bound(t) < max_entry):
            kind = type(t)
            if kind is Eps or kind is Rooted:
                if length == 0 and not need:
                    yield tuple(path)
            elif kind is Chain:
                if not need or max_entry == 0:
                    yield tuple(path) + (0,) * length
            elif kind is Full:
                prefix = tuple(path)
                for u in itertools.product(range(max_entry + 1), repeat=length):
                    if not need or max_entry in u:
                        yield prefix + u
            else:
                stack.append((len(path), t, _indices(t, length, max_entry), length, need))
        while stack:  # the next block to visit
            base, parent, ns, length, need = stack[-1]
            n = next(ns, None)
            if n is not None:
                break
            stack.pop()
        else:
            return
        del path[base:]
        t = block_at(parent, n)
        if type(parent) is Fan:
            path.append(n)
            length, need = length - 1, need and n != max_entry
        else:
            path += spine_root(n)
            length, need = length - n - 1, need and max_entry != 1  # a copy root's 1 meets it


def _indices(t: Fan | Spine, length: int, max_entry: int) -> Iterator[int]:
    """The blocks of ``t`` that hold elements of ``length`` with entries at
    most ``max_entry``, in lex order of their elements; no tail block is
    shorter or deeper than the first (a diagonal tail's blocks are levels
    at ranks >= 1, of unbounded depth), so its facts bound them all."""
    heads, block = len(t.heads), seq_block(t.tail, 0)
    least, deepest = least_length(block), _fold(block, _DEPTH)
    if type(t) is Fan:
        stop = max_entry + 1
        if least is None or not least <= length - 1 <= deepest:
            stop = min(stop, heads)
        return iter(range(stop))
    top = length - 1 if max_entry >= 1 else -1
    # copy roots 0^n 1 sort descending in n under lex order
    tails = range(-1) if least is None else range(min(top, length - 1 - least),
                                                  max(heads, length - 1 - deepest) - 1, -1)
    return itertools.chain(tails, range(min(top, heads - 1), -1, -1))


def _entry_node(t: Fan | Spine, heads: list, tail):
    fan = isinstance(t, Fan)
    if tail is not None:
        # a fan tail has unboundedly many children
        heads = heads + [(math.inf if fan else len(t.heads), tail)]
    return max([-1] + [max(b, n if fan else 1) for n, b in heads])


# every diagonal tail holds blocks with unbounded entries
_ENTRY = _Algebra(
    "_bound",
    {EMPTY: -1, EPS: -1, CHAIN: 0, FULL: math.inf},
    _entry_node,
    diag=lambda tail: math.inf,
)


def _entry_bound(t: TreeSchema) -> float:
    """Largest entry of any element: -1 when no element has one, ``inf``
    when entries are unbounded."""
    return _fold(t, _ENTRY)


def _least_node(t: Fan | Spine, heads: list, tail) -> Optional[tuple[int, int]]:
    """The least length and the block holding the least element: of the
    blocks of least length a fan's first, a spine's last (lex smaller)."""
    if tail is not None:
        heads = heads + [(len(t.heads), tail)]
    best = None
    for n, (length, _) in heads:
        length += 1 if type(t) is Fan else n + 1
        if best is None or length < best[0] or length == best[0] and type(t) is Spine:
            best = (length, n)
    return best


# along constant and diagonal tails the block picks only get longer, so the first
# tail block already carries the least candidate; a leaf or rooted node names no block
_LEAST = _Algebra("_pick", {EMPTY: None, EPS: (0, None), CHAIN: (1, None), FULL: (0, None)},
                  _least_node, rooted=lambda answer: (0, None))


def least_length(t: TreeSchema) -> Optional[int]:
    """Length of the shortlex-least denoted element; None for the empty set."""
    least = _fold(t, _LEAST)
    return None if least is None else least[0]


def pick_least(t: TreeSchema, known: Optional[dict] = None) -> Optional[Seq]:
    """Shortlex-least denoted element; None for the empty set.  The walk
    follows the blocks the ``_pick`` fact names, so no term stores a
    sequence, and stops at a term of ``known``, a map of picks that gets ``t``."""
    if least_length(t) is None:
        return None
    known = {} if known is None else known
    path, end = walk(t, lambda s: s._pick[1], lambda s: s in known or s._pick[1] is None)
    known[t] = word(path) + known.get(end, (0,) if end is CHAIN else ())
    return known[t]


def singleton(u: Seq) -> TreeSchema:
    """Schema denoting exactly the one sequence ``u``, built from its last
    entry up."""
    out = EPS
    for x in reversed(u):
        out = Fan((EMPTY,) * x + (out,), CONST_EMPTY)
    return out


def walk(t: TreeSchema, choose: Callable, stop: Callable) -> tuple[list, TreeSchema]:
    """The one walk down a schema into chosen blocks, to its least element,
    a witness or a forced prefix (an apomorphism; Vene & Uustalu, 1998):
    through rooted layers and, at each fan or spine, into the block
    ``choose`` names, until ``stop`` holds.  Returns each fan and spine
    passed with the index taken, and the term reached."""
    path = []
    while not stop(t):
        if type(t) is Rooted:
            t = t.child
        elif type(t) is Fan or type(t) is Spine:
            n = choose(t)
            path.append((t, n))
            t = block_at(t, n)
        else:
            raise AssertionError(f"the walk has no block to enter at {t}")
    return path, t


def word(path: list) -> Seq:
    """The roots of the blocks a walk took, as one sequence."""
    return tuple(x for node, n in path for x in ((n,) if type(node) is Fan else spine_root(n)))


def first_failing(t: Fan | Spine, ok: Callable[[TreeSchema], bool]) -> int:
    """Index of the first nonempty head of ``t`` on which ``ok`` fails, or of
    the first tail block when there is none: the block a walk to a witness takes."""
    for n, h in enumerate(t.heads):
        if not is_empty(h) and not ok(h):
            return n
    return len(t.heads)

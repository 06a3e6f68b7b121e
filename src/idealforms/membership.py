"""Membership of finitely presented query sets and witness extraction.

The query terms and their points are in ``queries``; this module holds
the decision procedures and the witness builders over them, which take a
schema as the query it is.  Containment in a target schema is one walk
over pairs of derivatives, exact on constant tails and bounded past
diagonal ones; membership in the compiled target ideal then reduces to
the two structural predicates.  Negative membership yields a checkable
orthogonal subset, and every domination claim ships a branch or an
unbounded family that the oracle can re-verify at any budget.  Nothing
here enumerates a query: containment walks derivatives, and the oracle
streams a query's elements itself.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Iterator, Optional

from . import ideals, queries, text, trees
from .errors import NotASubset, UnknownContainment
from .ideals import IdealExpr
from .queries import FinSet, Transversal
from .trees import Const, Fan, QueryTerm, Rooted, Seq, Spine, TreeSchema


class Ternary(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


# --------------------------------------------------------------------------
# facts of queries, read from the leaves of their union nests (see queries)


def _picks(f: Fan) -> Iterator[Seq]:
    """The transversal of a fan with infinitely many nonempty blocks; a walk
    stops at a block picked before, as a diagonal tail's blocks hold earlier ones."""
    known: dict = {}
    for n in itertools.count():
        p = queries._transversal_pick(f, n, known)
        if p is not None:
            yield p


def q_is_infinite(q: QueryTerm) -> bool:
    # a transversal is infinite when its fan has a tail
    return any(not trees.tail_is_trivial(x.fan.tail) if type(x) is Transversal
               else type(x) is not FinSet and not trees.is_finite(x)
               for x in queries._leaves(q))


# --------------------------------------------------------------------------
# the two ideal predicates on queries


def q_in_wf(q: QueryTerm) -> bool:
    # finite sets are; so are transversals, by distinct first coordinates:
    # every branch of the generated tree stops inside one pick
    return all(trees.in_wf(x) for x in queries._leaves(q) if isinstance(x, TreeSchema))


def q_in_id(q: QueryTerm) -> bool:
    # finite sets are; a transversal is when its fan has finitely many blocks
    return all(trees.tail_is_trivial(x.fan.tail) if type(x) is Transversal
               else type(x) is FinSet or trees.in_id(x)
               for x in queries._leaves(q))


# --------------------------------------------------------------------------
# containment
#
# A schema is checked by one breadth-first walk over the pairs
# (cone_of(t, u), cone_of(s, u)) of Brzozowski derivatives (JACM 1964),
# nullable when they hold the empty sequence.  Interning makes equal
# pairs one key, as in Hopcroft & Karp's pair exploration (Cornell TR
# 71-114, 1971).  One letter per class (trees.derivatives) makes the walk
# run out on constant tails, so its YES is exact.  Past the heads a
# diagonal tail has a new block per letter: those letters are free when
# the two tails align, when the query's blocks are empty or when the
# target's are full, and are otherwise taken one at a time.  Each such
# letter, and each pair holding a spine with a diagonal tail, spends one
# of _DIAG_PAIRS.  A transversal is contained when its fan is, and is
# otherwise decided by its picks: over a constant tail they form a
# schema for the same walk, and over a diagonal tail the first
# _DIAG_PAIRS of them can refute it.

_DIAG_PAIRS = 300
_SPINES = Spine((), trees.CONST_FULL)  # every sequence a spine can hold


def subset_of(q: QueryTerm, s: TreeSchema) -> Ternary:
    """Containment of a query in a schema, by one walk over pairs of
    derivatives: UNKNOWN only past diagonal tails."""
    return _containment(q, s)[0]


def _containment(q: QueryTerm, s: TreeSchema) -> tuple[Ternary, Optional[Seq]]:
    """The answer, with a counterexample for NO and for UNKNOWN the sequence
    where the walk stopped: for a transversal, the walk over its fan."""
    unknown = None
    for q in queries._leaves(q):
        match q:
            case FinSet(elements):
                bad = next((u for u in elements if not trees.member_elem(u, s)), None)
                verdict = (Ternary.YES, None) if bad is None else (Ternary.NO, bad)
            case Transversal(fan):
                verdict = _walk(fan, s)
                if verdict[0] is not Ternary.YES:
                    verdict = _picks_in(fan, s, verdict[1])
            case TreeSchema():
                verdict = _walk(q, s)
        if verdict[0] is Ternary.NO:
            return verdict
        unknown = unknown or (verdict if verdict[0] is Ternary.UNKNOWN else None)
    return unknown or (Ternary.YES, None)


def _picks_in(fan: Fan, s: TreeSchema, stop: Seq) -> tuple[Ternary, Optional[Seq]]:
    """A transversal whose fan is not contained, by its picks (see above);
    UNKNOWN keeps ``stop``, the sequence where the fan's walk stopped."""
    if type(fan.tail) is Const:
        return _walk(Fan(tuple(_one(h) for h in fan.heads), Const(_one(fan.tail.block))), s)
    bad = next((p for p in itertools.islice(_picks(fan), _DIAG_PAIRS)
                if not trees.member_elem(p, s)), None)
    return (Ternary.UNKNOWN, stop) if bad is None else (Ternary.NO, bad)


def _one(b: TreeSchema) -> TreeSchema:
    """The least element of ``b`` as a schema."""
    p = trees.pick_least(b)
    return trees.EMPTY if p is None else trees.singleton(p)


def _walk(t: TreeSchema, s: TreeSchema) -> tuple[Ternary, Optional[Seq]]:
    """Containment of schema ``t`` in schema ``s`` (see above).  Each pair
    keeps the pair and letter it was met from, and the answer rebuilds its
    sequence from those links."""
    links: dict = {(t, s): None}
    queue = deque([(t, s, 0)])  # a pair and its first letter left: 0 when new
    budget = _DIAG_PAIRS
    while queue:
        a, b, first = queue.popleft()
        if not first:
            if a is b or b is trees.FULL or trees.is_empty(a) or b is _SPINES and type(a) is Spine:
                continue
            if trees.member_elem((), a) and not trees.member_elem((), b):
                return Ternary.NO, _word(links, (a, b))
            if trees.is_empty(b):
                return Ternary.NO, _word(links, (a, b)) + trees.pick_least(a)
        (ha, ta), (hb, tb) = trees.derivatives(a), trees.derivatives(b)
        stop, stream = first + 1, bool(first)  # a pair left with tail letters takes the next
        if not first:
            m = max(len(ha), len(hb))
            sa, sb = trees.shift_tail(ta, m - len(ha)), trees.shift_tail(tb, m - len(hb))
            free = sa is sb or trees.tail_is_trivial(sa) or sb is trees.CONST_FULL
            stop = m if free else m + 1
            stream = not free and (type(sa) is not Const or type(sb) is not Const)
        spine_a = type(a) is Spine and type(a.tail) is not Const  # copies from a diagonal tail
        if stream or spine_a or type(b) is Spine and type(b.tail) is not Const:
            budget -= 1
            if budget < 0:
                return Ternary.UNKNOWN, _word(links, (a, b))
        if stream:
            queue.append((a, b, stop))
        for n in range(first, stop):
            child = (ha[n] if n < len(ha) else trees.seq_block(ta, n - len(ha)),
                     hb[n] if n < len(hb) else trees.seq_block(tb, n - len(hb)))
            if child not in links:
                links[child] = ((a, b), n)
                queue.append((*child, 0))
    return Ternary.YES, None


def _word(links: dict, pair: tuple) -> Seq:
    """The letters the walk followed to ``pair``."""
    out = []
    while (link := links[pair]) is not None:
        pair, n = link
        out.append(n)
    return tuple(reversed(out))


# --------------------------------------------------------------------------
# membership in a compiled target


def _require_subset(q: QueryTerm, target: IdealExpr) -> None:
    verdict, u = _containment(q, trees.compile_ideal(target))
    if verdict is Ternary.NO:
        raise NotASubset(f"{q} is not contained in the standard copy of {ideals.normalize(target)}, "
                         f"which misses its element {text.format_seq_elem(u)}")
    if verdict is Ternary.UNKNOWN:
        raise UnknownContainment(f"containment of {q} in {ideals.normalize(target)} undecided: "
                                 f"the walk stopped at {text.format_seq_elem(u)}")


def member_of(q: QueryTerm, target: IdealExpr) -> bool:
    """Membership of the query set in the target's standard copy."""
    _require_subset(q, target)
    return q_in_wf(q)


def member_perp(q: QueryTerm, target: IdealExpr) -> bool:
    """Membership in the orthogonal of the target's standard copy."""
    _require_subset(q, target)
    return q_in_id(q)


# --------------------------------------------------------------------------
# orthogonal subset extraction (the Frechet property)
#
# The orthogonal subset here and the unbounded family below are each
# found by trees.walk, which takes at every fan or spine the first block
# failing the ideal's predicate (trees.first_failing): a walk down to a
# witness (Vene & Uustalu, "Functional Programming with Apomorphisms",
# 1998).  The dominating branch is one loop over the schema's depths.
# None of them spends a Python frame per level.


def frechet_witness(q: QueryTerm, target: IdealExpr) -> TreeSchema:
    """Infinite branch-dominated subset of a membership-negative query: down
    from a schema leaf that is not well-founded, through blocks that are
    not, to a chain, a full set or a spine of well-founded copies; the
    subset found there is then wrapped back up, alone in the block it was
    taken from."""
    _require_subset(q, target)
    if q_in_wf(q):
        raise NotASubset(f"{q} already belongs to the ideal; no witness to extract")
    # finite sets and transversals are well-founded: a schema leaf fails
    leaf = next(x for x in queries._leaves(q) if not q_in_wf(x))
    path, t = trees.walk(leaf, lambda s: trees.first_failing(s, trees.in_wf),
                         lambda s: s is trees.CHAIN or s is trees.FULL or type(s) is Spine
                         and all(map(trees.in_wf, (*s.heads, trees.seq_block(s.tail, 0)))))
    out = trees.CHAIN
    if type(t) is Spine:
        # a fan with well-founded heads has no well-founded tail block; a
        # spine's copies may be well-founded but unboundedly many: take the
        # fixed pick in every copy, a set dominated alongside the spine
        pick = trees.pick_least(trees.block_at(t, len(t.heads)))
        out = Spine((trees.EMPTY,) * len(t.heads), Const(trees.singleton(pick)))
    for node, n in reversed(path):
        out = type(node)((trees.EMPTY,) * n + (out,), trees.CONST_EMPTY)
    return out


# --------------------------------------------------------------------------
# domination witnesses


def id_witness(q: QueryTerm) -> witnesses.DominatingBranch | witnesses.UnboundedFamily:
    """A dominating branch when the query is dominated, else an unbounded
    family refuting every candidate branch."""
    if q_in_id(q):
        return _branch_query(q)
    from .witnesses import UnboundedFamily
    return UnboundedFamily(lambda: _unb_query(q))


def _branch_query(q: QueryTerm) -> witnesses.DominatingBranch:
    """Every schema leaf's branch merged with each finite element and
    transversal pick, followed by zeros."""
    from .witnesses import DominatingBranch, merge_branches

    branches = [DominatingBranch((), (0,))]
    for x in queries._leaves(q):
        match x:
            case TreeSchema():
                branches.append(_branch_schema(x))
            case FinSet(elements):
                branches += (DominatingBranch(u, (0,)) for u in elements)
            case Transversal(fan):
                branches += (DominatingBranch(p, (0,)) for n in range(len(fan.heads))
                             if (p := queries._transversal_pick(fan, n)))
    return merge_branches(branches)


def _branch_schema(t: TreeSchema) -> witnesses.DominatingBranch:
    """The largest root entry of a live fan at each depth.  Spine entries
    stay at most 1 and copy offsets shift the blocks, so a live spine at
    depth d raises every position from d on, and the period, to the
    largest entry below it.  One walk over the distinct (term, depth)
    pairs builds the branch once and stores nothing on the terms; a
    dominated fan's tail is trivial, so its live heads are all its blocks."""
    top: list[int] = []  # per depth, the largest fan index there
    floor: dict[int, int] = {}  # per depth, the largest entry below a spine there
    stack, seen = [(t, 0)], set()
    while stack:
        s, d = item = stack.pop()
        if item in seen or trees.is_empty(s):
            continue
        seen.add(item)
        if type(s) is Rooted:
            stack.append((s.child, d))
        elif type(s) is Fan:
            live = [n for n, h in enumerate(s.heads) if not trees.is_empty(h)]
            top += [0] * (d + 1 - len(top))
            top[d] = max(top[d], live[-1])
            stack += [(s.heads[n], d + 1) for n in live]
        elif type(s) is Spine:
            floor[d] = max(floor.get(d, 0), trees._entry_bound(s))
    prefix, reach = [], 0  # reach: the largest floor at or above this depth
    for d, x in enumerate(top):
        reach = max(reach, floor.get(d, 0))
        prefix.append(max(x, reach))
    from .witnesses import DominatingBranch
    return DominatingBranch(tuple(prefix), (max([0, *floor.values()]),))


def _unb_query(q: QueryTerm) -> Iterator[Seq]:
    # a finite set is dominated: a schema or a transversal leaf fails
    leaf = next(x for x in queries._leaves(q) if not q_in_id(x))
    return _picks(leaf.fan) if type(leaf) is Transversal else _unb_schema(leaf)


def _unb_schema(t: TreeSchema) -> Iterator[Seq]:
    """Down through blocks that are not dominated to a full set or a fan
    with infinitely many blocks; their elements of unbounded first entry,
    under the roots the walk passed, are the family."""
    path, t = trees.walk(t, lambda s: trees.first_failing(s, trees.in_id), lambda s: s is trees.FULL
                         or type(s) is Fan and not trees.tail_is_trivial(s.tail))
    prefix = trees.word(path)
    family = ((n,) for n in itertools.count()) if t is trees.FULL else _picks(t)
    for u in family:
        yield prefix + u

"""Finite block quotient of a generated tree.

Vertices are cone schemas (one representative per distinct re-rooted
cone); the children of a vertex are its one-letter cones by letter class
(``trees.derivatives``), and its edges carry the multiplicity of each
child class, or None for infinitely many children of that class (a
constant tail); a vertex computes its classes once, as its fact ``_classes``.
Identical cone schemas denote translated copies of the same set, so
they share their derivative fate, which makes the quotient a faithful
finite materialization whenever it is finite at all.  Diagonal tails
produce infinitely many distinct block classes and overflow the
representative budget by design.
"""

from __future__ import annotations

from . import trees
from .errors import QuotientOverflow
from .hashcons import Algebra, _fold
from .trees import Const, Fan, Rooted, SchemaSeq, Spine, TreeSchema


def norm_key(t: TreeSchema) -> TreeSchema:
    """Canonical representative: generated trees ignore an added root."""
    while isinstance(t, Rooted):
        inner = t.child
        if trees.is_empty(inner):
            return trees.EPS
        t = inner
    return t


class Quotient:
    """Vertex 0 is the root class; edges index into ``vertices``."""

    def __init__(self) -> None:
        self.vertices: list[TreeSchema] = []
        self.edges: list[list[tuple[int, int | None]]] = []

    def __len__(self) -> int:
        return len(self.vertices)


def _classes(s: TreeSchema, _answers: list) -> tuple | SchemaSeq:
    """The child classes of vertex ``s``, each followed by its multiplicity,
    None standing for ``s`` itself (a term holding itself stays in the
    intern table); or the diagonal tail of a fan or spine, whose classes
    never end: its blocks are nonempty compiled levels at strictly
    increasing ranks, and a spine's zero-cones over it shift it further."""
    if (type(s) is Fan or type(s) is Spine) and type(s.tail) is not Const:
        return s.tail
    heads, tail = trees.derivatives(s)
    mult: dict[TreeSchema, int | None] = {}
    for h in heads:
        if not trees.is_empty(h):
            key = norm_key(h)
            m = mult.get(key, 0)
            mult[key] = None if m is None else m + 1
    if not trees.is_empty(tail.block):
        mult[norm_key(tail.block)] = None
    return tuple(x for key, m in mult.items() for x in (None if key is s else key, m))


_CLASSES = Algebra("_classes", _classes, kids=lambda s: ())


def _overflow(t: TreeSchema, cap: int) -> QuotientOverflow:
    s = str(t)  # the text of a compiled P(n) grows with n: print its head and length
    more = f"... ({len(s)} characters)" if len(s) > 200 else ""
    return QuotientOverflow(f"more than {cap} representatives materializing {s[:200]}{more}")


def build_quotient(t: TreeSchema, max_vertices: int) -> Quotient:
    """Breadth-first materialization; raises QuotientOverflow past the cap.

    The loop reads the vertex list while it grows.  Each vertex reads its
    child classes from the ``_classes`` fact, a nonempty head counted once
    and a nonempty constant tail's block infinitely often, and appends the
    classes met first.  A vertex with a diagonal tail has pairwise distinct
    classes without end, so it overflows every cap at once.
    """
    root = norm_key(t)
    q = Quotient()
    q.vertices.append(root)
    index = {root: 0}
    for v, s in enumerate(q.vertices):
        fact = _fold(s, _CLASSES)
        if type(fact) is not tuple:
            raise _overflow(t, max_vertices)
        pairs = iter(fact)
        kids = []
        for key, m in zip(pairs, pairs):
            w = v if key is None else index.get(key)
            if w is None:
                if len(q.vertices) >= max_vertices:
                    raise _overflow(t, max_vertices)
                w = index[key] = len(q.vertices)
                q.vertices.append(key)
            kids.append((w, m))
        q.edges.append(kids)
    return q


def derivative_fixpoint(q: Quotient) -> tuple[int, bool, list[int | None]]:
    """Iterate the derivative on the quotient until nothing is removed.

    Returns (rank, core_empty, stage) where stage[v] is the step at which
    class v is removed (None for core classes).  A class is removed when
    its surviving cone is finitely branching, i.e. no surviving class
    reachable from it keeps an infinite edge to a surviving class; for
    trees this is exactly branch domination.
    """
    n = len(q)
    alive = [True] * n
    stage: list[int | None] = [None] * n
    step = 0
    while True:
        doomed = [v for v in range(n) if alive[v] and _dominated(q, alive, v)]
        if not doomed:
            break
        for v in doomed:
            alive[v] = False
            stage[v] = step
        step += 1
    return step, not any(alive), stage


def _dominated(q: Quotient, alive: list[bool], v: int) -> bool:
    seen = {v}
    todo = [v]
    while todo:
        w = todo.pop()
        for u, mult in q.edges[w]:
            if not alive[u]:
                continue
            if mult is None:
                return False
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return True

"""Finite block quotient of a generated tree.

Vertices are cone schemas (one representative per distinct re-rooted
cone); edges carry a finite multiplicity or None for an infinite block of
children of the same class.  Identical cone schemas denote translated
copies of the same set, so they share their derivative fate, which makes
the quotient a faithful finite materialization whenever it is finite at
all.  Diagonal tails produce infinitely many distinct block classes and
overflow the representative budget by design.
"""

from __future__ import annotations

from . import trees
from .errors import QuotientOverflow
from .trees import Const, Rooted, TreeSchema


def norm_key(t: TreeSchema) -> TreeSchema:
    """Canonical representative: generated trees ignore an added root."""
    while isinstance(t, Rooted):
        inner = t.child
        if trees.is_empty(inner):
            return trees.EPS
        t = inner
    return t


def child_classes(t: TreeSchema, cap: int) -> list[tuple[TreeSchema, int | None]]:
    """Cone classes of the root children of the generated tree of ``t``:
    its one-letter cones by letter class (``trees.derivatives``).

    Multiplicity None marks infinitely many children of that class.  At
    most ``cap + 1`` distinct diagonal blocks are expanded; the caller's
    vertex budget turns the excess into an overflow.
    """
    heads, tail = trees.derivatives(t)
    out: dict[TreeSchema, int | None] = {}
    for h in heads:
        if not trees.is_empty(h):
            _bump(out, norm_key(h), 1)
    if not trees.tail_is_trivial(tail):
        if isinstance(tail, Const):
            _bump(out, norm_key(tail.block), None)
        else:
            for i in range(cap + 1):
                _bump(out, norm_key(trees.seq_block(tail, i)), 1)
    return list(out.items())


def _bump(acc: dict[TreeSchema, int | None], key: TreeSchema, mult: int | None) -> None:
    if mult is None or acc.get(key, 0) is None:
        acc[key] = None
    else:
        acc[key] = acc.get(key, 0) + mult


class Quotient:
    """Vertex 0 is the root class; edges index into ``vertices``."""

    def __init__(self) -> None:
        self.vertices: list[TreeSchema] = []
        self.edges: list[list[tuple[int, int | None]]] = []

    def __len__(self) -> int:
        return len(self.vertices)


def build_quotient(t: TreeSchema, max_vertices: int) -> Quotient:
    """Breadth-first materialization; raises QuotientOverflow past the cap."""
    root = norm_key(t)
    q = Quotient()
    index: dict[TreeSchema, int] = {}

    def vertex(s: TreeSchema) -> int:
        if s in index:
            return index[s]
        if len(q.vertices) >= max_vertices:
            raise QuotientOverflow(
                f"more than {max_vertices} representatives materializing {t}"
            )
        index[s] = len(q.vertices)
        q.vertices.append(s)
        q.edges.append([])
        return index[s]

    vertex(root)
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            kids = []
            for key, mult in child_classes(q.vertices[v], max_vertices):
                known = key in index
                w = vertex(key)
                kids.append((w, mult))
                if not known:
                    nxt.append(w)
            q.edges[v] = kids
        frontier = nxt
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

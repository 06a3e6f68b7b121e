"""Symbolic derivative rank of generated trees.

The derivative removes every node whose cone in the surviving set is
branch-dominated; the rank is the first fixpoint stage.  Because cones
evolve independently (the survivors above a node depend only on its own
cone), a node's removal stage is the domination stage of its cone tree,
which makes the whole computation a structural recursion.  For a nonempty
tree whose iteration empties out, the rank is exactly the domination
stage plus one: once the survivors are dominated, every remaining cone is
dominated too and the last generation disappears at once.

Along a diagonal tail the block ranks are cofinal in the limit rank: each
compiled block of stage ``a`` has rank between a split of ``a`` and
``a + 2``, so their supremum over any fundamental sequence of ``l`` is
``l`` itself.  That supremum is the only limit stage the engine needs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import ordinals, trees
from .hashcons import _fold
from .ordinals import Ordinal
from .trees import Fan, Spine, TreeSchema


class RankInfo(NamedTuple):
    """Rank data of the tree generated by a schema.

    ``rank`` is the first fixpoint stage of the iterated derivative,
    ``core_empty`` tells whether the fixpoint is empty, and ``dom_stage``
    is the first stage at which the survivors are branch-dominated (None
    exactly when a nonempty core survives).  Equal fields give equal values.
    """

    rank: Ordinal
    core_empty: bool
    dom_stage: Optional[Ordinal]


_EMPTY_INFO = RankInfo(ordinals.ZERO, True, ordinals.ZERO)
_DOMINATED_INFO = RankInfo(ordinals.ONE, True, ordinals.ZERO)
_FIXED_INFO = RankInfo(ordinals.ZERO, False, None)


def _from_dom(dom: Ordinal) -> RankInfo:
    return RankInfo(ordinals.succ(dom), True, dom)


def tree_rank(t: TreeSchema) -> tuple[Ordinal, bool]:
    """Rank and core emptiness of the generated tree."""
    info = rank_info(t)
    return info.rank, info.core_empty


def rank_info(t: TreeSchema) -> RankInfo:
    return _fold(t, _RANK)


def _node(t: Fan | Spine, heads: list[tuple[int, RankInfo]], tail: RankInfo | None) -> RankInfo:
    if not heads:  # no live head, as at a chain level: the tail alone decides
        if tail is None:
            return _EMPTY_INFO
        if not tail.core_empty:
            return tail  # a surviving core keeps its rank, with no domination stage
        # a fan's root waits for every tail block to be fully gone, as below
        return _from_dom(tail.rank if isinstance(t, Fan) else tail.dom_stage)
    if tail is not None:
        if isinstance(t, Fan):
            # infinitely many nonempty blocks keep the first coordinates
            # unbounded, so the root needs every tail block to be fully gone
            tail = RankInfo(tail.rank, tail.core_empty, tail.rank)
        heads = heads + [(len(t.heads), tail)]
    if all(i.core_empty for _, i in heads):
        # the root falls once every block is dominated; a spine
        # accommodates dominated copies, so no emptiness is needed there
        return _from_dom(max([i.dom_stage for _, i in heads]))
    ranks = [i.rank for _, i in heads]
    if isinstance(t, Spine):
        last_bad = max(n for n, i in heads if not i.core_empty)
        late = [i.dom_stage for n, i in heads if n > last_bad]
        if late:
            # spine nodes past the last surviving copy still get removed
            ranks.append(ordinals.succ(max(late)))
    return RankInfo(max(ranks), False, None)


# the blocks of a diagonal tail have ranks and domination stages cofinal
# in the limit rank, the only stage callers need
_RANK = trees._Algebra(
    "_rank",
    {trees.EMPTY: _EMPTY_INFO, trees.EPS: _DOMINATED_INFO, trees.CHAIN: _DOMINATED_INFO,
     trees.FULL: _FIXED_INFO},
    _node,
    diag=lambda tail: RankInfo(tail.rank, True, tail.rank),
)

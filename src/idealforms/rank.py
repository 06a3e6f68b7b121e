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

from dataclasses import dataclass
from typing import Optional

from . import ordinals, trees
from .ordinals import Ordinal
from .trees import Chain, Const, Empty, Eps, Fan, Full, Rooted, SchemaSeq, Spine, TreeSchema


@dataclass(frozen=True)
class RankInfo:
    """Rank data of the tree generated by a schema.

    ``rank`` is the first fixpoint stage of the iterated derivative,
    ``core_empty`` tells whether the fixpoint is empty, and ``dom_stage``
    is the first stage at which the survivors are branch-dominated (None
    exactly when a nonempty core survives).
    """

    rank: Ordinal
    core_empty: bool
    dom_stage: Optional[Ordinal]


_EMPTY_INFO = RankInfo(ordinals.ZERO, True, ordinals.ZERO)
_DOMINATED_INFO = RankInfo(ordinals.ONE, True, ordinals.ZERO)
_FIXED_INFO = RankInfo(ordinals.ZERO, False, None)


def _from_dom(dom: Ordinal) -> RankInfo:
    return RankInfo(ordinals.succ(dom), True, dom)


def _omax(values: list[Ordinal]) -> Ordinal:
    out = ordinals.ZERO
    for v in values:
        if ordinals.compare(v, out) > 0:
            out = v
    return out


def tree_rank(t: TreeSchema) -> tuple[Ordinal, bool]:
    """Rank and core emptiness of the generated tree."""
    info = rank_info(t)
    return info.rank, info.core_empty


def rank_info(t: TreeSchema) -> RankInfo:
    try:
        return t._rank
    except AttributeError:
        info = t._rank = _compute(t)
        return info


def _compute(t: TreeSchema) -> RankInfo:
    match t:
        case Empty():
            return _EMPTY_INFO
        case Eps() | Chain():
            return _DOMINATED_INFO
        case Full():
            return _FIXED_INFO
        case Rooted(child):
            return _DOMINATED_INFO if trees.is_empty(child) else rank_info(child)
        case Fan() | Spine() if trees.is_empty(t):
            return _EMPTY_INFO
        case Fan():
            return _fan_info(t)
        case Spine():
            return _spine_info(t)
    raise TypeError(f"not a schema: {t!r}")


def _head_infos(t: Fan | Spine) -> list[tuple[int, RankInfo]]:
    return [(n, rank_info(h)) for n, h in enumerate(t.heads) if not trees.is_empty(h)]


def _diag_info(tail: SchemaSeq) -> RankInfo:
    """Stands for all blocks of a diagonal tail: their ranks and domination
    stages are cofinal in the limit rank, the only stage callers need."""
    return RankInfo(tail.rank, True, tail.rank)


def _fan_info(t: Fan) -> RankInfo:
    heads = _head_infos(t)
    if trees.tail_is_trivial(t.tail):
        # finitely many blocks: the root falls once every block is dominated
        if all(i.core_empty for _, i in heads):
            return _from_dom(_omax([i.dom_stage for _, i in heads]))
        return RankInfo(_omax([i.rank for _, i in heads]), False, None)

    # inline, not a helper: one more frame per level would cost depth
    it = rank_info(t.tail.block) if isinstance(t.tail, Const) else _diag_info(t.tail)
    # infinitely many nonempty blocks keep the first coordinates
    # unbounded, so the root needs every tail block to be fully gone
    if it.core_empty and all(i.core_empty for _, i in heads):
        return _from_dom(_omax([it.rank] + [i.dom_stage for _, i in heads]))
    return RankInfo(_omax([it.rank] + [i.rank for _, i in heads]), False, None)


def _spine_info(t: Spine) -> RankInfo:
    heads = _head_infos(t)
    tail = t.tail
    if trees.tail_is_trivial(tail):
        if all(i.core_empty for _, i in heads):
            # the spine accommodates dominated copies: no emptiness needed
            return _from_dom(_omax([i.dom_stage for _, i in heads]))
        last_bad = max(n for n, i in heads if not i.core_empty)
        ranks = [i.rank for _, i in heads]
        late = [i.dom_stage for n, i in heads if n > last_bad]
        if late:
            # spine nodes past the last surviving copy still get removed
            ranks.append(ordinals.succ(_omax(late)))
        return RankInfo(_omax(ranks), False, None)

    it = rank_info(tail.block) if isinstance(tail, Const) else _diag_info(tail)
    if it.core_empty and all(i.core_empty for _, i in heads):
        return _from_dom(_omax([it.dom_stage] + [i.dom_stage for _, i in heads]))
    if not it.core_empty:
        # surviving copies above every spine node pin the whole spine
        return RankInfo(_omax([it.rank] + [i.rank for _, i in heads]), False, None)
    last_bad = max(n for n, i in heads if not i.core_empty)
    late = [it.dom_stage] + [i.dom_stage for n, i in heads if n > last_bad]
    ranks = [it.rank] + [i.rank for _, i in heads] + [ordinals.succ(_omax(late))]
    return RankInfo(_omax(ranks), False, None)

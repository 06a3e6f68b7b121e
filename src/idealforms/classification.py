"""Two classifiers for restrictions of the well-founded ideal.

``classify`` works on the raw denoted set by structural recursion: fans
split as direct sums over an antichain of children, spines as the
orthogonal of the sum of the copies' orthogonals, with finite sub-blocks
absorbed by shift bijections.  ``classify_via_derivative`` targets the
generated tree instead: it reads the removal stages off the rank engine,
splits the tree into the top-stage part H and the pieces hanging off it,
then sums the pieces' classes; with infinitely many pieces the sum of
their orthogonals gets one more orthogonal plus a finite-sets summand.

The two answers differ exactly by the scaffold (the generated tree minus
the denoted set), whose class ``scaffold_class`` computes with the sum
algebra of ``classify`` over other leaf classes.  Each classifier is an
algebra over ``hashcons._fold``, so neither spends a Python frame per level;
the derivative algebra reads no answer of the other two, which keeps the
two classifications independent derivations.
"""

from __future__ import annotations

from typing import Union

from . import ideals, rank, trees
from .errors import FiniteSchema
from .hashcons import Interned, _fold
from .ideals import CanonicalForm, FIN_FORM, Kind, POW_FORM
from .ordinals import Ordinal
from .trees import Const, Fan, Spine, TreeSchema

# size markers for sub-blocks absorbed by the classification, and the
# answer at a full sub-block, which no sum absorbs: a node above one passes
# it up unchanged, and ``classify`` walks down to the block it marks
EMPTY_CLS = "empty"
FINITE_CLS = "finite"
FULL_CLS = "full"

Cls = Union[str, CanonicalForm]


class Borel(Interned):
    __slots__ = __match_args__ = ("form",)


class NonBorel:
    def __init__(self, witness: witnesses.EmbeddingWitness) -> None:
        self.witness = witness

    def __str__(self) -> str:
        return f"NonBorel({self.witness.label})"


TreeClass = Union[Borel, NonBorel]


def classify(t: TreeSchema) -> TreeClass:
    """Classification of the ideal restricted to the denoted set."""
    if trees.is_finite(t):
        raise FiniteSchema(f"schema denotes a finite set: {t}")
    out = _fold(t, _CLASS)
    if out == FULL_CLS:
        # the prefix of the first marked block at each node: the identity
        # embedding under it lands in the full sub-block
        path, _ = trees.walk(t, lambda s: trees.first_failing(s, lambda h: h._cls != FULL_CLS),
                             lambda s: s is trees.FULL)
        from .witnesses import PrefixEmbedding
        return NonBorel(PrefixEmbedding(t, trees.word(path)))
    assert isinstance(out, CanonicalForm)
    return Borel(out)


def scaffold_class(t: TreeSchema) -> Cls:
    """Class of the prefix nodes the generated tree adds to the set."""
    return _fold(t, _SCAFFOLD)


def _sum(parts: list[Cls]) -> Cls:
    forms = [p for p in parts if isinstance(p, CanonicalForm)]
    if forms:
        return ideals.combine_all(forms)
    if any(p == FINITE_CLS for p in parts):
        return FINITE_CLS
    return EMPTY_CLS


def _node(t: Fan | Spine, heads: list[tuple[int, Cls]], tail: Cls | None) -> Cls:
    """A fan is the finite sum of its blocks plus the omega-sum of its
    constant tail; a spine with finitely many copies is the same finite
    sum, and with infinitely many it is the orthogonal of the sum of the
    copies' orthogonals.  Each node also adds its own prefix nodes:
    FINITE (a fan's root, a finite spine) or FIN (an infinite spine's
    zero branch).  They are the scaffold's share and are absorbed in the
    class of a nonempty denoted set."""
    if tail == FULL_CLS or any(c == FULL_CLS for _, c in heads):
        return FULL_CLS
    spine = isinstance(t, Spine)
    if tail is None:
        return _sum([FINITE_CLS] + [c for _, c in heads]) if heads else EMPTY_CLS
    if not isinstance(t.tail, Const):
        rest = [tail]  # a diagonal tail's answer already is its blocks' sum
    elif isinstance(tail, CanonicalForm):
        rest = [ideals.omega_sum(ideals.perp(tail) if spine else tail)]
    else:
        # omega many finite power sets sum to the power set
        rest = [POW_FORM] if tail == FINITE_CLS else []
    if not spine:
        return _sum([FINITE_CLS] + [c for _, c in heads] + rest)
    # finite copies are absorbed into the infinite tail part
    inner = [ideals.perp(c) for _, c in heads if isinstance(c, CanonicalForm)] + rest
    return _sum([FIN_FORM] + ([ideals.perp(ideals.combine_all(inner))] if inner else []))


def _p_limit(tail) -> CanonicalForm:
    # block classes along a diagonal tail, and their orthogonals, have
    # ranks cofinal in the limit rank
    return CanonicalForm(Kind.P, tail.rank)


_CLASS = trees._Algebra(
    "_cls",
    {trees.EMPTY: EMPTY_CLS, trees.EPS: FINITE_CLS, trees.CHAIN: FIN_FORM, trees.FULL: FULL_CLS},
    _node,
    diag=_p_limit,
)
# scaffold: the generated tree minus the denoted set
_SCAFFOLD = trees._Algebra(
    "_scaffold",
    {trees.EMPTY: EMPTY_CLS, trees.EPS: EMPTY_CLS, trees.CHAIN: FINITE_CLS, trees.FULL: EMPTY_CLS},
    _node,
    diag=_p_limit,
)


# --------------------------------------------------------------------------
# classification through the derivative


def classify_via_derivative(t: TreeSchema) -> TreeClass:
    """Classification of the ideal restricted to the generated tree."""
    if trees.is_finite(t):
        raise FiniteSchema(f"schema denotes a finite set: {t}")
    if not rank.rank_info(t).core_empty:
        from .witnesses import CoreEmbedding
        return NonBorel(CoreEmbedding(t, find_expansion))
    return Borel(_fold(t, _VIA)[0])


# The pieces hanging off the top-stage part H of a generated tree, kept as
# three sums: the classes of the pieces that hang finitely often, the
# orthogonal-side contributions of those that hang infinitely often (each
# EMPTY_CLS when there is none), and whether H is infinite.  A sum of
# canonical forms is a join, and perp and omega_sum preserve joins
# (omega_sum is also idempotent), so the sums give the class that the list
# of pieces would.
_Pieces = tuple[Cls, Cls, bool]


def _orth_sum(p: _Pieces) -> Cls:
    """Sum of the orthogonals of the pieces."""
    fin, orth, _ = p
    return _sum([orth] + ([ideals.perp(fin)] if isinstance(fin, CanonicalForm) else []))


def _hang(acc: _Pieces, c: Cls | None) -> _Pieces:
    """One more piece of class ``c`` hanging off H; finite pieces vanish."""
    return (_sum([acc[0], c]), acc[1], acc[2]) if isinstance(c, CanonicalForm) else acc


def _merge(acc: _Pieces, sub: _Pieces) -> _Pieces:
    """Add the pieces of a block whose top-stage part belongs to H."""
    return _sum([acc[0], sub[0]]), _sum([acc[1], sub[1]]), acc[2] or sub[2]


def _dom(t: TreeSchema) -> Ordinal:
    return rank.rank_info(t).dom_stage


def _via_node(t: Fan | Spine, heads: list, tail) -> tuple[Cls | None, _Pieces | None]:
    """Class of the generated tree, read off the stage ``beta`` at which
    its survivors are dominated: a block that reaches ``beta`` too lies in
    H and passes its pieces up, a block that falls earlier is one piece;
    with H infinite the sum of the pieces' orthogonals gets one more
    orthogonal plus a finite-sets summand.  The answer pairs the class
    with the pieces (None at stage 0)."""
    info = rank.rank_info(t)
    if info.dom_stage.is_zero():
        # one derivative step empties the tree: it is branch-dominated
        if tail is None:
            if not heads:
                return _EMPTY
            if all(c == FINITE_CLS for _, (c, _) in heads):
                return _FINITE
        return _DOMINATED
    assemble = _assemble_fan if isinstance(t, Fan) else _assemble_spine
    pieces = assemble(t, heads, tail, info.dom_stage)
    if pieces[2]:
        return ideals.combine(ideals.perp(_orth_sum(pieces)), FIN_FORM), pieces
    assert isinstance(pieces[0], CanonicalForm), "a rank >= 2 tree must hang pieces"
    return pieces[0], pieces


def _assemble_heads(t: Fan | Spine, heads: list, beta: Ordinal) -> _Pieces:
    acc: _Pieces = (EMPTY_CLS, EMPTY_CLS, False)
    for n, (c, sub) in heads:
        acc = _merge(acc, sub) if _dom(t.heads[n]) == beta else _hang(acc, c)
    return acc


def _assemble_fan(t: Fan, heads: list, tail, beta: Ordinal) -> _Pieces:
    acc = _assemble_heads(t, heads, beta)
    if tail is None:
        return acc
    c = tail[0]
    # every tail block falls before beta (rank_info counts a fan tail with
    # its rank, one more than a block's domination stage), so each hangs
    if not isinstance(t.tail, Const):
        return _hang(acc, c)  # diagonal piece classes: ranks cofinal in the limit
    # omega many finite pieces give the power set
    return _hang(acc, POW_FORM if c == FINITE_CLS else ideals.omega_sum(c))


def _assemble_spine(t: Spine, heads: list, tail, beta: Ordinal) -> _Pieces:
    if tail is not None:
        c, sub = tail
        if isinstance(t.tail, Const):
            tail_dom = _dom(t.tail.block)
        else:
            tail_dom = t.tail.rank  # sup of the diagonal block domination stages
        if tail_dom == beta:
            # the whole spine survives to the top stage: H is infinite
            acc = _assemble_heads(t, heads, beta)
            if isinstance(t.tail, Const):
                # each piece of the block hangs infinitely often
                c = ideals.omega_sum(_orth_sum(sub))
            # else one piece per spine node, classes with ranks cofinal in the limit
            return acc[0], _sum([acc[1], c]), True
    # the spine leaves H after the last copy whose domination stage is beta
    last_top = max(n for n, _ in heads if _dom(t.heads[n]) == beta)
    acc = _assemble_heads(t, [(n, a) for n, a in heads if n <= last_top], beta)
    return _hang(acc, _fold(trees.cone_of(t, (0,) * (last_top + 1)), _VIA)[0])


# answers without pieces, shared by every term that has them; full has a
# nonempty core, so the fold never reaches it below a classified term
_EMPTY, _FINITE, _DOMINATED = (EMPTY_CLS, None), (FINITE_CLS, None), (FIN_FORM, None)
_VIA = trees._Algebra(
    "_via",
    {trees.EMPTY: _EMPTY, trees.EPS: _FINITE, trees.CHAIN: _DOMINATED, trees.FULL: (None, None)},
    _via_node,
    diag=lambda tail: (_p_limit(tail), None),  # compiles no diagonal block
)


# --------------------------------------------------------------------------
# core expansion for the non-Borel witness


def find_expansion(c: TreeSchema) -> witnesses.Expansion:
    """A core node with infinitely many core children, relative to ``c``.

    The core is not dominated, so (being a tree) it has an infinitely
    branching node; the walk descends into the first block with a
    nonempty core until the branching lives at the current root.
    """
    from .witnesses import Expansion

    path, c = trees.walk(c, lambda s: trees.first_failing(s, _core_empty),
                         lambda s: s is trees.FULL or type(s) is Fan and type(s.tail) is Const
                         and not _core_empty(s.tail.block))
    if c is trees.FULL:
        return Expansion(trees.word(path), lambda k: k, trees.FULL)
    base = len(c.heads)
    return Expansion(trees.word(path), lambda k: base + k, c.tail.block)


def _core_empty(t: TreeSchema) -> bool:
    return rank.rank_info(t).core_empty

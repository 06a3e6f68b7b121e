"""Two classifiers for restrictions of the well-founded ideal.

``classify`` works on the raw denoted set by structural recursion: fans
split as direct sums over an antichain of children, spines as the
orthogonal of the sum of the copies' orthogonals, with finite sub-blocks
absorbed by shift bijections.  ``classify_via_derivative`` targets the
generated tree instead: it reads the removal stages off the rank engine,
splits the tree into the top-stage part H and the pieces hanging off it,
then assembles the pieces' classes; with infinitely many pieces the sum
of their orthogonals gets one more orthogonal plus a finite-sets summand.

The two answers differ exactly by the scaffold (the generated tree minus
the denoted set), whose class ``scaffold_class`` computes with the sum
algebra of ``classify`` over other leaf classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import ideals, rank, trees
from .errors import FiniteSchema
from .ideals import CanonicalForm, FIN_FORM, Kind, POW_FORM
from .ordinals import Ordinal
from .trees import Const, Fan, Full, PDiag, QDiag, Rooted, Seq, Spine, TreeSchema
from .witnesses import CoreEmbedding, EmbeddingWitness, Expansion, PrefixEmbedding

# size markers for sub-blocks absorbed by the classification
EMPTY_CLS = "empty"
FINITE_CLS = "finite"

Cls = Union[str, CanonicalForm]


@dataclass(frozen=True)
class Borel:
    form: CanonicalForm

    def __str__(self) -> str:
        return f"Borel({self.form})"


@dataclass(eq=False)
class NonBorel:
    witness: EmbeddingWitness

    def __str__(self) -> str:
        return f"NonBorel({self.witness.label})"


TreeClass = Union[Borel, NonBorel]


@dataclass(frozen=True)
class _NB:
    """Internal marker: a full sub-block was found under this prefix."""

    prefix: Seq


def classify(t: TreeSchema) -> TreeClass:
    """Classification of the ideal restricted to the denoted set."""
    if trees.is_finite(t):
        raise FiniteSchema(f"schema denotes a finite set: {t}")
    out = trees._fold(t, _CLASS)
    if isinstance(out, _NB):
        return NonBorel(PrefixEmbedding(t, generated=False, provenance=out.prefix))
    assert isinstance(out, CanonicalForm)
    return Borel(out)


def scaffold_class(t: TreeSchema) -> Cls:
    """Class of the prefix nodes the generated tree adds to the set."""
    return trees._fold(t, _SCAFFOLD)


def _sum(parts: list[Cls]) -> Cls:
    forms = [p for p in parts if isinstance(p, CanonicalForm)]
    if forms:
        return ideals.combine_all(forms)
    if any(p == FINITE_CLS for p in parts):
        return FINITE_CLS
    return EMPTY_CLS


def _node(t: Fan | Spine, heads: list[tuple[int, Cls | _NB]], tail: Cls | _NB | None) -> Cls | _NB:
    """A fan is the finite sum of its blocks plus the omega-sum of its
    constant tail; a spine with finitely many copies is the same finite
    sum, and with infinitely many it is the orthogonal of the sum of the
    copies' orthogonals.  Each node also adds its own prefix nodes:
    FINITE (a fan's root, a finite spine) or FIN (an infinite spine's
    zero branch).  They are the scaffold's share and are absorbed in the
    class of a nonempty denoted set."""
    spine = isinstance(t, Spine)
    for n, c in heads + [(len(t.heads), tail)]:
        if isinstance(c, _NB):
            return _NB((trees.spine_root(n) if spine else (n,)) + c.prefix)
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
    {trees.EMPTY: EMPTY_CLS, trees.EPS: FINITE_CLS, trees.CHAIN: FIN_FORM, trees.FULL: _NB(())},
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
    info = rank.rank_info(t)
    if not info.core_empty:
        return NonBorel(CoreEmbedding(t, find_expansion))
    return Borel(_via_form(t))


def _via_form(t: TreeSchema) -> CanonicalForm:
    beta = rank.rank_info(t).dom_stage
    assert beta is not None
    if beta.is_zero():
        # one derivative step empties the tree: it is branch-dominated
        return FIN_FORM
    parts, extras, h_inf = _assemble(t, beta)
    if h_inf:
        inner = list(extras)
        for c, mult in parts:
            inner.append(ideals.omega_sum(ideals.perp(c)) if mult is None else ideals.perp(c))
        return ideals.combine(ideals.perp(ideals.combine_all(inner)), FIN_FORM)
    assert parts, "a rank >= 2 tree with finite top part must hang pieces"
    assert all(mult is not None for _, mult in parts)
    return ideals.combine_all([c for c, _ in parts])


def _via_class(t: TreeSchema) -> Cls:
    if trees.is_empty(t):
        return EMPTY_CLS
    if trees.is_finite(t):
        return FINITE_CLS
    return _via_form(t)


_Parts = list[tuple[CanonicalForm, int | None]]


def _assemble(t: TreeSchema, beta: Ordinal) -> tuple[_Parts, list[CanonicalForm], bool]:
    """Pieces hanging off the top-stage part H of the generated tree.

    Returns per-H-node piece classes with multiplicity (None for an
    infinite block of identical pieces), pre-aggregated orthogonal-sum
    contributions for diagonal piece families, and whether H is infinite.
    """
    match t:
        case Rooted(child):
            return _assemble(child, beta)
        case Fan(heads, tail):
            return _assemble_fan(t, heads, tail, beta)
        case Spine(heads, tail):
            return _assemble_spine(t, heads, tail, beta)
    raise AssertionError(f"no pieces to assemble in {t}")


def _merge(
    acc: tuple[_Parts, list[CanonicalForm], bool],
    sub: tuple[_Parts, list[CanonicalForm], bool],
    infinite_copies: bool,
) -> tuple[_Parts, list[CanonicalForm], bool]:
    parts, extras, h_inf = acc
    sub_parts, sub_extras, sub_inf = sub
    if infinite_copies:
        parts.extend((c, None) for c, _ in sub_parts)
        extras.extend(ideals.omega_sum(e) for e in sub_extras)
        return parts, extras, True
    parts.extend(sub_parts)
    extras.extend(sub_extras)
    return parts, extras, h_inf or sub_inf


def _assemble_fan(
    t: Fan, heads: tuple[TreeSchema, ...], tail, beta: Ordinal
) -> tuple[_Parts, list[CanonicalForm], bool]:
    acc: tuple[_Parts, list[CanonicalForm], bool] = ([], [], False)
    root_comps: list[CanonicalForm] = []
    for h in heads:
        if trees.is_empty(h):
            continue
        ih = rank.rank_info(h)
        assert ih.core_empty
        if ih.dom_stage == beta:
            acc = _merge(acc, _assemble(h, beta), infinite_copies=False)
        else:
            c = _via_class(h)
            if isinstance(c, CanonicalForm):
                root_comps.append(c)
    if not trees.tail_is_trivial(tail):
        if isinstance(tail, Const):
            it = rank.rank_info(tail.block)
            if it.dom_stage == beta:
                acc = _merge(acc, _assemble(tail.block, beta), infinite_copies=True)
            else:
                c = _via_class(tail.block)
                if c == FINITE_CLS:
                    root_comps.append(POW_FORM)  # omega many finite pieces
                elif isinstance(c, CanonicalForm):
                    root_comps.append(ideals.omega_sum(c))
        else:
            # all diagonal blocks fall before beta; their piece classes
            # have ranks cofinal in the limit rank
            root_comps.append(CanonicalForm(Kind.P, tail.rank))
    parts, extras, h_inf = acc
    if root_comps:
        parts.append((ideals.combine_all(root_comps), 1))
    return parts, extras, h_inf


def _assemble_spine(
    t: Spine, heads: tuple[TreeSchema, ...], tail, beta: Ordinal
) -> tuple[_Parts, list[CanonicalForm], bool]:
    acc: tuple[_Parts, list[CanonicalForm], bool] = ([], [], False)
    head_infos = [
        (n, rank.rank_info(h), h) for n, h in enumerate(heads) if not trees.is_empty(h)
    ]
    if isinstance(tail, Const) and not trees.tail_is_trivial(tail):
        tail_dom = rank.rank_info(tail.block).dom_stage
    elif isinstance(tail, (QDiag, PDiag)):
        tail_dom = tail.rank  # sup of the diagonal block domination stages
    else:
        tail_dom = None

    if tail_dom == beta:
        # the whole spine survives to the top stage: H is infinite
        for _, ih, h in head_infos:
            if ih.dom_stage == beta:
                acc = _merge(acc, _assemble(h, beta), infinite_copies=False)
            else:
                c = _via_class(h)
                if isinstance(c, CanonicalForm):
                    acc[0].append((c, 1))
        if isinstance(tail, Const):
            acc = _merge(acc, _assemble(tail.block, beta), infinite_copies=True)
        else:
            # one piece per spine node, classes with ranks cofinal in the limit
            acc[1].append(CanonicalForm(Kind.P, tail.rank))
        return acc[0], acc[1], True

    # the spine leaves H after the last copy whose domination stage is beta
    tops = [n for n, ih, _ in head_infos if ih.dom_stage == beta]
    assert tops, "beta must be attained among the copies"
    last_top = max(tops)
    for n, ih, h in head_infos:
        if n > last_top:
            continue
        if ih.dom_stage == beta:
            acc = _merge(acc, _assemble(h, beta), infinite_copies=False)
        else:
            c = _via_class(h)
            if isinstance(c, CanonicalForm):
                acc[0].append((c, 1))
    rest = trees.cone_of(t, (0,) * (last_top + 1))
    c = _via_class(rest)
    if isinstance(c, CanonicalForm):
        acc[0].append((c, 1))
    return acc


# --------------------------------------------------------------------------
# core expansion for the non-Borel witness


def find_expansion(c: TreeSchema) -> Expansion:
    """A core node with infinitely many core children, relative to ``c``.

    The core is not dominated, so (being a tree) it has an infinitely
    branching node; the search descends into a surviving block until the
    branching lives at the current root.
    """
    match c:
        case Full():
            return Expansion((), lambda k: k, trees.FULL)
        case Rooted(child):
            return find_expansion(child)
        case Fan(heads, tail):
            if (
                isinstance(tail, Const)
                and not trees.tail_is_trivial(tail)
                and not rank.rank_info(tail.block).core_empty
            ):
                base = len(heads)
                return Expansion((), lambda k: base + k, tail.block)
            for n, h in enumerate(heads):
                if not trees.is_empty(h) and not rank.rank_info(h).core_empty:
                    sub = find_expansion(h)
                    return Expansion((n,) + sub.path, sub.index, sub.child)
        case Spine(heads, tail):
            for n, h in enumerate(heads):
                if not trees.is_empty(h) and not rank.rank_info(h).core_empty:
                    sub = find_expansion(h)
                    return Expansion(trees.spine_root(n) + sub.path, sub.index, sub.child)
            if isinstance(tail, Const) and not rank.rank_info(tail.block).core_empty:
                sub = find_expansion(tail.block)
                return Expansion(
                    trees.spine_root(len(heads)) + sub.path, sub.index, sub.child
                )
    raise AssertionError(f"no expansion point in {c}: core is empty")

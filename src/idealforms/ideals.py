"""Term language for the ideal family and its canonical-form normalizer.

Expressions are built from FIN, the full power set, finite sums, constant
omega-sums, canonical limit diagonal sums and the orthogonal.  Every
expression rewrites to exactly one canonical form ``P(a)``, ``Q(a)`` or
``PQ(a)`` with an ordinal rank; two expressions denote isomorphic ideals
iff their canonical forms coincide.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from . import ordinals, text
from .errors import NotLimit
from .hashcons import Algebra, Term, _fold
from .ordinals import Ordinal, OrdKind


# --------------------------------------------------------------------------
# expression terms


class IdealExpr(Term):
    """Base class for ideal expression terms; all subtypes are immutable and interned."""

    __slots__ = ("_form",)  # the canonical form, see normalize


class Fin(IdealExpr):
    """The ideal of finite sets."""

    __slots__ = ()


class Pow(IdealExpr):
    """The full power set (the trivial ideal)."""

    __slots__ = ()


class P(IdealExpr):
    __slots__ = __match_args__ = ("rank",)


class Q(IdealExpr):
    __slots__ = __match_args__ = ("rank",)


class Perp(IdealExpr):
    __slots__ = __match_args__ = ("child",)


class Sum(IdealExpr):
    """Finite direct sum; at least one summand."""

    __slots__ = __match_args__ = ("parts",)

    def _init(self, parts: tuple[IdealExpr, ...]) -> None:
        if not parts:
            raise ValueError("finite sum needs at least one summand")
        self.parts = parts


class OmegaSum(IdealExpr):
    """Countable direct sum of copies of one ideal."""

    __slots__ = __match_args__ = ("child",)


class LimSum(IdealExpr):
    """Canonical diagonal sum along the fundamental sequence of a limit rank."""

    __slots__ = __match_args__ = ("rank",)


class MixSum(IdealExpr):
    """Finitely many leading summands followed by an infinite tail sum."""

    __slots__ = __match_args__ = ("heads", "tail")

    def _init(self, heads: tuple[IdealExpr, ...], tail: IdealExpr) -> None:
        if not isinstance(tail, (OmegaSum, LimSum)):
            raise ValueError("mix tail must be an omega-sum or a limit sum")
        self.heads, self.tail = heads, tail


# --------------------------------------------------------------------------
# canonical forms


class Kind(enum.Enum):
    P = "P"
    Q = "Q"
    PQ = "PQ"


class CanonicalForm(NamedTuple):
    """``P(rank)``, ``Q(rank)`` or ``PQ(rank)``; a plain value, not interned,
    because forms are built at every chain level where a lookup costs more."""

    kind: Kind
    rank: Ordinal

    def __str__(self) -> str:
        if self.rank.is_zero():
            if self.kind is Kind.P:
                return "POW"
            if self.kind is Kind.Q:
                return "FIN"
        return f"{self.kind.value}({self.rank})"

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "rank": str(self.rank), "printed": str(self)}


POW_FORM = CanonicalForm(Kind.P, ordinals.ZERO)
FIN_FORM = CanonicalForm(Kind.Q, ordinals.ZERO)


def combine(c1: CanonicalForm, c2: CanonicalForm) -> CanonicalForm:
    """Canonical form of the direct sum of two canonical ideals.

    The higher rank absorbs the lower regardless of kind; at equal rank
    the kinds join, with P + Q giving the mixed form PQ.
    """
    cmp = ordinals.compare(c1.rank, c2.rank)
    if cmp > 0:
        return c1
    if cmp < 0:
        return c2
    if c1.kind is c2.kind:
        return c1
    return CanonicalForm(Kind.PQ, c1.rank)


def combine_all(forms: list[CanonicalForm]) -> CanonicalForm:
    if not forms:
        raise ValueError("empty sum has no canonical form")
    acc = forms[0]
    for c in forms[1:]:
        acc = combine(acc, c)
    return acc


def perp(c: CanonicalForm) -> CanonicalForm:
    """Orthogonal: swaps P and Q at the same rank, fixes PQ."""
    if c.kind is Kind.P:
        return CanonicalForm(Kind.Q, c.rank)
    if c.kind is Kind.Q:
        return CanonicalForm(Kind.P, c.rank)
    return c


def omega_sum(c: CanonicalForm) -> CanonicalForm:
    """Canonical form of the omega-sum of copies of ``c``.

    P-kind sums regroup to the same P; a Q or mixed block pushed along an
    omega-sum steps the rank: the sum of Q(a)-copies is P(a+1) by
    definition, and the PQ case splits into an absorbed P part plus that.
    """
    if c.kind is Kind.P:
        return c
    return CanonicalForm(Kind.P, ordinals.succ(c.rank))


def lim_sum(rank: Ordinal) -> CanonicalForm:
    """Canonical form of the diagonal sum along a limit rank."""
    if ordinals.kind(rank) is not OrdKind.LIMIT:
        raise NotLimit(f"diagonal sum needs a limit rank, got {rank}")
    return CanonicalForm(Kind.P, rank)


def _rewrite(e: IdealExpr, forms: list[CanonicalForm]) -> CanonicalForm:
    """One rewriting step: the canonical form of ``e`` from the forms of
    its subexpressions."""
    match e:
        case Fin():
            return FIN_FORM
        case Pow():
            return POW_FORM
        case P(rank):
            return CanonicalForm(Kind.P, rank)
        case Q(rank):
            return CanonicalForm(Kind.Q, rank)
        case Perp():
            return perp(forms[0])
        case OmegaSum():
            return omega_sum(forms[0])
        case LimSum(rank):
            return lim_sum(rank)
        case Sum() | MixSum():
            return combine_all(forms)
    raise TypeError(f"not an ideal expression: {e!r}")


_NORMALIZE = Algebra("_form", _rewrite, text.children)


def normalize(e: IdealExpr) -> CanonicalForm:
    """Bottom-up rewriting of an expression to its canonical form, kept on
    the expression and on each subexpression."""
    return _fold(e, _NORMALIZE)


def b_rank(e: IdealExpr) -> Ordinal:
    return normalize(e).rank


def iso_check(e1: IdealExpr, e2: IdealExpr) -> bool:
    """True iff the two expressions denote isomorphic ideals."""
    return normalize(e1) == normalize(e2)

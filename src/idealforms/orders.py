"""Scattered countable linear orders and their well-ordered-set ideals.

Terms build orders from the naturals by reversal, finite concatenation
and omega-indexed sums that are eventually constant; the dense order of
the rationals is the one non-scattered atom.  Classification maps a term
to the canonical form of the ideal of well-ordered subsets of any copy of
the order inside the rationals: reversal is the orthogonal, sums are
direct sums.  A term containing the dense atom instead yields an order
embedding of the rationals routed through that occurrence.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Optional, Union as TUnion

from . import ideals, text
from .hashcons import Algebra, Interned, Term, _fold
from .ideals import CanonicalForm, POW_FORM

Interval = tuple[Optional[Fraction], Optional[Fraction]]
Pos = tuple


class LinTerm(Term):
    """Base class for linear order terms; all subtypes are interned."""

    __slots__ = ("_wo", "_rev")  # the answers of _WO and _REV


class Nat(LinTerm):
    """Order type of the naturals."""

    __slots__ = ()


class Rev(LinTerm):
    __slots__ = __match_args__ = ("child",)


class Cat(LinTerm):
    __slots__ = __match_args__ = ("parts",)

    def _init(self, parts: tuple[LinTerm, ...]) -> None:
        if not parts:
            raise ValueError("concatenation needs at least one part")
        self.parts = parts


class OmegaCat(LinTerm):
    """Omega-indexed sum, eventually the constant tail order."""

    __slots__ = __match_args__ = ("heads", "tail")


class RatQ(LinTerm):
    """Order type of the rationals."""

    __slots__ = ()


NAT = Nat()
RATQ = RatQ()


# --------------------------------------------------------------------------
# classification


class Scattered(Interned):
    __slots__ = __match_args__ = ("form",)

    def __str__(self) -> str:
        return f"Scattered({self.form})"


class NonScattered:
    def __init__(self, embedding: OrderEmbedding) -> None:
        self.embedding = embedding

    def __str__(self) -> str:
        return "NonScattered(dense-order embedding)"


WoClass = TUnion[Scattered, NonScattered]


def scattered_check(t: LinTerm) -> bool:
    """True iff the term contains no copy of the rationals."""
    return _fold(t, _WO) is not None


def wo_classify(t: LinTerm) -> WoClass:
    """Canonical form of the well-ordered-subset ideal, or a dense witness."""
    form = _fold(t, _WO)
    if form is None:
        return NonScattered(OrderEmbedding(t))
    return Scattered(form)


def _wo_node(t: LinTerm, forms: list) -> Optional[CanonicalForm]:
    """Canonical form of the well-ordered-subset ideal from those of the
    parts; None when the term contains the rationals."""
    if t is NAT:
        return POW_FORM  # every subset of an omega-chain is well-ordered
    if t is RATQ or any(f is None for f in forms):
        return None
    if type(t) is Rev:
        return ideals.perp(forms[0])
    if type(t) is OmegaCat:
        forms[-1] = ideals.omega_sum(forms[-1])
    elif type(t) is not Cat:
        raise TypeError(f"not an order term: {t!r}")
    return ideals.combine_all(forms)


_WO = Algebra("_wo", _wo_node, text.children)


def _rev_node(t: LinTerm, parts: list) -> Optional[LinTerm]:
    # None stands for Rev(t): stored on t, Rev(t) would form a cycle
    if t is NAT or type(t) is OmegaCat:
        return None
    if t is RATQ:
        return t  # self-dual under negation
    if type(t) is Rev:
        return t.child
    if type(t) is not Cat:
        raise TypeError(f"not an order term: {t!r}")
    return Cat(tuple(Rev(p) if r is None else r for p, r in zip(reversed(t.parts), reversed(parts))))


# only a concatenation reverses its parts
_REV = Algebra("_rev", _rev_node, kids=lambda t: t.parts if type(t) is Cat else ())


def reverse_term(t: LinTerm) -> LinTerm:
    """Rev-normalized reversal; Rev survives only on atoms and omega sums."""
    out = _fold(t, _REV)
    return Rev(t) if out is None else out


def wo_self_dual(t: LinTerm) -> tuple[LinTerm, WoClass]:
    """The reversal together with its classification.

    For scattered terms the reversal classifies to the orthogonal of the
    original classification; a failure of that identity is an engine bug,
    never an input error, so it raises here even under ``python -O``.
    """
    rev = reverse_term(t)
    out = wo_classify(rev)
    orig = wo_classify(t)
    if isinstance(orig, Scattered):
        if not isinstance(out, Scattered) or out.form != ideals.perp(orig.form):
            raise AssertionError((t, orig, out))
    elif not isinstance(out, NonScattered):
        raise AssertionError
    return rev, out


# --------------------------------------------------------------------------
# embedding into the rationals


def _point(lo: Optional[Fraction], hi: Optional[Fraction], j: int = 1) -> Optional[Fraction]:
    """``j`` halving steps from ``lo`` to ``hi`` (unit steps where an end is
    missing): j - 1 with neither, lo + j, hi - 2^(1-j), hi - (hi - lo)/2^j."""
    if j == 0:
        return lo
    if hi is None:
        return Fraction(j - 1) if lo is None else lo + j
    return hi - (Fraction(2, 1 << j) if lo is None else (hi - lo) / (1 << j))


def _cut(interval: Interval, k: int, last: bool = False) -> Interval:
    """Part ``k`` of consecutive subintervals climbing toward the right
    endpoint; the ``last`` part of a finite split ends at the endpoint."""
    lo, hi = interval
    return (_point(lo, hi, k), hi if last else _point(lo, hi, k + 1))


def _mirror(interval: Interval) -> Interval:
    lo, hi = interval
    return (None if hi is None else -hi, None if lo is None else -lo)


def enumerate_positions(t: LinTerm) -> Iterator[Pos]:
    """Canonical prefix-stable enumeration of the order's elements."""
    for n in itertools.count():
        yield _position(t, n)


def _position(t: LinTerm, n: int) -> Pos:
    """The ``n``-th position of the enumeration, by one walk down the term.
    A concatenation takes its parts round-robin, an omega sum runs its
    blocks diagonally (total index, then block), the rationals list the
    binary tree paths by length, then lexicographically."""
    blocks = []  # the part or block taken at each level
    while True:
        if type(t) is Rev:
            t = t.child
        elif type(t) is Cat:
            k = n % len(t.parts)
            blocks.append(k)
            t, n = t.parts[k], n // len(t.parts)
        elif type(t) is OmegaCat:
            total = (math.isqrt(8 * n + 1) - 1) // 2
            k = n - total * (total + 1) // 2
            blocks.append(k)
            t, n = _block_of(t, k), total - k
        elif t is NAT:
            out: Pos = (n,)
            break
        elif t is RATQ:
            depth = (n + 1).bit_length() - 1
            row = n + 1 - (1 << depth)  # the path's index among those of its length
            out = tuple((row >> (depth - 1 - i)) & 1 for i in range(depth))
            break
        else:
            raise TypeError(f"not an order term: {t!r}")
    for k in reversed(blocks):
        out = (k, out)
    return out


def _block_of(t: OmegaCat, k: int) -> LinTerm:
    return t.heads[k] if k < len(t.heads) else t.tail


def pos_cmp(t: LinTerm, p: Pos, q: Pos) -> int:
    """Abstract order comparison of two positions; independent of embed."""
    sign = 1  # flipped by each reversal passed
    while True:
        if t is NAT:
            return sign * ((p[0] > q[0]) - (p[0] < q[0]))
        if t is RATQ:
            return sign * _bst_cmp(p, q)
        if type(t) is Rev:
            sign, t = -sign, t.child
            continue
        if type(t) is not Cat and type(t) is not OmegaCat:
            raise TypeError(f"not an order term: {t!r}")
        if p[0] != q[0]:
            return sign if p[0] > q[0] else -sign
        t = t.parts[p[0]] if type(t) is Cat else _block_of(t, p[0])
        p, q = p[1], q[1]


def _bst_cmp(p: Pos, q: Pos) -> int:
    """In-order comparison of binary tree paths: left subtree < node < right."""
    for a, b in zip(p, q):
        if a != b:
            return 1 if a > b else -1
    if len(p) == len(q):
        return 0
    if len(p) < len(q):
        return -1 if q[len(p)] == 1 else 1
    return 1 if p[len(q)] == 1 else -1


def embed_position(t: LinTerm, p: Pos) -> Fraction:
    """Order-faithful image of a position in the rationals: one walk down
    the term, narrowing an interval, mirrored under each reversal."""
    interval, flipped = (None, None), False
    while True:
        if type(t) is Rev:
            interval, flipped, t = _mirror(interval), not flipped, t.child
            continue
        if type(t) is Cat:
            interval, t = _cut(interval, p[0], p[0] == len(t.parts) - 1), t.parts[p[0]]
        elif type(t) is OmegaCat:
            interval, t = _cut(interval, p[0]), _block_of(t, p[0])
        elif t is NAT:
            v = _cut(interval, p[0])[1]
            break
        elif t is RATQ:
            lo, hi = interval
            v = _point(lo, hi)
            for bit in p:
                lo, hi = (lo, v) if bit == 0 else (v, hi)
                v = _point(lo, hi)
            break
        else:
            raise TypeError(f"not an order term: {t!r}")
        p = p[1]
    return -v if flipped else v


def rationalize(t: LinTerm, n: int) -> list[Fraction]:
    """First n elements of the fixed embedding, in enumeration order."""
    return [embed_position(t, p) for p in itertools.islice(enumerate_positions(t), n)]


class OrderEmbedding:
    """Order embedding of the rationals through the first dense occurrence."""

    def __init__(self, term: LinTerm):
        self.term = term
        self.path, self.interval, self.flips = _dense_occurrence(term)

    def map(self, q: Fraction) -> Fraction:
        # under an odd number of reversals the atom frame runs backwards;
        # feeding -q and negating the result keeps the map order-preserving.
        # x = 1/2 + q / (2 (1 + |q|)) in (0, 1) is up / 2s and 1 - x is down / 2s
        a = -q.numerator if self.flips else q.numerator
        s = q.denominator + abs(a)  # b + |a| for q = a / b
        up, down = s + a, s - a
        lo, hi = self.interval
        if lo is None and hi is None:  # (2x - 1) / (x (1 - x))
            num, den = 4 * a * s, up * down
        elif lo is None:  # hi - (1 - x) / x
            num, den = hi.numerator * up - hi.denominator * down, hi.denominator * up
        elif hi is None:  # lo + x / (1 - x)
            num, den = lo.numerator * down + lo.denominator * up, lo.denominator * down
        else:  # lo (1 - x) + hi x
            num = lo.numerator * hi.denominator * down + hi.numerator * lo.denominator * up
            den = 2 * s * lo.denominator * hi.denominator
        return Fraction(-num if self.flips else num, den)


def _dense_occurrence(t: LinTerm) -> tuple[tuple, Interval, bool]:
    """Path, target interval and net reversal of the first dense atom: one
    walk down into the first part that is not scattered, which holds the
    first ``QQ`` from the left.  The classification of every part is a
    slot that ``wo_classify`` has filled."""
    if _fold(t, _WO) is not None:
        raise AssertionError(f"no dense occurrence in {t}")
    path: list = []
    interval, flipped = (None, None), False
    while t is not RATQ:
        if type(t) is Rev:
            path.append("rev")
            interval, flipped, t = _mirror(interval), not flipped, t.child
            continue
        parts = t.parts if type(t) is Cat else (*t.heads, t.tail)
        k = next(k for k, p in enumerate(parts) if _fold(p, _WO) is None)
        path.append(("cat" if type(t) is Cat else "block", k))
        interval = _cut(interval, k, type(t) is Cat and k == len(parts) - 1)
        t = parts[k]
    return tuple(path), interval, flipped

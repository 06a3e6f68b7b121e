"""Scattered countable linear orders and their well-ordered-set ideals.

Terms build orders from the naturals by reversal, finite concatenation
and omega-indexed sums that are eventually constant; the dense order of
the rationals is the one non-scattered atom.  Classification maps a term
to the canonical form of the ideal of well-ordered subsets of any copy of
the order inside the rationals: reversal is the orthogonal, sums are
direct sums.  A term containing the dense atom instead yields an order
embedding of the rationals routed through that occurrence.

Two folds read a term bottom up, its classification and its reversal;
enumeration, comparison, images and the dense witness go down one walk
(``_walk``), each naming the part it takes at every sum.  The images and
the witness narrow one frame along it; the comparison shares only the
walk, so it checks the embedding rather than restating it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union as TUnion

from . import ideals, text
from .hashcons import Algebra, Interned, Term, _fold
from .ideals import CanonicalForm, POW_FORM

if TYPE_CHECKING:  # a Fraction is built, and fractions loaded, only by the embeddings
    from fractions import Fraction

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
    import fractions  # per call, a tenth of the cost of `from fractions import Fraction`

    if j == 0:
        return lo
    if hi is None:
        return fractions.Fraction(j - 1) if lo is None else lo + j
    return hi - (fractions.Fraction(2, 1 << j) if lo is None else (hi - lo) / (1 << j))


def _cut(interval: Interval, k: int, last: bool = False) -> Interval:
    """Part ``k`` of consecutive subintervals climbing toward the right
    endpoint; the ``last`` part of a finite split ends at the endpoint."""
    lo, hi = interval
    return (_point(lo, hi, k), hi if last else _point(lo, hi, k + 1))


def _walk(t: LinTerm, choose: Callable, state) -> tuple[list, object]:
    """The one walk down an order term, the counterpart of ``trees.walk``:
    past each reversal and, at a concatenation or omega sum, into the part
    ``k`` that ``choose(t, state)`` names as ``(k, state)``, to an atom or
    where ``choose`` declines with None.  Returns the steps (reversals so
    far, sum, ``k``), the last (reversals, term reached, None), and the state."""
    steps, revs = [], 0
    while True:
        kind = type(t)
        if kind is Rev:
            t, revs = t.child, revs + 1
        elif kind is Cat or kind is OmegaCat:
            got = choose(t, state)
            if got is None:
                break
            k, state = got
            steps.append((revs, t, k))
            t = t.parts[k] if kind is Cat else t.heads[k] if k < len(t.heads) else t.tail
        elif t is NAT or t is RATQ:
            break
        else:
            raise TypeError(f"not an order term: {t!r}")
    steps.append((revs, t, None))
    return steps, state


def _frame(steps: list) -> tuple[Interval, bool]:
    """The interval a walk's steps narrow ``(None, None)`` to, and whether
    it runs backwards: mirrored under each reversal, cut at each part
    taken, a concatenation's last part ending at the endpoint."""
    interval, flipped = (None, None), False
    for revs, t, k in steps:
        if revs % 2 != flipped:
            lo, hi = interval
            interval, flipped = (None if hi is None else -hi, None if lo is None else -lo), not flipped
        if k is not None:
            interval = _cut(interval, k, type(t) is Cat and k == len(t.parts) - 1)
    return interval, flipped


def enumerate_positions(t: LinTerm) -> Iterator[Pos]:
    """Canonical prefix-stable enumeration of the order's elements."""
    for n in itertools.count():
        yield _position(t, n)


def _position(t: LinTerm, n: int) -> Pos:
    """The ``n``-th position: the part taken at each level, around the atom's
    own.  The rationals list the binary tree paths by length, then
    lexicographically: path n is n + 1 in binary without its leading 1."""
    steps, n = _walk(t, _nth, n)
    out: Pos = (n,) if steps[-1][1] is NAT else tuple(map(int, bin(n + 1)[3:]))
    for _, _, k in steps[-2::-1]:
        out = (k, out)
    return out


def _nth(t: Cat | OmegaCat, n: int) -> tuple[int, int]:
    """Round-robin over a concatenation; diagonally over an omega sum."""
    if type(t) is Cat:
        return n % len(t.parts), n // len(t.parts)
    total = (math.isqrt(8 * n + 1) - 1) // 2
    k = n - total * (total + 1) // 2
    return k, total - k


def pos_cmp(t: LinTerm, p: Pos, q: Pos) -> int:
    """Abstract order comparison of two positions; independent of embed.
    The walk takes the part both name until they part or reach an atom;
    there a part or natural compares by index, and a binary tree path p
    sorts as ``p + (1,)``: after its left subtree, before its right one."""
    def along(_, p: Pos) -> Optional[Pos]:  # follow p while q takes the same part
        nonlocal q
        if p[0] != q[0]:
            return None
        q = q[1]
        return p

    steps, p = _walk(t, along, p)
    p, q = p + (1,), q + (1,)
    c = (p > q) - (p < q)
    return -c if steps[-1][0] % 2 else c


def embed_position(t: LinTerm, p: Pos) -> Fraction:
    """Order-faithful image of a position in the rationals: the walk to its
    atom narrows the frame, where a natural n takes the point n + 1 steps
    in and a binary tree path halves down to its node."""
    steps, p = _walk(t, lambda _, p: p, p)
    (lo, hi), flipped = _frame(steps)
    if steps[-1][1] is NAT:
        v = _point(lo, hi, p[0] + 1)
    else:
        v = _point(lo, hi)
        for bit in p:
            lo, hi = (lo, v) if bit == 0 else (v, hi)
            v = _point(lo, hi)
    return -v if flipped else v


def rationalize(t: LinTerm, n: int) -> list[Fraction]:
    """First n elements of the fixed embedding, in enumeration order."""
    return [embed_position(t, p) for p in itertools.islice(enumerate_positions(t), n)]


class OrderEmbedding:
    """Order embedding of the rationals through the first dense occurrence."""

    def __init__(self, term: LinTerm):
        self.path, self.interval, self.flips = _dense_occurrence(term)

    def map(self, q: Fraction) -> Fraction:
        # under an odd number of reversals the atom frame runs backwards;
        # feeding -q and negating the result keeps the map order-preserving.
        # x = 1/2 + q / (2 (1 + |q|)) in (0, 1) is up / 2s and 1 - x is down / 2s
        import fractions

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
        return fractions.Fraction(-num if self.flips else num, den)


def _dense_occurrence(t: LinTerm) -> tuple[tuple, Interval, bool]:
    """Path, target interval and net reversal of the first dense atom: the
    walk into the first part that is not scattered, which holds the first
    ``QQ`` from the left.  The classification of every part is a slot that
    ``wo_classify`` has filled."""
    if _fold(t, _WO) is not None:
        raise AssertionError(f"no dense occurrence in {t}")
    steps, _ = _walk(t, _first_dense, None)
    path, before = [], 0
    for revs, s, k in steps:
        path += ["rev"] * (revs - before)
        if k is not None:
            path.append(("cat" if type(s) is Cat else "block", k))
        before = revs
    return (tuple(path), *_frame(steps))


def _first_dense(t: Cat | OmegaCat, _) -> tuple[int, None]:
    parts = t.parts if type(t) is Cat else (*t.heads, t.tail)
    return next(k for k, p in enumerate(parts) if _fold(p, _WO) is None), None

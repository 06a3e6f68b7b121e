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
from fractions import Fraction
from typing import Iterator, Optional, Union as TUnion

from . import ideals, text
from .hashcons import Interned
from .ideals import CanonicalForm, POW_FORM

Interval = tuple[Optional[Fraction], Optional[Fraction]]
Pos = tuple


class LinTerm(Interned):
    """Base class for linear order terms; all subtypes are interned."""

    __slots__ = ()

    def __str__(self) -> str:
        return text.format_term(self)


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
    return _wo_form(t) is not None


def wo_classify(t: LinTerm) -> WoClass:
    """Canonical form of the well-ordered-subset ideal, or a dense witness."""
    form = _wo_form(t)
    if form is None:
        return NonScattered(OrderEmbedding(t))
    return Scattered(form)


def _wo_form(t: LinTerm) -> Optional[CanonicalForm]:
    """Canonical form of the well-ordered-subset ideal; None when the term
    contains the rationals."""
    match t:
        case Nat():
            return POW_FORM  # every subset of an omega-chain is well-ordered
        case RatQ():
            return None
        case Rev(child):
            form = _wo_form(child)
            return None if form is None else ideals.perp(form)
        case Cat(parts):
            forms = [_wo_form(p) for p in parts]
        case OmegaCat(heads, tail):
            forms = [_wo_form(p) for p in (*heads, tail)]
            if forms[-1] is not None:
                forms[-1] = ideals.omega_sum(forms[-1])
        case _:
            raise TypeError(f"not an order term: {t!r}")
    return None if any(f is None for f in forms) else ideals.combine_all(forms)


def reverse_term(t: LinTerm) -> LinTerm:
    """Rev-normalized reversal; Rev survives only on atoms and omega sums."""
    match t:
        case Nat() | OmegaCat(_, _):
            return Rev(t)
        case RatQ():
            return t  # self-dual under negation
        case Rev(child):
            return child
        case Cat(parts):
            return Cat(tuple(reverse_term(p) for p in reversed(parts)))
    raise TypeError(f"not an order term: {t!r}")


def wo_self_dual(t: LinTerm) -> tuple[LinTerm, WoClass]:
    """The reversal together with its classification.

    For scattered terms the reversal classifies to the orthogonal of the
    original classification; that identity is asserted here because its
    failure would be an engine bug, never an input error.
    """
    rev = reverse_term(t)
    out = wo_classify(rev)
    orig = wo_classify(t)
    if isinstance(orig, Scattered):
        assert isinstance(out, Scattered)
        assert out.form == ideals.perp(orig.form), (t, orig, out)
    else:
        assert isinstance(out, NonScattered)
    return rev, out


# --------------------------------------------------------------------------
# embedding into the rationals


def _point(lo: Optional[Fraction], hi: Optional[Fraction]) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def _cuts(interval: Interval, n: int) -> list[Interval]:
    """n consecutive subintervals climbing toward the right endpoint."""
    lo, hi = interval
    out: list[Interval] = []
    cur = lo
    for i in range(n - 1):
        nxt = _point(cur, hi)
        out.append((cur, nxt))
        cur = nxt
    out.append((cur, hi))
    return out


def _omega_cut(interval: Interval, k: int) -> Interval:
    lo, hi = interval
    cur = lo
    for _ in range(k):
        cur = _point(cur, hi)
    return (cur, _point(cur, hi))


def _mirror(interval: Interval) -> Interval:
    lo, hi = interval
    return (None if hi is None else -hi, None if lo is None else -lo)


def enumerate_positions(t: LinTerm) -> Iterator[Pos]:
    """Canonical prefix-stable enumeration of the order's elements."""
    match t:
        case Nat() | RatQ():
            yield from _atom_positions(t)
        case Rev(child):
            yield from enumerate_positions(child)
        case Cat(parts):
            # every order term is infinite, so round-robin never starves
            streams = [enumerate_positions(p) for p in parts]
            while True:
                for i, stream in enumerate(streams):
                    yield (i, next(stream))
        case OmegaCat(_, _):
            for total in itertools.count():
                for k in range(total + 1):
                    yield (k, _block_position(t, k, total - k))
        case _:
            raise TypeError(f"not an order term: {t!r}")


def _atom_positions(t: LinTerm) -> Iterator[Pos]:
    if isinstance(t, Nat):
        for k in itertools.count():
            yield (k,)
    else:
        for depth in itertools.count():
            for bits in itertools.product((0, 1), repeat=depth):
                yield bits


def _block_position(t: OmegaCat, k: int, idx: int) -> Pos:
    return next(itertools.islice(enumerate_positions(_block_of(t, k)), idx, None))


def _block_of(t: OmegaCat, k: int) -> LinTerm:
    return t.heads[k] if k < len(t.heads) else t.tail


def pos_cmp(t: LinTerm, p: Pos, q: Pos) -> int:
    """Abstract order comparison of two positions; independent of embed."""
    match t:
        case Nat():
            return (p[0] > q[0]) - (p[0] < q[0])
        case RatQ():
            return _bst_cmp(p, q)
        case Rev(child):
            return -pos_cmp(child, p, q)
        case Cat(parts):
            if p[0] != q[0]:
                return 1 if p[0] > q[0] else -1
            return pos_cmp(parts[p[0]], p[1], q[1])
        case OmegaCat(_, _):
            if p[0] != q[0]:
                return 1 if p[0] > q[0] else -1
            return pos_cmp(_block_of(t, p[0]), p[1], q[1])
    raise TypeError(f"not an order term: {t!r}")


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


def embed_position(t: LinTerm, p: Pos, interval: Interval = (None, None)) -> Fraction:
    """Order-faithful image of a position inside the interval."""
    match t:
        case Nat():
            lo, hi = interval
            cur = _point(lo, hi)
            for _ in range(p[0]):
                cur = _point(cur, hi)
            return cur
        case RatQ():
            lo, hi = interval
            v = _point(lo, hi)
            for bit in p:
                lo, hi = (lo, v) if bit == 0 else (v, hi)
                v = _point(lo, hi)
            return v
        case Rev(child):
            return -embed_position(child, p, _mirror(interval))
        case Cat(parts):
            sub = _cuts(interval, len(parts))[p[0]]
            return embed_position(parts[p[0]], p[1], sub)
        case OmegaCat(_, _):
            return embed_position(_block_of(t, p[0]), p[1], _omega_cut(interval, p[0]))
    raise TypeError(f"not an order term: {t!r}")


def rationalize(t: LinTerm, n: int) -> list[Fraction]:
    """First n elements of the fixed embedding, in enumeration order."""
    out = []
    for p in itertools.islice(enumerate_positions(t), n):
        out.append(embed_position(t, p))
    return out


class OrderEmbedding:
    """Order embedding of the rationals through the first dense occurrence."""

    def __init__(self, term: LinTerm):
        self.term = term
        path, interval, flips = _dense_occurrence(term)
        self.path = path
        self.interval = interval
        self.flips = flips

    def map(self, q: Fraction) -> Fraction:
        # under an odd number of reversals the atom frame runs backwards;
        # feeding -q and negating the result keeps the map order-preserving
        if self.flips:
            q = -q
        x = Fraction(1, 2) + q / (2 * (1 + abs(q)))  # order-preserving into (0,1)
        lo, hi = self.interval
        if lo is None and hi is None:
            v = (2 * x - 1) / (x * (1 - x))
        elif lo is None:
            v = hi - (1 - x) / x
        elif hi is None:
            v = lo + x / (1 - x)
        else:
            v = lo + (hi - lo) * x
        return -v if self.flips else v


def _dense_occurrence(t: LinTerm) -> tuple[tuple, Interval, bool]:
    """Path, target interval and net reversal of the first dense atom.

    The first part that is not scattered is the part holding the first
    ``QQ`` from the left, so one walk down, left to right, finds the
    path; the interval and the flips are then folded along it."""
    stack: list[tuple] = [(t, None)]  # a term and the link to its path
    while stack:
        node, link = stack.pop()
        if node is RATQ:
            break
        if type(node) is Rev:
            stack.append((node.child, ("rev", link)))
        elif type(node) is Cat or type(node) is OmegaCat:
            parts = node.parts if type(node) is Cat else (*node.heads, node.tail)
            step = "cat" if type(node) is Cat else "block"
            stack += [(p, ((step, i), link)) for i, p in reversed(list(enumerate(parts)))]
    else:
        raise AssertionError(f"no dense occurrence in {t}")
    path: list = []
    while link is not None:
        step, link = link
        path.append(step)
    path.reverse()
    interval, flipped, node = (None, None), False, t
    for step in path:
        if step == "rev":
            interval, flipped, node = _mirror(interval), not flipped, node.child
        elif step[0] == "cat":
            interval, node = _cuts(interval, len(node.parts))[step[1]], node.parts[step[1]]
        else:
            interval, node = _omega_cut(interval, step[1]), _block_of(node, step[1])
    return tuple(path), interval, flipped

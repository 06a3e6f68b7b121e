"""Countable ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum ``w^e1*c1 + ... + w^ek*ck + n`` with strictly
decreasing positive exponents (themselves ordinals), positive integer
coefficients and a natural ``n``; the empty sum is 0.  An ``Ordinal``
holds the pairs ``(ei, ci)`` as ``terms`` and ``n`` as ``nat``, interned
under ``(Ordinal, terms, nat)``.  This representation is closed under
comparison, addition and the fundamental-sequence assignment used by the
canonical-form engine, which is all the rest of the package needs.
"""

from __future__ import annotations

import enum

from .errors import NotLimit
from .hashcons import Term, _intern


class OrdKind(enum.Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


class Ordinal(Term):
    """Cantor normal form: ``terms``, the (exponent, coefficient) pairs with
    positive, strictly decreasing exponents, plus ``nat``, the coefficient
    of w^0.  Interned under ``(Ordinal, terms, nat)``."""

    # _levels: the top chain levels compiled at this rank, which unfold
    # on demand, see trees.compile_form
    __slots__ = ("terms", "nat", "_levels")
    __match_args__ = ("terms", "nat")
    terms: tuple[tuple[Ordinal, int], ...]
    nat: int

    def __new__(cls, terms: tuple[tuple[Ordinal, int], ...] = (), nat: int = 0) -> Ordinal:
        return _intern(cls, terms, nat)

    def _init(self, terms: tuple[tuple[Ordinal, int], ...], nat: int) -> None:
        self.terms, self.nat, self._levels = terms, nat, None
        if nat < 0:
            raise ValueError(f"ordinals are non-negative, got {nat}")
        if terms and terms[-1][0] is ZERO:
            raise ValueError("the coefficient of w^0 is nat, not a pair")
        prev = None
        for exponent, coeff in terms:
            if coeff < 1:
                raise ValueError(f"coefficient {coeff} < 1")
            if prev is not None and compare(prev, exponent) <= 0:
                raise ValueError("exponents not strictly decreasing")
            prev = exponent

    def is_zero(self) -> bool:
        return self is ZERO

    def __lt__(self, other: Ordinal) -> bool:
        return compare(self, other) < 0

    def __le__(self, other: Ordinal) -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: Ordinal) -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: Ordinal) -> bool:
        return compare(self, other) >= 0

    def __add__(self, other: Ordinal) -> Ordinal:
        return add(self, other)


ZERO = Ordinal()
ONE = Ordinal((), 1)
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    return Ordinal((), n)


def omega_power(exponent: Ordinal, coeff: int = 1) -> Ordinal:
    return Ordinal((), coeff) if exponent is ZERO else Ordinal(((exponent, coeff),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total CNF order; returns -1, 0 or 1.  Equal ordinals are one object,
    so the first pair of exponents that differ decides, and the loop walks
    down to it; past equal pairs, more pairs and then a larger ``nat`` win."""
    while a is not b:
        if a.terms == b.terms:  # two finite ordinals, say, differ in nat alone
            return -1 if a.nat < b.nat else 1
        for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
            if ea is not eb:
                a, b = ea, eb
                break
            if ca != cb:
                return -1 if ca < cb else 1
        else:
            m, n = len(a.terms), len(b.terms)
            return -1 if m < n or m == n and a.nat < b.nat else 1
    return 0


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition; terms of ``a`` below b's lead exponent are absorbed."""
    if not b.terms:  # a finite b only adds to a's finite part
        return Ordinal(a.terms, a.nat + b.nat)
    lead, coeff = b.terms[0]
    kept = tuple(t for t in a.terms if compare(t[0], lead) > 0)
    rest = a.terms[len(kept):]
    # a's term at the lead exponent merges coefficients instead of vanishing
    if rest and rest[0][0] is lead:
        return Ordinal(kept + ((lead, rest[0][1] + coeff),) + b.terms[1:], b.nat)
    return Ordinal(kept + b.terms, b.nat)


def succ(a: Ordinal) -> Ordinal:
    return Ordinal(a.terms, a.nat + 1)


def kind(a: Ordinal) -> OrdKind:
    if a.nat:
        return OrdKind.SUCCESSOR
    return OrdKind.LIMIT if a.terms else OrdKind.ZERO


def pred(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    if not a.nat:
        raise ValueError(f"{a} has no predecessor")
    return Ordinal(a.terms, a.nat - 1)


def fund_seq(a: Ordinal, n: int) -> Ordinal:
    """n-th member of the canonical fundamental sequence of a limit ordinal.

    Rules: (b + w^(g+1))[n] = b + w^g*(n+1) and (b + w^l)[n] = b + w^(l[n])
    for l limit.  Strictly increasing in n with supremum ``a``.
    """
    if kind(a) is not OrdKind.LIMIT:
        raise NotLimit(f"fundamental sequence of non-limit ordinal {a}")
    if n < 0:
        raise ValueError("index must be >= 0")
    down = []  # the base of each level above, on a limit exponent
    while True:
        exponent, coeff = a.terms[-1]
        base = Ordinal(a.terms[:-1] if coeff == 1 else a.terms[:-1] + ((exponent, coeff - 1),))
        if kind(exponent) is OrdKind.SUCCESSOR:
            break
        down.append(base)
        a = exponent
    out = add(base, omega_power(pred(exponent), n + 1))
    for base in reversed(down):
        out = add(base, omega_power(out))
    return out

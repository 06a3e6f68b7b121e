"""Countable ordinals below epsilon_0 in Cantor normal form.

An ordinal is a finite sum ``w^e1*c1 + ... + w^ek*ck`` with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients; the empty sum is 0.  This representation is closed under
comparison, addition and the fundamental-sequence assignment used by the
canonical-form engine, which is all the rest of the package needs.
"""

from __future__ import annotations

import enum

from .errors import NotLimit
from .hashcons import Term


class OrdKind(enum.Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


class Ordinal(Term):
    """Cantor normal form: tuple of (exponent, coefficient) pairs."""

    # _levels: the top chain levels compiled at this rank, which unfold
    # on demand, see trees.compile_form
    __slots__ = ("terms", "_levels")
    __match_args__ = ("terms",)
    terms: tuple[tuple[Ordinal, int], ...]

    def _init(self, terms: tuple[tuple[Ordinal, int], ...]) -> None:
        self.terms, self._levels = terms, None
        prev = None
        for exponent, coeff in self.terms:
            if coeff < 1:
                raise ValueError(f"coefficient {coeff} < 1")
            if prev is not None and compare(prev, exponent) <= 0:
                raise ValueError("exponents not strictly decreasing")
            prev = exponent

    def is_zero(self) -> bool:
        return not self.terms

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


ZERO = Ordinal(())
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError(f"ordinals are non-negative, got {n}")
    return ZERO if n == 0 else Ordinal(((ZERO, n),))


def omega_power(exponent: Ordinal, coeff: int = 1) -> Ordinal:
    return Ordinal(((exponent, coeff),))


def _nat(a: Ordinal) -> int | None:
    """The value of a finite ordinal, None for an infinite one: a leading
    exponent of 0 is the only term."""
    terms = a.terms
    if not terms:
        return 0
    return terms[0][1] if terms[0][0] is ZERO else None


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total CNF order; returns -1, 0 or 1.  Equal ordinals are one object,
    so the first pair of exponents that differ decides, and the loop walks
    down to it."""
    while a is not b:
        m, n = _nat(a), _nat(b)
        if m is not None and n is not None:
            return -1 if m < n else 1
        for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
            if ea is not eb:
                a, b = ea, eb
                break
            if ca != cb:
                return -1 if ca < cb else 1
        else:
            return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition; terms of ``a`` below b's lead exponent are absorbed."""
    n = _nat(b)
    if n is not None:
        # a finite b only adds to a's finite last term
        if n == 0:
            return a
        terms = a.terms
        if terms and terms[-1][0] is ZERO:
            return Ordinal(terms[:-1] + ((ZERO, terms[-1][1] + n),))
        return Ordinal(terms + ((ZERO, n),))
    if a.is_zero():
        return b
    lead = b.terms[0][0]
    kept = [t for t in a.terms if compare(t[0], lead) > 0]
    merged = list(b.terms)
    # a's term at the lead exponent merges coefficients instead of vanishing
    if len(kept) < len(a.terms) and compare(a.terms[len(kept)][0], lead) == 0:
        merged[0] = (lead, a.terms[len(kept)][1] + b.terms[0][1])
    return Ordinal(tuple(kept) + tuple(merged))


def succ(a: Ordinal) -> Ordinal:
    """Successor: one more on the last term when it is finite."""
    terms = a.terms
    if terms and terms[-1][0] is ZERO:
        return Ordinal(terms[:-1] + ((ZERO, terms[-1][1] + 1),))
    return Ordinal(terms + ((ZERO, 1),))


def kind(a: Ordinal) -> OrdKind:
    if not a.terms:
        return OrdKind.ZERO
    if a.terms[-1][0] is ZERO:
        return OrdKind.SUCCESSOR
    return OrdKind.LIMIT


def pred(a: Ordinal) -> Ordinal:
    """Predecessor of a successor ordinal."""
    terms = a.terms
    if not terms or terms[-1][0] is not ZERO:
        raise ValueError(f"{a} has no predecessor")
    coeff = terms[-1][1]
    if coeff > 1:
        return Ordinal(terms[:-1] + ((ZERO, coeff - 1),))
    return Ordinal(terms[:-1])


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

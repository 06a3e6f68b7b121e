"""Parsers for the published grammars (documented in docs/grammar.md).

Each parser is recursive descent over one shared token stream; printers
live next to their types and round-trip through these parsers.  Only the
ordinal and ideal-expression grammars load their modules up front; the
tree, query and order grammars import theirs when they build a term.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from . import ideals, ordinals
from .errors import ParseError
from .ideals import IdealExpr
from .ordinals import Ordinal

if TYPE_CHECKING:
    from .membership import QueryTerm
    from .orders import LinTerm
    from .trees import SchemaSeq, Seq, TreeSchema

# whitespace is space, tab, CR and LF only (docs/grammar.md)
_SPACE = " \t\r\n"
_TOKEN = re.compile(rf"[{re.escape(_SPACE)}]*([A-Za-z]+|[0-9]+|[()\[\]{{}},;<>^*+])")


class _Stream:
    def __init__(self, text: str) -> None:
        self.text, self.tokens, self.pos = text, [], 0
        i = 0
        while i < len(text):
            m = _TOKEN.match(text, i)
            if m is None:
                if text[i:].strip(_SPACE):
                    raise ParseError(f"bad character at {i}: {text[i:i+8]!r}")
                break
            self.tokens.append(m.group(1))
            i = m.end()

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r} in {self.text!r}")

    def done(self) -> None:
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input from {self.tokens[self.pos]!r} in {self.text!r}")

    def nat(self) -> int:
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected a natural number, got {tok!r}")
        return int(tok)

    def items(self, item, close: str, empty_ok: bool = False) -> list:
        """``item (, item)*`` up to and including the ``close`` token."""
        out = []
        if not (empty_ok and self.peek() == close):
            out.append(item(self))
            while self.peek() == ",":
                self.next()
                out.append(item(self))
        self.expect(close)
        return out


# --------------------------------------------------------------------------
# ordinals


def parse_ordinal(text: str) -> Ordinal:
    s = _Stream(text)
    out = _ordinal(s)
    s.done()
    return out


def _ordinal(s: _Stream) -> Ordinal:
    out = _ordinal_term(s)
    while s.peek() == "+":
        s.next()
        out = ordinals.add(out, _ordinal_term(s))
    return out


def _ordinal_term(s: _Stream) -> Ordinal:
    atom = _ordinal_atom(s)
    if s.peek() == "*":
        s.next()
        n = s.nat()
        # multiplication by a natural scales the leading coefficient
        if n == 0 or atom.is_zero():
            return ordinals.ZERO
        (e, c), rest = atom.terms[0], atom.terms[1:]
        return Ordinal(((e, c * n),) + rest)
    return atom


def _ordinal_atom(s: _Stream) -> Ordinal:
    tok = s.peek()
    if tok == "(":
        s.next()
        out = _ordinal(s)
        s.expect(")")
        return out
    if tok == "w":
        s.next()
        if s.peek() == "^":
            s.next()
            return ordinals.omega_power(_ordinal_atom(s))
        return ordinals.OMEGA
    if tok is not None and tok.isdigit():
        s.next()
        return ordinals.from_int(int(tok))
    raise ParseError(f"expected an ordinal atom, got {tok!r}")


# --------------------------------------------------------------------------
# ideal expressions


def parse_expr(text: str) -> IdealExpr:
    s = _Stream(text)
    out = _expr(s)
    s.done()
    return out


def _expr(s: _Stream) -> IdealExpr:
    tok = s.next()
    match tok:
        case "FIN":
            return ideals.Fin()
        case "POW":
            return ideals.Pow()
        case "P" | "Q":
            s.expect("(")
            rank = _ordinal(s)
            s.expect(")")
            return ideals.P(rank) if tok == "P" else ideals.Q(rank)
        case "perp" | "omega":
            s.expect("(")
            inner = _expr(s)
            s.expect(")")
            return ideals.Perp(inner) if tok == "perp" else ideals.OmegaSum(inner)
        case "limsum":
            s.expect("(")
            rank = _ordinal(s)
            s.expect(")")
            return ideals.LimSum(rank)
        case "sum":
            s.expect("(")
            return ideals.Sum(tuple(s.items(_expr, ")")))
        case "mix":
            s.expect("(")
            heads = s.items(_expr, ";")
            tail = _expr(s)
            s.expect(")")
            if not isinstance(tail, (ideals.OmegaSum, ideals.LimSum)):
                raise ParseError("mix tail must be omega(...) or limsum(...)")
            return ideals.MixSum(tuple(heads), tail)
    raise ParseError(f"expected an ideal expression, got {tok!r}")


# --------------------------------------------------------------------------
# tree schemas


def parse_tree(text: str) -> TreeSchema:
    s = _Stream(text)
    out = _tree(s)
    s.done()
    return out


def _tree(s: _Stream) -> TreeSchema:
    from . import trees

    tok = s.next()
    match tok:
        case "empty":
            return trees.EMPTY
        case "eps":
            return trees.EPS
        case "chain":
            return trees.CHAIN
        case "full":
            return trees.FULL
        case "rooted":
            s.expect("(")
            inner = _tree(s)
            s.expect(")")
            return trees.Rooted(inner)
        case "fan" | "spine":
            s.expect("(")
            s.expect("[")
            heads = s.items(_tree, "]", empty_ok=True)
            s.expect(";")
            tail = _tail(s)
            s.expect(")")
            cls = trees.Fan if tok == "fan" else trees.Spine
            return cls(tuple(heads), tail)
    raise ParseError(f"expected a tree schema, got {tok!r}")


def _tail(s: _Stream) -> SchemaSeq:
    from . import trees

    tok = s.next()
    match tok:
        case "const":
            s.expect("(")
            block = _tree(s)
            s.expect(")")
            return trees.Const(block)
        case "qdiag" | "pdiag":
            s.expect("(")
            rank = _ordinal(s)
            offset = 0
            if s.peek() == ",":
                s.next()
                offset = s.nat()
            s.expect(")")
            cls = trees.QDiag if tok == "qdiag" else trees.PDiag
            return cls(rank, offset)
    raise ParseError(f"expected a tail (const/qdiag/pdiag), got {tok!r}")


# --------------------------------------------------------------------------
# query terms


def parse_query(text: str) -> QueryTerm:
    s = _Stream(text)
    out = _query(s)
    s.done()
    return out


def _query(s: _Stream) -> QueryTerm:
    from . import membership

    tok = s.peek()
    match tok:
        case "finset":
            s.next()
            s.expect("{")
            return membership.FinSet(tuple(s.items(_seq, "}")))
        case "transversal":
            s.next()
            s.expect("(")
            fan = _tree(s)
            s.expect(")")
            return membership.Transversal(fan)
        case "union":
            s.next()
            s.expect("(")
            left = _query(s)
            s.expect(",")
            right = _query(s)
            s.expect(")")
            return membership.Union(left, right)
        case _:
            return membership.Schema(_tree(s))


def _seq(s: _Stream) -> Seq:
    s.expect("<")
    return tuple(s.items(_Stream.nat, ">", empty_ok=True))


# --------------------------------------------------------------------------
# linear orders


def parse_order(text: str) -> LinTerm:
    s = _Stream(text)
    out = _order(s)
    s.done()
    return out


def _order(s: _Stream) -> LinTerm:
    from . import orders

    tok = s.next()
    match tok:
        case "N":
            return orders.NAT
        case "QQ":
            return orders.RATQ
        case "rev":
            s.expect("(")
            inner = _order(s)
            s.expect(")")
            return orders.Rev(inner)
        case "cat":
            s.expect("(")
            return orders.Cat(tuple(s.items(_order, ")")))
        case "osum":
            s.expect("(")
            s.expect("[")
            heads = s.items(_order, "]", empty_ok=True)
            s.expect(";")
            tail = _order(s)
            s.expect(")")
            return orders.OmegaCat(tuple(heads), tail)
    raise ParseError(f"expected a linear order term, got {tok!r}")

"""Parsers and the printer for the published grammars (docs/grammar.md).

Ordinals have an infix grammar, printed from a piece list by hand.  Every
other sort has one table of keywords, each with its class and the shape
of the text after it; one parser and one printer read the tables, so
printed terms parse back, and neither spends a Python frame per level;
``str`` and ``repr`` of every term print through it (``hashcons.Term``).
The compiled tables also name the fields that hold subterms (``children``).
"""

from __future__ import annotations

import re
from importlib import import_module
from typing import TYPE_CHECKING

from . import ordinals
from .errors import ParseError
from .ordinals import Ordinal

if TYPE_CHECKING:
    from .ideals import IdealExpr
    from .orders import LinTerm
    from .trees import QueryTerm, Seq, TreeSchema

# whitespace is space, tab, CR and LF only (docs/grammar.md)
_SPACE = " \t\r\n"
_SPACES, _PUNCT = re.escape(_SPACE), re.escape("()[]{},;<>^*+")
_TOKEN = re.compile(rf"[{_SPACES}]*([A-Za-z]+|[0-9]+|[{_PUNCT}])")
_BAD = re.compile(rf"[^{_SPACES}A-Za-z0-9{_PUNCT}]")


class _Stream:
    def __init__(self, text: str) -> None:
        self.text, self.tokens, self.pos = text, _TOKEN.findall(text), 0
        # findall skips what no token matches: the tokens and the spaces
        # fill the text exactly when there is no such character
        if len("".join(self.tokens)) + sum(map(text.count, _SPACE)) != len(text):
            i = _BAD.search(text).start()
            while i and text[i - 1] in _SPACE:
                i -= 1  # the position where the failed token began
            raise ParseError(f"bad character at {i}: {text[i:i+8]!r}")

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        pos = self.pos
        if pos == len(self.tokens):
            raise ParseError(f"unexpected end of input in {self.text!r}")
        self.pos = pos + 1
        return self.tokens[pos]

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


# --------------------------------------------------------------------------
# ordinals


def parse_ordinal(text: str) -> Ordinal:
    return _parse(text, "ord")


def _ordinal(s: _Stream) -> Ordinal:
    """An ordinal by precedence (Dijkstra's shunting yard): ``+`` binds
    loosest, then ``*`` by a natural, then ``w^``, whose exponent is an
    atom, so ``w^w^2`` chains to the right.  The stack holds the sum read
    so far in each open parenthesis (None before its first term), and a
    ``^`` for each ``w^`` waiting for its exponent."""
    stack: list = [None]
    while True:
        tok = s.peek()
        if tok == "(":
            s.next()
            stack.append(None)
            continue
        if tok == "w":
            s.next()
            if s.peek() == "^":
                s.next()
                stack.append("^")
                continue
            value = ordinals.OMEGA
        elif tok is not None and tok.isdigit():
            s.next()
            value = ordinals.from_int(int(tok))
        else:
            raise ParseError(f"expected an ordinal atom, got {tok!r}")
        while True:  # an atom is read: close what it completes
            while stack[-1] == "^":
                stack.pop()
                value = ordinals.omega_power(value)
            if s.peek() == "*":
                s.next()
                value = _times(value, s.nat())
            total = stack.pop()
            total = value if total is None else ordinals.add(total, value)
            if s.peek() == "+":
                s.next()
                stack.append(total)
                break
            if not stack:
                return total
            s.expect(")")
            value = total  # a parenthesized sum is an atom


def _times(a: Ordinal, n: int) -> Ordinal:
    # multiplication by a natural scales the leading coefficient
    if n == 0 or a.is_zero():
        return ordinals.ZERO
    (e, c), rest = a.terms[0], a.terms[1:]
    return Ordinal(((e, c * n),) + rest)


# --------------------------------------------------------------------------
# the keyword grammars

# sort: (module, {keyword: "Class shape"}).  A shape item is a literal
# token, a sort or leaf read once, or a comma list X* (maybe empty) or X+
# up to the next token; each item but a literal fills the next field of
# the class; a bare sort builds nothing, so a query with no keyword is a tree.
_EXPR = {
    "FIN": "Fin", "POW": "Pow", "P": "P ( ord )", "Q": "Q ( ord )",
    "perp": "Perp ( expr )", "sum": "Sum ( expr+ )", "omega": "OmegaSum ( expr )",
    "limsum": "LimSum ( ord )", "mix": "MixSum ( expr+ ; mix )",
}
_GRAMMARS = {
    "expr": ("ideals", _EXPR),
    "mix": ("ideals", {k: _EXPR[k] for k in ("omega", "limsum")}),
    "tree": ("trees", {
        "empty": "Empty", "eps": "Eps", "chain": "Chain", "full": "Full",
        "rooted": "Rooted ( tree )", "fan": "Fan ( [ tree* ] ; tail )",
        "spine": "Spine ( [ tree* ] ; tail )",
    }),
    "tail": ("trees", {
        "const": "Const ( tree )", "qdiag": "QDiag ( ord ,nat )", "pdiag": "PDiag ( ord ,nat )",
    }),
    "query": ("queries", {
        "": "tree", "finset": "FinSet { seq+ }", "transversal": "Transversal ( tree )",
        "union": "Union ( query , query )",
    }),
    "order": ("orders", {
        "N": "Nat", "QQ": "RatQ", "rev": "Rev ( order )", "cat": "Cat ( order+ )",
        "osum": "OmegaCat ( [ order* ] ; order )",
    }),
}


def format_seq_elem(u: Seq) -> str:
    return "<" + ",".join(map(str, u)) + ">"


def _seq(s: _Stream) -> Seq:
    s.expect("<")
    out = [] if s.peek() == ">" else [s.nat()]
    while s.peek() == ",":
        s.next()
        out.append(s.nat())
    s.expect(">")
    return tuple(out)


def _offset(s: _Stream) -> int:
    return s.nat() if s.peek() == "," and s.next() else 0


# leaf: (reader, writer or None to print the value); ,nat is an offset, 0 when absent
_LEAVES = {
    "ord": (_ordinal, None), "nat": (_Stream.nat, str), "seq": (_seq, format_seq_elem),
    ",nat": (_offset, lambda n: f",{n}" if n else ""),
}
_LIT, _LIST, _MORE, _BUILD = range(4)
_TABLES: dict[str, dict] = {}  # sort -> keyword -> parse items, last first
_PLANS: dict[type, tuple] = {}  # class -> first text, print pieces last first, children


def _compile(sort: str) -> dict:
    """The table of ``sort`` and the plans of its classes.  A parse item
    is a sort or leaf, or (kind, x, arg); a print piece is text or
    (field, leaf writer, is a list); a child is (field, is a list)."""
    name, spec = _GRAMMARS[sort]
    module, table = import_module(f".{name}", __package__), {}
    for keyword, shape in spec.items():
        if shape in _GRAMMARS:
            table[keyword] = (shape,)
            continue
        name, *items = shape.split()
        cls = getattr(module, name)
        fields, todo, plan, kids = iter(cls.__match_args__), [], [keyword], []
        for k, item in enumerate(items):
            x, many = item.rstrip("*+"), item[-1] in "*+"
            if x not in _LEAVES and x not in _GRAMMARS:
                todo.append((_LIT, x, None))
                plan[-1] += x
                continue
            plan += [(field := next(fields), _LEAVES.get(x, (None, None))[1], many), ""]
            if x in _GRAMMARS:
                kids.append((field, many))
            # an empty list peeks at the token after it
            todo.append((_LIST, x, items[k + 1] if item[-1] == "*" else None) if many else x)
        table[keyword] = ((_BUILD, cls, len(cls.__match_args__)), *reversed(todo))
        _PLANS[cls] = (plan[0], tuple(p for p in reversed(plan[1:]) if p), tuple(kids))
    _TABLES[sort] = table
    return table


def _read(s: _Stream, sort: str):
    """An LL(1) parse with two stacks: the items still to read, last first,
    and the values read, where a built term replaces its fields."""
    todo, values = [sort], []
    while todo:
        item = todo.pop()
        if type(item) is str:
            if item in _LEAVES:
                values.append(_LEAVES[item][0](s))
                continue
            table = _TABLES.get(item) or _compile(item)
            entry = table.get(s.next())
            if entry is None:
                s.pos -= 1  # a keyword-less entry reads the token itself
                entry = table.get("")
                if entry is None:
                    raise ParseError(f"expected {item} ({'/'.join(table)}), got {s.peek()!r}")
            todo += entry
            continue
        kind, x, arg = item
        if kind is _LIT:
            s.expect(x)
        elif kind is _BUILD:  # x is the class, arg its number of fields
            arg = len(values) - arg
            values[arg:] = [x(*values[arg:])]
        elif kind is _LIST:  # arg is the close token of a list that may be empty
            if arg is not None and s.peek() == arg:
                values.append(())
            else:
                todo += ((_MORE, x, len(values)), x)
        elif s.peek() == ",":  # _MORE: the list started at values[arg]
            s.next()
            todo += (item, x)
        else:
            values[arg:] = [tuple(values[arg:])]
    return values[0]


def _plan(cls: type) -> tuple:
    """The plan of a class, compiling the tables of its module first."""
    for sort, (name, _) in _GRAMMARS.items():
        if cls.__module__ == f"{__package__}.{name}":
            _compile(sort)
    if cls not in _PLANS:
        raise TypeError(f"not a term of a grammar: {cls.__name__}")
    return _PLANS[cls]


def children(x) -> list:
    """The subterms of a term of a keyword grammar: the values of the
    fields its shape reads as a sort, a list field's items each, in order.
    A field read as a leaf (an ordinal, a sequence) is data."""
    out = []
    for field, many in (_PLANS.get(type(x)) or _plan(type(x)))[2]:
        value = getattr(x, field)
        out += value if many else (value,)
    return out


def _ordinal_pieces(a: Ordinal) -> list:
    """The text of ``a`` last first: strings, and each exponent that prints
    in full as itself, so no level copies the text below it."""
    out: list = []
    for exponent, coeff in reversed(a.terms):
        if coeff != 1 and exponent is not ordinals.ZERO:
            out.append(f"*{coeff}")
        if exponent is ordinals.ZERO:
            out.append(str(coeff))
        elif exponent is ordinals.ONE:
            out.append("w")
        elif exponent.terms[0][0] is ordinals.ZERO:
            out.append(f"w^{exponent.terms[0][1]}")  # finite exponent
        elif len(exponent.terms) == 1 and exponent.terms[0][1] == 1:
            out += (exponent, "w^")  # pure power: right-assoc chain
        else:
            out += (")", exponent, "w^(")
        out.append("+")
    return out[:-1] or ["0"]


def format_term(term) -> str:
    """Text of an ordinal or a term of a keyword grammar, from a stack of
    terms still to print and text still to emit."""
    out: list[str] = []
    stack = [term]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        plan = _PLANS.get(type(x))
        if plan is None:
            if type(x) is Ordinal:
                stack += _ordinal_pieces(x)
                continue
            plan = _plan(type(x))
        out.append(plan[0])
        for piece in plan[1]:
            if type(piece) is str:
                stack.append(piece)
                continue
            field, write, many = piece
            value = getattr(x, field)
            if not many:
                stack.append(write(value) if write else value)
                continue
            items = list(map(write, value)) if write else list(value)
            stack += [y for item in reversed(items) for y in (item, ",")][:-1]
    return "".join(out)


def _parse(text: str, sort: str):
    s = _Stream(text)
    out = _read(s, sort)
    s.done()
    return out


def parse_expr(text: str) -> IdealExpr:
    return _parse(text, "expr")


def parse_tree(text: str) -> TreeSchema:
    return _parse(text, "tree")


def parse_query(text: str) -> QueryTerm:
    return _parse(text, "query")


def parse_order(text: str) -> LinTerm:
    return _parse(text, "order")

"""Grammar round trips and parse failures."""

from __future__ import annotations

import random

import pytest

from idealforms import cli, membership, oracle, orders, text, trees
from idealforms.errors import ParseError


ORDINALS = ["0", "7", "w", "w*2", "w+1", "w^2*3+w*2+5", "w^w", "w^(w+1)", "w^w^2+w^3*2+1"]
EXPRS = [
    "FIN", "POW", "P(w+1)", "Q(0)", "perp(omega(FIN))",
    "sum(P(1),Q(1),FIN)", "limsum(w*2)", "mix(P(2),FIN;omega(Q(1)))",
    "mix(POW;limsum(w))",
]
TREES = [
    "empty", "eps", "chain", "full", "rooted(chain)",
    "fan([];const(eps))", "fan([chain,full];const(empty))",
    "spine([eps];const(chain))", "fan([];qdiag(w))", "spine([];pdiag(w*2))",
    "spine([];qdiag(w,3))",
]
QUERIES = [
    "finset{<0,3,1>,<>}", "transversal(fan([];const(chain)))",
    "union(chain,finset{<1>})", "fan([];const(chain))",
]
ORDERS = ["N", "QQ", "rev(N)", "cat(N,rev(N),QQ)", "osum([rev(N)];N)", "osum([];cat(N,N))"]


def test_ordinal_round_trip():
    for src in ORDINALS:
        a = text.parse_ordinal(src)
        assert text.parse_ordinal(str(a)) == a
    assert str(text.parse_ordinal("1+w")) == "w"  # parser normalizes to CNF


def test_expr_round_trip():
    for src in EXPRS:
        e = text.parse_expr(src)
        assert text.parse_expr(str(e)) == e


def test_tree_round_trip():
    for src in TREES:
        t = text.parse_tree(src)
        assert text.parse_tree(str(t)) == t


def test_query_round_trip():
    for src in QUERIES:
        q = text.parse_query(src)
        assert text.parse_query(str(q)) == q


def test_order_round_trip():
    for src in ORDERS:
        t = text.parse_order(src)
        assert text.parse_order(str(t)) == t


def test_random_round_trips():
    rng = random.Random(51)
    for _ in range(200):
        e = oracle.rand_expr(rng, 9)
        assert text.parse_expr(str(e)) == e
        t = oracle.rand_schema(rng, 7)
        assert text.parse_tree(str(t)) == t
        a = oracle.rand_ordinal(rng, 3)
        assert text.parse_ordinal(str(a)) == a
        o = oracle._rand_order(rng, 6, dense=True)
        assert text.parse_order(str(o)) == o
        target = trees.compile_ideal(oracle.rand_expr(rng, 4))
        q = oracle.rand_query(rng, target)
        assert text.parse_query(str(q)) == q


def test_parse_errors():
    bad = [
        (text.parse_ordinal, "w^"),
        (text.parse_ordinal, "3+"),
        (text.parse_ordinal, "x"),
        (text.parse_expr, "sum()"),
        (text.parse_expr, "mix(P(1))"),
        (text.parse_expr, "mix(P(1);P(2))"),
        (text.parse_tree, "fan(eps;const(eps))"),
        (text.parse_tree, "fan([eps];const(eps)"),
        (text.parse_query, "finset{}"),
        (text.parse_order, "osum(N;N)"),
        (text.parse_ordinal, "w+1 junk"),
        (text.parse_ordinal, "w$2"),
    ]
    for parser, src in bad:
        with pytest.raises(ParseError):
            parser(src)


def test_structural_validation():
    with pytest.raises(Exception):
        text.parse_tree("fan([];qdiag(w+1))")  # diagonal rank must be a limit
    with pytest.raises(ValueError):
        membership.Transversal(trees.CHAIN)
    with pytest.raises(ValueError):
        membership.FinSet(((0,), (0,)))
    with pytest.raises(ValueError):
        orders.Cat(())


# NAT is [0-9]+: other Unicode digits (fullwidth, Arabic-Indic) are no numbers
@pytest.mark.parametrize("parser, src, argv", [
    (text.parse_expr, "P(\uff13)", ["normalize", "P(\uff13)"]),
    (text.parse_ordinal, "w+\u0663", ["rank", "P(w+\u0663)"]),
    (text.parse_query, "finset{<0,\u0663>}", ["enumerate", "finset{<0,\u0663>}"]),
    (text.parse_tree, "fan([];qdiag(w,\uff13))", ["treerank", "fan([];qdiag(w,\uff13))"]),
])
def test_nat_is_ascii_digits(capsys, parser, src, argv):
    with pytest.raises(ParseError):
        parser(src)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("parse error: ")


# whitespace is space, tab, CR and LF: other Unicode spaces (ideographic,
# no-break) separate nothing
@pytest.mark.parametrize("parser, src, argv", [
    (text.parse_expr, "P(\u30003)", ["normalize", "P(\u30003)"]),
    (text.parse_expr, "P(\u00a03)", ["normalize", "P(\u00a03)"]),
    (text.parse_tree, "fan([];const(eps))\u00a0", ["treerank", "fan([];const(eps))\u00a0"]),
])
def test_whitespace_is_ascii(capsys, parser, src, argv):
    with pytest.raises(ParseError):
        parser(src)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("parse error: ")
    assert parser(src.replace("\u3000", " \t\r\n").replace("\u00a0", " "))

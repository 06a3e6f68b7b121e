"""Grammar round trips and parse failures."""

from __future__ import annotations

import hashlib
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealforms import cli, classification, ideals, laws, oracle, ordinals, orders, text, trees
from idealforms.errors import IdealFormsError, ParseError
from idealforms.queries import FinSet, Transversal, Union
from idealforms.witnesses import DominatingBranch


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


def test_a_tree_is_a_query_as_it_stands():
    # the query grammar's keyword-less entry reads a tree and builds nothing
    for src in TREES:
        assert text.parse_query(src) is text.parse_tree(src), src
    q = text.parse_query("union(fan([];const(chain)),finset{<1>})")
    assert q.left is text.parse_tree("fan([];const(chain))")
    assert str(q) == "union(fan([];const(chain)),finset{<1>})" and text.parse_query(str(q)) is q


def test_order_round_trip():
    for src in ORDERS:
        t = text.parse_order(src)
        assert text.parse_order(str(t)) == t


def test_random_round_trips():
    rng = random.Random(51)
    for _ in range(200):
        e = laws.rand_expr(rng, 9)
        assert text.parse_expr(str(e)) == e
        t = laws.rand_schema(rng, 7)
        assert text.parse_tree(str(t)) == t
        a = laws.rand_ordinal(rng, 3)
        assert text.parse_ordinal(str(a)) == a
        o = laws._rand_order(rng, 6, dense=True)
        assert text.parse_order(str(o)) == o
        target = trees.compile_ideal(laws.rand_expr(rng, 4))
        q = laws.rand_query(rng, target)
        assert text.parse_query(str(q)) == q


# the sort of each grammar's terms, and the name _parse reads it by
SORTS = {ordinals.Ordinal: "ord", ideals.IdealExpr: "expr", trees.TreeSchema: "tree",
         trees.SchemaSeq: "tail", trees.QueryTerm: "query", orders.LinTerm: "order"}


def test_repr_of_every_sort_is_its_class_around_its_text():
    # every subterm of seeded draws: repr is the one printer's text in the
    # class name, and that text parses back to the term itself
    rng = random.Random(31)
    todo = []
    for _ in range(100):
        todo += (laws.rand_expr(rng, 8), laws.rand_schema(rng, 7),
                 laws._rand_order(rng, 6, dense=True),
                 laws.rand_query(rng, trees.compile_ideal(laws.rand_expr(rng, 4))))
    seen = set()
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            todo += x
            continue
        sort = next((v for k, v in SORTS.items() if isinstance(x, k)), None)
        if sort is None:  # an int field
            continue
        assert repr(x) == f"{type(x).__name__}[{x}]"
        assert text._parse(str(x), sort) is x, repr(x)
        seen.add(sort)
        todo += x.__getnewargs__()
    assert seen == set(SORTS.values())


def test_records_with_no_grammar_print_their_fields():
    cls = classification.Borel(ideals.CanonicalForm(ideals.Kind.P, ordinals.ONE))
    assert repr(cls) == "Borel(CanonicalForm(kind=<Kind.P: 'P'>, rank=Ordinal[1]))"
    assert repr(oracle.Budget(8, 8, 200)) == str(oracle.Budget(8, 8, 200)) == "Budget(8, 8, 200)"
    assert repr(DominatingBranch((), (0,))) == "DominatingBranch((), (0,))"
    assert repr(orders.Scattered(ideals.FIN_FORM)) == (
        "Scattered(CanonicalForm(kind=<Kind.Q: 'Q'>, rank=Ordinal[0]))")
    # str prints each field by its own str; a witness keeps its own printer
    assert str(cls) == "Borel(P(1))"
    assert str(orders.Scattered(ideals.FIN_FORM)) == "Scattered(FIN)"
    assert str(DominatingBranch((1,), (0, 2))) == "[1](0,2)*"


@pytest.mark.parametrize("value, name", [(3, "int"), (oracle.Budget(2, 3, 4), "Budget")])
def test_only_a_term_of_a_grammar_prints(value, name):
    with pytest.raises(TypeError, match=f"not a term of a grammar: {name}$"):
        text.format_term(value)


def test_each_plan_names_every_field_once_in_order():
    # the parser, the printer and the folds read one compiled plan per
    # class, so they cannot disagree on which field is which
    for sort, (_, spec) in text._GRAMMARS.items():
        table = text._compile(sort)
        for keyword, shape in spec.items():
            if shape in text._GRAMMARS:  # a bare sort builds nothing: the entry reads it
                assert table[keyword] == (shape,), (sort, keyword)
                continue
            _, cls, size = table[keyword][0]  # the build item, read last
            assert size == len(cls.__match_args__)
            _, pieces, kids = text._PLANS[cls]
            printed = [p[0] for p in reversed(pieces) if type(p) is not str]
            assert printed == list(cls.__match_args__), (sort, keyword)
            items = [x for x in shape.split()[1:] if x.rstrip("*+") in text._LEAVES
                     or x.rstrip("*+") in text._GRAMMARS]
            assert kids == tuple((f, x[-1] in "*+") for f, x in zip(printed, items)
                                 if x.rstrip("*+") in text._GRAMMARS), (sort, keyword)


def _children(t, sort: type) -> list:
    """Reference: the terms of ``sort`` in the fields of ``t``, looked for
    inside tuples too, in order, by a search at every node."""
    out = []
    for name in t.__match_args__:
        todo = [getattr(t, name)]
        while todo:
            x = todo.pop()
            if isinstance(x, sort):
                out.append(x)
            elif type(x) is tuple:
                todo += reversed(x)
    return out


def test_children_are_the_subterms_of_the_same_sort():
    rng = random.Random(25)
    terms = [(laws.rand_expr(rng, 12), ideals.IdealExpr) for _ in range(300)]
    terms += [(laws._rand_order(rng, 10, dense=True), orders.LinTerm) for _ in range(300)]
    seen = set()
    for root, sort in terms:
        todo = [root]
        while todo:
            x = todo.pop()
            kids = text.children(x)
            assert kids == _children(x, sort), repr(x)
            seen.add(type(x).__name__)
            todo += kids
    assert seen >= {"Fin", "Pow", "P", "Q", "Perp", "Sum", "OmegaSum", "LimSum", "MixSum",
                    "Nat", "RatQ", "Rev", "Cat", "OmegaCat"}, seen

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


# a bad character is reported where the token it spoils began, spaces included
@pytest.mark.parametrize("src, at", [
    ("P( $)", "2: ' $)'"),
    ("  @", "0: '  @'"),
    ("P(1)\u00e9", "4: '\u00e9'"),
    ("sum(P(1),\tQ(2)) \n _", "15: ' \\n _'"),
    ("w$2", "1: '$2'"),
    ("P(\u00a03)", "2: '\\xa03)'"),
])
def test_bad_character_position(src, at):
    with pytest.raises(ParseError, match=f"^bad character at {re.escape(at)}$"):
        text.parse_expr(src)


def test_structural_validation():
    with pytest.raises(Exception):
        text.parse_tree("fan([];qdiag(w+1))")  # diagonal rank must be a limit
    with pytest.raises(ValueError):
        Transversal(trees.CHAIN)
    with pytest.raises(ValueError):
        FinSet(((0,), (0,)))
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


# --------------------------------------------------------------------------
# pinned outcomes over valid and mutated texts

PARSERS = {
    "ordinal": text.parse_ordinal, "expr": text.parse_expr, "tree": text.parse_tree,
    "query": text.parse_query, "order": text.parse_order,
}
# every keyword of the five grammars, their punctuation, and a few tokens
# that no grammar accepts
VOCABULARY = (
    "FIN POW P Q perp omega limsum sum mix empty eps chain full rooted fan spine const "
    "qdiag pdiag finset transversal union N QQ rev cat osum w 0 1 2 12 ( ) [ ] { } , ; < > "
    "^ * + x $"
).split()
_PIECE = re.compile(r"[A-Za-z]+|[0-9]+|\S")


def _valid_texts() -> list[str]:
    rng = random.Random(10)
    out = ORDINALS + EXPRS + TREES + QUERIES + ORDERS
    for _ in range(250):
        out.append(str(laws.rand_ordinal(rng, 3)))
        out.append(str(laws.rand_expr(rng, 9)))
        out.append(str(laws.rand_schema(rng, 7)))
        out.append(str(laws._rand_order(rng, 6, dense=True)))
        out.append(str(laws.rand_query(rng, trees.compile_ideal(laws.rand_expr(rng, 4)))))
    return out


def _mutants(src: str, rng: random.Random, count: int) -> list[str]:
    """Token-level mutations: drop, repeat, swap, replace or insert a token."""
    pieces = _PIECE.findall(src)
    out = []
    for _ in range(count):
        p = list(pieces)
        i = rng.randrange(len(p))
        op = rng.randrange(5)
        if op == 0:
            del p[i]
        elif op == 1:
            p.insert(i, p[i])
        elif op == 2 and i + 1 < len(p):
            p[i], p[i + 1] = p[i + 1], p[i]
        elif op == 3:
            p[i] = rng.choice(VOCABULARY)
        else:
            p.insert(i, rng.choice(VOCABULARY))
        out.append((" " if rng.random() < 0.3 else "").join(p))
    return out


def _outcome(parser, src: str) -> str:
    try:
        return str(parser(src))
    except Exception as err:  # noqa: BLE001 - the class is the outcome
        return type(err).__name__


# sha256 of "<grammar>:<input>:<printed term or exception class>" lines,
# every input under all five parsers; recorded before the grammars became
# tables
PARSE_DIGEST = "640f685219bdeadf5d31c676379abbf506ebf059891a38fd56fdbe64c6c00e99"


def test_parse_outcomes_pinned():
    rng = random.Random(11)
    h = hashlib.sha256()
    for src in _valid_texts():
        for s in [src] + _mutants(src, rng, 4):
            for name, parser in PARSERS.items():
                h.update(f"{name}:{s!r}:{_outcome(parser, s)}\n".encode())
    assert h.hexdigest() == PARSE_DIGEST


# --------------------------------------------------------------------------
# depth: the parser and the printer keep their own stacks

DEEP = 50000


def _nest(outer: str, leaf: str) -> str:
    return outer * DEEP + leaf + ")" * DEEP


def test_deep_terms_parse_and_print_under_the_default_recursion_limit():
    expr, tree = _nest("perp(", "FIN"), _nest("rooted(", "chain")
    query, order = _nest("union(chain,", "eps"), _nest("rev(", "N")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        e, t = text.parse_expr(expr), text.parse_tree(tree)
        q, o = text.parse_query(query), text.parse_order(order)
        assert (str(e), str(t), str(q), str(o)) == (expr, tree, query, order)
        p = trees.compile_ideal(text.parse_expr(f"P({DEEP})"))
        assert text.parse_tree(str(p)) is p
        for _ in range(DEEP):
            e, t, q, o = e.child, t.child, q.right, o.child
        assert (str(e), str(t), str(q), str(o)) == ("FIN", "chain", "eps", "N")
    finally:
        sys.setrecursionlimit(limit)


# --------------------------------------------------------------------------
# fuzzing (MacIver et al., "Hypothesis", JOSS 2019): derandomized, with a
# fixed number of examples and no example database

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)

small = st.integers(0, 4)
ords = st.recursive(
    small.map(ordinals.from_int),
    lambda sub: st.one_of(st.tuples(sub, sub).map(lambda ab: ordinals.add(*ab)),
                          st.tuples(sub, small.filter(bool)).map(lambda ec: ordinals.omega_power(*ec))),
    max_leaves=4,
)
limits = ords.map(lambda a: ordinals.omega_power(ordinals.succ(a)))


def _tuples(sub, lo: int = 0):
    return st.lists(sub, min_size=lo, max_size=3).map(tuple)


exprs = st.recursive(
    st.one_of(st.just(ideals.Fin()), st.just(ideals.Pow()), ords.map(ideals.P),
              ords.map(ideals.Q), limits.map(ideals.LimSum)),
    lambda sub: st.one_of(
        sub.map(ideals.Perp), sub.map(ideals.OmegaSum), _tuples(sub, 1).map(ideals.Sum),
        st.builds(ideals.MixSum, _tuples(sub, 1),
                  st.one_of(sub.map(ideals.OmegaSum), limits.map(ideals.LimSum))),
    ),
    max_leaves=8,
)
tails = st.one_of(st.builds(trees.QDiag, limits, small), st.builds(trees.PDiag, limits, small))
schemas = st.recursive(
    st.sampled_from([trees.EMPTY, trees.EPS, trees.CHAIN, trees.FULL]),
    lambda sub: st.one_of(
        sub.map(trees.Rooted),
        st.builds(trees.Fan, _tuples(sub), st.one_of(sub.map(trees.Const), tails)),
        st.builds(trees.Spine, _tuples(sub), st.one_of(sub.map(trees.Const), tails)),
    ),
    max_leaves=8,
)
fans = st.builds(trees.Fan, _tuples(schemas), schemas.map(trees.Const))
queries = st.recursive(
    st.one_of(
        schemas, fans.map(Transversal),
        st.lists(_tuples(st.integers(0, 12)), min_size=1, max_size=3, unique=True)
        .map(lambda us: FinSet(tuple(us))),
    ),
    lambda sub: st.builds(Union, sub, sub),
    max_leaves=4,
)
linear = st.recursive(
    st.sampled_from([orders.NAT, orders.RATQ]),
    lambda sub: st.one_of(sub.map(orders.Rev), _tuples(sub, 1).map(orders.Cat),
                          st.builds(orders.OmegaCat, _tuples(sub), sub)),
    max_leaves=8,
)
# a drawn pattern of wrappers, repeated to a drawn depth
deep_exprs = st.tuples(st.integers(0, 5000),
                       st.lists(st.sampled_from([ideals.Perp, ideals.OmegaSum]), min_size=1),
                       exprs)


@FUZZ
@given(ords, exprs, schemas, queries, linear)
def test_printing_then_parsing_is_the_identity(a, e, t, q, o):
    assert text.parse_ordinal(str(a)) is a
    assert text.parse_expr(str(e)) is e
    assert text.parse_tree(str(t)) is t
    assert text.parse_query(str(q)) is q
    assert text.parse_order(str(o)) is o


@settings(FUZZ, max_examples=20)
@given(deep_exprs)
def test_deep_drawn_nests_round_trip(drawn):
    depth, wraps, e = drawn
    for i in range(depth):
        e = wraps[i % len(wraps)](e)
    assert text.parse_expr(str(e)) is e


@FUZZ
@given(st.one_of(
    st.text(alphabet="FINPOWQperpsumixlchaftdgvkNRrq()[]{},;<>^*+w0123 \t\u3000\uff13x$",
            max_size=40),
    st.lists(st.sampled_from(VOCABULARY), max_size=30).map("".join),
    st.lists(st.sampled_from(VOCABULARY), max_size=30).map(" ".join),
))
def test_any_text_parses_or_raises_an_engine_error(src):
    for parser in PARSERS.values():
        try:
            parser(src)
        except IdealFormsError:
            pass

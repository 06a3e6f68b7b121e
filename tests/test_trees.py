"""Schema denotations: membership, cones, predicates and the compiler."""

from __future__ import annotations

import ast
import copy
import gc
import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from idealforms import (
    classification, hashcons, ideals, laws, membership, orders, ordinals, queries, quotient, rank,
    trees,
)
from idealforms.errors import NotLimit
from idealforms.laws import rand_infinite_schema
from idealforms.text import parse_expr, parse_ordinal, parse_tree
from idealforms.trees import (
    CHAIN, CONST_EMPTY, EMPTY, EPS, FULL, Const, Fan, PDiag, QDiag, Rooted, Spine,
)


t = parse_tree
ANTICHAIN = Fan((), Const(EPS))


def _elements(t, max_len: int, max_entry: int) -> list:
    """Denoted elements within the box, in shortlex order."""
    return [u for n in range(max_len + 1) for u in trees.iter_len(t, n, max_entry)]


def test_member_elem_examples():
    assert trees.member_elem((0, 0), CHAIN)
    assert trees.member_elem((3,), ANTICHAIN)
    assert trees.member_elem((1,), Spine((), Const(EPS)))
    assert not trees.member_elem((), CHAIN)
    assert not trees.member_elem((0, 1), CHAIN)
    assert trees.member_elem((2, 0, 0), t("fan([];const(chain))"))
    assert not trees.member_elem((0,), Spine((), Const(EPS)))


def test_cone_examples():
    assert trees.cone_of(CHAIN, (0, 0)) == Rooted(CHAIN)
    assert trees.cone_of(FULL, (4, 1)) == FULL
    assert trees.cone_of(ANTICHAIN, (5,)) == EPS
    assert trees.cone_of(CHAIN, (1,)) == EMPTY
    assert trees.cone_of(t("spine([];const(chain))"), (0,)) == t("spine([];const(chain))")
    assert trees.cone_of(t("spine([chain,eps];const(chain))"), (0,)) == t("spine([eps];const(chain))")
    for u in ((), (0,)):  # a tail sequence is no schema, whether the walk stops at once or not
        with pytest.raises(TypeError, match="not a schema"):
            trees.cone_of(CONST_EMPTY, u)


def test_the_entry_bound_of_a_set_without_entries_is_minus_one():
    # no element holds an entry, however the empty set or EPS is written
    for s in (EMPTY, EPS, Rooted(EMPTY), Fan((EMPTY, EMPTY), CONST_EMPTY), Fan((), CONST_EMPTY),
              Spine((EMPTY,), CONST_EMPTY), Spine((), CONST_EMPTY)):
        assert trees._entry_bound(s) == -1, str(s)


def test_cone_agrees_with_membership():
    rng = random.Random(7)
    for _ in range(50):
        schema = rand_infinite_schema(rng, 6)
        for u in _elements(schema, 3, 3)[:10]:
            cone = trees.cone_of(schema, u)
            assert trees.member_elem((), cone)
            for v in _elements(cone, 2, 2)[:6]:
                assert trees.member_elem(u + v, schema)


def test_in_wf_examples():
    assert trees.in_wf(ANTICHAIN)
    assert not trees.in_wf(CHAIN)
    assert not trees.in_wf(Spine((), Const(EPS)))
    assert not trees.in_wf(FULL)
    assert trees.in_wf(Spine((ANTICHAIN, CHAIN), CONST_EMPTY)) is False  # chain copy
    assert trees.in_wf(Spine((ANTICHAIN, ANTICHAIN), CONST_EMPTY))


def test_in_id_examples():
    assert trees.in_id(CHAIN)
    assert not trees.in_id(ANTICHAIN)
    assert trees.in_id(Spine((), Const(CHAIN)))
    assert not trees.in_id(FULL)
    assert trees.in_id(Fan((CHAIN, CHAIN), CONST_EMPTY))
    assert not trees.in_id(t("fan([];const(chain))"))


def test_compile_examples():
    assert trees.compile_ideal(parse_expr("FIN")) == CHAIN
    assert trees.compile_ideal(parse_expr("P(1)")) == t("fan([];const(chain))")
    assert trees.compile_ideal(parse_expr("sum(POW,FIN)")) == t(
        "fan([fan([];const(eps)),chain];const(empty))"
    )
    assert trees.compile_ideal(parse_expr("Q(1)")) == t("spine([];const(fan([];const(eps))))")
    assert trees.compile_ideal(parse_expr("P(w)")) == t("fan([];qdiag(w))")
    assert trees.compile_ideal(parse_expr("Q(w)")) == t("spine([];pdiag(w))")


def test_compiled_membership_predicates():
    # a compiled schema is wholly well-founded or dominated only at rank 0
    assert trees.in_wf(trees.compile_ideal(parse_expr("POW")))
    assert trees.in_id(trees.compile_ideal(parse_expr("FIN")))
    for src in ("P(1)", "Q(1)", "P(w)", "Q(w)", "sum(P(1),Q(1))"):
        schema = trees.compile_ideal(parse_expr(src))
        assert not trees.in_wf(schema), src
        assert not trees.in_id(schema), src


def test_each_ideal_predicate_is_its_bound_being_finite():
    # the oracle's Frechet check reads a finite entry bound as branch
    # domination; _WF and _ID stay their own folds, so the domination-budget
    # law still compares two computations
    from test_acceptance import _schemas_of_size

    rng = random.Random(3)
    ranks = [ordinals.from_int(n) for n in range(13)]
    ranks += [parse_ordinal(a) for a in ("w", "w+1", "w*2+1", "w^w")]
    corpus = [s for size in range(1, 6) for s in _schemas_of_size(size)]
    corpus += [laws.rand_schema(rng, 8) for _ in range(5000)]  # diagonal tails among them
    corpus += [trees.compile_form(ideals.CanonicalForm(kind, r)) for kind in ideals.Kind for r in ranks]
    corpus += [t(src) for src in ("rooted(fan([eps,empty];pdiag(w^2)))", "rooted(spine([chain];const(chain)))",
                                  "spine([];qdiag(w,2))", "fan([chain];pdiag(w*3))",
                                  "spine([chain,fan([];qdiag(w^2,3))];const(rooted(eps)))")]
    for s in corpus:
        assert trees.in_id(s) == (trees._entry_bound(s) < math.inf), str(s)
        assert trees.in_wf(s) == (trees.depth_bound(s) is not None), str(s)


def test_finiteness_and_emptiness():
    assert trees.is_empty(t("fan([empty,empty];const(empty))"))
    assert trees.is_finite(t("fan([eps,eps];const(empty))"))
    assert not trees.is_finite(t("fan([];const(eps))"))
    assert not trees.is_empty(Rooted(EMPTY))
    assert trees.is_finite(Rooted(EMPTY))
    assert trees.is_finite(t("spine([eps];const(empty))"))


def test_depth_bound():
    assert trees.depth_bound(ANTICHAIN) == 1
    assert trees.depth_bound(t("fan([];const(fan([];const(eps))))")) == 2
    assert trees.depth_bound(t("spine([eps,eps];const(empty))")) == 2
    assert trees.depth_bound(CHAIN) is None


def test_pick_least():
    assert trees.pick_least(CHAIN) == (0,)
    assert trees.pick_least(ANTICHAIN) == (0,)
    assert trees.pick_least(t("fan([empty,chain];const(empty))")) == (1, 0)
    assert trees.pick_least(t("spine([];const(chain))")) == (1, 0)
    assert trees.pick_least(EMPTY) is None
    # two copies hold picks of equal length, and the later copy root 0 1 is lex smaller
    assert trees.pick_least(t("spine([fan([];const(eps)),eps];const(empty))")) == (0, 1)
    # picks grow along compiled stages, so block 0 stays least
    q1 = trees.compile_ideal(parse_expr("Q(1)"))
    assert trees.pick_least(q1) == (1, 0)


# the tracemalloc peak of pick_least on compiled Q(n), and the pick's length
PICK_PEAK = """
import sys, tracemalloc
from idealforms import trees
from idealforms.text import parse_expr
schema = trees.compile_ideal(parse_expr(f"Q({sys.argv[1]})"))
tracemalloc.start()
print(len(trees.pick_least(schema)), tracemalloc.get_traced_memory()[1])
"""


def _pick_peak(n: int) -> int:
    # a fresh interpreter for each depth, so that both start from the same
    # free lists: tuples they hand out are invisible to tracemalloc
    src = str(Path(trees.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", PICK_PEAK, str(n)], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    length, peak = map(int, proc.stdout.split())
    # each level of a compiled chain adds one entry: 0 under a fan, 1 under a spine
    assert length == n + 1
    return peak


def test_pick_least_memory_grows_with_depth_not_its_square():
    # the _pick fact is a length and a block index, so no level stores its
    # pick; quadrupling the depth multiplies the peak by about four, not 16
    assert _pick_peak(16000) <= 5 * _pick_peak(4000)


def test_singleton():
    s = trees.singleton((2, 0, 1))
    assert trees.member_elem((2, 0, 1), s)
    assert _elements(s, 5, 5) == [(2, 0, 1)]
    assert s is t("fan([empty,empty,fan([fan([empty,eps];const(empty))];const(empty))];const(empty))")
    assert trees.singleton(()) is EPS
    # built in a loop, so a sequence longer than the recursion limit is fine
    deep = (1,) * 50000
    assert sys.getrecursionlimit() < len(deep)
    assert trees.member_elem(deep, trees.singleton(deep))


def test_gen_member():
    fan_chain = t("fan([];const(chain))")
    assert trees.gen_member((), fan_chain)
    assert trees.gen_member((3,), fan_chain)
    assert not trees.member_elem((3,), fan_chain)
    spine = t("spine([];const(eps))")
    assert trees.gen_member((0, 0, 0), spine)
    assert not trees.member_elem((0, 0, 0), spine)
    assert trees.gen_member((0, 0, 1), spine)
    assert not trees.gen_member((0, 2), spine)


def test_iter_len_lex_order():
    rng = random.Random(8)
    for _ in range(40):
        schema = rand_infinite_schema(rng, 6)
        for length in range(4):
            got = list(trees.iter_len(schema, length, 4))
            assert got == sorted(got)
            assert len(set(got)) == len(got)
            for u in got:
                assert len(u) == length and all(x <= 4 for x in u)
                assert trees.member_elem(u, schema)


def _tail_copies(t: trees.Spine, length: int, max_entry: int) -> list[int]:
    """The tail copies a spine's enumeration visits at ``length``, each
    checked to leave its block a length between the first tail block's
    least length and depth: copy n takes n + 1 of the length for its root."""
    block = trees.seq_block(t.tail, 0)
    least, deepest = trees.least_length(block), trees._fold(block, trees._DEPTH)
    copies = [n for n in trees._indices(t, length, max_entry) if n >= len(t.heads)]
    for n in copies:
        assert least <= length - 1 - n <= deepest, (str(t), length, max_entry, n)
    return copies


def test_spine_tail_copies_fit_the_length():
    # the block fan([eps];const(empty)) holds only (0), of length 1, so of
    # the copies 0^n 1 only n = 3 reaches length 5
    assert _tail_copies(parse_tree("spine([];const(fan([eps];const(empty))))"), 5, 5) == [3]
    rng, seen = random.Random(16), 0
    while seen < 300:
        t = laws.rand_schema(rng, 7)
        if type(t) is trees.Spine:
            seen += 1
            for length in range(9):
                for max_entry in range(3):
                    _tail_copies(t, length, max_entry)


def test_equal_schemas_are_one_object():
    src = "spine([chain,fan([];qdiag(w^2,3))];const(rooted(eps)))"
    assert parse_tree(src) is parse_tree(src)
    assert copy.deepcopy(parse_tree(src)) is parse_tree(src)
    w = parse_ordinal("w")
    assert QDiag(w) is QDiag(w, 0)  # defaults are part of the key
    assert QDiag(w) is not PDiag(w)  # so is the constructor
    assert Fan((), Const(EMPTY)) is not Spine((), Const(EMPTY))


def test_rejected_diagonal_leaves_no_entry():
    three = ordinals.from_int(3)
    size = len(hashcons._TABLE)
    for _ in range(2):
        with pytest.raises(NotLimit):
            QDiag(three)
    assert len(hashcons._TABLE) == size


def _deep_pair(n: int) -> list[tuple[str, str]]:
    out = []
    for kind in ("P", "Q"):
        schema = trees.compile_ideal(parse_expr(f"{kind}({n})"))
        verdict = classification.classify(schema)
        r, core_empty = rank.tree_rank(schema)
        assert core_empty
        out.append((str(verdict), str(r)))
    return out


def test_deep_chains_of_equal_depth_in_one_process():
    # P(n) and Q(n) compile to disjoint chains of equal depth, which share
    # no node and must never be compared structurally
    n = 4000
    _deep_pair(2)  # the chains end in long-lived nodes (ANTICHAIN): memoize those first
    size = len(hashcons._TABLE)
    want = [(f"Borel(P({n}))", str(n // 2 + 2)), (f"Borel(Q({n}))", str((n + 1) // 2 + 1))]
    assert _deep_pair(n) == want
    gc.collect()
    assert len(hashcons._TABLE) == size  # the weak table released both chains


def test_a_rank_keeps_the_chain_compiled_at_it():
    # a client holding the rank of the last compile pays only for new levels
    n = 3000
    rank_n = ordinals.from_int(n)
    for kind in (ideals.Kind.P, ideals.Kind.Q):
        schema = trees.compile_form(ideals.CanonicalForm(kind, rank_n))
        classification.classify(schema)
        rank.tree_rank(schema)
    del schema
    gc.collect()
    size = len(hashcons._TABLE)
    pq = trees.compile_form(ideals.CanonicalForm(ideals.Kind.PQ, rank_n))
    assert len(hashcons._TABLE) - size <= 2
    assert str(classification.classify(pq)) == f"Borel(PQ({n}))"
    # copies intern again and carry no memo, so no chain rides along
    assert len(pickle.dumps(rank_n)) < 200 and copy.deepcopy(rank_n) is rank_n
    # the next rung builds its two new levels on the held chain
    deeper = trees.compile_form(ideals.CanonicalForm(ideals.Kind.P, ordinals.from_int(n + 2)))
    assert deeper is Fan((), Const(Spine((), Const(pq.heads[0]))))


def test_diagonal_blocks_live_with_their_tail():
    # block ranks are fundamental-sequence members, which a client may hold
    # for reasons of its own; the blocks live in the tail's memo, never on
    # their ranks, and die with the tail
    offset = 1000  # a tail no other test builds
    for i in range(201):
        ordinals.fund_seq(ordinals.OMEGA, offset + i)
    gc.collect()
    size = len(hashcons._TABLE)
    tail = QDiag(ordinals.OMEGA, offset)
    assert tail._blocks == {}  # fresh: no earlier blocks
    blocks = [trees.seq_block(tail, i) for i in range(201)]
    # Q(k + 1) compiles to spine([];const(fan([];const(Q(k - 1)))))
    assert blocks[-1] is Spine((), Const(Fan((), Const(blocks[-3]))))
    del tail, blocks
    gc.collect()
    assert len(hashcons._TABLE) == size


def test_a_fundamental_sequence_pins_no_chain():
    # fund_seq memoizes nothing, so a chain compiled at one of its values
    # dies with its last reference, even under an immortal limit like OMEGA
    k = 1700  # an index no other test asks for
    ordinals.fund_seq(ordinals.OMEGA, k)
    gc.collect()
    size = len(hashcons._TABLE)
    schema = trees.compile_form(ideals.CanonicalForm(ideals.Kind.Q, ordinals.from_int(k + 1)))
    del schema
    gc.collect()
    left = len(hashcons._TABLE) - size
    assert left == 0


def test_held_chains_compile_again_without_their_ranks(monkeypatch):
    # a level's tail holds the rank below it, so compiling the sum of two
    # held chains interns the top rank again and nothing under it
    n = 50000
    p, q = (trees.compile_ideal(parse_expr(f"{kind}({n})")) for kind in "PQ")
    gc.collect()
    ref = hashcons._TABLE.get((ordinals.Ordinal, ((ordinals.ZERO, n),)))
    assert ref is None or ref() is None  # the chains do not hold their rank
    calls, init = [], ordinals.Ordinal._init
    monkeypatch.setattr(ordinals.Ordinal, "_init", lambda o, *a: calls.append(a) or init(o, *a))
    assert trees.compile_ideal(parse_expr(f"sum(P({n}),Q({n}))")) is Fan((p, q), CONST_EMPTY)
    assert len(calls) <= 3


def test_a_diagonal_block_is_the_level_compiled_at_its_rank():
    # parsed, compiled and diagonal levels are one object
    for k in (0, 1, 2, 7, 30):
        rank_k = ordinals.from_int(k + 1)
        for diag, kind in ((QDiag, ideals.Kind.Q), (PDiag, ideals.Kind.P)):
            block = trees.seq_block(diag(ordinals.OMEGA, k), 0)
            assert block is trees.compile_form(ideals.CanonicalForm(kind, rank_k))
            assert parse_tree(str(block)) is block


def test_a_level_above_zero_presets_the_depth_its_children_give():
    # a successor level stores unbounded depth when it is built; the preset
    # must be what the depth fold computes from the level's children, level
    # by level up from zero and from each limit
    ranks = [ordinals.from_int(k) for k in range(8)]
    for base in ("w", "w*2", "w^2", "w^w", "w^2*3+w"):
        ranks += [ordinals.add(parse_ordinal(base), ordinals.from_int(k)) for k in range(4)]
    levels = [trees._level(p, r) for r in ranks for p in (True, False)]
    for level in levels[2:]:  # the P- and Q-levels at zero are fan([];const(eps)) and chain
        tail = level.tail
        below = (trees._fold(tail.block, trees._DEPTH) if type(tail) is Const
                 else math.inf)  # a diagonal tail: the fold's diag answer
        assert trees._fold(level, trees._DEPTH) == trees._depth_node(level, [], below) == math.inf
    assert [trees.depth_bound(level) for level in levels[:2]] == [1, None]


def test_is_finite_reads_only_the_top_level_of_a_compiled_chain(monkeypatch):
    # folding the depth fact down the chain built and walked all 5 000
    # levels below the top before it answered
    calls = []
    real = trees._level
    monkeypatch.setattr(trees, "_level", lambda p, r: calls.append(r) or real(p, r))
    schema = trees.compile_ideal(parse_expr("P(w^2*3+5000)"))
    assert len(calls) == 1  # a fresh chain: only its top level is built
    assert not trees.is_finite(schema)
    assert len(calls) == 1


def test_repr_of_deep_terms():
    # 8 000 nested terms: a frame per term overflowed the package's limit
    out = repr(trees.compile_ideal(parse_expr("P(4000)")))
    assert out.startswith("Fan[fan([];const(spine([];const(fan([];") and out.endswith("))]")
    assert out.count("(") == out.count(")")
    # a term prints its class around its text in the grammar
    assert repr(t("fan([chain];const(eps))")) == "Fan[fan([chain];const(eps))]"
    assert repr(t("spine([];qdiag(w,2))")) == "Spine[spine([];qdiag(w,2))]"
    assert repr(t("rooted(fan([eps,empty];pdiag(w^2)))")) == (
        "Rooted[rooted(fan([eps,empty];pdiag(w^2)))]"
    )


def test_deep_schema_facts_in_one_process():
    # the bottom-up facts, the derivative classifier and the printer walk a
    # compiled chain without a frame per level
    n = 12000
    schema = trees.compile_ideal(parse_expr(f"P({n})"))
    assert str(classification.classify(schema)) == f"Borel(P({n}))"
    assert classification.classify_via_derivative(schema) == classification.Borel(
        ideals.CanonicalForm(ideals.Kind.P, ordinals.from_int(n))
    )
    # P(2k) compiles to fan([];const(spine([];const(P(2k-2))))), P(0) to fan([];const(eps))
    half = n // 2
    assert str(schema) == "fan([];const(spine([];const(" * half + "fan([];const(eps))" + "))))" * half
    assert rank.tree_rank(schema) == (ordinals.from_int(n // 2 + 2), True)
    assert str(classification.scaffold_class(schema)) == f"P({n - 1})"
    assert not trees.in_wf(schema) and not trees.in_id(schema)
    assert not trees.is_finite(schema)
    assert trees.depth_bound(schema) is None


def test_compile_and_descend_deep_chains_in_one_process():
    # compile_form builds a chain with a loop and the descent follows u by
    # an index, so a chain deeper than the recursion limit costs no frames
    n = 50000
    assert sys.getrecursionlimit() < n
    p, q = (trees.compile_ideal(parse_expr(f"{kind}({n})")) for kind in "PQ")
    assert trees.compile_ideal(parse_expr(f"sum(P({n}),Q({n}))")) is Fan((p, q), CONST_EMPTY)
    # P(2k) compiles to fan([];const(spine([];const(P(2k-2))))), so its
    # shortlex-least element is (0, 1) * k + (0,): one entry per level
    u = (0, 1) * (n // 2) + (0,)
    assert trees.pick_least(trees.compile_ideal(parse_expr("P(2000)"))) == u[:2001]
    assert trees.member_elem(u, p) and not trees.member_elem(u[:-1], p)
    assert trees.gen_member(u, p) and trees.gen_member(u[:-1], p)
    assert trees.cone_of(p, u) is EPS
    assert trees.cone_of(p, u[:-1]) is trees.compile_ideal(parse_expr("P(0)"))


def test_every_fact_slot_has_one_algebra():
    # two algebras sharing a slot would silently return each other's answers
    algebras = [
        v for m in (trees, rank, classification, ideals, ordinals, orders, quotient)
        for v in vars(m).values() if isinstance(v, hashcons.Algebra)
    ]
    slots = [a.slot for a in algebras]
    assert len(set(slots)) == len(slots)
    # the quotient's child classes are a schema fact with no children
    schema = {a.slot for a in algebras if isinstance(a, trees._Algebra) or a is quotient._CLASSES}
    assert schema == set(trees.TreeSchema.__slots__)
    assert set(slots) - schema == {"_form", "_wo", "_rev"}


# every function of the package on a cycle of calls, with what bounds its
# depth other than the nesting of its input; a walker that spends a Python
# frame per level of a term must not appear here
SELF_CALLING = {
    "laws.rand_ordinal": "its depth argument, at most 2",
    "laws.rand_expr": "its size argument",
    "laws.rand_schema": "its size argument",
    "laws._rand_order": "its size argument",
    "laws.prune_schema": "the schemas the seeded generators draw, compiled from small ranks",
}


def _call_graph(src: Path) -> dict[str, set[str]]:
    """Calls between the module-level functions and methods of the package,
    resolved by name: ``f(...)`` to the function ``f`` of the module or the
    one it imports, ``self.f(...)`` to a method ``f`` of the module, and
    ``m.f(...)`` to the function ``f`` of an imported module ``m``."""
    tree = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}
    funcs = {m: {d.name for d in t.body if isinstance(d, ast.FunctionDef)} for m, t in tree.items()}
    methods = {m: {d.name for c in t.body if isinstance(c, ast.ClassDef) for d in c.body
                   if isinstance(d, ast.FunctionDef)} for m, t in tree.items()}
    graph: dict[str, set[str]] = {}
    for m, t in tree.items():
        names, modules = {f: f"{m}.{f}" for f in funcs[m]}, {}
        for imp in ast.walk(t):
            if isinstance(imp, ast.ImportFrom) and imp.level == 1:
                for alias in imp.names:
                    if imp.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name in funcs.get(imp.module, ()):
                        names[alias.asname or alias.name] = f"{imp.module}.{alias.name}"
        defs = [d for d in t.body if isinstance(d, ast.FunctionDef)] + [
            d for c in t.body if isinstance(c, ast.ClassDef) for d in c.body
            if isinstance(d, ast.FunctionDef)]
        for d in defs:
            out = graph.setdefault(f"{m}.{d.name}", set())
            for call in ast.walk(d):
                f = getattr(call, "func", None)
                if isinstance(f, ast.Name) and f.id in names:
                    out.add(names[f.id])
                elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                    owner = f.value.id
                    if owner == "self" and f.attr in methods[m]:
                        out.add(f"{m}.{f.attr}")
                    elif f.attr in funcs.get(modules.get(owner), ()):
                        out.add(f"{modules[owner]}.{f.attr}")
    return graph


def _on_cycles(graph: dict[str, set[str]]) -> list[set[str]]:
    """The strongly connected components that hold a cycle: the functions
    that reach one another, or a function that calls itself."""
    reach = {}
    for v in graph:
        seen, todo = set(), list(graph[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo += graph.get(w, ())
        reach[v] = seen
    return [c for c in {frozenset(w for w in reach[v] if v in reach[w]) for v in graph} if c]


def test_self_calling_functions_are_listed():
    cycles = _on_cycles(_call_graph(Path(trees.__file__).parent))
    assert set().union(*cycles) == set(SELF_CALLING), sorted(map(sorted, cycles))
    assert all(SELF_CALLING.values())


def _unreferenced(src: Path, public: set[str]) -> list[str]:
    """The functions and methods of the package whose name nothing reads
    outside their own body, as a name or an attribute, other than the
    public names and the dunders."""
    def names(node: ast.AST) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    tree = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py")}
    total = sum(map(names, tree.values()), Counter())
    return sorted(f"{m}.{d.name}" for m, t in tree.items() for d in ast.walk(t)
                  if isinstance(d, ast.FunctionDef) and d.name not in public
                  and not (d.name.startswith("__") and d.name.endswith("__"))
                  and total[d.name] == names(d)[d.name])


def test_every_function_is_referenced():
    import idealforms
    from idealforms import cli

    public = {n for names in idealforms._EXPORTS.values() for n in names.split()}
    # cli.main reads a verb's handler by the name _cmd_<verb>: the verb
    # table's rows are its references, so a handler with no row is dead
    public |= {f"_cmd_{verb}" for verb in (*cli._VERBS, *cli._WO) if verb != "wo"}
    assert _unreferenced(Path(trees.__file__).parent, public) == []


def _memo_checks(src: Path) -> list[str]:
    """Where the package asks by hand whether a memo slot is filled: a
    ``try`` that handles ``AttributeError``, or a ``getattr``/``hasattr``
    that names a memo slot by a literal.  The memo slots are the private
    names of every ``__slots__`` and the slot of every ``Algebra``."""
    tree = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    nodes = [(m, n) for m, t in tree.items() for n in ast.walk(t)]

    def strings(node: ast.AST) -> set[str]:
        return {c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and type(c.value) is str}

    slots = set().union(*(strings(n.value) for _, n in nodes if isinstance(n, ast.Assign)
                          and any(isinstance(x, ast.Name) and x.id == "__slots__" for x in n.targets)))
    slots |= {n.args[0].value for _, n in nodes if isinstance(n, ast.Call) and n.args
              and isinstance(n.args[0], ast.Constant) and type(n.args[0].value) is str
              and (n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", ""))
              in ("Algebra", "_Algebra")}
    slots = {s for s in slots if s.startswith("_") and not s.startswith("__")}
    out = []
    for m, n in nodes:
        if isinstance(n, ast.ExceptHandler) and n.type is not None:
            names = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
            if any(isinstance(x, ast.Name) and x.id == "AttributeError" for x in names):
                out.append(f"{m}:{n.lineno} except AttributeError")
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
              and n.func.id in ("getattr", "hasattr") and len(n.args) > 1
              and isinstance(n.args[1], ast.Constant) and n.args[1].value in slots):
            out.append(f"{m}:{n.lineno} {n.func.id} {n.args[1].value}")
    return out


def test_only_fold_asks_whether_a_memo_slot_is_filled():
    # every memoized fact is a fold slot or a field set when its term is
    # built, so hashcons._fold is the one reader that asks whether a slot
    # is filled; its own hasattr names the slot by a variable
    assert _memo_checks(Path(trees.__file__).parent) == []


def test_memo_checks_finds_hand_written_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "class T:\n    __slots__ = ('child', '_fact')\n\n"
        "A = Algebra('_other', None, None)\n\n"
        "def f(t):\n    try:\n        return t._fact\n    except (KeyError, AttributeError):\n"
        "        return None\n\n"
        "def g(t, slot):\n    return getattr(t, '_other', None), hasattr(t, 'child'), hasattr(t, slot)\n")
    assert _memo_checks(tmp_path) == ["a:9 except AttributeError", "a:13 getattr _other"]


_TAIL_CLASSES = {"Const", "_Diag", "QDiag", "PDiag"}

# the functions and classes that may ask a tail's class, and why the answer
# depends on it there; everywhere else a tail is read through seq_block,
# shift_tail, block_at, tail_is_trivial or a fold's answer
TAIL_CLASS_TESTS = {
    "trees._level_of": "tail protocol: a level's tail names its kind and rank",
    "trees._Algebra": "the fold's hook: a constant tail folds its block, a diagonal one calls diag",
    "trees.seq_block": "tail protocol",
    "trees.shift_tail": "tail protocol",
    "trees.block_at": "tail protocol",
    "trees.tail_is_trivial": "tail protocol",
    "classification._node": "a diagonal tail's answer is already the sum of its blocks",
    "classification._assemble_spine": "a diagonal tail's answer is already the sum of its blocks",
    "classification.find_expansion": "only a constant tail repeats one block; cheaper than "
                                     "folding a diagonal block's rank",
    "membership._picks_in": "the picks are exact over a constant tail, bounded over a diagonal one",
    "membership._walk": "the pair budget",
    "quotient._classes": "a diagonal vertex overflows every cap at once",
    "laws.prune_schema": "a generator",
}


def _class_tests(src: Path, classes: set[str], atoms: frozenset[str] = frozenset()) -> list[str]:
    """The top-level functions and classes of the package that test a
    term's class against one of ``classes`` (``type(x) is`` or ``is not``,
    or ``isinstance(x, ...)``) or its identity against one of ``atoms``
    (``x is`` or ``is not``)."""
    def named(node: ast.AST, names: set[str]) -> set[str]:
        return names & {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute))}

    def atom(node: ast.AST) -> bool:
        return isinstance(node, (ast.Name, ast.Attribute)) and bool(named(node, atoms))

    def tests(n: ast.AST) -> bool:
        if isinstance(n, ast.Compare):
            of_type = (isinstance(n.left, ast.Call) and isinstance(n.left.func, ast.Name)
                       and n.left.func.id == "type")
            return any(isinstance(op, (ast.Is, ast.IsNot))
                       and (of_type and bool(named(c, classes)) or atom(n.left) or atom(c))
                       for op, c in zip(n.ops, n.comparators))
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
                and len(n.args) == 2 and bool(named(n.args[1], classes)))

    return [f"{p.stem}.{d.name}" for p in sorted(src.glob("*.py")) for d in ast.parse(p.read_text()).body
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and any(map(tests, ast.walk(d)))]


def test_only_the_allowlist_asks_a_tails_class():
    # one walk follows a sequence (cone_of) and one picks a block (walk);
    # no other consumer splits on a tail's class where its answer does not depend on it
    assert sorted(_class_tests(Path(trees.__file__).parent, _TAIL_CLASSES)) == sorted(TAIL_CLASS_TESTS)


def test_tail_class_tests_finds_each_kind_of_test(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x):\n    return type(x) is Const\n\n"
        "def g(x, p):\n    return type(x.tail) is not (trees.QDiag if p else trees.PDiag)\n\n"
        "class C:\n    def m(self, x):\n        return isinstance(x, (int, _Diag))\n\n"
        "def h(x):\n    return type(x) is Fan or isinstance(x, Spine) or Const(x) or x is Const\n")
    assert _class_tests(tmp_path, _TAIL_CLASSES) == ["a.f", "a.g", "a.C"]


_ORDER_CLASSES, _ORDER_ATOMS = {"Nat", "Rev", "Cat", "OmegaCat", "RatQ"}, {"NAT", "RATQ"}

# the functions that may ask an order term's class or which atom it is, and
# why the answer depends on it there; everywhere else a term is read down
# orders._walk or through a fold's answer
ORDER_CLASS_TESTS = {
    "orders._walk": "the one walk: it passes each reversal, enters a sum's chosen part "
                    "and stops at an atom",
    "orders._wo_node": "the classification fold's node rule",
    "orders._rev_node": "the reversal fold's node rule",
    "orders._frame": "a concatenation's last part ends at the endpoint; an omega sum has no last block",
    "orders._nth": "round-robin over a concatenation's parts, diagonal over an omega sum's blocks",
    "orders._dense_occurrence": "the path names a concatenation's part \"cat\" and an omega sum's "
                                "block \"block\"",
    "orders._first_dense": "it scans a concatenation's parts, or an omega sum's heads and then its tail "
                           "(text.children reads the same through the grammar table, about 10 % slower)",
    "orders._position": "the leaf rule: a natural's position is its number, a rational's a tree path",
    "orders.embed_position": "the leaf rule: a natural is a point of the frame, a tree path halves it",
}


def test_only_the_allowlist_asks_an_order_terms_class():
    # one walk goes down an order term (orders._walk); the four jobs on it
    # split on a term's class only where their own rule depends on it
    found = _class_tests(Path(trees.__file__).parent, _ORDER_CLASSES, _ORDER_ATOMS)
    assert sorted(found) == sorted(ORDER_CLASS_TESTS)


def test_class_tests_find_identity_tests_against_atoms(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(t):\n    return t is NAT\n\n"
        "def g(steps):\n    return steps[-1][1] is not orders.RATQ\n\n"
        "def h(t, forms):\n    return t is None or t == NAT or NAT(t) or forms[0] is NATS\n")
    assert _class_tests(tmp_path, set(), _ORDER_ATOMS) == ["a.f", "a.g"]


def test_union_leaves_are_kept_on_the_union_asked_alone():
    # a left-deep nest deeper than the recursion limit, each leaf twice
    leaves = [queries.FinSet(((n % 25_000,),)) for n in range(50_000)]
    unions = [queries.Union(leaves[0], leaves[1])]
    for x in leaves[2:]:
        unions.append(queries.Union(unions[-1], x))
    top = unions[-1]
    assert sys.getrecursionlimit() < len(unions)
    out = queries._leaves(top)
    assert out == tuple(leaves[:25_000])
    assert top._leaves is out
    assert not any(hasattr(u, "_leaves") for u in unions[:-1])
    assert queries._leaves(top) is out


def test_unreferenced_finds_dead_and_self_calling_functions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\ndef dead():\n    return used()\n\n"
        "def loop(n):\n    return loop(n - 1)\n\ndef api():\n    return 0\n\n"
        "class C:\n    def __len__(self):\n        return self.m()\n\n"
        "    def m(self):\n        return 0\n")
    assert _unreferenced(tmp_path, {"api"}) == ["a.dead", "a.loop"]


def test_call_graph_finds_cycles_through_helpers(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\nfrom .b import g\n\n"
        "def f(x):\n    return b.h(x)\n\ndef k():\n    return g()\n\n"
        "class C:\n    def m(self):\n        return self.m()\n")
    (tmp_path / "b.py").write_text(
        "from .a import f\n\ndef h(x):\n    return f(x)\n\ndef g():\n    return next(iter(()))\n\n"
        "def r(n):\n    return r(n - 1) if n else g()\n")
    cycles = _on_cycles(_call_graph(tmp_path))
    assert sorted(map(sorted, cycles)) == [["a.f", "b.h"], ["a.m"], ["b.r"]]


def test_racing_builders_get_one_object():
    # more threads than cores and a tiny switch interval, so that builders
    # interleave between looking a term up and storing it
    srcs = [f"spine([fan([];qdiag(w*{n + 1}))];const(rooted(chain)))" for n in range(300)]
    built: list[list] = [[] for _ in range(4)]
    start = threading.Barrier(len(built))

    def build(out: list) -> None:
        start.wait(timeout=30)
        out.extend(parse_tree(src) for src in srcs)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(len(out) == len(srcs) for out in built)
    for same in zip(*built):
        assert all(t is same[0] for t in same)


# --------------------------------------------------------------------------
# chain levels: pinned answers and the parent's node rules as reference


def _chain_forms() -> list[ideals.CanonicalForm]:
    """P, Q and PQ at the ranks 0..200, w*k+j (k = 1..3, j = 0..5), w^2,
    w^w+3 and w^(w^w): finite, successor and limit ranks of the chains."""
    ranks = [ordinals.from_int(n) for n in range(201)]
    ranks += [ordinals.add(ordinals.omega_power(ordinals.ONE, k), ordinals.from_int(j))
              for k in (1, 2, 3) for j in range(6)]
    ranks += [parse_ordinal(s) for s in ("w^2", "w^w+3", "w^(w^w)")]
    return [ideals.CanonicalForm(kind, r) for r in ranks for kind in ideals.Kind]


def _fold_nodes(top: trees.TreeSchema, alg: trees._Algebra) -> set:
    """Every term the fold of ``alg`` reaches from ``top``."""
    seen, stack = set(), [top]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            if type(x) in (Fan, Spine, Rooted):
                stack += alg.kids(x)
    return seen


# sha256 of "<form>:<classify>,<via derivative>,<scaffold>,<tree rank>"
# lines over _chain_forms(); recorded before the head-less node rules
CHAIN_DIGEST = "a00f36d0e25b8f4cd822caf2dd562f535e42f5e45c54ac78692a178a85be2f43"


def test_chain_answers_pinned():
    h = hashlib.sha256()
    markers = (classification.EMPTY_CLS, classification.FINITE_CLS, classification.FULL_CLS)
    for c in _chain_forms():
        s = trees.compile_form(c)
        r, core_empty = rank.tree_rank(s)
        h.update((f"{c}:{classification.classify(s)},{classification.classify_via_derivative(s)},"
                  f"{classification.scaffold_class(s)},{r},{core_empty}\n").encode())
        # the node rules compare these answers with the markers by identity
        for alg in (classification._CLASS, classification._SCAFFOLD):
            for x in _fold_nodes(s, alg):
                a = getattr(x, alg.slot)
                assert type(a) is ideals.CanonicalForm or any(a is m for m in markers), (x, a)
    assert h.hexdigest() == CHAIN_DIGEST


def _ref_sum(parts: list) -> object:
    """``classification._sum`` before the head-less node rules, unchanged."""
    forms = [p for p in parts if isinstance(p, ideals.CanonicalForm)]
    if forms:
        return ideals.combine_all(forms)
    if any(p == classification.FINITE_CLS for p in parts):
        return classification.FINITE_CLS
    return classification.EMPTY_CLS


def _ref_cls_node(t: Fan | Spine, heads: list, tail: object) -> object:
    """``classification._node`` before the head-less node rules, unchanged."""
    FINITE_CLS, FULL_CLS, EMPTY_CLS = (
        classification.FINITE_CLS, classification.FULL_CLS, classification.EMPTY_CLS)
    if tail == FULL_CLS or any(c == FULL_CLS for _, c in heads):
        return FULL_CLS
    spine = isinstance(t, Spine)
    if tail is None:
        return _ref_sum([FINITE_CLS] + [c for _, c in heads]) if heads else EMPTY_CLS
    if not isinstance(t.tail, Const):
        rest = [tail]
    elif isinstance(tail, ideals.CanonicalForm):
        rest = [ideals.omega_sum(ideals.perp(tail) if spine else tail)]
    else:
        rest = [ideals.POW_FORM] if tail == FINITE_CLS else []
    if not spine:
        return _ref_sum([FINITE_CLS] + [c for _, c in heads] + rest)
    inner = [ideals.perp(c) for _, c in heads if isinstance(c, ideals.CanonicalForm)] + rest
    return _ref_sum([ideals.FIN_FORM] + ([ideals.perp(ideals.combine_all(inner))] if inner else []))


def _ref_rank_node(t: Fan | Spine, heads: list, tail: rank.RankInfo | None) -> rank.RankInfo:
    """``rank._node`` before the head-less node rules, unchanged."""
    RankInfo = rank.RankInfo
    if tail is not None:
        if isinstance(t, Fan):
            tail = RankInfo(tail.rank, tail.core_empty, tail.rank)
        heads = heads + [(len(t.heads), tail)]
    if not heads:
        return rank._EMPTY_INFO
    if all(i.core_empty for _, i in heads):
        return rank._from_dom(max([i.dom_stage for _, i in heads]))
    ranks = [i.rank for _, i in heads]
    if isinstance(t, Spine):
        last_bad = max(n for n, i in heads if not i.core_empty)
        late = [i.dom_stage for n, i in heads if n > last_bad]
        if late:
            ranks.append(ordinals.succ(max(late)))
    return RankInfo(max(ranks), False, None)


def test_node_rules_agree_with_the_reference_rules():
    # the inputs each fold gave its node rule, rebuilt from the answers it
    # stored: the live heads' answers, and the tail's (None when trivial)
    from test_oracle import _facts, _facts_corpus

    tops = _facts_corpus()
    for s in tops:
        _facts(s)
    for c in _chain_forms():
        s = trees.compile_form(c)
        classification.classify(s), classification.scaffold_class(s), rank.rank_info(s)
        tops.append(s)
    cases = (
        (classification._CLASS, classification._node, _ref_cls_node, classification._p_limit),
        (classification._SCAFFOLD, classification._node, _ref_cls_node, classification._p_limit),
        (rank._RANK, rank._node, _ref_rank_node,
         lambda tail: rank.RankInfo(tail.rank, True, tail.rank)),
    )
    met = Counter()
    for alg, node, ref, diag in cases:
        answer = alg.slot
        nodes = set().union(*(_fold_nodes(s, alg) for s in tops))
        for x in nodes:
            if type(x) not in (Fan, Spine) or not hasattr(x, answer):
                continue
            heads = [(n, getattr(h, answer)) for n, h in enumerate(x.heads) if not h._empty]
            if type(x.tail) is Const:
                tail = None if x.tail.block._empty else getattr(x.tail.block, answer)
            else:
                tail = diag(x.tail)
            want = ref(x, heads, tail)
            assert node(x, list(heads), tail) == want == getattr(x, answer), (x, answer)
            # the sum rule alone, on the parts a node sums
            parts = [c for _, c in heads] + ([] if tail is None else [tail])
            if node is classification._node and all(p != classification.FULL_CLS for p in parts):
                assert classification._sum(parts) == _ref_sum(parts), (x, parts)
            met[answer, bool(heads), type(x).__name__] += 1
    # both node shapes of both kinds, with and without live heads
    assert all(met[slot, h, k] for slot in ("_cls", "_scaffold", "_rank")
               for h in (False, True) for k in ("Fan", "Spine")), met

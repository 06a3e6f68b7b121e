"""Both classification paths, the rank engine and the scaffold identity."""

from __future__ import annotations

import ast
import gc
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

import idealforms.classification as classify
from idealforms import ideals, rank, trees
from idealforms.classification import Borel, NonBorel
from idealforms.errors import FiniteSchema
from idealforms.ideals import CanonicalForm, Kind
from idealforms.laws import rand_expr, rand_infinite_schema
from idealforms.oracle import WITNESS_BUDGET, check_witness
from idealforms.text import parse_expr, parse_ordinal, parse_tree
from idealforms.witnesses import CoreEmbedding


t = parse_tree
e = parse_expr


def form(kind: str, rank_text: str) -> CanonicalForm:
    return CanonicalForm(Kind[kind], parse_ordinal(rank_text))


def test_classify_examples():
    assert classify.classify(t("chain")) == Borel(form("Q", "0"))
    assert classify.classify(t("fan([];const(chain))")) == Borel(form("P", "1"))
    assert classify.classify(t("spine([];const(fan([];const(eps))))")) == Borel(form("Q", "1"))
    out = classify.classify(t("full"))
    assert isinstance(out, NonBorel)
    assert out.witness.map((2, 7)) == (2, 7)


def test_classify_rejects_finite():
    with pytest.raises(FiniteSchema):
        classify.classify(t("eps"))
    with pytest.raises(FiniteSchema):
        classify.classify(t("fan([eps,eps];const(empty))"))
    with pytest.raises(FiniteSchema):
        classify.classify(t("empty"))


def test_finite_blocks_absorbed():
    # finite heads vanish into an adjacent infinite block
    assert classify.classify(t("fan([eps,chain];const(empty))")) == Borel(form("Q", "0"))
    # omega many finite blocks make a full power set
    assert classify.classify(t("fan([];const(eps))")) == Borel(form("P", "0"))
    assert classify.classify(t("spine([];const(eps))")) == Borel(form("Q", "0"))


def test_nonborel_propagates_with_prefix():
    out = classify.classify(t("fan([chain,full];const(empty))"))
    assert isinstance(out, NonBorel)
    assert out.witness.map(()) == (1,)
    assert out.witness.map((5,)) == (1, 5)
    assert check_witness(out.witness, None, WITNESS_BUDGET)
    out = classify.classify(t("spine([full];const(chain))"))
    assert isinstance(out, NonBorel)
    assert out.witness.map(()) == (1,)


def test_schema_facts_stay_linear_in_depth():
    # a full block under 4 000 levels: every fact holds a constant-size
    # answer per level and the non-Borel prefix is built once, by the walk,
    # so memory grows with the depth, not its square
    n = 4000
    s = trees.FULL
    for k in range(n):
        s = trees.Fan((trees.EMPTY, s), trees.CONST_EMPTY) if k % 2 == 0 else trees.Spine(
            (s,), trees.CONST_EMPTY)
    tracemalloc.start()
    try:
        trees.is_empty(s), trees.least_length(s), trees._entry_bound(s), trees.depth_bound(s)
        trees.in_wf(s), trees.in_id(s), rank.rank_info(s), classify.scaffold_class(s)
        out = classify.classify(s)
        via = classify.classify_via_derivative(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert isinstance(out, NonBorel) and isinstance(via, NonBorel)
    assert out.witness.provenance == (1,) * n
    assert check_witness(out.witness, None, WITNESS_BUDGET)


def test_tree_rank_examples():
    assert rank.tree_rank(t("full")) == (parse_ordinal("0"), False)
    assert rank.tree_rank(t("chain")) == (parse_ordinal("1"), True)
    assert rank.tree_rank(t("fan([];const(chain))")) == (parse_ordinal("2"), True)
    assert rank.tree_rank(t("fan([];qdiag(w))")) == (parse_ordinal("w+1"), True)
    assert rank.tree_rank(t("spine([];pdiag(w))")) == (parse_ordinal("w+1"), True)
    assert rank.tree_rank(t("fan([full];const(chain))")) == (parse_ordinal("1"), False)
    assert rank.tree_rank(t("spine([full];const(chain))")) == (parse_ordinal("1"), False)


def test_compiled_rank_grows_with_stage():
    values = []
    for src in ("P(1)", "P(3)", "P(w)", "P(w*2)", "P(w^2)"):
        r, core_empty = rank.tree_rank(trees.compile_ideal(e(src)))
        assert core_empty
        values.append(r)
    for lo, hi in zip(values, values[1:]):
        assert lo < hi


def test_via_derivative_examples():
    assert classify.classify_via_derivative(t("chain")) == Borel(form("Q", "0"))
    assert classify.classify_via_derivative(t("spine([];const(fan([];const(eps))))")) == Borel(
        form("Q", "1")
    )
    out = classify.classify_via_derivative(t("full"))
    assert isinstance(out, NonBorel)
    assert check_witness(out.witness, None, WITNESS_BUDGET)


def test_core_embedding_extends_inputs():
    out = classify.classify_via_derivative(t("fan([chain];const(full))"))
    assert isinstance(out, NonBorel)
    w = out.witness
    for u in [(0,), (1, 1), (2, 0, 3)]:
        assert len(w.map(u)) >= len(u)
        assert trees.gen_member(w.map(u), t("fan([chain];const(full))"))
    assert check_witness(w, None, WITNESS_BUDGET)


def test_core_embedding_maps_long_sequences():
    # the map walks down from its target with a loop, not one frame per
    # entry, so a sequence longer than the recursion limit maps
    u = (0,) * 5000
    assert sys.getrecursionlimit() < len(u)
    w = classify.classify_via_derivative(t("full")).witness
    assert w.map(u) == u
    assert w.map(u + (7,)) == u + (7,)
    w = classify.classify_via_derivative(t("fan([chain];const(full))")).witness
    assert w.map(u) == (1,) + u[1:]
    assert w.map((2,) + u) == (3,) + u


def test_core_embedding_keeps_nothing_per_mapped_sequence():
    # the map keeps one expansion per cone and nothing per sequence, so a
    # fresh 40 000-entry sequence leaves no more than its cones behind
    w = classify.classify_via_derivative(t("full")).witness
    u = (0,) * 40_000
    tracemalloc.start()
    try:
        assert w.map(u) == u
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20, held


def test_core_expansion_walks_deep_terms():
    # the expansion search descends one block per loop step, not per frame
    deep = trees.FULL
    for _ in range(25000):
        deep = trees.Fan((deep,), trees.CONST_EMPTY)
    out = classify.classify_via_derivative(deep)
    assert isinstance(out, NonBorel)
    assert out.witness.map((0,)) == (0,) * 25001
    assert out.witness.map((3, 2)) == (0,) * 25000 + (3, 2)


def test_round_trip_on_named_forms():
    for src in ("FIN", "POW", "P(1)", "Q(1)", "sum(P(0),Q(0))", "P(w)", "Q(w+1)", "sum(P(w),Q(w))"):
        expr = e(src)
        got = classify.classify(trees.compile_ideal(expr))
        assert got == Borel(ideals.normalize(expr)), src


def test_round_trip_sampled():
    rng = random.Random(11)
    for _ in range(150):
        expr = rand_expr(rng, 10)
        got = classify.classify(trees.compile_ideal(expr))
        assert got == Borel(ideals.normalize(expr)), str(expr)


def _scaffold_expected(schema) -> CanonicalForm:
    left = classify.classify(schema)
    assert isinstance(left, Borel)
    scaffold = classify.scaffold_class(schema)
    if isinstance(scaffold, CanonicalForm):
        return ideals.combine(left.form, scaffold)
    return left.form


def test_two_path_agreement_worked():
    cases = {
        "chain": "Q", "fan([];const(chain))": "P", "fan([];const(eps))": "P",
        "spine([];const(chain))": "Q", "spine([];const(fan([];const(eps))))": "Q",
        "spine([fan([];const(eps))];const(eps))": "PQ",
    }
    for src in cases:
        schema = t(src)
        via = classify.classify_via_derivative(schema)
        assert isinstance(via, Borel)
        assert via.form == _scaffold_expected(schema), src


def test_two_path_agreement_sampled():
    rng = random.Random(12)
    for _ in range(120):
        schema = rand_infinite_schema(rng, 8)
        left = classify.classify(schema)
        via = classify.classify_via_derivative(schema)
        assert isinstance(left, Borel) == isinstance(via, Borel), str(schema)
        if isinstance(via, Borel):
            assert via.form == _scaffold_expected(schema), str(schema)


def test_trichotomy_sampled():
    rng = random.Random(13)
    for _ in range(120):
        schema = rand_infinite_schema(rng, 8)
        _, core_empty = rank.tree_rank(schema)
        assert core_empty == isinstance(classify.classify(schema), Borel), str(schema)


def test_scaffold_can_exceed_rank_zero():
    # nested spines leave an omega-sum of chains behind: rank 1 scaffold
    schema = trees.compile_ideal(e("P(2)"))
    assert classify.scaffold_class(schema) == form("P", "1")


def test_offset_diagonal_tails():
    # cones of diagonal spines shift the block index; classification and
    # rank are unchanged because the shifted stages stay cofinal
    from idealforms import ordinals

    base = trees.compile_ideal(e("Q(w)"))
    shifted = trees.cone_of(base, (0, 0, 0))
    assert shifted == t("spine([];pdiag(w,3))")
    assert classify.classify(shifted) == Borel(form("Q", "w"))
    assert rank.tree_rank(shifted) == (parse_ordinal("w+1"), True)
    fan_shift = t("fan([];qdiag(w,4))")
    assert classify.classify(fan_shift) == Borel(form("P", "w"))


def test_rooted_classification():
    assert classify.classify(t("rooted(chain)")) == Borel(form("Q", "0"))
    assert classify.classify_via_derivative(t("rooted(fan([];const(chain)))")) == Borel(
        form("P", "1")
    )


def _slicing_map(w, state: dict, expansions: dict, u: tuple) -> tuple:
    """The image of ``u`` from the longest prefix of ``u`` already mapped,
    found by slicing ``u`` from its full length down, then one expansion
    per further entry: a reference that shares no walk with the map."""
    k = len(u)
    while u[:k] not in state:
        k -= 1
    pos, cone = state[u[:k]]
    pos = list(pos)
    for x in u[k:]:
        exp = expansions.get(cone)
        if exp is None:
            exp = expansions[cone] = w._expander(cone)
        pos += exp.path
        pos.append(exp.offset + x)
        cone = exp.child
    state[u] = (tuple(pos), cone)
    return state[u][0]


def test_core_embedding_map_matches_the_slicing_map():
    rng = random.Random(16)
    witnesses = [classify.classify_via_derivative(t(src)).witness
                 for src in ("full", "fan([chain];const(full))", "spine([full];const(chain))")]
    while len(witnesses) < 8:
        out = classify.classify_via_derivative(rand_infinite_schema(rng, 7))
        if isinstance(out, NonBorel) and isinstance(out.witness, CoreEmbedding):
            witnesses.append(out.witness)
    for w in witnesses:
        state, expansions, done = {(): ((), w.target)}, {}, [()]
        for _ in range(30):
            roll = rng.random()
            if roll < 0.4:  # a fresh sequence, up to 2 000 entries long
                u = tuple(rng.randrange(4) for _ in range(rng.randrange(9 if roll < 0.2 else 2001)))
            else:  # a prefix of one mapped before, extended or not
                v = rng.choice(done)
                u = v[:rng.randrange(len(v) + 1)] + (() if roll < 0.6 else (rng.randrange(4),) * 3)
            assert w.map(u) == _slicing_map(w, state, expansions, u), (w.target, len(u))
            done.append(u)


def test_only_ideals_and_laws_build_canonical_forms():
    # every rule that makes a form from a rank is in ideals (laws draws
    # forms at random): the classifiers ask ideals for each one
    src = Path(ideals.__file__).parent
    callers = {p.stem for p in src.glob("*.py") for n in ast.walk(ast.parse(p.read_text()))
               if isinstance(n, ast.Call) and "CanonicalForm" in (getattr(n.func, "id", None),
                                                                  getattr(n.func, "attr", None))}
    assert callers == {"ideals", "laws"}


def test_chain_levels_classify_without_combining(monkeypatch):
    # a head-less spine's tail part is a P-form, whose orthogonal absorbs
    # the FIN summand: compiling and classifying a chain sums forms only
    # where the expression does
    calls = []
    combine = ideals.combine
    monkeypatch.setattr(ideals, "combine", lambda c1, c2: calls.append(1) or combine(c1, c2))
    gc.collect()  # no chain level of an earlier test keeps its class
    for src, want in (("Q(200)", 0), ("P(200)", 0), ("sum(P(200),Q(200))", 2)):
        expr = e(src)
        calls.clear()
        out = classify.classify(trees.compile_ideal(expr))
        assert len(calls) == want and out == Borel(ideals.normalize(expr)), (src, len(calls))

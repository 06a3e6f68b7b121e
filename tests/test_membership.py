"""Containment, membership, orthogonal subsets and domination witnesses."""

from __future__ import annotations

import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from idealforms import membership, queries, trees
from idealforms.errors import NotASubset, UnknownContainment
from idealforms.membership import Ternary
from idealforms.laws import rand_expr, rand_query, rand_schema
from idealforms.oracle import WITNESS_BUDGET, Budget, check_witness, enumerate_schema
from idealforms.queries import FinSet, Transversal, Union
from idealforms.text import parse_expr, parse_query, parse_tree
from idealforms.trees import CONST_EMPTY, Const, Fan, Spine
from idealforms.witnesses import DominatingBranch, UnboundedFamily


t = parse_tree
e = parse_expr
P1 = t("fan([];const(chain))")  # the standard omega-sum-of-finite copy
BLOCK0_CHAIN = t("fan([chain];const(empty))")


def test_subset_examples():
    assert membership.subset_of(FinSet(((0, 0),)), trees.CHAIN) is Ternary.YES
    assert membership.subset_of(FinSet(((0,), (1,))), trees.CHAIN) is Ternary.NO
    assert membership.subset_of(trees.CHAIN, trees.FULL) is Ternary.YES
    assert membership.subset_of(trees.CHAIN, t("fan([];const(eps))")) is Ternary.NO
    assert membership.subset_of(BLOCK0_CHAIN, P1) is Ternary.YES
    assert membership.subset_of(Transversal(P1), P1) is Ternary.YES


def _refuted(q: str, target: str) -> tuple[int, ...]:
    """The walk's counterexample to ``q`` in ``target``, checked by point
    membership."""
    verdict, u = membership._walk(t(q), t(target))
    assert verdict is Ternary.NO
    assert trees.member_elem(u, t(q)) and not trees.member_elem(u, t(target))
    return u


def test_subset_blockwise_and_unknown():
    assert membership.subset_of(t("fan([];const(chain))"), t("fan([];const(full))")) is Ternary.YES
    assert membership.subset_of(t("fan([];const(chain))"), t("fan([chain];const(empty))")) is Ternary.NO
    # the counterexample here is longer than any bounded search would try
    deep = "fan([];const(fan([];const(fan([];const(fan([];const(fan([];const(fan([];const(chain))))))))))))"
    assert membership.subset_of(t(deep), t("spine([];const(chain))")) is Ternary.NO
    assert len(_refuted(deep, "spine([];const(chain))")) == 7


def test_subset_past_diagonal_tails():
    # block n of the query is block n - 1 of the target, so the two tails
    # only align after the head offset: <1,1,0> is in the first alone
    assert _refuted("fan([empty];qdiag(w))", "fan([];qdiag(w))") == (1, 1, 0)
    # a target whose tail blocks are full takes every tail letter
    q = t("fan([];pdiag(w^3*3))")
    assert membership.subset_of(q, t("fan([full];const(full))")) is Ternary.YES
    _refuted("fan([spine([];const(empty))];pdiag(w*2))", "fan([full,full];qdiag(w))")


def test_transversals_are_decided_by_their_picks():
    # the fan holds <n,1>, outside the target; every pick <n,0> is in it
    q = parse_query("transversal(fan([];const(chain)))")
    assert membership.subset_of(q, t("fan([];const(fan([eps];const(empty))))")) is Ternary.YES
    # over a constant tail the picks form a schema that the walk decides;
    # over a diagonal tail only the first picks are tried.  Each NO is
    # checked by its counterexample and each YES by enumerating the query
    rng = random.Random(1)
    pairs = [(rand_schema(rng, 2 + i % 6), rand_schema(rng, 2 + i % 6)) for i in range(4000)]
    pairs = [(Transversal(f), s) for f, s in pairs if type(f) is Fan]
    assert len(pairs) == 2015
    undecided, wrong = {True: [], False: []}, []
    for q, s in pairs:
        verdict, u = membership._containment(q, s)
        if verdict is Ternary.NO:
            if not queries.q_member(u, q) or trees.member_elem(u, s):
                wrong.append((q, s, u))
        elif verdict is Ternary.UNKNOWN:
            undecided[type(q.fan.tail) is Const].append((q, s))
        elif not all(trees.member_elem(v, s) for v in enumerate_schema(q, Budget(4, 4, 60))):
            wrong.append((q, s))
    assert not undecided[True] and len(undecided[False]) <= 3 and not wrong, (undecided, wrong[:5])


def test_containment_is_one_procedure():
    # subset_of decides by the pair walk and never enumerates a query
    from test_trees import _call_graph

    graph = _call_graph(Path(membership.__file__).parent)
    seen, todo = set(), ["membership.subset_of"]
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            todo += graph.get(f, ())
    assert not seen & {"oracle._leaf_iter_len", "trees.iter_len"}, sorted(seen)
    assert "membership._walk" in seen and "membership._one" in seen


# each standard copy as a query: member, member of the orthogonal,
# contained in FIN's copy, its domination witness (a branch, or the first
# four of its family), its orthogonal subset, and enumerate_schema at
# Budget(3, 2, 6); the answers the copy gave when a query wrapped it
COPIES = [
    ("FIN", False, True, Ternary.YES, "[](0)*", "chain", [(0,), (0, 0), (0, 0, 0)]),
    ("P(1)", False, False, Ternary.NO, [(0, 0), (1, 0), (2, 0), (3, 0)], "fan([chain];const(empty))",
     [(0, 0), (1, 0), (2, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0)]),
    ("Q(1)", False, False, Ternary.NO, [(1, 0), (1, 2), (1, 3), (1, 4)],
     "spine([];const(fan([eps];const(empty))))",
     [(1, 0), (1, 1), (1, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]),
    ("sum(P(1),Q(1))", False, False, Ternary.NO, [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)],
     "fan([fan([chain];const(empty))];const(empty))",
     [(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 1, 0), (1, 1, 1), (1, 1, 2)]),
]


@pytest.mark.parametrize("src, member, perp, in_fin, branch, subset, elements", COPIES,
                         ids=[c[0] for c in COPIES])
def test_a_compiled_schema_is_a_query_as_it_stands(src, member, perp, in_fin, branch, subset, elements):
    target = e(src)
    copy = trees.compile_ideal(target)
    assert membership.member_of(copy, target) is member
    assert membership.member_perp(copy, target) is perp
    assert membership.subset_of(copy, trees.compile_ideal(e("FIN"))) is in_fin
    w = membership.id_witness(copy)
    assert (str(w) if isinstance(w, DominatingBranch) else w.elements(4)) == branch
    assert check_witness(w, copy, WITNESS_BUDGET)
    fw = membership.frechet_witness(copy, target)
    assert isinstance(fw, trees.TreeSchema) and str(fw) == subset
    assert check_witness(fw, copy, Budget(8, 8, 100))
    assert enumerate_schema(copy, Budget(3, 2, 6)) == elements


def test_q_predicates_examples():
    q = parse_query("finset{<9,9,9>}")
    assert membership.q_in_wf(q) and membership.q_in_id(q)
    tr = Transversal(P1)
    assert membership.q_in_wf(tr) and not membership.q_in_id(tr)
    u = Union(trees.CHAIN, FinSet(((1,),)))
    assert not membership.q_in_wf(u) and membership.q_in_id(u)


def test_member_examples():
    # the block-0 chain misses the ideal but meets the orthogonal
    assert membership.member_of(BLOCK0_CHAIN, e("P(1)")) is False
    assert membership.member_perp(BLOCK0_CHAIN, e("P(1)")) is True
    # the transversal is the opposite corner
    assert membership.member_of(Transversal(P1), e("P(1)")) is True
    assert membership.member_perp(Transversal(P1), e("P(1)")) is False
    fin = FinSet(((0,), (0, 0), (0, 0, 0)))
    assert membership.member_of(fin, e("FIN")) is True
    # its fan is not contained, but its picks <n,0> are
    picks = parse_query("transversal(fan([];const(fan([];const(eps)))))")
    assert membership.member_of(picks, e("P(1)")) is True
    assert membership.member_perp(picks, e("P(1)")) is False


def test_member_preconditions():
    with pytest.raises(NotASubset):
        membership.member_of(FinSet(((1, 1),)), e("FIN"))
    with pytest.raises(NotASubset):
        membership.member_of(t("spine([];const(chain))"), e("Q(1)"))
    # a fan whose single block is the chain denotes a subset of the chain
    sneaky = t("fan([chain];const(empty))")
    assert membership.subset_of(sneaky, trees.CHAIN) is Ternary.YES
    # the error names the sequence the query holds and the target misses
    with pytest.raises(NotASubset, match="<1,1,0>"):
        membership.member_of(t("fan([empty];qdiag(w))"), e("P(w)"))
    # every block of the query's diagonal tail is new against the target's
    # constant tail: the walk stops at its bound, and says where
    with pytest.raises(UnknownContainment, match="stopped at <"):
        membership.member_of(t("fan([];qdiag(w^(w*3)*3))"), e("P(w^2+w+1)"))


def test_frechet_examples():
    w = membership.frechet_witness(BLOCK0_CHAIN, e("P(1)"))
    assert w == BLOCK0_CHAIN  # the chain itself is already orthogonal
    w = membership.frechet_witness(P1, e("P(1)"))
    assert w == BLOCK0_CHAIN  # recursion descends into block 0
    q = Union(BLOCK0_CHAIN, t("fan([empty,chain];const(empty))"))
    w = membership.frechet_witness(q, e("P(1)"))
    assert w == BLOCK0_CHAIN  # first positive side wins


def test_frechet_spine_pick():
    # copies are well-founded antichains: the witness picks one point each
    q = t("spine([];const(fan([];const(eps))))")
    w = membership.frechet_witness(q, e("Q(1)"))
    assert membership.subset_of(w, q) is Ternary.YES
    assert membership.q_in_id(w)
    assert check_witness(w, q, Budget(8, 8, 100))


def test_frechet_rejects_positive_queries():
    with pytest.raises(NotASubset):
        membership.frechet_witness(Transversal(P1), e("P(1)"))


def test_id_witness_examples():
    w = membership.id_witness(trees.CHAIN)
    assert isinstance(w, DominatingBranch)
    assert w.prefix == () and set(w.period) == {0}
    w = membership.id_witness(t("spine([];const(chain))"))
    assert isinstance(w, DominatingBranch)
    assert all(w.value(i) == 1 for i in range(10))
    w = membership.id_witness(t("fan([];const(eps))"))
    assert isinstance(w, UnboundedFamily)
    assert w.elements(3) == [(0,), (1,), (2,)]


def test_id_witness_checks_sampled():
    rng = random.Random(21)
    for _ in range(80):
        expr = rand_expr(rng, 6)
        target = trees.compile_ideal(expr)
        q = rand_query(rng, target)
        w = membership.id_witness(q)
        assert check_witness(w, q, WITNESS_BUDGET), f"{q}"


def test_never_both_for_infinite_queries():
    rng = random.Random(22)
    seen = 0
    for _ in range(300):
        expr = rand_expr(rng, 6)
        target = trees.compile_ideal(expr)
        q = rand_query(rng, target)
        if not membership.q_is_infinite(q):
            continue
        if membership.subset_of(q, target) is not Ternary.YES:
            continue
        seen += 1
        assert not (membership.member_of(q, expr) and membership.member_perp(q, expr)), f"{q}"
    assert seen >= 100


def test_orthogonality_stabilizes():
    # a dominated query meets a well-founded query in a finite stable set
    q = t("spine([];const(chain))")
    r = t("fan([];const(fan([];const(eps))))")
    assert membership.q_in_id(q) and membership.q_in_wf(r)
    sizes = []
    for depth in (3, 5, 8):
        b = Budget(depth, 8, 500)
        inter = set(enumerate_schema(q, b)) & set(enumerate_schema(r, b))
        sizes.append(len(inter))
    assert sizes[0] <= sizes[1] <= sizes[2] <= 2


def test_restriction_coherence():
    # perp membership forces finite stable intersections with ideal members
    q = BLOCK0_CHAIN
    assert membership.member_perp(q, e("P(1)"))
    r = Transversal(P1)
    assert membership.member_of(r, e("P(1)"))
    for depth in (4, 6, 8):
        b = Budget(depth, 8, 400)
        inter = set(enumerate_schema(q, b)) & set(enumerate_schema(r, b))
        assert len(inter) <= 1


def test_witnesses_of_deep_schemas():
    # the witness builders are loops, so a schema deeper than the
    # recursion limit costs no frames
    n = 50000
    assert sys.getrecursionlimit() < n
    # P(2k) compiles to fan([];const(spine([];const(P(2k-2))))) and P(0) is
    # well-founded: the subset takes block 0 down to P(2)'s spine and there
    # the pick <0> of every copy
    w = membership.frechet_witness(trees.compile_ideal(e(f"P({n})")), e(f"P({n})"))
    want = Fan((Spine((), Const(trees.singleton((0,)))),), CONST_EMPTY)
    for _ in range(n // 2 - 1):
        want = Fan((Spine((want,), CONST_EMPTY),), CONST_EMPTY)
    assert w is want
    nest = trees.CHAIN
    for _ in range(n):
        nest = Spine((), Const(nest))
    assert str(membership.id_witness(nest)) == "[](1)*"


def test_witnesses_cost_the_length_of_the_text():
    # a finite set answers from its elements, and a dominating branch is
    # built once, not a prefix per level: neither a large entry nor a long
    # element or fan nest costs more than its length (a prefix per level
    # of these 5 000 would hold 12.5 million entries, about 100 MB)
    n = 5000
    long = (0,) * (n - 1) + (2,)
    want = f"[{'0,' * (n - 1)}2](0)*"
    nest = trees.singleton(long)
    tracemalloc.start()
    try:
        assert membership.member_of(FinSet(((10**9,),)), e("POW"))
        assert str(membership.id_witness(FinSet(((10**9,), (7, 3))))) == "[1000000000,3](0)*"
        assert str(membership.id_witness(FinSet((long,)))) == want
        assert str(membership.id_witness(nest)) == want
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_finite_containment_checks_blocks_against_cones():
    # a finite schema is checked block by block against cones of the target
    # instead of listing its elements
    n = 4000
    target = trees.compile_ideal(e(f"P({n})"))
    inside = (0, 1) * (n // 2) + (0,)
    assert trees.member_elem(inside, target)
    tracemalloc.start()
    try:
        assert membership.subset_of(trees.singleton(inside), target) is Ternary.YES
        assert membership.subset_of(trees.singleton((0,) * n), target) is Ternary.NO
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20

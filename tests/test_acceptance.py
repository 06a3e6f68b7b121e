"""Acceptance criteria, one test per criterion with a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
tolerance is exact (symbolic) and the whole module stays well under a
minute.
"""

from __future__ import annotations

import itertools
import random

import pytest

import idealforms.classification as classification
from idealforms import ideals, laws, membership, oracle, orders, ordinals, rank, trees
from idealforms.classification import Borel, NonBorel
from idealforms.errors import QuotientOverflow
from idealforms.ideals import CanonicalForm, Kind
from idealforms.membership import Ternary
from idealforms.oracle import Budget
from idealforms.queries import Transversal
from idealforms.text import parse_expr, parse_ordinal, parse_tree

WITNESS_BUDGET = Budget(8, 8, 200)

_rng = random.Random("acceptance")
EXPRS = [laws.rand_expr(_rng, 12) for _ in range(200)]
SCHEMAS = [laws.rand_infinite_schema(random.Random(f"schema{i}"), 8) for i in range(100)]


def _report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_1_canonical_forms():
    for e in EXPRS:
        c = ideals.normalize(e)
        assert isinstance(c, CanonicalForm) and c.kind in Kind
    rng = random.Random("idempotence")
    for _ in range(200):
        b = laws.rand_ordinal_small(rng)
        a = ordinals.add(b, laws.rand_ordinal_small(rng))
        assert ideals.normalize(ideals.Sum((ideals.P(a), ideals.P(b)))) == CanonicalForm(Kind.P, a)
        assert ideals.normalize(ideals.Sum((ideals.Q(a), ideals.Q(b)))) == CanonicalForm(Kind.Q, a)
        if a != b:
            assert ideals.normalize(ideals.Sum((ideals.P(a), ideals.Q(b)))) == CanonicalForm(Kind.P, a)
            assert ideals.normalize(ideals.Sum((ideals.Q(a), ideals.P(b)))) == CanonicalForm(Kind.Q, a)
    _report(1, "200 expressions normalize; idempotence laws exact on 200 ordinal pairs")


def test_criterion_2_frechet_involution():
    for e in EXPRS:
        assert ideals.normalize(ideals.Perp(ideals.Perp(e))) == ideals.normalize(e)
    _report(2, "double orthogonal fixes all 200 generated expressions")


def test_criterion_3_round_trip():
    assert trees.compile_ideal(parse_expr("FIN")) == trees.CHAIN
    named = {
        "FIN": CanonicalForm(Kind.Q, ordinals.ZERO),
        "P(1)": CanonicalForm(Kind.P, ordinals.ONE),
        "sum(P(0),Q(0))": CanonicalForm(Kind.PQ, ordinals.ZERO),
    }
    for src, want in named.items():
        got = classification.classify(trees.compile_ideal(parse_expr(src)))
        assert got == Borel(want), src
    for e in EXPRS:
        got = classification.classify(trees.compile_ideal(e))
        assert got == Borel(ideals.normalize(e)), str(e)
    _report(3, "classify(compile(e)) = Borel(normalize(e)) on all 200 expressions")


def test_criterion_4_trichotomy():
    borel = non_borel = 0
    for t in SCHEMAS:
        left = classification.classify(t)
        right = classification.classify_via_derivative(t)
        assert isinstance(left, Borel) == isinstance(right, Borel), str(t)
        _, core_empty = rank.tree_rank(t)
        assert core_empty == isinstance(left, Borel), str(t)
        if isinstance(right, NonBorel):
            non_borel += 1
            assert oracle.check_witness(right.witness, None, WITNESS_BUDGET), str(t)
            if isinstance(left, NonBorel):
                assert oracle.check_witness(left.witness, None, WITNESS_BUDGET), str(t)
        else:
            borel += 1
    assert borel and non_borel  # both verdicts must occur in the population
    _report(4, f"two-path verdicts and trichotomy agree on 100 schemas "
               f"({borel} Borel, {non_borel} non-Borel with checked witnesses)")


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)] if total >= 1 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


_ATOMS = (trees.EMPTY, trees.EPS, trees.CHAIN, trees.FULL)
_SIZED: dict[int, list[trees.TreeSchema]] = {}


def _schemas_of_size(size: int) -> list[trees.TreeSchema]:
    """Every constant-tail schema with exactly ``size`` constructor nodes."""
    if size in _SIZED:
        return _SIZED[size]
    out: list[trees.TreeSchema] = list(_ATOMS) if size == 1 else []
    if size >= 2:
        for ctor in (trees.Fan, trees.Spine):
            for heads_n in range(0, 3):
                for split in _compositions(size - 1, heads_n + 1):
                    *head_sizes, tail_size = split
                    for heads in itertools.product(
                        *[_schemas_of_size(s) for s in head_sizes]
                    ):
                        for block in _schemas_of_size(tail_size):
                            out.append(ctor(tuple(heads), trees.Const(block)))
    _SIZED[size] = out
    return out


def test_criterion_5_derivative_oracle():
    budget = Budget(6, 6, 64)
    named = {
        "chain": ("1", True),
        "fan([];const(chain))": ("2", True),
        "full": ("0", False),
    }
    for src, (r, core_empty) in named.items():
        t = parse_tree(src)
        assert oracle.explicit_derivative(t, budget) == (parse_ordinal(r), core_empty)
    checked = 0
    for size in range(1, 7):
        for t in _schemas_of_size(size):
            assert oracle.explicit_derivative(t, budget) == rank.tree_rank(t), str(t)
            checked += 1
    assert checked >= 300
    # diagonal tails need infinitely many representatives by construction
    lam = ordinals.OMEGA
    for tail in (trees.QDiag(lam), trees.PDiag(lam)):
        for ctor in (trees.Fan, trees.Spine):
            for heads in ((), (trees.CHAIN,), (trees.FULL, trees.EPS)):
                with pytest.raises(QuotientOverflow):
                    oracle.explicit_derivative(ctor(heads, tail), Budget(6, 6, 16))
    _report(5, f"oracle matches the symbolic rank on all {checked} "
               f"finite-quotient schemas of size <= 6")


def test_criterion_6_standard_copy_membership():
    p1 = parse_expr("P(1)")
    block0 = parse_tree("fan([chain];const(empty))")
    assert membership.member_of(block0, p1) is False
    assert membership.member_perp(block0, p1) is True
    transversal = Transversal(trees.compile_ideal(p1))
    assert membership.member_of(transversal, p1) is True
    assert membership.member_perp(transversal, p1) is False
    rng = random.Random("never-both")
    tested = 0
    while tested < 100:
        e = laws.rand_expr(rng, 6)
        target = trees.compile_ideal(e)
        q = laws.rand_query(rng, target)
        if not membership.q_is_infinite(q):
            continue
        if membership.subset_of(q, target) is not Ternary.YES:
            continue
        assert not (membership.member_of(q, e) and membership.member_perp(q, e)), str(q)
        tested += 1
    _report(6, "standard-copy memberships exact; never-both holds on 100 queries")


def test_criterion_7_frechet_witnesses():
    rng = random.Random("frechet")
    produced = 0
    while produced < 50:
        e = laws.rand_expr(rng, 6)
        target = trees.compile_ideal(e)
        q = laws.prune_schema(rng, target)
        if membership.subset_of(q, target) is not Ternary.YES or membership.q_in_wf(q):
            continue
        w = membership.frechet_witness(q, e)
        assert membership.subset_of(w, q) is Ternary.YES
        assert membership.q_in_id(w)
        assert oracle.check_witness(w, q, Budget(8, 8, 100)), f"{q} in {e}"
        produced += 1
    _report(7, "50 orthogonal-subset witnesses verified mechanically")


def test_criterion_8_scattered_orders():
    named = {
        "N": CanonicalForm(Kind.P, ordinals.ZERO),
        "rev(N)": CanonicalForm(Kind.Q, ordinals.ZERO),
        "osum([];rev(N))": CanonicalForm(Kind.P, ordinals.ONE),
        "cat(N,rev(N))": CanonicalForm(Kind.PQ, ordinals.ZERO),
    }
    from idealforms.text import parse_order

    for src, want in named.items():
        assert orders.wo_classify(parse_order(src)) == orders.Scattered(want), src
    rng = random.Random("duality")
    for _ in range(200):
        t = laws._rand_order(rng, 7)
        left = orders.wo_classify(orders.reverse_term(t))
        right = orders.wo_classify(t)
        assert left.form == ideals.perp(right.form), str(t)
    from fractions import Fraction

    dense_rng = random.Random("dense")
    dense_seen = 0
    while dense_seen < 50:
        t = laws._rand_order(dense_rng, 6, dense=True)
        if orders.scattered_check(t):
            continue
        out = orders.wo_classify(t)
        assert isinstance(out, orders.NonScattered), str(t)
        samples = [Fraction(k, 3) for k in range(-9, 10)]
        images = [out.embedding.map(x) for x in samples]
        assert images == sorted(images) and len(set(images)) == len(images)
        for a, b in zip(samples, samples[1:]):
            assert out.embedding.map(a) < out.embedding.map((a + b) / 2) < out.embedding.map(b)
        dense_seen += 1
    _report(8, "named classifications, 200 duality checks and 50 dense embeddings hold")


def test_criterion_9_distinctness():
    ranks = ["0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w", "w^3"]
    exprs = []
    for r in ranks:
        exprs.append(parse_expr(f"P({r})"))
        exprs.append(parse_expr(f"Q({r})"))
        exprs.append(parse_expr(f"sum(P({r}),Q({r}))"))
    assert len(exprs) == 30
    for e1, e2 in itertools.combinations(exprs, 2):
        assert not ideals.iso_check(e1, e2), f"{e1} vs {e2}"
    _report(9, "the 30 canonical ideals are pairwise non-isomorphic")

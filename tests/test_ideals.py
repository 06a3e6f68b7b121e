"""Canonical-form algebra: rewriting rules and the idempotence laws."""

from __future__ import annotations

import random

import pytest

from idealforms import ideals, ordinals
from idealforms.errors import NotLimit
from idealforms.ideals import CanonicalForm, Kind
from idealforms.laws import rand_expr, rand_ordinal_small
from idealforms.text import parse_expr, parse_ordinal


e = parse_expr
o = parse_ordinal


def form(kind: str, rank: str) -> CanonicalForm:
    return CanonicalForm(Kind[kind], o(rank))


def test_combine_examples():
    assert ideals.combine(form("P", "w"), form("Q", "3")) == form("P", "w")
    assert ideals.combine(form("P", "2"), form("Q", "2")) == form("PQ", "2")
    assert ideals.combine(form("Q", "1"), form("Q", "1")) == form("Q", "1")
    assert ideals.combine(form("PQ", "1"), form("P", "1")) == form("PQ", "1")


def test_perp_examples():
    assert ideals.perp(form("P", "5")) == form("Q", "5")
    assert ideals.perp(form("PQ", "2")) == form("PQ", "2")
    assert ideals.perp(form("Q", "0")) == form("P", "0")
    for kind in Kind:
        c = CanonicalForm(kind, o("w+2"))
        assert ideals.perp(ideals.perp(c)) == c


def test_normalize_examples():
    assert ideals.normalize(e("omega(FIN)")) == form("P", "1")
    # the simplest ideal with non-isomorphic Borel orthogonal:
    # omega-sum, orthogonal, omega-sum again
    assert ideals.normalize(e("omega(perp(omega(FIN)))")) == form("P", "2")
    assert ideals.normalize(e("limsum(w)")) == form("P", "w")
    assert ideals.normalize(e("perp(perp(P(5)))")) == form("P", "5")
    assert ideals.normalize(e("POW")) == form("P", "0")
    assert ideals.normalize(e("mix(P(1),Q(2);omega(Q(0)))")) == form("Q", "2")


def test_rank_examples():
    assert ideals.b_rank(e("FIN")) == o("0")
    assert ideals.b_rank(e("omega(Q(3))")) == o("4")
    assert ideals.b_rank(e("limsum(w*2)")) == o("w*2")


def test_iso_examples():
    assert not ideals.iso_check(e("P(1)"), e("Q(1)"))
    assert ideals.iso_check(e("sum(P(2),Q(1))"), e("P(2)"))
    expr = e("mix(P(3);omega(FIN))")
    assert ideals.iso_check(expr, expr)


def test_limsum_requires_limit():
    with pytest.raises(NotLimit):
        ideals.normalize(e("limsum(3)"))
    with pytest.raises(NotLimit):
        ideals.normalize(e("limsum(w+1)"))


def test_mix_tail_shape_enforced():
    with pytest.raises(ValueError):
        ideals.MixSum((ideals.Fin(),), ideals.Fin())


def test_canonical_printing_aliases():
    assert str(form("P", "0")) == "POW"
    assert str(form("Q", "0")) == "FIN"
    assert str(form("PQ", "0")) == "PQ(0)"
    assert str(form("P", "w+1")) == "P(w+1)"


def test_idempotence_laws_sampled():
    # the four absorption laws at and below equal rank
    rng = random.Random(99)
    for _ in range(300):
        b = rand_ordinal_small(rng)
        a = ordinals.add(b, rand_ordinal_small(rng))
        assert ideals.normalize(ideals.Sum((ideals.P(a), ideals.P(b)))) == CanonicalForm(Kind.P, a)
        assert ideals.normalize(ideals.Sum((ideals.Q(a), ideals.Q(b)))) == CanonicalForm(Kind.Q, a)
        if a != b:
            assert ideals.normalize(ideals.Sum((ideals.P(a), ideals.Q(b)))) == CanonicalForm(Kind.P, a)
            assert ideals.normalize(ideals.Sum((ideals.Q(a), ideals.P(b)))) == CanonicalForm(Kind.Q, a)


def test_double_perp_sampled():
    rng = random.Random(100)
    for _ in range(200):
        expr = rand_expr(rng, 12)
        assert ideals.normalize(ideals.Perp(ideals.Perp(expr))) == ideals.normalize(expr)


def test_perp_distributes_over_finite_sums():
    rng = random.Random(101)
    for _ in range(200):
        e1, e2 = rand_expr(rng, 5), rand_expr(rng, 5)
        lhs = ideals.normalize(ideals.Perp(ideals.Sum((e1, e2))))
        rhs = ideals.normalize(ideals.Sum((ideals.Perp(e1), ideals.Perp(e2))))
        assert lhs == rhs


def test_omega_sum_regroups():
    rng = random.Random(102)
    for _ in range(200):
        expr = rand_expr(rng, 6)
        assert ideals.normalize(ideals.OmegaSum(ideals.OmegaSum(expr))) == ideals.normalize(
            ideals.OmegaSum(expr)
        )


def test_combine_monoid_sampled():
    rng = random.Random(103)
    for _ in range(300):
        forms = [CanonicalForm(rng.choice(list(Kind)), rand_ordinal_small(rng)) for _ in range(3)]
        c1, c2, c3 = forms
        assert ideals.combine(c1, c2) == ideals.combine(c2, c1)
        assert ideals.combine(ideals.combine(c1, c2), c3) == ideals.combine(c1, ideals.combine(c2, c3))
        assert ideals.combine(c1, c1) == c1

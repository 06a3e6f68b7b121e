"""Ordinal arithmetic: contract examples and sampled laws."""

from __future__ import annotations

import random
import sys

import pytest

from idealforms import hashcons, ordinals
from idealforms.errors import NotLimit
from idealforms.laws import rand_limit, rand_ordinal
from idealforms.ordinals import OMEGA, ONE, ZERO, OrdKind, Ordinal
from idealforms.text import parse_ordinal


o = parse_ordinal


def test_compare_examples():
    assert ordinals.compare(OMEGA, o("5")) > 0
    assert ordinals.compare(o("w+1"), o("w+1")) == 0
    assert ordinals.compare(o("w*2"), o("w^2")) < 0


def test_add_examples():
    assert ordinals.add(o("w+1"), OMEGA) == o("w*2")
    assert ordinals.add(ZERO, o("w^2")) == o("w^2")
    assert ordinals.add(o("w^2"), o("w*3+4")) == o("w^2+w*3+4")


def test_operators_agree_with_compare_and_add():
    a, b = o("w*2"), o("w^2")
    assert b > a and b >= a and a >= a and not a > a and not a >= b
    assert a + b == ordinals.add(a, b) == b and b + a == o("w^2+w*2")
    assert max([ONE, a, b, OMEGA]) is b


def test_kind_examples():
    assert ordinals.kind(ZERO) is OrdKind.ZERO
    assert ordinals.kind(o("w^2+3")) is OrdKind.SUCCESSOR
    assert ordinals.kind(o("w*5")) is OrdKind.LIMIT


def test_fund_seq_examples():
    assert ordinals.fund_seq(OMEGA, 3) == o("4")
    assert ordinals.fund_seq(o("w*2"), 2) == o("w+3")
    assert ordinals.fund_seq(o("w^2"), 1) == o("w*2")
    assert ordinals.fund_seq(o("w^w"), 2) == o("w^3")
    assert ordinals.fund_seq(o("w^(w+1)"), 1) == o("w^w*2")


def test_fund_seq_requires_limit():
    with pytest.raises(NotLimit):
        ordinals.fund_seq(o("w+1"), 0)
    with pytest.raises(NotLimit):
        ordinals.fund_seq(ZERO, 0)


def test_pred_and_succ():
    assert ordinals.pred(o("w+1")) == OMEGA
    assert ordinals.succ(o("w")) == o("w+1")
    with pytest.raises(ValueError):
        ordinals.pred(OMEGA)


def test_invalid_cnf_rejected():
    size = len(hashcons._TABLE)
    for _ in range(2):  # a rejected term is never stored, so it fails again
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 0),))
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 1), (ONE, 1)))  # exponents must strictly decrease
    assert len(hashcons._TABLE) == size


def test_equal_ordinals_are_one_object():
    assert o("w^(w+1)*2+w+3") is o("w^(w+1)*2+w+3")
    assert ordinals.add(o("w^2"), o("w*3+4")) is o("w^2+w*3+4")
    assert Ordinal(((ONE, 1),)) is OMEGA and ordinals.from_int(0) is ZERO


def test_total_order_sampled():
    rng = random.Random(4711)
    for _ in range(300):
        a, b, c = (rand_ordinal(rng) for _ in range(3))
        assert ordinals.compare(a, b) == -ordinals.compare(b, a)
        if a <= b <= c:
            assert a <= c
        assert (ordinals.compare(a, b) == 0) == (a == b)


def test_add_assoc_and_identity_sampled():
    rng = random.Random(4712)
    for _ in range(300):
        a, b, c = (rand_ordinal(rng) for _ in range(3))
        assert ordinals.add(ordinals.add(a, b), c) == ordinals.add(a, ordinals.add(b, c))
        assert ordinals.add(a, ZERO) == a
        assert ordinals.add(ZERO, a) == a


def test_fund_seq_monotone_below_limit():
    rng = random.Random(4713)
    for _ in range(100):
        a = rand_limit(rng)
        values = [ordinals.fund_seq(a, n) for n in range(0, 64, 7)]
        for v, w in zip(values, values[1:]):
            assert v < w
        assert all(v < a for v in values)


def test_int_round_trip():
    assert ordinals.from_int(0) == ZERO


def test_deep_towers_under_the_default_recursion_limit():
    # compare, fund_seq and the printer and parser walk a 50 000-high
    # tower w^w^...^w without a Python frame per level
    depth = 50000
    assert sys.getrecursionlimit() < depth
    low, high = ONE, ordinals.from_int(2)
    for _ in range(depth):
        low, high = ordinals.omega_power(low), ordinals.omega_power(high)
    assert ordinals.compare(low, high) == -1 and ordinals.compare(high, low) == 1
    assert ordinals.compare(ordinals.add(low, ONE), low) == 1
    text = "w^" * (depth - 1) + "w"
    assert str(low) == text and parse_ordinal(text) is low
    # the rule for a limit exponent applies at every level down to w^w,
    # whose member 3 is w^4
    assert ordinals.fund_seq(low, 3) is parse_ordinal("w^" * (depth - 1) + "4")

"""The public names of the package, which load their modules on first use,
and the contract of its record types."""

from __future__ import annotations

import copy
import importlib
import pickle

import pytest

import idealforms
from idealforms import (classification, ideals, membership, oracle, orders, ordinals, queries, quotient, rank,
                        text, trees, witnesses)
from idealforms.errors import BadArgument
from idealforms.ordinals import OMEGA, ONE, ZERO


def test_every_public_name_is_its_defining_object():
    for name in idealforms.__all__:
        module = importlib.import_module(f"idealforms.{idealforms._MODULE_OF[name]}")
        obj = getattr(idealforms, name)
        assert obj is getattr(module, name), name
        defined_in = getattr(obj, "__module__", None)
        if defined_in and defined_in.startswith("idealforms."):
            assert defined_in == module.__name__, name


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from idealforms import *", namespace)
    assert set(idealforms.__all__) <= set(namespace)
    assert set(idealforms.__all__) <= set(dir(idealforms))
    assert idealforms.__all__ == sorted(set(idealforms.__all__))


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        idealforms.no_such_name
    with pytest.raises(ImportError):
        from idealforms import no_such_name  # noqa: F401


FORM = ideals.CanonicalForm(ideals.Kind.P, ONE)
FAN = trees.Fan((trees.EPS,), trees.Const(trees.CHAIN))


def _interned_records():
    """One builder per interned record type, called twice by each test."""
    return [
        lambda: ideals.Fin(), lambda: ideals.Pow(), lambda: ideals.P(ONE), lambda: ideals.Q(OMEGA),
        lambda: ideals.Perp(ideals.Fin()), lambda: ideals.Sum((ideals.Fin(), ideals.P(ONE))),
        lambda: ideals.OmegaSum(ideals.Q(ONE)), lambda: ideals.LimSum(OMEGA),
        lambda: ideals.MixSum((ideals.Pow(),), ideals.OmegaSum(ideals.Fin())),
        lambda: trees.Fan((trees.EPS,), trees.Const(trees.CHAIN)), lambda: queries.FinSet(((0, 3), ())),
        lambda: queries.Transversal(FAN),
        lambda: queries.Union(trees.CHAIN, queries.FinSet(((1,),))),
        lambda: orders.Nat(), lambda: orders.Rev(orders.Nat()), lambda: orders.Cat((orders.Nat(), orders.RatQ())),
        lambda: orders.OmegaCat((orders.Nat(),), orders.Rev(orders.Nat())), lambda: orders.RatQ(),
        lambda: classification.Borel(ideals.CanonicalForm(ideals.Kind.P, ONE)),
        lambda: orders.Scattered(ideals.CanonicalForm(ideals.Kind.Q, ZERO)),
        lambda: oracle.Budget(3, 2, 10),
        lambda: witnesses.DominatingBranch((4,), (1, 2)),
    ]


@pytest.mark.parametrize("build", _interned_records())
def test_interned_records_are_one_object_per_value(build):
    x = build()
    assert x is build() and x == build() and hash(x) == hash(build())
    assert copy.copy(x) is x and copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x
    assert type(x)(*x.__getnewargs__()) is x  # positional, fields in __match_args__ order
    assert [getattr(x, f) for f in x.__match_args__] == list(x.__getnewargs__())


def test_interned_records_differ_by_fields():
    assert ideals.P(ONE) != ideals.P(OMEGA) and ideals.P(ONE) != ideals.Q(ONE)
    assert oracle.Budget(1, 2, 3) != oracle.Budget(1, 2, 4)
    assert orders.Scattered(FORM) is orders.Scattered(ideals.CanonicalForm(ideals.Kind.P, ONE))
    match ideals.MixSum((ideals.Fin(),), ideals.LimSum(OMEGA)):
        case ideals.MixSum(heads, ideals.LimSum(r)):
            assert heads == (ideals.Fin(),) and r is OMEGA
    with pytest.raises(TypeError):
        ideals.P()


@pytest.mark.parametrize("build, error, message", [
    (lambda: ideals.Sum(()), ValueError, "finite sum needs at least one summand"),
    (lambda: ideals.MixSum((ideals.Fin(),), ideals.Fin()), ValueError,
     "mix tail must be an omega-sum or a limit sum"),
    (lambda: queries.FinSet(((0,), (0,))), BadArgument,
     "finite set elements must be pairwise distinct: finset{<0>,<0>}"),
    (lambda: queries.Transversal(trees.CHAIN), BadArgument,
     "transversal is only defined over a fan, got chain"),
    (lambda: orders.Cat(()), ValueError, "concatenation needs at least one part"),
    (lambda: oracle.Budget(0, 1, 1), BadArgument, "budget fields must all be >= 1, got 0,1,1"),
    (lambda: witnesses.DominatingBranch((), ()), ValueError, "period must be nonempty"),
])
def test_record_validation(build, error, message):
    for _ in range(2):  # a rejected term is not kept
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message


def _family_without_its_query():
    q = text.parse_tree("fan([];const(eps))")
    return oracle.check_witness(membership.id_witness(q), None, oracle.WITNESS_BUDGET)


@pytest.mark.parametrize("call, error, message", [
    (lambda: trees.is_empty(trees.CONST_EMPTY), TypeError, "not a schema: Const[const(empty)]"),
    (lambda: trees.derivatives(trees.CONST_EMPTY), TypeError, "not a schema: Const[const(empty)]"),
    (lambda: trees.seq_block(trees.EMPTY, 0), TypeError, "not a schema sequence: Empty[empty]"),
    (lambda: trees.shift_tail(trees.EMPTY, 1), TypeError, "not a schema sequence: Empty[empty]"),
    (lambda: queries._leaves(queries.Union(trees.CHAIN, 5)), TypeError, "not a query term: 5"),
    (lambda: ordinals.from_int(-1), ValueError, "ordinals are non-negative, got -1"),
    (lambda: ordinals.fund_seq(OMEGA, -1), ValueError, "index must be >= 0"),
    (lambda: ideals.combine_all([]), ValueError, "empty sum has no canonical form"),
    (lambda: ideals.normalize(orders.NAT), TypeError, "not an ideal expression: Nat[N]"),
    (lambda: orders.wo_classify(ideals.Fin()), TypeError, "not an order term: Fin[FIN]"),
    (lambda: orders.reverse_term(ideals.Fin()), TypeError, "not an order term: Fin[FIN]"),
    (lambda: orders.rationalize(ideals.Fin(), 1), TypeError, "not an order term: Fin[FIN]"),
    (lambda: orders.pos_cmp(ideals.Fin(), (0,), (1,)), TypeError, "not an order term: Fin[FIN]"),
    (lambda: orders.embed_position(ideals.Fin(), (0,)), TypeError, "not an order term: Fin[FIN]"),
    (_family_without_its_query, TypeError, "not a query term: None"),
    (lambda: oracle.check_witness(3, trees.CHAIN, oracle.WITNESS_BUDGET), TypeError, "not a witness: 3"),
    (lambda: oracle.check_witness(queries.FinSet(((0,),)), trees.CHAIN, oracle.WITNESS_BUDGET), TypeError,
     "not a witness: FinSet[finset{<0>}]"),
    (lambda: orders._dense_occurrence(orders.NAT), AssertionError, "no dense occurrence in N"),
    (lambda: trees.walk(trees.EMPTY, lambda s: 0, lambda s: False), AssertionError,
     "the walk has no block to enter at empty"),
])
def test_guards_reject_what_their_callers_never_pass(call, error, message):
    # no other test reaches these guards: each one stands between a
    # malformed argument and a wrong answer
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("build", [
    lambda: ideals.CanonicalForm(ideals.Kind.PQ, OMEGA),
    lambda: rank.RankInfo(OMEGA, True, ONE),
    lambda: rank.RankInfo(ZERO, False, None),
])
def test_value_records_compare_by_fields(build):
    x, y = build(), build()
    assert x is not y and x == y and hash(x) == hash(y) and not x != y
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert x != classification.FINITE_CLS and x != classification.EMPTY_CLS
    assert x != classification.FULL_CLS


def test_value_records_differ_by_fields():
    assert ideals.CanonicalForm(ideals.Kind.P, OMEGA) != ideals.CanonicalForm(ideals.Kind.Q, OMEGA)
    assert ideals.CanonicalForm(ideals.Kind.P, OMEGA) != ideals.CanonicalForm(ideals.Kind.P, ONE)
    assert rank.RankInfo(ONE, True, ONE) != rank.RankInfo(ONE, True, ZERO)
    assert ideals.CanonicalForm(ideals.Kind.P, ONE) != rank.RankInfo(ONE, True, ONE)


def test_plain_records_take_their_fields_positionally():
    source = lambda: iter([(0,), (1,)])  # noqa: E731
    family = witnesses.UnboundedFamily(source)
    assert family.source == source
    exp = witnesses.Expansion((0, 1), 3, trees.FULL)
    assert (exp.path, exp.offset, exp.child) == ((0, 1), 3, trees.FULL)
    law = oracle.LawReport("idempotence", 5, 1, "FIN", 4)
    report = oracle.SuiteReport(7, 5, [law])
    assert (report.seed, report.trials, report.laws, report.all_pass) == (7, 5, [law], False)
    assert law.checked == 4  # counted, but not in the JSON report
    assert law.to_json() == {"name": "idempotence", "trials": 5, "failures": 1, "firstCounterexample": "FIN"}
    a, b = quotient.Quotient(), quotient.Quotient()
    a.vertices.append(trees.EPS)
    assert (len(a), len(b), b.edges) == (1, 0, [])  # no shared lists
    assert classification.NonBorel(None).witness is None and orders.NonScattered(None).embedding is None
    s = text._Stream("P( 12 )")
    assert (s.text, s.tokens, s.pos) == ("P( 12 )", ["P", "(", "12", ")"], 0)

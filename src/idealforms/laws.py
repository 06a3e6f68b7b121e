"""The seeded generators and the laws that ``oracle.law_suite`` replays.

A law is a draw and a check.  The draw takes a trial's instances from
the ``random.Random`` it is given and returns them as a tuple of args;
the check reads those args alone, never the generator, and answers
whether the law holds on them, or ``VACUOUS`` when a guard leaves it
nothing to check.  The suite decides each trial's outcome and writes its
counterexample from the args.  The suite imports this module on its
first call, so the checker kernel in ``oracle`` compiles none of it, nor
the ``orders``, ``rank`` and ``classification`` that only the laws use.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import ideals, membership, orders, ordinals, rank, trees
from .classification import Borel, NonBorel, classify, classify_via_derivative, scaffold_class
from .errors import QuotientOverflow
from .ideals import CanonicalForm, IdealExpr, Kind
from .membership import Ternary
from .oracle import WITNESS_BUDGET, Budget, check_witness, enumerate_schema, explicit_derivative
from .ordinals import Ordinal
from .queries import FinSet, Transversal, Union
from .trees import QueryTerm, TreeSchema
from .witnesses import DominatingBranch


# a check's answer when its guard leaves nothing to check: a pass, not counted as checked
VACUOUS = object()


# --------------------------------------------------------------------------
# seeded generators


def rand_ordinal_small(rng: random.Random) -> Ordinal:
    """Ordinal below omega^3 with small coefficients."""
    out = ordinals.ZERO
    for exp in (2, 1, 0):
        c = rng.randrange(0, 4)
        if c:
            out = ordinals.add(out, ordinals.omega_power(ordinals.from_int(exp), c))
    return out


def rand_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    out = ordinals.ZERO
    for _ in range(rng.randrange(0, 3)):
        if depth > 0 and rng.random() < 0.4:
            e = rand_ordinal(rng, depth - 1)
        else:
            e = ordinals.from_int(rng.randrange(0, 3))
        out = ordinals.add(out, ordinals.omega_power(e, rng.randrange(1, 4)))
    return out


def rand_limit(rng: random.Random) -> Ordinal:
    a = rand_ordinal(rng)
    while ordinals.kind(a) is ordinals.OrdKind.SUCCESSOR:  # drop the finite part
        a = ordinals.pred(a)
    if not a.is_zero():
        return a
    return rng.choice(
        [ordinals.OMEGA, ordinals.omega_power(ordinals.from_int(2)),
         ordinals.add(ordinals.OMEGA, ordinals.OMEGA)]
    )


def rand_expr(rng: random.Random, size: int) -> IdealExpr:
    if size <= 1:
        return rng.choice(
            [ideals.Fin(), ideals.Pow(),
             ideals.P(rand_ordinal_small(rng)), ideals.Q(rand_ordinal_small(rng))]
        )
    roll = rng.random()
    if roll < 0.25:
        return ideals.Perp(rand_expr(rng, size - 1))
    if roll < 0.45:
        return ideals.OmegaSum(rand_expr(rng, size - 1))
    if roll < 0.55:
        return ideals.LimSum(rand_limit(rng))
    if roll < 0.8:
        n = rng.randrange(2, 4)
        share = max(1, (size - 1) // n)
        return ideals.Sum(tuple(rand_expr(rng, share) for _ in range(n)))
    n = rng.randrange(1, 3)
    share = max(1, (size - 1) // (n + 1))
    tail = ideals.OmegaSum(rand_expr(rng, share))
    return ideals.MixSum(tuple(rand_expr(rng, share) for _ in range(n)), tail)


def rand_schema(rng: random.Random, size: int, allow_full: bool = True) -> TreeSchema:
    atoms: list[TreeSchema] = [trees.CHAIN, trees.EPS, trees.EMPTY,
                               trees.Fan((), trees.Const(trees.EPS))]
    if allow_full:
        atoms.append(trees.FULL)
    if size <= 1:
        return rng.choice(atoms)
    roll = rng.random()
    n_heads = rng.randrange(0, 3)
    share = max(1, (size - 1) // (n_heads + 1))
    heads = tuple(rand_schema(rng, share, allow_full) for _ in range(n_heads))
    if roll < 0.12:
        lam = rand_limit(rng)
        seq = trees.QDiag(lam) if rng.random() < 0.5 else trees.PDiag(lam)
        return rng.choice([trees.Fan, trees.Spine])(heads, seq)
    tail: trees.SchemaSeq = (
        trees.CONST_EMPTY
        if rng.random() < 0.3
        else trees.Const(rand_schema(rng, share, allow_full))
    )
    return rng.choice([trees.Fan, trees.Spine])(heads, tail)


def rand_infinite_schema(rng: random.Random, size: int) -> TreeSchema:
    for _ in range(64):
        t = rand_schema(rng, size)
        if not trees.is_finite(t):
            return t
    return trees.compile_ideal(rand_expr(rng, min(size, 4)))


def prune_schema(rng: random.Random, t: TreeSchema) -> TreeSchema:
    """Random sub-schema that the containment check certifies."""
    match t:
        case trees.Empty() | trees.Eps():
            return t
        case trees.Chain():
            return t if rng.random() < 0.8 else trees.EMPTY
        case trees.Full():
            return rng.choice([trees.FULL, trees.CHAIN, trees.Fan((), trees.Const(trees.EPS))])
        case trees.Rooted(child):
            return trees.Rooted(prune_schema(rng, child))
        case trees.Fan(heads, tail) | trees.Spine(heads, tail):
            new_heads = tuple(
                trees.EMPTY if rng.random() < 0.25 else prune_schema(rng, h) for h in heads
            )
            if isinstance(tail, trees.Const) and rng.random() < 0.7:
                new_tail: trees.SchemaSeq = trees.Const(prune_schema(rng, tail.block))
            else:
                new_tail = tail
            return type(t)(new_heads, new_tail)
    raise TypeError(f"not a schema: {t!r}")


def rand_query(rng: random.Random, target: TreeSchema) -> QueryTerm:
    roll = rng.random()
    if roll < 0.45:
        return prune_schema(rng, target)
    if roll < 0.65:
        elems = enumerate_schema(target, Budget(4, 4, 12))
        if elems:
            k = rng.randrange(1, len(elems) + 1)
            return FinSet(tuple(sorted(rng.sample(elems, k))))
        return prune_schema(rng, target)
    if roll < 0.8 and isinstance(target, trees.Fan):
        return Transversal(target)
    return Union(prune_schema(rng, target), prune_schema(rng, target))


def _rand_order(rng: random.Random, size: int, dense: bool = False) -> orders.LinTerm:
    if size <= 1:
        if dense and rng.random() < 0.3:
            return orders.RATQ
        return orders.NAT
    roll = rng.random()
    if roll < 0.3:
        return orders.Rev(_rand_order(rng, size - 1, dense))
    if roll < 0.65:
        n = rng.randrange(2, 4)
        share = max(1, (size - 1) // n)
        return orders.Cat(tuple(_rand_order(rng, share, dense) for _ in range(n)))
    n = rng.randrange(0, 3)
    share = max(1, (size - 1) // (n + 1))
    return orders.OmegaCat(
        tuple(_rand_order(rng, share, dense) for _ in range(n)),
        _rand_order(rng, share, dense),
    )


# --------------------------------------------------------------------------
# the draws: each takes a trial's randomness and returns the check's args


def _draw(gen, *args, times: int = 1):
    """The draw of ``times`` instances of ``gen(rng, *args)``, in order."""
    return lambda rng: tuple(gen(rng, *args) for _ in range(times))


def _ordinal_pair(rng: random.Random) -> tuple:
    b = rand_ordinal_small(rng)
    return ordinals.add(b, rand_ordinal_small(rng)), b  # a >= b


def _budget_pair(rng: random.Random) -> tuple:
    t = rand_infinite_schema(rng, 6)
    base = Budget(rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(5, 40))
    grown = Budget(
        base.depth + rng.randrange(0, 3),
        base.width + rng.randrange(0, 3),
        base.count + rng.randrange(0, 40),
    )
    return t, base, grown


def _query_in(pick):
    """The draw of an expression, its schema and the query ``pick`` takes in that."""
    def draw(rng: random.Random) -> tuple:
        e = rand_expr(rng, 6)
        target = trees.compile_ideal(e)
        return e, target, pick(rng, target)
    return draw


# --------------------------------------------------------------------------
# the checks: each reads its drawn args alone


def _total_order(a: Ordinal, b: Ordinal, c: Ordinal) -> bool:
    cmp = ordinals.compare
    return (cmp(a, b) == -cmp(b, a) and not (cmp(a, b) <= 0 and cmp(b, c) <= 0 and cmp(a, c) > 0)
            and (cmp(a, b) == 0) == (a == b))


def _add_identities(a: Ordinal, b: Ordinal, c: Ordinal) -> bool:
    add, z, one = ordinals.add, ordinals.ZERO, ordinals.ONE
    return (add(add(a, b), c) == add(a, add(b, c)) and add(a, z) == a == add(z, a)
            and (b is z or add(a, b) > a) and (b < ordinals.OMEGA or add(add(a, one), b) == add(a, b)))


def _fundseq_monotone(a: Ordinal, idx: list) -> bool:
    values = [ordinals.fund_seq(a, n) for n in idx]
    return (all(ordinals.compare(v, w) < 0 for v, w in zip(values, values[1:]))
            and all(ordinals.compare(v, a) < 0 for v in values))


def _idempotence(a: Ordinal, b: Ordinal) -> bool:
    P, Q, Sum = ideals.P, ideals.Q, ideals.Sum
    checks = [(Sum((P(a), P(b))), Kind.P), (Sum((Q(a), Q(b))), Kind.Q)]
    if a != b:
        checks += [(Sum((P(a), Q(b))), Kind.P), (Sum((Q(a), P(b))), Kind.Q)]
    return all(ideals.normalize(expr) == CanonicalForm(kind, a) for expr, kind in checks)


def _perp_sum(e1: IdealExpr, e2: IdealExpr) -> bool:
    lhs = ideals.normalize(ideals.Perp(ideals.Sum((e1, e2))))
    return lhs == ideals.normalize(ideals.Sum((ideals.Perp(e1), ideals.Perp(e2))))


def _combine(c1: CanonicalForm, c2: CanonicalForm, c3: CanonicalForm) -> bool:
    comb = ideals.combine
    return (comb(c1, c2) == comb(c2, c1) and comb(comb(c1, c2), c3) == comb(c1, comb(c2, c3))
            and comb(c1, c1) == c1)


def _omega_regroup(e: IdealExpr) -> bool:
    lhs = ideals.normalize(ideals.OmegaSum(ideals.OmegaSum(e)))
    return lhs == ideals.normalize(ideals.OmegaSum(e))


def _round_trip(e: IdealExpr) -> bool:
    want = ideals.normalize(e)
    got = classify(trees.compile_ideal(e))
    return isinstance(got, Borel) and got.form == want


def _two_path(t: TreeSchema) -> bool:
    left, right = classify(t), classify_via_derivative(t)
    if not isinstance(left, Borel) or not isinstance(right, Borel):
        return isinstance(left, Borel) == isinstance(right, Borel)
    scaffold = scaffold_class(t)
    want = ideals.combine(left.form, scaffold) if isinstance(scaffold, CanonicalForm) else left.form
    return right.form == want


def _trichotomy(t: TreeSchema) -> bool:
    core_empty = rank.tree_rank(t)[1]
    if core_empty != isinstance(classify(t), Borel):
        return False
    via = classify_via_derivative(t)
    return not isinstance(via, NonBorel) or check_witness(via.witness, None, WITNESS_BUDGET)


def _domination_budget(t: TreeSchema):
    dominated, wf = trees.in_id(t), trees.in_wf(t)
    if not dominated and not wf:
        return VACUOUS  # no claim to check against the elements
    elems = enumerate_schema(t, Budget(6, 6, 80))
    if dominated:
        branch = membership.id_witness(t)
        if not isinstance(branch, DominatingBranch) or not all(map(branch.dominates, elems)):
            return False
    if not wf:
        return True
    bound = trees.depth_bound(t)
    return bound is not None and all(len(u) <= bound for u in elems)


def _rank_agreement(t: TreeSchema):
    try:
        got = explicit_derivative(t, Budget(6, 6, 64))
    except QuotientOverflow:
        return VACUOUS  # quotient too large at this budget
    return got == rank.tree_rank(t)


def _never_both(e: IdealExpr, target: TreeSchema, q: QueryTerm):
    if not membership.q_is_infinite(q) or membership.subset_of(q, target) is not Ternary.YES:
        return VACUOUS
    return not (membership.member_of(q, e) and membership.member_perp(q, e))


def _orthogonality(q: TreeSchema, r: TreeSchema):
    if not membership.q_in_id(q) or not membership.q_in_wf(r):
        return VACUOUS
    budgets = [Budget(depth, 6, 400) for depth in (3, 5, 7)]
    sizes = [len(set(enumerate_schema(q, b)) & set(enumerate_schema(r, b))) for b in budgets]
    return sizes[0] <= sizes[1] <= sizes[2] <= 40


def _frechet(e: IdealExpr, target: TreeSchema, q: TreeSchema):
    if membership.subset_of(q, target) is not Ternary.YES or membership.q_in_wf(q):
        return VACUOUS  # not a positive query
    return check_witness(membership.frechet_witness(q, e), q, Budget(8, 8, 100))


def _wo_duality(t: orders.LinTerm) -> bool:
    left = orders.wo_classify(orders.reverse_term(t))
    return left.form == ideals.perp(orders.wo_classify(t).form)


def _wo_sum(t1: orders.LinTerm, t2: orders.LinTerm) -> bool:
    whole = orders.wo_classify(orders.Cat((t1, t2)))
    a, b = orders.wo_classify(t1), orders.wo_classify(t2)
    return whole.form == ideals.combine(a.form, b.form)


def _rationalize(t: orders.LinTerm) -> bool:
    positions = list(itertools.islice(orders.enumerate_positions(t), 20))
    values = [orders.embed_position(t, p) for p in positions]
    # rank the images once, equal images sharing a rank, and compare ranks
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for a, b in zip(order, order[1:]):
        ranks[b] = ranks[a] + (values[b] != values[a])
    return all(orders.pos_cmp(t, p, q) == (ranks[i] > ranks[j]) - (ranks[i] < ranks[j])
               for (i, p), (j, q) in itertools.combinations(enumerate(positions), 2))


def _dense(t: orders.LinTerm):
    if orders.scattered_check(t):
        return VACUOUS
    out = orders.wo_classify(t)
    if not isinstance(out, orders.NonScattered):
        return False
    samples = [Fraction(k, 7) for k in range(-10, 11)]
    images = [out.embedding.map(q) for q in samples]
    if sorted(images) != images or len(set(images)) != len(images):
        return False
    for a, b in zip(samples, samples[1:]):
        mid = out.embedding.map((a + b) / 2)
        if not out.embedding.map(a) < mid < out.embedding.map(b):
            return False
    return True


# name, draw and check of each law, in report order
LAWS = (
    ("ordinal-total-order", _draw(rand_ordinal, times=3), _total_order),
    ("ordinal-add-identities", _draw(rand_ordinal, times=3), _add_identities),
    ("fundseq-monotone", lambda rng: (rand_limit(rng), sorted(rng.sample(range(64), 4))),
     _fundseq_monotone),
    ("idempotence", _ordinal_pair, _idempotence),
    ("double-perp", _draw(rand_expr, 12),
     lambda e: ideals.normalize(ideals.Perp(ideals.Perp(e))) == ideals.normalize(e)),
    ("perp-sum-distribution", _draw(rand_expr, 5, times=2), _perp_sum),
    ("combine-laws", _draw(lambda rng: CanonicalForm(rng.choice(list(Kind)), rand_ordinal_small(rng)),
                           times=3), _combine),
    ("omega-regroup", _draw(rand_expr, 6), _omega_regroup),
    ("compile-round-trip", _draw(rand_expr, 10), _round_trip),
    ("two-path-agreement", _draw(rand_infinite_schema, 8), _two_path),
    ("derivative-trichotomy", _draw(rand_infinite_schema, 8), _trichotomy),
    ("domination-budget", _draw(rand_infinite_schema, 7), _domination_budget),
    ("rank-oracle-agreement", _draw(rand_schema, 6), _rank_agreement),
    ("enumeration-monotone", _budget_pair,
     lambda t, base, grown: set(enumerate_schema(t, base)) <= set(enumerate_schema(t, grown))),
    ("membership-never-both", _query_in(rand_query), _never_both),
    ("orthogonality-stabilizes", _draw(rand_infinite_schema, 6, times=2), _orthogonality),
    ("frechet-witness-sound", _query_in(prune_schema), _frechet),
    ("id-witness-checks", _draw(rand_infinite_schema, 7),
     lambda t: check_witness(membership.id_witness(t), t, WITNESS_BUDGET)),
    ("wo-duality", _draw(_rand_order, 7), _wo_duality),
    ("wo-sum-law", _draw(_rand_order, 5, times=2), _wo_sum),
    ("rationalize-order-faithful", _draw(_rand_order, 6), _rationalize),
    ("dense-embedding", _draw(_rand_order, 6, True), _dense),
)

"""The seeded generators and the laws that ``oracle.law_suite`` replays.

Each law draws its instances from the ``random.Random`` it is given and
returns None when it holds, else its counterexample.  The suite imports
this module on its first call, so the checker kernel in ``oracle``
compiles none of it, nor the ``orders``, ``rank`` and ``classification``
that only the laws use.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

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
    terms = tuple((e, c) for e, c in a.terms if not e.is_zero())
    if terms:
        return Ordinal(terms)
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


# --------------------------------------------------------------------------
# the laws


def _law_ord_order(rng: random.Random) -> Optional[str]:
    a, b, c = (rand_ordinal(rng) for _ in range(3))
    if ordinals.compare(a, b) != -ordinals.compare(b, a):
        return f"antisymmetry: {a}, {b}"
    if ordinals.compare(a, b) <= 0 and ordinals.compare(b, c) <= 0:
        if ordinals.compare(a, c) > 0:
            return f"transitivity: {a}, {b}, {c}"
    if (ordinals.compare(a, b) == 0) != (a == b):
        return f"equality mismatch: {a}, {b}"
    return None


def _law_ord_add(rng: random.Random) -> Optional[str]:
    a, b, c = (rand_ordinal(rng) for _ in range(3))
    z = ordinals.ZERO
    if ordinals.add(ordinals.add(a, b), c) != ordinals.add(a, ordinals.add(b, c)):
        return f"associativity: {a}, {b}, {c}"
    if ordinals.add(a, z) != a or ordinals.add(z, a) != a:
        return f"identity: {a}"
    return None


def _law_sequence_monotone(rng: random.Random) -> Optional[str]:
    a = rand_limit(rng)
    idx = sorted(rng.sample(range(64), 4))
    values = [ordinals.fund_seq(a, n) for n in idx]
    for v, w in zip(values, values[1:]):
        if ordinals.compare(v, w) >= 0:
            return f"not increasing at {a}: {v} !< {w}"
    if any(ordinals.compare(v, a) >= 0 for v in values):
        return f"value reaches {a}"
    return None


def _law_idempotence(rng: random.Random) -> Optional[str]:
    b = rand_ordinal_small(rng)
    a = ordinals.add(b, rand_ordinal_small(rng))  # a >= b
    P, Q, Sum = ideals.P, ideals.Q, ideals.Sum
    checks = [
        (Sum((P(a), P(b))), CanonicalForm(Kind.P, a)),
        (Sum((Q(a), Q(b))), CanonicalForm(Kind.Q, a)),
    ]
    if a != b:
        checks.append((Sum((P(a), Q(b))), CanonicalForm(Kind.P, a)))
        checks.append((Sum((Q(a), P(b))), CanonicalForm(Kind.Q, a)))
    for expr, want in checks:
        if ideals.normalize(expr) != want:
            return f"{expr} -> {ideals.normalize(expr)} != {want}"
    return None


def _law_double_perp(rng: random.Random) -> Optional[str]:
    e = rand_expr(rng, 12)
    if ideals.normalize(ideals.Perp(ideals.Perp(e))) != ideals.normalize(e):
        return str(e)
    return None


def _law_perp_sum(rng: random.Random) -> Optional[str]:
    e1, e2 = rand_expr(rng, 5), rand_expr(rng, 5)
    lhs = ideals.normalize(ideals.Perp(ideals.Sum((e1, e2))))
    rhs = ideals.normalize(ideals.Sum((ideals.Perp(e1), ideals.Perp(e2))))
    if lhs != rhs:
        return f"{e1}; {e2}"
    return None


def _law_combine(rng: random.Random) -> Optional[str]:
    forms = [
        CanonicalForm(rng.choice(list(Kind)), rand_ordinal_small(rng)) for _ in range(3)
    ]
    c1, c2, c3 = forms
    if ideals.combine(c1, c2) != ideals.combine(c2, c1):
        return f"commutativity: {c1}, {c2}"
    if ideals.combine(ideals.combine(c1, c2), c3) != ideals.combine(c1, ideals.combine(c2, c3)):
        return f"associativity: {c1}, {c2}, {c3}"
    if ideals.combine(c1, c1) != c1:
        return f"absorption: {c1}"
    return None


def _law_omega_regroup(rng: random.Random) -> Optional[str]:
    e = rand_expr(rng, 6)
    lhs = ideals.normalize(ideals.OmegaSum(ideals.OmegaSum(e)))
    rhs = ideals.normalize(ideals.OmegaSum(e))
    if lhs != rhs:
        return str(e)
    return None


def _law_round_trip(rng: random.Random) -> Optional[str]:
    e = rand_expr(rng, 10)
    want = ideals.normalize(e)
    got = classify(trees.compile_ideal(e))
    if not isinstance(got, Borel) or got.form != want:
        return f"{e}: {got} != Borel({want})"
    return None


def _law_two_path(rng: random.Random) -> Optional[str]:
    t = rand_infinite_schema(rng, 8)
    left = classify(t)
    right = classify_via_derivative(t)
    if isinstance(left, Borel) != isinstance(right, Borel):
        return f"verdict split on {t}"
    if isinstance(left, Borel):
        scaffold = scaffold_class(t)
        expected = left.form
        if isinstance(scaffold, CanonicalForm):
            expected = ideals.combine(expected, scaffold)
        if right.form != expected:
            return f"{t}: {right.form} != {left.form} + scaffold {scaffold}"
    return None


def _law_trichotomy(rng: random.Random) -> Optional[str]:
    t = rand_infinite_schema(rng, 8)
    _, core_empty = rank.tree_rank(t)
    borel = isinstance(classify(t), Borel)
    if core_empty != borel:
        return f"{t}: core_empty={core_empty}, borel={borel}"
    via = classify_via_derivative(t)
    if isinstance(via, NonBorel):
        if not check_witness(via.witness, None, WITNESS_BUDGET):
            return f"embedding witness fails on {t}"
    return None


def _law_domination_budget(rng: random.Random) -> Optional[str]:
    t = rand_infinite_schema(rng, 7)
    if not trees.in_id(t) and not trees.in_wf(t):
        return None  # no claim to check against the elements
    elems = enumerate_schema(t, Budget(6, 6, 80))
    if trees.in_id(t):
        branch = membership.id_witness(t)
        if not isinstance(branch, DominatingBranch):
            return f"no branch for dominated {t}"
        if not all(branch.dominates(u) for u in elems):
            return f"branch fails on {t}"
    if trees.in_wf(t):
        bound = trees.depth_bound(t)
        if bound is None:
            return f"well-founded schema without depth bound: {t}"
        if any(len(u) > bound for u in elems):
            return f"element beyond depth bound in {t}"
    return None


def _law_rank_agreement(rng: random.Random) -> Optional[str]:
    t = rand_schema(rng, 6)
    try:
        got = explicit_derivative(t, Budget(6, 6, 64))
    except QuotientOverflow:
        return None  # quotient too large at this budget: vacuous
    want = rank.tree_rank(t)
    if got != want:
        return f"{t}: oracle {got[0]},{got[1]} != rank {want[0]},{want[1]}"
    return None


def _law_enum_monotone(rng: random.Random) -> Optional[str]:
    t = rand_infinite_schema(rng, 6)
    base = Budget(rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(5, 40))
    grown = Budget(
        base.depth + rng.randrange(0, 3),
        base.width + rng.randrange(0, 3),
        base.count + rng.randrange(0, 40),
    )
    small = set(enumerate_schema(t, base))
    large = set(enumerate_schema(t, grown))
    if not small <= large:
        return f"{t}: budget {base} not below {grown}"
    return None


def _law_never_both(rng: random.Random) -> Optional[str]:
    e = rand_expr(rng, 6)
    target = trees.compile_ideal(e)
    q = rand_query(rng, target)
    if not membership.q_is_infinite(q):
        return None
    if membership.subset_of(q, target) is not Ternary.YES:
        return None
    if membership.member_of(q, e) and membership.member_perp(q, e):
        return f"{q} in both {e} and its orthogonal"
    return None


def _law_orthogonality(rng: random.Random) -> Optional[str]:
    q = rand_infinite_schema(rng, 6)
    r = rand_infinite_schema(rng, 6)
    if not membership.q_in_id(q) or not membership.q_in_wf(r):
        return None
    sizes = []
    for depth in (3, 5, 7):
        b = Budget(depth, 6, 400)
        qs = set(enumerate_schema(q, b))
        rs = set(enumerate_schema(r, b))
        sizes.append(len(qs & rs))
    if not (sizes[0] <= sizes[1] <= sizes[2]):
        return f"intersection not monotone for {q}"
    if sizes[2] > 40:
        return f"suspiciously large intersection for {q} vs {r}"
    return None


def _law_frechet(rng: random.Random) -> Optional[str]:
    e = rand_expr(rng, 6)
    target = trees.compile_ideal(e)
    q = prune_schema(rng, target)
    if membership.subset_of(q, target) is not Ternary.YES:
        return None
    if membership.q_in_wf(q):
        return None  # not a positive query
    w = membership.frechet_witness(q, e)
    if not check_witness(w, q, Budget(8, 8, 100)):
        return f"witness {w} fails for {q} in {e}"
    return None


def _law_id_witness(rng: random.Random) -> Optional[str]:
    t = rand_infinite_schema(rng, 7)
    if not check_witness(membership.id_witness(t), t, WITNESS_BUDGET):
        return f"id witness fails on {t}"
    return None


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


def _law_wo_duality(rng: random.Random) -> Optional[str]:
    t = _rand_order(rng, 7)
    left = orders.wo_classify(orders.reverse_term(t))
    right = orders.wo_classify(t)
    assert isinstance(left, orders.Scattered) and isinstance(right, orders.Scattered)
    if left.form != ideals.perp(right.form):
        return f"{t}: rev -> {left.form} != perp {right.form}"
    return None


def _law_wo_sum(rng: random.Random) -> Optional[str]:
    t1, t2 = _rand_order(rng, 5), _rand_order(rng, 5)
    whole = orders.wo_classify(orders.Cat((t1, t2)))
    a, b = orders.wo_classify(t1), orders.wo_classify(t2)
    assert isinstance(whole, orders.Scattered)
    if whole.form != ideals.combine(a.form, b.form):
        return f"{t1} + {t2}"
    return None


def _law_rationalize(rng: random.Random) -> Optional[str]:
    t = _rand_order(rng, 6)
    positions = list(itertools.islice(orders.enumerate_positions(t), 20))
    values = [orders.embed_position(t, p) for p in positions]
    # rank the images once, equal images sharing a rank, and compare ranks
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for a, b in zip(order, order[1:]):
        ranks[b] = ranks[a] + (values[b] != values[a])
    for (i, p), (j, q) in itertools.combinations(enumerate(positions), 2):
        want = orders.pos_cmp(t, p, q)
        if want != (ranks[i] > ranks[j]) - (ranks[i] < ranks[j]):
            return f"{t}: positions {p} vs {q}"
    return None


def _law_dense(rng: random.Random) -> Optional[str]:
    t = _rand_order(rng, 6, dense=True)
    if orders.scattered_check(t):
        return None
    out = orders.wo_classify(t)
    if not isinstance(out, orders.NonScattered):
        return f"{t} not flagged dense"
    samples = [Fraction(k, 7) for k in range(-10, 11)]
    images = [out.embedding.map(q) for q in samples]
    if sorted(images) != images or len(set(images)) != len(images):
        return f"embedding not order-faithful on {t}"
    for a, b in zip(samples, samples[1:]):
        mid = out.embedding.map((a + b) / 2)
        lo, hi = out.embedding.map(a), out.embedding.map(b)
        if not (lo < mid < hi):
            return f"no image between {lo} and {hi}"
    return None


# name and law, in report order
LAWS = (
    ("ordinal-total-order", _law_ord_order),
    ("ordinal-add-identities", _law_ord_add),
    ("fundseq-monotone", _law_sequence_monotone),
    ("idempotence", _law_idempotence),
    ("double-perp", _law_double_perp),
    ("perp-sum-distribution", _law_perp_sum),
    ("combine-laws", _law_combine),
    ("omega-regroup", _law_omega_regroup),
    ("compile-round-trip", _law_round_trip),
    ("two-path-agreement", _law_two_path),
    ("derivative-trichotomy", _law_trichotomy),
    ("domination-budget", _law_domination_budget),
    ("rank-oracle-agreement", _law_rank_agreement),
    ("enumeration-monotone", _law_enum_monotone),
    ("membership-never-both", _law_never_both),
    ("orthogonality-stabilizes", _law_orthogonality),
    ("frechet-witness-sound", _law_frechet),
    ("id-witness-checks", _law_id_witness),
    ("wo-duality", _law_wo_duality),
    ("wo-sum-law", _law_wo_sum),
    ("rationalize-order-faithful", _law_rationalize),
    ("dense-embedding", _law_dense),
)

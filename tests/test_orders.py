"""Scattered orders: classification, duality, rational embeddings."""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from fractions import Fraction

import pytest

from idealforms import ideals, laws, orders
from idealforms.ideals import CanonicalForm, Kind
from idealforms.orders import Cat, NonScattered, OmegaCat, Rev, Scattered
from idealforms.text import parse_order, parse_ordinal


t = parse_order


def form(kind: str, rank_text: str) -> CanonicalForm:
    return CanonicalForm(Kind[kind], parse_ordinal(rank_text))


def test_classify_examples():
    assert orders.wo_classify(t("N")) == Scattered(form("P", "0"))
    assert orders.wo_classify(t("rev(N)")) == Scattered(form("Q", "0"))
    assert orders.wo_classify(t("osum([];rev(N))")) == Scattered(form("P", "1"))
    assert orders.wo_classify(t("cat(N,rev(N))")) == Scattered(form("PQ", "0"))
    out = orders.wo_classify(t("QQ"))
    assert isinstance(out, NonScattered) and str(out) == "NonScattered(dense-order embedding)"


def test_scattered_check():
    assert orders.scattered_check(t("rev(osum([];N))"))
    assert not orders.scattered_check(t("cat(N,QQ)"))
    assert orders.scattered_check(t("N"))


def test_reverse_examples():
    rev, out = orders.wo_self_dual(t("N"))
    assert rev == t("rev(N)") and out == Scattered(form("Q", "0"))
    rev, out = orders.wo_self_dual(t("osum([];rev(N))"))
    assert rev == Rev(OmegaCat((), Rev(orders.NAT)))
    assert out == Scattered(form("Q", "1"))
    rev, out = orders.wo_self_dual(t("QQ"))
    assert rev == t("QQ") and isinstance(out, NonScattered)


@pytest.mark.parametrize("source, reversal", [
    ("osum([];N)", lambda t: t),  # a scattered class that is not its own orthogonal
    ("QQ", lambda t: orders.NAT),  # a dense order reversed to a scattered one
])
def test_self_duality_raises_on_a_broken_reversal(monkeypatch, source, reversal):
    # a reversal that breaks duality is an engine bug, reported even under python -O
    monkeypatch.setattr(orders, "reverse_term", reversal)
    with pytest.raises(AssertionError):
        orders.wo_self_dual(t(source))


def test_rationalize_examples():
    assert orders.rationalize(t("N"), 3) == [0, 1, 2]
    decreasing = orders.rationalize(t("rev(N)"), 3)
    assert decreasing[0] > decreasing[1] > decreasing[2]
    vals = orders.rationalize(t("cat(N,rev(N))"), 4)
    a0, b0, a1, b1 = vals
    assert a0 < a1 < b1 < b0  # two increasing strictly below two decreasing


def test_rationalize_prefix_stable():
    term = t("osum([rev(N)];cat(N,N))")
    assert orders.rationalize(term, 6) == orders.rationalize(term, 12)[:6]


def test_duality_sampled():
    from idealforms.laws import _rand_order

    rng = random.Random(31)

    for _ in range(200):
        term = _rand_order(rng, 7)
        left = orders.wo_classify(orders.reverse_term(term))
        right = orders.wo_classify(term)
        assert isinstance(left, Scattered) and isinstance(right, Scattered)
        assert left.form == ideals.perp(right.form), str(term)


def test_sum_law_sampled():
    from idealforms.laws import _rand_order

    rng = random.Random(32)
    for _ in range(150):
        t1, t2 = _rand_order(rng, 5), _rand_order(rng, 5)
        whole = orders.wo_classify(Cat((t1, t2)))
        assert isinstance(whole, Scattered)
        assert whole.form == ideals.combine(
            orders.wo_classify(t1).form, orders.wo_classify(t2).form
        )


def test_order_faithful_sampled():
    from idealforms.laws import _rand_order

    rng = random.Random(33)
    # dense draws may hold QQ, so they also compare positions inside the rationals
    for term in [_rand_order(rng, 6, dense) for dense in (False, True) for _ in range(60)]:
        positions = list(itertools.islice(orders.enumerate_positions(term), 14))
        values = [orders.embed_position(term, p) for p in positions]
        for (i, p), (j, q) in itertools.combinations(enumerate(positions), 2):
            want = orders.pos_cmp(term, p, q)
            got = (values[i] > values[j]) - (values[i] < values[j])
            assert want == got, f"{term}: {p} vs {q}"


def test_rational_positions_compare_in_order():
    # a path sits between its left (0) and right (1) subtrees; equal paths tie
    rat = orders.RATQ
    assert orders.pos_cmp(rat, (0, 1), (0, 1)) == 0
    assert orders.pos_cmp(rat, (0, 1), (0,)) == 1 and orders.pos_cmp(rat, (0, 0), (0,)) == -1
    assert orders.pos_cmp(rat, (0,), (0, 1)) == -1 and orders.pos_cmp(rat, (0,), (0, 0)) == 1
    paths = [p for n in range(4) for p in itertools.product((0, 1), repeat=n)]
    for p, q in itertools.product(paths, repeat=2):
        a, b = orders.embed_position(rat, p), orders.embed_position(rat, q)
        assert orders.pos_cmp(rat, p, q) == (a > b) - (a < b), (p, q)


def test_dense_embedding_between():
    for src in ("QQ", "cat(N,QQ)", "rev(cat(N,QQ,N))", "osum([QQ];N)"):
        out = orders.wo_classify(t(src))
        assert isinstance(out, NonScattered), src
        emb = out.embedding
        samples = [Fraction(k, 5) for k in range(-12, 13)]
        images = [emb.map(q) for q in samples]
        assert images == sorted(images) and len(set(images)) == len(images)
        # order density within budget: a third image between any two
        for a, b in zip(samples, samples[1:]):
            assert emb.map(a) < emb.map((a + b) / 2) < emb.map(b)


def test_embedding_lands_inside_the_copy():
    # images must interleave correctly with the scattered part
    term = t("cat(N,QQ)")
    out = orders.wo_classify(term)
    assert isinstance(out, NonScattered)
    nat_values = [
        orders.embed_position(term, (0, (k,))) for k in range(5)
    ]
    q_images = [out.embedding.map(Fraction(k)) for k in (-3, 0, 3)]
    assert max(nat_values) < min(q_images)  # the dense part sits above the (0,...) block


# sha256 of "<term>:<path>:<interval>:<flips>" over the non-scattered terms
# among seeded dense orders; recorded before the first dense atom was found
# in one walk
DENSE_DIGEST = "995d2c6cd10e29cc93f513820cc13dc959f19a259d1f9a020fb758028cd6ce98"


def test_dense_occurrences_pinned():
    rng = random.Random(14)
    h = hashlib.sha256()
    seen = 0
    for _ in range(1500):
        term = laws._rand_order(rng, 8, dense=True)
        out = orders.wo_classify(term)
        if isinstance(out, NonScattered):
            emb = out.embedding
            h.update(f"{term}:{emb.path}:{emb.interval}:{emb.flips}\n".encode())
            seen += 1
    assert seen > 500
    assert h.hexdigest() == DENSE_DIGEST


# sha256 of "<term>:<positions>:<images>:<comparisons>" over seeded orders,
# with and without the dense atom: the first 24 positions, their images and
# pos_cmp of every pair of the first 12; recorded while each of the three
# still walked the term with its own dispatch
WALK_DIGEST = "b330120485f8c95321eef644741ce5136054da4fc44cc8ae4772f239c574c70e"


def test_walk_outputs_pinned():
    rng = random.Random(41)
    h = hashlib.sha256()
    for dense in (False, True):
        for _ in range(200):
            term = laws._rand_order(rng, 8, dense)
            positions = list(itertools.islice(orders.enumerate_positions(term), 24))
            cmps = [orders.pos_cmp(term, p, q) for p in positions[:12] for q in positions[:12]]
            h.update(f"{term}:{positions}:{orders.rationalize(term, 24)}:{cmps}\n".encode())
    assert h.hexdigest() == WALK_DIGEST


def _nest(build, leaf, depth):
    for _ in range(depth):
        leaf = build(leaf)
    return leaf


def test_order_walks_past_the_recursion_limit():
    depth = 5000
    assert sys.getrecursionlimit() < depth
    # an even nest of reversals is N itself
    assert orders.rationalize(_nest(Rev, orders.NAT, depth), 50) == list(range(50))
    out = orders.wo_classify(_nest(lambda x: Cat((orders.NAT, x)), orders.RATQ, depth))
    assert isinstance(out, NonScattered) and out.embedding.path == (("cat", 1),) * depth
    # every element of an omega-sum nest sits at its bottom, one block per level
    term = _nest(lambda x: OmegaCat((), x), orders.NAT, depth)
    positions = list(itertools.islice(orders.enumerate_positions(term), 8))
    for p in positions:
        for _ in range(depth):
            p = p[1]
        assert len(p) == 1
    # positions nest deeper than the limit, so they are told apart by index
    for (i, p), (j, q) in itertools.product(enumerate(positions), repeat=2):
        c = orders.pos_cmp(term, p, q)
        assert c == -orders.pos_cmp(term, q, p) and (c == 0) == (i == j)


def test_dense_occurrence_classifies_each_part_once(monkeypatch):
    # finding the first dense atom walks the term once; checking each
    # level for scatteredness made the classifier run quadratically often.
    # Counted: applications of the order algebra's node rule, one per part
    # that no fold has classified yet
    calls = []
    real = orders._WO.node

    def counting(term, forms):
        calls.append(term)
        return real(term, forms)

    monkeypatch.setattr(orders._WO, "node", counting)
    counts = []
    for depth in (50, 100, 200, 400):
        term = t("cat(N," * depth + "QQ" + ")" * depth)
        calls.clear()
        assert isinstance(orders.wo_classify(term), NonScattered)
        counts.append(len(calls))
        assert len(set(calls)) == len(calls) <= depth + 2
        del term  # so that the next term shares no classified part
        calls.clear()
    assert all(b <= 2 * a + 2 for a, b in zip(counts, counts[1:])), counts


def _midpoint_cut(interval, k, last=False):
    """The cut as k steps of the midpoint rule: the reference for the
    closed form."""

    def point(lo, hi):
        if lo is None and hi is None:
            return Fraction(0)
        if lo is None:
            return hi - 1
        if hi is None:
            return lo + 1
        return (lo + hi) / 2

    lo, hi = interval
    cur = lo
    for _ in range(k):
        cur = point(cur, hi)
    return (cur, hi if last else point(cur, hi))


def test_closed_form_cut_matches_the_midpoint_steps():
    ends = [(None, None), (Fraction(-3, 7), None), (None, Fraction(5, 3)),
            (Fraction(-2, 9), Fraction(11, 4)), (Fraction(0), Fraction(1))]
    for interval in ends:
        for k in range(65):
            for last in (False, True):
                got, want = orders._cut(interval, k, last), _midpoint_cut(interval, k, last)
                assert got == want, (interval, k, last)
                assert [type(x) for x in got] == [type(x) for x in want]


def _fraction_map(emb, q):
    """``OrderEmbedding.map`` as Fraction arithmetic on x in (0, 1)."""
    if emb.flips:
        q = -q
    x = Fraction(1, 2) + q / (2 * (1 + abs(q)))
    lo, hi = emb.interval
    if lo is None and hi is None:
        v = (2 * x - 1) / (x * (1 - x))
    elif lo is None:
        v = hi - (1 - x) / x
    elif hi is None:
        v = lo + x / (1 - x)
    else:
        v = lo + (hi - lo) * x
    return -v if emb.flips else v


def test_integer_map_matches_the_fraction_formula():
    rng = random.Random(17)
    terms = [orders.RATQ, Rev(orders.RATQ), t("cat(N,QQ)"), t("cat(QQ,N)"), t("rev(cat(N,QQ,N))")]
    while len(terms) < 300:
        term = laws._rand_order(rng, 6, dense=True)
        if not orders.scattered_check(term):
            terms.append(term)
    shapes = set()
    for term in terms:
        emb = orders.wo_classify(term).embedding
        shapes.add((emb.interval[0] is None, emb.interval[1] is None, emb.flips))
        samples = [Fraction(rng.randrange(-60, 61), rng.randrange(1, 40)) for _ in range(12)]
        for q in samples + [Fraction(0), 0, 3]:
            got = emb.map(q)
            assert got == _fraction_map(emb, Fraction(q)) and type(got) is Fraction, (str(term), q)
    assert len(shapes) == 8, shapes  # each endpoint case, with and without a reversal

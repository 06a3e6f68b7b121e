"""Budget enumeration, the quotient derivative and witness checking."""

from __future__ import annotations

import ast
import hashlib
import json
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from idealforms import classification, laws, membership, oracle, queries, quotient, rank, trees
from idealforms.errors import FiniteSchema, NotASubset, QuotientOverflow, UnknownContainment
from idealforms.membership import Ternary
from idealforms.oracle import Budget
from idealforms.text import parse_expr, parse_query, parse_tree
from idealforms.witnesses import DominatingBranch, EmbeddingWitness, PrefixEmbedding, UnboundedFamily


t = parse_tree


def test_enumerate_examples():
    assert oracle.enumerate_schema(t("chain"), Budget(3, 6, 200)) == [
        (0,), (0, 0), (0, 0, 0)
    ]
    assert oracle.enumerate_schema(t("fan([];const(eps))"), Budget(6, 2, 200)) == [
        (0,), (1,), (2,)
    ]
    p1 = trees.compile_ideal(parse_expr("P(1)"))
    assert oracle.enumerate_schema(p1, Budget(2, 1, 200)) == [(0, 0), (1, 0)]


def test_enumerate_queries_and_budget_cap():
    q = parse_query("union(finset{<5>,<0>},transversal(fan([];const(chain))))")
    got = oracle.enumerate_schema(q, Budget(4, 5, 100))
    assert (0,) in got and (5,) in got and (0, 0) in got and (3, 0) in got
    capped = oracle.enumerate_schema(t("full"), Budget(6, 6, 10))
    assert len(capped) <= 10


def test_enumerate_monotone_sampled():
    rng = random.Random(41)
    for _ in range(80):
        schema = laws.rand_infinite_schema(rng, 6)
        base = Budget(rng.randrange(2, 5), rng.randrange(2, 5), rng.randrange(5, 50))
        grown = Budget(base.depth + 2, base.width + 1, base.count + 50)
        assert set(oracle.enumerate_schema(schema, base)) <= set(
            oracle.enumerate_schema(schema, grown)
        )


def test_explicit_derivative_examples():
    b = Budget(6, 6, 64)
    assert oracle.explicit_derivative(t("chain"), b) == (parse_ordinal_int(1), True)
    assert oracle.explicit_derivative(t("full"), b) == (parse_ordinal_int(0), False)
    assert oracle.explicit_derivative(t("fan([];const(chain))"), b) == (
        parse_ordinal_int(2),
        True,
    )


def parse_ordinal_int(n: int):
    from idealforms import ordinals

    return ordinals.from_int(n)


def test_explicit_derivative_overflow():
    with pytest.raises(QuotientOverflow):
        oracle.explicit_derivative(t("fan([];qdiag(w))"), Budget(6, 6, 16))


def test_quotient_shapes():
    q = quotient.build_quotient(t("chain"), 8)
    assert len(q) == 1 and q.edges[0] == [(0, 1)]
    q = quotient.build_quotient(t("full"), 8)
    assert len(q) == 1 and q.edges[0] == [(0, None)]
    q = quotient.build_quotient(t("fan([];const(chain))"), 8)
    assert len(q) == 2


# sha256 of "<schema>:<vertices>:<edges>:<derivative_fixpoint>" lines, or
# "<schema>:<overflow message>", over the constant-tail schemas of size
# <= 5 at cap 64 and 1 000 rand_schema draws each at caps 16 and 64;
# recorded before build_quotient became one breadth-first loop
QUOTIENT_DIGEST = "563301b50b703933b39b3e7ff0d5af0085d51b65a0bbcb30f7c89975d92f4b15"


def _quotient_line(s: trees.TreeSchema, cap: int) -> str:
    try:
        q = quotient.build_quotient(s, cap)
    except QuotientOverflow as e:
        return f"{s}:{e}"
    return f"{s}:{[str(v) for v in q.vertices]}:{q.edges}:{quotient.derivative_fixpoint(q)}"


def test_quotients_pinned():
    h = hashlib.sha256()
    for s in _constant_tail_schemas(5):
        h.update(f"{_quotient_line(s, 64)}\n".encode())
    rng = random.Random(22)
    for cap in (16, 64):
        for _ in range(1000):
            h.update(f"{_quotient_line(laws.rand_schema(rng, 6), cap)}\n".encode())
    assert h.hexdigest() == QUOTIENT_DIGEST


def _first_by_length(depth: int, width: int) -> list:
    """Every sequence of the box capped at depth and width 4, by length,
    then lexicographically: the domain an embedding check samples."""
    depth, width = min(depth, 4), min(width, 4)
    return [u for n in range(depth + 1) for u in itertools.product(range(width + 1), repeat=n)]


def test_the_embedding_check_maps_the_first_sequences_by_length_once():
    for depth, width in itertools.product(range(1, 6), repeat=2):
        every = _first_by_length(depth, width)
        for count in (1, len(every) // 2 + 1, len(every), len(every) + 5):
            seen = []
            w = _Mapped(lambda u: seen.append(u) or u)
            assert oracle.check_witness(w, None, Budget(depth, width, count))
            assert seen == every[:count], (depth, width, count)


@pytest.mark.parametrize("text", ["fan([chain];qdiag(w))", "spine([];pdiag(w^2))"])
def test_diagonal_tails_overflow_without_reading_a_block(monkeypatch, text):
    # a diagonal tail's classes never end, so the quotient overflows at
    # its vertex, before any block of the tail is built
    s, calls = t(text), []
    seq_block = trees.seq_block
    monkeypatch.setattr(trees, "seq_block", lambda tail, i: calls.append(i) or seq_block(tail, i))
    with pytest.raises(QuotientOverflow) as caught:
        quotient.build_quotient(s, 1000)
    assert str(caught.value) == f"more than 1000 representatives materializing {s}"
    assert calls == []


def test_an_overflow_message_is_bounded_however_long_the_schema():
    s = trees.compile_ideal(parse_expr("P(20000)"))
    with pytest.raises(QuotientOverflow) as caught:
        quotient.build_quotient(s, 64)
    message = str(caught.value)
    assert len(message) <= 300 and message.endswith(f"... ({len(str(s))} characters)")


def test_a_long_chain_overflows_at_a_new_vertex_and_fits_under_a_larger_cap():
    # the compiled P(n) is a chain of constant-tail classes, so the cap is
    # met when a new vertex is appended, not at a diagonal tail; and a
    # root over an empty child is the one-vertex quotient of eps
    p200 = trees.compile_ideal(parse_expr("P(200)"))
    with pytest.raises(QuotientOverflow):
        quotient.build_quotient(p200, 64)
    for n, want in ((20, 12), (60, 32), (200, 102)):
        s = trees.compile_ideal(parse_expr(f"P({n})"))
        got = oracle.explicit_derivative(s, Budget(6, 6, 512))
        assert got == rank.tree_rank(s) == (parse_ordinal_int(want), True), n
    rooted_empty = trees.Rooted(trees.EMPTY)
    assert quotient.build_quotient(rooted_empty, 8).vertices == [trees.EPS]
    got = oracle.explicit_derivative(rooted_empty, Budget(6, 6, 8))
    assert got == rank.tree_rank(rooted_empty) == (parse_ordinal_int(1), True)


def test_explicit_derivative_checks_each_cone_against_in_id(monkeypatch):
    # the first removal round must agree with in_id on every class, so a
    # predicate that lies about the one-letter cone ``chain`` is caught
    root = t("fan([];const(chain))")
    b = Budget(6, 6, 64)
    assert oracle.explicit_derivative(root, b) == (parse_ordinal_int(2), True)
    honest = trees.in_id
    monkeypatch.setattr(trees, "in_id", lambda s: honest(s) != (s is trees.CHAIN))
    with pytest.raises(AssertionError) as caught:
        oracle.explicit_derivative(root, b)
    assert str(caught.value) == "chain"


# terms left in the intern table after the explicit derivative of 3 000
# rand_schema draws and a full collection
RETAINED = """
import gc, random
from idealforms import hashcons, laws, oracle
from idealforms.errors import QuotientOverflow
b, rng = oracle.Budget(6, 6, 64), random.Random(7)
gc.collect()
baseline = len(hashcons._TABLE)
for _ in range(3000):
    try:
        oracle.explicit_derivative(laws.rand_schema(rng, 6), b)
    except QuotientOverflow:
        pass
gc.collect()
print(len(hashcons._TABLE) - baseline)
"""


def test_quotient_classes_keep_no_term_alive():
    # each vertex keeps its child classes on its term; a spine that is its
    # own zero-cone, such as spine([];const(fan([];const(eps)))), must not
    # name itself there, or it stays in the intern table after collection.
    # A fresh interpreter, since terms that earlier tests hold keep the
    # blocks and facts they memoize
    src = str(Path(trees.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", RETAINED], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_rank_agreement_sampled():
    rng = random.Random(42)
    agreements = 0
    for _ in range(200):
        schema = laws.rand_schema(rng, 6)
        try:
            got = oracle.explicit_derivative(schema, Budget(6, 6, 64))
        except QuotientOverflow:
            continue
        assert got == rank.tree_rank(schema), str(schema)
        agreements += 1
    assert agreements >= 150


def test_check_witness_branch():
    q = t("spine([];const(chain))")
    assert oracle.check_witness(DominatingBranch((), (1,)), q, oracle.WITNESS_BUDGET)
    # the zero branch misses the copy roots, whose entry is 1
    assert not oracle.check_witness(DominatingBranch((), (0,)), q, oracle.WITNESS_BUDGET)
    anti = t("fan([];const(eps))")
    assert not oracle.check_witness(DominatingBranch((), (0,)), anti, oracle.WITNESS_BUDGET)


def test_check_witness_frechet_rejects():
    # the standard copy of P(1) holds <n,0,...,0> for every n, and each
    # witness below fails one check of _check_frechet in turn
    e = parse_expr("P(1)")
    q = trees.compile_ideal(e)
    w = membership.frechet_witness(q, e)
    assert oracle.check_witness(w, q, oracle.WITNESS_BUDGET)
    rejected = [
        trees.EMPTY,
        trees.singleton((1, 0, 0)),  # finite
        q,  # infinite, but its entries are unbounded
        t("chain"),  # dominated and infinite, but <0> is not in q
    ]
    for bad in rejected:
        assert not oracle.check_witness(bad, q, oracle.WITNESS_BUDGET), str(bad)


def test_the_frechet_check_holds_each_element_to_the_entry_bound(monkeypatch):
    # the witness fan([chain];const(empty)) has entry bound 0; an element
    # grown past it fails the check although it lies in the query
    e = parse_expr("P(1)")
    q = trees.compile_ideal(e)
    w = membership.frechet_witness(q, e)
    small, grown = oracle._frechet_boxes(w, oracle.WITNESS_BUDGET)
    assert queries.q_member((1, 0, 0), q) and trees._entry_bound(w) == 0
    monkeypatch.setattr(oracle, "_frechet_boxes", lambda w, b: (small, grown + [(1, 0, 0)]))
    assert not oracle.check_witness(w, q, oracle.WITNESS_BUDGET)


def test_a_query_not_a_schema_is_no_frechet_witness_under_python_O():
    # a finite set is a query term but no orthogonal subset: the check
    # raises the TypeError of any non-witness, and python -O strips no
    # part of it
    src = str(Path(trees.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = ("from idealforms import oracle\n"
              "from idealforms.queries import FinSet\n"
              "for check in (lambda w: oracle._check_frechet(w, None, oracle.WITNESS_BUDGET),\n"
              "              lambda w: oracle.check_witness(w, None, oracle.WITNESS_BUDGET)):\n"
              "    try:\n"
              "        check(FinSet(((1,),)))\n"
              "    except TypeError as exc:\n"
              "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == "not a witness: FinSet[finset{<1>}]\n" * 2


def test_check_witness_family():
    q = t("fan([];const(eps))")
    w = membership.id_witness(q)
    assert isinstance(w, UnboundedFamily)
    assert oracle.check_witness(w, q, oracle.WITNESS_BUDGET)
    # a family whose maxima stall must be rejected
    stalled = UnboundedFamily(lambda: iter([(0,), (1,), (1,)] * 100))
    assert not oracle.check_witness(stalled, q, oracle.WITNESS_BUDGET)


def test_check_witness_embedding_rejects_collapse():
    from idealforms.witnesses import EmbeddingWitness

    class Collapse(EmbeddingWitness):
        generated = True

        def map(self, u):
            return (0,) * min(len(u), 2)

    broken = Collapse(t("full"), (), "collapse")
    assert not oracle.check_witness(broken, None, oracle.WITNESS_BUDGET)


def _pairwise_embedding_check(w, b: Budget) -> bool:
    """Reference: the pairwise comparison the inverse-image check replaced."""

    def is_prefix(u, v):
        return len(u) <= len(v) and v[: len(u)] == u

    domain = _first_by_length(b.depth, b.width)[: b.count]
    member = trees.gen_member if w.generated else trees.member_elem
    images = {}
    for u in domain:
        v = images[u] = w.map(u)
        if not member(v, w.target):
            return False
    if len(set(images.values())) != len(images):
        return False
    for u, v in itertools.combinations(domain, 2):
        if is_prefix(images[u], images[v]) != is_prefix(u, v):
            return False
        if is_prefix(images[v], images[u]) != is_prefix(v, u):
            return False
    return True


class _Mapped(EmbeddingWitness):
    generated = True

    def __init__(self, fn, target=trees.FULL):
        super().__init__(target, (), "hand-made")
        self.fn = fn

    def map(self, u):
        return self.fn(u)


def test_embedding_check_matches_pairwise_reference():
    cases = {
        # two leaves of the sampled domain share an image; nothing else is wrong
        "non-injective": (_Mapped(lambda u: (0, 0, 0, 0) if u == (0, 0, 0, 1) else u), False),
        # (a,) < (a,b) but (a,) is no prefix of (a+5,b)
        "prefix to non-prefix": (_Mapped(lambda u: (u[0] + 5, u[1]) if len(u) == 2 else u), False),
        # (1,) is no prefix of (2,...), but its image is a prefix of (1,9,...)
        "non-prefix to prefix": (_Mapped(lambda u: (1, 9) + u[1:] if u[:1] == (2,) else u), False),
        "image outside the target": (PrefixEmbedding(trees.CHAIN, ()), False),
        "prefix embedding": (PrefixEmbedding(trees.FULL, (0, 2)), True),
        "into a generated tree": (_Mapped(lambda u: (3,) + u, t("fan([chain];const(full))")), True),
    }
    for source in ("full", "fan([chain];const(full))", "spine([];const(full))"):
        out = classification.classify_via_derivative(t(source))
        cases[source] = (out.witness, True)
    for b in (oracle.WITNESS_BUDGET, Budget(6, 3, 150)):
        for name, (w, want) in cases.items():
            assert _pairwise_embedding_check(w, b) is want, name
            assert oracle.check_witness(w, None, b) is want, name


def test_law_suite_report_shape():
    report = oracle.law_suite(7, 3)
    assert report.all_pass
    assert {law.name for law in report.laws} >= {
        "idempotence",
        "compile-round-trip",
        "two-path-agreement",
        "rank-oracle-agreement",
        "wo-duality",
    }
    payload = report.to_json()
    assert payload["allPass"] is True
    assert all(law["failures"] == 0 for law in payload["laws"])


def test_law_suite_deterministic_and_empty():
    a = oracle.law_suite(7, 4).to_json()
    b = oracle.law_suite(7, 4).to_json()
    assert a == b
    empty = oracle.law_suite(7, 0)
    assert all(law.trials == 0 and law.failures == 0 for law in empty.laws)


LAW_DRAWS_DIGEST = "bcd0ca9b32eb989c"  # sha256 prefix over the generator state each law is left in


def test_every_law_draws_the_same_trials(monkeypatch):
    # each law's generator, after law_suite(s, 1) for s = 0..49 and after
    # law_suite(42, 50), is left in the state pinned here: the laws take the
    # same randomness in the same order, so they run the same trials.  The
    # state is hashed through its repr: it ends in None, and hash(None)
    # follows its address on Python 3.11, so hash() would differ between processes
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append((seed.split(":", 1)[1], self))

    monkeypatch.setattr(random, "Random", Recorded)
    for seed, trials in [(s, 1) for s in range(50)] + [(42, 50)]:
        oracle.law_suite(seed, trials)
    per_law: dict = {}
    for name, rng in made:
        per_law.setdefault(name, hashlib.sha256()).update(repr(rng.getstate()).encode())
    assert len(made) == 51 * len(per_law) == 51 * 22
    digest = hashlib.sha256("".join(f"{n} {h.hexdigest()}\n" for n, h in per_law.items()).encode())
    assert digest.hexdigest()[:16] == LAW_DRAWS_DIGEST


def _law(name: str) -> tuple:
    """The draw and the check of the law ``name`` in the law table."""
    return next((draw, check) for n, draw, check in laws.LAWS if n == name)


def test_the_domination_budget_law_runs_its_body():
    # every law_suite call of this suite draws, for this law, a schema in
    # neither ideal, where the check answers VACUOUS; the first trial of
    # law_suite(s, 1) passes the guard at these seeds alone of 0..49
    draw, check = _law("domination-budget")
    for s in (10, 11, 35, 44):
        (schema,) = draw(random.Random(f"{s}:domination-budget"))
        assert trees.in_id(schema) or trees.in_wf(schema), str(schema)
        assert check(schema) is True, str(schema)


# trials of law_suite(s, 1), s = 0..49, that a law's guard leaves vacuous;
# every law not named here checks all 50
CHECKED_OF_50 = {"domination-budget": 4, "rank-oracle-agreement": 41,
                 "membership-never-both": 47, "orthogonality-stabilizes": 0, "dense-embedding": 36}


def test_the_suite_counts_the_trials_each_law_checked():
    checked = {name: 0 for name, _, _ in laws.LAWS}
    for s in range(50):
        for law in oracle.law_suite(s, 1).laws:
            checked[law.name] += law.checked
    assert checked == {name: CHECKED_OF_50.get(name, 50) for name in checked}


def test_no_check_reads_the_generator():
    # a check reads its drawn args alone: the trials a law runs are the
    # draws, so no check may take randomness of its own
    def names(code) -> set:
        inner = (names(c) for c in code.co_consts if hasattr(c, "co_names"))
        return set(code.co_names + code.co_varnames + code.co_freevars).union(*inner)

    assert all(len(law) == 3 for law in laws.LAWS)
    assert [name for name, _, check in laws.LAWS if "rng" in names(check.__code__)] == []
    assert "rng" in names(_law("enumeration-monotone")[0].__code__)  # the test sees a draw's


def test_per_vertex_stage_agreement():
    # the quotient's kill stage of each representative must equal the
    # symbolic domination stage of its cone schema
    from idealforms import ordinals

    rng = random.Random(777)
    checked = 0
    for _ in range(150):
        schema = laws.rand_schema(rng, 6)
        if trees.is_empty(schema):
            continue
        try:
            q = quotient.build_quotient(schema, 64)
        except QuotientOverflow:
            continue
        _, _, stage = quotient.derivative_fixpoint(q)
        for v, cone in enumerate(q.vertices):
            info = rank.rank_info(cone)
            got = None if stage[v] is None else ordinals.from_int(stage[v])
            assert got == info.dom_stage, str(cone)
            checked += 1
    assert checked >= 200


# --------------------------------------------------------------------------
# enumeration: pinned output, brute-force reference, least-length prune


def _constant_tail_schemas(max_size: int) -> list[trees.TreeSchema]:
    """Every constant-tail schema of at most ``max_size`` constructor nodes,
    by size, then constructor, head count, size split and children."""
    from test_acceptance import _schemas_of_size

    return [s for size in range(1, max_size + 1) for s in _schemas_of_size(size)]


# sha256 of "<schema>:<enumerate_schema output>" lines over the corpus, one
# digest per budget; recorded before the enumerator generated stages directly
ENUM_DIGESTS = {
    Budget(3, 3, 50): "eed79e40df8dc8148cadcb6ae67f65aa1290eefc897cff06c3c1b288a17e0d41",
    Budget(5, 2, 60): "47be55ac9a19164c43f7bfc758cddad2cdb8819418210c4d4733663dc26829a8",
    Budget(2, 5, 40): "8db0aa4dc907b0085846ba551eca759bd2fa16faa1811847d711586d367a0c05",
    Budget(4, 4, 120): "f60758030ff089083abea895d9b71db8cc9ec22702a0fbd988b95637cfc0ba11",
}


FACTS_DIGEST = "409b9b32fb8df3797e6862430333989b246f05bdd00bcde0b782ab32b07769d8"


def test_enumeration_digest_pinned():
    corpus = _constant_tail_schemas(5)
    assert len(corpus) == 2780
    for b, want in ENUM_DIGESTS.items():
        h = hashlib.sha256()
        for s in corpus:
            h.update(f"{s}:{oracle.enumerate_schema(s, b)}\n".encode())
        assert h.hexdigest() == want, b


def _facts(s: trees.TreeSchema) -> str:
    info = rank.rank_info(s)
    try:
        verdict = classification.classify(s)
    except FiniteSchema:
        verdict = "finite"
    return (
        f"{s}:{trees.is_empty(s)},{trees.is_finite(s)},{trees.in_wf(s)},{trees.in_id(s)},"
        f"{trees.depth_bound(s)},{trees.pick_least(s)},{info.rank},{info.core_empty},"
        f"{info.dom_stage},{verdict},{classification.scaffold_class(s)}"
    )


def _facts_corpus() -> list[trees.TreeSchema]:
    """Every constant-tail schema of size <= 5, 2 000 random schemas
    (diagonal tails, full, spines) and rooted copies of the first 500."""
    rng = random.Random(4)
    drawn = [laws.rand_schema(rng, 7) for _ in range(2000)]
    return _constant_tail_schemas(5) + drawn + [trees.Rooted(s) for s in drawn[:500]]


def test_structural_facts_pinned():
    # sha256 of the _facts lines over _facts_corpus(); recorded before the
    # bottom-up walkers became algebras over one fold
    h = hashlib.sha256()
    for s in _facts_corpus():
        h.update(f"{_facts(s)}\n".encode())
    assert h.hexdigest() == FACTS_DIGEST


def _holds_full(s: trees.TreeSchema) -> bool:
    """A live block of ``s``, at some depth, is the full set."""
    if type(s) is trees.Rooted:
        return _holds_full(s.child)
    if type(s) is trees.Fan or type(s) is trees.Spine:
        return any(not trees.is_empty(h) and _holds_full(h) for h in s.heads) or (
            type(s.tail) is trees.Const and _holds_full(s.tail.block))
    return s is trees.FULL


def _reference_prefix(s: trees.TreeSchema) -> tuple:
    """The non-Borel prefix by the rule applied level by level: the first
    live head holding a full block, otherwise the first tail block, down
    to the full block."""
    out: tuple = ()
    while s is not trees.FULL:
        if type(s) is trees.Rooted:
            s = s.child
            continue
        n = next((n for n, h in enumerate(s.heads) if not trees.is_empty(h) and _holds_full(h)),
                 len(s.heads))
        out += (n,) if type(s) is trees.Fan else trees.spine_root(n)
        s = trees.block_at(s, n)
    return out


def test_nonborel_prefixes_follow_the_first_full_block():
    rng = random.Random(21)
    nonborel = 0
    for s in _facts_corpus() + [laws.rand_schema(rng, 8) for _ in range(2000)]:
        try:
            out = classification.classify(s)
        except FiniteSchema:
            continue
        assert isinstance(out, classification.NonBorel) == _holds_full(s), str(s)
        if isinstance(out, classification.NonBorel):
            nonborel += 1
            assert out.witness.provenance == _reference_prefix(s), str(s)
    assert nonborel > 1000


# sha256 of "<schema>:<classify_via_derivative or finite>" lines over
# _facts_corpus(); recorded before the derivative classifier became an
# algebra over the fold
VIA_DIGEST = "10513bcd227e8e0073430679b47f38246d42cf75eddfd8ed84a8c02a65c1ac61"


def test_derivative_classes_pinned():
    h = hashlib.sha256()
    for s in _facts_corpus():
        try:
            verdict = str(classification.classify_via_derivative(s))
        except FiniteSchema:
            verdict = "finite"
        h.update(f"{s}:{verdict}\n".encode())
    assert h.hexdigest() == VIA_DIGEST


# sha256 of "<schema>:<u>:<member_elem>,<gen_member>,<cone_of>" lines over
# _facts_corpus() and every sequence of length <= 3 with entries <= 2;
# recorded before the three walkers became callers of one descent
DESCENT_DIGEST = "50e3fa8b627422b0c73aa4c6e78fd60b1bab84e8d89b4578a827b103c9e14388"


def test_descent_answers_pinned():
    seqs = [u for n in range(4) for u in itertools.product(range(3), repeat=n)]
    h = hashlib.sha256()
    names: dict[trees.TreeSchema, str] = {}  # cones repeat: print each once
    for s in _facts_corpus():
        text = str(s)
        for u in seqs:
            member, gen, cone = trees.member_elem(u, s), trees.gen_member(u, s), trees.cone_of(s, u)
            # membership is the empty sequence in the cone, and the generated
            # tree holds u exactly when the cone is nonempty
            assert member == trees.member_elem((), cone), (text, u)
            assert gen == (not trees.is_empty(cone)), (text, u)
            name = names.get(cone)
            if name is None:
                name = names[cone] = str(cone)
            h.update(f"{text}:{u}:{member},{gen},{name}\n".encode())
    assert h.hexdigest() == DESCENT_DIGEST


# sha256 of the witness lines below: id_witness over the _facts_corpus()
# schemas with an element of positive length, and frechet_witness and
# id_witness over seeded random queries; recorded before the witness
# builders became loops
WITNESS_DIGEST = "d5d2515c082bcea6b1a3d1ec1d7952e64ba514632d0f072d8368ce2f67c0cbd5"


def _witness_text(build) -> str:
    try:
        w = build()
    except (NotASubset, UnknownContainment) as err:
        return type(err).__name__
    return str(w.elements(8)) if isinstance(w, UnboundedFamily) else str(w)


def _schema_parts(q):
    if isinstance(q, queries.Union):
        return _schema_parts(q.left) + _schema_parts(q.right)
    return [q] if isinstance(q, trees.TreeSchema) else []  # a finite set's branch is pinned at any depth


def test_witness_answers_pinned():
    h = hashlib.sha256()
    for s in _facts_corpus():
        text = _witness_text(lambda: membership.id_witness(s))
        if trees.depth_bound(s) != 0:
            h.update(f"{s}:{text}\n".encode())
        else:  # s denotes the empty set or {()}: the zero branch
            assert text == "[](0)*", str(s)
    rng = random.Random(9)
    for _ in range(1500):
        expr = laws.rand_expr(rng, 6)
        q = laws.rand_query(rng, trees.compile_ideal(expr))
        line = f"{q}:{expr}:{_witness_text(lambda: membership.frechet_witness(q, expr))}"
        if all(trees.depth_bound(s) != 0 for s in _schema_parts(q)):
            line += f":{_witness_text(lambda: membership.id_witness(q))}"
        h.update(f"{line}\n".encode())
    assert h.hexdigest() == WITNESS_DIGEST


# sha256 of containment answers: subset_of over every pair of a
# constant-tail schema of size <= 4 in every seventh of them, over drawn schemas
# and their pruned copies, and over two seeded random queries drawn from
# each of 600 targets; recorded when query-in-query containment was
# deleted, which left the schema lines as they were
CONTAIN_DIGEST = "b2b4e30ba5dbe31d53874b09b470b403490ad5c6d86fb2397d6c524b1728310b"


def test_containment_answers_pinned():
    h = hashlib.sha256()
    small = _constant_tail_schemas(4)
    for s in small[::7]:
        for u in small:
            h.update(f"{u}<{s}:{membership.subset_of(u, s).value}\n".encode())
    rng = random.Random(12)
    drawn = [laws.rand_schema(rng, 7) for _ in range(400)]
    for s in drawn:
        for _ in range(5):
            u = laws.prune_schema(rng, s) if rng.random() < 0.5 else rng.choice(drawn)
            h.update(f"{u}<{s}:{membership.subset_of(u, s).value}\n".encode())
    for _ in range(600):
        target = trees.compile_ideal(laws.rand_expr(rng, 6))
        q, w = laws.rand_query(rng, target), laws.rand_query(rng, target)
        answers = (membership.subset_of(q, target), membership.subset_of(w, target))
        h.update(f"{q}:{w}:{target}:{','.join(a.value for a in answers)}\n".encode())
    assert h.hexdigest() == CONTAIN_DIGEST


def _outside_leaf(rng: random.Random, target, other) -> tuple[str, trees.QueryTerm]:
    """A query leaf drawn without regard to ``target``, and its kind: a
    pruned ``other``, a finite set mixing elements of both, or the
    transversal of a random constant-tail or diagonal-tail fan."""
    roll = rng.random()
    if roll < 1 / 3:
        return "schema", laws.prune_schema(rng, other)
    if roll < 2 / 3:
        pool = oracle.enumerate_schema(target, Budget(4, 4, 12)) + oracle.enumerate_schema(
            other, Budget(4, 4, 12))
        if pool:
            k = rng.randrange(1, min(len(pool), 6) + 1)
            return "finset", queries.FinSet(tuple(sorted(set(rng.sample(pool, k)))))
    heads = tuple(laws.rand_schema(rng, 3) for _ in range(rng.randrange(3)))
    if rng.random() < 0.5:
        tail = trees.Const(laws.rand_schema(rng, 4))
    else:
        lam = laws.rand_limit(rng)
        tail = trees.QDiag(lam) if rng.random() < 0.5 else trees.PDiag(lam)
    return "transversal", queries.Transversal(trees.Fan(heads, tail))


def test_unions_across_the_containment_boundary():
    # one leaf inside the target and one drawn outside it: the union is NO
    # exactly when a leaf is, with a counterexample in the union and not in
    # the target, and a YES holds for the union's elements at a budget
    rng = random.Random(2020)
    verdicts: set = set()
    for _ in range(1500):
        target, other = laws.rand_schema(rng, 7), laws.rand_schema(rng, 7)
        inside = laws.rand_query(rng, target)
        kind, outside = _outside_leaf(rng, target, other)
        assert membership.subset_of(inside, target) is not Ternary.NO, (str(inside), str(target))
        parts = (inside, outside) if rng.random() < 0.5 else (outside, inside)
        q = queries.Union(*parts)
        verdict, u = membership._containment(q, target)
        leaves = [membership.subset_of(p, target) for p in parts]
        assert (verdict is Ternary.NO) == (Ternary.NO in leaves), (str(q), str(target))
        if verdict is Ternary.NO:
            assert queries.q_member(u, q) and not trees.member_elem(u, target), (str(q), u)
        elif verdict is Ternary.YES:
            elems = oracle.enumerate_schema(q, Budget(5, 5, 60))
            assert all(trees.member_elem(v, target) for v in elems), (str(q), str(target))
        verdicts.add((kind, verdict))
    assert {(k, v) for k in ("schema", "finset", "transversal")
            for v in (Ternary.YES, Ternary.NO)} <= verdicts


def test_constant_tails_are_always_decided():
    # the pair walk runs out on constant tails: every pair of constant-tail
    # schemas of size <= 4 gets YES or NO.  Each NO is checked by its
    # counterexample, and each YES in every seventh target by enumerating
    # the query at a budget
    small = _constant_tail_schemas(4)
    assert len(small) ** 2 == 169744
    checked, elements, undecided, wrong = set(small[::7]), {}, [], []
    for s in small:
        for u in small:
            verdict, w = membership._walk(u, s)
            if verdict is Ternary.NO:
                if not trees.member_elem(w, u) or trees.member_elem(w, s):
                    wrong.append((u, s, w))
            elif verdict is not Ternary.YES:
                undecided.append((u, s))
            elif s in checked:
                if u not in elements:
                    elements[u] = oracle.enumerate_schema(u, Budget(4, 4, 60))
                if not all(trees.member_elem(v, s) for v in elements[u]):
                    wrong.append((u, s))
    assert not undecided and not wrong, (undecided[:5], wrong[:5])


def _stage(u) -> int:
    return max(len(u), max(u) + 1 if u else 0)


def _reference_enumerate(q, b: Budget) -> list:
    """Every sequence of stage <= the cap that belongs to ``q``, in canonical
    order, cut to ``count`` and then to the depth/width box."""
    cap = max(b.depth, b.width + 1)
    universe = [
        u for length in range(cap + 1) for u in itertools.product(range(cap), repeat=length)
    ]
    universe.sort(key=lambda u: (_stage(u), len(u), u))
    taken = [u for u in universe if queries.q_member(u, q)][: b.count]
    return [u for u in taken if len(u) <= b.depth and all(e <= b.width for e in u)]


def _query_kinds(q) -> set[str]:
    if isinstance(q, queries.Union):
        return {"union"} | _query_kinds(q.left) | _query_kinds(q.right)
    if isinstance(q, queries.FinSet):
        return {"finset"}
    if isinstance(q, queries.Transversal):
        return {"transversal"}
    text = str(q)
    return {"schema"} | {k for k in ("diag", "full", "rooted", "spine") if k in text}


def test_enumerate_matches_brute_force_reference():
    rng = random.Random(2013)
    fixed = [
        "fan([];qdiag(w^2))",
        "spine([chain];pdiag(w,1))",
        "fan([empty,full];const(empty))",
        "spine([eps,empty,chain];const(empty))",
        "rooted(fan([full];const(chain)))",
        "union(finset{<0,3>,<2>,<>},transversal(fan([empty,chain];const(full))))",
        "transversal(fan([eps,empty,spine([];const(eps))];const(empty)))",
    ]
    drawn = [parse_query(src) for src in fixed]
    for _ in range(160):
        target = laws.rand_schema(rng, 7)
        q = laws.rand_query(rng, target) if rng.random() < 0.6 else target
        if rng.random() < 0.2 and isinstance(q, trees.TreeSchema):
            u = next(iter(oracle.enumerate_schema(target, Budget(3, 2, 5))), None)
            if u:
                q = trees.cone_of(target, u[:1])
        drawn.append(q)
    seen: set[str] = set()
    for q in drawn:
        seen |= _query_kinds(q)
        b = Budget(rng.randrange(1, 6), rng.randrange(1, 5), rng.randrange(1, 60))
        assert oracle.enumerate_schema(q, b) == _reference_enumerate(q, b), (str(q), b)
    assert seen >= {"diag", "full", "rooted", "spine", "finset", "transversal", "union"}


def _full_universe(cap: int) -> list:
    """Every sequence of stage <= cap in canonical order (stage, then
    shortlex), read from the full tree with no pruning fact of a query."""
    return [u for k in range(cap + 1) for n in range(k + 1)
            for u in trees.iter_len(trees.FULL, n, k - 1, n < k)]


def test_enumeration_skips_no_element_of_the_whole_box():
    # a wrong pruning fact (least_length, _entry_bound, _DEPTH, _indices,
    # _forced) would drop elements; with a count past every sequence up to
    # the stage cap, enumeration must return the whole box of the query
    rng = random.Random(1979)
    universes = {cap: _full_universe(cap) for cap in range(2, 6)}
    assert len(universes[5]) == sum(5 ** n for n in range(6))
    kinds, nonempty = set(), 0
    for _ in range(400):
        target = laws.rand_schema(rng, 7)
        if rng.random() < 0.3:  # bounded entries: a few heads and no tail
            heads = tuple(laws.rand_schema(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5)))
            target = rng.choice([trees.Fan, trees.Spine])(heads, trees.CONST_EMPTY)
        q = laws.rand_query(rng, target) if rng.random() < 0.7 else target
        depth, width = rng.randrange(1, 5), rng.randrange(1, 5)
        cap = max(depth, width + 1)
        b = Budget(depth, width, len(universes[cap]) + 1)
        want = [u for u in universes[cap] if len(u) <= depth and max(u, default=0) <= width
                and queries.q_member(u, q)]
        assert oracle.enumerate_schema(q, b) == want, (str(q), b)
        kinds |= _query_kinds(q)
        nonempty += bool(want)
    assert kinds >= {"diag", "full", "spine", "finset", "transversal", "union"} and nonempty > 100


def test_enumerate_skips_schemas_longer_than_the_box():
    # every element is longer than depth 8, so nothing fits the box
    q = parse_query("fan([];qdiag(w^w^6*3))")
    assert oracle.enumerate_schema(q, Budget(8, 8, 100)) == []


# the package modules that loading the checker kernel loads
KERNEL_MODULES = {"errors", "hashcons", "ideals", "oracle", "ordinals", "queries", "text", "trees"}
# every module that the kernel's calls reach
KERNEL_REACH = {"hashcons", "oracle", "ordinals", "queries", "quotient", "trees"}


def test_the_checker_kernel_trust_base_is_pinned():
    # the oracle loads no decision procedure, witness builder, law or
    # generator, and its entry points reach no predicate, rank or
    # classifier that it checks, and no function of membership.  A new
    # dependency fails here until it is added on purpose
    from test_trees import _call_graph

    src = str(Path(oracle.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", "import sys, idealforms.oracle\n"
                           "print(*sorted(m for m in sys.modules if m.startswith('idealforms.')))"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert {m.split(".")[1] for m in proc.stdout.split()} == KERNEL_MODULES

    graph = _call_graph(Path(oracle.__file__).parent)

    def reach(*entries: str) -> set[str]:
        # the closure of calls
        seen, todo = set(), list(entries)
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo += graph.get(f, ())
        return seen

    enum = reach("oracle.enumerate_schema")
    assert "oracle._leaf_iter_len" in enum and "trees.iter_len" in enum
    assert not enum & {"trees.in_wf", "trees.in_id"}
    # the Frechet check reads the entry bound, not the predicate it stands for
    assert not reach("oracle.check_witness") & {"trees.in_wf", "trees.in_id"}
    seen = reach("oracle.enumerate_schema", "oracle.check_witness", "oracle.explicit_derivative")
    assert {(f, g) for f in seen for g in graph.get(f, ()) if g.startswith("membership.")} == set()
    assert {f.split(".")[0] for f in seen} == KERNEL_REACH


def test_witnesses_hold_data_and_the_maps_they_denote():
    # the checker kernel samples a witness's domain and tests each image
    # itself: no function of witnesses reads the schema predicates, the
    # oracle or the procedures whose answers the witnesses back
    from idealforms import witnesses

    checked = {"trees", "oracle", "membership", "classification"}
    tree = ast.parse(Path(witnesses.__file__).read_text())
    reads = sorted(f"{d.name}: {n.value.id}.{n.attr}" for d in ast.walk(tree)
                   if isinstance(d, ast.FunctionDef) for n in ast.walk(d)
                   if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                   and n.value.id in checked)
    imports = sorted(f"{d.name}: {n.module}" for d in ast.walk(tree)
                     if isinstance(d, ast.FunctionDef) for n in ast.walk(d)
                     if isinstance(n, ast.ImportFrom) and n.module in checked)
    assert reads == imports == []


def test_enumeration_opens_few_empty_probes(monkeypatch):
    # a probe is one (stage, length) stream of a query leaf; before the
    # query's least length and entry bound decided each one, these ten
    # suites opened 10 774 probes, 95 % of them yielding nothing (578 and
    # 8.5 % after)
    counts = [0, 0]  # probes, empty probes
    inner = oracle._leaf_iter_len

    def counted(*args):
        counts[0] += 1
        empty = True
        for u in inner(*args):
            empty = False
            yield u
        counts[1] += empty

    monkeypatch.setattr(oracle, "_leaf_iter_len", counted)
    for s in range(10):
        assert oracle.law_suite(s, 1).all_pass
    assert counts[0] <= 1000 and counts[1] <= 0.15 * counts[0], counts


def _deep_reference(q, b: Budget) -> list:
    """``_reference_enumerate`` for queries whose elements lie deep: stage
    by stage, the finite set elements of the stage and a walk over the
    prefixes that some schema element extends (one ``cone_of`` step per
    letter), until ``count`` elements are taken."""
    cap = max(b.depth, b.width + 1)
    leaves = queries._leaves(q)
    kids: dict = {}  # cone -> its nonempty one-letter cones, letters below the cap
    taken: list = []
    for k in range(cap + 1):
        stage = {u for x in leaves if isinstance(x, queries.FinSet)
                 for u in x.elements if _stage(u) == k}
        todo = [((), x) for x in leaves if isinstance(x, trees.TreeSchema)]
        while todo:
            u, c = todo.pop()
            if _stage(u) == k and queries.q_member(u, q):
                stage.add(u)
            if len(u) < k:
                if c not in kids:
                    kids[c] = [(x, d) for x in range(cap)
                               if not trees.is_empty(d := trees.cone_of(c, (x,)))]
                todo += [(u + (x,), d) for x, d in kids[c] if x < k]
        taken += sorted(stage, key=lambda u: (len(u), u))
        if len(taken) >= b.count:
            break
    return [u for u in taken[: b.count] if len(u) <= b.depth and all(e <= b.width for e in u)]


def _forced_prefix_corpus(rng: random.Random, n: int) -> list:
    """Nests up to 40 deep of ``fan([empty,...,x];const(empty))`` and
    ``spine([x];const(empty))`` over fan and spine bottoms with constant
    tails, some of them in a union with a finite set; each query comes
    with the length of its forced prefix."""
    out = []
    for i in range(n):
        block = rng.choice([trees.EPS, trees.CHAIN, trees.FULL, trees.singleton((1, 0)),
                            laws.rand_schema(rng, 3, allow_full=False)])
        heads = tuple(laws.rand_schema(rng, 3) for _ in range(rng.randrange(0, 3)))
        if trees.is_empty(block):
            block = trees.EPS
        bottom = rng.choice([trees.Fan, trees.Spine])(heads, trees.Const(block))
        t, depth = bottom, 40 if i < 2 else rng.randrange(0, 41)
        for _ in range(depth):
            if rng.random() < 0.5:
                t = trees.Fan((trees.EMPTY,) * rng.randrange(0, 3) + (t,), trees.CONST_EMPTY)
            else:
                t = trees.Spine((t,), trees.CONST_EMPTY)
        q: trees.QueryTerm = t
        if rng.random() < 0.3:
            elems = {tuple(rng.randrange(0, 4) for _ in range(rng.randrange(0, 4))) for _ in range(5)}
            elems.add(trees.pick_least(t))  # an element the schema holds too
            q = queries.Union(queries.FinSet(tuple(sorted(elems))), q)
        out.append((q, bottom, depth))
    return out


def test_enumeration_below_forced_prefixes_matches_the_reference():
    rng = random.Random(1968)
    corpus = _forced_prefix_corpus(rng, 40)
    finite = [trees.depth_bound(bottom) is not None for _, bottom, _ in corpus]
    assert any(finite) and not all(finite)
    assert any(isinstance(q, queries.Union) for q, _, _ in corpus)
    assert max(depth for _, _, depth in corpus) == 40
    for q, _, depth in corpus:
        for more in (-1, 1, 3):
            b = Budget(max(1, depth + more), rng.randrange(1, 5), rng.randrange(1, 40))
            assert oracle.enumerate_schema(q, b) == _deep_reference(q, b), (str(q), b)
    # the deep reference agrees with the brute-force one where both run
    for q, _, _ in corpus[:10]:
        b = Budget(3, 2, 30)
        assert _deep_reference(q, b) == _reference_enumerate(q, b), str(q)


def _frechet_law_checks(monkeypatch) -> list:
    """Run the Frechet law for suite seeds 0..49 and return the (witness,
    budget) pair of each check it made."""
    seen, real = [], oracle._check_frechet

    def recorded(w, q, b):
        seen.append((w, b))
        return real(w, q, b)

    monkeypatch.setattr(oracle, "_check_frechet", recorded)
    draw, check = _law("frechet-witness-sound")
    for s in range(50):
        assert check(*draw(random.Random(f"{s}:frechet-witness-sound")))
    return seen


def test_frechet_boxes_are_two_enumerations(monkeypatch):
    checks = _frechet_law_checks(monkeypatch)
    assert len(checks) >= 40
    for w, b in checks:
        least = trees.pick_least(w)
        depth, width = len(least) + b.depth, max(b.width, max(least, default=0), 1)
        small = oracle.enumerate_schema(w, Budget(depth, width, b.count))
        grown = oracle.enumerate_schema(w, Budget(2 * depth, width, b.count))
        assert oracle._frechet_boxes(w, b) == (small, grown), str(w)


def test_frechet_checks_walk_few_blocks(monkeypatch):
    # each probe walked the witness's one-way path down from the root
    # again, and the check enumerated the witness twice: 59 039 block_at
    # calls over these 50 suites; starting below the forced prefix, from
    # one stream, makes 17 491
    count, inside = [0], [False]
    real_block, real_check = trees.block_at, oracle._check_frechet

    def block_at(*args):
        count[0] += inside[0]
        return real_block(*args)

    def check(*args):
        inside[0] = True
        try:
            return real_check(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(trees, "block_at", block_at)
    monkeypatch.setattr(oracle, "_check_frechet", check)
    draw, law = _law("frechet-witness-sound")
    for s in range(50):
        assert law(*draw(random.Random(f"{s}:frechet-witness-sound")))
    assert 0 < count[0] <= 24_000, count


def test_finite_set_leaves_are_read_from_one_bucket_per_probe(monkeypatch, capsys):
    # a union of 8 001 one-element finite sets opened one sorted stream
    # per leaf on every probe: 224 028 streams for this budget
    from idealforms import cli

    opened = [0]  # streams merged: here every one is read from finite sets
    real = oracle._merged

    def counted(streams):
        opened[0] += len(streams)
        return real(streams)

    monkeypatch.setattr(oracle, "_merged", counted)
    text = "union(" * 8000 + "finset{<0>}" + "".join(f",finset{{<{k}>}})" for k in range(1, 8001))
    for budget, want in (("6,6,200", range(7)), ("2,30,50", range(31)), ("1,9000,5", range(5))):
        assert cli.main(["--json", "enumerate", text, "--budget", budget]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["elements"] == [[k] for k in want], budget
        d, w, c = map(int, budget.split(","))
        cap = max(d, w + 1)
        assert opened[0] <= (cap + 1) * (cap + 2) // 2  # one per (stage, length) probe
        opened[0] = 0


def test_enumeration_probes_no_stage_or_length_past_the_bounds(monkeypatch):
    # no element is longer than the query's depth bound or holds an entry
    # above its entry bound, so no stage past both and no longer length
    # is probed (before, these opened every (stage, length) up to the
    # budget's stage cap: 10 001, 20 101, 501 and 37 probes); a query of
    # finite sets alone opens one probe per bucket (201 before)
    probes = [0]
    real = oracle._merged

    def counted(streams):
        probes[0] += 1
        return real(streams)

    monkeypatch.setattr(oracle, "_merged", counted)
    for q, b, want, opened in (
        ("eps", Budget(10_000, 1, 5), [()], 1),
        ("finset{<200>}", Budget(201, 201, 1), [(200,)], 1),
        ("fan([eps,fan([eps,eps];const(empty))];const(empty))", Budget(500, 3, 10),
         [(0,), (1, 0), (1, 1)], 3),
        ("union(finset{<3,1>},fan([eps];const(eps)))", Budget(300, 300, 10),
         [(0,), (1,), (2,), (3,), (3, 1), (4,), (5,), (6,), (7,), (8,)], 16),
    ):
        probes[0] = 0
        assert oracle.enumerate_schema(parse_query(q), b) == want, q
        assert probes[0] == opened, (q, probes[0])


def test_finite_sets_alone_open_one_probe_per_bucket(monkeypatch):
    # a query of finite sets alone opens only the (stage, length) buckets
    # that its elements fill: finset{<200000>} opened 200 001 probes for
    # its one element, in 0.57 s
    probes = [0]
    real = oracle._merged

    def counted(streams):
        probes[0] += 1
        return real(streams)

    monkeypatch.setattr(oracle, "_merged", counted)
    for q, b, want in (
        ("finset{<200000>}", Budget(200_001, 200_001, 1), [(200_000,)]),
        ("union(finset{<2000>,<0,0>},finset{<1>,<0,0,1>,<0>})", Budget(5, 3000, 10),
         [(0,), (1,), (0, 0), (0, 0, 1), (2000,)]),
        ("finset{<9,9>,<3>,<3,1>,<>}", Budget(2, 4, 10), [(), (3,), (3, 1)]),
    ):
        probes[0] = 0
        query = parse_query(q)
        assert oracle.enumerate_schema(query, b) == want, q
        buckets = {(max(len(u), max(u, default=-1) + 1), len(u))
                   for x in queries._leaves(query) for u in x.elements}
        assert probes[0] <= len(buckets), (q, probes[0])

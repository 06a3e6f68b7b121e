"""The checker kernel: brute-force oracles validating the symbolic engines.

Enumeration follows a budget-independent canonical order (by stage, then
shortlex) so that enlarging any budget field never removes elements.
Only this module enumerates queries, and it reads them through the query
terms of ``queries``, never through the decision procedures of
``membership`` that it checks; a schema is a query as it stands.  The
explicit derivative iterates removal on the finite block quotient using
only the domination test on surviving cones, with no ordinal arithmetic;
it must agree with the symbolic rank whenever the quotient is finite.
The law suite replays every cross-module invariant on seeded random
instances and reports failures with their first counterexample; its laws
and generators are in ``laws``, which it imports on its first call.
Witness checks import ``witnesses``, and the explicit derivative
``quotient``, inside the function, so enumeration loads neither.  The
Frechet check reads the subset's entry bound, the fact enumeration
already trusts, and imports nothing.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from . import ordinals, queries, trees
from .errors import BadArgument
from .hashcons import Interned
from .ordinals import Ordinal
from .queries import FinSet, Transversal
from .trees import QueryTerm, Seq, TreeSchema


class Budget(Interned):
    __slots__ = __match_args__ = ("depth", "width", "count")

    def _init(self, depth: int, width: int, count: int) -> None:
        if min(depth, width, count) < 1:
            raise BadArgument(f"budget fields must all be >= 1, got {depth},{width},{count}")
        self.depth, self.width, self.count = depth, width, count

    def to_json(self) -> dict:
        return {"depth": self.depth, "width": self.width, "count": self.count}


WITNESS_BUDGET = Budget(8, 8, 200)


# --------------------------------------------------------------------------
# budget enumeration


def enumerate_schema(q: QueryTerm, b: Budget) -> list[Seq]:
    """First ``count`` canonical elements, filtered to the depth/width box.

    The canonical order ignores the budget, so each field is monotone:
    enlarging it never drops an element from the result.  Each stage is
    generated directly rather than filtered out of a larger box, and the
    walk is pruned only by structural facts (emptiness, head counts, the
    least element's length and entry bounds, tail length windows; see
    ``trees.iter_len``); a (stage, length) probe is opened only when the
    query's least length and entry bound let it hold an element, and
    starts below each schema leaf's forced prefix (see ``_iter_canonical``),
    so the work follows the output.  The oracle stays independent of what
    it checks: enumeration consults no ``in_wf``, ``in_id``, rank or
    classifier.
    """
    stage_cap = max(b.depth, b.width + 1)
    return _box(itertools.islice(_iter_canonical(q, stage_cap), b.count), b.depth, b.width)


def _box(elems, depth: int, width: int) -> list[Seq]:
    return [u for u in elems if len(u) <= depth and all(e <= width for e in u)]


def _iter_canonical(q: QueryTerm, stage_cap: int) -> Iterator[Seq]:
    """Budget-independent canonical order: by stage, shortlex within.

    Stage k holds the sequences of length at most k with entries below k
    that miss every smaller box: those of length k, and the shorter ones
    holding the entry k - 1.  Three facts of the query, read once, decide
    a probe before it is opened: no element is shorter than the least
    length or longer than the depth bound, and none holds an entry above
    the entry bound, so a shorter one needing k - 1 exists only when the
    bound reaches it, and no stage past both bounds holds one.  A schema
    leaf's probes start at the cone below its forced prefix (``_forced``),
    shorter by the prefix, skipped when it holds an entry above k - 1 and
    not needing k - 1 when it holds that.  Finite set elements are read
    once into buckets by (stage, length), and a probe is one merge of its
    bucket and one stream per schema or transversal leaf; a query of
    finite sets alone opens a probe per bucket and no other.
    """
    facts = []  # (least length, depth bound, entry bound) of each nonempty leaf and finite set element
    cones = []  # (forced prefix, the leaf of the cone below it) of each nonempty leaf
    finite: dict = {}  # (stage, length) -> finite set elements
    for leaf in queries._leaves(q):
        if type(leaf) is FinSet:
            facts += ((len(u), len(u), max(u, default=-1)) for u in leaf.elements)
            for u in leaf.elements:  # stage(u) = max(len(u), max(u) + 1)
                finite.setdefault((max(len(u), max(u, default=-1) + 1), len(u)), set()).add(u)
        elif not trees.is_empty(t := leaf.fan if type(leaf) is Transversal else leaf):
            facts.append((trees.least_length(t), trees._fold(t, trees._DEPTH), trees._entry_bound(t)))
            cones.append(_forced(leaf))
    if not facts:
        return  # the query has no element
    least, deepest, bound = min(f[0] for f in facts), max(f[1] for f in facts), max(f[2] for f in facts)
    top = min(stage_cap, max(deepest, bound + 1))
    probes = ((k, n) for k in range(least, top + 1)  # n: the length probed
              for n in range(least if bound >= k - 1 else k, min(k, deepest) + 1))
    if not cones:  # finite sets alone: a probe per bucket
        probes = sorted(kn for kn in finite if kn[0] <= top)
    for k, n in probes:
        streams = [sorted(finite[k, n])] if (k, n) in finite else []
        for w, c in cones:
            if len(w) <= n and max(w, default=-1) < k:
                s = _leaf_iter_len(c, n - len(w), k - 1, n < k and k - 1 not in w)
                streams.append(map(w.__add__, s) if w else s)
        yield from _merged(streams)


def _leaf_iter_len(leaf: QueryTerm, length: int, max_entry: int, need: bool) -> Iterator[Seq]:
    """Elements of a schema or transversal leaf of exact length in lex
    order, each holding an entry equal to ``max_entry`` when ``need`` is
    set (see ``trees.iter_len``); a transversal builds only the picks that fit."""
    if type(leaf) is not Transversal:
        return trees.iter_len(leaf, length, max_entry, need)
    f = leaf.fan
    picks = (queries._transversal_pick(f, n) for n in trees._indices(f, length, max_entry)
             if trees.least_length(trees.block_at(f, n)) == length - 1)
    return (p for p in picks if max(p) <= max_entry and (not need or max_entry in p))


def _merged(streams: list) -> Iterator[Seq]:
    """One lex-ordered stream of lex-ordered streams, each element once."""
    if len(streams) == 1:
        return streams[0]
    import heapq

    return (u for u, _ in itertools.groupby(heapq.merge(*streams)))


def _forced(t: QueryTerm) -> tuple[Seq, QueryTerm]:
    """The forced prefix of a schema leaf and the cone below it: the word
    of the ``trees.walk`` through the run of fans and spines that each have
    exactly one nonempty block and a trivial tail, read from emptiness
    alone.  A rooted layer or a transversal stops it at once."""
    def only(s: QueryTerm) -> Optional[int]:  # the one nonempty block, else None
        if type(s) not in (trees.Fan, trees.Spine) or not trees.tail_is_trivial(s.tail):
            return None
        live = [n for n, h in enumerate(s.heads) if not trees.is_empty(h)]
        return live[0] if len(live) == 1 else None

    path, t = trees.walk(t, only, lambda s: only(s) is None)
    return trees.word(path), t


# --------------------------------------------------------------------------
# explicit derivative on the block quotient


def explicit_derivative(t: TreeSchema, b: Budget) -> tuple[Ordinal, bool]:
    """Fixpoint rank of the generated tree, materialized on the quotient.

    Raises QuotientOverflow when more than ``count`` representatives are
    needed.  The first removal round, read from the fixpoint's stages
    (round 0 runs with every class alive), is cross-checked against the
    exact domination predicate on the representative cones.
    """
    from . import quotient

    if trees.is_empty(t):
        return ordinals.ZERO, True  # the generated tree has no root
    q = quotient.build_quotient(t, b.count)
    steps, core_empty, stage = quotient.derivative_fixpoint(q)
    for v, schema in enumerate(q.vertices):
        if (stage[v] == 0) != trees.in_id(schema):
            raise AssertionError(schema)
    return ordinals.from_int(steps), core_empty


# --------------------------------------------------------------------------
# witness checking


def check_witness(w, q: Optional[QueryTerm], b: Budget) -> bool:
    """Re-verify a witness of a claim about ``q`` (None for an embedding) at the given budget."""
    from .witnesses import DominatingBranch, EmbeddingWitness, UnboundedFamily

    if isinstance(w, DominatingBranch):
        return all(w.dominates(u) for u in enumerate_schema(q, b))
    if isinstance(w, UnboundedFamily):
        elems = w.elements(b.count)
        if len(elems) < min(b.count, b.depth):
            return False
        maxima = [max(u) if u else -1 for u in elems]
        members = all(queries.q_member(u, q) for u in elems) if q else True
        return members and all(a < c for a, c in zip(maxima, maxima[1:]))
    if isinstance(w, EmbeddingWitness):
        return _check_embedding(w, b)
    if isinstance(w, QueryTerm):
        return _check_frechet(w, q, b)
    raise TypeError(f"not a witness: {w!r}")


def _check_embedding(w: EmbeddingWitness, b: Budget) -> bool:
    """An embedding must be injective on the sampled domain and preserve
    and reflect strict prefixes.  Given injectivity, the second holds iff
    for each sampled u the sampled u' whose image is a strict prefix of
    u's image are exactly the sampled strict prefixes of u; an inverse
    image dict answers that by lookup instead of comparing every pair
    (Fredkin, "Trie Memory", 1960), at the few lengths that images have,
    so a long image costs no lookup per entry."""
    from .witnesses import iter_domain

    domain = iter_domain(min(b.depth, 4), min(b.width, 4), b.count)
    images = {}
    for u in domain:
        v = w.map(u)
        if not w.image_member(u):
            return False
        images[u] = v
    inverse = {v: u for u, v in images.items()}
    if len(inverse) != len(images):
        return False  # not injective on the sampled domain
    lengths = set(map(len, inverse))
    for u, v in images.items():
        below = {inverse[v[:k]] for k in lengths if k < len(v) and v[:k] in inverse}
        if below != {u[:k] for k in range(len(u)) if u[:k] in images}:
            return False
    return True


def _frechet_boxes(w: TreeSchema, b: Budget) -> tuple[list[Seq], list[Seq]]:
    """``enumerate_schema`` of ``w`` in the box widened until its least
    element fits and in one twice as deep, from one stream: the order
    ignores the budget, so the first list is the second's elements that fit."""
    least = trees.pick_least(w)
    if least is None:
        return [], []
    depth = max(b.depth, len(least) + b.depth)
    width = max(b.width, max(least, default=0), 1)
    taken = list(itertools.islice(_iter_canonical(w, max(depth * 2, width + 1)), b.count))
    return _box(taken, depth, width), _box(taken, depth * 2, width)


def _check_frechet(w: QueryTerm, q: QueryTerm, b: Budget) -> bool:
    if not isinstance(w, TreeSchema):  # not an assert: the check must run under python -O too
        raise TypeError(f"not a witness: {w!r}")
    small, grown = _frechet_boxes(w, b)
    if not small or len(grown) <= len(small):
        return False  # not visibly infinite at the budget
    # bounded entries are branch domination (see trees._ID): each element
    # grown lies in the query and below the constant branch at the bound
    bound = trees._entry_bound(w)
    return bound < math.inf and all(max(u, default=-1) <= bound and queries.q_member(u, q)
                                    for u in grown)


# --------------------------------------------------------------------------
# the law suite


class LawReport:
    def __init__(self, name: str, trials: int, failures: int, first_counterexample: Optional[str]):
        self.name, self.trials, self.failures = name, trials, failures
        self.first_counterexample = first_counterexample

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "firstCounterexample": self.first_counterexample,
        }


class SuiteReport:
    def __init__(self, seed: int, trials: int, laws: list[LawReport]) -> None:
        self.seed, self.trials, self.laws = seed, trials, laws

    @property
    def all_pass(self) -> bool:
        return all(law.failures == 0 for law in self.laws)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "allPass": self.all_pass,
            "laws": [law.to_json() for law in self.laws],
        }


def law_suite(seed: int, trials: int) -> SuiteReport:
    """Replay every cross-module invariant on seeded random instances; the
    laws and their generators load on the first call (see ``laws``)."""
    import random

    from . import laws

    if trials < 0:
        raise BadArgument(f"trials must be >= 0, got {trials}")
    reports = []
    for name, law in laws.LAWS:
        rng = random.Random(f"{seed}:{name}")
        failures = 0
        first = None
        for _ in range(trials):
            try:
                counterexample = law(rng)
            except Exception as exc:  # a law runner must never raise
                counterexample = f"exception: {exc!r}"
            if counterexample is not None:
                failures += 1
                if first is None:
                    first = counterexample
        reports.append(LawReport(name, trials, failures, first))
    return SuiteReport(seed, trials, reports)

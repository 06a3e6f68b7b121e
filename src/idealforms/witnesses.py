"""Checkable certificates emitted by the classifiers and membership ops.

Witnesses are data, not trust: each one carries enough structure for the
oracle to re-verify the claim at any budget.  Branches are eventually
periodic so that pointwise domination is decidable; embeddings are total
maps realized lazily with memoized expansion state.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator

from . import text
from .hashcons import Interned
from .trees import Seq, TreeSchema


class DominatingBranch(Interned):
    """Eventually periodic branch dominating every element of a set."""

    __slots__ = __match_args__ = ("prefix", "period")

    def _init(self, prefix: tuple[int, ...], period: tuple[int, ...]) -> None:
        if not period:
            raise ValueError("period must be nonempty")
        self.prefix, self.period = prefix, period

    def value(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def dominates(self, u: Seq) -> bool:
        more = -((len(self.prefix) - len(u)) // len(self.period))  # periods past the prefix
        return all(map(operator.le, u, self.prefix + self.period * more))

    def __str__(self) -> str:
        pre = ",".join(str(x) for x in self.prefix)
        per = ",".join(str(x) for x in self.period)
        return f"[{pre}]({per})*"


def merge_branches(branches: list[DominatingBranch]) -> DominatingBranch:
    """Pointwise maximum; dominates whatever each input dominated."""
    prefix_len = max(len(b.prefix) for b in branches)
    period_len = math.lcm(*(len(b.period) for b in branches))
    prefix = tuple(max(b.value(i) for b in branches) for i in range(prefix_len))
    period = tuple(
        max(b.value(prefix_len + i) for b in branches) for i in range(period_len)
    )
    return DominatingBranch(prefix, period)


class UnboundedFamily:
    """Enumerates set elements whose coordinate maxima strictly increase."""

    def __init__(self, source: Callable[[], Iterator[Seq]]) -> None:
        self.source = source

    def elements(self, count: int) -> list[Seq]:
        out: list[Seq] = []
        best = -1
        for u in self.source():
            m = max(u) if u else -1
            if m > best:
                out.append(u)
                best = m
            if len(out) >= count:
                break
        return out


class EmbeddingWitness:
    """Total injective map of finite sequences into a schema's denotation.

    The class attribute ``generated`` says whether images live in the raw
    denoted set or in the tree it generates; ``provenance`` records the
    schema child the embedding factors through.
    """

    generated: bool

    def __init__(self, target: TreeSchema, provenance: Seq, label: str):
        self.target = target
        self.provenance = provenance
        self.label = label

    def map(self, u: Seq) -> Seq:
        raise NotImplementedError


class PrefixEmbedding(EmbeddingWitness):
    """Identity embedding re-rooted under a fixed prefix (full sub-block)."""

    generated = False

    def __init__(self, target: TreeSchema, provenance: Seq):
        label = "identity" if not provenance else f"identity under {text.format_seq_elem(provenance)}"
        super().__init__(target, provenance, label)

    def map(self, u: Seq) -> Seq:
        return self.provenance + u


class Expansion:
    """A core node (relative path) with infinitely many core children.

    Child k is the coordinate ``offset + k`` below ``path``; every child
    has the same cone schema ``child``.
    """

    def __init__(self, path: Seq, offset: int, child: TreeSchema) -> None:
        self.path, self.offset, self.child = path, offset, child


class CoreEmbedding(EmbeddingWitness):
    """Embedding of the full sequence tree into a nonempty derivative core.

    At every image node an extension with infinitely many surviving
    children is chosen; level n of the domain maps bijectively onto those
    children, so comparability is preserved and reflected.  The map walks
    down from the target and finds each cone's expansion once, so it keeps
    nothing per mapped sequence.
    """

    generated = True

    def __init__(self, target: TreeSchema, expander: Callable[[TreeSchema], Expansion]):
        super().__init__(target, (), "derivative-core expansion")
        self._expander = expander
        self._expansions: dict[TreeSchema, Expansion] = {}

    def map(self, u: Seq) -> Seq:
        cone, out = self.target, []
        for x in u:
            exp = self._expansions.get(cone)
            if exp is None:
                exp = self._expansions[cone] = self._expander(cone)
            out += exp.path
            out.append(exp.offset + x)
            cone = exp.child
        return tuple(out)


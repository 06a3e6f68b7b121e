"""Per-module tracing of idealforms from outside the package.

``Tracer.install`` wraps the public functions of every ``idealforms``
module and rebinds each module-level name whose value is an original
function, so calls through ``from .x import f`` copies are seen too.
``DominatingBranch.dominates`` is wrapped on its class.  Nothing in the
package is edited and no private state is read.

Every wrapped call adds to its function's aggregate: calls, self time
(the call's duration minus the time of wrapped calls under it) and busy
time (the duration of outermost activations only, so recursion is not
counted twice).  Only layer entry points (``SPANS``) also record a span
(name, start, end, parent, op id); the hot kernels, called millions of
times, keep aggregates alone.

Left unwrapped, with the reason:

- generator functions (``iter_len``, ``q_iter_len``, ...): a call returns
  at once and the work happens at each ``next``, so their time stays with
  the caller, which is how ``oracle.enumerate_schema.busy_s`` shows the
  cost of enumeration;
- ``rank.rank_info``: the recursive rank kernel; two frames per level
  would push the deepest ``deep_forms`` rungs into RecursionError;
- ``trees.block_at``, ``seq_block``, ``spine_root``, ``stage_of`` and
  ``membership.q_member``: per-element helpers of the enumerators and of
  witness checks, where a wrapper would cost more than the call.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
import time
import types
from collections import Counter

SKIP = {
    "rank.rank_info",
    "trees.block_at",
    "trees.seq_block",
    "trees.spine_root",
    "trees.stage_of",
    "membership.q_member",
}

SPANS = {
    "text.parse_expr", "text.parse_tree", "text.parse_query", "text.parse_order",
    "text.parse_ordinal", "ideals.normalize", "trees.compile_ideal",
    "classification.classify", "classification.classify_via_derivative",
    "classification.scaffold_class", "rank.tree_rank", "quotient.build_quotient",
    "oracle.explicit_derivative", "oracle.enumerate_schema", "oracle.check_witness",
    "oracle.law_suite", "membership.member_of", "membership.member_perp",
    "membership.frechet_witness", "membership.id_witness", "orders.wo_classify",
    "cli.main",
}


class Stat:
    __slots__ = ("calls", "self_s", "busy_s", "active", "raised", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.active = 0
        self.raised: Counter[str] = Counter()
        self.results = 0  # summed by a per-function result hook


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        # time of wrapped callees, one accumulator per active wrapped call
        self._child = [0.0]
        self._open_span = [-1]
        self._on = [True]  # False while the worker checks answers

    # ------------------------------------------------------------------
    def install(self) -> None:
        import idealforms
        from idealforms.membership import Ternary
        from idealforms.witnesses import DominatingBranch

        hooks = {
            "quotient.build_quotient": len,
            "oracle.enumerate_schema": len,
            "membership.subset_of": lambda out: out is Ternary.UNKNOWN,
        }
        modules = [idealforms] + [
            importlib.import_module(f"idealforms.{m.name}")
            for m in pkgutil.iter_modules(idealforms.__path__)
        ]
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                key = f"{short}.{name}"
                if (
                    name.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                    or key in SKIP
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(key, fn, hooks.get(key)))
        # rebind every module-level alias of a wrapped original
        for mod in modules:
            for name, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, name, entry[1])
        DominatingBranch.dominates = self._wrap(
            "witnesses.dominates", DominatingBranch.dominates, None
        )

    # ------------------------------------------------------------------
    def _wrap(self, key: str, fn, hook):
        stat = self.stats.setdefault(key, Stat())
        child = self._child
        open_span = self._open_span
        spans = self.spans if key in SPANS else None
        on = self._on
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            stat.calls += 1
            stat.active += 1
            child.append(0.0)
            if spans is not None:
                index = len(spans)
                spans.append(None)
                parent = open_span[-1]
                open_span.append(index)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                if spans is not None:
                    open_span.pop()
                    spans[index] = (key, t0, t1, parent, self.op_id)
                stat.self_s += dt - child.pop()
                child[-1] += dt
                stat.active -= 1
                if not stat.active:
                    stat.busy_s += dt
            if hook is not None:
                stat.results += hook(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not counted (the answer checks)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-module metrics named in BENCHMARK.json (the cli.* and
        trace.* ones are measured by the runner)."""
        s = self.stats

        def calls(key: str) -> int:
            return s[key].calls if key in s else 0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        self_s: Counter[str] = Counter()
        for key, stat in s.items():
            self_s[key.split(".", 1)[0]] += stat.self_s
        out: dict[str, float] = {
            "rank.tree_rank.calls": calls("rank.tree_rank"),
            "rank.tree_rank.busy_s": s["rank.tree_rank"].busy_s,
            "quotient.build_quotient.calls": calls("quotient.build_quotient"),
            "quotient.vertices": s["quotient.build_quotient"].results,
            "quotient.overflow_ratio": ratio(
                s["quotient.build_quotient"].raised["QuotientOverflow"],
                calls("quotient.build_quotient"),
            ),
            "classification.classify.calls": calls("classification.classify"),
            "classification.classify_via_derivative.calls": calls(
                "classification.classify_via_derivative"
            ),
            "oracle.enumerate_schema.calls": calls("oracle.enumerate_schema"),
            "oracle.enum_elems": s["oracle.enumerate_schema"].results,
            "oracle.enumerate_schema.busy_s": s["oracle.enumerate_schema"].busy_s,
            "oracle.check_witness.calls": calls("oracle.check_witness"),
            "oracle.check_witness.busy_s": s["oracle.check_witness"].busy_s,
            "oracle.explicit_derivative.calls": calls("oracle.explicit_derivative"),
            "ordinals.compare.calls": calls("ordinals.compare"),
            "ordinals.add.calls": calls("ordinals.add"),
            "ordinals.fund_seq.calls": calls("ordinals.fund_seq"),
            "membership.subset_of.calls": calls("membership.subset_of"),
            "membership.unknown_ratio": ratio(
                s["membership.subset_of"].results, calls("membership.subset_of")
            ),
            "membership.frechet_witness.calls": calls("membership.frechet_witness"),
            "membership.id_witness.calls": calls("membership.id_witness"),
            "trees.compile_ideal.calls": calls("trees.compile_ideal"),
            "trees.in_id.calls": calls("trees.in_id"),
            "trees.in_wf.calls": calls("trees.in_wf"),
            "trees.is_empty.calls": calls("trees.is_empty"),
            "witnesses.dominates.calls": calls("witnesses.dominates"),
            "ideals.normalize.calls": calls("ideals.normalize"),
            "text.parse.calls": sum(
                stat.calls for key, stat in s.items() if key.startswith("text.parse_")
            ),
            "orders.wo_classify.calls": calls("orders.wo_classify"),
        }
        for module in (
            "rank", "quotient", "classification", "oracle", "ordinals",
            "membership", "trees", "witnesses", "ideals", "text", "orders",
        ):
            out[f"{module}.self_s"] = self_s[module]
        return out

    def all_calls(self) -> dict[str, int]:
        return {key: stat.calls for key, stat in sorted(self.stats.items()) if stat.calls}

"""Command-line front end.

One verb per public operation; ``--json`` switches every verb to
machine-readable output validating against docs/schemas/.  Exit codes:
0 success, 1 parse error, 2 precondition violation, 3 internal failure
(a broken law or any other exception, which is always a bug).  Every
error is one line on stderr, never a traceback.

Each handler imports the modules it runs, so a process that runs one
verb loads only what that verb needs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import BadArgument, IdealFormsError, ParseError


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except IdealFormsError as exc:  # every other engine error is a precondition
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a broken invariant or another bug: one line, no traceback
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        if args.json or "text" not in payload:  # compile --emit json has no text form
            import json

            print(json.dumps(payload["json"], indent=2))
        else:
            print(payload["text"])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as `| head` does: stop writing quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return payload.get("exit", 0)


def _integer(text: str) -> int:
    """An integer spelled in ASCII digits, as the term grammars spell
    numbers; a leading ``-`` is kept so that the range checks can name a
    negative value."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_integer.__name__ = "int"  # argparse names the type in its usage error


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealforms",
        description="canonical forms, tree classification and scattered orders",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(required=True, metavar="verb")

    def verb(subs, name, handler, help_, *specs):
        p = subs.add_parser(name, help=help_)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        p.set_defaults(handler=handler)

    verb(sub, "normalize", _cmd_normalize, "canonical form of an ideal expression",
         (["expr"], {}))
    verb(sub, "rank", _cmd_rank, "rank of an ideal expression", (["expr"], {}))
    verb(sub, "perp", _cmd_perp, "canonical form of the orthogonal", (["expr"], {}))
    verb(sub, "iso", _cmd_iso, "isomorphism of two expressions",
         (["expr1"], {}), (["expr2"], {}))
    verb(sub, "compile", _cmd_compile, "schema of the standard copy",
         (["expr"], {}),
         (["--emit"], {"choices": ["dot", "json"], "default": None}),
         (["--depth"], {"type": _integer, "default": 6}),
         (["--width"], {"type": _integer, "default": 6}),
         (["--count"], {"type": _integer, "default": 200}))
    verb(sub, "classify", _cmd_classify, "classification of a schema's restriction",
         (["tree"], {}),
         (["--via"], {"choices": ["derivative"], "default": None}))
    verb(sub, "treerank", _cmd_treerank, "derivative rank of the generated tree",
         (["tree"], {}))
    verb(sub, "member", _cmd_member, "membership of a query in a target's copy",
         (["query"], {}), (["in_kw"], {"metavar": "in"}), (["expr"], {}),
         (["--perp"], {"action": "store_true"}))
    verb(sub, "frechet", _cmd_frechet, "orthogonal infinite subset of a negative query",
         (["query"], {}), (["in_kw"], {"metavar": "in"}), (["expr"], {}))
    verb(sub, "idwitness", _cmd_idwitness, "domination or unboundedness witness",
         (["query"], {}))
    verb(sub, "enumerate", _cmd_enumerate, "budgeted enumeration of a schema or query",
         (["query"], {}),
         (["--budget"], {"default": "6,6,200", "metavar": "D,W,C"}))
    verb(sub, "selftest", _cmd_selftest, "seeded law suite across all modules",
         (["--seed"], {"type": _integer, "default": 42}),
         (["--trials"], {"type": _integer, "default": 50}))

    wo = sub.add_parser("wo", help="well-ordered-subset ideals of linear orders")
    wo_sub = wo.add_subparsers(required=True, metavar="verb")
    verb(wo_sub, "classify", _cmd_wo_classify, "classification of a linear order term",
         (["order"], {}))
    verb(wo_sub, "reverse", _cmd_wo_reverse, "reversal and its classification", (["order"], {}))
    verb(wo_sub, "rationalize", _cmd_wo_rationalize, "embed the order into the rationals",
         (["order"], {}), (["--count"], {"type": _integer, "default": 10}))
    return parser


def _form_json(c: ideals.CanonicalForm) -> dict:
    return {"kind": c.kind.value, "rank": str(c.rank), "printed": str(c)}


def _cmd_normalize(args) -> dict:
    from . import ideals, text

    c = ideals.normalize(text.parse_expr(args.expr))
    return {"text": str(c), "json": _form_json(c)}


def _cmd_rank(args) -> dict:
    from . import ideals, text

    r = ideals.b_rank(text.parse_expr(args.expr))
    return {"text": str(r), "json": {"rank": str(r)}}


def _cmd_perp(args) -> dict:
    from . import ideals, text

    c = ideals.perp(ideals.normalize(text.parse_expr(args.expr)))
    return {"text": str(c), "json": _form_json(c)}


def _cmd_iso(args) -> dict:
    from . import ideals, text

    same = ideals.iso_check(text.parse_expr(args.expr1), text.parse_expr(args.expr2))
    word = "isomorphic" if same else "non-isomorphic"
    return {"text": word, "json": {"isomorphic": same}}


def _cmd_compile(args) -> dict:
    from . import text, trees

    t = trees.compile_ideal(text.parse_expr(args.expr))
    if args.emit is None:
        return {"text": str(t), "json": {"schema": str(t)}}
    from . import oracle

    budget = oracle.Budget(args.depth, args.width, args.count)
    elems = oracle.enumerate_schema(t, budget)
    if args.emit == "json":
        return {"json": {
            "schema": str(t),
            "budget": {"depth": budget.depth, "width": budget.width, "count": budget.count},
            "elements": [list(u) for u in elems],
            "truncated": True,
        }}
    dot = _dot_of(t, elems)
    return {"text": dot, "json": {"schema": str(t), "dot": dot}}


def _dot_of(t: trees.TreeSchema, elems: list[trees.Seq]) -> str:
    from . import text, trees

    nodes: set[trees.Seq] = {()}
    for u in elems:
        for i in range(len(u) + 1):
            nodes.add(u[:i])
    lines = ["digraph schema {"]
    order = sorted(nodes, key=lambda u: (len(u), u))  # shortlex
    names = {u: f"n{i}" for i, u in enumerate(order)}
    for u in order:
        shape = "doublecircle" if trees.member_elem(u, t) else "circle"
        label = text.format_seq_elem(u)
        lines.append(f'  {names[u]} [label="{label}", shape={shape}];')
    for u in order[1:]:  # every node but the root, which sorts first
        lines.append(f"  {names[u[:-1]]} -> {names[u]};")
    lines.append("}")
    return "\n".join(lines)


def _class_payload(out: classification.TreeClass) -> dict:
    from . import classification, text

    if isinstance(out, classification.Borel):
        return {
            "text": f"BOREL {out.form}",
            "json": {"verdict": "borel", "form": _form_json(out.form)},
        }
    w = out.witness
    sample = [list(w.map((k,))) for k in range(4)]
    return {
        "text": f"NON-BOREL (embedding witness: {w.label}; "
                f"images of <0>..<3>: {', '.join(text.format_seq_elem(tuple(u)) for u in sample)})",
        "json": {
            "verdict": "non-borel",
            "witness": _witness_json(w, checked=None),
        },
    }


def _cmd_classify(args) -> dict:
    from . import classification, text

    t = text.parse_tree(args.tree)
    out = classification.classify_via_derivative(t) if args.via else classification.classify(t)
    return _class_payload(out)


def _cmd_treerank(args) -> dict:
    from . import rank, text

    r, core_empty = rank.tree_rank(text.parse_tree(args.tree))
    return {
        "text": f"rank {r}, core {'empty' if core_empty else 'nonempty'}",
        "json": {"rank": str(r), "coreEmpty": core_empty},
    }


def _parse_member_args(args) -> tuple[membership.QueryTerm, ideals.IdealExpr]:
    from . import text

    if args.in_kw != "in":
        raise ParseError(f"expected the keyword 'in', got {args.in_kw!r}")
    return text.parse_query(args.query), text.parse_expr(args.expr)


def _cmd_member(args) -> dict:
    from . import ideals, membership

    q, e = _parse_member_args(args)
    verdict = (membership.member_perp if args.perp else membership.member_of)(q, e)
    target = str(ideals.normalize(e))
    where = f"orthogonal of {target}" if args.perp else target
    word = "member" if verdict else "not a member"
    return {
        "text": f"{word} of {where}",
        "json": {"member": verdict, "perp": args.perp, "target": target},
    }


def _cmd_frechet(args) -> dict:
    from . import membership, oracle

    q, e = _parse_member_args(args)
    w = membership.frechet_witness(q, e)
    checked = oracle.check_witness(w, (q, e), oracle.WITNESS_BUDGET)
    if not checked:  # not an assert: the check must run under python -O too
        raise AssertionError("emitted orthogonal subset failed its own check")
    return {
        "text": str(w),
        "json": _witness_json(w, checked=oracle.WITNESS_BUDGET),
    }


def _cmd_idwitness(args) -> dict:
    from . import membership, oracle, text, witnesses

    q = text.parse_query(args.query)
    w = membership.id_witness(q)
    checked = oracle.check_witness(w, q, oracle.WITNESS_BUDGET)
    if not checked:
        raise AssertionError("emitted domination witness failed its own check")
    if isinstance(w, witnesses.DominatingBranch):
        txt = f"dominating branch {w}"
    else:
        sample = ", ".join(text.format_seq_elem(u) for u in w.elements(4))
        txt = f"unbounded family: {sample}, ..."
    return {"text": txt, "json": _witness_json(w, checked=oracle.WITNESS_BUDGET)}


def _witness_json(w, checked: oracle.Budget | None) -> dict:
    from . import witnesses

    if isinstance(w, witnesses.DominatingBranch):
        kind, data = "dominating-branch", {"prefix": list(w.prefix), "period": list(w.period)}
    elif isinstance(w, witnesses.UnboundedFamily):
        kind, data = "unbounded-family", {"elements": [list(u) for u in w.elements(12)]}
    elif isinstance(w, witnesses.EmbeddingWitness):
        kind, data = "embedding", {
            "label": w.label,
            "provenance": list(w.provenance),
            "generatedTree": w.generated,
            "sampleImages": [list(w.map((k,))) for k in range(4)],
        }
    else:
        kind, data = "frechet-subset", {"query": str(w)}
    budget = (
        {"depth": checked.depth, "width": checked.width, "count": checked.count}
        if checked
        else None
    )
    return {"kind": kind, "data": data, "checkedAtBudget": budget}


def _cmd_enumerate(args) -> dict:
    from . import oracle, text

    q = text.parse_query(args.query)
    try:
        d, w, c = (_integer(x) for x in args.budget.split(","))
    except ValueError as exc:
        raise ParseError(f"budget must be D,W,C: {args.budget!r}") from exc
    elems = oracle.enumerate_schema(q, oracle.Budget(d, w, c))
    return {
        "text": "\n".join(text.format_seq_elem(u) for u in elems) or "(no elements)",
        "json": {
            "budget": {"depth": d, "width": w, "count": c},
            "elements": [list(u) for u in elems],
        },
    }


def _cmd_selftest(args) -> dict:
    from . import oracle

    report = oracle.law_suite(args.seed, args.trials)
    lines = [
        f"{'ok  ' if law.failures == 0 else 'FAIL'} {law.name}: "
        f"{law.trials - law.failures}/{law.trials}"
        + (f"  first: {law.first_counterexample}" if law.failures else "")
        for law in report.laws
    ]
    lines.append("all laws hold" if report.all_pass else "LAW VIOLATED")
    return {
        "text": "\n".join(lines),
        "json": report.to_json(),
        "exit": 0 if report.all_pass else 3,
    }


def _cmd_wo_classify(args) -> dict:
    from . import orders, text

    out = orders.wo_classify(text.parse_order(args.order))
    return _wo_payload(out)


def _wo_payload(out: orders.WoClass) -> dict:
    from fractions import Fraction

    from . import orders

    if isinstance(out, orders.Scattered):
        return {
            "text": f"scattered, {out.form}",
            "json": {"scattered": True, "form": _form_json(out.form)},
        }
    emb = out.embedding
    sample = [str(emb.map(Fraction(k))) for k in (-1, 0, 1)]
    return {
        "text": f"NON-SCATTERED (dense embedding; images of -1,0,1: {', '.join(sample)})",
        "json": {
            "scattered": False,
            "witness": {
                "kind": "order-embedding",
                "data": {"path": [list(p) if isinstance(p, tuple) else p for p in emb.path],
                          "sampleImages": sample},
                "checkedAtBudget": None,
            },
        },
    }


def _cmd_wo_reverse(args) -> dict:
    from . import orders, text

    rev, out = orders.wo_self_dual(text.parse_order(args.order))
    inner = _wo_payload(out)
    return {
        "text": f"{rev}\n{inner['text']}",
        "json": {"reversal": str(rev), "classification": inner["json"]},
    }


def _cmd_wo_rationalize(args) -> dict:
    from . import orders, text

    if args.count < 0:
        raise BadArgument(f"--count must be >= 0, got {args.count}")
    values = orders.rationalize(text.parse_order(args.order), args.count)
    return {
        "text": ", ".join(str(v) for v in values),
        "json": {"rationals": [str(v) for v in values]},
    }


if __name__ == "__main__":
    sys.exit(main())

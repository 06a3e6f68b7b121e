"""CLI handlers of the verbs that read an ideal expression: ``normalize``,
``rank``, ``perp``, ``iso`` and ``compile``.  See ``cli`` for the table
that names them.  Every verb here runs ``ideals`` and ``text``; only
``compile`` imports ``trees``, and only ``compile --emit`` the oracle."""

from __future__ import annotations

from . import ideals, text


def _cmd_normalize(args) -> dict:
    c = ideals.normalize(text.parse_expr(args.expr))
    return {"text": str(c), "json": c.to_json()}


def _cmd_rank(args) -> dict:
    r = ideals.b_rank(text.parse_expr(args.expr))
    return {"text": str(r), "json": {"rank": str(r)}}


def _cmd_perp(args) -> dict:
    c = ideals.perp(ideals.normalize(text.parse_expr(args.expr)))
    return {"text": str(c), "json": c.to_json()}


def _cmd_iso(args) -> dict:
    same = ideals.iso_check(text.parse_expr(args.expr1), text.parse_expr(args.expr2))
    word = "isomorphic" if same else "non-isomorphic"
    return {"text": word, "json": {"isomorphic": same}}


def _cmd_compile(args) -> dict:
    from . import trees

    t = trees.compile_ideal(text.parse_expr(args.expr))
    if args.emit is None:
        return {"text": str(t), "json": {"schema": str(t)}}
    from . import oracle

    budget = oracle.Budget(args.depth, args.width, args.count)
    elems = oracle.enumerate_schema(t, budget)
    if args.emit == "json":
        return {"json": {
            "schema": str(t),
            "budget": budget.to_json(),
            "elements": [list(u) for u in elems],
            "truncated": True,
        }}
    dot = _dot_of(t, elems)
    return {"text": dot, "json": {"schema": str(t), "dot": dot}}


def _dot_of(t: trees.TreeSchema, elems: list[trees.Seq]) -> str:
    from . import trees

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


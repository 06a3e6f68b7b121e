"""CLI handlers of the verbs that decide a schema or a query and print
its witness: ``classify``, ``treerank``, ``member``, ``frechet`` and
``idwitness``.  See ``cli`` for the table that names them.  Every verb
here runs ``ideals`` and ``text``; each handler imports the decision
procedures and checkers that some of the other verbs do not run."""

from __future__ import annotations

from . import ideals, text
from .errors import ParseError


def _cmd_classify(args) -> dict:
    from . import classification

    t = text.parse_tree(args.tree)
    out = classification.classify_via_derivative(t) if args.via else classification.classify(t)
    if isinstance(out, classification.Borel):
        return {"text": f"BOREL {out.form}",
                "json": {"verdict": "borel", "form": out.form.to_json()}}
    w = out.witness
    data = _witness_json(w, checked=None)
    sample = ", ".join(map(text.format_seq_elem, data["data"]["sampleImages"]))
    return {
        "text": f"NON-BOREL (embedding witness: {w.label}; images of <0>..<3>: {sample})",
        "json": {"verdict": "non-borel", "witness": data},
    }


def _cmd_treerank(args) -> dict:
    from . import rank

    r, core_empty = rank.tree_rank(text.parse_tree(args.tree))
    return {
        "text": f"rank {r}, core {'empty' if core_empty else 'nonempty'}",
        "json": {"rank": str(r), "coreEmpty": core_empty},
    }


def _parse_member_args(args) -> tuple[trees.QueryTerm, ideals.IdealExpr]:
    if args.in_kw != "in":
        raise ParseError(f"expected the keyword 'in', got {args.in_kw!r}")
    return text.parse_query(args.query), text.parse_expr(args.expr)


def _cmd_member(args) -> dict:
    from . import membership

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
    checked = oracle.check_witness(w, q, oracle.WITNESS_BUDGET)
    if not checked:  # not an assert: the check must run under python -O too
        raise AssertionError("emitted orthogonal subset failed its own check")
    return {"text": str(w), "json": _witness_json(w, checked=oracle.WITNESS_BUDGET)}


def _cmd_idwitness(args) -> dict:
    from . import membership, oracle, witnesses

    q = text.parse_query(args.query)
    w = membership.id_witness(q)
    checked = oracle.check_witness(w, q, oracle.WITNESS_BUDGET)
    if not checked:
        raise AssertionError("emitted domination witness failed its own check")
    data = _witness_json(w, checked=oracle.WITNESS_BUDGET)
    if isinstance(w, witnesses.DominatingBranch):
        txt = f"dominating branch {w}"
    else:  # a family lists its elements in one order, so the JSON's first 4 are its first 4
        sample = ", ".join(map(text.format_seq_elem, data["data"]["elements"][:4]))
        txt = f"unbounded family: {sample}, ..."
    return {"text": txt, "json": data}


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
    return {"kind": kind, "data": data, "checkedAtBudget": checked and checked.to_json()}


"""CLI handlers of the ``wo`` verbs on linear order terms: ``classify``,
``reverse`` and ``rationalize``.  See ``cli`` for the table that names
them; each handler imports the modules it runs."""

from __future__ import annotations

from .errors import BadArgument


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
            "json": {"scattered": True, "form": out.form.to_json()},
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


HANDLERS = {"classify": _cmd_wo_classify, "reverse": _cmd_wo_reverse,
            "rationalize": _cmd_wo_rationalize}

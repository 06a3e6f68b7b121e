"""CLI handlers of the ``wo`` verbs on linear order terms: ``classify``,
``reverse`` and ``rationalize``.  See ``cli`` for the table that names
them."""

from __future__ import annotations

from fractions import Fraction

from . import orders, text
from .errors import BadArgument


def _cmd_classify(args) -> dict:
    out = orders.wo_classify(text.parse_order(args.order))
    return _wo_payload(out)


def _wo_payload(out: orders.WoClass) -> dict:
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


def _cmd_reverse(args) -> dict:
    rev, out = orders.wo_self_dual(text.parse_order(args.order))
    inner = _wo_payload(out)
    return {
        "text": f"{rev}\n{inner['text']}",
        "json": {"reversal": str(rev), "classification": inner["json"]},
    }


def _cmd_rationalize(args) -> dict:
    if args.count < 0:
        raise BadArgument(f"--count must be >= 0, got {args.count}")
    values = orders.rationalize(text.parse_order(args.order), args.count)
    return {
        "text": ", ".join(str(v) for v in values),
        "json": {"rationals": [str(v) for v in values]},
    }


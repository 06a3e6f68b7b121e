"""CLI handlers of the verbs that run the checker kernel alone:
``enumerate`` and ``selftest``.  See ``cli`` for the table that names
them."""

from . import oracle, text


def _cmd_enumerate(args) -> dict:
    q = text.parse_query(args.query)
    budget = oracle.Budget(*args.budget)
    elems = oracle.enumerate_schema(q, budget)
    return {
        "text": "\n".join(text.format_seq_elem(u) for u in elems) or "(no elements)",
        "json": {
            "budget": budget.to_json(),
            "elements": [list(u) for u in elems],
        },
    }


def _cmd_selftest(args) -> dict:
    report = oracle.law_suite(args.seed, args.trials)
    lines = [
        f"{'ok  ' if law.failures == 0 else 'FAIL'} {law.name}: "
        f"{law.trials - law.failures}/{law.trials}"
        + (f" ({law.checked} checked)" if law.checked < law.trials else "")
        + (f"  first: {law.first_counterexample}" if law.failures else "")
        for law in report.laws
    ]
    lines.append("all laws hold" if report.all_pass else "LAW VIOLATED")
    return {
        "text": "\n".join(lines),
        "json": report.to_json(),
        "exit": 0 if report.all_pass else 3,
    }


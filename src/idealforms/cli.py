"""Command-line front end.

One verb per public operation; ``--json`` switches every verb to
machine-readable output validating against docs/schemas/.  Exit codes:
0 success, 1 parse error, 2 precondition violation or running out of
memory, 3 internal failure (a broken law or any other exception, which
is always a bug).  Every error is one line on stderr, never a traceback.

A process that runs one verb compiles and loads only what it runs:
``main`` builds that verb's subparser alone, imports the one handler
module (``cli_*``) that its row of ``_VERBS`` names, and calls that
module's ``_cmd_<verb>``.  No handler module imports this one, which
``python -m`` would compile a second time.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _submodule
from .errors import IdealFormsError, ParseError


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        module, verb = args.handler
        payload = getattr(_submodule(module), f"_cmd_{verb}")(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except IdealFormsError as exc:  # every other engine error is a precondition
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a request too large for this machine, not a bug
        print("MemoryError: not enough memory for this request", file=sys.stderr)
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


def _budget(text: str) -> tuple[int, int, int]:
    """``--budget D,W,C``: a malformed one is a parse error, as a term is."""
    try:
        d, w, c = map(_integer, text.split(","))
    except ValueError as exc:
        raise ParseError(f"budget must be D,W,C: {text!r}") from exc
    return d, w, c


# verb -> (handler module, help, argument specs); "wo" holds the verbs of _WO
_VERBS = {
    "normalize": ("cli_ideals", "canonical form of an ideal expression", (["expr"], {})),
    "rank": ("cli_ideals", "rank of an ideal expression", (["expr"], {})),
    "perp": ("cli_ideals", "canonical form of the orthogonal", (["expr"], {})),
    "iso": ("cli_ideals", "isomorphism of two expressions", (["expr1"], {}), (["expr2"], {})),
    "compile": ("cli_ideals", "schema of the standard copy",
                (["expr"], {}),
                (["--emit"], {"choices": ["dot", "json"], "default": None}),
                (["--depth"], {"type": _integer, "default": 6}),
                (["--width"], {"type": _integer, "default": 6}),
                (["--count"], {"type": _integer, "default": 200})),
    "classify": ("cli_schemas", "classification of a schema's restriction",
                 (["tree"], {}),
                 (["--via"], {"choices": ["derivative"], "default": None})),
    "treerank": ("cli_schemas", "derivative rank of the generated tree", (["tree"], {})),
    "member": ("cli_schemas", "membership of a query in a target's copy",
               (["query"], {}), (["in_kw"], {"metavar": "in"}), (["expr"], {}),
               (["--perp"], {"action": "store_true"})),
    "frechet": ("cli_schemas", "orthogonal infinite subset of a negative query",
                (["query"], {}), (["in_kw"], {"metavar": "in"}), (["expr"], {})),
    "idwitness": ("cli_schemas", "domination or unboundedness witness", (["query"], {})),
    "enumerate": ("cli_oracle", "budgeted enumeration of a schema or query",
                  (["query"], {}),
                  (["--budget"], {"type": _budget, "default": "6,6,200", "metavar": "D,W,C"})),
    "selftest": ("cli_oracle", "seeded law suite across all modules",
                 (["--seed"], {"type": _integer, "default": 42}),
                 (["--trials"], {"type": _integer, "default": 50})),
    "wo": (None, "well-ordered-subset ideals of linear orders"),
}
_WO = {
    "classify": ("cli_orders", "classification of a linear order term", (["order"], {})),
    "reverse": ("cli_orders", "reversal and its classification", (["order"], {})),
    "rationalize": ("cli_orders", "embed the order into the rationals",
                    (["order"], {}), (["--count"], {"type": _integer, "default": 10})),
}


def _build_parser(argv: list[str] | tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The parser of every verb, or of the one verb that ``argv`` names
    first after ``--json``: parsing that argv reads no other subparser,
    and each one built costs start-up time."""
    parser = argparse.ArgumentParser(
        prog="idealforms",
        description="canonical forms, tree classification and scattered orders",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(required=True, metavar="verb")

    def add(subs, name, module, help_, *specs):
        p = subs.add_parser(name, help=help_)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        p.set_defaults(handler=(module, name))

    first = next((a for a in argv if a != "--json"), None)
    for name in [first] if first in _VERBS else _VERBS:
        if name != "wo":
            add(sub, name, *_VERBS[name])
            continue
        wo = sub.add_parser(name, help=_VERBS[name][1]).add_subparsers(required=True, metavar="verb")
        for verb, row in _WO.items():
            add(wo, verb, *row)
    return parser


if __name__ == "__main__":
    sys.exit(main())

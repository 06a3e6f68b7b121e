"""Command-line front end.

One verb per public operation; ``--json`` switches every verb to
machine-readable output validating against docs/schemas/.  Exit codes:
0 success, 1 parse error, 2 precondition violation or running out of
memory, 3 internal failure (a broken law or any other exception, which
is always a bug).  Every error is one line on stderr, never a traceback.

A process that runs one verb compiles and loads only what it runs.
``main`` reads a well-formed argv straight from the verb's row of
``_VERBS`` or ``_WO`` into the namespace that argparse would return.  Any
other argv (help, a usage error, an option spelled otherwise) goes to
argparse, which is imported only then and builds that verb's subparser
alone, so the verb table is the one description of a verb and argparse
the one printer of help and usage.  ``main`` then imports the one
handler module (``cli_*``) that the row names and calls that module's
``_cmd_<verb>``.  No handler module imports this one, which
``python -m`` would compile a second time.  ``python -m`` and the
installed script run ``entry``, which freezes the collector however
``main`` ends: the interpreter's shutdown collections then skip the
verb's heap.  ``main`` and the package leave the collector alone.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import _submodule
from .errors import IdealFormsError, ParseError


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _table_args(argv) or _build_parser(argv).parse_args(argv)
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


def entry() -> int:
    """``main`` as the console entry runs it; see the module docstring."""
    try:
        return main()
    finally:
        gc.freeze()


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


# verb -> (handler module, help, (name, kwargs) per argument); "wo" holds the verbs of _WO
_VERBS = {
    "normalize": ("cli_ideals", "canonical form of an ideal expression", ("expr", {})),
    "rank": ("cli_ideals", "rank of an ideal expression", ("expr", {})),
    "perp": ("cli_ideals", "canonical form of the orthogonal", ("expr", {})),
    "iso": ("cli_ideals", "isomorphism of two expressions", ("expr1", {}), ("expr2", {})),
    "compile": ("cli_ideals", "schema of the standard copy",
                ("expr", {}),
                ("--emit", {"choices": ["dot", "json"], "default": None}),
                ("--depth", {"type": _integer, "default": 6}),
                ("--width", {"type": _integer, "default": 6}),
                ("--count", {"type": _integer, "default": 200})),
    "classify": ("cli_schemas", "classification of a schema's restriction",
                 ("tree", {}),
                 ("--via", {"choices": ["derivative"], "default": None})),
    "treerank": ("cli_schemas", "derivative rank of the generated tree", ("tree", {})),
    "member": ("cli_schemas", "membership of a query in a target's copy",
               ("query", {}), ("in_kw", {"metavar": "in"}), ("expr", {}),
               ("--perp", {"action": "store_true"})),
    "frechet": ("cli_schemas", "orthogonal infinite subset of a negative query",
                ("query", {}), ("in_kw", {"metavar": "in"}), ("expr", {})),
    "idwitness": ("cli_schemas", "domination or unboundedness witness", ("query", {})),
    "enumerate": ("cli_oracle", "budgeted enumeration of a schema or query",
                  ("query", {}),
                  ("--budget", {"type": _budget, "default": (6, 6, 200), "metavar": "D,W,C"})),
    "selftest": ("cli_oracle", "seeded law suite across all modules",
                 ("--seed", {"type": _integer, "default": 42}),
                 ("--trials", {"type": _integer, "default": 50})),
    "wo": (None, "well-ordered-subset ideals of linear orders"),
}
_WO = {
    "classify": ("cli_orders", "classification of a linear order term", ("order", {})),
    "reverse": ("cli_orders", "reversal and its classification", ("order", {})),
    "rationalize": ("cli_orders", "embed the order into the rationals",
                    ("order", {}), ("--count", {"type": _integer, "default": 10})),
}


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser(argv).parse_args(argv)`` returns for a
    well-formed ``argv``, read from the verb's row; None for an argv that
    argparse alone must parse, print or reject.  A converter's ParseError
    propagates, as it does through argparse."""
    as_json = argv[:1] == ["--json"]
    name, *rest = argv[as_json:] or [None]
    row = _VERBS.get(name)
    if row is not None and row[0] is None:  # "wo", then one verb of _WO
        name, *rest = rest or [None]
        row = _WO.get(name)
    if row is None:
        return None  # an unknown verb
    specs = {spec: (spec.lstrip("-"), kw) for spec, kw in row[2:]}  # spec name: (dest, kwargs)
    free = [key for key in specs if key[0] != "-"]  # the positionals, in order
    args, tokens = {"json": as_json, "handler": (row[0], name)}, iter(rest)
    try:
        for token in tokens:
            # the next positional, or an option spelled out in full and given once
            key = token if token[:1] == "-" else free.pop(0) if free else None
            dest, kw = specs.get(key, (None, None))
            if kw is None or dest in args:  # help, an unknown or repeated option, a token too many
                return None
            if "action" in kw:  # a flag
                args[dest] = True
                continue
            text = token if token[:1] != "-" else next(tokens, "-")
            if text[:1] == "-":  # a value that argparse would take for an option
                return None
            args[dest] = kw["type"](text) if "type" in kw else text
            if "choices" in kw and args[dest] not in kw["choices"]:
                return None
        if free:
            return None
        for dest, kw in specs.values():
            args.setdefault(dest, kw.get("default", False if "action" in kw else None))
    except ValueError:  # argparse prints the usage and the error
        return None
    return SimpleNamespace(**args)


def _build_parser(argv: list[str] | tuple[str, ...] = ()):
    """The parser of every verb, or of the one verb that ``argv`` names
    first after ``--json``: parsing that argv reads no other subparser,
    and each one built costs start-up time."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="idealforms",
        description="canonical forms, tree classification and scattered orders",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(required=True, metavar="verb")

    def add(subs, name, module, help_, *specs):
        p = subs.add_parser(name, help=help_)
        for spec, kw in specs:
            p.add_argument(spec, **kw)
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
    sys.exit(entry())

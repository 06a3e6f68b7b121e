"""Exception types shared across the engine.

Every precondition failure maps to one of these; the CLI translates them
to exit code 2, while parse failures map to exit code 1.
"""

from __future__ import annotations


class IdealFormsError(Exception):
    """Base class for all engine errors."""


class ParseError(IdealFormsError):
    """Input text does not conform to one of the published grammars."""


class BadArgument(IdealFormsError, ValueError):
    """A well-formed term, budget or count is out of its allowed range."""


class NotLimit(IdealFormsError):
    """An operation requiring a limit ordinal received 0 or a successor."""


class FiniteSchema(IdealFormsError):
    """Classification was asked for a schema denoting a finite set."""


class NotASubset(IdealFormsError):
    """Membership query set is provably not contained in the target set."""


class UnknownContainment(IdealFormsError):
    """Containment was left undecided, which happens only past a diagonal tail."""


class QuotientOverflow(IdealFormsError):
    """The block quotient needs more representatives than the budget allows."""

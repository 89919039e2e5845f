"""Exception hierarchy shared by all conepit modules, and the integer readers
``integer`` and ``natural``, which read into it."""

import json
from typing import Any

import numpy as np


class ConepitError(Exception):
    """Base class for every error raised by this package."""


class UsageError(ConepitError):
    """Malformed input documents or values (CLI exit code 2)."""


class PreconditionError(ConepitError):
    """A mathematical precondition of an operation does not hold (CLI exit code 3)."""


class ParseError(UsageError):
    pass


class ValidationError(UsageError):
    pass


class ArityMismatch(PreconditionError):
    pass


class FieldMismatch(PreconditionError):
    pass


class MixedFields(FieldMismatch):
    pass


class ZeroInverse(PreconditionError):
    pass


class CharTooSmall(PreconditionError):
    pass


class ZeroPolynomial(PreconditionError):
    pass


class TooLarge(PreconditionError):
    pass


class DuplicateNodes(PreconditionError):
    pass


class EmptyInput(PreconditionError):
    pass


class ArityTooSmall(PreconditionError):
    pass


class BadParameters(PreconditionError):
    pass


class DesignTooSmall(PreconditionError):
    pass


class RaggedInput(PreconditionError):
    pass


class RankZero(PreconditionError):
    pass


class NotIsolating(PreconditionError):
    pass


class VerificationFailed(ConepitError):
    """A guaranteed verification step failed; indicates a bug or a violated caller promise."""


def integer(value: Any) -> int | None:
    """The int that an int or a numpy integer equals, else None: no float,
    bool or string is one."""
    return int(value) if type(value) is int or isinstance(value, np.integer) else None


def natural(value: Any, what: str, error: type[ConepitError] = ParseError) -> int:
    """An :func:`integer` >= 0, as the int it equals, else ``error`` (a JSON
    value's :class:`ParseError`)."""
    v = integer(value)
    if v is None or v < 0:
        raise error(f"{what} must be a natural number, got {json.dumps(value, default=repr)}")
    return v

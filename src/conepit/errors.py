"""Exception hierarchy shared by all conepit modules, and ``natural``, which reads into it."""

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


def natural(value: Any, what: str, error: type[ConepitError] = ParseError) -> int:
    """An integer >= 0, a numpy one too, as the int it equals, else ``error``
    (a JSON value's :class:`ParseError`): no float, bool or string is one."""
    if type(value) is not int and not isinstance(value, np.integer) or value < 0:
        raise error(f"{what} must be a natural number, got {json.dumps(value, default=repr)}")
    return int(value)

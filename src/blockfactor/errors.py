"""Exception hierarchy and input-type checks shared by all blockfactor modules."""

import math
import numbers

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number; a bool is not
    one, and neither is NaN or an infinity."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) < math.inf


def integer_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array, or InvalidInputError naming ``name``.
    An int64 array comes back itself, unscanned, so callers must not write
    to it.  Other input must hold integers within int64 in an integer or
    float dtype: [0.0, 1.0] passes; 0.5, NaN, bools and strings do not."""
    try:
        a = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        raise InvalidInputError(f"{name} must be integers") from None
    if a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64, copy=False)
    if a.dtype.kind in "uf" and (np.isfinite(a) & (np.floor(a) == a) & (np.abs(a) < 2**63)).all():
        return a.astype(np.int64)
    raise InvalidInputError(f"{name} must be integers")


def float_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array, or InvalidInputError naming ``name``; a
    float64 array comes back itself, uncopied, so callers must not write to it.
    Complex input is refused, since the cast would drop its imaginary part."""
    try:
        a = np.asarray(values)
        if a.dtype.kind != "c":
            return a.astype(np.float64, copy=False)
    except (OverflowError, TypeError, ValueError):
        pass
    raise InvalidInputError(f"{name} must be an array of real numbers")


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, or InvalidInputError for a seed it refuses."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid seed {seed!r}: {exc}") from None


class BlockfactorError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(BlockfactorError, ValueError):
    """An argument the function cannot use: a value out of range or
    malformed (non-finite matrix entries, a community count outside
    [1, n], an unknown method or option), shapes or lengths that do not
    agree, or a graph or block model the operation is undefined on (an
    isolated node, an empty graph, a zero expected degree, an unreachable
    average degree, more labels than the permutation search allows).
    The message names the offending node, row or count and, where one
    exists, the remedy.

    It is also a ValueError, so callers that catch that keep working.
    """


class GraphParseError(BlockfactorError):
    """A graph file could not be parsed, or an edge in it names an
    undeclared node; ``line`` is the file line, when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonFiniteUpdateError(BlockfactorError):
    """A multiplicative update produced NaN or infinity (bad scaling)."""


class NoConvergenceError(BlockfactorError):
    """The eigensolver failed to converge."""


class MissingFixtureError(BlockfactorError):
    """A benchmark dataset is not present in the data directory."""

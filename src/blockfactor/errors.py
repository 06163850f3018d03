"""Exception hierarchy and input-type checks shared by all blockfactor modules."""

import numbers

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    float64 array comes back itself, uncopied, so callers must not write to it."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (OverflowError, TypeError, ValueError):
        raise InvalidInputError(f"{name} must be an array of numbers") from None


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, or InvalidInputError for a seed it refuses."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid seed {seed!r}: {exc}") from None


class BlockfactorError(Exception):
    """Base class for all errors raised by this package."""


class IsolatedNodeError(BlockfactorError):
    """A node has degree zero, so the normalized Laplacian is undefined.

    The usual remedy is to restrict the graph to its largest connected
    component first.
    """

    def __init__(self, node: int):
        self.node = node
        super().__init__(
            f"node {node} is isolated (degree 0); restrict to the largest "
            "connected component before building the normalized Laplacian"
        )


class InvalidInputError(BlockfactorError, ValueError):
    """An argument is out of range or malformed: non-finite matrix entries,
    a community count outside [1, n], an unknown method or option.

    It is also a ValueError, so callers that catch that keep working.
    """


class EmptyGraphError(BlockfactorError):
    """Operation requires at least one node."""


class GraphParseError(BlockfactorError):
    """A graph file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DanglingEdgeError(GraphParseError):
    """An edge references a node id that was never declared."""


class ZeroExpectedDegreeError(BlockfactorError):
    """A node has expected degree zero under the block model."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} has zero expected degree")


class InfeasibleDegreeError(BlockfactorError):
    """No valid probability matrix reaches the requested average degree."""


class NonFiniteUpdateError(BlockfactorError):
    """A multiplicative update produced NaN or infinity (bad scaling)."""


class DimensionMismatchError(BlockfactorError):
    """Matrix or vector dimensions do not agree."""


class AllZeroRowError(BlockfactorError):
    """A factor row has no positive entry, so it cannot be assigned."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} of H has no positive entry (degenerate factorization)")


class NoConvergenceError(BlockfactorError):
    """The eigensolver failed to converge."""


class LengthMismatchError(BlockfactorError):
    """Two partitions have different lengths."""


class TooManyLabelsError(BlockfactorError):
    """Exact permutation matching is limited to 8 labels."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(
            f"{k} labels exceed the exact permutation-search bound of 8; "
            "an assignment-solver extension is required for larger K"
        )


class MissingFixtureError(BlockfactorError):
    """A benchmark dataset is not present in the data directory."""

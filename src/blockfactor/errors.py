"""Exception hierarchy shared by all blockfactor modules."""


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


class DcsbmEntryOutOfRangeError(BlockfactorError):
    """A DCSBM population entry exceeds 1 and cannot be a probability."""


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

"""Exception types raised across the package.

Everything derives from :class:`TournamentError` so callers can catch the
whole family with one clause.  The CLI maps these to exit code 2 (or 1 for
``validate``, where a bad file is the negative answer rather than a crash).
"""


class TournamentError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(TournamentError):
    """A vertex was paired with itself."""


class VertexOutOfRangeError(TournamentError):
    """A vertex id is not in [0, n)."""


class DuplicatePairError(TournamentError):
    """An unordered pair appears more than once."""


class MissingPairError(TournamentError):
    """An unordered pair of a complete graph has no weight."""


class OutOfRangeProbabilityError(TournamentError):
    """A probability is not a real number or lies outside the allowed
    [eta, 1 - eta] band."""


class DimensionMismatchError(TournamentError):
    """A vector's length does not match the vertex count."""


class DegenerateCycleError(TournamentError):
    """A cycle is shorter than 3 vertices or repeats a vertex."""


class NotASpanningTreeError(TournamentError):
    """An edge set is not a spanning tree of the complete graph."""


class TooFewVerticesError(TournamentError):
    """The operation needs at least 3 vertices."""


class ParameterOutOfRangeError(TournamentError):
    """A numeric parameter (eps, delta, tol, noise, ...) is out of range."""


class PreconditionFailedError(TournamentError):
    """A stated precondition of the operation does not hold for the input."""


class DeskScaleExceededError(TournamentError):
    """The input is too large for an exhaustive desk-scale operation."""


class ParseError(TournamentError):
    """A tournament or tree file is malformed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LabelError(TournamentError, ValueError):
    """Vertex labels a tournament file cannot carry: a wrong count, or a label
    that is empty or holds a comma or whitespace."""


class ClampWarning(UserWarning):
    """A computed weight fell outside [eta, 1 - eta] and was clamped."""

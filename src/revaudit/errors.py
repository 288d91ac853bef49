"""Exception types shared across the toolkit."""


class RevauditError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1

    def payload(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


class ParseError(RevauditError):
    """A record in an input file could not be decoded."""


class ReferentialError(RevauditError):
    """A review references a reviewer or submission that does not exist."""


class ValidationError(RevauditError):
    """A record violates a field constraint or dataset invariant."""


class InfeasibleAssignmentError(RevauditError):
    """No assignment satisfies the load constraints."""


class SolverError(RevauditError):
    """The LP solver failed or returned a vertex that is not integral."""


class NoAnalyzableDataError(RevauditError):
    """Filtering or matching left no usable observations."""


class RankDeficientError(RevauditError):
    """The regression design matrix is rank deficient."""

    def __init__(self, message: str, columns: list[str] | None = None):
        super().__init__(message)
        self.columns = columns or []


class SampleSizeError(RevauditError):
    """Too few observations for the requested estimate."""


class MissingArtifactError(RevauditError):
    """A pipeline stage was invoked before its inputs were produced."""

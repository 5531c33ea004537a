"""Error types shared across the engine."""


class LimitStabError(Exception):
    """Base class for engine errors."""


class ModelDataError(LimitStabError):
    """A model table is missing an entry that the computation needs.

    Missing m-table entries and missing P-seeds are hard errors by design:
    the engine never invents geometry.
    """


class TableArgumentError(ValueError):
    """A table, wall set or slope threshold was asked for with a bad
    argument, not bad model data.

    Raised for a wrong-rank class or vector, a zero or non-effective class
    where a nonzero one is needed, an empty interval, a table interval not
    starting below k_pt, a table point on a wall or outside the table, and a
    non-sheaf ``hn_sort`` part.  A ValueError, so ``except ValueError`` works.
    """


class ModelParseError(LimitStabError):
    """A model file failed to parse or validate; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

"""Error types shared across the engine."""


class LimitStabError(Exception):
    """Base class for engine errors."""


class ModelDataError(LimitStabError):
    """A model table is missing an entry that the computation needs.

    Missing m-table entries and missing P-seeds are hard errors by design:
    the engine never invents geometry.
    """


class TableArgumentError(ValueError):
    """A caller passed a bad argument, not bad model data.

    Raised for a wrong-rank class or vector, a sum of classes of two ranks,
    a zero, non-effective or out-of-scope class where a table, ``slope`` or
    the comparator needs another, an empty interval, a table interval not
    starting below k_pt, a table point on a wall or outside the table, a
    non-sheaf ``hn_sort`` part, a bad preset name, argument count or degree,
    and a TableCache bound to another model.  The CLI reports it as a usage
    error, exit code 2.  A ValueError, so ``except ValueError`` works.  Out
    of scope: a ``k`` that Fraction() cannot coerce (NaN, +-inf, not a
    number) raises Fraction's own error, an OverflowError for +-inf.
    """


def show(x) -> str:
    """``str(x)`` of a number, or its size in bits when str() refuses it."""
    try:
        return str(x)
    except ValueError:  # str() of an int has the digit limit of int() of a str
        return f"<{max(x.numerator.bit_length(), x.denominator.bit_length())}-bit number>"


class ModelParseError(LimitStabError):
    """A model file failed to parse or validate; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

"""The missing marker, the one range rule, the one width check and the
exceptions every module shares."""

import math

# An absent cell or field. Writers print it as a bare "?" in CSV and ARFF.
MISSING = None


def number_range(name, cells):
    """(lo, hi) over the non-missing cells of number column `name`, or
    (0.0, 0.0) when there are none. MalformedInput if a cell is NaN, or if
    a cell or the range does not fit a float: an infinite cell, a range
    wider than the largest float, an int cell or int range past it."""
    present = [v for v in cells if v is not MISSING]
    if any(v != v for v in present):  # min and max see only a first NaN
        raise MalformedInput(f"column {name!r}: a cell is NaN")
    lo, hi = (min(present), max(present)) if present else (0.0, 0.0)
    try:
        fits = all(abs(float(v)) < math.inf for v in (lo, hi, hi - lo))
    except OverflowError:  # an int past the largest float
        fits = False
    if not fits:  # + 0 shows -0.0 as 0.0, which min and max may pick either of
        raise MalformedInput(f"column {name!r}: range {_shown(lo + 0)} to {_shown(hi + 0)} overflows a float")
    return lo, hi


def _check_arity(width, rows):
    """ArityMismatch unless each row (or centroid) has width cells."""
    for row in rows:
        if len(row) != width:
            raise ArityMismatch(f"row/centroid arity {len(row)} vs schema {width}")


def _shown(cell):
    """repr of a cell, but an int too long for repr (past 4300 digits by
    default) by its length in bits."""
    try:
        return repr(cell)
    except ValueError:
        return f"an int of {cell.bit_length()} bits"


class MailMinerError(Exception):
    """Base class for all toolkit errors."""


class MalformedInput(MailMinerError):
    """Input bytes cannot be parsed as an email message."""


class DirectoryUnreadable(MailMinerError):
    """Corpus directory is missing or cannot be read."""


class UnknownAttribute(MailMinerError):
    """A named attribute does not exist in the schema."""


class RaggedRow(MailMinerError):
    """CSV data line whose field count differs from the header's."""


class EmptyResultSchema(MailMinerError):
    """A remove filter would drop every column."""


class NotNumeric(MailMinerError):
    """Discretization target is not a numeric or date column."""


class ArityMismatch(MailMinerError):
    """Row or centroid length differs from the schema length."""


class TooFewRows(MailMinerError):
    """Requested cluster count exceeds the number of rows."""


class EmptyDataset(MailMinerError):
    """Clustering requested on a dataset with no rows."""


class UnsupportedFormat(MailMinerError):
    """Unknown report output format."""

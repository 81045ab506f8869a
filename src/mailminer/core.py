"""The missing marker, the one range rule and the exceptions every module
shares."""

import math

# An absent cell or field. Writers print it as a bare "?" in CSV and ARFF.
MISSING = None


def number_range(name, cells):
    """(lo, hi) over the non-missing cells of number column `name`, or
    (0.0, 0.0) when there are none. A range wider than the largest float
    (inf, or NaN from infinite cells) is MalformedInput; an int range of
    any size passes."""
    present = [v for v in cells if v is not MISSING]
    lo, hi = (min(present), max(present)) if present else (0.0, 0.0)
    if not hi - lo < math.inf:
        raise MalformedInput(f"column {name!r}: range {lo!r} to {hi!r} overflows a float")
    return lo, hi


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

"""Typed dataset container with CSV/ARFF serialization and filters.

Cells are plain Python values: float for numeric/date columns, str for
nominal/text columns, MISSING (None) for absent values, written as a
bare "?". Datasets are treated as immutable; every filter returns a
fresh copy.
"""

import contextlib
import io
import math
import os
import re
import stat
import tempfile
from collections import Counter, namedtuple
from dataclasses import dataclass
from operator import attrgetter

from .core import (
    MISSING,
    EmptyResultSchema,
    MalformedInput,
    NotNumeric,
    RaggedRow,
    UnknownAttribute,
    number_range,
)
from .rng import Lcg

KINDS = ("numeric", "nominal", "text", "date")


class AttributeSpec(namedtuple("AttributeSpec", "name kind nominal_domain")):
    __slots__ = ()

    def __new__(cls, name, kind, nominal_domain=()):
        if kind not in KINDS:
            raise ValueError(f"unknown attribute kind: {kind}")
        if kind == "nominal":
            if not nominal_domain:
                raise ValueError("nominal attribute needs a non-empty domain")
            if len(set(nominal_domain)) != len(nominal_domain):
                raise ValueError("nominal domain contains duplicates")
        elif nominal_domain:
            raise ValueError("only nominal attributes carry a domain")
        return super().__new__(cls, name, kind, tuple(nominal_domain))

    @property
    def is_number(self):
        """Numeric and date cells are floats; nominal and text cells are
        labels, compared only for equality."""
        return self.kind in ("numeric", "date")


# The six canonical email attributes, in schema order.
CANONICAL_SCHEMA = (
    AttributeSpec("Date", "numeric"),  # UTC epoch seconds
    AttributeSpec("MessageId", "text"),
    AttributeSpec("CC", "text"),
    AttributeSpec("From", "text"),
    AttributeSpec("Subject", "text"),
    AttributeSpec("HTML", "nominal", ("yes", "no")),
)
CANONICAL_ATTRIBUTES = tuple(spec.name for spec in CANONICAL_SCHEMA)
# The read_csv kind hints that read the canonical columns back; text needs none.
CANONICAL_HINTS = {
    spec.name: ("nominal", spec.nominal_domain) if spec.kind == "nominal" else spec.kind
    for spec in CANONICAL_SCHEMA
    if spec.kind != "text"
}

@dataclass
class Dataset:
    schema: list
    rows: list
    relation_name: str = "data"

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.schema)

    def attribute_names(self):
        return [spec.name for spec in self.schema]

    def column_indices(self, selected):
        """The column of each selected name, checked by _checked_selection."""
        names = self.attribute_names()
        return [names.index(name) for name in _checked_selection(selected, names)]


class DuplicateProfile(namedtuple("DuplicateProfile", "projection n_different n_identical")):
    __slots__ = ()


# Each canonical attribute's cell of an EmailRecord.
_CELL_OF = {
    "Date": lambda rec: MISSING if rec.date is MISSING else float(rec.date),
    "MessageId": attrgetter("message_id"),
    "CC": lambda rec: ";".join(rec.cc) if rec.cc else MISSING,
    "From": attrgetter("from_addr"),
    "Subject": attrgetter("subject"),
    "HTML": lambda rec: "yes" if rec.has_html else "no",
}


def _repeated(names):
    """The first name that occurs more than once, or None."""
    return next((name for name, n in Counter(names).items() if n > 1), None)


def _checked_selection(selected, names=CANONICAL_ATTRIBUTES):
    """The one rule for names selected from a schema: the selected names
    as a list, or UnknownAttribute unless there is at least one, each is
    one of names (by default the canonical attributes) and none repeats."""
    selected = list(selected)
    if not selected:
        raise UnknownAttribute("attribute selection is empty")
    for name in selected:
        if name not in names:
            raise UnknownAttribute(f"unknown attribute {name!r}")
    repeated = _repeated(selected)
    if repeated is not None:
        raise UnknownAttribute(f"attribute {repeated!r} selected more than once")
    return selected


def _streamed_dataset(records, selected):
    """records_to_dataset whose rows are a generator, each row built as a
    writer reaches it: it can be written once, and no row list is held."""
    selected = _checked_selection(selected)
    schema = [CANONICAL_SCHEMA[CANONICAL_ATTRIBUTES.index(name)] for name in selected]
    cells = [_CELL_OF[name] for name in selected]
    rows = ([cell(rec) for cell in cells] for rec in records)
    return Dataset(schema, rows, relation_name="emails")


def records_to_dataset(records, selected=CANONICAL_ATTRIBUTES):
    """Build a dataset from EmailRecords, one row per record, with the
    selected columns of CANONICAL_SCHEMA, each at most once. CC lists are
    flattened to one semicolon-joined string; an empty CC list is missing.
    """
    ds = _streamed_dataset(records, selected)
    return Dataset(ds.schema, list(ds.rows), ds.relation_name)


# ---------------------------------------------------------------------------
# CSV

def format_csv_field(text):
    """Quote a field per RFC 4180. A literal "?" is always quoted so it
    stays distinguishable from the bare "?" missing marker."""
    # four substring tests: each is one C scan, faster than a regex search
    if "," in text or '"' in text or "\r" in text or "\n" in text or text == "?":
        return '"' + text.replace('"', '""') + '"'
    return text


def format_csv_row(values):
    return ",".join(format_csv_field(str(v)) for v in values)


def _number_text(value):
    return repr(float(value))


@contextlib.contextmanager
def _open_sink(sink):
    """A stream, left open, or a path opened for UTF-8 text, as a context.

    A path to a regular file is written to a temporary file in the same
    directory and moved onto the target only when the body of the `with`
    returns, so a failure part-way leaves the target as it was. A device
    or FIFO (say /dev/null or /dev/stdout) is written in place: it cannot
    be replaced.
    """
    if not isinstance(sink, (str, os.PathLike)):
        yield sink
        return
    try:
        mode = os.stat(sink).st_mode
    except FileNotFoundError:  # a new file gets what open(sink, "w") gives
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(sink, "w", encoding="utf-8", newline="") as f:
            yield f
        return
    target = os.path.realpath(sink)  # through a symlink, as open() writes
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    except OSError as exc:  # name the path given, as open() would, not the random one
        raise OSError(exc.errno, exc.strerror, os.fspath(sink)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as f:
            os.chmod(tmp, stat.S_IMODE(mode))  # mkstemp made it 0600
            yield f
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_rows(f, ds, nominal_text, text_text):
    """One line per row: numbers by repr, nominal and text cells by their
    own function, missing cells as a bare "?". ds.rows is read once, in
    order, so it may be a generator."""
    formats = [
        _number_text if spec.is_number else nominal_text if spec.kind == "nominal" else text_text
        for spec in ds.schema
    ]
    for row in ds.rows:
        f.write(",".join(["?" if v is MISSING else fmt(v) for v, fmt in zip(row, formats)]) + "\n")


def write_csv(ds, sink):
    """Write a dataset as UTF-8 CSV with LF line endings; missing cells
    are a bare unquoted "?"."""
    with _open_sink(sink) as f:
        f.write(format_csv_row(ds.attribute_names()) + "\n")
        _write_rows(f, ds, format_csv_field, format_csv_field)


# One field per match: an optional quoted part ("" escapes a quote; an
# unterminated quote runs to the end of the text), any text after it, and
# the separator that ends the field. A bare CR is field text, not a break.
# Both runs are written unrolled, x*(?:y x*)*, which matches faster than
# the equivalent (?:x+|y)*.
_CSV_FIELD = re.compile(
    r'(?:"([^"]*(?:""[^"]*)*)"?|)([^,\r\n]*(?:\r(?!\n)[^,\r\n]*)*)(,|\r?\n|\Z)'
)


def _csv_records(lines):
    """RFC 4180 records, one at a time, from the lines of CSV text (each
    with its LF, but maybe the last): (the line the record starts on, its
    fields, and for each field whether it was quoted). Accepts CRLF.

    A line with no quote is split on its commas, and its quoted flags are
    (). _CSV_FIELD reads every other record field by field; a quote still
    open at the end of a line takes in the lines after it, until one holds
    a quote that is not half of a "" or the lines run out. So a record
    ends at the end of a line, as it does in the whole text.
    """
    lines = iter(lines)
    number = 0
    for line in lines:
        number += 1
        start = number
        if '"' not in line:
            yield start, (line[:-1].removesuffix("\r") if line[-1:] == "\n" else line).split(","), ()
            continue
        fields, quoted, pos, sep = [], [], 0, ","
        while sep == ",":
            m = _CSV_FIELD.match(line, pos)
            if not m[3] and line[-1:] == "\n":  # a quote is open at the line's end
                pieces = [line[pos:]]
                for line in lines:
                    number += 1
                    pieces.append(line)
                    if '"' in line.replace('""', ""):
                        break
                line, pos = "".join(pieces), 0
                m = _CSV_FIELD.match(line)
            value, rest, sep = m.groups()
            fields.append(rest if value is None else value.replace('""', '"') + rest)
            quoted.append(value is not None)
            pos = m.end()
        yield start, fields, quoted


def _hinted_spec(name, hint):
    """The column a read_csv kind hint asks for; no hint means text."""
    if hint is None or (hint in KINDS and hint != "nominal"):  # nominal needs its domain
        return AttributeSpec(name, hint or "text")
    if isinstance(hint, (tuple, list)) and len(hint) == 2 and hint[0] == "nominal":
        return AttributeSpec(name, "nominal", tuple(hint[1]))
    raise ValueError(f"unknown kind hint for {name}: {hint!r}")


def _cell_parser(spec):
    """parse(value, value) -> cell, for one column's present cells; a bad
    value raises ValueError naming the column. The value comes twice so
    that a text column's parser can be its own table's dict.setdefault:
    equal text cells come back as the first one read, as equal labels
    come back as the domain's own string."""
    def bad(value, what):
        return ValueError(f"column {spec.name!r}: {what}: {value!r}")

    def number(value, _):
        try:
            x = float(value)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise bad(value, "not a finite number")
        return x

    # each label maps to the domain's own string
    domain = {v: v for v in spec.nominal_domain}

    def label(value, _):
        cell = domain.get(value)
        if cell is None:
            raise bad(value, "not in the nominal domain")
        return cell

    return number if spec.is_number else label if spec.kind == "nominal" else {}.setdefault


def read_csv(source, kind_hints=None, relation_name="data"):
    """Read a header-first CSV into a Dataset.

    kind_hints maps column names to "numeric", "date", "text" or
    ("nominal", domain); unhinted columns are text, and any other hint
    for a header column raises ValueError. A header name that occurs
    twice is MalformedInput. With hints matching the original schema,
    write_csv -> read_csv is an identity.

    A path is read and decoded a line at a time; a file that is not UTF-8
    is MalformedInput naming the line of its first bad byte, whatever
    else is wrong with it. A stream is read whole.
    """
    with _source_lines(source) as lines:
        try:
            return _read_records(_csv_records(lines), kind_hints, relation_name)
        except (ValueError, MalformedInput, RaggedRow):
            bad = _first_bad_line(source) if isinstance(source, (str, os.PathLike)) else None
            if bad is None:
                raise
    raise MalformedInput(f"line {bad}: not valid UTF-8")


@contextlib.contextmanager
def _source_lines(source):
    """The lines of a CSV source, each with its LF, less a leading
    byte-order mark (not part of the first header name): a path's are read
    and decoded one at a time, a stream is read whole. newline="\n" ends a
    line at LF only, so a bare CR stays inside its line."""
    if not isinstance(source, (str, os.PathLike)):
        yield io.StringIO(source.read().removeprefix("\ufeff"), newline="\n")
        return
    with open(source, encoding="utf-8-sig", newline="\n") as f:  # utf-8-sig drops the mark
        yield f


def _first_bad_line(path):
    """The number of the first line of a file that is not UTF-8, or None."""
    with open(path, "rb") as f:
        for number, line in enumerate(f, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return None


def _read_records(records, kind_hints, relation_name):
    """The Dataset of _csv_records' records; each is typed into its row as
    it comes, so no parsed copy of the file is held."""
    first = next(records, None)
    if first is None:
        raise MalformedInput("empty CSV input: no header row")
    header = first[1]
    repeated = _repeated(header)
    if repeated is not None:
        # a second column of one name could never be selected by name
        raise MalformedInput(f"line 1, column {repeated!r}: repeated header name")
    hints = dict(kind_hints or {})
    schema = [_hinted_spec(name, hints.get(name)) for name in header]
    parsers = [_cell_parser(spec) for spec in schema]
    rows = []
    for number, fields, quoted in records:
        if len(fields) != len(header):
            raise RaggedRow(f"line {number}: {len(fields)} fields, header has {len(header)}")
        try:
            if quoted:  # a quoted "?" is text, not missing
                rows.append([MISSING if v == "?" and not q else parse(v, v) for v, q, parse in zip(fields, quoted, parsers)])
            else:
                rows.append([MISSING if v == "?" else parse(v, v) for v, parse in zip(fields, parsers)])
        except ValueError as exc:
            raise MalformedInput(f"line {number}, {exc}") from None
    return Dataset(schema, rows, relation_name=relation_name)


# ---------------------------------------------------------------------------
# ARFF

_ARFF_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.@/")


def _arff_quote(text):
    # control characters would break the line-oriented @data section
    escaped = (
        text.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )
    return "'" + escaped + "'"


def _arff_token(text):
    if text and all(c in _ARFF_SAFE for c in text) and text != "?":
        return text
    return _arff_quote(text)


def write_arff(ds, sink):
    """Write a dataset in ARFF: @relation, @attribute per column, @data.

    Date columns are declared numeric (epoch seconds, noted in a
    comment). Text cells are always single-quoted, quotes escaped with a
    backslash; missing cells are "?".
    """
    with _open_sink(sink) as f:
        f.write(f"@relation {_arff_token(ds.relation_name)}\n")
        for spec in ds.schema:
            if spec.is_number:
                kind = "numeric % epoch seconds" if spec.kind == "date" else "numeric"
            elif spec.kind == "nominal":
                kind = "{" + ",".join(_arff_token(v) for v in spec.nominal_domain) + "}"
            else:
                kind = "string"
            f.write(f"@attribute {_arff_token(spec.name)} {kind}\n")
        f.write("@data\n")
        _write_rows(f, ds, _arff_token, _arff_quote)


# ---------------------------------------------------------------------------
# Filters

def filter_remove(ds, names):
    """Drop the named columns (at least one, each named once); the rest
    keep their order."""
    drop = set(ds.column_indices(names))
    keep = [i for i in range(ds.n_cols) if i not in drop]
    if not keep:
        raise EmptyResultSchema("remove would drop every column")
    return Dataset(
        [ds.schema[i] for i in keep],
        [[row[i] for i in keep] for row in ds.rows],
        ds.relation_name,
    )


def filter_sample(ds, fraction, seed):
    """floor(fraction*n) rows without replacement, original order kept."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    m = math.floor(fraction * ds.n_rows)
    chosen = sorted(Lcg(seed).choose(ds.n_rows, m))
    return Dataset(list(ds.schema), [list(ds.rows[i]) for i in chosen], ds.relation_name)


def filter_randomize(ds, seed):
    """Seeded Fisher-Yates shuffle of the rows."""
    rows = [list(r) for r in ds.rows]
    Lcg(seed).shuffle(rows)
    return Dataset(list(ds.schema), rows, ds.relation_name)


def filter_discretize(ds, name, n_bins):
    """Replace a numeric/date column with equal-width bins b1..bN.

    Bins are half-open except the last, which is closed so the maximum
    lands in bN. Missing cells stay missing. A range that overflows a
    float (`number_range`) is MalformedInput, before any row is binned.
    """
    [j] = ds.column_indices([name])
    spec = ds.schema[j]
    if not spec.is_number:
        raise NotNumeric(f"attribute {name!r} is {spec.kind}, not numeric")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    labels = tuple(f"b{i + 1}" for i in range(n_bins))
    lo, hi = number_range(name, [row[j] for row in ds.rows])
    width = (hi - lo) / n_bins

    schema = list(ds.schema)
    schema[j] = AttributeSpec(name, "nominal", labels)
    rows = []
    for row in ds.rows:
        new_row = list(row)
        x = new_row[j]
        if x is not MISSING:
            new_row[j] = labels[0] if width == 0 else labels[min(int((x - lo) / width), n_bins - 1)]
        rows.append(new_row)
    return Dataset(schema, rows, ds.relation_name)


def duplicate_profile(ds, projection):
    """Count rows whose projected tuple is unique vs repeated; each name
    must be a column, named once."""
    idx = ds.column_indices(projection)
    counts = Counter(tuple(row[i] for i in idx) for row in ds.rows)
    n_identical = sum(c for c in counts.values() if c >= 2)
    return DuplicateProfile(tuple(projection), ds.n_rows - n_identical, n_identical)

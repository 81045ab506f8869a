"""Typed dataset container with CSV/ARFF serialization.

Cells are plain Python values: float for numeric/date columns, str for
nominal/text columns, MISSING (None) for absent values, written as a
bare "?". Datasets are treated as immutable; every filter (`filters`)
returns a fresh copy.
"""

import contextlib
import math
import os
import re
import stat
import tempfile
from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter

from .core import MISSING, MalformedInput, RaggedRow, UnknownAttribute, _check_arity

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


def duplicate_profile(ds, projection):
    """Count rows whose projected tuple is unique vs repeated; each name
    must be a column, named once."""
    idx = ds.column_indices(projection)
    counts = Counter(tuple(row[i] for i in idx) for row in ds.rows)
    n_identical = sum(c for c in counts.values() if c >= 2)
    return DuplicateProfile(tuple(projection), ds.n_rows - n_identical, n_identical)


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


# Records typed, and rows written, a batch at a time, one C-level call per
# column: the largest power of two within the bound of the reader's memory
# test, test_read_csv_holds_the_rows_and_one_line (64 exceeds it).
_BATCH = 32
_CHUNK = 8192  # characters read_csv reads from a stream at a time
_MARK = {MISSING: "?"}  # _MARK.get(v, v): a missing cell as written


def _column(fmt):
    """A column's fields: each cell through fmt, a missing one as "?"."""
    return lambda cells: ["?" if v is MISSING else fmt(v) for v in cells]


def _csv_column(cells):
    """A label column's CSV fields: the cells themselves, unless one is a
    literal "?" or their join needs quoting."""
    joined = "".join(filter(None, cells))
    if "?" in cells or format_csv_field(joined) != joined:
        return ["?" if v is MISSING else format_csv_field(v) for v in cells]
    return list(map(_MARK.get, cells, cells))


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


def _write_rows(f, ds, nominal_column, text_column):
    """One line per row, written _BATCH rows at a time with one call per
    column: numbers by repr, nominal and text columns by their own
    function; with no columns, an empty line. A row whose length is not
    the schema's is ArityMismatch, and its batch is not written. ds.rows
    is read once, in order, so it may be a generator."""
    formats = [_column(lambda v: repr(float(v))) if s.is_number else nominal_column if s.kind == "nominal" else text_column for s in ds.schema]
    rows = iter(ds.rows)
    while batch := list(islice(rows, _BATCH)):
        _check_arity(len(formats), batch)
        columns = [fmt(cells) for fmt, cells in zip(formats, zip(*batch))]
        f.write("\n".join(map(",".join, zip(*columns) if columns else [()] * len(batch))) + "\n")


def write_csv(ds, sink):
    """Write a dataset as UTF-8 CSV with LF line endings; missing cells
    are a bare unquoted "?"."""
    with _open_sink(sink) as f:
        f.write(format_csv_row(ds.attribute_names()) + "\n")
        _write_rows(f, ds, _csv_column, _csv_column)


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


def _column_reader(spec):
    """read(keys, fields) -> one column's cells for a batch of records, where
    a key is its field, or None for a quoted "?"; a bad one raises. A label
    column's table, seeded with "?" as missing, maps a label to its
    domain's string and a text cell to the first equal one read."""
    if spec.is_number:
        def read(keys, _):
            cells = [MISSING if v == "?" else float(v) for v in keys]
            if all(map(math.isfinite, filter(None, cells))):
                return cells
            raise ValueError
        return read
    table = {None if v == "?" else v: v for v in spec.nominal_domain} | {"?": MISSING}
    if spec.kind == "nominal":
        return lambda keys, _: list(map(table.__getitem__, keys))
    return lambda keys, fields: list(map(table.setdefault, keys, fields))


def read_csv(source, kind_hints=None, relation_name="data"):
    """Read a header-first CSV into a Dataset.

    kind_hints maps column names to "numeric", "date", "text" or
    ("nominal", domain); unhinted columns are text, and any other hint
    for a header column raises ValueError. A header name that occurs
    twice is MalformedInput. With hints matching the original schema,
    write_csv -> read_csv is an identity.

    A path is read and decoded a line at a time; a file that is not UTF-8
    is MalformedInput naming the line of its first bad byte, whatever
    else is wrong with it. A stream is read a chunk at a time.
    """
    with _source_lines(source) as lines:
        return _read_records(_csv_records(lines), kind_hints, relation_name)


@contextlib.contextmanager
def _source_lines(source):
    """The lines of a CSV source, each with its LF, less a leading byte-order
    mark (not part of the first header name): a path's read and decoded one
    at a time, a stream's cut from its chunks; a bare CR stays in its line.
    If reading a path's lines fails, and a line of the file is not UTF-8,
    the first such line is the fault: MalformedInput names it."""
    if not isinstance(source, (str, os.PathLike)):
        yield _stream_lines(source)
        return
    with open(source, encoding="utf-8-sig", newline="\n") as f:  # utf-8-sig drops the mark
        try:
            yield f
        except (ValueError, MalformedInput, RaggedRow):
            with open(source, "rb") as raw:
                for number, line in enumerate(raw, 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError:
                        raise MalformedInput(f"line {number}: not valid UTF-8") from None
            raise


def _stream_lines(stream):
    """A text stream's lines, the last maybe without its LF, cut from
    chunks at least _CHUNK long and as long as the line they go on."""
    head, chunk = "", stream.read(_CHUNK).removeprefix("\ufeff") or stream.read(_CHUNK)
    while chunk:
        *lines, head = (head + chunk).split("\n")
        yield from (line + "\n" for line in lines)
        chunk = stream.read(max(_CHUNK, len(head)))
    if head:
        yield head


def _read_records(records, kind_hints, relation_name):
    """The Dataset of _csv_records' records, typed _BATCH at a time with one
    call per column; it holds the rows, one batch and a table per label
    column. A batch that a ragged record or a bad cell stops is typed
    again record by record, so the first fault in the file is raised."""
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
    readers = [_column_reader(spec) for spec in schema]
    rows = []
    while batch := list(islice(records, _BATCH)):
        rows += _typed_rows(batch, readers, schema)
        del batch  # not held while the next one is read
    return Dataset(schema, rows, relation_name=relation_name)


def _typed_rows(batch, readers, schema):
    """A batch of records typed one call per column; if a ragged record or a
    bad cell stops that, the first one is found record by record."""
    numbers, fields, quoted = zip(*batch)
    # a quoted "?" is text, not missing: its key is None
    keys = [[None if q and v == "?" else v for v, q in zip(f, fq)] if fq else f for f, fq in zip(fields, quoted)]
    try:  # strict: a ragged record stops the batch
        columns = zip(readers, zip(*keys, strict=True), zip(*fields, strict=True), strict=True)
        return list(map(list, zip(*[read(k, v) for read, k, v in columns])))
    except (KeyError, TypeError, ValueError):
        for number, record, record_keys in zip(numbers, fields, keys):
            if len(record) != len(schema):
                raise RaggedRow(f"line {number}: {len(record)} fields, header has {len(schema)}") from None
            for read, spec, key, value in zip(readers, schema, record_keys, record):
                try:
                    read([key], [value])
                except (KeyError, TypeError, ValueError):
                    what = "not a finite number" if spec.is_number else "not in the nominal domain"
                    raise MalformedInput(f"line {number}, column {spec.name!r}: {what}: {value!r}") from None
        raise


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
    if text and _ARFF_SAFE.issuperset(text) and text != "?":
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
        _write_rows(f, ds, _column(_arff_token), _column(_arff_quote))


"""Typed dataset container with CSV/ARFF serialization and filters.

Cells are plain Python values: float for numeric/date columns, str for
nominal/text columns, MISSING for absent values. Datasets are treated as
immutable; every filter returns a fresh copy.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .core import (
    MISSING,
    EmptyResultSchema,
    MalformedInput,
    NotNumeric,
    RaggedRow,
    UnknownAttribute,
)
from .rng import Lcg

KINDS = ("numeric", "nominal", "text", "date")

# The six canonical email attributes, in schema order.
CANONICAL_ATTRIBUTES = ("Date", "MessageId", "CC", "From", "Subject", "HTML")


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str
    nominal_domain: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown attribute kind: {self.kind}")
        if self.kind == "nominal":
            if not self.nominal_domain:
                raise ValueError("nominal attribute needs a non-empty domain")
            if len(set(self.nominal_domain)) != len(self.nominal_domain):
                raise ValueError("nominal domain contains duplicates")
        elif self.nominal_domain:
            raise ValueError("only nominal attributes carry a domain")
        object.__setattr__(self, "nominal_domain", tuple(self.nominal_domain))


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

    def column_index(self, name):
        for i, spec in enumerate(self.schema):
            if spec.name == name:
                return i
        raise UnknownAttribute(f"no attribute named {name!r}")

    def copy(self):
        return Dataset(list(self.schema), [list(r) for r in self.rows], self.relation_name)


@dataclass(frozen=True)
class DuplicateProfile:
    projection: tuple
    n_different: int
    n_identical: int


def records_to_dataset(records, selected=CANONICAL_ATTRIBUTES):
    """Build a dataset from EmailRecords, one row per record.

    Date becomes a numeric column (UTC epoch seconds), HTML a nominal
    yes/no column, everything else text. CC lists are flattened to one
    semicolon-joined string; an empty CC list is missing.
    """
    selected = list(selected)
    if not selected:
        raise UnknownAttribute("attribute selection is empty")
    for name in selected:
        if name not in CANONICAL_ATTRIBUTES:
            raise UnknownAttribute(f"unknown attribute {name!r}")

    schema = []
    for name in selected:
        if name == "Date":
            schema.append(AttributeSpec(name, "numeric"))
        elif name == "HTML":
            schema.append(AttributeSpec(name, "nominal", ("yes", "no")))
        else:
            schema.append(AttributeSpec(name, "text"))

    rows = []
    for rec in records:
        row = []
        for name in selected:
            if name == "Date":
                row.append(MISSING if rec.date is MISSING else float(rec.date))
            elif name == "MessageId":
                row.append(rec.message_id)
            elif name == "CC":
                row.append(";".join(rec.cc) if rec.cc else MISSING)
            elif name == "From":
                row.append(rec.from_addr)
            elif name == "Subject":
                row.append(rec.subject)
            else:  # HTML
                row.append("yes" if rec.has_html else "no")
        rows.append(row)
    return Dataset(schema, rows, relation_name="emails")


# ---------------------------------------------------------------------------
# CSV

def format_csv_field(text):
    """Quote a field per RFC 4180. A literal "?" is always quoted so it
    stays distinguishable from the bare "?" missing marker."""
    if any(c in text for c in ',"\r\n') or text == "?":
        return '"' + text.replace('"', '""') + '"'
    return text


def format_csv_row(values):
    return ",".join(format_csv_field(str(v)) for v in values)


def _serialize_cell(value, spec):
    if value is MISSING:
        return "?"
    if spec.kind in ("numeric", "date"):
        return repr(float(value))
    return format_csv_field(value)


def _open_sink(sink, mode="w"):
    if isinstance(sink, (str, Path)):
        return open(sink, mode, encoding="utf-8", newline=""), True
    return sink, False


def write_csv(ds, sink):
    """Write a dataset as UTF-8 CSV with LF line endings; missing cells
    are a bare unquoted "?"."""
    f, close = _open_sink(sink)
    try:
        f.write(format_csv_row(ds.attribute_names()) + "\n")
        for row in ds.rows:
            f.write(",".join(_serialize_cell(v, s) for v, s in zip(row, ds.schema)) + "\n")
    finally:
        if close:
            f.close()


# One field per match: an optional quoted part ("" escapes a quote; an
# unterminated quote runs to the end of the text), any text after it, and
# the separator that ends the field. A bare CR is field text, not a break.
_CSV_FIELD = re.compile(
    r'(?:"((?:[^"]+|"")*)"?|)([^,\r\n]*(?:\r(?!\n)[^,\r\n]*)*)(,|\r?\n|\Z)'
)


def _parse_csv_text(text):
    """RFC 4180 parse to rows of (value, was_quoted). Accepts CRLF."""
    rows, fields, pos = [], [], 0
    while pos < len(text) or fields:
        m = _CSV_FIELD.match(text, pos)
        quoted, rest, sep = m.groups()
        if quoted is None:
            fields.append((rest, False))
        else:
            fields.append((quoted.replace('""', '"') + rest, True))
        pos = m.end()
        if sep != ",":
            rows.append(fields)
            fields = []
    return rows


def _typed_cell(value, was_quoted, hint, col_name, lineno):
    if value == "?" and not was_quoted:
        return MISSING
    if hint in (None, "text"):
        return value
    if hint in ("numeric", "date"):
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise MalformedInput(
                f"line {lineno}, column {col_name!r}: not a finite number: {value!r}"
            )
        return number
    if isinstance(hint, (tuple, list)) and len(hint) == 2 and hint[0] == "nominal":
        if value not in hint[1]:
            raise MalformedInput(
                f"line {lineno}, column {col_name!r}: not in the nominal domain: {value!r}"
            )
        return value
    raise ValueError(f"unknown kind hint for {col_name}: {hint!r}")


def read_csv(source, kind_hints=None, relation_name="data"):
    """Read a header-first CSV into a Dataset.

    kind_hints maps column names to "numeric", "date", "text" or
    ("nominal", domain); unhinted columns are text. With hints matching
    the original schema, write_csv -> read_csv is an identity.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as f:
            data = f.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise MalformedInput(f"line {line}: not valid UTF-8") from None
        del data  # not kept alive through the parse
    else:
        text = source.read()
    # a byte-order mark is not part of the first header name
    parsed = _parse_csv_text(text.removeprefix("\ufeff"))
    if not parsed:
        raise MalformedInput("empty CSV input: no header row")
    header = [v for v, _ in parsed[0]]
    hints = dict(kind_hints or {})

    schema = []
    for name in header:
        hint = hints.get(name)
        if hint in ("numeric", "date"):
            schema.append(AttributeSpec(name, hint))
        elif isinstance(hint, (tuple, list)) and len(hint) == 2 and hint[0] == "nominal":
            schema.append(AttributeSpec(name, "nominal", tuple(hint[1])))
        else:
            schema.append(AttributeSpec(name, "text"))

    rows = []
    lineno = 1
    for prev, fields in zip(parsed, parsed[1:]):
        # the line this record starts on; quoted fields may hold line breaks
        lineno += 1 + sum(v.count("\n") for v, quoted in prev if quoted)
        if len(fields) != len(header):
            raise RaggedRow(
                f"line {lineno}: {len(fields)} fields, header has {len(header)}"
            )
        rows.append(
            [
                _typed_cell(v, q, hints.get(name), name, lineno)
                for (v, q), name in zip(fields, header)
            ]
        )
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
    f, close = _open_sink(sink)
    try:
        f.write(f"@relation {_arff_token(ds.relation_name)}\n")
        for spec in ds.schema:
            name = _arff_token(spec.name)
            if spec.kind == "numeric":
                f.write(f"@attribute {name} numeric\n")
            elif spec.kind == "date":
                f.write(f"@attribute {name} numeric % epoch seconds\n")
            elif spec.kind == "nominal":
                domain = ",".join(_arff_token(v) for v in spec.nominal_domain)
                f.write(f"@attribute {name} {{{domain}}}\n")
            else:
                f.write(f"@attribute {name} string\n")
        f.write("@data\n")
        for row in ds.rows:
            out = []
            for value, spec in zip(row, ds.schema):
                if value is MISSING:
                    out.append("?")
                elif spec.kind in ("numeric", "date"):
                    out.append(repr(float(value)))
                elif spec.kind == "nominal":
                    out.append(_arff_token(value))
                else:
                    out.append(_arff_quote(value))
            f.write(",".join(out) + "\n")
    finally:
        if close:
            f.close()


# ---------------------------------------------------------------------------
# Filters

def filter_remove(ds, names):
    """Drop the named columns; the rest keep their order."""
    drop = {ds.column_index(n) for n in names}
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
    lands in bN. Missing cells stay missing.
    """
    j = ds.column_index(name)
    spec = ds.schema[j]
    if spec.kind not in ("numeric", "date"):
        raise NotNumeric(f"attribute {name!r} is {spec.kind}, not numeric")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    labels = tuple(f"b{i + 1}" for i in range(n_bins))
    values = [row[j] for row in ds.rows if row[j] is not MISSING]
    lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
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
    """Count rows whose projected tuple is unique vs repeated."""
    idx = [ds.column_index(n) for n in projection]
    counts = Counter(tuple(row[i] for i in idx) for row in ds.rows)
    n_identical = sum(c for c in counts.values() if c >= 2)
    return DuplicateProfile(tuple(projection), ds.n_rows - n_identical, n_identical)

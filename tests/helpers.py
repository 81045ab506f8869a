"""Test-side helpers that need no pytest: the fixture corpora, a CLI
subprocess runner, a nested MIME message, a scandir that refuses one
directory, and the oracles: an ARFF reader, a per-character CSV
tokenizer and the read_csv error it implies, a regex MIME part splitter,
a header/body cut by the earlier separator pattern, the earlier
datetime-based Date reading, a per-pair distance loop, a per-row SSE
loop, a plain Lloyd iteration, a naive SSE recomputation, a naive
silhouette, and a random dataset generator."""

import email.utils
import math
import operator
import os
import random
import re
import subprocess
import sys
from datetime import timezone
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from mailminer import AttributeSpec, Dataset, MISSING  # noqa: E402

FIXTURE_CORPUS = ROOT / "fixtures" / "corpus"
FIXTURE_DUP_CORPUS = ROOT / "fixtures" / "dup_corpus"


def run_cli(*args, env_extra=None, cwd=None):
    """`python -m mailminer ARGS` on this checkout's source, captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "mailminer", *[str(a) for a in args]],
        capture_output=True,
        cwd=cwd,
        env=env,
    )


def refuse_scandir(monkeypatch, refused):
    """Make os.scandir raise PermissionError for one directory, as chmod 000
    does for any user but root (tests may run as root). The directory may
    be given as str or bytes, and matches either."""
    scandir = os.scandir

    def guarded(path):
        if os.fsencode(path) == os.fsencode(refused):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", guarded)


def nested_mime(levels, body="<p>\r\n"):
    """A message of one-part multiparts nested `levels` deep around one
    text/html leaf holding body."""
    mime = "Content-Type: text/html\r\n\r\n" + body
    for i in range(levels):
        mime = f"Content-Type: multipart/mixed; boundary=b{i}\r\n\r\n--b{i}\r\n{mime}--b{i}--\r\n"
    return mime.encode()


# ---------------------------------------------------------------------------
# ARFF reader


_ARFF_ESCAPES = {"\\": "\\", "'": "'", "n": "\n", "r": "\r"}


def _arff_read_token(text, pos, stops):
    """One ARFF token at pos: (value, was_quoted, end). A quoted token
    undoes the writer's backslash escapes; a bare one runs to a stop
    character or the end of the text."""
    if text.startswith("'", pos):
        out, i = [], pos + 1
        while text[i] != "'":
            if text[i] == "\\":
                out.append(_ARFF_ESCAPES[text[i + 1]])
                i += 2
            else:
                out.append(text[i])
                i += 1
        return "".join(out), True, i + 1
    end = pos
    while end < len(text) and text[end] not in stops:
        end += 1
    return text[pos:end], False, end


def _arff_fields(text):
    fields, pos = [], 0
    while True:
        value, quoted, pos = _arff_read_token(text, pos, ",")
        fields.append((value, quoted))
        if pos == len(text):
            return fields
        assert text[pos] == ",", f"junk after a token in {text!r}"
        pos += 1


def read_arff(text):
    """The dataset back from what write_arff wrote: `numeric` is a numeric
    column, `numeric % epoch seconds` a date column, `{...}` a nominal
    column with that domain, `string` a text column; a bare `?` is
    missing and a quoted `'?'` is text."""
    lines = text.split("\n")
    assert lines.pop() == "", "ARFF output ends with a newline"
    assert lines[0].startswith("@relation "), "must open with @relation"
    relation, _, end = _arff_read_token(lines[0], len("@relation "), " ")
    assert end == len(lines[0]), f"junk after the relation name: {lines[0]!r}"
    schema, i = [], 1
    while lines[i].startswith("@attribute "):
        name, _, end = _arff_read_token(lines[i], len("@attribute "), " ")
        kind = lines[i][end:]
        if kind.startswith(" {") and kind.endswith("}"):
            domain = tuple(v for v, _ in _arff_fields(kind[2:-1]))
            schema.append(AttributeSpec(name, "nominal", domain))
        else:
            kinds = {" numeric": "numeric", " numeric % epoch seconds": "date", " string": "text"}
            assert kind in kinds, f"bad attribute line {lines[i]!r}"
            schema.append(AttributeSpec(name, kinds[kind]))
        i += 1
    assert lines[i] == "@data", "missing @data section"
    rows = []
    for line in lines[i + 1 :]:
        fields = _arff_fields(line)
        assert len(fields) == len(schema), f"row arity in {line!r}"
        row = []
        for (value, quoted), spec in zip(fields, schema):
            if value == "?" and not quoted:
                row.append(MISSING)
            elif spec.kind in ("numeric", "date"):
                row.append(float(value))
            else:
                assert quoted or spec.kind == "nominal", f"bare text cell {value!r}"
                row.append(value)
        rows.append(row)
    return Dataset(schema, rows, relation)


# ---------------------------------------------------------------------------
# CSV tokenizer oracle


def oracle_parse_csv_text(text):
    """Per-character RFC 4180 parse to rows of (value, was_quoted); the
    reference for mailminer.tabular._csv_records."""
    rows = []
    fields = []
    chars = []
    quoted = False
    in_quotes = False
    i = 0
    n = len(text)
    started = False

    def end_field():
        nonlocal chars, quoted, started
        fields.append(("".join(chars), quoted))
        chars = []
        quoted = False

    def end_row():
        nonlocal fields, started
        rows.append(fields)
        fields = []
        started = False

    while i < n:
        c = text[i]
        if in_quotes:
            if c == '"':
                if i + 1 < n and text[i + 1] == '"':
                    chars.append('"')
                    i += 2
                    continue
                in_quotes = False
                i += 1
            else:
                chars.append(c)
                i += 1
        else:
            if c == '"' and not chars:
                in_quotes = True
                quoted = True
                started = True
                i += 1
            elif c == ",":
                end_field()
                started = True
                i += 1
            elif c == "\r" and i + 1 < n and text[i + 1] == "\n":
                end_field()
                end_row()
                i += 2
            elif c == "\n":
                end_field()
                end_row()
                i += 1
            else:
                chars.append(c)
                started = True
                i += 1
    if chars or quoted or started or fields:
        end_field()
        end_row()
    return rows


def oracle_record_lines(parsed):
    """The line each record of oracle_parse_csv_text's rows starts on: one
    more than the line breaks before it, those inside quoted fields too."""
    lines, line = [], 1
    for row in parsed:
        lines.append(line)
        line += 1 + sum(v.count("\n") for v, quoted in row if quoted)
    return lines


def oracle_read_csv_error(text, kinds):
    """What read_csv raises on text, as (exception class name, message),
    or None if it reads. kinds maps a column name to "numeric" or to a
    nominal domain tuple; other columns are text. The header must name
    each column once. Line numbers come from the list of every record
    (oracle_record_lines), not from counting the lines read."""
    parsed = oracle_parse_csv_text(text)
    header = [v for v, _ in parsed[0]]
    lines = oracle_record_lines(parsed)

    for i, fields in enumerate(parsed[1:], 1):
        if len(fields) != len(header):
            return "RaggedRow", f"line {lines[i]}: {len(fields)} fields, header has {len(header)}"
        for name, (value, quoted) in zip(header, fields):
            kind = kinds.get(name)
            if kind is None or (value == "?" and not quoted):
                continue
            if kind == "numeric":
                try:
                    ok = math.isfinite(float(value))
                except ValueError:
                    ok = False
                what = "not a finite number"
            else:
                ok, what = value in kind, "not in the nominal domain"
            if not ok:
                return "MalformedInput", f"line {lines[i]}, column {name!r}: {what}: {value!r}"
    return None


# ---------------------------------------------------------------------------
# MIME part splitting oracle


def oracle_split_segments(body_text, boundary):
    """The segments after each opening delimiter line, by one regex per
    boundary and re.split; the reference for
    mailminer.ingest._split_segments."""
    delim = re.compile(r"^--" + re.escape(boundary) + r"(--)?[ \t]*\r?$", re.MULTILINE)
    pieces = delim.split(body_text)
    # split() interleaves the optional "--" capture group
    return [pieces[i] for i in range(2, len(pieces), 2) if pieces[i - 1] is None]


def oracle_split_head(text):
    """(header pairs, body or None) by the earlier cut: the first match of
    \\r?\\n\\r?\\n, and one pass over the header lines that extends a
    folded value line by line; the reference for
    mailminer.ingest._split_head."""
    m = re.search(r"\r?\n\r?\n", text)
    head, body = (text, None) if m is None else (text[: m.start()], text[m.end():])
    headers = []
    for line in head.split("\n"):
        if not line.strip():
            continue
        if line[:1] in (" ", "\t") and headers:
            name, value = headers[-1]
            headers[-1] = (name, value + " " + line.strip())
        elif ":" in line:
            name, _, value = line.partition(":")
            headers.append((name.strip(), value.strip()))
    return headers, body


def oracle_timestamp(value):
    """UTC epoch seconds of a Date value by the earlier path:
    parsedate_to_datetime, a naive result read as UTC, then
    int(timestamp()); MISSING where that raises ValueError, TypeError or
    OverflowError. The reference for the Date of
    mailminer.ingest.extract_record."""
    try:
        dt = email.utils.parsedate_to_datetime(value)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    except (ValueError, TypeError, OverflowError):
        return MISSING


# ---------------------------------------------------------------------------
# Naive clustering oracles (deliberately independent of mailminer.cluster)


def left_sum(values):
    """Float sum strictly left to right; builtin sum() compensates on 3.12+."""
    return reduce(operator.add, values, 0.0)


def oracle_distance(row, other, ranges):
    """The generic per-pair loop; the reference for the passes mailminer.cluster generates."""
    assert len(row) == len(other) == len(ranges)
    total = 0.0
    for x, c, rng in zip(row, other, ranges):
        if x is MISSING or c is MISSING:
            d = 1.0
        elif rng is None:
            d = 0.0 if x == c else 1.0
        else:
            d = abs(x - c) / rng if rng else 0.0
        total += d * d
    return math.sqrt(total)


def oracle_sse(ds, model, ranges):
    """Each row's squared oracle_distance to its centroid, summed in row
    order; the reference for the bits of mailminer.cluster.sse."""
    return left_sum(
        oracle_distance(row, model.centroids[ci], ranges) ** 2
        for row, ci in zip(ds.rows, model.assignment)
    )


def oracle_lloyd(ds, centroids, max_iterations):
    """Plain Lloyd iteration from the given centroids; the reference for
    mailminer.cluster.kmeans: (assignment, iterations, sse). Each pass runs
    one oracle_distance loop over the rows per centroid, a strict < so
    ties go to the lowest index, then moves each non-empty cluster's
    centroid to the mean of its number columns and the first-seen mode of
    the rest (missing where no member has the cell). It stops on the pass
    that changes no assignment, counted, or after max_iterations; the SSE
    is then each row's squared distance to its centroid, in row order."""
    number = [spec.kind in ("numeric", "date") for spec in ds.schema]
    ranges = []
    for j, is_number in enumerate(number):
        cells = [row[j] for row in ds.rows if row[j] is not MISSING]
        ranges.append((max(cells) - min(cells) if cells else 0.0) if is_number else None)
    centroids = [list(c) for c in centroids]
    assignment, iterations = None, 0
    while iterations < max_iterations:
        iterations += 1
        labels = [0] * len(ds.rows)
        best = [oracle_distance(row, centroids[0], ranges) for row in ds.rows]
        for ci in range(1, len(centroids)):
            for i, row in enumerate(ds.rows):
                d = oracle_distance(row, centroids[ci], ranges)
                if d < best[i]:
                    labels[i], best[i] = ci, d
        if labels == assignment:
            break
        assignment = labels
        for ci in range(len(centroids)):
            members = [row for row, cj in zip(ds.rows, assignment) if cj == ci]
            if not members:
                continue
            for j, is_number in enumerate(number):
                present = [row[j] for row in members if row[j] is not MISSING]
                if not present:
                    centroids[ci][j] = MISSING
                elif is_number:
                    centroids[ci][j] = left_sum(present) / len(present)
                else:
                    counts = {}
                    for v in present:
                        counts[v] = counts.get(v, 0) + 1
                    centroids[ci][j] = max(counts, key=counts.get)
    sse = left_sum(oracle_distance(row, centroids[ci], ranges) ** 2 for row, ci in zip(ds.rows, assignment))
    return assignment, iterations, sse


def naive_sse(ds, model):
    mins, maxs = {}, {}
    for j, spec in enumerate(ds.schema):
        if spec.kind in ("numeric", "date"):
            vals = [r[j] for r in ds.rows if r[j] is not MISSING]
            if vals:
                mins[j], maxs[j] = min(vals), max(vals)
    total = 0.0
    for row, ci in zip(ds.rows, model.assignment):
        centroid = model.centroids[ci]
        acc = 0.0
        for j, spec in enumerate(ds.schema):
            x, c = row[j], centroid[j]
            if x is MISSING or c is MISSING:
                acc += 1.0
            elif spec.kind in ("numeric", "date"):
                if j in mins and maxs[j] != mins[j]:
                    acc += ((x - c) / (maxs[j] - mins[j])) ** 2
            elif x != c:
                acc += 1.0
        total += acc
    return total


def naive_silhouette(ds, assignment, pair_distance):
    n = len(ds.rows)
    clusters = {}
    for i, ci in enumerate(assignment):
        clusters.setdefault(ci, []).append(i)
    total = 0.0
    for i in range(n):
        own = clusters[assignment[i]]
        if len(own) <= 1:
            continue
        a = left_sum(pair_distance(i, j) for j in own if j != i) / (len(own) - 1)
        bs = [
            left_sum(pair_distance(i, j) for j in mem) / len(mem)
            for ci, mem in clusters.items()
            if ci != assignment[i] and mem
        ]
        if not bs:
            continue
        b = min(bs)
        if max(a, b) > 0:
            total += (b - a) / max(a, b)
    return total / n


# ---------------------------------------------------------------------------
# Random dataset generation

_WORDS = [
    "alpha", "beta", "gamma", "delta", "", "?", 'a,"b"', "line1\nline2",
    "café", "x;y", "  padded  ", "'quoted'",
]
_LABEL_POOL = ["red", "green", "blue", "cyan", "mauve", "ochre"]


def random_dataset(rnd: random.Random, max_rows=32, min_rows=1,
                   kinds=("numeric", "nominal", "text", "date")):
    n_rows = rnd.randint(min_rows, max_rows)
    n_cols = rnd.randint(1, 5)
    schema = []
    for j in range(n_cols):
        kind = rnd.choice(kinds)
        if kind == "nominal":
            domain = tuple(rnd.sample(_LABEL_POOL, rnd.randint(2, 4)))
            schema.append(AttributeSpec(f"col{j}", "nominal", domain))
        else:
            schema.append(AttributeSpec(f"col{j}", kind))
    rows = []
    for _ in range(n_rows):
        row = []
        for spec in schema:
            if rnd.random() < 0.15:
                row.append(MISSING)
            elif spec.kind in ("numeric", "date"):
                row.append(rnd.uniform(-1e3, 1e3))
            elif spec.kind == "nominal":
                row.append(rnd.choice(spec.nominal_domain))
            else:
                row.append(rnd.choice(_WORDS))
        rows.append(row)
    return Dataset(schema, rows, relation_name=rnd.choice(["emails", "rel one", "d"]))


def hints_for(ds):
    hints = {}
    for spec in ds.schema:
        if spec.kind == "nominal":
            hints[spec.name] = ("nominal", spec.nominal_domain)
        else:
            hints[spec.name] = spec.kind
    return hints

import copy
import io
import math
import os
import random
import stat
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from mailminer import (
    CANONICAL_ATTRIBUTES,
    MISSING,
    ArityMismatch,
    AttributeSpec,
    Dataset,
    EmptyResultSchema,
    KMeansConfig,
    MalformedInput,
    NotNumeric,
    RaggedRow,
    UnknownAttribute,
    attribute_ranges,
    duplicate_profile,
    filter_discretize,
    filter_randomize,
    filter_remove,
    filter_sample,
    kmeans,
    read_csv,
    records_to_dataset,
    write_arff,
    write_csv,
)

from mailminer import tabular
from mailminer.analysis import SenderEntry, SenderReport, render_report
from mailminer.core import number_range
from mailminer.tabular import CANONICAL_HINTS, CANONICAL_SCHEMA, _csv_records, format_csv_field, format_csv_row

from helpers import (
    hints_for,
    oracle_parse_csv_text,
    oracle_read_csv_error,
    oracle_record_lines,
    random_dataset,
    read_arff,
)


def _csv_text(ds):
    buf = io.StringIO()
    write_csv(ds, buf)
    return buf.getvalue()


def _arff_text(ds):
    buf = io.StringIO()
    write_arff(ds, buf)
    return buf.getvalue()


def _text_ds(*cells, name="v"):
    return Dataset([AttributeSpec(name, "text")], [[c] for c in cells])


def test_records_to_dataset_full_shape(corpus_dataset):
    assert corpus_dataset.n_rows == 7
    assert corpus_dataset.attribute_names() == list(CANONICAL_ATTRIBUTES)
    assert corpus_dataset.relation_name == "emails"


def test_records_to_dataset_projection(corpus_records):
    ds = records_to_dataset(corpus_records[:3], ["From", "Subject", "HTML"])
    assert (ds.n_rows, ds.n_cols) == (3, 3)


def test_records_to_dataset_kinds(corpus_dataset):
    kinds = {s.name: s.kind for s in corpus_dataset.schema}
    assert kinds["Date"] == "numeric"
    assert kinds["HTML"] == "nominal"
    [html] = [corpus_dataset.schema[j] for j in corpus_dataset.column_indices(["HTML"])]
    assert html.nominal_domain == ("yes", "no")
    assert kinds["Subject"] == "text"


def test_records_to_dataset_cells():
    from mailminer.ingest import EmailRecord

    records = [
        EmailRecord(1700000000, "id@x", ("a@x", "b@y"), "f@x", "hi", True),
        EmailRecord(MISSING, MISSING, (), MISSING, MISSING, False),
    ]
    assert records_to_dataset(records).rows == [
        [1700000000.0, "id@x", "a@x;b@y", "f@x", "hi", "yes"],
        [MISSING, MISSING, MISSING, MISSING, MISSING, "no"],
    ]
    assert records_to_dataset(records, ["HTML", "CC"]).rows == [["yes", "a@x;b@y"], ["no", MISSING]]


def test_records_to_dataset_unknown_attribute(corpus_records):
    with pytest.raises(UnknownAttribute):
        records_to_dataset(corpus_records, ["Color"])


@pytest.mark.parametrize("selected", [["From", "From"], ["Date", "From", "Date"]])
def test_records_to_dataset_rejects_a_repeated_attribute(corpus_records, selected):
    # read_csv refuses a repeated header, so no selection may write one
    with pytest.raises(UnknownAttribute) as info:
        records_to_dataset(corpus_records, selected)
    assert str(info.value) == f"attribute {selected[0]!r} selected more than once"


def test_csv_quoting_rule():
    text = _csv_text(_text_ds('a,"b"'))
    assert text.splitlines()[1] == '"a,""b"""'


def test_csv_zero_rows_is_header_only():
    ds = Dataset([AttributeSpec("a", "text"), AttributeSpec("b", "numeric")], [])
    assert _csv_text(ds) == "a,b\n"


def test_csv_missing_vs_literal_question_mark():
    ds = _text_ds(MISSING, "?")
    text = _csv_text(ds)
    assert text.splitlines()[1:] == ["?", '"?"']
    back = read_csv(io.StringIO(text), {"v": "text"})
    assert back.rows == [[MISSING], ["?"]]


def test_csv_roundtrip_fixture(corpus_dataset):
    text = _csv_text(corpus_dataset)
    back = read_csv(io.StringIO(text), hints_for(corpus_dataset), relation_name="emails")
    assert back == corpus_dataset


def test_csv_accepts_crlf():
    back = read_csv(io.StringIO("a,b\r\n1,x\r\n"), {"a": "numeric"})
    assert back.rows == [[1.0, "x"]]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


def _source(text, source, path):
    """text as read_csv takes it: a stream, or a file written byte for byte."""
    if source == "stream":
        return io.StringIO(text)
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _tokenized(source):
    """Each record's line and its fields as the oracle gives them, as
    (value, was_quoted), from the lines read_csv reads from source."""
    with tabular._source_lines(source) as lines:
        records = list(_csv_records(lines))
    return [n for n, _, _ in records], [list(zip(fields, quoted or [False] * len(fields))) for _, fields, quoted in records]


def _oracle_tokenized(text):
    parsed = oracle_parse_csv_text(text)
    return oracle_record_lines(parsed), parsed


@given(text=st.text(alphabet='ab,"\r\n? \u00e9'))
def test_csv_tokenizer_matches_per_character_oracle(csv_path, text):
    for source in ("stream", "path"):
        assert _tokenized(_source(text, source, csv_path)) == _oracle_tokenized(text), source


# CSV text as it mostly comes: rows of quote-free fields, now and then a
# quoted field (which may hold commas, quotes and line breaks) or a field
# with a quote inside it. Each row ends in LF, CRLF or a bare CR (field
# text, not a break), and the last one may have no end at all. An empty
# row is an empty line; an empty last field is a trailing comma.
_PLAIN_FIELD = st.text(alphabet="ab ?\u00e9\r", max_size=4)
_QUOTED_FIELD = st.text(alphabet='ab,"\r\n', max_size=4).map(lambda v: '"' + v.replace('"', '""') + '"')
_INNER_QUOTE_FIELD = st.builds(
    lambda head, tail: head + '"' + tail,
    st.text(alphabet="ab\r", min_size=1, max_size=2),
    st.text(alphabet='ab"', max_size=2),
)
_ROW = st.one_of(
    st.lists(_PLAIN_FIELD, max_size=5),
    st.lists(st.one_of(_PLAIN_FIELD, _QUOTED_FIELD, _INNER_QUOTE_FIELD), max_size=5),
).map(",".join)
_CSV_TEXT = st.builds(
    lambda lines, last: "".join(lines) + last,
    st.lists(st.tuples(_ROW, st.sampled_from(["\n", "\r\n", "\r"])).map("".join), max_size=6),
    _ROW,
)


@given(text=_CSV_TEXT)
@example(text='"q,1",b\nc,d\n')  # a quoted first field
@example(text='a,b"c,d\n')  # a quote inside a field
@example(text='a,"b\r\nc",d\r\ne\rf\n')  # CRLF, and a bare CR in a plain field
@example(text="a,b,\n\nc,\r\n,")  # trailing commas, an empty line, no final newline
@example(text='a,"b\n""\nc""d\n",e\nf,g\n')  # a quoted field over three lines, a "" at a line's start
@example(text='a,"b\nc","d\ne"\nf\n')  # a second quoted field opens on the line the first closes
def test_csv_tokenizer_matches_the_oracle_on_csv_shaped_text(csv_path, text):
    for source in ("stream", "path"):
        assert _tokenized(_source(text, source, csv_path)) == _oracle_tokenized(text), source


# The CSV-shaped text above under a header "n,t,l" with n numeric and l
# nominal: most rows have three fields, whose n and l cells are now and
# then bad, and now and then a row of any length comes instead.
_NUMERIC_CELL = st.sampled_from(["0", "1.5", "-2e3", "?", '"7"'] * 3 + ["nan", "x", '"?"', ""])
_NOMINAL_CELL = st.sampled_from(["yes", "no", '"no"', "?"] * 3 + ["Yes", ""])
_TYPED_ROW = st.tuples(
    _NUMERIC_CELL, st.one_of(_PLAIN_FIELD, _QUOTED_FIELD, _INNER_QUOTE_FIELD), _NOMINAL_CELL
).map(",".join)
_TYPED_CSV_TEXT = st.builds(
    lambda lines, last: "n,t,l\n" + "".join(lines) + last,
    st.lists(
        st.tuples(st.one_of(_TYPED_ROW, _TYPED_ROW, _ROW), st.sampled_from(["\n", "\r\n", "\r"])).map("".join),
        max_size=8,
    ),
    st.one_of(_TYPED_ROW, _ROW),
)


@given(text=_TYPED_CSV_TEXT)
@example(text='n,t,l\n1,"a\nb",yes\r\n2,"\n",no\nx,a,yes\n')  # a bad number after quoted line breaks
@example(text='n,t,l\n1,"a\r\nb",yes\n2,b\n')  # a ragged row after a quoted CRLF
@example(text='n,t,l\n?,"","?"\n')  # a quoted "?" is a label, not missing
def test_csv_error_matches_the_whole_file_oracle(csv_path, text):
    expected = oracle_read_csv_error(text, {"n": "numeric", "l": ("yes", "no")})
    for source in ("stream", "path"):
        try:
            read_csv(_source(text, source, csv_path), {"n": "numeric", "l": ("nominal", ("yes", "no"))})
        except (RaggedRow, MalformedInput) as exc:
            assert (type(exc).__name__, str(exc)) == expected, source
        else:
            assert expected is None, source


# A fault, as a record under the header "n,t,l" (n numeric, l nominal yes
# or no), and what read_csv raises for it on line {}, as the
# record-at-a-time reader raised it.
_FAULTS = {
    "bad number": ("x,a,yes", "MalformedInput", "line {}, column 'n': not a finite number: 'x'"),
    "infinite number": ("-inf,a,yes", "MalformedInput", "line {}, column 'n': not a finite number: '-inf'"),
    "label outside the domain": ("1,a,maybe", "MalformedInput", "line {}, column 'l': not in the nominal domain: 'maybe'"),
    'quoted "?" number': ('"?",a,no', "MalformedInput", "line {}, column 'n': not a finite number: '?'"),
    "ragged record": ("1,a", "RaggedRow", "line {}: 2 fields, header has 3"),
}


@pytest.mark.parametrize("source", ["stream", "path"])
@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize(
    "where",
    [[0], [tabular._BATCH - 1], [tabular._BATCH], [3, 9], [tabular._BATCH - 1, tabular._BATCH]],
    ids=["first record", "last of a batch", "first of the next", "two in one batch", "two across batches"],
)
def test_the_first_fault_is_raised_wherever_batches_end(tmp_path, source, fault, where):
    # good records, every fifth with a quoted multi-line text cell; the
    # fault at the first index given, and the next fault in _FAULTS at the
    # second (line = record index + 2)
    names = list(_FAULTS)
    records = [f'{i}.5,"a\nb",no' if i % 5 == 0 else f"{i},a,yes" for i in range(2 * tabular._BATCH + 5)]
    for k, index in enumerate(where):
        records[index] = _FAULTS[names[(names.index(fault) + k) % len(names)]][0]
    text = "n,t,l\n" + "".join(record + "\n" for record in records)
    _, kind, message = _FAULTS[fault]
    line = where[0] + 2 + sum(1 for i in range(where[0]) if i % 5 == 0)  # the quoted cells' line breaks
    with pytest.raises((MalformedInput, RaggedRow)) as caught:
        read_csv(_source(text, source, tmp_path / "t.csv"), {"n": "numeric", "l": ("nominal", ("yes", "no"))})
    assert (type(caught.value).__name__, str(caught.value)) == (kind, message.format(line))


def test_nominal_cells_are_the_domain_strings():
    domain = ("yes", "no")
    lines = ["yes" if i % 3 else '"no"' if i % 2 else "?" for i in range(60)]
    ds = read_csv(io.StringIO("HTML\n" + "\n".join(lines) + "\n"), {"HTML": ("nominal", domain)})
    cells = [row[0] for row in ds.rows]
    assert cells.count(MISSING) == 10 and set(cells) == {"yes", "no", MISSING}
    assert all(cell is MISSING or cell is domain[0] or cell is domain[1] for cell in cells)


def _canonical_row(rnd, i):
    """A row of CANONICAL_SCHEMA shaped like a converted mail corpus."""
    def addr():
        return f"{rnd.choice(['ana', 'ben', 'eli', 'omar'])}.{rnd.randrange(90)}@{rnd.choice(['a.test', 'b.test'])}"

    words = " ".join(rnd.choice(["budget", "lunch", "notes", "café", "draft"]) for _ in range(rnd.randint(1, 5)))
    return [
        float(rnd.randrange(1_300_000_000, 1_400_000_000)) if rnd.random() > 0.05 else MISSING,
        f"{rnd.getrandbits(40):x}.{i}@mm.test",
        ";".join(addr() for _ in range(rnd.randint(1, 3))) if rnd.random() > 0.3 else MISSING,
        addr(),
        f"{words} #{i}",
        rnd.choice(["yes", "no"]),
    ]


def _canonical_csv(path):
    """2000 canonical rows written to path, and the bytes of the tables a
    reader of them keeps, one per text column."""
    rnd = random.Random(2024)
    ds = Dataset(list(CANONICAL_SCHEMA), [_canonical_row(rnd, i) for i in range(2000)], "emails")
    write_csv(ds, path)
    tables = 0
    for j, spec in enumerate(CANONICAL_SCHEMA):
        if spec.kind == "text":
            seen = {}
            for row in ds.rows:
                if row[j] is not MISSING:
                    seen[row[j]] = row[j]
            tables += sys.getsizeof(seen)
    return ds, tables


def _read_csv_held(source):
    """read_csv's Dataset, and its peak traced memory above what it returns."""
    tracemalloc.start()
    try:
        back = read_csv(source, CANONICAL_HINTS, relation_name="emails")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return back, peak - retained


def test_read_csv_holds_the_rows_and_one_line(tmp_path):
    # Above the rows it returns, a path's reader holds the buffer it reads
    # lines from, one batch of records and, per text column, a table of
    # the values seen so far (equal text cells share one object). Holding
    # the decoded text of the whole file as well, as the reader once did,
    # overruns the bound, and so does a batch of 64 records.
    path = tmp_path / "emails.csv"
    ds, tables = _canonical_csv(path)
    back, held = _read_csv_held(path)
    assert back == ds
    assert held <= tables + 32_768, (held, tables, os.path.getsize(path))


def test_read_csv_of_a_stream_holds_the_rows_and_one_chunk(tmp_path):
    # A stream's lines are cut from chunks of tabular._CHUNK characters.
    # Reading it whole into an io.StringIO, whose buffer takes 4 bytes a
    # character, held about 780 KB here.
    path = tmp_path / "emails.csv"
    ds, tables = _canonical_csv(path)
    stream = io.StringIO(path.read_text(encoding="utf-8"))
    back, held = _read_csv_held(stream)
    assert back == ds
    assert held <= tables + 32_768, (held, tables, os.path.getsize(path))


@pytest.mark.parametrize("source", ["stream", "path"])
def test_equal_text_cells_are_one_object(tmp_path, source):
    long = "x" * 40
    text = f'From,CC,Subject\nann@a.test,"ann@a.test",{long}\nann@a.test,?,"{long}"\n"ann@a.test",bo@b.test,{long}\n'
    ds = read_csv(_source(text, source, tmp_path / "t.csv"))
    [(a0, c0, s0), (a1, c1, s1), (a2, c2, s2)] = ds.rows
    assert a0 == c0 == "ann@a.test" and c1 is MISSING and s0 == long
    assert a0 is a1 is a2 and s0 is s1 is s2


# Read from a path, each file written byte for byte: the record a line
# break inside quotes continues, the line each error names, and a bad
# UTF-8 byte further on named in place of any earlier error.
@pytest.mark.parametrize(
    "data,hints,expected",
    [
        (b"a,b\n1,2,3\n\xff\n", {}, "line 3: not valid UTF-8"),  # after a ragged row
        (b"a,b\nx,2\nok\xe9,3\n", {"a": "numeric"}, "line 3: not valid UTF-8"),  # after a bad cell
        (b"a,b\n1,2\n\xc3\n", {"a": "bogus"}, "line 3: not valid UTF-8"),  # after a bad kind hint
        (b"a,b\n1,2\n3,4,5\n", {}, "line 3: 3 fields, header has 2"),
        (b'a,b\n"x\r\ny\nz",2\n3,q\n', {"b": "numeric"}, "line 5, column 'b': not a finite number: 'q'"),
    ],
    ids=["utf8-after-ragged", "utf8-after-bad-cell", "utf8-after-bad-hint", "ragged", "after-three-lines"],
)
def test_path_errors_name_their_line(tmp_path, data, hints, expected):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises((RaggedRow, MalformedInput)) as info:
        read_csv(path, hints)
    assert str(info.value) == expected


@pytest.mark.parametrize(
    "data,rows",
    [
        (b"\xef\xbb\xbf\"a\",b\nx,y", [["x", "y"]]),  # a BOM before a quoted name; no final newline
        (b'a,b\r\n"1\n2\r\n3",x\r\ny,z\r\n', [["1\n2\r\n3", "x"], ["y", "z"]]),  # three lines, CRLF
        (b"a,b\nx\ry,z\r\r\n", [["x\ry", "z\r"]]),  # a bare CR in a plain field
    ],
    ids=["bom-no-final-newline", "quoted-over-three-lines-crlf", "bare-cr"],
)
def test_path_records(tmp_path, data, rows):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    ds = read_csv(path)
    assert ds.attribute_names() == ["a", "b"] and ds.rows == rows


@given(st.one_of(st.text(), st.text(alphabet=',"\r\n?a\u00e9')))
def test_csv_field_is_quoted_exactly_when_it_must_be(text):
    must_quote = any(c in text for c in ',"\r\n') or text == "?"
    expected = '"' + text.replace('"', '""') + '"' if must_quote else text
    assert format_csv_field(text) == expected


_BAD_CELLS = [("numeric", c) for c in ("nan", "inf", "-Infinity", "abc", "")] + [
    ("date", "1e999"),
] + [(("nominal", ("yes", "no")), c) for c in ("maybe", "Yes", "")]


@pytest.mark.parametrize(
    "hint,cell", _BAD_CELLS, ids=[c if h == "numeric" else f"{h}-{c}" if h == "date" else f"nominal-{c}" for h, c in _BAD_CELLS]
)
def test_csv_bad_numeric_cell_names_line_and_column(hint, cell):
    text = f'y,x\n"a\nb",?\nb,{cell}\n'
    what = "not in the nominal domain" if hint[0] == "nominal" else "not a finite number"
    with pytest.raises(MalformedInput) as info:
        read_csv(io.StringIO(text), {"x": hint})
    assert str(info.value) == f"line 4, column 'x': {what}: {cell!r}"


# A hint is read when the header is, so a bad one fails whatever the rows
# hold; it used to pass unnoticed over missing cells and raise at the
# first present one.
@pytest.mark.parametrize("text", ["A,B\n?,x\n", "A,B\n1,x\n", "A,B\n", "A,B"])
@pytest.mark.parametrize("hint", ["bogus", "nominal", ("nominal",), ("numeric", ("a",)), ""])
def test_unknown_kind_hint_is_rejected_at_the_header(text, hint):
    with pytest.raises(ValueError) as info:
        read_csv(io.StringIO(text), kind_hints={"A": hint})
    assert str(info.value) == f"unknown kind hint for A: {hint!r}"


@pytest.mark.parametrize("text", ["From,From\na,b\n", "Date,From,Date\n1,a,2\n", "x,Date,Date", "\ufeffDate,Date\n"])
def test_csv_repeated_header_name_is_rejected(text):
    # only the first of two same-named columns could ever be selected
    with pytest.raises(MalformedInput) as info:
        read_csv(io.StringIO(text), {"Date": "numeric"})
    name = "From" if text.startswith("From") else "Date"
    assert str(info.value) == f"line 1, column {name!r}: repeated header name"


def test_kind_hints_accept_every_form():
    hints = {"n": "numeric", "d": "date", "t": "text", "l": ["nominal", ["a", "b"]], "u": None}
    ds = read_csv(io.StringIO("n,d,t,l,u,v\n1,2,3,a,5,6\n"), hints)
    assert [spec.kind for spec in ds.schema] == ["numeric", "date", "text", "nominal", "text", "text"]
    assert ds.schema[3].nominal_domain == ("a", "b")
    assert ds.rows == [[1.0, 2.0, "3", "a", "5", "6"]]


def test_canonical_hints_read_the_canonical_schema_back():
    from mailminer import cli
    from mailminer.tabular import CANONICAL_HINTS, CANONICAL_SCHEMA

    assert cli.CANONICAL_HINTS is CANONICAL_HINTS
    assert CANONICAL_HINTS == {"Date": "numeric", "HTML": ("nominal", ("yes", "no"))}
    ds = read_csv(io.StringIO(",".join(CANONICAL_ATTRIBUTES) + "\n"), CANONICAL_HINTS)
    assert ds.schema == list(CANONICAL_SCHEMA)


@pytest.mark.parametrize("source", ["path", "stream"])
def test_csv_byte_order_mark_is_not_part_of_the_first_name(tmp_path, source):
    data = b"\xef\xbb\xbfDate,HTML\n1.0,yes\n"
    if source == "path":
        src = tmp_path / "bom.csv"
        src.write_bytes(data)
    else:
        src = io.StringIO(data.decode("utf-8"))
    ds = read_csv(src, {"Date": "numeric", "HTML": ("nominal", ("yes", "no"))})
    assert [spec.name for spec in ds.schema] == ["Date", "HTML"]
    assert ds.schema[0].kind == "numeric"
    assert ds.rows == [[1.0, "yes"]]


def test_csv_ragged_row():
    with pytest.raises(RaggedRow):
        read_csv(io.StringIO("a,b\n1,2,3\n"))


def test_arff_nominal_attribute_line(corpus_dataset):
    assert "@attribute HTML {yes,no}" in _arff_text(corpus_dataset)


def test_arff_zero_rows():
    ds = Dataset([AttributeSpec("HTML", "nominal", ("yes", "no"))], [], "emails")
    text = _arff_text(ds)
    assert text.endswith("@data\n")
    assert read_arff(text) == ds


def test_arff_fixture_passes_grammar_check(corpus_dataset):
    assert read_arff(_arff_text(corpus_dataset)) == corpus_dataset


def test_arff_text_cells_single_quoted():
    ds = _text_ds("it's odd")
    assert "'it\\'s odd'" in _arff_text(ds)


def test_filter_remove(corpus_dataset):
    out = filter_remove(corpus_dataset, ["Date", "MessageId", "CC"])
    assert out.attribute_names() == ["From", "Subject", "HTML"]
    assert out.n_rows == 7
    with pytest.raises(UnknownAttribute):
        filter_remove(corpus_dataset, ["Color"])
    with pytest.raises(EmptyResultSchema):
        filter_remove(corpus_dataset, list(CANONICAL_ATTRIBUTES))


def test_filter_randomize_deterministic(corpus_dataset):
    a = filter_randomize(corpus_dataset, 99)
    b = filter_randomize(corpus_dataset, 99)
    assert a.rows == b.rows
    assert sorted(map(tuple, a.rows)) == sorted(map(tuple, corpus_dataset.rows))


def test_filter_sample_full_fraction_identity(corpus_dataset):
    out = filter_sample(corpus_dataset, 1.0, 5)
    assert out.rows == corpus_dataset.rows


def test_filter_sample_preserves_relative_order(corpus_dataset):
    out = filter_sample(corpus_dataset, 0.5, 7)
    assert out.n_rows == 3
    positions = [corpus_dataset.rows.index(row) for row in out.rows]
    assert positions == sorted(positions)


def test_filter_sample_bad_fraction(corpus_dataset):
    with pytest.raises(ValueError):
        filter_sample(corpus_dataset, 0.0, 1)


def test_filter_discretize_hand_bins():
    ds = Dataset([AttributeSpec("x", "numeric")], [[0.0], [5.0], [10.0]])
    out = filter_discretize(ds, "x", 2)
    assert [r[0] for r in out.rows] == ["b1", "b2", "b2"]
    assert out.schema[0].nominal_domain == ("b1", "b2")


def test_filter_discretize_missing_and_errors():
    ds = Dataset([AttributeSpec("x", "numeric")], [[1.0], [MISSING]])
    out = filter_discretize(ds, "x", 3)
    assert out.rows == [["b1"], [MISSING]]
    all_missing = Dataset([AttributeSpec("x", "numeric")], [[MISSING], [MISSING]])
    assert filter_discretize(all_missing, "x", 2).rows == [[MISSING], [MISSING]]
    with pytest.raises(NotNumeric):
        filter_discretize(_text_ds("a"), "v", 2)


def test_filter_discretize_refuses_a_range_that_overflows_a_float():
    # -1e308 to 1e308 is wider than the largest float, so no bin width fits
    ds = Dataset([AttributeSpec("x", "numeric")], [[-1e308], [0.0], [1e308]])
    with pytest.raises(MalformedInput, match=r"^column 'x': range -1e\+308 to 1e\+308 overflows a float$"):
        filter_discretize(ds, "x", 3)
    ds = Dataset([AttributeSpec("x", "numeric")], [[-8e307], [0.0], [8e307]])  # a finite range keeps its bins
    assert [r[0] for r in filter_discretize(ds, "x", 3).rows] == ["b1", "b2", "b3"]


@pytest.mark.parametrize("cells, shown", [
    ([-1e308, 0.0, 1e308], "-1e+308 to 1e+308"),
    ([-math.inf, 1.0], "-inf to 1.0"),
    # inf - inf is NaN: filter_discretize used to raise a bare ValueError,
    # "cannot convert float NaN to integer", on this column
    ([math.inf, math.inf], "inf to inf"),
])
def test_one_range_rule_for_discretize_and_cluster(cells, shown):
    ds = Dataset([AttributeSpec("x", "numeric")], [[c] for c in cells])
    for call in (lambda: filter_discretize(ds, "x", 3), lambda: attribute_ranges(ds)):
        with pytest.raises(MalformedInput) as caught:
            call()
        assert str(caught.value) == f"column 'x': range {shown} overflows a float"


@pytest.mark.parametrize("at", range(4))
def test_a_nan_cell_is_refused_wherever_it_stands(at):
    # min and max see a NaN only when it comes first: after a first number,
    # kmeans gave the centroid [nan], every row in cluster 0 and SSE nan,
    # and filter_discretize a bare ValueError
    cells = [1.0, MISSING, 2.0, 5.0]
    cells.insert(at, math.nan)
    ds = Dataset([AttributeSpec("x", "numeric")], [[c] for c in cells])
    for call in (
        lambda: attribute_ranges(ds),
        lambda: kmeans(ds, KMeansConfig(k=2, seed=0)),
        lambda: filter_discretize(ds, "x", 3),
    ):
        with pytest.raises(MalformedInput) as caught:
            call()
        assert str(caught.value) == "column 'x': a cell is NaN"


def _range_verdict(cells):
    try:
        return number_range("x", cells)
    except MalformedInput as exc:
        return str(exc)


_RANGE_CELL = st.one_of(
    st.none(), st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]),
    st.integers(), st.sampled_from([0, 2**1023, -(2**1023), 2**1024, 10**400, 2.0**1023, -(2.0**1023)]),
)


@given(st.lists(_RANGE_CELL, max_size=8).flatmap(lambda cells: st.tuples(st.just(cells), st.permutations(cells))))
@example(([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0]))
@example(([0.0, -0.0, math.inf], [-0.0, 0.0, math.inf]))
@example(([2**1023, 2.0**1023, -(2.0**1023)], [2.0**1023, 2**1023, -(2.0**1023)]))
def test_number_range_does_not_depend_on_the_order_of_the_cells(pair):
    # float cells, as read_csv makes them, and int cells; an equal range
    # compares equal, and a refusal's message is the same
    cells, shuffled = pair
    assert _range_verdict(cells) == _range_verdict(shuffled)


def test_an_int_column_past_the_largest_float_is_refused_by_discretize_and_kmeans():
    # both raised a bare OverflowError: discretize dividing the range into
    # bins, kmeans summing the cells for a centroid
    ds = Dataset([AttributeSpec("x", "numeric")], [[0], [10**400], [5]])
    message = f"column 'x': range 0 to {10**400!r} overflows a float"
    for call in (lambda: filter_discretize(ds, "x", 3), lambda: kmeans(ds, KMeansConfig(k=2))):
        with pytest.raises(MalformedInput) as caught:
            call()
        assert str(caught.value) == message


def test_of_an_int_and_an_equal_float_the_float_is_shown():
    # the message showed whichever came first: the high end was the
    # 308-digit int, or 8.98846567431158e+307 in the other order
    message = "column 'x': range -8.98846567431158e+307 to 8.98846567431158e+307 overflows a float"
    for cells in ([2**1023, 2.0**1023, -(2.0**1023)], [2.0**1023, 2**1023, -(2.0**1023)], [-(2**1023), 2.0**1023, -(2.0**1023), 2**1023]):
        with pytest.raises(MalformedInput) as caught:
            number_range("x", cells)
        assert str(caught.value) == message


def test_an_int_past_what_repr_shows_is_named_by_its_bits():
    # repr of an int of more than 4300 digits raises ValueError, which the
    # refusal let out in place of MalformedInput
    ds = Dataset([AttributeSpec("x", "numeric")], [[0], [10**5000], [5]])
    message = "column 'x': range 0 to an int of 16610 bits overflows a float"
    for call in (
        lambda: attribute_ranges(ds),
        lambda: filter_discretize(ds, "x", 3),
        lambda: kmeans(ds, KMeansConfig(k=2)),
    ):
        with pytest.raises(MalformedInput) as caught:
            call()
        assert str(caught.value) == message


def test_duplicate_profile_all_rows_equal():
    ds = _text_ds("a", "a", "a")
    profile = duplicate_profile(ds, ["v"])
    assert (profile.n_different, profile.n_identical) == (0, 3)


def test_duplicate_profile_unknown_attribute(corpus_dataset):
    with pytest.raises(UnknownAttribute):
        duplicate_profile(corpus_dataset, ["Color"])


def test_duplicate_profile_refuses_a_repeated_name(corpus_dataset):
    with pytest.raises(UnknownAttribute, match="^attribute 'From' selected more than once$"):
        duplicate_profile(corpus_dataset, ["From", "Subject", "From"])


def test_duplicate_profile_sum_and_monotonicity():
    rnd = random.Random(7)
    for _ in range(200):
        ds = random_dataset(rnd, max_rows=12)
        names = ds.attribute_names()
        q_size = rnd.randint(1, len(names))
        q = rnd.sample(names, q_size)
        p = rnd.sample(q, rnd.randint(1, q_size))
        prof_p = duplicate_profile(ds, p)
        prof_q = duplicate_profile(ds, q)
        assert prof_p.n_different + prof_p.n_identical == ds.n_rows
        assert prof_q.n_different + prof_q.n_identical == ds.n_rows
        assert prof_q.n_identical <= prof_p.n_identical


def test_filters_do_not_modify_input(corpus_dataset):
    snapshot = copy.deepcopy(corpus_dataset)
    filter_remove(corpus_dataset, ["Date"])
    filter_sample(corpus_dataset, 0.5, 1)
    filter_randomize(corpus_dataset, 1)
    filter_discretize(corpus_dataset, "Date", 3)
    duplicate_profile(corpus_dataset, ["From"])
    assert corpus_dataset == snapshot


def test_csv_roundtrip_random_small():
    rnd = random.Random(11)
    for _ in range(25):
        ds = random_dataset(rnd, max_rows=10)
        text = _csv_text(ds)
        back = read_csv(io.StringIO(text), hints_for(ds), relation_name=ds.relation_name)
        assert back == ds


# Cell text that exercises the codecs: separators, both quote characters,
# CR/LF, the missing marker, backslashes, ARFF's comment and domain
# characters, and anything else.
_CODEC_TEXT = st.text(st.sampled_from(list('a ,"\'\r\n?\\%{}\u00e9')), max_size=5) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=5
)
# a leading byte-order mark is dropped from the first header name on read
_CODEC_NAMES = _CODEC_TEXT.filter(lambda s: not s.startswith("\ufeff"))


@st.composite
def _codec_datasets(draw, max_rows=6):
    """Any schema of the four kinds (one column up), zero rows up, missing
    cells in every kind, literal "?" text, and finite floats."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "nominal", "text", "date"]), min_size=1, max_size=4))
    names = draw(st.lists(_CODEC_NAMES, min_size=len(kinds), max_size=len(kinds), unique=True))
    schema, cells = [], []
    for name, kind in zip(names, kinds):
        if kind == "nominal":
            domain = tuple(draw(st.lists(_CODEC_TEXT, min_size=1, max_size=4, unique=True)))
            schema.append(AttributeSpec(name, kind, domain))
            values = st.sampled_from(domain)
        else:
            schema.append(AttributeSpec(name, kind))
            values = _CODEC_TEXT if kind == "text" else st.floats(allow_nan=False, allow_infinity=False)
        cells.append(st.just(MISSING) | values)
    rows = draw(st.lists(st.tuples(*cells).map(list), max_size=max_rows))
    return Dataset(schema, rows, draw(_CODEC_TEXT))


@given(_codec_datasets())
def test_csv_roundtrip_is_identity(ds):
    back = read_csv(io.StringIO(_csv_text(ds)), hints_for(ds), relation_name=ds.relation_name)
    assert back == ds


def _requoted_csv_text(ds, rnd):
    """ds as CSV text as other writers give it: lines end in LF or CRLF,
    and now and then a field is quoted that need not be (a present cell's
    only: a quoted "?" is text)."""
    lines = [format_csv_row(ds.attribute_names())]
    for row in ds.rows:
        fields = []
        for spec, cell in zip(ds.schema, row):
            text = "?" if cell is MISSING else repr(float(cell)) if spec.is_number else cell
            field = format_csv_field(text) if cell is not MISSING else "?"
            if field == text and cell is not MISSING and rnd.random() < 0.2:
                field = '"' + text.replace('"', '""') + '"'
            fields.append(field)
        lines.append(",".join(fields))
    return "".join(line + rnd.choice(["\n", "\r\n"]) for line in lines)


def _oracle_rows(text, schema):
    """The rows of CSV text as oracle_parse_csv_text reads it, typed."""
    return [
        [MISSING if v == "?" and not q else float(v) if spec.is_number else v for spec, (v, q) in zip(schema, fields)]
        for fields in oracle_parse_csv_text(text)[1:]
    ]


# Up to 100 records typed and written in batches of 1, 2, 3 or the
# module's, and streams cut into chunks of 1, 2, 5 or the module's
# characters: batch ends fall before, after and (for chunks) inside quoted
# multi-line records, among missing cells, bare and quoted "?", and text
# cells with commas, quotes and CRs.
@given(
    ds=_codec_datasets(max_rows=100),
    rnd=st.randoms(use_true_random=False),
    batch=st.sampled_from([1, 2, 3, tabular._BATCH]),
    chunk=st.sampled_from([1, 2, 5, tabular._CHUNK]),
)
@example(  # a literal "?" among plain cells, and a quoted multi-line cell in the next batch
    ds=Dataset([AttributeSpec("t", "text"), AttributeSpec("n", "numeric")], [["a", 1.0], ["?", MISSING], ["b\nc", 2.0]]),
    rnd=random.Random(0),
    batch=2,
    chunk=3,
)
def test_batches_read_back_what_was_written_and_what_the_oracle_reads(csv_path, ds, rnd, batch, chunk):
    with mock.patch.object(tabular, "_BATCH", batch), mock.patch.object(tabular, "_CHUNK", chunk):
        written = _csv_text(ds)
        for text in (written, _requoted_csv_text(ds, rnd)):
            for source in ("stream", "path"):
                back = read_csv(_source(text, source, csv_path), hints_for(ds), relation_name=ds.relation_name)
                assert back == ds, source
                assert back.rows == _oracle_rows(text, ds.schema), source
                for j, spec in enumerate(ds.schema):
                    if spec.kind == "text":  # equal text cells are one object
                        cells = [row[j] for row in back.rows if row[j] is not MISSING]
                        assert len({id(v) for v in cells}) == len(set(cells))
    assert written == _csv_text(ds)  # the same bytes whatever the batch


@given(_codec_datasets())
def test_arff_reads_back_to_the_dataset(ds):
    assert read_arff(_arff_text(ds)) == ds


@pytest.mark.parametrize("write", [write_csv, write_arff])
@pytest.mark.parametrize("bad", [[2.0], [3.0, "b", "extra"]])
def test_a_row_of_another_length_is_refused(tmp_path, write, bad):
    # such a row used to be written cut to the shorter of it and the
    # schema, a line that read_csv refuses (or "extra" dropped unsaid)
    schema = [AttributeSpec("n", "numeric"), AttributeSpec("t", "text")]
    ds = Dataset(schema, [[1.0, "a"], bad, [MISSING, "?"]])
    with pytest.raises(ArityMismatch):
        write(ds, io.StringIO())
    target = tmp_path / "out"
    target.write_text("old contents\n")
    with pytest.raises(ArityMismatch):
        write(ds, target)
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["out"]


def test_a_dataset_with_no_columns_writes_an_empty_line_per_row():
    ds = Dataset([], [[]] * 40)  # more rows than one batch
    assert _csv_text(ds) == "\n" * 41
    assert _arff_text(ds) == "@relation data\n@data\n" + "\n" * 40
    with pytest.raises(ArityMismatch):
        write_csv(Dataset([], [[], [1.0]]), io.StringIO())


def test_arff_date_column_is_numeric_epoch_seconds():
    ds = Dataset([AttributeSpec("Date", "date")], [[1.5], [MISSING]], "emails")
    assert _arff_text(ds) == "@relation emails\n@attribute Date numeric % epoch seconds\n@data\n1.5\n?\n"


# ---------------------------------------------------------------------------
# Writing to a path

_SENDERS = SenderReport((SenderEntry("a@x.test", 2, 0.5), SenderEntry("b@x.test", 2, 0.5)), 4)
# Each path writer, by name: (the call, given its sink; what it writes).
_PATH_WRITERS = {
    "csv": (lambda sink: write_csv(_text_ds("a", "b", MISSING), sink), "v\na\nb\n?\n"),
    "arff": (
        lambda sink: write_arff(_text_ds("a", "b", MISSING), sink),
        "@relation data\n@attribute v string\n@data\n'a'\n'b'\n?\n",
    ),
    "report": (
        lambda sink: render_report(_SENDERS, "text", sink),
        "sender count share\na@x.test 2 0.5000\nb@x.test 2 0.5000\n",
    ),
}


@pytest.mark.parametrize("name", sorted(_PATH_WRITERS))
def test_path_writer_failing_part_way_keeps_the_old_target(tmp_path, monkeypatch, name):
    """write_csv and write_arff fail after a first row reached the file; a
    report fails on a line that UTF-8 cannot encode (a lone surrogate, as
    surrogateescape leaves for a bad byte)."""
    target = tmp_path / "out"
    target.write_text("old contents\n")
    if name == "report":
        bad = SenderReport((SenderEntry("a@x.test", 1, 0.5), SenderEntry("\udcff", 1, 0.5)), 2)
        with pytest.raises(UnicodeEncodeError):
            render_report(bad, "text", target)
    else:
        real_write_rows = tabular._write_rows

        def failing_rows(f, ds, *formats):
            real_write_rows(f, Dataset(ds.schema, ds.rows[:1]), *formats)
            f.flush()
            raise OSError("disk full")

        monkeypatch.setattr(tabular, "_write_rows", failing_rows)
        with pytest.raises(OSError, match="disk full"):
            _PATH_WRITERS[name][0](target)
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("name", sorted(_PATH_WRITERS))
def test_path_writer_replaces_the_file_a_link_names(tmp_path, name):
    write, expected = _PATH_WRITERS[name]
    buf = io.StringIO()
    write(buf)
    assert buf.getvalue() == expected
    (tmp_path / "real").write_text("old\n")
    link = tmp_path / "link"
    try:
        os.symlink("real", link)
    except (OSError, NotImplementedError) as exc:
        pytest.skip(f"filesystem refuses a symbolic link: {exc}")
    write(link)
    assert link.is_symlink()
    assert (tmp_path / "real").read_bytes() == expected.encode()
    assert sorted(os.listdir(tmp_path)) == ["link", "real"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("name", sorted(_PATH_WRITERS))
def test_path_writer_writes_a_fifo_in_place(tmp_path, name):
    write, expected = _PATH_WRITERS[name]
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write(fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [expected.encode()]
    assert os.listdir(tmp_path) == ["pipe"]

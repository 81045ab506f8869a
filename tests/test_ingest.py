import base64
import email.header
import itertools
import os
import random
import timeit
import tracemalloc
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, strategies as st

from mailminer import (
    MISSING,
    DirectoryUnreadable,
    MalformedInput,
    extract_record,
    parse_eml,
    scan_corpus,
)
from mailminer.ingest import (
    _MAX_NESTING,
    _split_head,
    _split_segments,
    decode_encoded_words,
    iter_corpus,
    read_sender,
)

from helpers import FIXTURE_CORPUS, FIXTURE_DUP_CORPUS, oracle_split_head, oracle_split_segments, run_cli


def _record(raw_bytes):
    return extract_record(parse_eml(raw_bytes))


def test_parse_minimal():
    raw = parse_eml(b"From: a@x.com\r\nSubject: hi\r\n\r\nbody")
    assert raw.headers == (("From", "a@x.com"), ("Subject", "hi"))
    assert raw.body_parts == ("text/plain",)


def test_header_unfolding_joins_with_single_space():
    raw = parse_eml(b"Subject: line1\r\n line2\r\n\r\n.")
    assert raw.get("Subject") == "line1 line2"


def _folded_subject_seconds(lines):
    data = ("Subject: s" + "\r\n x" * lines + "\r\n\r\n.").encode()
    return min(timeit.repeat(lambda: parse_eml(data), number=1, repeat=3))


def test_folded_header_lines_take_linear_time():
    # Joining each continuation line onto the value so far copies the value
    # once per line: 8x the lines took 38-40x the time from 10k lines, and
    # the ratio tends to 64; joined once, it takes about 8x. No absolute
    # time is asserted.
    lines = 20000
    assert parse_eml(("Subject: s" + "\r\n x" * 3 + "\r\n\r\n.").encode()).get("Subject") == "s x x x"
    ratio = _folded_subject_seconds(8 * lines) / _folded_subject_seconds(lines)
    assert ratio < 24, ratio


@given(st.lists(st.sampled_from(["a", "A", ":", " ", "\t", "\r", "\n", "\r\n"]), max_size=40).map("".join))
@example("a: b\r\n\r\nc")
@example("a: b\r\n\nc\n")
@example("a: b\n \r\n\t\n\r\r\n")
def test_split_head_matches_the_earlier_cut(text):
    pairs, index, body = _split_head(text)
    assert (pairs, body) == oracle_split_head(text)
    by_name = {}
    for name, value in pairs:
        by_name.setdefault(name.lower(), []).append(value)
    assert index == by_name


_SENDER_VALUES = st.sampled_from([
    "a@x.test", "Ann <A@X.test>", "=?utf-8?q?J=C3=B6rg?= <jo@x.test>", "=?utf-8?b?RG9lLCBK?= <j@x>",
    "no-at-sign", "", "(c) b@y", "a@x,b@y", "(" * 600 + "a@x",
]) | st.text(max_size=12)


@st.composite
def _sender_messages(draw):
    """Message bytes whose head holds From headers (in any case, repeated,
    folded or not) among others, with CRLF, LF or bare-CR endings, and a
    blank line or none."""
    eol = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    lines = [
        draw(st.sampled_from(["From", "from", "FROM", " From", "Subject", "Cc", "X"]))
        + ": " + draw(_SENDER_VALUES)
        + draw(st.sampled_from(["", eol + " folded@x.test", eol + "\t(c)", eol + " "]))
        for _ in range(draw(st.integers(0, 4)))
    ]
    separator = draw(st.sampled_from(["", eol, eol + eol, "\r\n\n", "\n\r\n"]))
    body = draw(st.binary(max_size=20))
    return (eol.join(lines) + separator).encode("utf-8", "surrogatepass") + body


@given(_sender_messages() | st.binary())
@example(b"")
@example(b"From: a@x.test")
@example(b"From: a@x.test\rSubject: s\r\r")
def test_read_sender_is_the_records_from(data):
    # the same address, and MalformedInput (with the same message) on
    # exactly the same bytes
    try:
        expected = extract_record(parse_eml(data, "m.eml")).from_addr
    except MalformedInput as exc:
        with pytest.raises(MalformedInput) as got:
            read_sender(data, "m.eml")
        assert str(got.value) == str(exc)
    else:
        assert read_sender(data, "m.eml") == expected


def test_lf_only_line_endings():
    raw = parse_eml(b"From: a@x.com\nSubject: hi\n\nbody\n")
    assert raw.get("From") == "a@x.com"
    assert raw.body_parts == ("text/plain",)


def test_multipart_fixture_has_two_parts():
    data = (FIXTURE_CORPUS / "01_win_big_1.eml").read_bytes()
    raw = parse_eml(data)
    assert raw.body_parts == ("text/plain", "text/html")


def test_malformed_input_raises():
    with pytest.raises(MalformedInput):
        parse_eml(b"this is not an email at all")


def test_separator_without_headers_is_accepted():
    raw = parse_eml(b"\r\n\r\njust a body")
    assert raw.headers == ()


# Header bytes are UTF-8 (RFC 6532). A block that is not UTF-8 is read
# line by line, and a line that is not UTF-8 as latin-1. Read as latin-1,
# the "\x85" of UTF-8 "Å" (C3 85) was NEL, a line break, so the Subject
# "Åse Berg" read "Ã".
@pytest.mark.parametrize(
    "head,subject",
    [
        ("Subject: café".encode(), "café"),
        ("Subject: Åse Berg".encode(), "Åse Berg"),
        (b"Subject: caf\xe9", "café"),
        (b"Subject: caf\xe9\r\nFrom: \xc3\x85se <a@x>", "café"),
    ],
    ids=["utf8", "utf8-nel-byte", "latin1", "latin1-beside-utf8"],
)
def test_header_bytes_are_utf8_with_latin1_for_a_line_that_is_not(head, subject):
    raw = parse_eml(head + b"\r\n\r\n.")
    assert extract_record(raw).subject == subject
    assert raw.get("From") in (None, "Åse <a@x>")


# str.splitlines() also breaks at these; a header line ends only at LF or CRLF.
@pytest.mark.parametrize("breaker", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_lf_and_crlf_end_a_header_line(breaker):
    raw = parse_eml(f"Subject: a{breaker}b: c\r\nFrom: x@y\nCc: d@e\r\n\r\n.".encode())
    assert raw.headers == (("Subject", f"a{breaker}b: c"), ("From", "x@y"), ("Cc", "d@e"))


def test_from_lowercased_addr_spec():
    rec = _record(b"From: Bob <BOB@X.COM>\r\n\r\n.")
    assert rec.from_addr == "bob@x.com"


def test_from_without_at_sign_is_missing():
    rec = _record(b"From: undisclosed-recipients\r\n\r\n.")
    assert rec.from_addr is MISSING


def test_message_id_brackets_stripped():
    rec = _record(b"Message-ID: <abc@host>\r\n\r\n.")
    assert rec.message_id == "abc@host"


def test_subject_base64_encoded_word():
    # oracle: decode the payload independently
    expected = base64.b64decode("aGVsbG8=").decode("utf-8")
    rec = _record(b"Subject: =?UTF-8?B?aGVsbG8=?=\r\n\r\n.")
    assert rec.subject == expected == "hello"


def test_subject_q_encoded_word_latin1():
    expected = b"caf\xe9".decode("iso-8859-1")
    rec = _record(b"Subject: =?iso-8859-1?Q?caf=E9?=\r\n\r\n.")
    assert rec.subject == expected


def test_unknown_charset_kept_verbatim():
    token = "=?KOI8-R?B?0NLJ18XU?="
    rec = _record(f"Subject: {token}\r\n\r\n.".encode())
    assert rec.subject == token


# RFC 2047 §4.2: "=" then two hex digits. int(x, 16) alone also takes a
# sign, a blank or a non-ASCII digit, and so decoded each of these.
@pytest.mark.parametrize("token", ["=?utf-8?q?a=+Ab?=", "=?utf-8?q?a=\tAb?=", "=?utf-8?q?a=\u0660\u0661b?="])
def test_q_escape_without_two_hex_digits_is_kept_verbatim(token):
    rec = _record(f"Subject: {token}\r\n\r\n.".encode())
    assert rec.subject == token


def test_adjacent_encoded_words_drop_the_space_between():
    # RFC 2047 §6.2; oracle: the stdlib's email.header
    value = "=?utf-8?q?caf=C3=A9?= =?utf-8?q?_bar?="
    expected = str(email.header.make_header(email.header.decode_header(value)))
    assert decode_encoded_words(value) == expected == "café bar"


def test_folded_encoded_subject_has_no_stray_space():
    rec = _record(b"Subject: =?utf-8?q?caf=C3=A9?=\r\n\t=?utf-8?b?IGJhcg==?=\r\n\r\n.")
    assert rec.subject == "café bar"


def test_space_next_to_a_verbatim_encoded_word_is_kept():
    token = "=?KOI8-R?B?0NLJ18XU?="
    value = f"=?utf-8?q?a?= \t{token} =?utf-8?q?b?=  plain =?utf-8?q?c?="
    assert decode_encoded_words(value) == f"a \t{token} b  plain c"


def test_date_parsed_to_utc_seconds():
    rec = _record(b"Date: Sat, 1 Jul 2023 08:00:00 +0200\r\n\r\n.")
    expected = int(datetime(2023, 7, 1, 6, 0, tzinfo=timezone.utc).timestamp())
    assert rec.date == expected


def test_two_digit_year_date():
    rec = _record(b"Date: Mon, 3 Jul 95 10:00:00 +0000\r\n\r\n.")
    assert datetime.fromtimestamp(rec.date, tz=timezone.utc).year == 1995


def test_unparseable_date_is_missing():
    rec = _record(b"Date: not a date\r\n\r\n.")
    assert rec.date is MISSING


def test_cc_flattened_and_invalid_entries_dropped():
    rec = _record(b"Cc: A <a@x.com>, junk, B <b@y.com>\r\n\r\n.")
    assert rec.cc == ("a@x.com", "b@y.com")


def test_has_html_matches_raw_byte_scan():
    # oracle: substring scan of the raw bytes for a text/html content-type line
    for corpus in (FIXTURE_CORPUS, FIXTURE_DUP_CORPUS):
        for path in sorted(corpus.glob("*.eml")):
            data = path.read_bytes()
            expected = any(
                line.lower().startswith(b"content-type:") and b"text/html" in line.lower()
                for line in data.splitlines()
            )
            assert _record(data).has_html == expected, path.name


def test_parse_is_pure():
    data = (FIXTURE_CORPUS / "04_cheap_meds.eml").read_bytes()
    assert parse_eml(data) == parse_eml(data)
    assert _record(data) == _record(data)


def test_scan_empty_directory(tmp_path):
    result = scan_corpus(tmp_path)
    assert result.records == [] and result.skipped == []


def test_scan_missing_directory_raises(tmp_path):
    with pytest.raises(DirectoryUnreadable):
        scan_corpus(tmp_path / "nope")
    _mail(tmp_path / "a.eml", "a")
    with pytest.raises(DirectoryUnreadable):
        scan_corpus(tmp_path / "a.eml")


def test_iter_corpus_checks_the_directory_at_the_call(tmp_path):
    for directory in (tmp_path / "nope", FIXTURE_CORPUS / "01_win_big_1.eml"):
        with pytest.raises(DirectoryUnreadable):
            iter_corpus(directory, [])


def test_enumeration_holds_only_the_paths_it_keeps(tmp_path):
    # entries come from the scandir iterator one at a time, and the paths
    # are sorted with no key per path, so the paths kept set the peak: not
    # a list of every entry of the directory, nor a bytes key per path
    # (which took the peak to 1.85-1.97 times the paths)
    for i in range(800):
        (tmp_path / f"m{(i * 7919) % 800:04d}.eml").write_bytes(b"x")
    iter_corpus(tmp_path, [])  # warm-up: first-call allocations are not the enumeration's
    skipped = []
    tracemalloc.start()
    try:
        records = iter_corpus(tmp_path, skipped)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(records) == [] and len(skipped) == 800  # "x" is no message
    assert peak <= 1.2 * kept, peak / kept


def test_iter_corpus_reads_a_file_only_when_it_is_reached(tmp_path):
    (tmp_path / "a.eml").write_bytes(b"no header line and no blank line")
    _mail(tmp_path / "b.eml", "b")
    skipped = []
    records = iter_corpus(tmp_path, skipped)
    assert skipped == []
    assert next(records).from_addr == "b@x.test"
    assert [entry.path for entry in skipped] == ["a.eml"]
    assert next(records, None) is None


@pytest.mark.parametrize("corpus", [FIXTURE_CORPUS, FIXTURE_DUP_CORPUS, "mixed"])
def test_scan_corpus_is_the_iterator_it_wraps(tmp_path, corpus):
    if corpus == "mixed":
        corpus = tmp_path
        (corpus / "sub").mkdir()
        _mail(corpus / "sub" / "c.eml", "c")
        (corpus / "b.eml").write_bytes(b"no header line and no blank line")
        _mail(corpus / "a.EML", "a")
        (corpus / "d.eml").mkdir()
    skipped = []
    records = list(iter_corpus(corpus, skipped))
    result = scan_corpus(corpus)
    assert (result.records, result.skipped) == (records, skipped)
    assert len(records) + len(skipped) >= 2


def test_scan_fixture_corpus_in_path_order(corpus_records):
    assert len(corpus_records) == 7
    ids = [r.message_id for r in corpus_records]
    assert ids == [f"blast-{i}@x.test" for i in range(1, 7)] + ["friend-001@y.test"]


def test_scan_order_independent_of_insertion_order(tmp_path):
    names = [f"{c}.eml" for c in "fcebdag"]
    shuffled = list(names)
    random.Random(3).shuffle(shuffled)
    for name in shuffled:
        (tmp_path / name).write_bytes(
            f"From: {name.split('.')[0]}@x.test\r\n\r\n.".encode()
        )
    (tmp_path / "ignored.txt").write_bytes(b"not mail")
    sub = tmp_path / "zz"
    sub.mkdir()
    (sub / "h.EML").write_bytes(b"From: h@x.test\r\n\r\n.")
    result = scan_corpus(tmp_path)
    froms = [r.from_addr for r in result.records]
    assert froms == [f"{c}@x.test" for c in sorted("fcebdag")] + ["h@x.test"]


def test_scan_truncated_file_goes_to_skip_list(tmp_path):
    (tmp_path / "good.eml").write_bytes(b"From: a@x.com\r\n\r\nbody")
    (tmp_path / "bad.eml").write_bytes(b"truncated garbage with no structure")
    result = scan_corpus(tmp_path)
    assert len(result.records) == 1
    assert len(result.skipped) == 1
    assert result.skipped[0].path == "bad.eml"


def test_scan_non_utf8_file_name_in_byte_order(tmp_path):
    # "\udc80.eml" (the escaped byte 0x80) sorts after "é.eml" as a str,
    # but before it in byte order, which is the order files are read in
    pairs = {"ff-a": (b"\xff_x.eml", b"a.eml"), "80-e-acute": (b"\x80.eml", "é.eml".encode())}
    try:
        for sub, names in pairs.items():
            (tmp_path / sub).mkdir()
            for name in names:
                with open(os.path.join(os.fsencode(tmp_path / sub), name), "wb") as f:
                    f.write(b"From: " + name[:1].hex().encode() + b"@x.test\r\n\r\n.")
    except OSError as exc:
        pytest.skip(f"filesystem refuses a non-UTF-8 file name: {exc}")
    assert [r.from_addr for r in scan_corpus(tmp_path / "ff-a").records] == ["61@x.test", "ff@x.test"]
    assert [r.from_addr for r in scan_corpus(tmp_path / "80-e-acute").records] == ["80@x.test", "c3@x.test"]
    proc = run_cli("convert", tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.count(b"\n") == 5


def test_multipart_delimiters_with_blanks_cr_and_close():
    body = (
        "preamble\r\n--b.1 \t\r\nContent-Type: text/plain\r\n\r\nx\r\n"
        "--b.1x\r\n--b.1--\r\nignored\r\n"
        "--b.1\nContent-Type: text/html\n\n<p>\n--b.1-- \n"
    )
    raw = parse_eml(b'Content-Type: multipart/mixed; boundary="b.1"\r\n\r\n' + body.encode())
    assert raw.body_parts == ("text/plain", "text/html")


# The message's body is decoded as its head is, so a non-ASCII boundary
# reads the same at the top level and in a nested part.
@pytest.mark.parametrize("nested", [False, True])
def test_non_ascii_boundary(nested):
    mime = 'Content-Type: multipart/mixed; boundary="é"\r\n\r\n--é\r\nContent-Type: text/html\r\n\r\n<p>\r\n--é--'
    if nested:
        mime = f"Content-Type: multipart/mixed; boundary=o\r\n\r\n--o\r\n{mime}\r\n--o--"
    assert parse_eml(mime.encode()).body_parts == ("text/html",)


def _nested(levels):
    """A message of one-part multiparts nested `levels` deep around one
    text/html leaf."""
    mime = "Content-Type: text/html\r\n\r\n<p>\r\n"
    for i in range(levels):
        mime = f"Content-Type: multipart/mixed; boundary=b{i}\r\n\r\n--b{i}\r\n{mime}--b{i}--\r\n"
    return mime.encode()


@pytest.mark.parametrize(
    "levels, parts",
    [
        (_MAX_NESTING - 1, ("text/html",)),
        (_MAX_NESTING, ("text/html",)),
        (_MAX_NESTING + 1, ("multipart/mixed",)),
        (1200, ("multipart/mixed",)),  # past the recursion limit
    ],
)
def test_multipart_levels_past_the_cap_are_one_leaf(levels, parts):
    assert parse_eml(_nested(levels)).body_parts == parts


def test_scan_keeps_a_deeply_nested_message(tmp_path):
    (tmp_path / "deep.eml").write_bytes(b"From: a@x.test\r\n" + _nested(1200))
    result = scan_corpus(tmp_path)
    assert [r.from_addr for r in result.records] == ["a@x.test"]
    assert result.skipped == []


# Boundaries with regex metacharacters, blanks and "-"; lines that are
# delimiters, near misses (a stray "-", text after the blanks, "\r" not
# last) and noise with bare "\r".
_BOUNDARIES = st.text(alphabet="ab-_ \t.*+?()[]{}|^$\\=\r", min_size=1, max_size=6)


@st.composite
def _delimited_bodies(draw):
    boundary = draw(_BOUNDARIES)
    dash = "--" + boundary
    delimiter = st.builds(
        lambda lead, tail, blanks, cr: lead + dash + tail + blanks + cr,
        st.sampled_from(["", "", "", "-", " ", "x"]),
        st.sampled_from(["", "", "--", "-", "---", "x", "--x"]),
        st.text(alphabet=" \t", max_size=3),
        st.sampled_from(["", "\r", "\r\r", "\r ", " \r"]),
    )
    noise = st.text(alphabet="x-\r \t", max_size=5)
    lines = draw(st.lists(delimiter | noise, max_size=12))
    return "\n".join(lines), boundary


@given(_delimited_bodies())
def test_split_segments_matches_regex_oracle(case):
    body, boundary = case
    assert _split_segments(body, boundary) == oracle_split_segments(body, boundary)


# Body, preamble and epilogue lines: no ":" and no "-", so none reads as a
# header of a part without headers or as a delimiter line.
_MIME_TEXT = st.text(alphabet="ab xy", max_size=8)
_LEAF_TYPES = ("text/plain", "text/html", "image/png", "application/pdf")
# Boundary characters of RFC 2046 without "." and digits: each boundary
# ends in "." and a number of its own, so none is a prefix of another.
_BOUNDARY_CHARS = "aZ'()+_,-/:=? "


@st.composite
def _mime_part(draw, nl, ids, depth=0):
    """One MIME part, headers, blank line and body, without a final line
    break, and the leaf content types it plants: a typed leaf, a part with
    no Content-Type (whose body may look like headers), a multipart with
    no boundary or with no part, and up to three levels of multipart with
    a preamble, padded delimiter lines and, if closed, an epilogue."""
    others = draw(st.sampled_from([[], ["Content-Disposition: inline"]]))
    lines = draw(st.lists(_MIME_TEXT, max_size=3))
    kinds = ["untyped", "leaf", "no boundary", "no part"] + (["multipart"] if depth < 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "untyped":
        # a body line that reads like a header stays body, even first after
        # the blank line that starts a part with no header (RFC 2046 §5.1.1)
        lines = draw(st.sampled_from([[], ["Content-Type: text/html"]])) + lines
        return nl.join(others + [""] + lines), ["text/plain"]
    if kind == "leaf":
        ctype = draw(st.sampled_from(_LEAF_TYPES))
        value = draw(st.sampled_from([str.lower, str.upper, str.title]))(ctype)
        value += draw(st.sampled_from(["", "; charset=utf-8", " ; name=x"]))
        return nl.join([f"Content-Type: {value}"] + others + [""] + lines), [ctype]
    ctype = "multipart/" + draw(st.sampled_from(["mixed", "alternative", "related"]))
    if kind == "no boundary":
        return nl.join([f"Content-Type: {ctype}"] + others + [""] + lines), [ctype]
    boundary = draw(st.text(alphabet=_BOUNDARY_CHARS, max_size=4)) + f".{next(ids)}"
    param = draw(st.sampled_from(["boundary", "Boundary"])) + "="
    param += boundary if " " not in boundary and draw(st.booleans()) else f'"{boundary}"'
    head = f"Content-Type: {ctype};" + draw(st.sampled_from([" ", nl + "\t"])) + param
    children = []
    if kind == "multipart":
        children = draw(st.lists(_mime_part(nl, ids, depth + 1), min_size=1, max_size=3))
    blanks = st.sampled_from(["", " ", " \t"])
    out = [head] + others + [""] + lines  # the lines before a delimiter are the preamble
    for text, _ in children:
        out += ["--" + boundary + draw(blanks), text]
    if draw(st.booleans()):
        out += ["--" + boundary + "--" + draw(blanks)] + draw(st.lists(_MIME_TEXT, max_size=2))
    leaves = [leaf for _, planted in children for leaf in planted]
    return nl.join(out), leaves or [ctype]


@st.composite
def _mime_messages(draw):
    nl = draw(st.sampled_from(["\n", "\r\n"]))
    part, leaves = draw(_mime_part(nl, itertools.count()))
    return ("From: a@x.test" + nl + part).encode(), leaves


@given(_mime_messages())
@example((b"Content-Type: multipart/mixed; boundary=b\r\n\r\n--b\r\n\r\nContent-Type: text/html\r\n--b--", ["text/plain"]))
def test_body_parts_are_the_planted_leaves(case):
    data, leaves = case
    assert parse_eml(data).body_parts == tuple(leaves)


def _mail(path, sender):
    path.write_bytes(f"From: {sender}@x.test\r\n\r\n.".encode())


def _symlink(link, target):
    try:
        os.symlink(target, link)
    except (OSError, NotImplementedError) as exc:
        pytest.skip(f"filesystem refuses a symbolic link: {exc}")


def test_scan_reads_linked_files_but_does_not_descend_linked_directories(tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    _mail(outside / "far.eml", "far")
    root = tmp_path / "root"
    root.mkdir()
    _mail(root / "a.eml", "a")
    _symlink(root / "linked_dir", outside)
    _symlink(root / "link.eml", outside / "far.eml")
    result = scan_corpus(root)
    assert [r.from_addr for r in result.records] == ["a@x.test", "far@x.test"]
    assert result.skipped == []


def test_scan_ignores_dangling_links_looping_links_and_eml_directories(tmp_path):
    _mail(tmp_path / "a.eml", "a")
    _symlink(tmp_path / "dangling.eml", tmp_path / "gone.eml")
    _symlink(tmp_path / "loop.eml", tmp_path / "loop.eml")
    (tmp_path / "x.eml").mkdir()
    _mail(tmp_path / "x.eml" / "inner.eml", "inner")
    result = scan_corpus(tmp_path)
    assert [r.from_addr for r in result.records] == ["a@x.test", "inner@x.test"]
    assert result.skipped == []


def test_scan_suffix_rule(tmp_path):
    # Dot-files count; the suffix is case-insensitive; a name that is only
    # ".eml" has no suffix (pathlib's rule), so it is not a message.
    for name in (".hidden.eml", "b.Eml", ".eml", "c.eml.txt", "d.emlx"):
        _mail(tmp_path / name, name.strip(".").split(".")[0] or "bare")
    froms = [r.from_addr for r in scan_corpus(tmp_path).records]
    assert froms == ["hidden@x.test", "b@x.test"]


@pytest.mark.parametrize(
    "cwd, arg, rel, shown",
    [
        ("", "d", "sub/bad.eml", "d/sub/bad.eml"),
        ("", "d/", "sub/bad.eml", "d/sub/bad.eml"),
        ("", "./d", "sub/bad.eml", "d/sub/bad.eml"),
        ("", "d//sub", "bad.eml", "d/sub/bad.eml"),
        ("", "d/./sub/", "bad.eml", "d/sub/bad.eml"),
        ("d", ".", "sub/bad.eml", "sub/bad.eml"),
        ("d", "./", "sub/bad.eml", "sub/bad.eml"),
        ("d/sub", "../sub", "bad.eml", "../sub/bad.eml"),
    ],
)
def test_scan_skip_entries_name_the_path_as_given(tmp_path, monkeypatch, cwd, arg, rel, shown):
    sub = tmp_path / "d" / "sub"
    sub.mkdir(parents=True)
    _mail(sub / "good.eml", "good")
    (sub / "bad.eml").write_bytes(b"truncated garbage with no structure")
    monkeypatch.chdir(tmp_path / cwd)
    result = scan_corpus(arg)
    assert [r.from_addr for r in result.records] == ["good@x.test"]
    assert [(s.path, s.reason) for s in result.skipped] == [
        (rel, f"not an email message: no header/body separator and no header line in {shown}")
    ]


_HEADER_VALUES = st.text() | st.from_regex(
    r"=\?(utf-8|latin1|x-unknown)\?[bBqQ]\?[^? ]*\?=", fullmatch=True
)


@given(st.binary())
def test_parse_eml_raises_only_malformed_input(data):
    try:
        parse_eml(data)
    except MalformedInput:
        pass


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Date", "From", "Cc", "Subject", "Message-ID", "Content-Type"]),
            _HEADER_VALUES,
        ),
        min_size=1,
    ),
    st.binary(),
)
def test_extract_record_never_raises(headers, body):
    head = "".join(f"{name}: {value}\r\n" for name, value in headers)
    extract_record(parse_eml(head.encode("utf-8", "surrogatepass") + b"\r\n" + body))


_CONTENT_TYPES = st.sampled_from([
    "text/html", "TEXT/HTML; charset=utf-8", " text/html ;", "text/html; boundary=b",
    "text/plain", "multipart/alternative; boundary=b", "multipart/mixed", "text/ html",
]) | st.text(max_size=12)


@given(
    st.lists(
        st.tuples(st.sampled_from(["Content-Type", "content-type", "CONTENT-TYPE", "From"]), _CONTENT_TYPES),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from(["\r\n", "\n"]),
    st.binary(max_size=40) | st.sampled_from([b"--b\r\nContent-Type: text/plain\r\n\r\nx\r\n--b--\r\n"]),
)
def test_top_level_html_content_type_is_a_body_part(headers, eol, body):
    # so HTML presence can be read from body_parts alone
    head = "".join(f"{name}: {value}{eol}" for name, value in headers)
    raw = parse_eml(head.encode("utf-8", "surrogatepass") + eol.encode() + body)
    ct_value = raw.get("Content-Type")
    if ct_value and ct_value.split(";", 1)[0].strip().lower() == "text/html":
        assert "text/html" in raw.body_parts

import base64
import os
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from mailminer import (
    MISSING,
    DirectoryUnreadable,
    MalformedInput,
    extract_record,
    parse_eml,
    scan_corpus,
)

from conftest import FIXTURE_CORPUS, FIXTURE_DUP_CORPUS, run_cli


def _record(raw_bytes):
    return extract_record(parse_eml(raw_bytes))


def test_parse_minimal():
    raw = parse_eml(b"From: a@x.com\r\nSubject: hi\r\n\r\nbody")
    assert raw.headers == (("From", "a@x.com"), ("Subject", "hi"))
    assert raw.body_parts == ("text/plain",)


def test_header_unfolding_joins_with_single_space():
    raw = parse_eml(b"Subject: line1\r\n line2\r\n\r\n.")
    assert raw.get("Subject") == "line1 line2"


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
    root = os.fsencode(tmp_path)
    try:
        for name in (b"\xff_x.eml", b"a.eml"):
            with open(os.path.join(root, name), "wb") as f:
                f.write(b"From: " + name[:1].hex().encode() + b"@x.test\r\n\r\n.")
    except OSError as exc:
        pytest.skip(f"filesystem refuses a non-UTF-8 file name: {exc}")
    froms = [r.from_addr for r in scan_corpus(tmp_path).records]
    assert froms == ["61@x.test", "ff@x.test"]
    proc = run_cli("convert", tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.count(b"\n") == 3


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

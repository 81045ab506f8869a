"""Parse .eml files into structured records.

Each message is reduced to six attributes: Date, MessageId, CC, From,
Subject and an HTML presence flag. Header parsing is deliberately small
and forgiving: anything that cannot be interpreted degrades to MISSING
(None) instead of failing the whole file. Message bytes are UTF-8
(RFC 6532), with latin-1 for a line that is not. Only Subject is decoded
from RFC 2047 encoded-words; From and Cc addresses are read from the raw
header value.
"""

import base64
import binascii
import functools
import os
import re
from collections import namedtuple
from datetime import datetime, timedelta
from pathlib import Path

from email._parseaddr import AddressList, parsedate_tz

from .core import MISSING, DirectoryUnreadable, MalformedInput

# The first blank line; the CR of a CRLF before it goes with the last header
# line's strip, and a literal first character lets the search skip ahead.
_SEPARATOR = re.compile(r"\n\r?\n")
# One parameter after its ";": its name, and its quoted or bare value.
_PARAM = re.compile(r';\s*([^\s;=]+)\s*=\s*(?:"([^"]*)"|([^;\s]+))')
# A delimiter line's rest after "--" + boundary (RFC 2046 §5.1.1).
_DELIMITER_END = re.compile(r"(--)?[ \t]*\r?(\n|\Z)")
_ENCODED_WORD = re.compile(r"=\?([^?]+)\?([bBqQ])\?([^? ]*)\?=")
_BAD_Q_ESCAPE = re.compile(r"=(?![0-9A-Fa-f]{2})")
# Multipart levels read; a multipart nested deeper is one leaf of its own
# type. Every level reads spans of the one decoded text and costs a stack
# frame, so hostile nesting never reaches the recursion limit.
_MAX_NESTING = 64
# A From or Cc value that is only bare addr-specs, comma-separated, each
# piece non-empty and at most padded with spaces and tabs.
_BARE_ADDR = r"[ \t]*[A-Za-z0-9._+-]+@[A-Za-z0-9.-]+[ \t]*"
_BARE_LIST = re.compile(f"{_BARE_ADDR}(?:,{_BARE_ADDR})*")
# Distinct From values parsed per process; senders repeat.
_ADDR_CACHE_SIZE = 4096
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
_READ_SIZE = 1 << 16  # bytes per os.read; most messages take one

# Only the B and Q encodings over these charsets are decoded; any other
# encoded-word is kept verbatim.
_CHARSETS = {
    "utf-8": "utf-8",
    "utf8": "utf-8",
    "iso-8859-1": "iso-8859-1",
    "iso8859-1": "iso-8859-1",
    "latin-1": "iso-8859-1",
    "latin1": "iso-8859-1",
}


class RawEmail(namedtuple("RawEmail", "headers body_parts")):
    """One message: headers, its ((name, value), ...) unfolded in order;
    and body_parts, the content types of its leaf MIME parts."""

    __slots__ = ()

    def get(self, name):
        """First header value with the given name, case-insensitive."""
        return _first(self.headers, name.lower())


class EmailRecord(namedtuple("EmailRecord", "date message_id cc from_addr subject has_html")):
    """A message reduced to the six canonical attributes: date (UTC
    seconds), message_id, from_addr (a lowercase addr-spec) and subject
    (decoded), each MISSING if absent; cc, lowercase addr-specs; has_html."""

    __slots__ = ()


class SkipEntry(namedtuple("SkipEntry", "path reason")):
    __slots__ = ()


class ScanResult(namedtuple("ScanResult", "records skipped")):
    __slots__ = ()


def _parse_header_block(text):
    """Header lines to (name, value) pairs. Folded continuations are
    joined with a single space, once for each header that folds. Lines
    with no colon are ignored. Lines end at "\n" or "\r\n" only, so a form
    feed, U+0085 or U+2028 in a value is part of it."""
    pairs = []
    folds = {}  # position in pairs -> the pieces of a header that folds
    for line in text.split("\n"):  # the CR of a CRLF goes with the strip
        if line[:1] in (" ", "\t") and pairs:
            if piece := line.strip():
                folds.setdefault(len(pairs) - 1, [pairs[-1][1]]).append(piece)
        elif ":" in line:
            name, _, value = line.partition(":")
            pairs.append((name.strip(), value.strip()))
        # else: a blank or stray line (e.g. mbox "From " marker), skip it
    for i, pieces in folds.items():
        pairs[i] = (pairs[i][0], " ".join(pieces))
    return pairs


def _first(pairs, low):
    """The first value of the header pairs under a lowercased name, or None."""
    return next((value for name, value in pairs if name.lower() == low), None)


def _split_head(text, start, end):
    """The span text[start:end] cut at its first blank line (CRLF or LF
    endings) into its header pairs and the (start, end) span of the body
    after the line; with no blank line, all of the span is header and the
    body is None. Only the header lines are copied."""
    m = _SEPARATOR.search(text, start, end)
    if m is None:
        return _parse_header_block(text[start:end]), None
    return _parse_header_block(text[start : m.start()]), (m.end(), end)


def _boundary(ct_value):
    for m in _PARAM.finditer(ct_value):  # from the start: a quoted value is passed over whole
        if m[1].lower() == "boundary":
            return m[2] or m[3]  # "" or None, as after the loop: no boundary


def _split_segments(text, body, boundary):
    """The (start, end) spans of text after each opening delimiter line of
    the body span, up to the next delimiter line or the end of the body.

    A delimiter line is "--" + boundary, then an optional "--", then only
    spaces and tabs, then at most one "\\r" before the "\\n" (RFC 2046
    §5.1.1; see _DELIMITER_END). One ending in "--" is a close delimiter:
    it ends a segment and opens none. Text before the first delimiter is
    dropped. A segment starts with the "\\n" that ends its delimiter line
    and keeps the one before the next. A body starts after the "\\n" of
    its blank line, so its first line is found by the same search for
    "\\n--" + boundary as every other. The boundary comes from a one-line
    header value, so it holds no "\\n".
    """
    start, end = body
    dash = "\n--" + boundary
    segments = []
    opened = None  # offset in text of the open segment, if any
    pos = text.find(dash, start - 1, end)  # offset of the "\n" before a candidate line
    while pos >= 0:
        m = _DELIMITER_END.match(text, pos + len(dash), end)
        if m:
            if opened is not None:
                segments.append((opened, pos + 1))
            opened = None if m.group(1) else m.start(2)
        pos = text.find(dash, pos + 1, end)
    if opened is not None:
        segments.append((opened, end))
    return segments


def _part_types(headers, text, body, depth=1):
    """The content types of a message's or part's leaves, given its header
    pairs and the span of its body in text (None if it has none). A
    multipart is cut at its delimiter lines (see _split_segments) and each
    segment is read as a part, recursively, to _MAX_NESTING levels. A
    multipart with no boundary parameter, no segment or too deep is one
    leaf of its own type, as is any other part; a part without a
    Content-Type is text/plain."""
    ct_value = _first(headers, "content-type")
    if not ct_value:
        return ["text/plain"]
    ctype = ct_value.split(";", 1)[0].strip().lower()
    boundary = depth <= _MAX_NESTING and ctype.startswith("multipart/") and _boundary(ct_value)
    parts = []
    if boundary and body:
        for segment in _split_segments(text, body, boundary):
            part_headers, part_body = _split_head(text, *segment)
            parts += _part_types(part_headers, text, part_body, depth + 1)
    return parts or [ctype]


def _decode_line(line):
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError:
        return line.decode("latin-1")


def _decode_head(data):
    """Message bytes as text: UTF-8 (RFC 6532) when they all decode, and
    otherwise line by line, a line that is not UTF-8 read as latin-1."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return "\n".join([_decode_line(line) for line in data.split(b"\n")])


def _cut_message(data, source_path):
    """Header pairs, text and body span of message bytes decoded by
    _decode_head, cut by _split_head as each MIME part is (a UTF-8 sequence
    holds no CR or LF, so the cut falls where it falls in the bytes). In
    a file with no LF each CR ends a line (classic Mac); where a file has
    LFs, a bare CR is part of its line. MalformedInput if there is neither
    a blank line nor a header line."""
    if b"\n" not in data:
        data = data.replace(b"\r", b"\n")
    text = _decode_head(data)
    headers, body = _split_head(text, 0, len(text))
    if not headers and body is None:
        raise MalformedInput(
            f"not an email message: no header/body separator and no header line"
            + (f" in {source_path}" if source_path else "")
        )
    return headers, text, body


def parse_eml(data, source_path=None):
    """Parse raw .eml bytes into a RawEmail (see _cut_message)."""
    headers, text, body = _cut_message(data, source_path)
    return RawEmail(tuple(headers), tuple(_part_types(headers, text, body)))


def _decode_q(text):
    """Q-encoded text as bytes (RFC 2047 §4.2). ValueError unless each "="
    starts two hex digits (a2b_qp would keep a bad escape as it stands)
    and every character is latin-1."""
    if _BAD_Q_ESCAPE.search(text):
        raise ValueError("bad Q escape")
    return binascii.a2b_qp(text.encode("latin-1"), header=True)


def _decode_word(m):
    """The text of one encoded-word match, or None if it does not decode."""
    codec = _CHARSETS.get(m.group(1).split("*", 1)[0].lower())
    if codec is None:
        return None
    try:
        if m.group(2).lower() == "b":
            raw = base64.b64decode(m.group(3), validate=True)
        else:
            raw = _decode_q(m.group(3))
        return raw.decode(codec)
    except (binascii.Error, ValueError, UnicodeDecodeError):
        return None


def decode_encoded_words(value):
    """Decode RFC 2047 =?charset?B|Q?...?= tokens; undecodable tokens
    are kept verbatim. Spaces and tabs between two encoded-words that
    both decode are dropped (RFC 2047 §6.2); next to a verbatim token
    they stay."""
    out = []
    pos = 0
    prev_decoded = False
    for m in _ENCODED_WORD.finditer(value):
        gap = value[pos : m.start()]
        text = _decode_word(m)
        if not (prev_decoded and text is not None and not gap.strip(" \t")):
            out.append(gap)
        out.append(m.group(0) if text is None else text)
        prev_decoded = text is not None
        pos = m.end()
    out.append(value[pos:])
    return "".join(out)


def _clean_addr(addr):
    addr = addr.strip().lower()
    return addr if addr.count("@") == 1 else MISSING


# From and Cc values are parsed as they stand: an encoded-word can only be
# a display-name word (RFC 2047 §5), and the display name is not kept, so
# nothing needs decoding. Decoding first would let an encoded comma or
# angle bracket split the value. On every Python the parser raises
# RecursionError past about 500 levels of "(", and the value is no address.
# The parser is email._parseaddr's AddressList, which email.utils'
# getaddresses wraps: read directly, it reads as 3.10 reads on every Python,
# as the strict reading (gh-102988) lives only in that wrapper, and scans
# do not import email.utils, which loads socket and email.charset.
def _addresses(value):
    """The cleaned addr-spec, or MISSING, of each address of a From or Cc
    value in order: both list addresses (RFC 5322 §3.6.2-3, RFC 6854).

    A value that is only bare addr-specs (see _BARE_LIST) reads as its
    pieces, stripped and lowercased, which is what the parser makes of
    it; every other value goes to the parser whole, because a quoted
    string, a comment or a group can span a comma.
    """
    if _BARE_LIST.fullmatch(value):
        return [piece.strip() for piece in value.lower().split(",")]
    try:
        return [_clean_addr(addr) for _, addr in AddressList(value).addresslist]
    except RecursionError:
        return []


@functools.lru_cache(maxsize=_ADDR_CACHE_SIZE)
def _from_addr(value):
    """The first address of a From value (see _addresses), or MISSING."""
    return next(iter(_addresses(value)), MISSING)


def _timestamp(value):
    """UTC epoch seconds of a Date value (or None), or MISSING. No zone, or
    -0000, reads as UTC. MISSING for no date, no calendar day or time of
    day (30 Feb, 24:00, second 60, year 10000), or an offset of a day or
    more, which datetime's timezone refuses."""
    t = parsedate_tz(value)
    if t is None or not -86400 < t[9] < 86400:
        return MISSING
    try:
        return (datetime(*t[:6]) - _EPOCH) // _SECOND - t[9]
    except (ValueError, OverflowError):
        return MISSING


def extract_record(raw):
    """Reduce a RawEmail to the six canonical attributes.

    Every malformed field degrades to MISSING; this never raises.
    """
    # each lowercased name's first value, and every Cc value, in one pass
    first, cc_values = {}, []
    for name, value in raw.headers:
        low = name.lower()
        first.setdefault(low, value)
        if low == "cc":
            cc_values.append(value)
    date = _timestamp(first.get("date"))

    message_id = MISSING
    mid = first.get("message-id")
    if mid:
        mid = mid.strip().strip("<>").strip()
        if mid:
            message_id = mid

    from_addr = _from_addr(first.get("from") or "")

    cc = [addr for value in cc_values for addr in _addresses(value) if addr is not MISSING]

    subject = MISSING
    subject_header = first.get("subject")
    if subject_header:
        decoded = decode_encoded_words(subject_header).strip()
        if decoded:
            subject = decoded

    # a top-level text/html content type is one of the body parts too
    has_html = "text/html" in raw.body_parts
    return EmailRecord(date, message_id, tuple(cc), from_addr, subject, has_html)


def _eml_files(root):
    """Relative paths, as bytes joined by b"/", of the .eml files under
    root, in one os.scandir pass per directory.

    A name is a .eml file when its last suffix is ".eml" in any case (a
    name that is only ".eml" has no suffix, as in pathlib) and it is a
    regular file or a link to one. A link is tested with Path.is_file,
    which reads a looping link as no file where DirEntry.is_file raises.
    Linked directories are not descended; a subdirectory that cannot be
    opened (PermissionError) is passed over, the root not. Entries come
    from the scandir iterator one at a time, so only the paths kept grow.
    """
    found = []
    pending = [(os.fsencode(root), b"")]
    while pending:
        path, prefix = pending.pop()
        try:
            it = os.scandir(path)
        except PermissionError:
            if prefix:  # b"" is the root
                continue
            raise
        with it:
            for entry in it:
                name = entry.name
                if entry.is_dir(follow_symlinks=False):
                    pending.append((entry.path, prefix + name + b"/"))
                elif len(name) > 4 and name[-4:].lower() == b".eml" and (
                    Path(os.fsdecode(entry.path)).is_file() if entry.is_symlink() else entry.is_file()
                ):
                    found.append(prefix + name)
    return found


def read_record(data, source_path=None):
    """The EmailRecord of a message's bytes; MalformedInput as parse_eml."""
    return extract_record(parse_eml(data, source_path))


def read_sender(data, source_path=None):
    """read_record(data).from_addr, read from the cut head alone."""
    return _from_addr(_first(_cut_message(data, source_path)[0], "from") or "")


def iter_corpus(directory, skipped, read=read_record):
    """read(data, path) of each .eml file under a directory, recursively,
    each file read as the iterator reaches it; by default, its record.

    Enumeration: dot-files count; the ".eml" suffix matches in any case;
    a link to a .eml file is read, a linked directory is not descended,
    and dangling links and directories named *.eml are ignored (see
    _eml_files). Files are processed in lexicographic byte order of their
    relative path, kept as bytes from the scan to the sort, so the result
    is independent of filesystem enumeration order. Unparseable .eml
    files are appended to skipped under their relative path, with a
    reason that names the file as Path(directory) / relative path;
    non-.eml files are ignored entirely.
    This call enumerates the directory, so DirectoryUnreadable comes first.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DirectoryUnreadable(f"not a readable directory: {directory}")
    try:
        files = _eml_files(root)
    except OSError as exc:
        exc.filename = os.fsdecode(exc.filename)  # the path as str, as it was given
        raise DirectoryUnreadable(f"cannot scan {directory}: {exc}") from exc
    files.sort()
    return _read_each(str(root), files, skipped, read)


def _read_file(path):
    """A file's bytes, by os.read to an empty read; an OSError names the path."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))  # no newline translation
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


def _read_each(root, files, skipped, read):
    # root / rel as a plain string, as pathlib shows it ("." / rel is rel)
    prefix = "" if root == "." else os.path.join(root, "")
    for rel in map(os.fsdecode, files):
        path = prefix + rel
        try:
            value = read(_read_file(path), path)
        except MalformedInput as exc:
            skipped.append(SkipEntry(rel, str(exc)))
        except OSError as exc:
            skipped.append(SkipEntry(rel, f"read error: {exc}"))
        else:
            yield value


def scan_corpus(directory):
    """Every record and skip entry of iter_corpus(directory), as lists."""
    skipped = []
    return ScanResult(list(iter_corpus(directory, skipped)), skipped)

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
import email.utils
import functools
import os
import re
from dataclasses import dataclass
from datetime import timezone
from pathlib import Path

from .core import MISSING, DirectoryUnreadable, MalformedInput

_SEPARATOR = re.compile(r"\r?\n\r?\n")
_BOUNDARY_QUOTED = re.compile(r'boundary\s*=\s*"([^"]*)"', re.IGNORECASE)
_BOUNDARY_BARE = re.compile(r"boundary\s*=\s*([^;\s]+)", re.IGNORECASE)
_ENCODED_WORD = re.compile(r"=\?([^?]+)\?([bBqQ])\?([^? ]*)\?=")
_BAD_Q_ESCAPE = re.compile(r"=(?![0-9A-Fa-f]{2})")
# Multipart levels read; a multipart nested deeper is one leaf of its own
# type. Each level copies its text and costs a stack frame, so hostile
# nesting stays cheap and never reaches the recursion limit.
_MAX_NESTING = 64
# A Cc value that is only bare addr-specs, comma-separated, each piece
# non-empty and at most padded with spaces and tabs.
_BARE_ADDR = r"[ \t]*[A-Za-z0-9._+-]+@[A-Za-z0-9.-]+[ \t]*"
_BARE_LIST = re.compile(f"{_BARE_ADDR}(?:,{_BARE_ADDR})*")
# Distinct From values parsed per process; senders repeat.
_ADDR_CACHE_SIZE = 4096

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


@dataclass(frozen=True)
class RawEmail:
    """One message split into unfolded headers and MIME body part types."""

    headers: tuple  # ((name, value), ...) in order of appearance
    body_parts: tuple  # (content_type, ...) of the leaf MIME parts

    def get(self, name):
        """First header value with the given name, case-insensitive."""
        return _first_header(self.headers, name)

    def get_all(self, name):
        low = name.lower()
        return [v for hname, v in self.headers if hname.lower() == low]


@dataclass(frozen=True)
class EmailRecord:
    """A message reduced to the six canonical attributes."""

    date: object  # UTC seconds (int) or MISSING
    message_id: object  # str or MISSING
    cc: tuple  # lowercase addr-specs, possibly empty
    from_addr: object  # lowercase addr-spec or MISSING
    subject: object  # decoded str or MISSING
    has_html: bool


@dataclass(frozen=True)
class SkipEntry:
    path: str
    reason: str


@dataclass
class ScanResult:
    records: list
    skipped: list


def _parse_header_block(text):
    """Header lines to (name, value) pairs; folded continuations are
    joined with a single space. Lines with no colon are ignored. Lines
    end at "\n" or "\r\n" only, so a form feed, U+0085 or U+2028 in a
    value is part of it."""
    headers = []
    for line in text.split("\n"):  # the CR of a CRLF goes with the strip
        if not line.strip():
            continue
        if line[:1] in (" ", "\t") and headers:
            name, value = headers[-1]
            headers[-1] = (name, value + " " + line.strip())
        elif ":" in line:
            name, _, value = line.partition(":")
            headers.append((name.strip(), value.strip()))
        # else: stray line (e.g. mbox "From " marker), skip it
    return headers


def _first_header(headers, name):
    """The first value of the named header in (name, value) pairs,
    case-insensitive, or None."""
    low = name.lower()
    for hname, value in headers:
        if hname.lower() == low:
            return value
    return None


def _split_head(text):
    """Text cut at its first blank line (CRLF or LF endings) into its
    header pairs and the body after the line; with no blank line, all of
    the text is header and the body is None."""
    m = _SEPARATOR.search(text)
    if m is None:
        return _parse_header_block(text), None
    return _parse_header_block(text[: m.start()]), text[m.end():]


def _main_type(ct_value):
    return ct_value.split(";", 1)[0].strip().lower()


def _boundary(ct_value):
    m = _BOUNDARY_QUOTED.search(ct_value) or _BOUNDARY_BARE.search(ct_value)
    return m.group(1) if m else None


def _split_segments(body_text, boundary):
    """The text after each opening delimiter line, up to the next delimiter
    line or the end of the body.

    A delimiter line is "--" + boundary, then an optional "--", then only
    spaces and tabs, then at most one "\\r" before the "\\n" (RFC 2046
    §5.1.1). One ending in "--" is a close delimiter: it ends a segment
    and opens none. Text before the first delimiter is dropped. A segment
    starts with the "\\n" that ends its delimiter line and keeps the one
    before the next. The boundary comes from a one-line header value, so
    it holds no "\\n", and only lines found by one search for "\\n--" +
    boundary are looked at.
    """
    text = "\n" + body_text  # the first line starts after a "\n" too
    dash = "\n--" + boundary
    segments = []
    start = None  # offset in text of the open segment, if any
    pos = text.find(dash)  # offset of the "\n" before a candidate line
    while pos >= 0:
        eol = text.find("\n", pos + len(dash))
        if eol < 0:
            eol = len(text)
        rest = text[pos + len(dash) : eol]
        close = rest.startswith("--")
        if close:
            rest = rest[2:]
        if rest.endswith("\r"):
            rest = rest[:-1]
        if not rest.strip(" \t"):
            if start is not None:
                segments.append(text[start : pos + 1])
            start = None if close else eol
        pos = text.find(dash, eol)
    if start is not None:
        segments.append(text[start:])
    return segments


def _part_types(headers, body, depth=1):
    """The content types of a message's or part's leaves, given its header
    pairs and body (None if it has none). A multipart is cut at its
    delimiter lines (see _split_segments) and each segment is read as a
    part, recursively, to _MAX_NESTING levels. A multipart with no boundary
    parameter, no segment or too deep is one leaf of its own type, as is any
    other part; a part without a Content-Type is text/plain."""
    ct_value = _first_header(headers, "Content-Type")
    if not ct_value:
        return ["text/plain"]
    ctype = _main_type(ct_value)
    boundary = depth <= _MAX_NESTING and ctype.startswith("multipart/") and _boundary(ct_value)
    parts = []
    if boundary:
        for segment in _split_segments(body or "", boundary):
            parts += _part_types(*_split_head(segment), depth + 1)
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


def parse_eml(data, source_path=None):
    """Parse raw .eml bytes into a RawEmail.

    The bytes are decoded by _decode_head and cut by _split_head, as each
    MIME part is: the header block ends at the first blank line, with CRLF
    or LF endings. A UTF-8 sequence holds no CR or LF, so the cut falls
    where it falls in the bytes. Raises MalformedInput when there is
    neither a header/body separator nor a single parseable header line.
    """
    headers, body = _split_head(_decode_head(data))
    if not headers and body is None:
        raise MalformedInput(
            f"not an email message: no header/body separator and no header line"
            + (f" in {source_path}" if source_path else "")
        )
    return RawEmail(tuple(headers), tuple(_part_types(headers, body)))


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
# angle bracket split the value.
@functools.lru_cache(maxsize=_ADDR_CACHE_SIZE)
def _from_addr(value):
    """The cleaned addr-spec of a From value, or MISSING."""
    return _clean_addr(email.utils.parseaddr(value)[1])


def _cc_addrs(value):
    """The cleaned addr-specs of a Cc value.

    A value that is only bare addr-specs (see _BARE_LIST) reads as its
    pieces, stripped and lowercased, which is what the parser makes of
    it; every other value goes to the parser whole, because its reading
    of one piece can depend on the others (strict parsing, gh-102988).
    """
    if _BARE_LIST.fullmatch(value):
        return tuple([piece.strip() for piece in value.lower().split(",")])
    addrs = email.utils.getaddresses([value])
    return tuple(cleaned for _, addr in addrs if (cleaned := _clean_addr(addr)))


def extract_record(raw):
    """Reduce a RawEmail to the six canonical attributes.

    Every malformed field degrades to MISSING; this never raises.
    """
    date = MISSING
    date_header = raw.get("Date")
    if date_header:
        try:
            dt = email.utils.parsedate_to_datetime(date_header)
            if dt is not None:
                if dt.tzinfo is None:
                    dt = dt.replace(tzinfo=timezone.utc)
                date = int(dt.timestamp())
        except (ValueError, TypeError, OverflowError):
            pass

    message_id = MISSING
    mid = raw.get("Message-ID")
    if mid:
        mid = mid.strip().strip("<>").strip()
        if mid:
            message_id = mid

    from_header = raw.get("From")
    from_addr = _from_addr(from_header) if from_header else MISSING

    cc = []
    for value in raw.get_all("Cc"):
        cc.extend(_cc_addrs(value))

    subject = MISSING
    subject_header = raw.get("Subject")
    if subject_header:
        decoded = decode_encoded_words(subject_header).strip()
        if decoded:
            subject = decoded

    # a top-level text/html content type is one of the body parts too
    has_html = "text/html" in raw.body_parts
    return EmailRecord(date, message_id, tuple(cc), from_addr, subject, has_html)


def _eml_files(root):
    """Relative paths ("/"-separated) of the .eml files under root, in
    one os.scandir pass per directory.

    A name is a .eml file when its last suffix is ".eml" in any case (a
    name that is only ".eml" has no suffix, as in pathlib) and it is a
    regular file or a link to one. A link is tested with Path.is_file,
    which reads a looping link as no file where DirEntry.is_file raises.
    Linked directories are not descended; unreadable subdirectories are
    passed over.
    """
    found = []
    pending = [(os.fspath(root), "")]
    while pending:
        path, prefix = pending.pop()
        try:
            with os.scandir(path) as it:
                entries = list(it)
        except PermissionError:
            continue
        for entry in entries:
            name = entry.name
            if entry.is_dir(follow_symlinks=False):
                pending.append((entry.path, prefix + name + "/"))
            elif len(name) > 4 and name[-4:].lower() == ".eml" and (
                Path(entry.path).is_file() if entry.is_symlink() else entry.is_file()
            ):
                found.append(prefix + name)
    return found


def scan_corpus(directory):
    """Parse every .eml file under a directory, recursively.

    Enumeration: dot-files count; the ".eml" suffix matches in any case;
    a link to a .eml file is read, a linked directory is not descended,
    and dangling links and directories named *.eml are ignored (see
    _eml_files). Files are processed in lexicographic byte order of their
    relative path, so the result is independent of filesystem enumeration
    order. Unparseable .eml files land on the skip-list under their
    relative path, with a reason that names the file as
    Path(directory) / relative path; non-.eml files are ignored entirely.
    Raises DirectoryUnreadable when directory is not a directory.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DirectoryUnreadable(f"not a readable directory: {directory}")
    try:
        files = _eml_files(root)
    except OSError as exc:
        raise DirectoryUnreadable(f"cannot scan {directory}: {exc}") from exc
    files.sort(key=os.fsencode)

    records, skipped = [], []
    for rel in files:
        path = root / rel
        try:
            data = path.read_bytes()
            record = extract_record(parse_eml(data, source_path=str(path)))
        except MalformedInput as exc:
            skipped.append(SkipEntry(rel, str(exc)))
        except OSError as exc:
            skipped.append(SkipEntry(rel, f"read error: {exc}"))
        else:
            records.append(record)
    return ScanResult(records, skipped)

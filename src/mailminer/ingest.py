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
import sys
from dataclasses import dataclass, field
from datetime import timezone
from pathlib import Path

from .core import MISSING, DirectoryUnreadable, MalformedInput

# The first blank line; the CR of a CRLF before it goes with the last header
# line's strip, and a literal first character lets the search skip ahead.
_SEPARATOR = re.compile(r"\n\r?\n")
# A name holds a surrogate only where it escapes a byte that is not UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")
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
    index: dict = field(compare=False, repr=False)  # see _parse_header_block

    def get(self, name):
        """First header value with the given name, case-insensitive."""
        return _first(self.index, name.lower())

    def get_all(self, name):
        return list(self.index.get(name.lower(), ()))


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
    """Header lines to (name, value) pairs, and an index from each
    lowercased name to its values in order. Folded continuations are
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
    index = {}
    for name, value in pairs:
        index.setdefault(name.lower(), []).append(value)
    return pairs, index


def _first(index, low):
    """The first value under a lowercased name in a header index, or None."""
    values = index.get(low)
    return values[0] if values else None


def _split_head(text):
    """Text cut at its first blank line (CRLF or LF endings) into its
    header pairs, their index and the body after the line; with no blank
    line, all of the text is header and the body is None."""
    m = _SEPARATOR.search(text)
    if m is None:
        return (*_parse_header_block(text), None)
    return (*_parse_header_block(text[: m.start()]), text[m.end():])


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


def _part_types(index, body, depth=1):
    """The content types of a message's or part's leaves, given its header
    index and body (None if it has none). A multipart is cut at its
    delimiter lines (see _split_segments) and each segment is read as a
    part, recursively, to _MAX_NESTING levels. A multipart with no boundary
    parameter, no segment or too deep is one leaf of its own type, as is any
    other part; a part without a Content-Type is text/plain."""
    ct_value = _first(index, "content-type")
    if not ct_value:
        return ["text/plain"]
    ctype = _main_type(ct_value)
    boundary = depth <= _MAX_NESTING and ctype.startswith("multipart/") and _boundary(ct_value)
    parts = []
    if boundary:
        for segment in _split_segments(body or "", boundary):
            parts += _part_types(*_split_head(segment)[1:], depth + 1)
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
    """The header pairs, index and body of message bytes decoded by
    _decode_head, cut by _split_head as each MIME part is (a UTF-8 sequence
    holds no CR or LF, so the cut falls where it falls in the bytes).
    MalformedInput if there is neither a blank line nor a header line."""
    headers, index, body = _split_head(_decode_head(data))
    if not headers and body is None:
        raise MalformedInput(
            f"not an email message: no header/body separator and no header line"
            + (f" in {source_path}" if source_path else "")
        )
    return headers, index, body


def parse_eml(data, source_path=None):
    """Parse raw .eml bytes into a RawEmail (see _cut_message)."""
    headers, index, body = _cut_message(data, source_path)
    return RawEmail(tuple(headers), tuple(_part_types(index, body)), index)


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
# The parsers read a comment recursively: past about 500 levels of "(" a
# value is no address, on every Python (the strict parsers already read
# unbalanced nesting so; every parser raises RecursionError on balanced).
@functools.lru_cache(maxsize=_ADDR_CACHE_SIZE)
def _from_addr(value):
    """The cleaned addr-spec of a From value, or MISSING."""
    try:
        return _clean_addr(email.utils.parseaddr(value)[1])
    except RecursionError:
        return MISSING


def _cc_addrs(value):
    """The cleaned addr-specs of a Cc value.

    A value that is only bare addr-specs (see _BARE_LIST) reads as its
    pieces, stripped and lowercased, which is what the parser makes of
    it; every other value goes to the parser whole, because its reading
    of one piece can depend on the others (strict parsing, gh-102988).
    """
    if _BARE_LIST.fullmatch(value):
        return tuple([piece.strip() for piece in value.lower().split(",")])
    try:
        addrs = email.utils.getaddresses([value])
    except RecursionError:
        return ()
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

    from_addr = _from_addr(raw.get("From") or "")

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
    Linked directories are not descended; a subdirectory that cannot be
    opened (PermissionError) is passed over. Entries are taken from the
    scandir iterator one at a time, so only the paths kept grow.
    """
    found = []
    pending = [(os.fspath(root), "")]
    while pending:
        path, prefix = pending.pop()
        try:
            it = os.scandir(path)
        except PermissionError:
            continue
        with it:
            for entry in it:
                name = entry.name
                if entry.is_dir(follow_symlinks=False):
                    pending.append((entry.path, prefix + name + "/"))
                elif len(name) > 4 and name[-4:].lower() == ".eml" and (
                    Path(entry.path).is_file() if entry.is_symlink() else entry.is_file()
                ):
                    found.append(prefix + name)
    return found


def read_record(data, source_path=None):
    """The EmailRecord of a message's bytes; MalformedInput as parse_eml."""
    return extract_record(parse_eml(data, source_path))


def read_sender(data, source_path=None):
    """read_record(data).from_addr, read from the cut head alone."""
    return _from_addr(_first(_cut_message(data, source_path)[1], "from") or "")


def iter_corpus(directory, skipped, read=read_record):
    """read(data, path) of each .eml file under a directory, recursively,
    each file read as the iterator reaches it; by default, its record.

    Enumeration: dot-files count; the ".eml" suffix matches in any case;
    a link to a .eml file is read, a linked directory is not descended,
    and dangling links and directories named *.eml are ignored (see
    _eml_files). Files are processed in lexicographic byte order of their
    relative path, so the result is independent of filesystem enumeration
    order. Unparseable .eml files are appended to skipped under their
    relative path, with a reason that names the file as
    Path(directory) / relative path; non-.eml files are ignored entirely.
    This call enumerates the directory, so DirectoryUnreadable comes first.
    """
    root = Path(directory)
    if not root.is_dir():
        raise DirectoryUnreadable(f"not a readable directory: {directory}")
    try:
        files = _eml_files(root)
    except OSError as exc:
        raise DirectoryUnreadable(f"cannot scan {directory}: {exc}") from exc
    # code point order is UTF-8 byte order, so only an escaped byte or
    # another file-system encoding needs a bytes key per path
    if sys.getfilesystemencoding() == "utf-8" and not any(map(_SURROGATE.search, files)):
        files.sort()
    else:
        files.sort(key=os.fsencode)
    return _read_each(str(root), files, skipped, read)


def _read_each(root, files, skipped, read):
    # root / rel as a plain string, as pathlib shows it ("." / rel is rel)
    prefix = "" if root == "." else os.path.join(root, "")
    for rel in files:
        path = prefix + rel
        try:
            with open(path, "rb", buffering=0) as f:
                data = f.readall()
            value = read(data, path)
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

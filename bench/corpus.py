"""Seeded synthetic .eml corpus generator with a ground-truth manifest.

The generator uses only the standard library's `random.Random(seed)`, never
`mailminer.rng`, so no change to the package can change the benchmark's
inputs. The same spec and seed always give byte-identical files.

The manifest predicts what a correct ingest must report, from the
generator's own model of each message:

- `valid` / `malformed`: .eml files that parse, and files that cannot
  (no header line and no header/body separator);
- `senders`: messages per lowercase From address, with messages that have
  no From pooled under "(unknown)";
- `duplicates`: rows whose (From, Subject, HTML) projection repeats.
  Only the planted "blast" messages repeat: members of one blast group
  carry byte-identical From and Subject headers and the same HTML flag,
  and every other Subject carries a unique ASCII token. The count
  therefore holds under any deterministic header decoding.
"""

import base64
import hashlib
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

UNKNOWN_SENDER = "(unknown)"

# Words whose UTF-8 bytes avoid 0x85 and 0x1c-0x1e, which a latin-1 decode
# followed by str.splitlines() would treat as line breaks.
_ACCENTED = ("café", "naïve", "façade", "Müller", "señor", "smørrebrød", "straße", "crème")
_WORDS = (
    "account quarterly report meeting agenda invoice offer limited update "
    "review project deadline schedule budget notes draft request summary "
    "reminder travel policy release notice weekly status lunch team"
).split()
_FIRST = "ana ben carla dev eli farah gus hana ivan jo kai lena milo nora omar pia".split()
_LAST = "smith lee garcia khan novak rossi silva tanaka weber young".split()
_DOMAINS = ("example.test", "mail.test", "corp.test", "news.test", "shop.test")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated corpus. Shares are fractions of valid messages."""

    messages: int  # valid messages; malformed files come on top
    sender_skew: float = 1.1  # Zipf exponent over the sender pool
    html_share: float = 0.4
    multipart_depth: int = 2  # deepest multipart nesting
    encoded_share: float = 0.15  # RFC 2047 encoded-words in Subject/From
    raw8bit_share: float = 0.05  # raw UTF-8 bytes in Subject
    missing_rate: float = 0.05  # per header: Date, Message-ID, From, Cc
    malformed_share: float = 0.01
    blast_share: float = 0.10  # messages planted in duplicate groups
    body_bytes: int = 2400  # approximate body size per message


def _q_encode(text):
    out = []
    for b in text.encode("utf-8"):
        c = chr(b)
        if c == " ":
            out.append("_")
        elif c.isalnum() and b < 128:
            out.append(c)
        else:
            out.append(f"={b:02X}")
    return "=?utf-8?q?" + "".join(out) + "?="


def _b_encode(text):
    return "=?utf-8?b?" + base64.b64encode(text.encode("utf-8")).decode("ascii") + "?="


class _Generator:
    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = random.Random(seed)
        rng = self.rng
        n_senders = max(12, spec.messages // 40)
        self.senders = []
        for i in range(n_senders):
            first, last = rng.choice(_FIRST), rng.choice(_LAST)
            local = f"{first}.{last}{i}"
            if rng.random() < 0.2:
                local = local.capitalize()  # mixed case; ingest lowercases it
            self.senders.append((f"{first.title()} {last.title()}", f"{local}@{rng.choice(_DOMAINS)}"))
        self.weights = [1.0 / (rank + 1) ** spec.sender_skew for rank in range(n_senders)]
        self.paragraphs = [
            " ".join(rng.choice(_WORDS) for _ in range(rng.randint(60, 110)))
            for _ in range(64)
        ]
        self.epoch = datetime(2012, 1, 1, tzinfo=timezone.utc)

    def sender(self):
        return self.rng.choices(self.senders, self.weights)[0]

    def from_header(self, display, addr):
        rng = self.rng
        form = rng.random()
        if form < self.spec.encoded_share:
            return f"{_q_encode(display + ' ' + rng.choice(_ACCENTED))} <{addr}>"
        if form < 0.5:
            return f'"{display}" <{addr}>'
        if form < 0.9:
            return f"{display} <{addr}>"
        return addr

    def subject(self, token):
        """Subject header bytes; the ASCII token stays outside any encoding."""
        rng = self.rng
        words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 6)))
        form = rng.random()
        spec = self.spec
        if form < spec.encoded_share:
            accented = rng.choice(_ACCENTED)
            if rng.random() < 0.5:  # adjacent encoded-words
                text = f"{_q_encode(accented)} {_b_encode(' ' + words)} {token}"
            else:
                text = f"{_b_encode(words + ' ' + accented)} {token}"
            return text.encode("ascii")
        if form < spec.encoded_share + spec.raw8bit_share:
            return f"{words} {rng.choice(_ACCENTED)} {token}".encode("utf-8")
        if rng.random() < 0.1:  # folded onto a continuation line
            return f"{words}\r\n\t{token}".encode("ascii")
        return f"{words} {token}".encode("ascii")

    def text(self):
        rng = self.rng
        paras = []
        size = 0
        while size < self.spec.body_bytes:
            p = rng.choice(self.paragraphs)
            paras.append(p)
            size += len(p) + 2
        return "\r\n\r\n".join(paras)

    def body(self, html, depth, tag):
        """(content-type header, body text) with `depth` multipart levels."""
        if depth == 0:
            if html:
                return "text/html; charset=utf-8", f"<html><body><p>{self.text()}</p></body></html>"
            return "text/plain; charset=utf-8", self.text()
        boundary = f"=_mm{tag}_{depth}"
        if depth == 1 and html:
            parts = [("text/plain; charset=utf-8", self.text()), self.body(True, 0, tag)]
            kind = "alternative"
        else:
            parts = [self.body(html, depth - 1, tag)]
            if self.rng.random() < 0.5:
                blob = base64.encodebytes(self.rng.randbytes(300)).decode("ascii")
                parts.append(("application/octet-stream", blob.replace("\n", "\r\n")))
            kind = "mixed"
        lines = []
        for ctype, text in parts:
            lines += [f"--{boundary}", f"Content-Type: {ctype}", "", text]
        lines.append(f"--{boundary}--")
        return f'multipart/{kind}; boundary="{boundary}"', "\r\n".join(lines)

    def message(self, i, from_hdr, subject, html, date_ok=True, id_ok=True, cc_ok=True):
        rng = self.rng
        head = []
        if from_hdr is not None:
            head.append(b"From: " + from_hdr.encode("utf-8"))
        head.append(f"To: {rng.choice(self.senders)[1]}".encode("ascii"))
        if cc_ok:
            cc = ", ".join(rng.choice(self.senders)[1] for _ in range(rng.randint(1, 3)))
            head.append(f"Cc: {cc}".encode("ascii"))
        if date_ok:
            when = self.epoch + timedelta(seconds=rng.randrange(4 * 365 * 86400))
            tz = timezone(timedelta(hours=rng.randint(-8, 10)))
            head.append(f"Date: {format_datetime(when.astimezone(tz))}".encode("ascii"))
        if id_ok:
            head.append(f"Message-ID: <{i}.{rng.getrandbits(40):x}@mm.test>".encode("ascii"))
        head.append(b"Subject: " + subject)
        head.append(b"MIME-Version: 1.0")
        # half the messages are single-part; the rest nest 1..depth levels,
        # shallow ones more often
        depth = 0 if rng.random() < 0.5 else min(rng.randint(1, self.spec.multipart_depth) for _ in range(2))
        ctype, body = self.body(html, depth, i)
        head.append(f"Content-Type: {ctype}".encode("ascii"))
        return b"\r\n".join(head) + b"\r\n\r\n" + body.encode("ascii") + b"\r\n"

    def malformed(self):
        rng = self.rng
        if rng.random() < 0.3:
            return b""
        words = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(5, 40)))
        return (words + "\n" + words[::-1] + "\n").encode("ascii")


def generate(out_dir, spec, seed):
    """Write the corpus under out_dir and return its manifest (a dict).

    Files are spread over 16 subdirectories, with one non-.eml file per
    subdirectory, which ingest must ignore.
    """
    gen = _Generator(spec, seed)
    rng = gen.rng
    out = Path(out_dir)
    n = spec.messages

    # Plan blast groups of 2..24 randomly placed messages until the share is used.
    blast_total = int(n * spec.blast_share)
    group_of = {}
    groups = []
    free = list(range(n))
    rng.shuffle(free)
    while blast_total >= 2:
        size = min(rng.randint(2, 24), blast_total)
        if blast_total - size == 1:
            size += 1
        members = [free.pop() for _ in range(size)]
        g = len(groups)
        display, addr = gen.sender()
        groups.append((gen.from_header(display, addr), addr.lower(), gen.subject(f"[B{g}]"), rng.random() < 0.7))
        for m in members:
            group_of[m] = g
        blast_total -= size

    n_malformed = round(n * spec.malformed_share)
    malformed_at = set(rng.sample(range(n + n_malformed), n_malformed))
    senders = {}
    digest = hashlib.sha256()
    total_bytes = 0
    valid = 0
    for slot in range(n + n_malformed):
        sub = out / f"box{slot % 16:02d}"
        if slot < 16:
            sub.mkdir(parents=True, exist_ok=True)
            (sub / "index.txt").write_bytes(b"not a message\n")
        name = f"msg{slot:06d}.eml"
        if slot in malformed_at:
            data = gen.malformed()
        else:
            i = valid
            valid += 1
            miss = [rng.random() < spec.missing_rate for _ in range(4)]
            if i in group_of:
                from_hdr, addr, subject, html = groups[group_of[i]]
            else:
                display, addr = gen.sender()
                addr = addr.lower()
                from_hdr = gen.from_header(display, addr)
                if miss[2]:
                    from_hdr, addr = None, UNKNOWN_SENDER
                subject, html = gen.subject(f"#{i}"), rng.random() < spec.html_share
            data = gen.message(i, from_hdr, subject, html, not miss[0], not miss[1], not miss[3])
            senders[addr] = senders.get(addr, 0) + 1
        (sub / name).write_bytes(data)
        digest.update(f"{sub.name}/{name}\0{len(data)}\0".encode("ascii"))
        digest.update(data)
        total_bytes += len(data)

    return {
        "seed": seed,
        "spec": asdict(spec),
        "files": n + n_malformed,
        "valid": valid,
        "malformed": n_malformed,
        "bytes": total_bytes,
        "senders": dict(sorted(senders.items())),
        "blast_groups": len(groups),
        "duplicates": len(group_of),
        "digest": digest.hexdigest(),
    }

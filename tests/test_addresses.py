"""Pinned From and CC addresses of hostile header values, and an oracle
for the address reader.

Each case is one header value and the `from_addr` or `cc` that
`extract_record` makes of it, the same on every Python: the address
parser reads as 3.10 reads it, also where its strict reading
(gh-102988, CVE-2023-27043) exists and is on by default. So a trailing
comma, "a@b@c" and the CVE's "alice@example.org)<bob@example.org>" read
as they did before that fix; mailminer counts and clusters addresses
and makes no trust decision on them.

`_addresses` reads a From or Cc value made only of bare addr-specs
without the parser; From is its first address and Cc the ones present.
The oracle is the parser's reading of the whole value, through the
call `_addresses` makes (`email._parseaddr.AddressList`); a `hypothesis`
property and a seeded fuzz both compare the two, and From with the
oracle's first address, on values biased to bare-list shapes (dots,
"@@", empty pieces, blanks, "<>").

The pins and the seeded fuzz also run as a script, without pytest, so
any interpreter with the package's (stdlib-only) imports can run them:

    python tests/test_addresses.py --check
"""

import random
import sys
from email._parseaddr import AddressList
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from mailminer import MISSING, extract_record, parse_eml
from mailminer.ingest import _BARE_LIST, _addresses, _clean_addr, _from_addr, parsedate_tz

# (header lines, result)
FROM_CASES = [
    ('"Doe, J" <J@X>', "j@x"),
    ("a@x (comment)", "a@x"),
    ("(c) a@x", "a@x"),
    ("undisclosed-recipients:;", MISSING),
    ("Group: a@x, b@y;", "a@x"),
    ("=?utf-8?q?J=C3=B6rg?= <JO@X.org>", "jo@x.org"),
    # the value is parsed as it stands, so an encoded comma ("Doe, J")
    # stays inside its display name
    ("=?utf-8?b?RG9lLCBK?= <j@x>", "j@x"),
    # an encoded-word is a display-name word only (RFC 2047 §5), so an
    # encoded addr-spec ("a@x") is no address
    ("=?utf-8?q?a=40x?=", MISSING),
    ("a@x", "a@x"),
    ("A@X.Com", "a@x.com"),
    ("<a@x>", "a@x"),
    ('"a@b" <c@d>', "c@d"),
    ("a@x,b@y", "a@x"),
    # a trailing comma ends the list (RFC 5322 §4.4 obs-addr-list)
    ("a@x,", "a@x"),
    # CVE-2023-27043's form reads as two addresses
    ("alice@example.org)<bob@example.org>", "alice@example.org"),
    ("a@x\t(tab)", "a@x"),
    ("a@b@c", MISSING),
    (".a@b", ".a@b"),
    ("a.@b", "a.@b"),
    ("a..b@c", "a..b@c"),
    ("a@b.", "a@b."),
    ("no-at-sign", MISSING),
    ("<>", MISSING),
]

CC_CASES = [
    ('"Doe, J" <j@x>', ("j@x",)),
    ('"Doe, J" <j@x>, k@y', ("j@x", "k@y")),
    ("a@x (Al), (c) b@y", ("a@x", "b@y")),
    ("undisclosed-recipients:;", ()),
    ("undisclosed-recipients:;, a@x", ("a@x",)),
    ("Team: a@x, b@y;", ("a@x", "b@y")),
    ("=?utf-8?b?w4RsZg==?= <a@x>, b@y", ("a@x", "b@y")),
    ("=?utf-8?q?Doe=2C_J?= <j@x>, k@y", ("j@x", "k@y")),
    ("=?utf-8?q?a=40x?=, b@y", ("b@y",)),  # an encoded addr-spec is no address
    ("a@x,,b@y", ("a@x", "b@y")),
    ("a@x, b@y,", ("a@x", "b@y")),
    (",a@x", ("a@x",)),
    ("a@x,\tb@y", ("a@x", "b@y")),
    ("a@x\t,\t b@y", ("a@x", "b@y")),
    ("a@b@c", ("@c",)),
    ("a@b@c, d@e", ("@c", "d@e")),
    ('"x" <a@x>, b@y (c', ("a@x", "b@y")),
    ("alice@example.org)<bob@example.org>", ("alice@example.org", "bob@example.org")),
    (".a@b", (".a@b",)),
    ("a.@b", ("a.@b",)),
    ("a..b@c", ("a..b@c",)),
    ("a@b.", ("a@b.",)),
    (".a@b, a.@b, a..b@c, a@b.", (".a@b", "a.@b", "a..b@c", "a@b.")),
    ("A@X, B@y.COM", ("a@x", "b@y.com")),
    ("a+tag@x-y.z, b_c@d", ("a+tag@x-y.z", "b_c@d")),
    ("a9@,", ()),
    ("a9@, b@y", ("b@y",)),
    ("a@x, junk", ("a@x",)),
    ("<>", ()),
    ("a@x, <>", ("a@x",)),
    ("@@", ()),
    ('a@x, "q" <b@y>', ("a@x", "b@y")),
    # two Cc headers: their addresses in header order
    ("a@x\r\nCc: B <b@y>, c@z", ("a@x", "b@y", "c@z")),
]


# Comments nested past the parser's recursion limit, unbalanced and
# balanced: the parser raises RecursionError on every Python, and the
# value reads as no address.
NESTED = [("unbalanced", "(" * 1000 + "a@x"), ("balanced", "(" * 1000 + ")" * 1000 + " a@x")]
NESTED_EXPECTED = {"From": MISSING, "Cc": ()}


def _field(name, value):
    rec = extract_record(parse_eml(f"{name}: {value}\r\n\r\n.".encode()))
    return rec.from_addr if name == "From" else rec.cc


def _mismatches():
    return [
        (name, value, got, want)
        for name, cases in (("From", FROM_CASES), ("Cc", CC_CASES))
        for value, want in cases
        if (got := _field(name, value)) != want
    ] + [
        (name, f"({label} nesting)", got, want)
        for label, value in NESTED
        for name, want in NESTED_EXPECTED.items()
        if (got := _field(name, value)) != want
    ]


def oracle_addresses(value):
    """The parser's reading of a whole raw From or Cc value: each address
    cleaned as extract_record cleans it (MISSING if it is no addr-spec),
    in order."""
    return [_clean_addr(addr) for _, addr in AddressList(value).addresslist]


def oracle_from(value):
    return next(iter(oracle_addresses(value)), MISSING)


# Fragments of From and Cc values: the bare-address alphabets, and the characters
# and shapes where the parser's reading differs from a plain split.
_LOCAL = ["a", "Z", "7", ".", "x.y", "_", "+", "-"]
_DOMAIN = ["a", "Z", "7", ".", "-"]
_EDGES = [".", "..", "@", "@@", " ", "\t", "", "<>", "<", ">", '"', "(", ")", ":", ";", "[", "é", "=?utf-8?q?x?="]


def _fuzz_value(rng):
    """A Cc value of 1-4 pieces, each a bare addr-spec (its local part or
    domain possibly empty, or all dots) padded with blanks. Half the
    values then get edge fragments spliced in or put in place of a
    piece."""
    pieces = []
    for _ in range(rng.randint(1, 4)):
        local = "".join(rng.choice(_LOCAL) for _ in range(rng.choice([0, 1, 1, 2, 2, 3])))
        domain = "".join(rng.choice(_DOMAIN) for _ in range(rng.choice([0, 1, 1, 2, 2, 3])))
        pieces.append(rng.choice(["", " ", "\t"]) + local + "@" + domain + rng.choice(["", " ", "\t "]))
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(pieces))
            at = rng.randint(0, len(pieces[i]))
            edge = rng.choice(_EDGES)
            pieces[i] = rng.choice([pieces[i][:at] + edge + pieces[i][at:], edge])
    return ",".join(pieces)


FUZZ_SEED = 8
FUZZ_CASES = 20000


def fuzz(seed=FUZZ_SEED, cases=FUZZ_CASES):
    """(values tried, values on the fast path, and each (reading, value)
    where _addresses or _from_addr differs from the oracle)."""
    rng = random.Random(seed)
    values = [_fuzz_value(rng) for _ in range(cases)]
    bad = [("_addresses", v) for v in values if _addresses(v) != oracle_addresses(v)]
    bad += [("_from_addr", v) for v in values if _from_addr(v) != oracle_from(v)]
    return len(values), sum(1 for v in values if _BARE_LIST.fullmatch(v)), bad


def _main(argv):
    if argv != ["--check"]:
        print("usage: test_addresses.py --check", file=sys.stderr)
        return 1
    bad = _mismatches()
    version = ".".join(map(str, sys.version_info[:3]))
    for name, value, got, want in bad:
        print(f"{name}: {value!r} gave {got!r}, expected {want!r}")
    print(f"address pins on Python {version}: " + (f"{len(bad)} MISMATCHES" if bad else "ok"))
    tried, bare, fuzz_bad = fuzz()
    for name, value in fuzz_bad[:10]:
        got, want = (_addresses(value), oracle_addresses(value)) if name == "_addresses" else (_from_addr(value), oracle_from(value))
        print(f"{name}({value!r}) is {got!r}, parser {want!r}")
    print(
        f"From and Cc oracle fuzz (seed {FUZZ_SEED}): {tried} values, {bare} bare lists, "
        + (f"{len(fuzz_bad)} MISMATCHES" if fuzz_bad else "0 mismatches")
    )
    return 1 if bad or fuzz_bad else 0


if __name__ == "__main__":
    # exits before the pytest import below, so --check needs no pytest
    sys.exit(_main(sys.argv[1:]))

import pytest  # noqa: E402
from hypothesis import given, strategies as st  # noqa: E402


@pytest.mark.parametrize("value, want", FROM_CASES, ids=[c[0] for c in FROM_CASES])
def test_from_addr_pinned(value, want):
    assert _field("From", value) == want


@pytest.mark.parametrize("value, want", CC_CASES, ids=[c[0] for c in CC_CASES])
def test_cc_pinned(value, want):
    assert _field("Cc", value) == want


@pytest.mark.parametrize("name", NESTED_EXPECTED)
@pytest.mark.parametrize("value", [v for _, v in NESTED], ids=[label for label, _ in NESTED])
def test_nested_comments_read_as_no_address(name, value):
    assert _field(name, value) == NESTED_EXPECTED[name]


_PIECES = st.one_of(
    st.from_regex(r"[ \t]{0,2}[A-Za-z0-9._+-]{0,4}@{1,2}[A-Za-z0-9.-]{0,4}[ \t]{0,2}", fullmatch=True),
    st.lists(st.sampled_from(_LOCAL + _EDGES), max_size=6).map("".join),
)
_CC_VALUES = st.lists(_PIECES, min_size=1, max_size=5).map(",".join) | st.text()


@given(_CC_VALUES)
def test_cc_addrs_matches_parser(value):
    assert _addresses(value) == oracle_addresses(value)


@given(_CC_VALUES)
def test_from_addr_is_the_first_address(value):
    assert _from_addr(value) == oracle_from(value)


@given(_CC_VALUES)
def test_the_oracle_is_getaddresses_without_its_strict_reading(value):
    # ingest reads through AddressList, which email.utils.getaddresses wraps;
    # where the wrapper has a strict reading, strict=False is AddressList
    import email.utils

    strict = {"strict": False} if getattr(email.utils, "supports_strict_parsing", False) else {}
    assert email.utils.getaddresses([value], **strict) == AddressList(value).addresslist
    assert email.utils.parsedate_tz is parsedate_tz


def test_cc_fuzz_matches_parser():
    # From too: _from_addr is the oracle's first address
    tried, bare, bad = fuzz(cases=4000)
    assert bare > tried // 10  # the fast path is exercised
    assert bad == []

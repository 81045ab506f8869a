"""Golden gate at corpus scale: CLI output on a generated corpus and on a
hostile set, as sha256 digests.

bench/corpus.py generates CorpusSpec(400) with seed 11 (imported, never
changed); tests/golden/corpus_gate.json pins its manifest digest, so a
change to the generator reads as "the inputs moved", not as drift in the
output. Beside it the gate writes four small sets of its own:

- hostile: MIME nested 1, 64 and 65 levels deep, folded headers, a
  latin-1 body, encoded-words, bare-CR line endings and a file that is
  not a message;
- boundary: a boundary parameter read by its name, next to a parameter
  whose name ends in "boundary" and quoted values that hold "boundary="
  and "; boundary=";
- address: the From and Cc values that the strict address parser
  (gh-102988, CVE-2023-27043) reads otherwise: trailing commas, "a@b@c",
  an unclosed comment and the CVE's "alice@example.org)<bob@example.org>";
- names: a file name that is not UTF-8 ("\x80.eml") beside "é.eml", which
  byte order and code-point order put the other way round. It is left out,
  with the reason printed, only where the filesystem refuses the name.

Each `convert` (csv, arff, `--attrs`) and `top-senders` runs as a
`python -m mailminer` child in the directory that holds the sets,
so the paths on stderr are the same in every run. Then `convert --out`
writes the generated corpus's CSV once, and every command that reads a
CSV runs on it with its own `--out` file: `cluster --k 3` and
`cluster --auto-k --kmax 5` (each as text, csv and svg), `dupes` and the
four `filter` modes. The golden holds the sha256 of each child's stdout
and stderr, its exit code and the sha256 of its `--out` file.

    python tests/test_corpus_golden.py --check

Regenerate the golden (only when an output change is intended) with

    python tests/test_corpus_golden.py --write
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

from helpers import ROOT, nested_mime, run_cli

GOLDEN = ROOT / "tests" / "golden" / "corpus_gate.json"
SPEC_MESSAGES = 400
SEED = 11
ENV = {"COLUMNS": "200", "MAILMINER_LOG": "info"}
SETS = ("corpus", "hostile", "boundary", "address", "names")
COMMANDS = [
    ("convert_csv", ["convert", "{dir}"]),
    ("convert_arff", ["convert", "{dir}", "--format", "arff"]),
    ("convert_attrs", ["convert", "{dir}", "--attrs", "From,Subject,HTML"]),
    ("top_senders", ["top-senders", "{dir}"]),
]
CSV = "corpus.csv"  # written by the first CSV_COMMANDS entry
CSV_COMMANDS = [
    ("convert_out", ["convert", "corpus"]),
    *(
        (f"cluster_{name}_{report}", ["cluster", CSV, *flags, "--report", report])
        for name, flags in (("k3", ["--k", "3"]), ("auto_k", ["--auto-k", "--kmax", "5"]))
        for report in ("text", "csv", "svg")
    ),
    ("dupes", ["dupes", CSV, "--attrs", "From,Subject,HTML"]),
    ("filter_remove", ["filter", CSV, "--remove", "Subject,CC"]),
    ("filter_sample", ["filter", CSV, "--sample", "0.5", "--seed", "3"]),
    ("filter_shuffle", ["filter", CSV, "--shuffle", "--seed", "3"]),
    ("filter_discretize", ["filter", CSV, "--discretize", "Date:4"]),
]


def _load_generator():
    """bench/corpus.py as a module of its own name, without putting bench/
    on sys.path."""
    spec = importlib.util.spec_from_file_location("mailminer_bench_corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


def _html_under(content_type):
    return (
        f"From: b@x.test\r\nSubject: boundary\r\nContent-Type: {content_type}\r\n\r\n"
        "--zz\r\nContent-Type: text/plain\r\n\r\nzz\r\n--zz--\r\n"
        "--real\r\nContent-Type: text/html\r\n\r\n<p>\r\n--real--\r\n"
    ).encode()


HOSTILE = {
    "nested_1.eml": b"From: n1@x.test\r\nSubject: one\r\n" + nested_mime(1),
    "nested_64.eml": b"From: n64@x.test\r\nSubject: sixty-four\r\n" + nested_mime(64),
    "nested_65.eml": b"From: n65@x.test\r\nSubject: sixty-five\r\n" + nested_mime(65),
    "folded.eml": (
        b"From: Folded\r\n Name <f@x.test>\r\nSubject: a subject\r\n\tfolded\r\n  twice\r\n"
        b'Content-Type: multipart/alternative;\r\n\tboundary="f"\r\n\r\n'
        b"--f\r\nContent-Type: text/html\r\n\r\n<p>\r\n--f--\r\n"
    ),
    "latin1.eml": (
        b"From: l@x.test\r\nSubject: caf\xe9 cr\xe8me\r\nContent-Type: text/plain; charset=latin-1\r\n\r\n"
        + b"na\xefve fa\xe7ade \xa3 \xff\r\n" * 40
    ),
    "encoded.eml": (
        b"From: =?utf-8?q?J=C3=B6rg?= <jo@x.test>\r\n"
        b"Subject: =?utf-8?b?w7xiZXI=?= =?iso-8859-1?q?_caf=E9?= and =?x-bogus?q?kept?=\r\n\r\nbody\r\n"
    ),
    # no LF, so each CR ends a line: Subject "bare cr", HTML yes
    "bare_cr.eml": b"Subject: bare cr\rContent-Type: text/html\r\r<p>\r",
    "not_a_message.eml": b"no header line and no blank line",
}
BOUNDARY = {
    "name_ends_in_boundary.eml": _html_under("multipart/mixed; xboundary=zz; boundary=real"),
    "quoted_value_holds_boundary.eml": _html_under('multipart/mixed; name="boundary=zz"; boundary=real'),
    "quoted_value_holds_a_parameter.eml": _html_under('multipart/mixed; name="a; boundary=zz"; boundary=real'),
    "by_name.eml": _html_under('multipart/mixed; boundary="real"'),
}

CVE_FORM = b"alice@example.org)<bob@example.org>"  # CVE-2023-27043
ADDRESS = {
    "cc_trailing_comma.eml": b"From: cc1@x.test\r\nCc: a@x, b@y,\r\nSubject: trailing comma\r\n\r\n.\r\n",
    "cc_two_ats.eml": b"From: cc2@x.test\r\nCc: a@b@c\r\nSubject: two ats\r\n\r\n.\r\n",
    "cc_unclosed_comment.eml": b'From: cc3@x.test\r\nCc: "x" <a@x>, b@y (c\r\nSubject: unclosed\r\n\r\n.\r\n',
    "from_trailing_comma.eml": b"From: a@x,\r\nSubject: from list\r\n\r\n.\r\n",
    "cve_form.eml": b"From: " + CVE_FORM + b"\r\nCc: " + CVE_FORM + b"\r\nSubject: cve\r\n\r\n.\r\n",
}
# byte names: 0x80 sorts before 0xC3 0xA9 ("é"), while the escaped "\udc80"
# sorts after "é" as a str
NAMES = {
    b"\x80.eml": b"From: byte80@x.test\r\nSubject: byte 0x80\r\n\r\n.\r\n",
    "é.eml".encode(): b"From: e-acute@x.test\r\nSubject: e acute\r\n\r\n.\r\n",
}


def _write_sets(tmp):
    """The generated corpus and the hand-written sets under tmp; the
    generator's manifest digest, and the sets left out."""
    generator = _load_generator()
    manifest = generator.generate(Path(tmp) / "corpus", generator.CorpusSpec(SPEC_MESSAGES), SEED)
    for name, files in (("hostile", HOSTILE), ("boundary", BOUNDARY), ("address", ADDRESS)):
        (Path(tmp) / name).mkdir()
        for file_name, data in files.items():
            (Path(tmp) / name / file_name).write_bytes(data)
    (Path(tmp) / "names").mkdir()
    try:
        for file_name, data in NAMES.items():
            with open(os.path.join(os.fsencode(tmp), b"names", file_name), "wb") as f:
                f.write(data)
    except OSError as exc:
        print(f"names set left out, the filesystem refuses a non-UTF-8 file name: {exc}")
        return manifest["digest"], ("names",)
    return manifest["digest"], ()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv, tmp, out=None):
    """One child's exit code and digests; out, if given, is its --out file
    (under tmp), which the run must leave there."""
    proc = run_cli(*argv, *(["--out", out] if out else []), env_extra=ENV, cwd=tmp)
    run = {"exit": proc.returncode, "stdout": _sha(proc.stdout), "stderr": _sha(proc.stderr)}
    if out:
        run["out"] = _sha((Path(tmp) / out).read_bytes())
    return run


def _runs():
    """{"digest": the manifest digest, "runs": {"set/command": {"exit",
    "stdout", "stderr"[, "out"]}}} for this checkout, and the sets left
    out."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        digest, left_out = _write_sets(tmp)
        for directory in (s for s in SETS if s not in left_out):
            for name, argv in COMMANDS:
                runs[f"{directory}/{name}"] = _run([a.format(dir=directory) for a in argv], tmp)
        (Path(tmp) / "out").mkdir()
        for i, (name, argv) in enumerate(CSV_COMMANDS):
            runs[f"csv/{name}"] = _run(argv, tmp, CSV if i == 0 else f"out/{name}")
    return {"digest": digest, "runs": runs}, left_out


def _mismatches(got, want, left_out=()):
    """The keys whose runs differ; a set left out is not compared."""
    keys = set(got["runs"]) | {key for key in want["runs"] if key.split("/")[0] not in left_out}
    bad = [key for key in sorted(keys) if got["runs"].get(key) != want["runs"].get(key)]
    if got["digest"] != want["digest"]:
        bad.insert(0, "digest (the generated inputs moved)")
    return bad


def _main(argv):
    if argv not in (["--check"], ["--write"]):
        print("usage: test_corpus_golden.py --check | --write", file=sys.stderr)
        return 1
    got, left_out = _runs()
    if argv == ["--write"]:
        if left_out:
            return 1
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    bad = _mismatches(got, json.loads(GOLDEN.read_text()), left_out)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"corpus golden ({len(got['runs'])} runs) on Python {version}: " + (f"MISMATCH {bad}" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))


def test_corpus_outputs_match_golden():
    got, left_out = _runs()
    assert _mismatches(got, json.loads(GOLDEN.read_text()), left_out) == []

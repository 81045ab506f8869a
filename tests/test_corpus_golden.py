"""Golden gate at corpus scale: CLI output on a generated corpus and on a
hostile set, as sha256 digests.

bench/corpus.py generates CorpusSpec(400) with seed 11 (imported, never
changed); tests/golden/corpus_gate.json pins its manifest digest, so a
change to the generator reads as "the inputs moved", not as drift in the
output. Beside it the gate writes two small sets of its own:

- hostile: MIME nested 1, 64 and 65 levels deep, folded headers, a
  latin-1 body, encoded-words, bare-CR line endings and a file that is
  not a message;
- boundary: a boundary parameter read by its name, next to a parameter
  whose name ends in "boundary" and quoted values that hold "boundary="
  and "; boundary=".

Each `convert` (csv, arff, `--attrs`) and `top-senders` runs as a
`python -m mailminer` child in the directory that holds the three sets,
so the paths on stderr are the same in every run. The golden holds the
sha256 of each child's stdout and stderr, and its exit code.

    python tests/test_corpus_golden.py --check

Regenerate the golden (only when an output change is intended) with

    python tests/test_corpus_golden.py --write
"""

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from helpers import ROOT, nested_mime, run_cli

GOLDEN = ROOT / "tests" / "golden" / "corpus_gate.json"
SPEC_MESSAGES = 400
SEED = 11
ENV = {"COLUMNS": "200", "MAILMINER_LOG": "info"}
SETS = ("corpus", "hostile", "boundary")
COMMANDS = [
    ("convert_csv", ["convert", "{dir}"]),
    ("convert_arff", ["convert", "{dir}", "--format", "arff"]),
    ("convert_attrs", ["convert", "{dir}", "--attrs", "From,Subject,HTML"]),
    ("top_senders", ["top-senders", "{dir}"]),
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
    # no From line: a From value that runs on over the bare CRs reads
    # differently under the strict address parsers (gh-102988)
    "bare_cr.eml": b"Subject: bare cr\rContent-Type: text/html\r\r<p>\r",
    "not_a_message.eml": b"no header line and no blank line",
}
BOUNDARY = {
    "name_ends_in_boundary.eml": _html_under("multipart/mixed; xboundary=zz; boundary=real"),
    "quoted_value_holds_boundary.eml": _html_under('multipart/mixed; name="boundary=zz"; boundary=real'),
    "quoted_value_holds_a_parameter.eml": _html_under('multipart/mixed; name="a; boundary=zz"; boundary=real'),
    "by_name.eml": _html_under('multipart/mixed; boundary="real"'),
}


def _write_sets(tmp):
    """The generated corpus and the two hand-written sets under tmp; the
    generator's manifest digest."""
    generator = _load_generator()
    manifest = generator.generate(Path(tmp) / "corpus", generator.CorpusSpec(SPEC_MESSAGES), SEED)
    for name, files in (("hostile", HOSTILE), ("boundary", BOUNDARY)):
        (Path(tmp) / name).mkdir()
        for file_name, data in files.items():
            (Path(tmp) / name / file_name).write_bytes(data)
    return manifest["digest"]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _runs():
    """{"digest": the manifest digest, "runs": {"set/command": {"exit",
    "stdout", "stderr"}}} for this checkout."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        digest = _write_sets(tmp)
        for directory in SETS:
            for name, argv in COMMANDS:
                proc = run_cli(*[a.format(dir=directory) for a in argv], env_extra=ENV, cwd=tmp)
                runs[f"{directory}/{name}"] = {
                    "exit": proc.returncode,
                    "stdout": _sha(proc.stdout),
                    "stderr": _sha(proc.stderr),
                }
    return {"digest": digest, "runs": runs}


def _mismatches(got, want):
    bad = [key for key in sorted(set(got["runs"]) | set(want["runs"])) if got["runs"].get(key) != want["runs"].get(key)]
    if got["digest"] != want["digest"]:
        bad.insert(0, "digest (the generated inputs moved)")
    return bad


def _main(argv):
    if argv not in (["--check"], ["--write"]):
        print("usage: test_corpus_golden.py --check | --write", file=sys.stderr)
        return 1
    got = _runs()
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    bad = _mismatches(got, json.loads(GOLDEN.read_text()))
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"corpus golden ({len(got['runs'])} runs) on Python {version}: " + (f"MISMATCH {bad}" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))


def test_corpus_outputs_match_golden():
    assert _mismatches(_runs(), json.loads(GOLDEN.read_text())) == []

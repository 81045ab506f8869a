import contextlib
import gc
import importlib
import importlib.util
import io
import logging
import os
import runpy
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from helpers import FIXTURE_CORPUS, ROOT, SRC, read_arff, refuse_scandir, run_cli
from mailminer import cli, render_report, scan_corpus, tabular, top_senders
from mailminer.ingest import iter_corpus


@pytest.fixture(scope="module")
def emails_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "emails.csv"
    proc = run_cli("convert", FIXTURE_CORPUS, "--out", path)
    assert proc.returncode == 0
    return path


def test_convert_stdout_shape():
    proc = run_cli("convert", FIXTURE_CORPUS)
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "Date,MessageId,CC,From,Subject,HTML"
    assert len(lines) == 8
    assert b"records: 7" in proc.stderr
    assert proc.stdout.decode().count("spammer@x.test") == 6


def test_convert_empty_directory(tmp_path):
    proc = run_cli("convert", tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.decode() == "Date,MessageId,CC,From,Subject,HTML\n"


def test_convert_bad_attrs_exits_1_without_output(tmp_path):
    out = tmp_path / "x.csv"
    proc = run_cli("convert", FIXTURE_CORPUS, "--attrs", "Bogus", "--out", out)
    assert proc.returncode == 1
    assert not out.exists()


def test_convert_repeated_attrs_exits_1_without_output(tmp_path):
    out = tmp_path / "x.csv"
    proc = run_cli("convert", FIXTURE_CORPUS, "--attrs", "From,From", "--out", out)
    assert proc.returncode == 1
    assert b"'From' selected more than once" in proc.stderr
    assert not out.exists()


def test_convert_repeated_attrs_is_rejected_before_the_scan(tmp_path):
    # an unreadable directory would exit 3 if the scan ran first
    proc = run_cli("convert", tmp_path / "missing", "--attrs", "CC,From,CC")
    assert proc.returncode == 1
    assert proc.stderr.decode() == "mailminer: error: attribute 'CC' selected more than once\n"


def test_convert_empty_attrs_is_rejected_before_the_scan(tmp_path):
    proc = run_cli("convert", tmp_path / "missing", "--attrs", "")
    assert proc.returncode == 1
    assert proc.stderr.decode() == "mailminer: error: attribute selection is empty\n"


def test_filter_on_a_repeated_header_is_a_data_error(tmp_path):
    dup = tmp_path / "dup.csv"
    dup.write_text("From,From\na@x,b@y\n")
    proc = run_cli("filter", dup, "--remove", "From")
    assert proc.returncode == 2
    assert proc.stderr.decode() == "mailminer: data error: line 1, column 'From': repeated header name\n"
    assert proc.stdout == b""


def test_convert_unreadable_directory_exits_3(tmp_path):
    for fmt in ("csv", "arff"):  # before any output
        proc = run_cli("convert", tmp_path / "missing", "--format", fmt)
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"mailminer: not a readable directory: {tmp_path / 'missing'}\n"


@pytest.mark.parametrize("command", ["convert", "top-senders"])
def test_unreadable_corpus_root_exits_3(tmp_path, monkeypatch, capsys, command):
    refuse_scandir(monkeypatch, tmp_path)
    assert cli.main([command, str(tmp_path)]) == 3
    assert capsys.readouterr() == ("", f"mailminer: cannot scan {tmp_path}: [Errno 13] Permission denied: '{tmp_path}'\n")


def test_filter_discretize_range_overflow_is_a_data_error(tmp_path, capsys):
    csv = tmp_path / "big.csv"
    csv.write_bytes(b"Date,From\n-1e308,a\n0,b\n1e308,c\n")
    assert cli.main(["filter", str(csv), "--discretize", "Date:3"]) == 2
    assert capsys.readouterr() == ("", "mailminer: data error: column 'Date': range -1e+308 to 1e+308 overflows a float\n")


@pytest.mark.parametrize("mode", [["--k", "2"], ["--auto-k", "--kmax", "3"]])
def test_cluster_range_overflow_is_a_data_error(tmp_path, capsys, mode):
    csv = tmp_path / "big.csv"
    csv.write_bytes(b"Date,From\n-1e308,a\n0,b\n1e308,c\n")
    assert cli.main(["cluster", str(csv), *mode]) == 2
    assert capsys.readouterr() == ("", "mailminer: data error: column 'Date': range -1e+308 to 1e+308 overflows a float\n")


def test_convert_to_an_out_that_cannot_be_written_fails_before_the_scan(tmp_path):
    proc = run_cli("convert", FIXTURE_CORPUS, "--out", tmp_path / "no-such-dir" / "x.csv")
    assert proc.returncode == 3
    assert proc.stderr.decode().startswith("mailminer: I/O error: ")
    assert b"records:" not in proc.stderr
    assert proc.stdout == b""


def test_top_senders_to_an_out_that_cannot_be_written_fails_before_the_scan(tmp_path):
    proc = run_cli("top-senders", FIXTURE_CORPUS, "--out", tmp_path / "no-such-dir" / "x.txt")
    assert proc.returncode == 3
    assert proc.stderr.decode().startswith("mailminer: I/O error: ")
    assert b"records:" not in proc.stderr
    assert proc.stdout == b""


def test_an_out_that_cannot_be_written_is_named_as_given(tmp_path):
    # the error names --out, not the random temporary file beside it, so
    # the stderr bytes are the same on every run
    out = tmp_path / "no-such-dir" / "x.txt"
    for argv in (("convert", FIXTURE_CORPUS), ("top-senders", FIXTURE_CORPUS)):
        proc = run_cli(*argv, "--out", out)
        assert proc.returncode == 3
        assert proc.stderr.decode() == f"mailminer: I/O error: [Errno 2] No such file or directory: '{out}'\n"


def test_convert_to_stdout_that_cannot_encode_exits_3(tmp_path):
    (tmp_path / "a.eml").write_bytes(b"From: a@x.test\r\nSubject: =?utf-8?q?caf=C3=A9?=\r\n\r\n.")
    proc = run_cli("convert", tmp_path, env_extra={"PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 3
    assert b"I/O error" in proc.stderr


def test_convert_arff_is_well_formed(corpus_dataset):
    proc = run_cli("convert", FIXTURE_CORPUS, "--format", "arff")
    assert proc.returncode == 0
    assert read_arff(proc.stdout.decode()) == corpus_dataset


def test_cluster_fixed_k_report(emails_csv):
    proc = run_cli("cluster", emails_csv, "--k", "2", "--seed", "42", "--report", "text")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "6 ( 86%)" in out
    assert "1 ( 14%)" in out
    assert "Iterations: 2" in out


def test_cluster_flag_misuse(emails_csv):
    assert run_cli("cluster", emails_csv, "--k", "0").returncode == 1
    assert run_cli("cluster", emails_csv).returncode == 1
    assert run_cli("cluster", emails_csv, "--k", "2", "--auto-k").returncode == 1


# Each check runs before the read: the input does not exist, so a check
# made after the read would exit 3.
@pytest.mark.parametrize(
    "argv,message",
    [
        (["cluster", "--auto-k", "--kmax", "1"], "--kmax must be >= 2"),
        (["cluster", "--k", "2", "--max-iter", "0"], "--max-iter must be >= 1"),
        (["top-senders", "-n", "0"], "-n must be >= 1"),
        (["filter", "--discretize", "Date"], "--discretize needs the form name:bins"),
        (["filter", "--discretize", "Date:x"], "bad bin count 'x'"),
        (["filter", "--discretize", ":3"], "--discretize needs the form name:bins"),
    ],
)
def test_usage_check_comes_before_the_read(tmp_path, capsys, argv, message):
    command, *flags = argv
    assert cli.main([command, str(tmp_path / "missing"), *flags]) == 1
    assert capsys.readouterr() == ("", f"mailminer: error: {message}\n")


def test_cluster_too_few_rows_is_data_error(emails_csv):
    assert run_cli("cluster", emails_csv, "--k", "99").returncode == 2


def test_cluster_ragged_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2,3\n")
    assert run_cli("cluster", bad, "--k", "1").returncode == 2


def test_cluster_nan_cell_is_data_error(tmp_path):
    bad = tmp_path / "nan.csv"
    bad.write_text("Date,From\n1.0,a@x\nnan,b@x\n")
    proc = run_cli("cluster", bad, "--k", "2")
    assert proc.returncode == 2
    assert b"line 3, column 'Date'" in proc.stderr


@pytest.mark.parametrize(
    "content,where",
    [
        (b"Date,HTML\n1.0,yes\n2.0,maybe\n", b"line 3, column 'HTML'"),
        (b"Date,From\n1.0,a@x\n2.0,caf\xe9@x\n", b"line 3: not valid UTF-8"),
    ],
    ids=["nominal", "utf8"],
)
def test_cluster_bad_cell_names_its_line(tmp_path, content, where):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    proc = run_cli("cluster", bad, "--k", "2")
    assert proc.returncode == 2
    assert where in proc.stderr


def test_cluster_auto_k(emails_csv):
    proc = run_cli("cluster", emails_csv, "--auto-k", "--kmax", "3", "--seed", "42")
    assert proc.returncode == 0
    assert "k=2" in proc.stdout.decode()


def test_cluster_svg_report(emails_csv, tmp_path):
    out = tmp_path / "clusters.svg"
    proc = run_cli(
        "cluster", emails_csv, "--k", "2", "--seed", "42", "--report", "svg", "--out", out
    )
    assert proc.returncode == 0
    root = ET.fromstring(out.read_text())
    assert len(root.findall(".//{http://www.w3.org/2000/svg}rect")) == 2


def test_dupes_report(emails_csv):
    proc = run_cli("dupes", emails_csv, "--attrs", "From,Subject,HTML")
    assert proc.returncode == 0
    assert "different: 4, identical: 3" in proc.stdout.decode()


def test_dupes_bad_attrs(emails_csv):
    assert run_cli("dupes", emails_csv, "--attrs", "Bogus").returncode == 1


# One rule for names selected from a schema, in one set of words: at least
# one name, each known, each once. `filter --remove ""` used to end in a
# TypeError traceback.
@pytest.mark.parametrize(
    "argv,message",
    [
        (["dupes", "{csv}", "--attrs", ""], "attribute selection is empty"),
        (["filter", "{csv}", "--remove", ""], "attribute selection is empty"),
        (["filter", "{csv}", "--remove", ","], "attribute selection is empty"),
        (["convert", "{corpus}", "--attrs", "Bogus"], "unknown attribute 'Bogus'"),
        (["dupes", "{csv}", "--attrs", "From,Bogus"], "unknown attribute 'Bogus'"),
        (["filter", "{csv}", "--remove", "Bogus"], "unknown attribute 'Bogus'"),
        (["filter", "{csv}", "--discretize", "Bogus:3"], "unknown attribute 'Bogus'"),
        (["dupes", "{csv}", "--attrs", "From,From"], "attribute 'From' selected more than once"),
        (["filter", "{csv}", "--remove", "From,CC,From"], "attribute 'From' selected more than once"),
    ],
)
def test_one_attribute_name_rule(emails_csv, argv, message):
    argv = [str(emails_csv) if a == "{csv}" else FIXTURE_CORPUS if a == "{corpus}" else a for a in argv]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == f"mailminer: error: {message}\n"


def test_top_senders_report():
    proc = run_cli("top-senders", FIXTURE_CORPUS, "-n", "1")
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[1].startswith("spammer@x.test 6")


def _bench_corpus():
    """bench/corpus.py, the benchmark's seeded corpus generator, as it stands."""
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_top_senders_prints_the_ranking_of_the_scanned_records(tmp_path):
    # top-senders reads only each head's From; on a generated corpus, with
    # encoded-word, repeated and missing senders and malformed files, it
    # prints what ranking the full records prints
    corpus = _bench_corpus()
    corpus.generate(tmp_path / "c", corpus.CorpusSpec(400, body_bytes=300), 59)
    expected = io.StringIO()
    render_report(top_senders(scan_corpus(tmp_path / "c").records, 10), "text", expected)
    proc = run_cli("top-senders", tmp_path / "c")
    assert proc.returncode == 0
    assert proc.stdout.decode() == expected.getvalue()
    assert "(unknown)" in expected.getvalue()


@pytest.mark.parametrize("command", ["convert", "top-senders"])
def test_nested_comments_in_from_and_cc_read_as_no_address(tmp_path, command):
    # deeper than the address parser's recursion: no address, exit 0
    deep = {"unbalanced": "(" * 1000 + "a@x.test", "balanced": "(" * 1000 + ")" * 1000 + " a@x.test"}
    for label, value in deep.items():
        for name in ("From", "Cc"):
            (tmp_path / f"{label}-{name}.eml").write_bytes(f"{name}: {value}\r\nSubject: s\r\n\r\n.\r\n".encode())
    proc = run_cli(command, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"records: 4  skipped: 0\n")
    if command == "convert":
        assert proc.stdout.decode().splitlines()[1:] == ["?,?,?,?,s,no"] * 4
    else:
        assert proc.stdout.decode().splitlines() == ["sender count share", "(unknown) 4 1.0000"]


def test_filter_sample_full(emails_csv):
    proc = run_cli("filter", emails_csv, "--sample", "1.0", "--seed", "1")
    assert proc.returncode == 0
    assert len(proc.stdout.decode().splitlines()) == 8


# The range is checked before the read, as cluster checks --k: neither a
# missing file (an I/O error) nor a ragged one (a data error) is reached.
@pytest.mark.parametrize("name,fraction", [("missing.csv", "0"), ("bad.csv", "2")])
def test_filter_sample_range_is_checked_before_the_read(tmp_path, name, fraction):
    (tmp_path / "bad.csv").write_text("a,b\n1\n")
    proc = run_cli("filter", tmp_path / name, "--sample", fraction)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"mailminer: error: --sample fraction must be in (0, 1]\n"


def test_filter_remove(emails_csv):
    proc = run_cli("filter", emails_csv, "--remove", "Date,MessageId,CC")
    assert proc.returncode == 0
    assert proc.stdout.decode().splitlines()[0] == "From,Subject,HTML"


def test_filter_remove_all_columns_usage_error(emails_csv):
    proc = run_cli(
        "filter", emails_csv, "--remove", "Date,MessageId,CC,From,Subject,HTML"
    )
    assert proc.returncode == 1


def test_filter_shuffle_deterministic(emails_csv):
    a = run_cli("filter", emails_csv, "--shuffle", "--seed", "9")
    b = run_cli("filter", emails_csv, "--shuffle", "--seed", "9")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_filter_discretize(emails_csv):
    proc = run_cli("filter", emails_csv, "--discretize", "Date:3")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[1].startswith("b1,")
    assert run_cli("filter", emails_csv, "--discretize", "Subject:2").returncode == 1
    assert run_cli("filter", emails_csv, "--discretize", "Date:0").returncode == 1


def test_filter_requires_exactly_one_mode(emails_csv):
    assert run_cli("filter", emails_csv).returncode == 1
    assert (
        run_cli("filter", emails_csv, "--shuffle", "--sample", "0.5").returncode == 1
    )


def test_quiet_log_suppresses_diagnostics():
    proc = run_cli("convert", FIXTURE_CORPUS, env_extra={"MAILMINER_LOG": "quiet"})
    assert proc.returncode == 0
    assert b"records:" not in proc.stderr


def test_unknown_log_level_warns_and_falls_back_to_info():
    plain = run_cli("convert", FIXTURE_CORPUS)
    proc = run_cli("convert", FIXTURE_CORPUS, env_extra={"MAILMINER_LOG": "verbose"})
    assert proc.returncode == 0
    assert proc.stdout == plain.stdout
    warning, rest = proc.stderr.decode().split("\n", 1)
    assert "unknown MAILMINER_LOG='verbose'" in warning
    assert "quiet, info, debug" in warning
    assert rest == plain.stderr.decode()  # info-level diagnostics still shown


def test_diagnostics_follow_each_in_process_call(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    shutil.copytree(FIXTURE_CORPUS, corpus)
    (corpus / "bad.eml").write_bytes(b"no header line and no blank line")
    root_handlers = list(logging.getLogger().handlers)

    def stderr_under(level):
        monkeypatch.setenv("MAILMINER_LOG", level)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["top-senders", str(corpus)]) == 0
        assert out.getvalue().startswith("sender count share\n")
        return err.getvalue().splitlines()

    for level in ("info", "quiet", "info"):
        lines = stderr_under(level)
        if level == "quiet":
            assert lines == []
        else:
            assert lines[0] == "records: 7  skipped: 1"
            assert len(lines) == 2 and lines[1].startswith("skipped bad.eml: not an email message")
    assert logging.getLogger().handlers == root_handlers


def test_cli_import_leaves_logging_unloaded():
    code = "import sys, mailminer.cli; print('logging' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    assert proc.stdout == b"False\n"


# Runs main(argv) in a fresh interpreter and prints its exit code, then every
# module it loaded that was not loaded before mailminer was imported.
_LOADED_BY_MAIN = """
import sys
before = set(sys.modules)
from mailminer import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""
# The mailminer modules every command loads, and the modules that mailminer
# and argparse import by name on every command (locale is gettext's, which
# argparse calls). What these import in turn is read from the interpreter
# the test runs on, so no module internal to CPython is named here.
_EVERY_COMMAND = {"mailminer", "mailminer.cli", "mailminer.core", "mailminer.tabular"}
_EVERY_COMMAND_IMPORTS = (
    "argparse collections contextlib dataclasses functools gc importlib itertools locale math operator os re "
    "stat tempfile"
)
# the codec read_csv opens a path with; textwrap formats --help
_CSV_READ = "encodings.utf_8_sig"


@pytest.mark.parametrize(
    "argv,own,imports",
    [
        (["--help"], set(), "textwrap"),
        (["filter", "{csv}", "--shuffle"], {"mailminer.filters", "mailminer.rng"}, _CSV_READ),
        (["dupes", "{csv}", "--attrs", "From"], {"mailminer.analysis"}, _CSV_READ),
        (["cluster", "{csv}", "--k", "2"], {"mailminer.cluster", "mailminer.rng", "mailminer.analysis"}, _CSV_READ),
        (["convert", "{corpus}"], {"mailminer.ingest"}, "base64 binascii datetime email._parseaddr pathlib"),
    ],
    ids=["help", "filter", "dupes", "cluster", "convert"],
)
def test_each_subcommand_loads_only_its_own_modules(emails_csv, tmp_path, argv, own, imports):
    # a command loads exactly its own mailminer modules, and no module that
    # those named above do not load: a new import on these paths fails here
    argv = [a.format(csv=emails_csv, corpus=FIXTURE_CORPUS) for a in argv]
    if argv[0] != "--help":
        argv += ["--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(SRC), MAILMINER_LOG="quiet")

    def loaded(code, *args):
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env, check=True)
        return proc.stdout.decode().splitlines()[-1].split()

    code, *modules = loaded(_LOADED_BY_MAIN, *argv)
    assert code == "0"
    named = f"{_EVERY_COMMAND_IMPORTS} {imports}".split()
    allowed = loaded(f"import sys; before = set(sys.modules); import {', '.join(named)}; "
                     "print(*sorted(set(sys.modules) - before))")
    assert {m for m in modules if m.startswith("mailminer")} == _EVERY_COMMAND | own
    assert {m for m in modules if not m.startswith("mailminer")} <= set(allowed), sorted(set(modules) - set(allowed))


@pytest.mark.parametrize("command", [["convert"], ["top-senders", "-n", "3"]], ids=["convert", "top-senders"])
def test_a_scan_reads_addresses_without_email_utils(tmp_path, command):
    # email._parseaddr is the parser; email.utils would load socket and
    # email.charset besides
    argv = [command[0], str(FIXTURE_CORPUS), *command[1:], "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(SRC), MAILMINER_LOG="quiet")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_MAIN, *argv], capture_output=True, env=env, check=True
    )
    code, *modules = proc.stdout.decode().splitlines()[-1].split()
    assert code == "0"
    assert {"mailminer.ingest", "email._parseaddr"} <= set(modules)
    assert not {"email.utils", "socket"} & set(modules)


@pytest.mark.parametrize("exc,code", [(OSError("disk full"), 3), (KeyboardInterrupt(), None)])
def test_out_failure_part_way_keeps_old_target(emails_csv, tmp_path, monkeypatch, exc, code):
    target = tmp_path / "out.csv"
    target.write_text("old contents\n")

    def failing_rows(f, *args):
        f.write("partial,")
        f.flush()
        raise exc

    monkeypatch.setattr(tabular, "_write_rows", failing_rows)
    argv = ["filter", str(emails_csv), "--shuffle", "--out", str(target)]
    if code is None:
        with pytest.raises(type(exc)):
            cli.main(argv)
    else:
        assert cli.main(argv) == code
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_out_file_mode_matches_open(emails_csv, tmp_path):
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_text("old\n")
    existing.chmod(0o604)
    old_mask = os.umask(0o027)
    try:
        for target in (fresh, existing):
            assert cli.main(["filter", str(emails_csv), "--shuffle", "--out", str(target)]) == 0
    finally:
        os.umask(old_mask)
    assert fresh.stat().st_mode & 0o777 == 0o640
    assert existing.stat().st_mode & 0o777 == 0o604
    assert existing.read_bytes() == fresh.read_bytes() == run_cli(
        "filter", emails_csv, "--shuffle"
    ).stdout


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_out_to_a_fifo_is_written_in_place(emails_csv, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["filter", str(emails_csv), "--shuffle", "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [run_cli("filter", emails_csv, "--shuffle").stdout]


def _small_corpus(directory, n):
    directory.mkdir()
    for i in range(n):
        (directory / f"m{i:05d}.eml").write_bytes(
            f"From: Sender {i % 5} <s{i % 5}@x.test>\r\nCc: c{i % 7}@x.test, d@x.test\r\n"
            f"Subject: note {i}\r\nMessage-ID: <{i}@x.test>\r\n"
            f"Date: Mon, 1 Jan 2024 00:00:00 +0000\r\n\r\nbody {i}\r\n".encode()
        )


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "argv", [["convert"], ["convert", "--format", "arff"], ["top-senders"]], ids=["csv", "arff", "top-senders"]
)
def test_scan_holds_one_message_at_a_time(tmp_path, monkeypatch, argv):
    # The enumeration's list of paths is the only state that may grow with
    # the corpus, so the peak of a run less the peak of the enumeration alone
    # must stay put from 400 to 800 messages (it moves by a few KB either
    # way). Holding every record until the scan ended, and in convert every
    # row too, made it grow by 154, 146 and 86 kB (csv, arff, top-senders).
    monkeypatch.setenv("MAILMINER_LOG", "quiet")
    out = str(tmp_path / "out")
    _small_corpus(tmp_path / "warm", 10)  # imports and the sender cache, filled first
    assert cli.main([argv[0], str(tmp_path / "warm"), *argv[1:], "--out", out]) == 0
    beyond = []
    for n in (400, 800):
        corpus = tmp_path / f"c{n}"
        _small_corpus(corpus, n)
        enumeration = _peak(lambda: iter_corpus(corpus, []))
        codes = []
        run = _peak(lambda: codes.append(cli.main([argv[0], str(corpus), *argv[1:], "--out", out])))
        assert codes == [0]
        beyond.append(run - enumeration)
    assert beyond[1] - beyond[0] <= 16 * 1024, beyond


# The process entry point freezes the collector once the command is done;
# main() itself must not, because tests and library callers run it in-process.
def test_main_in_process_freezes_nothing(emails_csv, capsys):
    before = gc.get_freeze_count()
    assert cli.main(["filter", str(emails_csv), "--shuffle", "--seed", "1"]) == 0
    assert cli.main(["convert", str(FIXTURE_CORPUS)]) == 0
    assert gc.get_freeze_count() == before


def test_run_freezes_after_main_and_returns_its_code(tmp_path):
    code = (
        "import gc\nfrom mailminer import cli\nstart = gc.get_freeze_count()\nfrozen = []\nmain = cli.main\n"
        "cli.main = lambda: (frozen.append(gc.get_freeze_count()), main())[1]\n"
        "code = cli.run()\nprint(frozen == [start], gc.get_freeze_count() > start, code)\n"
    )  # start is not 0 everywhere: 3.12 starts with objects frozen
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, want in ((["convert", str(FIXTURE_CORPUS)], "0"), (["cluster", str(tmp_path)], "1")):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env)
        assert proc.stdout.decode().splitlines()[-1] == f"True True {want}"


def test_the_script_and_python_m_call_one_entry_point(monkeypatch):
    tomllib = pytest.importorskip("tomllib")  # 3.11+
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["mailminer"]
    module, _, name = target.partition(":")
    called = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: called.append(name) or 7)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("mailminer", run_name="__main__")
    assert (called, exc.value.code) == ([name], 7)


def test_convert_stdout_through_a_pipe_is_its_out_bytes(tmp_path):
    # the final flush of a piped stdout still happens at exit
    for fmt in ("csv", "arff"):
        piped = run_cli("convert", FIXTURE_CORPUS, "--format", fmt)
        out = tmp_path / f"x.{fmt}"
        written = run_cli("convert", FIXTURE_CORPUS, "--format", fmt, "--out", out)
        assert piped.returncode == written.returncode == 0
        assert piped.stdout == out.read_bytes() and len(piped.stdout) > 100

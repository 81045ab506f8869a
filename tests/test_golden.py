"""Golden gate: CLI output on both fixture corpora, byte for byte.

Each case runs `cli.main(argv)` in-process and compares stdout, stderr
and the exit code with the files under tests/golden/<corpus>/. Cluster,
dupes and filter cases read the CSV that `convert` writes for the same
corpus. Each run sees the same GOLDEN_ENV: MAILMINER_LOG decides the
diagnostic lines. The parser wraps usage lines at a fixed width, not at
COLUMNS, so a usage error prints the same bytes at any terminal width and
on every Python (3.13 wraps a narrow usage line unlike 3.10-3.12).

The same cases also run as a script, each as a `python -m mailminer`
subprocess, without pytest, so any interpreter can check them:

    python tests/test_golden.py --check

Regenerate the goldens (only when an output change is intended) with

    python tests/test_golden.py --write
"""

import json
import sys
import tempfile
from pathlib import Path

from helpers import FIXTURE_CORPUS, FIXTURE_DUP_CORPUS, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPORA = {"corpus": FIXTURE_CORPUS, "dup_corpus": FIXTURE_DUP_CORPUS}
GOLDEN_ENV = {"COLUMNS": "200", "MAILMINER_LOG": "info"}

# (case name, argv); "{dir}" is the corpus directory, "{csv}" its converted CSV.
CASES = [
    ("convert_csv", ["convert", "{dir}"]),
    ("convert_arff", ["convert", "{dir}", "--format", "arff"]),
    ("convert_attrs", ["convert", "{dir}", "--attrs", "From,Subject,HTML"]),
    ("cluster_text", ["cluster", "{csv}", "--k", "2", "--seed", "42", "--report", "text"]),
    ("cluster_csv", ["cluster", "{csv}", "--k", "2", "--seed", "42", "--report", "csv"]),
    ("cluster_svg", ["cluster", "{csv}", "--k", "2", "--seed", "42", "--report", "svg"]),
    ("cluster_auto_k", ["cluster", "{csv}", "--auto-k", "--kmax", "3", "--seed", "42"]),
    ("dupes", ["dupes", "{csv}", "--attrs", "From,Subject,HTML"]),
    ("top_senders", ["top-senders", "{dir}", "-n", "3"]),
    ("filter_remove", ["filter", "{csv}", "--remove", "Date,MessageId,CC"]),
    ("filter_sample", ["filter", "{csv}", "--sample", "0.5", "--seed", "7"]),
    ("filter_shuffle", ["filter", "{csv}", "--shuffle", "--seed", "7"]),
    ("filter_discretize", ["filter", "{csv}", "--discretize", "Date:3"]),
]

# Usage errors rejected by argparse itself: stderr starts with a usage line.
ARGPARSE_ERROR_CASES = [
    ("no_command", []),
    ("cluster_k_not_int", ["cluster", "{csv}", "--k", "abc"]),
    ("filter_two_modes", ["filter", "{csv}", "--shuffle", "--sample", "0.5"]),
]
# Usage errors: exit 1 with a message on stderr.
ERROR_CASES = [
    ("dupes_bogus", ["dupes", "{csv}", "--attrs", "Bogus"]),
    ("dupes_repeated", ["dupes", "{csv}", "--attrs", "From,Subject,From"]),
    ("filter_remove_all", ["filter", "{csv}", "--remove", "Date,MessageId,CC,From,Subject,HTML"]),
    ("filter_discretize_text", ["filter", "{csv}", "--discretize", "Subject:2"]),
    *ARGPARSE_ERROR_CASES,
]

PARAMS = [(corpus, name, argv) for corpus in CORPORA for name, argv in CASES + ERROR_CASES]


def _argv(argv, corpus, csv_path):
    return [a.format(dir=CORPORA[corpus], csv=csv_path) for a in argv]


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def _subprocess_runs():
    """Each case run as a subprocess: {"corpus/name": CompletedProcess}."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for corpus, directory in CORPORA.items():
            csv_path = Path(tmp) / f"{corpus}.csv"
            assert run_cli("convert", directory, "--out", csv_path).returncode == 0
            for name, argv in CASES + ERROR_CASES:
                runs[f"{corpus}/{name}"] = run_cli(*_argv(argv, corpus, csv_path), env_extra=GOLDEN_ENV)
    return runs


def _main(argv):
    if argv not in (["--check"], ["--write"]):
        print("usage: test_golden.py --check | --write", file=sys.stderr)
        return 1
    runs = _subprocess_runs()
    if argv == ["--write"]:
        for key, proc in runs.items():
            (GOLDEN / key).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / f"{key}.stdout").write_bytes(proc.stdout)
            (GOLDEN / f"{key}.stderr").write_bytes(proc.stderr)
        codes = {key: proc.returncode for key, proc in runs.items()}
        (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
        return 0
    codes = _exit_codes()
    bad = [
        key
        for key, proc in runs.items()
        if (proc.returncode, proc.stdout, proc.stderr)
        != (codes[key], (GOLDEN / f"{key}.stdout").read_bytes(), (GOLDEN / f"{key}.stderr").read_bytes())
    ]
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"CLI golden ({len(runs)} cases) on Python {version}: " + (f"MISMATCH {bad}" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    # exits before the pytest import below, so --check needs no pytest
    sys.exit(_main(sys.argv[1:]))

import pytest  # noqa: E402


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    from mailminer import cli

    paths = {}
    for corpus, directory in CORPORA.items():
        path = tmp_path_factory.mktemp("golden") / f"{corpus}.csv"
        assert cli.main(["convert", str(directory), "--out", str(path)]) == 0
        paths[corpus] = path
    return paths


@pytest.mark.parametrize("corpus,name,argv", PARAMS, ids=[f"{p[0]}-{p[1]}" for p in PARAMS])
def test_golden(corpus, name, argv, csv_paths, capsysbinary, monkeypatch):
    from mailminer import cli

    for key, value in GOLDEN_ENV.items():
        monkeypatch.setenv(key, value)
    capsysbinary.readouterr()
    code = cli.main(_argv(argv, corpus, csv_paths[corpus]))
    out, err = capsysbinary.readouterr()
    assert code == _exit_codes()[f"{corpus}/{name}"]
    assert out == (GOLDEN / corpus / f"{name}.stdout").read_bytes()
    assert err == (GOLDEN / corpus / f"{name}.stderr").read_bytes()


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("name,argv", ARGPARSE_ERROR_CASES, ids=[c[0] for c in ARGPARSE_ERROR_CASES])
def test_usage_error_does_not_follow_the_terminal_width(name, argv, columns, csv_paths, capsysbinary, monkeypatch):
    from mailminer import cli

    for key, value in GOLDEN_ENV.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setenv("COLUMNS", columns)
    capsysbinary.readouterr()
    assert cli.main(_argv(argv, "corpus", csv_paths["corpus"])) == 1
    assert capsysbinary.readouterr().err == (GOLDEN / "corpus" / f"{name}.stderr").read_bytes()

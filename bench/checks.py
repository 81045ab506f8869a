"""Output checks for each CLI step, against the corpus manifest.

Each check reads one step's output file (and its stderr) with the
standard library only, and returns a list of failure messages; an empty
list means the output is correct. Nothing here imports mailminer.
"""

import csv
import math
import re
from collections import Counter

CANONICAL = ["Date", "MessageId", "CC", "From", "Subject", "HTML"]


def read_rows(path):
    """(header, rows) of a CSV file; rows are tuples of strings."""
    with open(path, encoding="utf-8", newline="") as f:
        rows = [tuple(r) for r in csv.reader(f)]
    return (list(rows[0]), rows[1:]) if rows else ([], [])


def _expect(failures, ok, message):
    if not ok:
        failures.append(message)


def skip_list(stderr_text, manifest):
    skipped = sum(1 for line in stderr_text.splitlines() if line.startswith("skipped "))
    return [] if skipped == manifest["malformed"] else [
        f"skip-list has {skipped} entries, manifest says {manifest['malformed']} malformed"
    ]


def converted_csv(path, ctx):
    header, rows = read_rows(path)
    failures = []
    _expect(failures, header == CANONICAL, f"CSV header {header}")
    _expect(failures, len(rows) == ctx.manifest["valid"], f"CSV has {len(rows)} rows, want {ctx.manifest['valid']}")
    return failures


def converted_arff(path, ctx):
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if "@data" not in lines:
        return ["ARFF has no @data line"]
    rows = [line for line in lines[lines.index("@data") + 1:] if line]
    return [] if len(rows) == ctx.manifest["valid"] else [f"ARFF has {len(rows)} rows, want {ctx.manifest['valid']}"]


def expected_top_senders(manifest, n):
    total = manifest["valid"]
    ranked = sorted(manifest["senders"].items(), key=lambda kv: (-kv[1], kv[0]))[:n]
    return ["sender count share"] + [f"{addr} {count} {count / total:.4f}" for addr, count in ranked]


def top_senders(path, ctx):
    with open(path, encoding="utf-8") as f:
        got = f.read().splitlines()
    want = expected_top_senders(ctx.manifest, 10)
    return [] if got == want else [f"top-senders {got[:3]}... want {want[:3]}..."]


def removed(path, ctx):
    header, rows = read_rows(path)
    failures = []
    _expect(failures, header == ["Date", "From", "Subject", "HTML"], f"remove header {header}")
    _expect(failures, len(rows) == ctx.n, f"remove kept {len(rows)} of {ctx.n} rows")
    return failures


def sampled(path, ctx):
    header, rows = read_rows(path)
    want = math.floor(0.5 * ctx.n)
    failures = []
    _expect(failures, header == CANONICAL, f"sample header {header}")
    _expect(failures, len(rows) == want, f"sample has {len(rows)} rows, want {want}")
    _expect(failures, not Counter(rows) - ctx.input_counts, "sample has rows not in its input")
    return failures


def shuffled(path, ctx):
    header, rows = read_rows(path)
    failures = []
    _expect(failures, header == CANONICAL, f"shuffle header {header}")
    _expect(failures, Counter(rows) == ctx.input_counts, "shuffle changed the multiset of rows")
    return failures


def discretized(path, ctx):
    header, rows = read_rows(path)
    labels = {f"b{i}" for i in range(1, 11)}
    j = header.index("Date") if "Date" in header else None
    if j is None:
        return ["discretize output has no Date column"]
    failures = []
    values = [row[j] for row in rows]
    _expect(failures, len(rows) == ctx.n, f"discretize has {len(rows)} rows, want {ctx.n}")
    _expect(failures, all(v in labels or v == "?" for v in values), "Date labels outside b1..b10")
    present = sum(1 for v in values if v != "?")
    _expect(failures, present == ctx.dates_present, f"{present} binned dates, input has {ctx.dates_present}")
    return failures


def dupes(path, ctx):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    m = re.search(r"different: (\d+), identical: (\d+)", text)
    if not m:
        return [f"dupes output unreadable: {text[:80]!r}"]
    different, identical = int(m.group(1)), int(m.group(2))
    failures = []
    _expect(failures, identical == ctx.manifest["duplicates"], f"dupes identical {identical}, planted {ctx.manifest['duplicates']}")
    _expect(failures, different + identical == ctx.n, f"dupes total {different + identical}, want {ctx.n}")
    return failures


def _cluster_report(path):
    """(k, iterations, sizes) from a text cluster report."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    m = re.fullmatch(r"k=(\d+)\nIterations: (\d+)", "\n".join(lines[:2]))
    sizes = [int(line.split()[1]) for line in lines[2:] if line.strip()]
    return (int(m.group(1)), int(m.group(2)), sizes) if m else (None, None, sizes)


def cluster_fixed(path, ctx):
    k, iterations, sizes = _cluster_report(path)
    failures = []
    _expect(failures, k == 8 and len(sizes) == 8, f"cluster k={k} with {len(sizes)} sizes, want 8")
    _expect(failures, iterations is not None and 1 <= iterations <= 8, f"cluster ran {iterations} iterations, cap is 8")
    _expect(failures, sum(sizes) == ctx.n, f"cluster sizes sum to {sum(sizes)}, want {ctx.n}")
    return failures


def cluster_auto(path, ctx):
    k, _, sizes = _cluster_report(path)
    failures = []
    _expect(failures, k in (2, 3, 4) and len(sizes) == k, f"auto-k chose k={k} with {len(sizes)} sizes")
    _expect(failures, sum(sizes) == ctx.n, f"auto-k sizes sum to {sum(sizes)}, want {ctx.n}")
    return failures


class Context:
    """What the checks compare against: the manifest and the input CSV."""

    def __init__(self, manifest, csv_path=None):
        self.manifest = manifest
        self.n = manifest["valid"]
        if csv_path is not None:
            header, rows = read_rows(csv_path)
            self.input_counts = Counter(rows)
            j = header.index("Date")
            self.dates_present = sum(1 for row in rows if row[j] != "?")

"""Fixed reference program for bench/run.py: it measures the machine's speed.

It is run as a child process exactly like the CLI children, between the
timed repetitions, and it does the same kinds of work as the CLI: an
interpreter start with stdlib imports, header-style regex and base64 work,
CSV-style formatting and splitting, a k-means-style distance loop and an
n x n distance matrix. It uses only the standard library and never imports
mailminer, so no change to the package can change it, and its inputs are
fixed, so every run does the same work.

    python3 bench/reference.py      # prints a checksum of its results
"""

import argparse  # noqa: F401  (the CLI's start-up imports)
import base64
import dataclasses  # noqa: F401
import email.utils
import logging  # noqa: F401
import math
import re
from collections import Counter

ROWS = 2_000
MATRIX_N = 260


def headers():
    """Address and date parsing, encoded-word decoding, counting."""
    word = re.compile(r"=\?utf-8\?b\?([A-Za-z0-9+/=]+)\?=")
    senders = Counter()
    decoded = 0
    for i in range(ROWS):
        raw = f"Name {i % 37} <user{i % 113}@host{i % 7}.test>"
        senders[email.utils.parseaddr(raw)[1].lower()] += 1
        subject = "=?utf-8?b?" + base64.b64encode(f"subject {i} café".encode()).decode() + "?= tail"
        for m in word.finditer(subject):
            decoded += len(base64.b64decode(m.group(1)).decode("utf-8"))
    return len(senders) + decoded


def table():
    """CSV-style quoting of rows, then splitting them back."""
    lines = []
    for i in range(ROWS):
        cells = [str(i * 7919 % 100_003), f"<{i}@mm.test>", f"a{i % 13}@x.test, b{i % 5}@y.test",
                 f"user{i % 113}@host.test", f'subject "{i}", with comma', "true" if i % 3 else "false"]
        lines.append(",".join('"' + c.replace('"', '""') + '"' if ("," in c or '"' in c) else c
                              for c in cells))
    return sum(len(line.split(",")) for line in lines)


def distances():
    """k-means-style assignment passes and a silhouette-style matrix."""
    pts = [[(i * 31 + d * 17) % 101 / 101.0 for d in range(6)] for i in range(ROWS)]
    centers = pts[:8]
    for _ in range(4):
        groups = [[] for _ in centers]
        for p in pts:
            best = min(range(len(centers)),
                       key=lambda c: sum((a - b) ** 2 for a, b in zip(p, centers[c])))
            groups[best].append(p)
        centers = [[sum(col) / len(g) for col in zip(*g)] if g else centers[j]
                   for j, g in enumerate(groups)]
    sub = pts[:MATRIX_N]
    matrix = [[math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q))) for q in sub] for p in sub]
    return sum(sum(row) / len(row) for row in matrix)


def main():
    print(f"{headers()} {table()} {distances():.6f}")


if __name__ == "__main__":
    main()

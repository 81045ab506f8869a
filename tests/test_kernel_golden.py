"""Golden gate for the clustering kernel: exact results, float bits included.

For both fixture corpora (converted to CSV and read back with the CLI's
kind hints) and for three seeded random mixed-type datasets of about 250
rows, tests/golden/kernel.json holds, for k = 2..4 under one seed, the
iteration count, the cluster sizes, a digest of the assignment, and the
`repr` of `sse`, `one_pass_sse` (the SSE of the same fit capped at one
iteration) and `silhouette_mean`, plus the k that `select_k` picks; and
the same fields but the silhouette for k = 1, 16 and 21 where the dataset
has that many rows: one centroid, and two and three of the assignment
pass's chunks of 8 centroids, the last one full and one partial. It
also holds the `repr` of each score `silhouette_means` gives the models
for k = 2..min(10, rows) under that seed, scored in one call: the CLI's
default `--kmax`. The test recomputes them and asserts exact equality.

The same check runs as a script, without pytest, so any interpreter with
the package's (stdlib-only) imports can run it; a mismatch names the
first differing key (dataset, k, field) with the expected and the actual
value:

    python tests/test_kernel_golden.py --check

Regenerate the golden (only when a result change is intended) with

    python tests/test_kernel_golden.py --write
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from mailminer import (
    KMeansConfig,
    kmeans,
    read_csv,
    records_to_dataset,
    scan_corpus,
    select_k,
    silhouette_mean,
    silhouette_means,
    write_csv,
)
from mailminer.cli import CANONICAL_HINTS

from helpers import random_dataset

GOLDEN = ROOT / "tests" / "golden" / "kernel.json"
SEED = 42
K_RANGE = range(2, 5)
K_CHUNKED = (1, 16, 21)
KMAX = 10  # the CLI's default --kmax
RANDOM_SEEDS = (101, 202, 303)


def _fixture_dataset(directory):
    buf = io.StringIO()
    write_csv(records_to_dataset(scan_corpus(directory).records), buf)
    buf.seek(0)
    return read_csv(buf, kind_hints=CANONICAL_HINTS, relation_name="emails")


def _datasets():
    yield "corpus", _fixture_dataset(ROOT / "fixtures" / "corpus")
    yield "dup_corpus", _fixture_dataset(ROOT / "fixtures" / "dup_corpus")
    for seed in RANDOM_SEEDS:
        yield f"random_{seed}", random_dataset(random.Random(seed), max_rows=260, min_rows=240)


def _digest(assignment):
    return hashlib.sha256(",".join(map(str, assignment)).encode()).hexdigest()[:16]


def _fit(ds, k):
    model = kmeans(ds, KMeansConfig(k=k, seed=SEED))
    return model, {
        "iterations": model.iterations,
        "sizes": model.sizes,
        "assignment_sha256": _digest(model.assignment),
        "sse": repr(model.sse),
        "one_pass_sse": repr(kmeans(ds, KMeansConfig(k=k, max_iterations=1, seed=SEED)).sse),
    }


def _kernel_results(ds):
    per_k = {}
    for k in K_RANGE:
        model, fields = _fit(ds, k)
        per_k[str(k)] = {**fields, "silhouette_mean": repr(silhouette_mean(ds, model))}
    chosen, _ = select_k(ds, KMeansConfig(k_max=max(K_RANGE), seed=SEED))
    ks = range(2, min(KMAX, len(ds.rows)) + 1)
    scores = silhouette_means(ds, [kmeans(ds, KMeansConfig(k=k, seed=SEED)) for k in ks])
    return {
        "rows": len(ds.rows),
        "k": per_k,
        "k_chunked": {str(k): _fit(ds, k)[1] for k in K_CHUNKED if k <= len(ds.rows)},
        "select_k": chosen,
        "silhouette_means": {str(k): repr(score) for k, score in zip(ks, scores)},
    }


def first_difference(expected, actual, path=()):
    """(key path, expected, actual) at the first key, in the expected
    value's order, where actual departs from it; None when they are equal."""
    if not (isinstance(expected, dict) and isinstance(actual, dict)):
        return None if expected == actual else (path, expected, actual)
    for key in [*expected, *(key for key in actual if key not in expected)]:
        if key not in expected or key not in actual:
            return path + (key,), expected.get(key, "<absent>"), actual.get(key, "<absent>")
        found = first_difference(expected[key], actual[key], path + (key,))
        if found:
            return found
    return None


DATASETS = dict(_datasets())


def _main(argv):
    if argv not in (["--check"], ["--write"]):
        print("usage: test_kernel_golden.py --check | --write", file=sys.stderr)
        return 1
    results = {name: _kernel_results(ds) for name, ds in DATASETS.items()}
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        return 0
    found = first_difference(json.loads(GOLDEN.read_text()), results)
    version = ".".join(map(str, sys.version_info[:3]))
    if found:
        path, expected, actual = found
        print(f"kernel golden on Python {version}: MISMATCH at {'/'.join(path)}: "
              f"expected {expected!r}, got {actual!r}")
        return 1
    print(f"kernel golden on Python {version}: ok")
    return 0


if __name__ == "__main__":
    # exits before the pytest import below, so --check needs no pytest
    sys.exit(_main(sys.argv[1:]))

import pytest  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(DATASETS))
def test_kernel_matches_golden(name, golden):
    assert _kernel_results(DATASETS[name]) == golden[name]

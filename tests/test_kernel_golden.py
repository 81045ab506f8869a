"""Golden gate for the clustering kernel: exact results, float bits included.

For both fixture corpora (converted to CSV and read back with the CLI's
kind hints) and for three seeded random mixed-type datasets of about 250
rows, tests/golden/kernel.json holds, for k = 2..4 under one seed, the
iteration count, the cluster sizes, a digest of the assignment, and the
`repr` of `sse`, `first_pass_sse` and `silhouette_mean`, plus the k that
`select_k` picks. The test recomputes them and asserts exact equality.

The same check runs as a script, without pytest, so any interpreter with
the package's (stdlib-only) imports can run it:

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
    write_csv,
)
from mailminer.cli import CANONICAL_HINTS

from helpers import random_dataset

GOLDEN = ROOT / "tests" / "golden" / "kernel.json"
SEED = 42
K_RANGE = range(2, 5)
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


def _kernel_results(ds):
    per_k = {}
    for k in K_RANGE:
        model = kmeans(ds, KMeansConfig(k=k, seed=SEED))
        per_k[str(k)] = {
            "iterations": model.iterations,
            "sizes": model.sizes,
            "assignment_sha256": _digest(model.assignment),
            "sse": repr(model.sse),
            "first_pass_sse": repr(model.first_pass_sse),
            "silhouette_mean": repr(silhouette_mean(ds, model)),
        }
    chosen, _ = select_k(ds, KMeansConfig(k_max=max(K_RANGE), seed=SEED))
    return {"rows": len(ds.rows), "k": per_k, "select_k": chosen}


DATASETS = dict(_datasets())


def _main(argv):
    if argv not in (["--check"], ["--write"]):
        print("usage: test_kernel_golden.py --check | --write", file=sys.stderr)
        return 1
    results = {name: _kernel_results(ds) for name, ds in DATASETS.items()}
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        return 0
    golden = json.loads(GOLDEN.read_text())
    bad = [name for name in DATASETS if results[name] != golden[name]]
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"kernel golden on Python {version}: " + (f"MISMATCH {bad}" if bad else "ok"))
    return 1 if bad else 0


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

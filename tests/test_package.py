"""The package's public names, loaded on first use from their submodules."""

import importlib
import os
import subprocess
import sys

import pytest

from helpers import SRC

import mailminer

# Every name `mailminer` exports, by the submodule that defines it.
EXPORTS = {
    "core": [
        "MISSING", "ArityMismatch", "DirectoryUnreadable", "EmptyDataset", "EmptyResultSchema",
        "MailMinerError", "MalformedInput", "NotNumeric", "RaggedRow", "TooFewRows",
        "UnknownAttribute", "UnsupportedFormat",
    ],
    "ingest": ["EmailRecord", "RawEmail", "extract_record", "parse_eml", "scan_corpus"],
    "tabular": [
        "CANONICAL_ATTRIBUTES", "AttributeSpec", "Dataset", "DuplicateProfile", "duplicate_profile",
        "read_csv", "records_to_dataset", "write_arff", "write_csv",
    ],
    "filters": ["filter_discretize", "filter_randomize", "filter_remove", "filter_sample"],
    "cluster": [
        "ClusterModel", "KMeansConfig", "attribute_ranges", "distance", "kmeans", "select_k",
        "silhouette_mean", "silhouette_means", "sse",
    ],
    "analysis": ["ClusterSummary", "SenderReport", "render_report", "summarize", "top_senders"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_export_is_its_home_module_object(module, name):
    home = importlib.import_module(f"mailminer.{module}")
    assert getattr(mailminer, name) is getattr(home, name)


def test_star_import_binds_exactly_the_exports():
    code = (
        "ns = {}\n"
        "exec('from mailminer import *', ns)\n"
        "print(*sorted(k for k in ns if k != '__builtins__'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True)
    assert proc.stdout.decode().split() == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mailminer.no_such_name
    with pytest.raises(ImportError):
        from mailminer import no_such_name  # noqa: F401

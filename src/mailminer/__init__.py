"""mailminer: .eml corpus mining with mixed-type k-means clustering.

Every public name is loaded from its submodule on first use (PEP 562), so
`import mailminer` alone imports none of them, and a CLI subcommand pays
only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "core": (
            "MISSING", "ArityMismatch", "DirectoryUnreadable", "EmptyDataset",
            "EmptyResultSchema", "MailMinerError", "MalformedInput", "NotNumeric",
            "RaggedRow", "TooFewRows", "UnknownAttribute", "UnsupportedFormat",
        ),
        "ingest": ("EmailRecord", "RawEmail", "extract_record", "parse_eml", "scan_corpus"),
        "tabular": (
            "CANONICAL_ATTRIBUTES", "AttributeSpec", "Dataset", "DuplicateProfile",
            "duplicate_profile", "read_csv", "records_to_dataset", "write_arff", "write_csv",
        ),
        "filters": ("filter_discretize", "filter_randomize", "filter_remove", "filter_sample"),
        "cluster": (
            "ClusterModel", "KMeansConfig", "attribute_ranges", "distance", "kmeans",
            "select_k", "silhouette_mean", "silhouette_means", "sse",
        ),
        "analysis": ("ClusterSummary", "SenderReport", "render_report", "summarize", "top_senders"),
    }.items()
    for name in names
}
__all__ = list(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value

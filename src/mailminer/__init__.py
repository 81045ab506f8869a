"""mailminer: .eml corpus mining with mixed-type k-means clustering."""

from .core import (
    MISSING,
    ArityMismatch,
    DirectoryUnreadable,
    EmptyDataset,
    EmptyResultSchema,
    MailMinerError,
    MalformedInput,
    NotNumeric,
    RaggedRow,
    TooFewRows,
    UnknownAttribute,
    UnsupportedFormat,
)
from .ingest import EmailRecord, RawEmail, extract_record, parse_eml, scan_corpus
from .tabular import (
    CANONICAL_ATTRIBUTES,
    AttributeSpec,
    Dataset,
    DuplicateProfile,
    duplicate_profile,
    filter_discretize,
    filter_randomize,
    filter_remove,
    filter_sample,
    read_csv,
    records_to_dataset,
    write_arff,
    write_csv,
)
from .cluster import (
    ClusterModel,
    KMeansConfig,
    attribute_ranges,
    distance,
    kmeans,
    select_k,
    silhouette_mean,
    silhouette_means,
    sse,
)
from .analysis import (
    ClusterSummary,
    SenderReport,
    render_report,
    summarize,
    top_senders,
)

__version__ = "0.1.0"

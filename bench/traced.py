"""In-process traced run: each CLI step replayed through mailminer's public
functions, with a span around every call into a layer.

Spans are kept in memory (name, parent index, start, end, counters) and
written out once, by the caller, when the run ends. Functions that other
public functions call through their module's globals (`parse_eml`,
`extract_record` and `Path.read_bytes` inside `scan_corpus`; `kmeans`,
`silhouette_mean` and `attribute_ranges` inside `select_k`) are swapped
for traced wrappers only while the traced run lasts, so the untraced
end-to-end runs, which are separate processes anyway, pay nothing.
"""

import contextlib
import pathlib
import time
from dataclasses import replace

import mailminer
import mailminer.cluster
import mailminer.ingest
from mailminer import KMeansConfig, MISSING

# The CLI reads converted CSVs with these kinds (see `mailminer filter`).
HINTS = {"Date": "numeric", "HTML": ("nominal", ("yes", "no"))}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start, end, counters]
        self.first_args = {}  # name -> args of its first call, when kept
        self._stack = []

    def wrap(self, name, fn, count=None, keep_args=False):
        """fn with a span around each call; count(args, result) -> counters."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result)
            if keep_args:
                self.first_args.setdefault(name, args)
            return result

        return traced

    def total(self, name):
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def counter(self, name, key):
        return sum(s[4][key] for s in self.spans if s[0] == name and s[4])

    def calls(self, name):
        return [s for s in self.spans if s[0] == name]

    def top_level_s(self):
        return sum(s[3] - s[2] for s in self.spans if s[1] is None)

    def dump(self):
        return [
            {"name": n, "parent": p, "start": s, "end": e, "counters": c}
            for n, p, s, e, c in self.spans
        ]


def _file_bytes(args, result):
    return {"bytes": pathlib.Path(args[1]).stat().st_size}


def _read_counts(args, ds):
    missing = sum(1 for row in ds.rows for v in row if v is MISSING)
    return {"rows": ds.n_rows, "missing": missing}


def _kmeans_counts(args, model):
    n, k = len(args[0].rows), model.chosen_k
    return {"iterations": model.iterations, "dist_evals": n * k * model.iterations + 2 * n}


def _silhouette_counts(args, score):
    n = len(args[0].rows)
    return {"pair_evals": n * (n - 1) // 2}


class Layers:
    """Traced entry points, one attribute per public function."""

    def __init__(self, tracer):
        w = tracer.wrap
        self.scan_corpus = w("ingest.scan", mailminer.scan_corpus,
                             lambda a, r: {"parsed": len(r.records), "skipped": len(r.skipped)})
        self.parse_eml = w("ingest.parse_eml", mailminer.ingest.parse_eml)
        self.extract_record = w("ingest.extract_record", mailminer.ingest.extract_record)
        self.read_bytes = w("ingest.read", pathlib.Path.read_bytes, lambda a, r: {"bytes": len(r)})
        self.records_to_dataset = w("tabular.records_to_dataset", mailminer.records_to_dataset)
        self.write_csv = w("tabular.write_csv", mailminer.write_csv, _file_bytes)
        self.write_arff = w("tabular.write_arff", mailminer.write_arff, _file_bytes)
        self.read_csv = w("tabular.read_csv", mailminer.read_csv, _read_counts)
        self.filter_remove = w("tabular.filter_remove", mailminer.filter_remove)
        self.filter_sample = w("tabular.filter_sample", mailminer.filter_sample)
        self.filter_randomize = w("tabular.filter_randomize", mailminer.filter_randomize)
        self.filter_discretize = w("tabular.filter_discretize", mailminer.filter_discretize, keep_args=True)
        self.duplicate_profile = w("tabular.duplicate_profile", mailminer.duplicate_profile)
        self.attribute_ranges = w("cluster.attribute_ranges", mailminer.attribute_ranges)
        self.kmeans = w("cluster.kmeans", mailminer.kmeans, _kmeans_counts)
        self.silhouette_mean = w("cluster.silhouette", mailminer.silhouette_mean, _silhouette_counts, keep_args=True)
        self.select_k = w("cluster.select_k", mailminer.select_k)
        self.top_senders = w("analysis.top_senders", mailminer.top_senders)
        self.summarize = w("analysis.summarize", mailminer.summarize)
        self.render_report = w("analysis.render_report", mailminer.render_report)

    @contextlib.contextmanager
    def installed(self):
        """Route the package's internal calls through the traced wrappers."""
        swaps = [
            (mailminer.ingest, "parse_eml", self.parse_eml),
            (mailminer.ingest, "extract_record", self.extract_record),
            (pathlib.Path, "read_bytes", self.read_bytes),
            (mailminer.cluster, "attribute_ranges", self.attribute_ranges),
            (mailminer.cluster, "kmeans", self.kmeans),
            (mailminer.cluster, "silhouette_mean", self.silhouette_mean),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in swaps]
        try:
            for obj, attr, fn in swaps:
                setattr(obj, attr, fn)
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)


# One function per CLI step, doing what the subcommand does, minus argv
# parsing and logging. `args` holds the step's inputs and its output path.

def convert(L, args, fmt):
    result = L.scan_corpus(args["corpus"])
    ds = L.records_to_dataset(result.records, mailminer.CANONICAL_ATTRIBUTES)
    (L.write_csv if fmt == "csv" else L.write_arff)(ds, args["out"])


def top_senders(L, args):
    result = L.scan_corpus(args["corpus"])
    L.render_report(L.top_senders(result.records, 10), "text", args["out"])


def _read(L, args):
    return L.read_csv(args["csv"], kind_hints=HINTS, relation_name="emails")


def filter_step(L, args, how):
    ds = _read(L, args)
    if how == "remove":
        out = L.filter_remove(ds, ["MessageId", "CC"])
    elif how == "sample":
        out = L.filter_sample(ds, 0.5, 7)
    elif how == "shuffle":
        out = L.filter_randomize(ds, 7)
    else:
        out = L.filter_discretize(ds, "Date", 10)
    L.write_csv(out, args["out"])


def dupes(L, args):
    ds = _read(L, args)
    L.render_report(L.duplicate_profile(ds, ["From", "Subject", "HTML"]), "text", args["out"])


def cluster(L, args, auto):
    ds = _read(L, args)
    if auto:
        _, model = L.select_k(ds, KMeansConfig(k_max=4, max_iterations=100, seed=42))
    else:
        model = L.kmeans(ds, KMeansConfig(k=8, max_iterations=8, seed=42))
    L.render_report(L.summarize(model, ds), "text", args["out"])


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


PROBE_TIMES = 3


def scaling_probes(tracer):
    """Time the quadratic stages again on the first half of their input.

    Returns {stage: time at n / time at n/2} for each stage the traced run
    called: `filter_discretize` on its input, and `silhouette_mean` on the
    first model it scored, with that model's assignment cut to the half.
    Each side is the fastest of PROBE_TIMES timings (the traced calls at n
    count), because single timings on a shared machine drift by tens of
    percent.
    """
    probes = {}
    for name, fn in (("tabular.filter_discretize", mailminer.filter_discretize),
                     ("cluster.silhouette", mailminer.silhouette_mean)):
        if name not in tracer.first_args:
            continue
        ds, *rest = tracer.first_args[name]
        half = replace(ds, rows=ds.rows[: len(ds.rows) // 2])
        rest_half = rest
        if name == "cluster.silhouette":
            rest_half = [replace(rest[0], assignment=rest[0].assignment[: len(half.rows)])]
        at_n = [s[3] - s[2] for s in tracer.calls(name)]
        at_n += [_timed(fn, ds, *rest) for _ in range(PROBE_TIMES - len(at_n))]
        at_half = [_timed(fn, half, *rest_half) for _ in range(PROBE_TIMES)]
        probes[name] = min(at_n) / min(at_half)
    return probes

"""Command-line interface: convert, cluster, dupes, top-senders, filter.

Machine output goes to --out or stdout. Diagnostics, the record count
and the unparseable files skipped, are plain lines on stderr. Exit codes:
0 success, 1 usage error, 2 data error, 3 I/O error. MAILMINER_LOG
(quiet, info, debug) is read on every run: quiet drops the diagnostics,
and debug prints what info prints.
"""

import argparse
import functools
import gc
import itertools
import os
import sys

# Only core and tabular load with the CLI. Each subcommand imports the rest
# of what it runs (ingest, cluster, analysis, filters) inside its function,
# so `--help` starts without them.
from .core import (
    DirectoryUnreadable,
    EmptyDataset,
    EmptyResultSchema,
    MalformedInput,
    NotNumeric,
    RaggedRow,
    TooFewRows,
    UnknownAttribute,
)
from .tabular import (
    CANONICAL_ATTRIBUTES,
    CANONICAL_HINTS,
    _checked_selection,
    _open_sink,
    _streamed_dataset,
    duplicate_profile,
    read_csv,
    write_arff,
    write_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

LOG_LEVELS = ("quiet", "info", "debug")

# Help and usage lines are wrapped at one fixed width (what COLUMNS=200
# gives), not at the terminal's, so the same argv prints the same bytes
# everywhere: at narrow widths 3.13 wraps a usage line unlike 3.10-3.12.
# Subparsers do not inherit a formatter, so add_subparsers makes them as _Parser.
_Parser = functools.partial(argparse.ArgumentParser, formatter_class=functools.partial(argparse.HelpFormatter, width=198))


def _log_level():
    """MAILMINER_LOG, or "info" (with a warning) for an unknown value."""
    name = os.environ.get("MAILMINER_LOG", "info")
    if name in LOG_LEVELS:
        return name
    print(
        f"mailminer: warning: unknown MAILMINER_LOG={name!r}, using 'info'"
        f" (accepted: {', '.join(LOG_LEVELS)})",
        file=sys.stderr,
    )
    return "info"


def _usage(message):
    print(f"mailminer: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _scan(args, consume, read):
    """consume(read's value for each message of args.dir, streamed), then the
    count and the skip-list on stderr; a bad directory fails before consume."""
    from .ingest import iter_corpus

    skipped = []
    records = iter_corpus(args.dir, skipped, read)
    tally = itertools.count()  # zip draws from it only for a record it yields
    result = consume(record for record, _ in zip(records, tally))
    if not args.quiet:
        print(f"records: {next(tally)}  skipped: {len(skipped)}", file=sys.stderr)
        for entry in skipped:
            print(f"skipped {entry.path}: {entry.reason}", file=sys.stderr)
    return result


def _split_attrs(spec_text):
    return [a for a in spec_text.split(",") if a]


def cmd_convert(args):
    from .ingest import read_record

    attrs = _checked_selection(_split_attrs(args.attrs))  # before the scan
    writer = write_csv if args.format == "csv" else write_arff
    # the writer opens --out before it reads a row, so a bad --out fails before the scan
    _scan(args, lambda records: writer(_streamed_dataset(records, attrs), args.out or sys.stdout), read_record)
    return EXIT_OK


def cmd_cluster(args):
    from .analysis import render_report, summarize
    from .cluster import KMeansConfig, kmeans, select_k

    if (args.k is None) == (not args.auto_k):
        return _usage("exactly one of --k / --auto-k is required")
    if args.k is not None and args.k < 1:
        return _usage("--k must be >= 1")
    if args.auto_k and args.kmax < 2:
        return _usage("--kmax must be >= 2")
    if args.max_iter < 1:
        return _usage("--max-iter must be >= 1")
    ds = read_csv(args.csv, kind_hints=CANONICAL_HINTS)
    if args.k is not None:
        model = kmeans(ds, KMeansConfig(k=args.k, max_iterations=args.max_iter, seed=args.seed))
    else:
        cfg = KMeansConfig(k_max=args.kmax, max_iterations=args.max_iter, seed=args.seed)
        _, model = select_k(ds, cfg)
    summary = summarize(model, ds)
    render_report(summary, args.report, args.out or sys.stdout)
    return EXIT_OK


def cmd_dupes(args):
    from .analysis import render_report

    ds = read_csv(args.csv, kind_hints=CANONICAL_HINTS)
    profile = duplicate_profile(ds, _split_attrs(args.attrs))
    render_report(profile, "text", args.out or sys.stdout)
    return EXIT_OK


def cmd_top_senders(args):
    from .analysis import rank_senders, render_report
    from .ingest import read_sender

    if args.n < 1:
        return _usage("-n must be >= 1")

    def report(senders):
        # --out is opened before the first file is read, so a bad --out fails before the scan
        with _open_sink(args.out or sys.stdout) as f:
            render_report(rank_senders(senders, args.n), "text", f)

    _scan(args, report, read_sender)
    return EXIT_OK


def cmd_filter(args):
    from .filters import filter_discretize, filter_randomize, filter_remove, filter_sample

    hints = dict(CANONICAL_HINTS)
    discretize_target = None
    if args.discretize:
        name, sep, bins_text = args.discretize.rpartition(":")
        if not sep or not name:
            return _usage("--discretize needs the form name:bins")
        try:
            bins = int(bins_text)
        except ValueError:
            return _usage(f"bad bin count {bins_text!r}")
        if bins < 1:
            return _usage("--discretize bin count must be >= 1")
        discretize_target = (name, bins)
        # non-canonical targets are read as numeric; canonical text/nominal
        # columns keep their kind so discretizing them reports NotNumeric
        if name not in CANONICAL_ATTRIBUTES:
            hints[name] = "numeric"
    if args.sample is not None and not 0 < args.sample <= 1:
        return _usage("--sample fraction must be in (0, 1]")
    ds = read_csv(args.csv, kind_hints=hints)
    if args.remove is not None:
        out = filter_remove(ds, _split_attrs(args.remove))
    elif args.sample is not None:
        out = filter_sample(ds, args.sample, args.seed)
    elif args.shuffle:
        out = filter_randomize(ds, args.seed)
    else:
        out = filter_discretize(ds, *discretize_target)
    write_csv(out, args.out or sys.stdout)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="mailminer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="scan an .eml corpus into CSV or ARFF")
    p.add_argument("dir")
    p.add_argument("--attrs", default=",".join(CANONICAL_ATTRIBUTES))
    p.add_argument("--format", choices=("csv", "arff"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("cluster", help="k-means over a converted CSV")
    p.add_argument("csv")
    p.add_argument("--k", type=int)
    p.add_argument("--auto-k", action="store_true", dest="auto_k")
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100, dest="max_iter")
    p.add_argument("--report", choices=("text", "csv", "svg"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("dupes", help="duplicate-instance profile of a CSV")
    p.add_argument("csv")
    p.add_argument("--attrs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dupes)

    p = sub.add_parser("top-senders", help="rank sender addresses by mail count")
    p.add_argument("dir")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_top_senders)

    p = sub.add_parser("filter", help="apply one preprocessing filter to a CSV")
    p.add_argument("csv")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--remove", metavar="NAMES")
    group.add_argument("--sample", type=float, metavar="FRACTION")
    group.add_argument("--shuffle", action="store_true")
    group.add_argument("--discretize", metavar="NAME:BINS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_filter)

    return parser


def main(argv=None):
    quiet = _log_level() == "quiet"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help; argparse exits 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    args.quiet = quiet
    try:
        return args.func(args)
    except (UnknownAttribute, EmptyResultSchema, NotNumeric) as exc:
        return _usage(str(exc))
    except (RaggedRow, TooFewRows, EmptyDataset, MalformedInput) as exc:
        print(f"mailminer: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DirectoryUnreadable as exc:
        print(f"mailminer: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, UnicodeEncodeError) as exc:  # the latter: stdout cannot encode the output
        print(f"mailminer: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def run():
    """The process entry point: main(), then gc.freeze(), so the shutdown
    collections skip what exit frees anyway (main() alone freezes nothing)."""
    code = main()
    gc.freeze()
    return code

"""Reports over fitted models and record sets: cluster summaries with
rounded percentages, top-sender rankings, and text/CSV/SVG rendering."""

import math
from collections import Counter, namedtuple

from .core import MISSING, UnsupportedFormat
from .tabular import DuplicateProfile, _open_sink, format_csv_row

UNKNOWN_SENDER = "(unknown)"


def _escape(text):
    """XML character data: the mapping of xml.sax.saxutils.escape, without
    the cost of importing it (it pulls in urllib and ssl)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class ClusterSummary(namedtuple("ClusterSummary", "sizes percentages iterations chosen_k")):
    """Cluster sizes, their integer percents of the rows, the fit's iterations and k."""

    __slots__ = ()


class SenderEntry(namedtuple("SenderEntry", "address count share")):
    __slots__ = ()


class SenderReport(namedtuple("SenderReport", "entries total")):
    __slots__ = ()


def _round_half_away(x):
    # nearest integer, ties away from zero (x is never negative here)
    return math.floor(x + 0.5)


def summarize(model, ds):
    total = len(ds.rows)
    percentages = tuple(_round_half_away(size * 100 / total) for size in model.sizes)
    return ClusterSummary(tuple(model.sizes), percentages, model.iterations, model.chosen_k)


def top_senders(records, n):
    """rank_senders over the From addresses of any iterable of records."""
    return rank_senders((rec.from_addr for rec in records), n)


def rank_senders(addresses, n):
    """Rank sender addresses by message count (ties by address).

    A missing address is pooled under "(unknown)", so the counts always
    add up to the corpus size.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = Counter(addr if addr is not MISSING else UNKNOWN_SENDER for addr in addresses)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    total = sum(counts.values())
    entries = tuple(SenderEntry(addr, count, count / total) for addr, count in ranked[:n])
    return SenderReport(entries, total)


# ---------------------------------------------------------------------------
# Rendering


def _views(report):
    """A report as (text lines, CSV rows, bar-chart entries)."""
    if isinstance(report, ClusterSummary):
        rows = list(zip(range(len(report.sizes)), report.sizes, report.percentages))
        return (
            [f"k={report.chosen_k}", f"Iterations: {report.iterations}"]
            + [f"{i}  {size} ({pct:3d}%)" for i, size, pct in rows],
            [("cluster", "size", "percent")] + rows,
            [(str(i), size) for i, size, _ in rows],
        )
    if isinstance(report, DuplicateProfile):
        return (
            [
                "projection: " + ",".join(report.projection),
                f"different: {report.n_different}, identical: {report.n_identical}",
            ],
            [
                ("projection", "different", "identical"),
                (";".join(report.projection), report.n_different, report.n_identical),
            ],
            [("different", report.n_different), ("identical", report.n_identical)],
        )
    if isinstance(report, SenderReport):
        return (
            ["sender count share"]
            + [f"{e.address} {e.count} {e.share:.4f}" for e in report.entries],
            [("sender", "count", "share")]
            + [(e.address, e.count, f"{e.share:.6f}") for e in report.entries],
            [(e.address, e.count) for e in report.entries],
        )
    raise TypeError(f"cannot render {type(report).__name__}")


def _svg_bars(entries):
    """Standalone SVG 1.1 bar chart, exactly one rect per entry."""
    width, bar_h, gap, label_w, top = 640, 18, 8, 220, 16
    height = top + len(entries) * (bar_h + gap) + gap
    max_count = max((c for _, c in entries), default=0)
    span = width - label_w - 60
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
    ]
    y = top
    for label, count in entries:
        bar = 0.0 if max_count == 0 else span * count / max_count
        out.append(
            f'<text x="4" y="{y + 13}" font-size="12">{_escape(str(label))}</text>'
        )
        out.append(
            f'<rect x="{label_w}" y="{y}" width="{bar:.2f}" height="{bar_h}" '
            f'fill="#4477aa"/>'
        )
        out.append(
            f'<text x="{label_w + bar + 4:.2f}" y="{y + 13}" font-size="12">{count}</text>'
        )
        y += bar_h + gap
    out.append("</svg>")
    return out


def render_report(report, fmt, sink):
    """Render a summary/profile/report as text, CSV or an SVG bar chart."""
    if fmt not in ("text", "csv", "svg"):
        raise UnsupportedFormat(f"unknown report format {fmt!r}")
    text, rows, bars = _views(report)
    if fmt == "text":
        lines = text
    elif fmt == "csv":
        lines = [format_csv_row(row) for row in rows]
    else:
        lines = _svg_bars(bars)
    with _open_sink(sink) as f:
        f.write("\n".join(lines) + "\n")

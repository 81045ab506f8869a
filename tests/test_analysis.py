import io
import random
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, strategies as st

from mailminer import (
    MISSING,
    ClusterSummary,
    DuplicateProfile,
    KMeansConfig,
    UnsupportedFormat,
    kmeans,
    render_report,
    summarize,
    top_senders,
)
from mailminer.analysis import SenderReport, UNKNOWN_SENDER, _escape
from mailminer.ingest import EmailRecord


def _rec(from_addr):
    return EmailRecord(MISSING, MISSING, (), from_addr, MISSING, False)


def _summary(sizes, percentages, iterations=2, k=None):
    return ClusterSummary(tuple(sizes), tuple(percentages), iterations, k or len(sizes))


def _render(report, fmt="text"):
    buf = io.StringIO()
    render_report(report, fmt, buf)
    return buf.getvalue()


def test_summarize_paper_percentages(corpus_dataset):
    model = kmeans(corpus_dataset, KMeansConfig(k=2, seed=42))
    summary = summarize(model, corpus_dataset)
    assert sorted(summary.sizes) == [1, 6]
    assert sorted(summary.percentages) == [14, 86]
    assert summary.iterations == 2


def test_summarize_even_split():
    # direct rounding checks, independent of any fitted model
    import mailminer.analysis as analysis

    assert [analysis._round_half_away(s * 100 / 2) for s in (1, 1)] == [50, 50]
    assert [analysis._round_half_away(s * 100 / 7) for s in (1, 2, 4)] == [14, 29, 57]


def test_percentage_sum_bound():
    rnd = random.Random(5)
    import mailminer.analysis as analysis

    for _ in range(200):
        k = rnd.randint(1, 9)
        sizes = [rnd.randint(0, 20) for _ in range(k)]
        total = sum(sizes) or 1
        pcts = [analysis._round_half_away(s * 100 / total) for s in sizes]
        assert abs(sum(pcts) - 100) <= k or sum(sizes) == 0


def test_top_senders_direct_counts():
    report = top_senders([_rec("a"), _rec("a"), _rec("a"), _rec("b")], 2)
    assert [(e.address, e.count, e.share) for e in report.entries] == [
        ("a", 3, 0.75),
        ("b", 1, 0.25),
    ]


def test_top_senders_empty():
    report = top_senders([], 3)
    assert report.entries == () and report.total == 0


@pytest.mark.parametrize("senders", ["", "a", "abab?c", "??b"])
def test_top_senders_reads_any_iterable_once(senders):
    records = [_rec(MISSING if c == "?" else c) for c in senders]
    for n in (1, 3):
        assert top_senders(iter(records), n) == top_senders(records, n)


def test_top_senders_missing_bucket_and_tie_order():
    report = top_senders([_rec(MISSING), _rec("b"), _rec("a")], 5)
    assert [e.address for e in report.entries] == [UNKNOWN_SENDER, "a", "b"]
    assert sum(e.count for e in report.entries) == report.total == 3


def test_top_senders_prefix_property():
    records = [_rec(c) for c in "aaabbcdd"]
    for n in range(1, 5):
        small = top_senders(records, n)
        bigger = top_senders(records, n + 1)
        assert bigger.entries[: len(small.entries)] == small.entries


def test_top_senders_bad_n():
    with pytest.raises(ValueError):
        top_senders([], 0)


def test_render_cluster_summary_text_golden():
    text = _render(_summary([6, 1], [86, 14], iterations=2, k=2))
    lines = text.splitlines()
    assert "0  6 ( 86%)" in lines
    assert "1  1 ( 14%)" in lines
    assert lines[0] == "k=2"
    assert lines[1] == "Iterations: 2"


def test_render_duplicate_profile_text():
    text = _render(DuplicateProfile(("From", "Subject", "HTML"), 4, 3))
    assert "different: 4, identical: 3" in text


def test_render_empty_sender_report_header_only():
    assert _render(SenderReport((), 0)) == "sender count share\n"


def test_render_sender_report_text():
    report = top_senders([_rec("a"), _rec("a"), _rec("b")], 1)
    assert _render(report).splitlines()[1] == "a 2 0.6667"


def test_render_csv_quoting():
    report = top_senders([_rec('we,"ird@x.com')], 1)
    text = _render(report, "csv")
    assert text.splitlines()[1].startswith('"we,""ird@x.com"')


def test_render_svg_one_rect_per_entry():
    for report, expected in [
        (_summary([6, 1], [86, 14]), 2),
        (DuplicateProfile(("From",), 4, 3), 2),
        (top_senders([_rec("a"), _rec("b<c")], 2), 2),
        (SenderReport((), 0), 0),
    ]:
        text = _render(report, "svg")
        root = ET.fromstring(text)  # XML well-formedness check
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) == expected


@given(st.text(alphabet="a&<>;\"'é"))
def test_svg_label_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


def test_render_unsupported_format():
    with pytest.raises(UnsupportedFormat):
        _render(_summary([1], [100]), "pdf")

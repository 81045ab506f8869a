"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The duplicate-profile criterion uses two bundled 7-message
corpora: fixtures/corpus for the 3-attribute profile and
fixtures/dup_corpus for the full-schema profile (the two printed counts
cannot coexist on a single dataset; see the repo notes).
"""

import io
import random
import time

import pytest

from mailminer import (
    MISSING,
    CANONICAL_ATTRIBUTES,
    KMeansConfig,
    duplicate_profile,
    kmeans,
    read_csv,
    records_to_dataset,
    scan_corpus,
    sse,
    top_senders,
    write_arff,
    write_csv,
)

from conftest import FIXTURE_CORPUS, FIXTURE_DUP_CORPUS, run_cli
from helpers import hints_for, naive_sse, random_dataset, read_arff


def _ok(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_fig5_reproduction(tmp_path):
    start = time.perf_counter()
    csv_path = tmp_path / "emails.csv"
    proc = run_cli("convert", FIXTURE_CORPUS, "--out", csv_path)
    assert proc.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "Date,MessageId,CC,From,Subject,HTML"
    assert len(lines) == 1 + 7
    proc = run_cli("cluster", csv_path, "--k", "2", "--seed", "42")
    assert proc.returncode == 0
    assert "Iterations: 2" in proc.stdout.decode()
    assert time.perf_counter() - start < 1.0
    _ok("Fig.5 reproduction: 7x6 conversion, Iterations = 2, < 1 s")


def test_percentage_table(corpus_dataset):
    from mailminer import summarize

    model = kmeans(corpus_dataset, KMeansConfig(k=2, seed=42))
    summary = summarize(model, corpus_dataset)
    assert sorted(summary.sizes) == [1, 6]
    assert sorted(summary.percentages) == [14, 86]
    _ok("percentage table: sizes {6,1} printed as 86% / 14%")


def test_duplicate_profiles(corpus_dataset):
    p3 = duplicate_profile(corpus_dataset, ["From", "Subject", "HTML"])
    assert (p3.n_different, p3.n_identical) == (4, 3)
    dup_ds = records_to_dataset(scan_corpus(FIXTURE_DUP_CORPUS).records)
    p6 = duplicate_profile(dup_ds, list(CANONICAL_ATTRIBUTES))
    assert (p6.n_different, p6.n_identical) == (2, 5)
    _ok("duplicate profiles: (4 different, 3 identical) and (2 different, 5 identical)")


def test_top_sender_goal(corpus_records):
    report = top_senders(corpus_records, 1)
    assert report.entries[0].address == "spammer@x.test"
    assert report.entries[0].count == 6
    assert report.total == 7
    assert report.entries[0].share == pytest.approx(6 / 7)
    _ok("top-sender goal: 6-message sender ranked first with count 6 of 7")


def test_kmeans_property_suite():
    start = time.perf_counter()
    rnd = random.Random(1234)
    oracle_checked = 0
    for case in range(1000):
        ds = random_dataset(rnd, max_rows=32)
        n = len(ds.rows)
        k = rnd.randint(1, n)
        cfg = KMeansConfig(k=k, seed=rnd.randrange(2**63))
        model = kmeans(ds, cfg)
        assert model.iterations <= cfg.max_iterations, case
        assert model.sse <= model.first_pass_sse + 1e-12, case
        assert sum(model.sizes) == n and all(a < k for a in model.assignment), case
        # converged models are fixed points of one more assignment pass
        recheck = kmeans(
            ds, KMeansConfig(k=k, max_iterations=1), initial_centroids=model.centroids
        )
        assert recheck.assignment == model.assignment, case
        # identical seeds give identical models
        again = kmeans(ds, cfg)
        assert (
            again.assignment == model.assignment
            and again.centroids == model.centroids
            and again.sse == model.sse
        ), case
        # k = n puts every row in its own cluster; the only residual error
        # is the fixed unit contribution of each missing cell, so SSE is 0
        # exactly on complete data
        full = kmeans(ds, KMeansConfig(k=n, seed=cfg.seed))
        n_missing = sum(cell is MISSING for row in ds.rows for cell in row)
        assert full.sse == pytest.approx(float(n_missing), abs=1e-12), case
        if n_missing == 0:
            assert full.sse == 0.0, case
        # oracle equivalence on the small datasets
        if n <= 6:
            expected = naive_sse(ds, model)
            assert model.sse == pytest.approx(expected, rel=1e-9, abs=1e-12), case
            assert sse(ds, model) == pytest.approx(expected, rel=1e-9, abs=1e-12), case
            oracle_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert oracle_checked > 0
    _ok(
        f"k-means property suite: 1000 datasets, zero violations in {elapsed:.1f} s "
        f"(SSE oracle agreed on {oracle_checked} small datasets)"
    )


def test_hand_derived_trace():
    from mailminer import AttributeSpec, Dataset

    ds = Dataset([AttributeSpec("x", "numeric")], [[0.0], [1.0], [10.0], [11.0]])
    model = kmeans(ds, KMeansConfig(k=2), initial_centroids=[[0.0], [10.0]])
    assert model.assignment == [0, 0, 1, 1]
    assert model.centroids == [[0.5], [10.5]]
    assert model.iterations == 2
    _ok("hand-derived trace: {0,1}/{10,11}, centroids 0.5/10.5, iterations 2")


def test_serialization_round_trips():
    rnd = random.Random(777)
    for case in range(500):
        ds = random_dataset(rnd, max_rows=12)
        buf = io.StringIO()
        write_csv(ds, buf)
        back = read_csv(
            io.StringIO(buf.getvalue()), hints_for(ds), relation_name=ds.relation_name
        )
        assert back == ds, case
        arff_buf = io.StringIO()
        write_arff(ds, arff_buf)
        assert read_arff(arff_buf.getvalue()) == ds, case
    _ok("serialization: 500 CSV and ARFF round trips, zero violations")


def test_cli_determinism(tmp_path):
    csv_path = tmp_path / "emails.csv"
    assert run_cli("convert", FIXTURE_CORPUS, "--out", csv_path).returncode == 0
    commands = [
        ("convert", FIXTURE_CORPUS),
        ("convert", FIXTURE_CORPUS, "--format", "arff"),
        ("convert", FIXTURE_CORPUS, "--attrs", "From,Subject,HTML"),
        ("cluster", csv_path, "--k", "2", "--seed", "42"),
        ("cluster", csv_path, "--k", "2", "--seed", "42", "--report", "csv"),
        ("cluster", csv_path, "--k", "2", "--seed", "42", "--report", "svg"),
        ("cluster", csv_path, "--auto-k", "--kmax", "3", "--seed", "42"),
        ("dupes", csv_path, "--attrs", "From,Subject,HTML"),
        ("top-senders", FIXTURE_CORPUS, "-n", "3"),
        ("filter", csv_path, "--sample", "0.5", "--seed", "7"),
        ("filter", csv_path, "--shuffle", "--seed", "7"),
        ("filter", csv_path, "--remove", "Date,MessageId"),
        ("filter", csv_path, "--discretize", "Date:3"),
    ]
    for command in commands:
        first = run_cli(*command)
        second = run_cli(*command)
        assert first.returncode == second.returncode == 0, command
        assert first.stdout == second.stdout, command
    _ok("determinism: byte-identical output across two runs of every fixture command")

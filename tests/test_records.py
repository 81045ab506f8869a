"""The record classes' contract: construction by position and keyword,
defaults, equality, hashing, immutability and repr, whatever builds them."""

import dataclasses

import pytest

import mailminer
from mailminer.analysis import ClusterSummary, SenderEntry, SenderReport
from mailminer.cluster import KMeansConfig
from mailminer.ingest import EmailRecord, RawEmail, ScanResult, SkipEntry
from mailminer.tabular import AttributeSpec, DuplicateProfile

# class, its fields in order, one value per field, and the repr of that instance
CASES = [
    (EmailRecord, ("date", "message_id", "cc", "from_addr", "subject", "has_html"),
     (0, "m@x", ("c@x",), "a@x", None, True),
     "EmailRecord(date=0, message_id='m@x', cc=('c@x',), from_addr='a@x', subject=None, has_html=True)"),
    (SkipEntry, ("path", "reason"), ("a.eml", "bad"), "SkipEntry(path='a.eml', reason='bad')"),
    (ScanResult, ("records", "skipped"), ([], [SkipEntry("a.eml", "bad")]),
     "ScanResult(records=[], skipped=[SkipEntry(path='a.eml', reason='bad')])"),
    (AttributeSpec, ("name", "kind", "nominal_domain"), ("HTML", "nominal", ("yes", "no")),
     "AttributeSpec(name='HTML', kind='nominal', nominal_domain=('yes', 'no'))"),
    (DuplicateProfile, ("projection", "n_different", "n_identical"), (("From",), 2, 5),
     "DuplicateProfile(projection=('From',), n_different=2, n_identical=5)"),
    (KMeansConfig, ("k", "k_max", "max_iterations", "seed"), (3, 4, 8, 42),
     "KMeansConfig(k=3, k_max=4, max_iterations=8, seed=42)"),
    (ClusterSummary, ("sizes", "percentages", "iterations", "chosen_k"), ((2, 1), (67, 33), 3, 2),
     "ClusterSummary(sizes=(2, 1), percentages=(67, 33), iterations=3, chosen_k=2)"),
    (SenderEntry, ("address", "count", "share"), ("a@x", 2, 0.5),
     "SenderEntry(address='a@x', count=2, share=0.5)"),
    (SenderReport, ("entries", "total"), ((SenderEntry("a@x", 2, 0.5),), 4),
     "SenderReport(entries=(SenderEntry(address='a@x', count=2, share=0.5),), total=4)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_built_by_position_or_keyword_alike(cls, fields, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword and not by_position != by_keyword
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    assert repr(by_position) == repr(by_keyword) == text


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_a_changed_field_makes_an_unequal_record(cls, fields, values, text):
    base = cls(*values)
    for name in fields:
        if cls is AttributeSpec and name == "kind":
            continue  # only a nominal spec carries a domain
        other = dict(zip(fields, values))
        other[name] = ("other",) if name == "nominal_domain" else "other"
        assert cls(**other) != base and not cls(**other) == base, name


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_equal_records_hash_alike(cls, fields, values, text):
    if cls is ScanResult:  # it holds lists
        with pytest.raises(TypeError):
            hash(cls(*values))
    else:
        assert hash(cls(*values)) == hash(cls(**dict(zip(fields, values))))
        assert len({cls(*values), cls(*values)}) == 1


@pytest.mark.parametrize("cls, fields, values, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, values, text):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == cls(*values)


def test_defaults():
    assert KMeansConfig() == KMeansConfig(2, 2, 100, 0)
    assert KMeansConfig(seed=7) == KMeansConfig(2, 2, 100, 7)
    assert AttributeSpec("a", "text") == AttributeSpec("a", "text", ())
    assert AttributeSpec("a", "numeric").nominal_domain == ()


def test_raw_email_index_is_neither_compared_nor_hashed_nor_shown():
    headers, parts = (("From", "a@x"),), ("text/plain",)
    raw = RawEmail(headers, parts, {"from": ["a@x"]})
    other = RawEmail(headers, parts, index={})
    assert raw == other and not raw != other and hash(raw) == hash(other)
    assert raw != RawEmail(headers, ("text/html",), {"from": ["a@x"]})
    assert repr(raw) == "RawEmail(headers=(('From', 'a@x'),), body_parts=('text/plain',))"
    assert raw.index == {"from": ["a@x"]}
    assert (raw.get("FROM"), raw.get("Cc")) == ("a@x", None)


@pytest.mark.parametrize("args, message", [
    (("a", "float"), "unknown attribute kind: float"),
    (("a", "nominal"), "nominal attribute needs a non-empty domain"),
    (("a", "nominal", ("x", "y", "x")), "nominal domain contains duplicates"),
    (("a", "text", ("x",)), "only nominal attributes carry a domain"),
    (("a", "numeric", ["x"]), "only nominal attributes carry a domain"),
])
def test_attribute_spec_refuses_a_bad_kind_or_domain(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AttributeSpec(*args)
    with pytest.raises(ValueError, match=f"^{message}$"):
        AttributeSpec(**dict(zip(("name", "kind", "nominal_domain"), args)))


def test_attribute_spec_keeps_its_domain_as_a_tuple():
    spec = AttributeSpec("HTML", "nominal", ["yes", "no"])
    assert spec.nominal_domain == ("yes", "no") and spec == AttributeSpec("HTML", "nominal", ("yes", "no"))
    assert (spec.is_number, AttributeSpec("Date", "date").is_number) == (False, True)


def test_only_the_bench_replaced_classes_are_dataclasses():
    # bench/traced.py calls dataclasses.replace on Dataset and ClusterModel;
    # they leave dataclasses with ROADMAP item 2's run record, not before
    exported = [name for name in mailminer.__all__ if dataclasses.is_dataclass(getattr(mailminer, name))]
    assert sorted(exported) == ["ClusterModel", "Dataset"]

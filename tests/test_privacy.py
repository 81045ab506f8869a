"""Renaming invariance: the analyses read text and nominal cells only for
equality, so any injective renaming of them (keyed pseudonymisation of
addresses and Message-IDs, say) leaves every result unchanged."""

import hashlib
import hmac
import random

from hypothesis import given, strategies as st

from mailminer import (
    MISSING,
    AttributeSpec,
    Dataset,
    KMeansConfig,
    duplicate_profile,
    kmeans,
    select_k,
    top_senders,
)
from mailminer.analysis import UNKNOWN_SENDER
from mailminer.ingest import EmailRecord

from helpers import random_dataset

_NAMES = st.text(max_size=4)


def _renamed(ds, images_of):
    """ds with each text/nominal column renamed by its own map, from the
    column's distinct values to `images_of(values)`; nominal domains are
    renamed to match."""
    maps = []
    for j, spec in enumerate(ds.schema):
        if spec.kind in ("text", "nominal"):
            values = list(dict.fromkeys(
                list(spec.nominal_domain) + [row[j] for row in ds.rows if row[j] is not MISSING]
            ))
            maps.append(dict(zip(values, images_of(values))))
        else:
            maps.append(None)
    schema = [
        AttributeSpec(spec.name, spec.kind, tuple(m[v] for v in spec.nominal_domain))
        if m is not None else spec
        for spec, m in zip(ds.schema, maps)
    ]
    rows = [
        [x if m is None or x is MISSING else m[x] for x, m in zip(row, maps)]
        for row in ds.rows
    ]
    return Dataset(schema, rows, ds.relation_name)


def _injective(data):
    """images_of for _renamed: distinct images drawn by hypothesis."""
    return lambda values: data.draw(
        st.lists(_NAMES, min_size=len(values), max_size=len(values), unique=True)
    )


@given(st.integers(0, 2**32 - 1), st.data())
def test_kmeans_is_invariant_under_renaming(seed, data):
    rnd = random.Random(seed)
    ds = random_dataset(rnd, max_rows=30)
    cfg = KMeansConfig(k=rnd.randint(1, len(ds.rows)), max_iterations=rnd.choice([2, 100]), seed=seed)
    before = kmeans(ds, cfg)
    after = kmeans(_renamed(ds, _injective(data)), cfg)
    assert after.assignment == before.assignment
    assert after.sizes == before.sizes
    assert after.iterations == before.iterations
    assert after.sse.hex() == before.sse.hex()


@given(st.integers(0, 2**32 - 1), st.data())
def test_select_k_is_invariant_under_renaming(seed, data):
    rnd = random.Random(seed)
    ds = random_dataset(rnd, max_rows=24, min_rows=2)
    cfg = KMeansConfig(k_max=min(4, len(ds.rows)), max_iterations=20, seed=seed)
    assert select_k(_renamed(ds, _injective(data)), cfg)[0] == select_k(ds, cfg)[0]


@given(st.integers(0, 2**32 - 1), st.data())
def test_duplicate_profile_is_invariant_under_renaming(seed, data):
    rnd = random.Random(seed)
    ds = random_dataset(rnd, max_rows=30)
    names = ds.attribute_names()
    projection = rnd.sample(names, rnd.randint(1, len(names)))
    before = duplicate_profile(ds, projection)
    after = duplicate_profile(_renamed(ds, _injective(data)), projection)
    assert (after.n_different, after.n_identical) == (before.n_different, before.n_identical)


def _sender_counts(records):
    return {e.address: e.count for e in top_senders(records, len(records) + 1).entries}


# a pseudonym may not be the pool of senders without an address
_ADDRESSES = st.text(max_size=6).filter(lambda a: a != UNKNOWN_SENDER)


@given(st.lists(st.just(MISSING) | st.sampled_from(["a@x", "b@x", "c@y", "d@z"]), min_size=1), st.data())
def test_top_senders_counts_are_invariant_under_renaming(senders, data):
    # ties are ranked by address, so the mapping is compared, not the order
    present = list(dict.fromkeys(s for s in senders if s is not MISSING))
    images = data.draw(st.lists(_ADDRESSES, min_size=len(present), max_size=len(present), unique=True))
    rename = dict(zip(present, images))
    rename[UNKNOWN_SENDER] = UNKNOWN_SENDER

    def records(addresses):
        return [EmailRecord(MISSING, MISSING, (), a, MISSING, False) for a in addresses]

    renamed = [s if s is MISSING else rename[s] for s in senders]
    before = _sender_counts(records(senders))
    assert _sender_counts(records(renamed)) == {rename[a]: c for a, c in before.items()}


def test_keyed_pseudonyms_leave_the_fit_unchanged():
    # the use case: HMAC pseudonyms for every text/nominal cell
    key = b"analysis key"

    def pseudonym(value):
        return hmac.new(key, value.encode(), hashlib.sha256).hexdigest()[:16]

    ds = random_dataset(random.Random(5), max_rows=30, min_rows=30)
    cfg = KMeansConfig(k=3, seed=5)
    pseudonymised = _renamed(ds, lambda values: [pseudonym(v) for v in values])
    assert kmeans(pseudonymised, cfg).assignment == kmeans(ds, cfg).assignment

import math
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mailminer import (
    MISSING,
    ArityMismatch,
    AttributeSpec,
    ClusterModel,
    Dataset,
    EmptyDataset,
    KMeansConfig,
    MalformedInput,
    TooFewRows,
    attribute_ranges,
    distance,
    kmeans,
    select_k,
    silhouette_mean,
    silhouette_means,
    sse,
)
from mailminer import cluster
from mailminer.cluster import CHUNK, TILE, _generate, row_kernel
from mailminer.rng import Lcg

from helpers import naive_silhouette, oracle_distance, oracle_lloyd, oracle_sse, random_dataset


def _numeric_ds(values, name="x"):
    return Dataset([AttributeSpec(name, "numeric")], [[float(v)] for v in values])


def _pair_distance(ds):
    ranges = attribute_ranges(ds)
    return lambda i, j: oracle_distance(ds.rows[i], ds.rows[j], ranges)


def test_distance_zero_on_identical():
    ds = _numeric_ds([0, 1])
    ranges = attribute_ranges(ds)
    assert distance([0.0], [0.0], ranges) == 0.0


def test_distance_nominal_mismatch_is_one():
    assert distance(["a"], ["b"], [None]) == 1.0


def test_distance_hand_value():
    # dataset ranges [0,10] and [0,4]; row (0,0) vs centroid (10,2)
    schema = [AttributeSpec("x", "numeric"), AttributeSpec("y", "numeric")]
    ds = Dataset(schema, [[0.0, 0.0], [10.0, 4.0], [10.0, 2.0]])
    d = distance([0.0, 0.0], [10.0, 2.0], attribute_ranges(ds))
    assert d == pytest.approx(1.1180, abs=1e-4)


def test_distance_missing_side_is_one():
    assert distance([MISSING], [5.0], [10.0]) == 1.0
    assert distance([MISSING], [MISSING], [10.0]) == 1.0


def test_distance_arity_mismatch():
    with pytest.raises(ArityMismatch):
        distance([1.0, 2.0], [1.0], [1.0])
    with pytest.raises(ArityMismatch):
        distance([1.0], [1.0, 2.0], [1.0])


def test_sse_with_wrong_width_centroids_is_arity_mismatch():
    ds = _numeric_ds([0, 1, 10, 11])
    model = kmeans(ds, KMeansConfig(k=2, seed=1))
    for centers in ([[0.0, 1.0], [10.0]], [[0.0], []]):
        with pytest.raises(ArityMismatch):
            sse(ds, replace(model, centroids=centers))


def test_row_kernel_is_kept_per_ranges():
    assert row_kernel([2.0, None]) is row_kernel((2.0, None))
    assert row_kernel([2.0, None]) is not row_kernel([3.0, None])
    # equal int and float ranges get their own kernels: (2**53 + 1) / 3 is
    # exact as int division, while / 3.0 rounds the dividend to 2**53 first
    big = 2**53 + 1
    for rng in (3, 3.0):
        ranges = [rng, None]
        assert row_kernel(ranges)([0, "a"], [[big, "a"]]) == [
            oracle_distance([0, "a"], [big, "a"], ranges)
        ]
    assert row_kernel([3, None]) is not row_kernel([3.0, None])


def test_attribute_ranges_refuses_a_range_that_overflows_a_float():
    # -1e308 to 1e308 is wider than the largest float: every term of that
    # column would be 0.0 or NaN
    with pytest.raises(MalformedInput, match=r"^column 'x': range -1e\+308 to 1e\+308 overflows a float$"):
        attribute_ranges(_numeric_ds([-1e308, 0, 1e308]))
    assert attribute_ranges(_numeric_ds([-8e307, 0, 8e307])) == [1.6e308]
    ds = Dataset([AttributeSpec("x", "numeric")], [[0], [2**1100]])  # an int range needs no float
    assert attribute_ranges(ds) == [2**1100]


def test_centroid_arity_mismatch():
    ds = _numeric_ds([0, 1, 10, 11])
    for centers in ([[0.0, 1.0], [10.0, 1.0]], [[0.0], []]):
        with pytest.raises(ArityMismatch):
            kmeans(ds, KMeansConfig(k=2), initial_centroids=centers)


def test_row_longer_than_schema_is_arity_mismatch():
    schema = [AttributeSpec("x", "numeric"), AttributeSpec("s", "text")]
    rows = [[0.0, "a"], [1.0, "b"], [5.0, "a"], [6.0, "b"]]
    model = kmeans(Dataset(schema, rows), KMeansConfig(k=2, seed=1))
    for at in (0, 3):
        long_rows = [list(r) for r in rows]
        long_rows[at].append("extra")
        ds = Dataset(schema, long_rows)
        with pytest.raises(ArityMismatch):
            kmeans(ds, KMeansConfig(k=2, seed=1))
        with pytest.raises(ArityMismatch):
            select_k(ds, KMeansConfig(k_max=3, seed=1))
        with pytest.raises(ArityMismatch):
            silhouette_means(ds, [model])
        with pytest.raises(ArityMismatch):
            sse(ds, model)


def test_row_shorter_than_schema_is_arity_mismatch():
    # the cell a short row lacks is in the numeric column, which
    # attribute_ranges reads before any distance is computed
    schema = [AttributeSpec("s", "text"), AttributeSpec("x", "numeric")]
    rows = [["a", 0.0], ["b", 1.0], ["a", 5.0], ["b", 6.0]]
    model = kmeans(Dataset(schema, rows), KMeansConfig(k=2, seed=1))
    for short in (["a"], []):
        ds = Dataset(schema, rows[:2] + [short] + rows[3:])
        for call in (
            lambda: attribute_ranges(ds),
            lambda: kmeans(ds, KMeansConfig(k=2, seed=1)),
            lambda: select_k(ds, KMeansConfig(k_max=3, seed=1)),
            lambda: silhouette_means(ds, [model]),
            lambda: sse(ds, model),
        ):
            with pytest.raises(ArityMismatch):
                call()


_CELL_TEXT = st.sampled_from(["a", "b", "", "?"])
_CENTROID_TEXT = st.sampled_from(["a", "", "z", "zz"])
_DOMAIN = ("t", "f")
_CELL_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
# int cells give int ranges, whose kernels the cache keeps apart from float ones
_CELL_NUMBER = st.one_of(_CELL_FLOAT, st.integers(-(2**60), 2**60))


@st.composite
def _kernel_cases(draw):
    """(ranges, centroid, rows): any column order, missing cells on both
    sides, constant, all-missing and overflowing numeric columns, int and
    float cells, and centroid values drawn apart from the rows."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "date", "nominal", "text"]), min_size=1, max_size=5))
    n = draw(st.integers(0, 6))
    columns = []
    for kind in kinds:
        if kind == "text":
            cells = st.one_of(st.just(MISSING), _CELL_TEXT)
        elif kind == "nominal":
            cells = st.one_of(st.just(MISSING), st.sampled_from(_DOMAIN))
        else:
            shape = draw(st.sampled_from(["free", "int", "constant", "missing"]))
            value = draw(_CELL_NUMBER)
            cells = {
                "free": st.one_of(st.just(MISSING), _CELL_NUMBER),
                "int": st.one_of(st.just(MISSING), st.integers(-(2**60), 2**60)),
                "constant": st.one_of(st.just(MISSING), st.just(value)),
                "missing": st.just(MISSING),
            }[shape]
        columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    schema = [
        AttributeSpec(f"c{j}", kind, _DOMAIN if kind == "nominal" else ())
        for j, kind in enumerate(kinds)
    ]
    rows = [list(cells) for cells in zip(*columns)] if n else []
    centroid_cells = {"text": _CENTROID_TEXT, "nominal": st.sampled_from(_DOMAIN)}
    centroid = [draw(st.one_of(st.just(MISSING), centroid_cells.get(kind, _CELL_NUMBER))) for kind in kinds]
    # attribute_ranges refuses an overflowing range; the kernel takes it
    present = [[cell for cell in column if cell is not MISSING] for column in columns]
    ranges = [
        max(cells, default=0.0) - min(cells, default=0.0) if spec.is_number else None
        for spec, cells in zip(schema, present)
    ]
    return ranges, centroid, rows


@given(_kernel_cases())
@example(([None, 4.0], ["z", 9.5], [["a", 1.0], [MISSING, 5.0], ["z", MISSING]]))
@example(([0.0], [3.0], [[2.0], [MISSING]]))
@example(([2.0, None], [1.0, "a"], []))
def test_kernel_matches_oracle_distance(case):
    ranges, centroid, rows = case
    got = row_kernel(ranges)(centroid, rows)
    assert [d.hex() for d in got] == [oracle_distance(centroid, r, ranges).hex() for r in rows]
    assert [d.hex() for d in row_kernel(ranges)(centroid, [centroid])] == [
        oracle_distance(centroid, centroid, ranges).hex()
    ]


def _constants(code):
    for c in code.co_consts:
        yield from _constants(c) if hasattr(c, "co_consts") else [c]


def test_kernel_keeps_each_range_bound_by_name():
    # inf, nan and 0 take the kernel's odd paths (0/inf, nan quotients, a
    # zero range decided when the kernel is made); 3 and 3.0 divide
    # 2**53 + 1 differently. No range may be inlined as a constant.
    cells = [0, 1, 2**53 + 1, 2.5, -7.0, 1e308, -1e308, MISSING]
    rows = [[c, "a"] for c in cells]
    ranges = [math.inf, math.nan, 0, 3, 3.0]
    for rng in ranges:
        kernel = row_kernel([rng, None])
        for x in cells:
            assert [d.hex() for d in kernel([x, "b"], rows)] == [
                oracle_distance([x, "b"], row, [rng, None]).hex() for row in rows
            ]
    kernel = row_kernel(ranges)
    assert all(kernel.__globals__[f"R{j}"] is rng for j, rng in enumerate(ranges))
    inlined = {(type(c), repr(c)) for c in _constants(kernel.__code__)}
    assert not inlined & {(type(rng), repr(rng)) for rng in ranges}


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 100]))
def test_sse_recomputed_equals_fit(seed, max_iterations):
    # exact, for converged fits and for fits capped by max_iterations
    rnd = random.Random(seed)
    ds = random_dataset(rnd, max_rows=30)
    k = rnd.randint(1, len(ds.rows))
    model = kmeans(ds, KMeansConfig(k=k, max_iterations=max_iterations, seed=seed))
    assert sse(ds, model) == model.sse


@pytest.mark.parametrize("seed", range(12))
def test_sse_bits_equal_the_per_row_oracle(seed):
    # one kernel call per cluster, squares summed back in row order: the
    # same bits as one distance per row, for sse() and for a capped fit
    rnd = random.Random(seed)
    ds = random_dataset(rnd, max_rows=40, min_rows=8)
    ranges = attribute_ranges(ds)
    model = kmeans(ds, KMeansConfig(k=3, max_iterations=2, seed=seed))
    assert model.sse.hex() == sse(ds, model).hex() == oracle_sse(ds, model, ranges).hex()


def test_sse_bits_with_missing_cells_and_an_emptied_cluster():
    # the third centroid is nearest to no row, so its cluster is empty from
    # the first pass; the fit is capped after one
    ds = Dataset(
        [AttributeSpec("x", "numeric"), AttributeSpec("c", "nominal", ("a", "b"))],
        [[0.0, "a"], [MISSING, "b"], [0.3, MISSING], [9.0, "b"], [10.0, "a"], [MISSING, MISSING]],
    )
    ranges = attribute_ranges(ds)
    model = kmeans(ds, KMeansConfig(k=3, max_iterations=1), [[0.0, "a"], [10.0, "b"], [1e6, "a"]])
    assert model.iterations == 1 and model.sizes[2] == 0
    assert model.sse.hex() == sse(ds, model).hex() == oracle_sse(ds, model, ranges).hex()


_LLOYD_NUMBER = st.one_of(st.sampled_from([-2.0, 0.0, 0.5, 3.0]), st.floats(-1e3, 1e3))
# caller centroids: outside every column's range, far enough to give an inf
# distance (ties among several), NaN, and labels no row has
_OUTSIDE_NUMBER = st.one_of(st.floats(-1e7, 1e7), st.sampled_from([-1e300, 1e300, math.nan]))


@st.composite
def _lloyd_cases(draw):
    """(ds, k, initial centroids or None, max_iterations, seed): k from 1 to
    CHUNK + 2, missing cells, constant columns and duplicate rows (ties)."""
    k = draw(st.integers(1, CHUNK + 2))
    kinds = draw(st.lists(st.sampled_from(["numeric", "date", "nominal", "text"]), min_size=1, max_size=4))
    cells, outside = [], []
    for kind in kinds:
        if kind in ("numeric", "date"):
            cells.append(draw(st.sampled_from([_LLOYD_NUMBER, st.just(draw(_LLOYD_NUMBER))])))
            outside.append(_OUTSIDE_NUMBER)
        else:
            cells.append(st.sampled_from(_DOMAIN if kind == "nominal" else ("a", "b", "c")))
            outside.append(st.sampled_from(_DOMAIN + ("z",)))
    # a missing cell is as likely as a present one in a column that has them
    sparse = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    row = st.tuples(*[st.one_of(st.just(MISSING), c) if m else c for c, m in zip(cells, sparse)]).map(list)
    rows = draw(st.lists(row, min_size=k, max_size=k + 16))
    rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))]
    rows = draw(st.permutations(rows))
    schema = [
        AttributeSpec(f"c{j}", kind, _DOMAIN if kind == "nominal" else ())
        for j, kind in enumerate(kinds)
    ]
    centroid = st.tuples(*[st.one_of(st.just(MISSING), c) for c in outside]).map(list)
    centroids = draw(st.one_of(st.none(), st.lists(centroid, min_size=k, max_size=k)))
    return Dataset(schema, rows), k, centroids, draw(st.sampled_from([1, 2, 100])), draw(st.integers(0, 2**32 - 1))


@given(_lloyd_cases())
def test_kmeans_matches_plain_lloyd(case):
    # assignment, iterations and the bits of sse, capped and converged
    ds, k, centroids, max_iterations, seed = case
    model = kmeans(ds, KMeansConfig(k=k, max_iterations=max_iterations, seed=seed), centroids)
    start = centroids if centroids is not None else [ds.rows[i] for i in Lcg(seed).choose(len(ds.rows), k)]
    assignment, iterations, expected = oracle_lloyd(ds, start, max_iterations)
    assert (model.assignment, model.iterations, model.sse.hex()) == (assignment, iterations, expected.hex())


def test_a_large_k_runs_assignment_passes_of_at_most_chunk_centroids(monkeypatch):
    shapes = []

    def recording(shape, *ranges):
        shapes.append(shape)
        return _generate(shape, *ranges)

    monkeypatch.setattr(cluster, "_generate", recording)
    ds = random_dataset(random.Random(5), max_rows=260, min_rows=240)
    model = kmeans(ds, KMeansConfig(k=200, max_iterations=2, seed=1))
    # each of the two passes: a first chunk, then chunks that continue it
    nearest = [shape for shape in shapes if shape and shape[0] == "nearest"]
    assert nearest == [("nearest", min(CHUNK, 200 - start), start == 0) for start in range(0, 200, CHUNK)] * 2
    start = [ds.rows[i] for i in Lcg(1).choose(len(ds.rows), 200)]
    assignment, iterations, expected = oracle_lloyd(ds, start, 2)
    assert (model.assignment, model.iterations, model.sse.hex()) == (assignment, iterations, expected.hex())


@pytest.mark.parametrize("max_iterations", [8, 100])
def test_fit_holds_a_few_lists_of_n_floats_above_its_rows(max_iterations):
    # A pass holds its distances and the nearest so far; neither the last
    # pass's distances nor the member lists of an update live on into the
    # next pass, and members are the rows themselves, not new ints. The
    # fit once held about 4.7 such lists at its peak.
    rnd = random.Random(7)
    n = 3000
    ds = Dataset(
        [AttributeSpec("t", "numeric"), AttributeSpec("id", "text"), AttributeSpec("cc", "text"),
         AttributeSpec("from", "text"), AttributeSpec("s", "text"), AttributeSpec("h", "nominal", ("yes", "no"))],
        [
            [
                float(rnd.randrange(10**9, 2 * 10**9)) if rnd.random() > 0.05 else MISSING,
                f"id{i}",
                rnd.choice(["a;b", "c", MISSING, "d;e"]),
                f"u{rnd.randrange(60)}@x",
                f"s{rnd.randrange(300)}",
                rnd.choice(["yes", "no"]),
            ]
            for i in range(n)
        ],
    )
    cfg = KMeansConfig(k=8, max_iterations=max_iterations, seed=3)
    kmeans(ds, cfg)  # warm-up: the kernel is generated once per set of ranges
    tracemalloc.start()
    try:
        model = kmeans(ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.iterations >= 8
    n_floats = n * (8 + sys.getsizeof(1.0))  # a list slot and a float object per row
    assert peak <= 4 * n_floats, peak / n_floats


def test_hand_trace_two_clusters():
    ds = _numeric_ds([0, 1, 10, 11])
    model = kmeans(ds, KMeansConfig(k=2), initial_centroids=[[0.0], [10.0]])
    assert model.assignment == [0, 0, 1, 1]
    assert model.centroids == [[0.5], [10.5]]
    assert model.iterations == 2
    assert model.sizes == [2, 2]


def test_k_equals_n_gives_zero_sse():
    ds = _numeric_ds([3, 7, 9])
    model = kmeans(ds, KMeansConfig(k=3, seed=4))
    assert sorted(model.sizes) == [1, 1, 1]
    assert model.sse == 0.0


def test_sse_hand_value():
    # single cluster of {0, 2}: centroid 1, range [0,2] -> 0.5^2 + 0.5^2
    ds = _numeric_ds([0, 2])
    model = kmeans(ds, KMeansConfig(k=1, seed=0))
    assert model.centroids == [[1.0]]
    assert model.sse == pytest.approx(0.5)
    assert sse(ds, model) == pytest.approx(model.sse)


def test_empty_dataset_and_too_few_rows():
    with pytest.raises(EmptyDataset):
        kmeans(Dataset([AttributeSpec("x", "numeric")], []), KMeansConfig(k=1))
    with pytest.raises(TooFewRows):
        kmeans(_numeric_ds([1, 2]), KMeansConfig(k=3))
    with pytest.raises(TooFewRows):
        select_k(_numeric_ds([1]), KMeansConfig(k_max=2))
    with pytest.raises(TooFewRows):
        select_k(_numeric_ds([1, 2]), KMeansConfig(k_max=3))


def test_select_k_two_separated_groups():
    ds = _numeric_ds([0, 1, 100, 101])
    cfg = KMeansConfig(k_max=3, seed=1)
    chosen, model = select_k(ds, cfg)
    # oracle: exhaustive silhouette comparison over k in [2, 3]
    scores = {}
    for k in (2, 3):
        mk = kmeans(ds, KMeansConfig(k=k, seed=1))
        scores[k] = naive_silhouette(ds, mk.assignment, _pair_distance(ds))
    assert chosen == max(scores, key=scores.get) == 2
    assert sorted(model.sizes) == [2, 2]


def test_select_k_all_identical_rows():
    ds = _numeric_ds([5, 5, 5, 5])
    chosen, model = select_k(ds, KMeansConfig(k_max=2, seed=3))
    assert chosen == 2
    assert model.sse == 0.0
    assert silhouette_mean(ds, model) == 0.0


def test_silhouette_matches_naive():
    # exact equality: both sum each row's distances in ascending row order
    rnd = random.Random(21)
    skipped_id = _numeric_ds([0, 1, 10, 11])
    cases = [(skipped_id, replace(kmeans(skipped_id, KMeansConfig(k=3)), assignment=[0, 0, 2, 2]))]
    for _ in range(200):
        ds = random_dataset(rnd, max_rows=40, min_rows=2)
        k = rnd.randint(1, len(ds.rows))
        cases.append((ds, kmeans(ds, KMeansConfig(k=k, seed=rnd.randrange(2**32)))))
    for ds, model in cases:
        pd = _pair_distance(ds)
        assert silhouette_mean(ds, model) == naive_silhouette(ds, model.assignment, pd)


def test_silhouette_means_match_naive_per_model():
    # one shared pass over the pairs, exactly the per-model naive sums, for
    # 1 to 10 models on fewer rows than a tile, one tile, and tiles and a part
    rnd = random.Random(37)
    for n in (1, 2, TILE - 1, TILE, TILE + 1, 2 * TILE, 3 * TILE + 5, 30):
        for count in range(1, 11):
            ds = random_dataset(rnd, max_rows=n, min_rows=n)
            ks = rnd.choices(range(1, n + 1), k=count)
            seed = rnd.randrange(2**32)
            models = [kmeans(ds, KMeansConfig(k=k, seed=seed)) for k in ks]
            pd = _pair_distance(ds)
            assert silhouette_means(ds, models) == [
                naive_silhouette(ds, m.assignment, pd) for m in models
            ]
        assert silhouette_means(ds, []) == []


def test_an_assignment_that_does_not_fit_the_dataset_is_refused():
    # each used to give a wrong figure or an IndexError: a longer assignment
    # scored 0.7198 (IndexError in sse), a shorter one raised IndexError in
    # the silhouette and gave sse 0.0062, and a label -1 or 5 left its row
    # out of sse (0.0062) and scored 0.5486 or 0.4472
    ds = _numeric_ds([0, 1, 10, 11])
    model = kmeans(ds, KMeansConfig(k=2, seed=1))
    assert model.assignment == [1, 1, 0, 0]
    assert sse(ds, model) == pytest.approx(0.00826, abs=1e-5)
    assert silhouette_mean(ds, model) == pytest.approx(0.8997, abs=1e-4)
    for assignment in ([1, 1, 0, 0, 0], [1, 1, 0], [1, 1], [-1, 1, 0, 0], [5, 1, 0, 0], [1, 1, 0, 5]):
        bad = replace(model, assignment=assignment)
        for call in (
            lambda: sse(ds, bad),
            lambda: silhouette_mean(ds, bad),
            lambda: silhouette_means(ds, [model, bad]),
        ):
            with pytest.raises(ValueError, match="assignment does not fit 4 rows and 2 clusters"):
                call()


def _brute_force_select_k(ds, cfg):
    best = None
    for k in range(2, cfg.k_max + 1):
        model = kmeans(ds, KMeansConfig(k=k, max_iterations=cfg.max_iterations, seed=cfg.seed))
        score = naive_silhouette(ds, model.assignment, _pair_distance(ds))
        if best is None or score > best[0]:
            best = (score, k, model)
    return best[1], best[2]


def test_select_k_matches_brute_force():
    rnd = random.Random(43)
    for _ in range(60):
        ds = random_dataset(rnd, max_rows=25, min_rows=2)
        cfg = KMeansConfig(
            k_max=rnd.randint(2, min(5, len(ds.rows))),
            max_iterations=rnd.choice([1, 3, 100]),
            seed=rnd.randrange(2**32),
        )
        assert select_k(ds, cfg) == _brute_force_select_k(ds, cfg)


def test_select_k_tie_goes_to_smallest_k():
    # two tight groups: k = 2, 3 and 4 all split them the same way and score 1.0
    ds = Dataset(
        [AttributeSpec("x", "numeric"), AttributeSpec("s", "text")],
        [[1.0, "a"] for _ in range(3)] + [[5.0, "b"] for _ in range(3)],
    )
    cfg = KMeansConfig(k_max=4, seed=0)
    models = [kmeans(ds, KMeansConfig(k=k, seed=cfg.seed)) for k in (2, 3, 4)]
    assert silhouette_means(ds, models) == [1.0, 1.0, 1.0]
    assert select_k(ds, cfg) == (2, models[0]) == _brute_force_select_k(ds, cfg)


@st.composite
def _select_k_cases(draw):
    """(ds, k_max, seed): k_max from 2 to 10, missing cells, duplicate rows,
    and, in about half the cases, number cells rounded to a few values, so
    that models tie."""
    k_max = draw(st.integers(2, 10))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    ds = random_dataset(rnd, max_rows=k_max + 24, min_rows=k_max)
    rows = ds.rows + [list(ds.rows[i]) for i in draw(st.lists(st.integers(0, len(ds.rows) - 1), max_size=12))]
    if draw(st.booleans()):
        rows = [[round(c / 500.0) if isinstance(c, float) else c for c in row] for row in rows]
    return Dataset(list(ds.schema), draw(st.permutations(rows))), k_max, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None)
@given(_select_k_cases())
def test_select_k_picks_what_max_over_silhouette_means_picks(case):
    ds, k_max, seed = case
    models = [kmeans(ds, KMeansConfig(k=k, seed=seed)) for k in range(2, k_max + 1)]
    scores = silhouette_means(ds, models)
    best = max(range(len(models)), key=scores.__getitem__)  # ties to the smallest k
    assert select_k(ds, KMeansConfig(k_max=k_max, seed=seed)) == (best + 2, models[best])


def _spy_on_silhouette_means(monkeypatch):
    """The model counts of each call select_k makes to silhouette_means."""
    calls = []

    def spy(ds, models):
        calls.append(len(models))
        return silhouette_means(ds, models)

    monkeypatch.setattr(cluster, "silhouette_means", spy)
    return calls


def test_select_k_falls_back_to_silhouette_means_on_a_tie(monkeypatch):
    # k = 2 and k = 3 give the same assignment, so the same score: no
    # margin certifies either, and silhouette_means decides
    ds = _numeric_ds([0, 0, 0, 10, 10, 10])
    cfg = KMeansConfig(k_max=3, seed=4)
    models = [kmeans(ds, KMeansConfig(k=k, seed=4)) for k in (2, 3)]
    assert models[0].assignment == models[1].assignment
    calls = _spy_on_silhouette_means(monkeypatch)
    assert select_k(ds, cfg) == (2, models[0])
    assert calls == [2]


def test_select_k_chooses_two_separated_groups_without_silhouette_means(monkeypatch):
    ds = _numeric_ds([0, 1, 2, 100, 101, 102, 103])
    cfg = KMeansConfig(k_max=4, seed=1)
    expected = _brute_force_select_k(ds, cfg)
    calls = _spy_on_silhouette_means(monkeypatch)
    assert select_k(ds, cfg) == expected
    assert expected[0] == 2 and sorted(expected[1].sizes) == [3, 4]
    # a single candidate is not scored at all
    assert select_k(ds, KMeansConfig(k_max=2, seed=1)) == expected
    assert calls == []


def _modular_models(n, ks):
    """Models of k in ks that put row i in cluster i % k: lcm(ks) joint cells."""
    models = []
    for k in ks:
        assignment = [i % k for i in range(n)]
        models.append(ClusterModel([[0.0]] * k, assignment, 1, 0.0, [assignment.count(c) for c in range(k)], k))
    return models


def test_joint_cells_are_capped_at_four_times_the_sum_of_k(monkeypatch):
    # k = 2..5 give lcm 60 joint cells on 60 rows or more, against
    # 4 * 14 = 56: select_k scores those with silhouette_means
    rnd = random.Random(61)
    for n, joint in ((56, True), (60, False)):
        ds = _numeric_ds([rnd.uniform(0, 1) for _ in range(n)])
        models = _modular_models(n, range(2, 6))
        scores = cluster._joint_scores(ds, models)
        assert (scores is not None) == joint
        monkeypatch.setattr(cluster, "kmeans", lambda ds, cfg: models[cfg.k - 2])
        calls = _spy_on_silhouette_means(monkeypatch)
        exact = silhouette_means(ds, models)
        best = max(range(4), key=exact.__getitem__)
        assert select_k(ds, KMeansConfig(k_max=5)) == (best + 2, models[best])
        assert calls == ([] if joint else [4])


def test_score_bound_is_about_three_n_u():
    u = 2.0**-53
    for n in (2, 800, 5000, 10**6):
        assert 3 * n * u < cluster._score_bound(n) < (3 * n + 8) * u


@pytest.mark.parametrize("seed", range(8))
def test_joint_scores_lie_within_twice_the_bound_of_silhouette_means(seed):
    rnd = random.Random(seed)
    ds = random_dataset(rnd, max_rows=300, min_rows=60)
    ks = [rnd.randint(1, 12) for _ in range(rnd.randint(1, 9))]
    models = [kmeans(ds, KMeansConfig(k=k, seed=seed)) for k in ks]
    joint = cluster._joint_scores(ds, models)
    bound = 2 * cluster._score_bound(len(ds.rows))
    for j, e in zip(joint, silhouette_means(ds, models)):
        assert abs(j - e) <= bound


def test_determinism_same_seed_same_model():
    rnd = random.Random(13)
    for _ in range(20):
        ds = random_dataset(rnd, max_rows=20)
        k = rnd.randint(1, len(ds.rows))
        cfg = KMeansConfig(k=k, seed=rnd.randrange(2**63))
        a = kmeans(ds, cfg)
        b = kmeans(ds, cfg)
        assert a.assignment == b.assignment
        assert a.sizes == b.sizes
        assert a.centroids == b.centroids
        assert a.sse == b.sse


def test_partition_invariant_under_row_permutation():
    # numeric-only data: modal tie-breaking for nominal/text centroids is
    # first-occurrence by design, which legitimately depends on row order
    rnd = random.Random(17)
    for _ in range(20):
        ds = random_dataset(rnd, max_rows=12, min_rows=3, kinds=("numeric", "date"))
        k = rnd.randint(1, 3)
        centers = [list(ds.rows[i]) for i in rnd.sample(range(len(ds.rows)), k)]
        perm = list(range(len(ds.rows)))
        rnd.shuffle(perm)
        shuffled = Dataset(list(ds.schema), [list(ds.rows[i]) for i in perm], ds.relation_name)

        def partition(model, rows):
            groups = {}
            for row, ci in zip(rows, model.assignment):
                groups.setdefault(ci, []).append(tuple(repr(c) for c in row))
            return frozenset(frozenset(g) for g in groups.values() if g)

        m1 = kmeans(ds, KMeansConfig(k=k), initial_centroids=centers)
        m2 = kmeans(shuffled, KMeansConfig(k=k), initial_centroids=centers)
        assert partition(m1, ds.rows) == partition(m2, shuffled.rows)


def test_select_k_scale_invariance():
    # min-max normalization removes per-attribute scale
    rnd = random.Random(29)
    for _ in range(10):
        ds = random_dataset(rnd, max_rows=10, min_rows=4)
        numeric_cols = [j for j, s in enumerate(ds.schema) if s.kind in ("numeric", "date")]
        if not numeric_cols:
            continue
        j = rnd.choice(numeric_cols)
        factor = rnd.choice([3.0, 0.25, 1000.0])
        scaled_rows = [
            [c * factor if idx == j and c is not MISSING else c for idx, c in enumerate(row)]
            for row in ds.rows
        ]
        scaled = Dataset(list(ds.schema), scaled_rows, ds.relation_name)
        cfg = KMeansConfig(k_max=min(4, len(ds.rows)), seed=8)
        k1, m1 = select_k(ds, cfg)
        k2, m2 = select_k(scaled, cfg)
        assert k1 == k2
        assert m1.assignment == m2.assignment


def test_termination_and_converged_fixed_point():
    rnd = random.Random(31)
    for _ in range(30):
        ds = random_dataset(rnd, max_rows=16)
        k = rnd.randint(1, len(ds.rows))
        model = kmeans(ds, KMeansConfig(k=k, seed=rnd.randrange(2**32)))
        assert model.iterations <= 100
        # one more assignment pass against the converged centroids changes nothing
        recheck = kmeans(
            ds,
            KMeansConfig(k=k, max_iterations=1),
            initial_centroids=model.centroids,
        )
        assert recheck.assignment == model.assignment

"""Mixed-type k-means with a fixed-k mode and silhouette-based auto-k.

`attribute_ranges` is the one place here that reads the column kinds:
each number column (`AttributeSpec.is_number`) gets its range, each
other column None.
Distance is the Euclidean combination of per-attribute differences:
|x - c| / range for numeric/date cells (0 for a constant column), 0 on
match and 1 on mismatch for the rest, and 1 if either side is missing.
Centroids carry the mean of a ranged column and the mode of the rest.

Every distance comes from `row_kernel(ranges)`, one row against many,
generated and kept per set of ranges as a list comprehension with the
columns unrolled. Its bits equal the generic per-pair loop's: each pair sums 0.0
and one float term per column, left to right, before the sqrt. A missing
cell adds 1.0, a label column 1.0 or 0.0, a zero range 0.0 (decided when
the kernel is made), and any other range the quotient (x - c) / range
computed once and squared, which is |x - c| / range squared to the bit.
Assignment calls it once per centroid. The silhouette keeps each row's
sums to every cluster of every model and takes the rows TILE at a time:
a pass generated from the same term template computes each tile row's
distance to each later row once and adds it to both rows' sums, in
ascending row order: O(n^2) distances, O(n*sum(k)) memory.
"""

import math
import operator
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce

from .core import MISSING, ArityMismatch, EmptyDataset, TooFewRows
from .rng import Lcg


class KMeansConfig(namedtuple("KMeansConfig", "k k_max max_iterations seed", defaults=(2, 2, 100, 0))):
    __slots__ = ()


@dataclass
class ClusterModel:
    centroids: list
    assignment: list
    iterations: int
    sse: float
    sizes: list
    chosen_k: int


def attribute_ranges(ds):
    """Per column: max - min over the non-missing cells of a number column
    (0.0 when there are none), or None for a nominal/text column."""
    _check_arity(len(ds.schema), ds.rows)
    ranges = []
    for j, spec in enumerate(ds.schema):
        if spec.is_number:
            values = [row[j] for row in ds.rows if row[j] is not MISSING]
            ranges.append(max(values) - min(values) if values else 0.0)
        else:
            ranges.append(None)
    return ranges


def _check_arity(width, rows):
    for row in rows:
        if len(row) != width:
            raise ArityMismatch(f"row/centroid arity {len(row)} vs schema {width}")


def _left_sum(values):
    """Float sum strictly left to right; builtin sum() compensates on 3.12+."""
    return reduce(operator.add, values, 0.0)


def row_kernel(ranges):
    """kernel(row, rows) -> [distance(row, other, ranges) for other in rows],
    generated from column indices and fixed templates only: the ranges are
    bound by name (R0, R1, ...), and no cell or range value ever reaches
    the source. Each term is a float, so every addition is float + float;
    whether the left row's cell is missing is tested once per call. One
    kernel is kept per set of ranges; callers check arity."""
    return _generate(None, *ranges)


# typed: an int range and an equal float range divide differently
@lru_cache(maxsize=64, typed=True)
def _generate(shape, *ranges):
    """The row kernel (shape None), or the silhouette's tile pass for shape
    (models, tile rows): tile_pass(tile, rest), where tile and rest are
    lists of (row, sums, columns) and columns holds the row's sum column in
    each model. For each rest row in order, each tile row's distance to it
    is added to the rest row's sums at the tile row's columns and to the
    tile row's sums at the rest row's columns, tile rows in order."""
    b = ", ".join(f"b{j}" for j in range(len(ranges)))
    namespace = {f"R{j}": rng for j, rng in enumerate(ranges)}
    namespace.update(M=MISSING, sqrt=math.sqrt)

    def left(t):  # the left row's cells and missing tests, names suffixed by t
        cells = ", ".join(f"a{j}{t}" for j in range(len(ranges)))
        return f"[{cells}]", "".join(f"    m{j}{t} = a{j}{t} is M\n" for j in range(len(ranges)))

    def dist(t):
        return "sqrt(0.0" + "".join(" + " + _term(j, rng, t) for j, rng in enumerate(ranges)) + ")"

    if shape is None:
        cells, hoisted = left("")
        exec(f"""def kernel(row, rows):
    {cells} = row
{hoisted}    return [{dist("")} for [{b}] in rows]
""", namespace)
        return namespace["kernel"]
    models, tile = shape
    entries, hoisted, body = [], "", ""
    for t in map("_{}".format, range(tile)):
        cells, missing = left(t)
        columns = ", ".join(f"c{t}_{m}" for m in range(models))
        entries.append(f"[{cells}, s{t}, [{columns}]]")
        hoisted += missing
        body += f"        d = {dist(t)}\n"
        body += "".join(f"        s{t}[l{m}] += d\n        s[c{t}_{m}] += d\n" for m in range(models))
    exec(f"""def tile_pass(tile, rest):
    [{", ".join(entries)}] = tile
{hoisted}    for [{b}], s, [{", ".join(f"l{m}" for m in range(models))}] in rest:
{body}""", namespace)
    return namespace["tile_pass"]


def _term(j, rng, t=""):
    """Column j's float term of the distance between the left row t (cells
    a{j}{t}, m{j}{t} its missing test, made once per call) and the right row
    (cells b{j}): 1.0 for a missing cell or a label mismatch."""
    a, m = f"a{j}{t}", f"m{j}{t}"
    if rng is None:
        return f"(1.0 if {m} or {a} != b{j} else 0.0)"
    if not rng:  # a zero range: present cells are 0.0 apart
        return f"(1.0 if {m} or b{j} is M else 0.0)"
    return f"(1.0 if {m} or b{j} is M else (q{j} := ({a} - b{j}) / R{j}) * q{j})"


def distance(row, other, ranges):
    _check_arity(len(ranges), [row, other])
    return row_kernel(ranges)(row, [other])[0]


def _centroid(members, ranges):
    """Cluster representative; members are its rows in dataset order."""
    cells = []
    for rng, column in zip(ranges, zip(*members)):
        present = [v for v in column if v is not MISSING]
        if not present:
            cells.append(MISSING)
        elif rng is not None:
            cells.append(_left_sum(present) / len(present))
        else:
            # Counter keeps first-seen order and max() keeps the first of
            # equal counts, so ties go to the value seen first
            counts = Counter(present)
            cells.append(max(counts, key=counts.get))
    return cells


def _nearest(kernel, centroids, rows):
    """Each row's closest centroid and distance to it, ties to the lowest index."""
    labels, best = [0] * len(rows), kernel(centroids[0], rows)
    for ci in range(1, len(centroids)):
        for i, d in enumerate(kernel(centroids[ci], rows)):
            if d < best[i]:
                labels[i], best[i] = ci, d
    return labels, best


def _sse(kernel, rows, centroids, assignment):
    """One kernel call per cluster on its members, squares summed in row order."""
    squares = [0.0] * len(rows)
    for ci, centroid in enumerate(centroids):
        members = [i for i, cj in enumerate(assignment) if cj == ci]
        for i, d in zip(members, kernel(centroid, [rows[i] for i in members])):
            squares[i] = d ** 2
    return _left_sum(squares)


def kmeans(ds, cfg, initial_centroids=None):
    """Lloyd iteration with seeded initialization.

    Initial centers are k distinct rows drawn by the seeded generator
    (or the explicitly supplied centroids). The loop alternates
    assignment (nearest centroid, ties to the lowest index) and centroid
    update, and stops on a pass that changes no assignment; that
    confirming pass is counted in `iterations`. A cluster emptied along
    the way keeps its previous centroid.
    """
    rows = ds.rows
    n = len(rows)
    if n == 0:
        raise EmptyDataset("cannot cluster an empty dataset")
    k = cfg.k
    if k < 1:
        raise ValueError("k must be >= 1")
    if cfg.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if k > n:
        raise TooFewRows(f"k={k} but only {n} rows")
    ranges = attribute_ranges(ds)
    kernel = row_kernel(ranges)

    if initial_centroids is not None:
        if len(initial_centroids) != k:
            raise ValueError("need exactly k initial centroids")
        _check_arity(len(ranges), initial_centroids)
        centroids = [list(c) for c in initial_centroids]
    else:
        centroids = [list(rows[i]) for i in Lcg(cfg.seed).choose(n, k)]

    assignment = None
    iterations = 0
    while iterations < cfg.max_iterations:
        iterations += 1
        new_assignment, dists = _nearest(kernel, centroids, rows)
        if new_assignment == assignment:
            # the centroids have not moved since this pass
            total_sse = _left_sum([d ** 2 for d in dists])
            break
        # neither list of n is held into the next pass or a capped fit's SSE
        del dists
        assignment = new_assignment
        members = [[] for _ in range(k)]
        for row, ci in zip(rows, assignment):
            members[ci].append(row)
        for ci, cluster in enumerate(members):
            if cluster:
                centroids[ci] = _centroid(cluster, ranges)
        del members
    else:
        # capped: the last update moved the centroids
        total_sse = _sse(kernel, rows, centroids, assignment)

    sizes = [assignment.count(ci) for ci in range(k)]
    return ClusterModel(centroids, assignment, iterations, total_sse, sizes, k)


def _check_assignment(n, model):
    """A model scored on a dataset gives each of its n rows one of its k clusters."""
    k = len(model.centroids)
    if len(model.assignment) != n or not set(model.assignment) <= set(range(k)):
        raise ValueError(f"assignment does not fit {n} rows and {k} clusters")


def sse(ds, model):
    """Within-cluster sum of squared distances, recomputed from scratch."""
    ranges = attribute_ranges(ds)
    _check_arity(len(ranges), model.centroids)
    _check_assignment(len(ds.rows), model)
    return _sse(row_kernel(ranges), ds.rows, model.centroids, model.assignment)


def silhouette_mean(ds, model):
    """Mean silhouette coefficient of a fitted model."""
    return silhouette_means(ds, [model])[0]


# rows per silhouette tile; BENCH_23.json has the sizes measured
TILE = 4


def silhouette_means(ds, models):
    """Mean silhouette coefficient of each model fitted to the rows of ds.

    Rows in singleton clusters score 0, as does any row whose cohesion
    and separation are both 0. The rows are taken TILE at a time: the
    pairs inside the tile, then one generated pass over the rows after
    it, each computed once and added to both rows' sums for every model:
    O(n^2) distances, O(n * sum(k)) memory. Every sum takes its terms in
    ascending row order, whatever the tile or the number of models.
    """
    rows = ds.rows
    n = len(rows)
    ranges = attribute_ranges(ds)
    if not models:
        return []
    # model m's cluster c is sum column spans[m][0] + c; each row is packed
    # with its running sums to every column and its own column per model
    spans, labels, width = [], [], 0
    for model in models:
        _check_assignment(n, model)
        labels.append([width + ci for ci in model.assignment])
        start, width = width, width + len(model.centroids)
        spans.append((start, width))
    packed = list(zip(rows, [[0.0] * width for _ in rows], zip(*labels)))
    one, whole = (_generate((len(models), tile), *ranges) for tile in (1, TILE))
    for start in range(0, n, TILE):
        end = min(start + TILE, n)
        for i in range(start, end):
            one(packed[i : i + 1], packed[i + 1 : end])
        if end < n:  # only the last tile can be short
            whole(packed[start:end], packed[end:])
    return [
        _mean_silhouette(model.assignment, [sums[start:end] for _, sums, _ in packed])
        for model, (start, end) in zip(models, spans)
    ]


def _mean_silhouette(labels, sums):
    """Mean silhouette from each row's distance sums to every cluster."""
    sizes = [0] * (max(labels, default=-1) + 1)
    for ci in labels:
        sizes[ci] += 1
    total = 0.0
    for row_sums, ci in zip(sums, labels):
        if sizes[ci] <= 1:
            continue
        a = row_sums[ci] / (sizes[ci] - 1)
        means = [s / m for cj, (s, m) in enumerate(zip(row_sums, sizes)) if m and cj != ci]
        if not means:
            continue
        b = min(means)
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / len(labels) if labels else 0.0


def select_k(ds, cfg):
    """Auto-k mode: fit every k in [2, k_max] with the same seed and keep
    the model with the highest mean silhouette, ties to the smallest k."""
    n = len(ds.rows)
    if n < 2:
        raise TooFewRows("auto-k needs at least 2 rows")
    if cfg.k_max < 2 or cfg.k_max > n:
        raise TooFewRows(f"k_max={cfg.k_max} out of range [2, {n}]")
    models = [
        kmeans(ds, KMeansConfig(k=k, max_iterations=cfg.max_iterations, seed=cfg.seed))
        for k in range(2, cfg.k_max + 1)
    ]
    scores = silhouette_means(ds, models)
    # max() keeps the first of equal scores: ties go to the smallest k
    best = max(range(len(models)), key=scores.__getitem__)
    return models[best].chosen_k, models[best]

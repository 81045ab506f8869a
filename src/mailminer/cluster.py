"""Mixed-type k-means with a fixed-k mode and silhouette-based auto-k.

`attribute_ranges` is the one place here that reads the column kinds:
each number column (`AttributeSpec.is_number`) gets its range, each
other column None.
Distance is the Euclidean combination of per-attribute differences:
|x - c| / range for numeric/date cells (0 for a constant column), 0 on
match and 1 on mismatch for the rest, and 1 if either side is missing.
Centroids carry the mean of a ranged column and the mode of the rest.

Every distance is generated code, made and kept per set of ranges from
one term template with the columns unrolled: `row_kernel(ranges)`, one
row against many, the assignment pass and the silhouette's tile pass.
Their bits equal the generic per-pair loop's, which sums 0.0 and one float
term per column, left to right, before the sqrt; the generated sum
starts at the first term, never -0.0, so 0.0 + term is that term. A
missing cell adds 1.0, a label column 1.0 or 0.0, a zero range 0.0
(decided when the code is made), and any other range the quotient
(x - c) / range computed once and squared, which is |x - c| / range
squared to the bit. The assignment pass takes up to CHUNK centroids: it
unpacks each row once and keeps its nearest centroid and distance over
them, and a larger k runs several passes, each continuing the last. The
silhouette keeps each row's sums to every cluster of every model; one
pass per TILE rows computes the tile's own pairs, then each tile row's
distance to each later row, once, adding it to both rows' sums in
ascending row order: O(n^2) distances, O(n*sum(k)) memory.

`select_k` chooses by a second, private path. Each row's joint cell is
the tuple of its labels in all the candidate models; while there are at
most 4 * sum(k) such cells, the tile pass runs once with the cells as
clusters, so a pair costs two additions however many models there are,
and each row is scored as soon as its sums are final. Those sums are
added in another order, so their scores are not output: they only
choose, and only when the best beats every other by more than 4B, B
being an a-priori bound on any order's rounding error (`_score_bound`).
Any other case, ties and non-finite scores included, is scored by
`silhouette_means` and chosen by `max`, so the choice is the same.
"""

import math
import operator
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

from .core import MISSING, ArityMismatch, EmptyDataset, TooFewRows, number_range
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
    (0.0 when there are none), or None for a nominal/text column. A range
    that overflows a float (`number_range`) is MalformedInput."""
    _check_arity(len(ds.schema), ds.rows)
    ranges = []
    for j, spec in enumerate(ds.schema):
        if spec.is_number:
            lo, hi = number_range(spec.name, [row[j] for row in ds.rows])
            ranges.append(hi - lo)
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


# centroids per assignment pass, BENCH_25.json has the sizes measured;
# rows per silhouette tile, BENCH_23.json has the sizes measured
CHUNK = 8
TILE = 4


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
    """The row kernel (shape None), the assignment pass (("nearest", count,
    first)) or the silhouette's tile pass (("tile", models, tile rows)).

    nearest(centroids, base, rows, labels, best) -> the new (labels, best):
    each row, unpacked once, against count centroids labelled base,
    base + 1, ... in turn, keeping a strict minimum, so ties go to the
    lowest label. A first pass starts at its first centroid's distance (a
    NaN one stays); a later pass continues the labels and best given.

    tile_pass(tile, rest) takes lists of (row, sums, columns), where
    columns holds the row's sum column in each model. Each pair of tile
    rows (t ascending, then u > t ascending), then each rest row in order
    with each tile row in order: their distance is added to each row's
    sums at the other row's columns."""
    namespace = {f"R{j}": rng for j, rng in enumerate(ranges)}
    namespace.update(M=MISSING, sqrt=math.sqrt)

    def names(r, count):  # [r0, r1, ...]
        return "[" + ", ".join(f"{r}{j}" for j in range(count)) + "]"

    def missing(r):  # row r's missing tests, made once per call
        return "".join(f"    m{r}{j} = {r}{j} is M\n" for j in range(len(ranges)))

    def dist(r, o):
        return "sqrt(" + (" + ".join(_term(j, rng, r, o) for j, rng in enumerate(ranges)) or "0.0") + ")"

    if shape is None:
        exec(f"""def kernel(row, rows):
    {names("a", len(ranges))} = row
{missing("a")}    return [{dist("a", "b")} for {names("b", len(ranges))} in rows]
""", namespace)
        return namespace["kernel"]
    if shape[0] == "nearest":
        _, count, first = shape

        def step(c):  # centroid c against row b; a first pass starts at centroid 0
            if first and not c:
                return f"        l, d = L0, {dist('c0_', 'b')}\n"
            return f"        e = {dist(f'c{c}_', 'b')}\n        if e < d:\n            l, d = L{c}, e\n"

        exec(f"""def nearest(centroids, base, rows, labels, best):
    [{", ".join(names(f"c{c}_", len(ranges)) for c in range(count))}] = centroids
{"".join(missing(f"c{c}_") for c in range(count))}    {names("L", count)} = range(base, base + {count})
    new_labels, new_best = [], []
    label, keep = new_labels.append, new_best.append
    for {names("b", len(ranges))}{" in rows" if first else ", l, d in zip(rows, labels, best)"}:
{"".join(map(step, range(count)))}        label(l)
        keep(d)
    return new_labels, new_best
""", namespace)
        return namespace["nearest"]
    _, models, tile = shape
    rows = [f"t{t}_" for t in range(tile)]

    def entry(r):  # row r as packed: cells r{j}, sums s{r}, columns c{r}{m}
        return f"[{names(r, len(ranges))}, s{r}, {names('c' + r, models)}]"

    def pair(r, o, indent):  # r's distance to o, added to both rows' sums
        adds = "".join(f"{indent}s{r}[c{o}{m}] += d\n{indent}s{o}[c{r}{m}] += d\n" for m in range(models))
        return f"{indent}d = {dist(r, o)}\n{adds}"

    exec(f"""def tile_pass(tile, rest):
    [{", ".join(map(entry, rows))}] = tile
{"".join(map(missing, rows))}
{"".join(pair(r, o, "    ") for r, o in combinations(rows, 2))}
    for {entry("b")} in rest:
{"".join(pair(r, "b", "        ") for r in rows)}""", namespace)
    return namespace["tile_pass"]


def _term(j, rng, r, o):
    """Column j's float term of the distance between row r (cells r{j},
    m{r}{j} its missing test, made once per call) and row o (cells o{j}):
    1.0 for a missing cell or a label mismatch."""
    a, b, m = f"{r}{j}", f"{o}{j}", f"m{r}{j}"
    if rng is None:
        return f"(1.0 if {m} or {a} != {b} else 0.0)"
    if not rng:  # a zero range: present cells are 0.0 apart
        return f"(1.0 if {m} or {b} is M else 0.0)"
    return f"(1.0 if {m} or {b} is M else (q{j} := ({a} - {b}) / R{j}) * q{j})"


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
        new_assignment = dists = None
        for start in range(0, k, CHUNK):
            chunk = centroids[start : start + CHUNK]
            nearest = _generate(("nearest", len(chunk), start == 0), *ranges)
            new_assignment, dists = nearest(chunk, start, rows, new_assignment, dists)
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
        total_sse = _sse(row_kernel(ranges), rows, centroids, assignment)

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


def silhouette_means(ds, models):
    """Mean silhouette coefficient of each model fitted to the rows of ds.

    Rows in singleton clusters score 0, as does any row whose cohesion
    and separation are both 0. One generated pass per TILE rows takes
    the pairs inside the tile, then the rows after it, each distance
    computed once and added to both rows' sums for every model: O(n^2)
    distances, O(n * sum(k)) memory. Every sum takes its terms in
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
    for start in range(0, n, TILE):
        tile = packed[start : start + TILE]
        _generate(("tile", len(models), len(tile)), *ranges)(tile, packed[start + TILE :])
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
        score = _row_score(row_sums, ci, sizes)
        if score is not None:
            total += score
    return total / len(labels) if labels else 0.0


def _row_score(sums, ci, sizes):
    """s(i) of a row in cluster ci, from its distance sums to every cluster
    and the clusters' sizes; None for a row that scores 0: one alone in
    its cluster, one with no other cluster, or one whose a and b are both
    0 (or whose max(a, b) is NaN)."""
    if sizes[ci] <= 1:
        return None
    a = sums[ci] / (sizes[ci] - 1)
    means = [s / m for cj, (s, m) in enumerate(zip(sums, sizes)) if m and cj != ci]
    if not means:
        return None
    b = min(means)
    denom = max(a, b)
    return (b - a) / denom if denom > 0 else None


def _joint_scores(ds, models):
    """Each model's mean silhouette from distance sums kept per joint cell,
    or None when there are more than 4 * sum(k) cells.

    A row's joint cell is the tuple of its labels in all the models,
    numbered in first-seen order. The tile pass runs once, as for one
    model whose clusters are the J cells, so each pair costs one distance
    and two additions. A tile's rows have their final sums once its pass
    is done: each is scored then, a model's cluster sum being the sum of
    its cells' sums, and its list of J sums let go. The sums are added in
    another order than `silhouette_means` adds them, so a score may differ
    from that one's in its last bits, by at most 2 * _score_bound(n); the
    distances themselves are the same bits. The cap keeps memory at
    O(n * sum(k)), as J can reach n."""
    rows = ds.rows
    cells = {}
    joint = [cells.setdefault(key, len(cells)) for key in zip(*(model.assignment for model in models))]
    if len(cells) > 4 * sum(len(model.centroids) for model in models):
        return None
    ranges = attribute_ranges(ds)
    # per model: the cluster of each joint cell, and the clusters' sizes
    per_model = [(labels, model.sizes) for labels, model in zip(zip(*cells), models)]
    totals = [0.0] * len(models)
    packed = list(zip(rows, [[0.0] * len(cells) for _ in rows], zip(joint)))
    for start in range(0, len(rows), TILE):
        tile = packed[start : start + TILE]
        packed[start : start + TILE] = [None] * len(tile)  # freed once scored
        _generate(("tile", 1, len(tile)), *ranges)(tile, packed[start + TILE :])
        for _, cell_sums, (cell,) in tile:
            for m, (labels, sizes) in enumerate(per_model):
                sums = [0.0] * len(sizes)
                for ci, s in zip(labels, cell_sums):
                    sums[ci] += s
                score = _row_score(sums, labels[cell], sizes)
                if score is not None:
                    totals[m] += score
    return [total / len(rows) for total in totals]


def _score_bound(n):
    """B, an a-priori bound on how far a mean silhouette of n rows, its sums
    added in any order, lies from the same score computed in exact
    arithmetic from the same float distances (Higham 2002, *Accuracy and
    Stability of Numerical Algorithms*, sections 3.1 and 4.2). With
    u = 2**-53 and gamma(k) = k*u / (1 - k*u):

    - A row's sum to a cluster adds at most n - 1 nonnegative distances,
      so in any order, or tree, of additions it is within gamma(n - 2) of
      its exact value, relative; a zero sum stays exactly zero. Dividing
      by the cluster's size rounds once more, so a and each cluster's
      mean, and so b, their minimum, are within e = gamma(n + 1), relative.
    - No sum of nonnegative terms rounds to zero, so which rows score
      (not alone in their cluster, a or b above 0) does not depend on
      the order, and where a or b is 0, s is exactly 1 or -1 in every
      order. Otherwise s = (b - a) / max(a, b) is f(ln b - ln a) with
      |f'| <= 1, so the errors in a and b move s by at most 2e / (1 - e).
      The subtraction and the division round twice, gamma(2), as
      |s| <= 1.
    - The mean adds at most n terms of magnitude at most 1, in row order,
      within gamma(n - 1) * n, then divides by n: u * (1 + gamma(n - 1)).

    B = 2e / (1 - e) + gamma(2) + gamma(n - 1) + u * (1 + gamma(n - 1)),
    about 3 * n * u. Nothing underflows: a distance is 0 or at least
    sqrt(2**-1074), so a and b are 0 or normal floats; a subnormal s(i)
    is off by at most 2**-1075. That and B's own rounding fit in the
    slack of about 4u left by taking gamma(n + 1) where gamma(n - 1)
    holds."""
    u = 2.0**-53

    def gamma(k):
        return k * u / (1 - k * u)

    e = gamma(n + 1)
    return 2 * e / (1 - e) + gamma(2) + gamma(n - 1) + u * (1 + gamma(n - 1))


def select_k(ds, cfg):
    """Auto-k mode: fit every k in [2, k_max] with the same seed and keep
    the model with the highest mean silhouette (as `silhouette_means`
    gives it), ties to the smallest k.

    A single candidate is kept unscored. Otherwise the choice is made
    from sums kept per joint cell (`_joint_scores`) while there are at
    most 4 * sum(k) cells. Every score there, and every score that
    `silhouette_means` gives, lies within B (`_score_bound`) of the same
    score in exact arithmetic, so when the best joint score beats every
    other by more than 4B, `silhouette_means` would choose the same k.
    Otherwise (more cells, a margin of 4B or less, every tie and every
    non-finite score) `silhouette_means` scores the models and `max`
    chooses. No joint score leaves this function."""
    n = len(ds.rows)
    if n < 2:
        raise TooFewRows("auto-k needs at least 2 rows")
    if cfg.k_max < 2 or cfg.k_max > n:
        raise TooFewRows(f"k_max={cfg.k_max} out of range [2, {n}]")
    models = [
        kmeans(ds, KMeansConfig(k=k, max_iterations=cfg.max_iterations, seed=cfg.seed))
        for k in range(2, cfg.k_max + 1)
    ]
    best = _certified_best(ds, models)
    if best is None:
        scores = silhouette_means(ds, models)
        # max() keeps the first of equal scores: ties go to the smallest k
        best = max(range(len(models)), key=scores.__getitem__)
    return models[best].chosen_k, models[best]


def _certified_best(ds, models):
    """The index of the model whose joint score beats every other by more
    than 4 * _score_bound(n), 0 for a single model, else None: too many
    joint cells, a tie, a narrower margin or a score that is not finite."""
    if len(models) == 1:
        return 0
    scores = _joint_scores(ds, models)
    if scores is None or not all(map(math.isfinite, scores)):
        return None
    best = max(range(len(scores)), key=scores.__getitem__)
    margin = 4 * _score_bound(len(ds.rows))
    return best if all(scores[best] - score > margin for m, score in enumerate(scores) if m != best) else None

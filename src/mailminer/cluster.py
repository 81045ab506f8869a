"""Mixed-type k-means with a fixed-k mode and silhouette-based auto-k.

`attribute_ranges` is the one place here that reads the column kinds:
each number column (`AttributeSpec.is_number`) gets its range, each
other column None. Distance is the Euclidean combination of per-column
terms: |x - c| / range for a number column (0 for a constant one), 0 on
match and 1 on mismatch for a label column, and 1 if either cell is
missing. Centroids carry the mean of a ranged column and the mode of
the rest.

Every distance is generated code in two shapes, the assignment pass and
the silhouette's tile pass (`_generate`), whose bits equal the generic
per-pair loop's: 0.0 plus one float term per column, left to right,
then the sqrt. The silhouette reads label cells as int codes
(`_pack`) and keeps each row's sums to every cluster of every
model: O(n^2) distances, O(n * sum(k)) memory. One loop (`_scores`)
scores each row once its tile is done and lets its sums go, for the
exact scores and for sums kept per joint cell (`_joint_scores`), from
which `select_k` chooses where they certify the choice that
`silhouette_means`'s scores make, and from those otherwise.
"""

import math
import operator
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce

from .core import MISSING, EmptyDataset, TooFewRows, _check_arity, number_range
from .rng import Lcg


KMeansConfig = namedtuple("KMeansConfig", "k k_max max_iterations seed", defaults=(2, 2, 100, 0))


@dataclass
class ClusterModel:
    """What a fit decides: its centroids, each row's cluster, the passes it
    took and its SSE. The rest is read from these."""

    centroids: list
    assignment: list
    iterations: int
    sse: float

    @property
    def sizes(self):
        """The number of rows in each cluster, in cluster order."""
        return [self.assignment.count(ci) for ci in range(len(self.centroids))]

    @property
    def chosen_k(self):
        """The number of clusters, len(centroids)."""
        return len(self.centroids)


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


def _left_sum(values):
    """Float sum strictly left to right; builtin sum() compensates on 3.12+."""
    return reduce(operator.add, values, 0.0)


# centroids per assignment pass, BENCH_25.json has the sizes measured;
# rows per silhouette tile, BENCH_23.json has the sizes measured
CHUNK = 8
TILE = 4


# typed: an int range and an equal float range divide differently
@lru_cache(maxsize=64, typed=True)
def _generate(shape, *ranges):
    """The assignment pass (shape ("nearest", count, first)) or the
    silhouette's tile pass (("tile", models, tile rows)), kept per shape
    and set of ranges, generated from column indices and fixed templates
    only: ranges are bound by name (R0, R1, ...), and no cell or range
    value reaches the source. Callers check arity.

    A distance is the sqrt of its column terms (`_term`), each a float,
    added left to right from the first, so its bits are the per-pair
    loop's (0.0 + term is term). A pass takes its hoisted rows (the
    centroids, or the tile) apart once per call, number cells' missing
    tests included, so a label term is one comparison.

    nearest(centroids, base, rows, labels, best) -> the new (labels, best):
    each row, unpacked once, against count centroids labelled base,
    base + 1, ... in turn, keeping a strict minimum, so ties go to the
    lowest label. A first pass starts at its first centroid's distance (a
    NaN one stays); a later pass continues the labels and best given. A
    centroid's missing label cell becomes an object() unequal to every
    cell, as a row's missing one (None) is to every present cell.

    tile_pass(tile, rest) takes lists of rows as `_pack` packs them, where
    no label cell is missing. Each pair of tile rows (t ascending, then
    u > t ascending: the one-row pass of t with the rows after it as its
    rest), then each rest row in order with each tile row in order: their
    distance is added to each row's sums at the other row's columns."""
    namespace = {f"R{j}": rng for j, rng in enumerate(ranges)}
    namespace.update(M=MISSING, U=object(), LABELS=tuple(rng is None for rng in ranges), sqrt=math.sqrt)

    def names(r, count):  # [r0, r1, ...]
        return "[" + ", ".join(f"{r}{j}" for j in range(count)) + "]"

    def missing(r):  # hoisted row r's number cells' missing tests, made once per call
        return "".join(f"    m{r}{j} = {r}{j} is M\n" for j, rng in enumerate(ranges) if rng is not None)

    def dist(r, o):
        return "sqrt(" + (" + ".join(_term(j, rng, r, o) for j, rng in enumerate(ranges)) or "0.0") + ")"

    if shape[0] == "nearest":
        _, count, first = shape

        def step(c):  # centroid c against row b; a first pass starts at centroid 0
            if first and not c:
                return f"        l, d = L0, {dist('c0_', 'b')}\n"
            return f"        e = {dist(f'c{c}_', 'b')}\n        if e < d:\n            l, d = L{c}, e\n"

        exec(f"""def nearest(centroids, base, rows, labels, best):
    [{", ".join(names(f"c{c}_", len(ranges)) for c in range(count))}] = [
        [U if v is M and label else v for v, label in zip(cells, LABELS)] for cells in centroids
    ]
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
    if tile > 1:  # the tile's own pairs: each row against the tile rows after it
        namespace["one"] = _generate(("tile", models, 1), *ranges)

    def entry(r):  # row r as packed: cells r{j}, sums s{r}, columns c{r}{m}
        cells = [f"{r}{j}" for j in range(len(ranges))]
        return "[" + ", ".join(cells + [f"s{r}"] + [f"c{r}{m}" for m in range(models)]) + "]"

    def pair(r):  # r's distance to rest row b, added to both rows' sums
        adds = "".join(f"        s{r}[cb{m}] += d\n        sb[c{r}{m}] += d\n" for m in range(models))
        return f"        d = {dist(r, 'b')}\n{adds}"

    exec(f"""def tile_pass(tile, rest):
    [{", ".join(map(entry, rows))}] = tile
{"".join(map(missing, rows))}    for t in range(1, {tile}):
        one(tile[t - 1 : t], tile[t:])
    for {entry("b")} in rest:
{"".join(map(pair, rows))}""", namespace)
    return namespace["tile_pass"]


def _term(j, rng, r, o):
    """Column j's float term of the distance between hoisted row r (cells
    r{j}, m{r}{j} a number cell's missing test) and row o (cells o{j}):
    1.0 for a missing cell or a label mismatch, 0.0 for a zero range, and
    else the quotient made once and squared, |x - c| / range squared to
    the bit."""
    a, b, m = f"{r}{j}", f"{o}{j}", f"m{r}{j}"
    if rng is None:
        return f"(1.0 if {a} != {b} else 0.0)"
    if not rng:  # a zero range: present cells are 0.0 apart
        return f"(1.0 if {m} or {b} is M else 0.0)"
    return f"(1.0 if {m} or {b} is M else (q{j} := ({a} - {b}) / R{j}) * q{j})"


def _distances(centroid, rows, ranges):
    """[distance(centroid, row, ranges) for row in rows]: the assignment
    pass with one centroid, which is on the left of every subtraction."""
    return _generate(("nearest", 1, True), *ranges)([centroid], 0, rows, None, None)[1]


def distance(row, other, ranges):
    _check_arity(len(ranges), [row, other])
    return _distances(row, [other], ranges)[0]


def _centroid(members, ranges):
    """Cluster representative; members are its rows in dataset order."""
    cells = []
    for rng, column in zip(ranges, zip(*members)):
        present = [v for v in column if v is not MISSING]
        if not present:
            cells.append(MISSING)
        elif rng is not None:
            cells.append(_left_sum(present) / len(present))
        else:  # Counter keeps first-seen order, max() the first of equal counts
            counts = Counter(present)
            cells.append(max(counts, key=counts.get))
    return cells


def _sse(rows, centroids, assignment, ranges):
    """One pass per cluster on its members, squares summed in row order."""
    squares = [0.0] * len(rows)
    for ci, centroid in enumerate(centroids):
        members = [i for i, cj in enumerate(assignment) if cj == ci]
        for i, d in zip(members, _distances(centroid, [rows[i] for i in members], ranges)):
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
    for iterations in range(1, cfg.max_iterations + 1):
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
        total_sse = _sse(rows, centroids, assignment, ranges)

    return ClusterModel(centroids, assignment, iterations, total_sse)


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
    return _sse(ds.rows, model.centroids, model.assignment, ranges)


def silhouette_mean(ds, model):
    """Mean silhouette coefficient of a fitted model."""
    return silhouette_means(ds, [model])[0]


def _pack(rows, ranges, sums, columns):
    """Each row as the tile pass takes it, one flat tuple: its cells, then
    its list of sums, then its sum column in each model, the last two from
    the iterables sums and columns. Label cells are int codes, given per
    column in first-seen order, and a missing one gets a negative code
    that no other cell has; number cells stay as they are. Equal cells
    get equal codes, so every term and distance keeps its bits. Label
    cells must be hashable, as `_centroid` already needs them to be."""
    codes = [{} if rng is None else None for rng in ranges]
    return [
        (*(v if c is None else -1 - i if v is MISSING else c.setdefault(v, len(c)) for v, c in zip(row, codes)), s, *cols)
        for i, (row, s, cols) in enumerate(zip(rows, sums, columns))
    ]


def silhouette_means(ds, models):
    """Mean silhouette coefficient of each model fitted to the rows of ds.

    Rows in singleton clusters score 0, as does any row whose cohesion
    and separation are both 0. One generated pass per TILE rows takes
    the pairs inside the tile, then the rows after it, each distance
    computed once and added to both rows' sums for every model: O(n^2)
    distances, O(n * sum(k)) memory. The pass reads the rows with their
    label cells coded (`_pack`). Every sum takes its terms in ascending
    row order, whatever the tile or the number of models; each row is
    scored once its tile is done (`_scores`).
    """
    n = len(ds.rows)
    ranges = attribute_ranges(ds)
    # model m's cluster c is sum column spans[m][0] + c; each row is packed
    # with its running sums to every column and its own column per model
    spans, labels, width = [], [], 0
    for model in models:
        _check_assignment(n, model)
        labels.append([width + ci for ci in model.assignment])
        start, width = width, width + len(model.centroids)
        spans.append((start, width))
    packed = _pack(ds.rows, ranges, ([0.0] * width for _ in ds.rows), zip(*labels))

    def clusters(sums, *columns):
        return [(sums[start:end], column - start) for (start, end), column in zip(spans, columns)]

    return _scores(models, ranges, packed, width, len(models), clusters)


def _scores(models, ranges, packed, width, tile_models, clusters):
    """Each model's mean silhouette over the rows of packed (`_pack`, with
    tile_models sum columns), by the tile pass TILE rows at a time. A tile's
    rows are grown to width sums, passed, then, their sums final, scored
    in order and let go; clusters(sums, *columns) gives per model a row's
    sums to each cluster and its own. No rows give 0.0."""
    sizes = [model.sizes for model in models]
    totals = [0.0] * len(models)
    for start in range(0, len(packed), TILE):
        tile = packed[start : start + TILE]
        packed[start : start + TILE] = [None] * len(tile)  # freed once scored
        for entry in tile:
            entry[len(ranges)].extend([0.0] * (width - len(entry[len(ranges)])))
        _generate(("tile", tile_models, len(tile)), *ranges)(tile, packed[start + TILE :])
        for entry in tile:
            scored = clusters(*entry[len(ranges) :])
            totals = [total + _row_score(*s, k_sizes) for total, s, k_sizes in zip(totals, scored, sizes)]
    return [total / (len(packed) or 1) for total in totals]


def _row_score(sums, ci, sizes):
    """s(i) of a row in cluster ci, from its distance sums to every cluster
    and the clusters' sizes; 0.0 for one alone in its cluster, one with no
    other cluster, or one whose a and b are both 0 (or whose max(a, b) is
    NaN). The scores are added from 0.0, which is never -0.0, so a 0.0
    leaves a sum's bits as they were."""
    means = [s / m for cj, (s, m) in enumerate(zip(sums, sizes)) if m and cj != ci]
    if sizes[ci] <= 1 or not means:
        return 0.0
    a, b = sums[ci] / (sizes[ci] - 1), min(means)
    return (b - a) / max(a, b) if max(a, b) > 0 else 0.0


def _joint_scores(ds, models):
    """Each model's mean silhouette from distance sums kept per joint cell,
    or None when there are more than 4 * sum(k) cells.

    A row's joint cell is the tuple of its labels in all the models,
    numbered in first-seen order. The tile pass runs once, as for one
    model whose clusters are the J cells, so each pair costs one distance
    and two additions. It visits the rows, packed as `silhouette_means`
    packs them, grouped by joint cell (a stable sort), so until its tile
    comes a row is added to only at the cells up to its own, and holds
    sums for those only (`_scores` grows them to J). The sums are added
    in another order than `silhouette_means` adds them, so a score may
    differ from that one's in its last bits, by at most
    2 * _score_bound(n); the distances themselves are the same bits. The
    cap keeps memory at O(n * sum(k)), as J can reach n."""
    cells = {}
    joint = [cells.setdefault(key, len(cells)) for key in zip(*(model.assignment for model in models))]
    if len(cells) > 4 * sum(len(model.centroids) for model in models):
        return None
    ranges = attribute_ranges(ds)
    # per model: the cluster of each joint cell, and the number of clusters
    per_model = [(labels, len(model.centroids)) for labels, model in zip(zip(*cells), models)]

    def clusters(cell_sums, cell):  # a cluster's sum is the sum of its cells' sums
        for labels, k in per_model:
            sums = [0.0] * k
            for ci, s in zip(labels, cell_sums):
                sums[ci] += s
            yield sums, labels[cell]

    packed = _pack(ds.rows, ranges, ([0.0] * (cell + 1) for cell in joint), zip(joint))
    packed.sort(key=lambda entry: entry[-1])
    return _scores(models, ranges, packed, len(cells), 1, clusters)


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
    - The mean adds at most n terms of magnitude at most 1, in any order,
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
    models = [kmeans(ds, cfg._replace(k=k)) for k in range(2, cfg.k_max + 1)]
    best = _certified_best(ds, models)
    if best is None:
        scores = silhouette_means(ds, models)
        # max() keeps the first of equal scores: ties go to the smallest k
        best = max(range(len(models)), key=scores.__getitem__)
    return len(models[best].centroids), models[best]


def _certified_best(ds, models):
    """The index of the model whose joint score beats every other by more
    than 4 * _score_bound(n), 0 for a single model, else None: too many
    joint cells, a tie, a narrower margin or a score that is not finite."""
    scores = _joint_scores(ds, models) if len(models) > 1 else [0.0]
    if scores is None or not all(map(math.isfinite, scores)):
        return None
    *others, best = sorted(scores)
    return scores.index(best) if not others or best - others[-1] > 4 * _score_bound(len(ds.rows)) else None

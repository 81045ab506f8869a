"""Mixed-type k-means with a fixed-k mode and silhouette-based auto-k.

`attribute_ranges` is the one place that reads the column kinds: each
numeric/date column gets its range, each nominal/text column None.
Distance is the Euclidean combination of per-attribute differences:
|x - c| / range for numeric/date cells (0 for a constant column), 0 on
match and 1 on mismatch for the rest, and 1 if either side is missing.
Centroids carry the mean of a ranged column and the mode of the rest.
Auto-k scores every candidate k in one pass over the row pairs, which
streams each distance into per-row, per-cluster sums for all the models
together: O(n^2) distances and O(n*sum(k)) memory.
"""

import math
from collections import Counter
from dataclasses import dataclass

from .core import MISSING, ArityMismatch, EmptyDataset, TooFewRows
from .rng import Lcg


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 2
    k_max: int = 2
    max_iterations: int = 100
    seed: int = 0


@dataclass
class ClusterModel:
    centroids: list
    assignment: list
    iterations: int
    sse: float
    sizes: list
    chosen_k: int
    # SSE of the first assignment pass against the initial centers;
    # kept so the no-worsening property is checkable from outside.
    first_pass_sse: float


def attribute_ranges(ds):
    """Per column: max - min over the non-missing cells of a numeric/date
    column (0.0 when there are none), or None for a nominal/text column."""
    ranges = []
    for j, spec in enumerate(ds.schema):
        if spec.kind in ("numeric", "date"):
            values = [row[j] for row in ds.rows if row[j] is not MISSING]
            ranges.append(max(values) - min(values) if values else 0.0)
        else:
            ranges.append(None)
    return ranges


def distance(row, other, ranges):
    if len(row) != len(ranges) or len(other) != len(ranges):
        raise ArityMismatch(
            f"row/centroid arity {len(row)}/{len(other)} vs schema {len(ranges)}"
        )
    total = 0.0
    for x, c, rng in zip(row, other, ranges):
        if x is MISSING or c is MISSING:
            d = 1.0
        elif rng is None:
            d = 0.0 if x == c else 1.0
        else:
            d = abs(x - c) / rng if rng else 0.0
        total += d * d
    return math.sqrt(total)


def _centroid(rows, members, ranges):
    """Cluster representative; members are row indices in dataset order."""
    cells = []
    for j, rng in enumerate(ranges):
        present = [rows[i][j] for i in members if rows[i][j] is not MISSING]
        if not present:
            cells.append(MISSING)
        elif rng is not None:
            cells.append(sum(present) / len(present))
        else:
            # Counter keeps first-seen order and max() keeps the first of
            # equal counts, so ties go to the value seen first
            counts = Counter(present)
            cells.append(max(counts, key=counts.get))
    return cells


def _nearest(row, centroids, ranges):
    """(index, distance) of the closest centroid, ties to the lowest index."""
    best, best_d = 0, distance(row, centroids[0], ranges)
    for ci in range(1, len(centroids)):
        d = distance(row, centroids[ci], ranges)
        if d < best_d:
            best, best_d = ci, d
    return best, best_d


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
        centroids = [list(c) for c in initial_centroids]
    else:
        centroids = [list(rows[i]) for i in Lcg(cfg.seed).choose(n, k)]

    assignment = None
    iterations = 0
    first_pass_sse = 0.0
    while iterations < cfg.max_iterations:
        iterations += 1
        nearest = [_nearest(row, centroids, ranges) for row in rows]
        new_assignment = [ci for ci, _ in nearest]
        if iterations == 1:
            first_pass_sse = sum(d ** 2 for _, d in nearest)
        if new_assignment == assignment:
            # the centroids have not moved since this pass
            total_sse = sum(d ** 2 for _, d in nearest)
            break
        assignment = new_assignment
        members = [[] for _ in range(k)]
        for i, ci in enumerate(assignment):
            members[ci].append(i)
        for ci in range(k):
            if members[ci]:
                centroids[ci] = _centroid(rows, members[ci], ranges)
    else:
        # capped: the last update moved the centroids
        total_sse = sum(
            distance(row, centroids[ci], ranges) ** 2 for row, ci in zip(rows, assignment)
        )

    sizes = [assignment.count(ci) for ci in range(k)]
    return ClusterModel(centroids, assignment, iterations, total_sse, sizes, k, first_pass_sse)


def sse(ds, model):
    """Within-cluster sum of squared distances, recomputed from scratch."""
    ranges = attribute_ranges(ds)
    return sum(
        distance(row, model.centroids[ci], ranges) ** 2
        for row, ci in zip(ds.rows, model.assignment)
    )


def silhouette_mean(ds, model):
    """Mean silhouette coefficient of a fitted model."""
    return silhouette_means(ds, [model])[0]


def silhouette_means(ds, models):
    """Mean silhouette coefficient of each model fitted to the rows of ds.

    Rows in singleton clusters score 0, as does any row whose cohesion
    and separation are both 0. One pass over the pairs i < j computes
    each distance once and adds it to both rows' per-cluster sums in
    every model: O(n^2) distances, O(n * sum(k)) memory. Every sum takes
    its terms in ascending row order, whatever the number of models.
    """
    rows = ds.rows
    n = len(rows)
    ranges = attribute_ranges(ds)
    # one row of sums per data row, model after model: model m's cluster
    # c sits at spans[m][0] + c, and slots[i] holds row i's slot per model
    spans, width = [], 0
    for model in models:
        start, width = width, width + max(model.assignment, default=-1) + 1
        spans.append((start, width))
    slots = [
        tuple(start + model.assignment[i] for (start, _), model in zip(spans, models))
        for i in range(n)
    ]
    sums = [[0.0] * width for _ in range(n)]
    for i in range(n):
        row, row_sums, row_slots = rows[i], sums[i], slots[i]
        for j in range(i + 1, n):
            d = distance(row, rows[j], ranges)
            for slot in slots[j]:
                row_sums[slot] += d
            other_sums = sums[j]
            for slot in row_slots:
                other_sums[slot] += d
    return [
        _mean_silhouette(model.assignment, [row_sums[start:end] for row_sums in sums])
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

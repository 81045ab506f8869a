"""Mixed-type k-means with a fixed-k mode and silhouette-based auto-k.

Distance between a row and a centroid is the Euclidean combination of
per-attribute differences: numeric/date attributes are min-max
normalized over the dataset (|x - c| / range, 0 for a constant column),
nominal/text attributes contribute 0 on match and 1 on mismatch, and any
missing side contributes 1. Centroids carry the arithmetic mean for
numeric/date columns and the modal value for nominal/text columns.
"""

import math
from collections import defaultdict
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
    """(min, max) per numeric/date column over non-missing cells; None
    for other kinds or all-missing columns."""
    ranges = []
    for j, spec in enumerate(ds.schema):
        if spec.kind not in ("numeric", "date"):
            ranges.append(None)
            continue
        values = [row[j] for row in ds.rows if row[j] is not MISSING]
        ranges.append((min(values), max(values)) if values else None)
    return ranges


def distance(row, centroid, schema, ranges):
    if len(row) != len(schema) or len(centroid) != len(schema):
        raise ArityMismatch(
            f"row/centroid arity {len(row)}/{len(centroid)} vs schema {len(schema)}"
        )
    total = 0.0
    for x, c, spec, rng in zip(row, centroid, schema, ranges):
        if x is MISSING or c is MISSING:
            d = 1.0
        elif spec.kind in ("numeric", "date"):
            if rng is None or rng[1] == rng[0]:
                d = 0.0
            else:
                d = abs(x - c) / (rng[1] - rng[0])
        else:
            d = 0.0 if x == c else 1.0
        total += d * d
    return math.sqrt(total)


def _centroid(schema, rows, members):
    """Cluster representative; members are row indices in dataset order."""
    cells = []
    for j, spec in enumerate(schema):
        present = [(i, rows[i][j]) for i in members if rows[i][j] is not MISSING]
        if not present:
            cells.append(MISSING)
        elif spec.kind in ("numeric", "date"):
            cells.append(sum(v for _, v in present) / len(present))
        else:
            counts = {}
            first_seen = {}
            for i, v in present:
                counts[v] = counts.get(v, 0) + 1
                first_seen.setdefault(v, i)
            best = max(counts, key=lambda v: (counts[v], -first_seen[v]))
            cells.append(best)
    return cells


def _nearest(row, centroids, schema, ranges):
    best, best_d = 0, distance(row, centroids[0], schema, ranges)
    for ci in range(1, len(centroids)):
        d = distance(row, centroids[ci], schema, ranges)
        if d < best_d:
            best, best_d = ci, d
    return best


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
        new_assignment = [_nearest(row, centroids, schema=ds.schema, ranges=ranges) for row in rows]
        if iterations == 1:
            first_pass_sse = sum(
                distance(rows[i], centroids[new_assignment[i]], ds.schema, ranges) ** 2
                for i in range(n)
            )
        if new_assignment == assignment:
            break
        assignment = new_assignment
        members = defaultdict(list)
        for i, ci in enumerate(assignment):
            members[ci].append(i)
        for ci in range(k):
            if members[ci]:
                centroids[ci] = _centroid(ds.schema, rows, members[ci])

    sizes = [0] * k
    for ci in assignment:
        sizes[ci] += 1
    total_sse = sum(
        distance(rows[i], centroids[assignment[i]], ds.schema, ranges) ** 2
        for i in range(n)
    )
    return ClusterModel(centroids, assignment, iterations, total_sse, sizes, k, first_pass_sse)


def sse(ds, model):
    """Within-cluster sum of squared distances, recomputed from scratch."""
    ranges = attribute_ranges(ds)
    return sum(
        distance(row, model.centroids[ci], ds.schema, ranges) ** 2
        for row, ci in zip(ds.rows, model.assignment)
    )


def silhouette_mean(ds, model):
    """Mean silhouette coefficient of a fitted model.

    Rows in singleton clusters score 0, as does any row whose cohesion
    and separation are both 0.
    """
    rows = ds.rows
    n = len(rows)
    ranges = attribute_ranges(ds)
    members = defaultdict(list)
    for i, ci in enumerate(model.assignment):
        members[ci].append(i)
    dmat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = distance(rows[i], rows[j], ds.schema, ranges)
            dmat[i][j] = d
            dmat[j][i] = d

    total = 0.0
    for i in range(n):
        ci = model.assignment[i]
        own = members[ci]
        if len(own) <= 1:
            continue
        a = sum(dmat[i][j] for j in own if j != i) / (len(own) - 1)
        b = None
        for cj, other in members.items():
            if cj == ci or not other:
                continue
            mean_d = sum(dmat[i][j] for j in other) / len(other)
            if b is None or mean_d < b:
                b = mean_d
        if b is None:
            continue
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / n if n else 0.0


def select_k(ds, cfg):
    """Auto-k mode: fit every k in [2, k_max] with the same seed and keep
    the model with the highest mean silhouette, ties to the smallest k."""
    n = len(ds.rows)
    if n < 2:
        raise TooFewRows("auto-k needs at least 2 rows")
    if cfg.k_max < 2 or cfg.k_max > n:
        raise TooFewRows(f"k_max={cfg.k_max} out of range [2, {n}]")
    best_k = None
    best_model = None
    best_score = None
    for k in range(2, cfg.k_max + 1):
        model = kmeans(
            ds, KMeansConfig(k=k, max_iterations=cfg.max_iterations, seed=cfg.seed)
        )
        score = silhouette_mean(ds, model)
        if best_score is None or score > best_score:
            best_k, best_model, best_score = k, model, score
    return best_k, best_model

"""The `filter` subcommand's dataset filters: remove columns, sample or
shuffle rows, discretize a number column. Each returns a fresh Dataset.
Only `filter` imports this module, so other subcommands do not compile it.
"""

import math

from .core import MISSING, EmptyResultSchema, NotNumeric, number_range
from .rng import Lcg
from .tabular import AttributeSpec, Dataset


def filter_remove(ds, names):
    """Drop the named columns (at least one, each named once); the rest
    keep their order."""
    drop = set(ds.column_indices(names))
    keep = [i for i in range(ds.n_cols) if i not in drop]
    if not keep:
        raise EmptyResultSchema("remove would drop every column")
    return Dataset(
        [ds.schema[i] for i in keep],
        [[row[i] for i in keep] for row in ds.rows],
        ds.relation_name,
    )


def filter_sample(ds, fraction, seed):
    """floor(fraction*n) rows without replacement, original order kept."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    m = math.floor(fraction * ds.n_rows)
    chosen = sorted(Lcg(seed).choose(ds.n_rows, m))
    return Dataset(list(ds.schema), [list(ds.rows[i]) for i in chosen], ds.relation_name)


def filter_randomize(ds, seed):
    """Seeded Fisher-Yates shuffle of the rows."""
    rows = [list(r) for r in ds.rows]
    Lcg(seed).shuffle(rows)
    return Dataset(list(ds.schema), rows, ds.relation_name)


def filter_discretize(ds, name, n_bins):
    """Replace a numeric/date column with equal-width bins b1..bN.

    Bins are half-open except the last, which is closed so the maximum
    lands in bN. Missing cells stay missing. A range that overflows a
    float (`number_range`) is MalformedInput, before any row is binned.
    """
    [j] = ds.column_indices([name])
    spec = ds.schema[j]
    if not spec.is_number:
        raise NotNumeric(f"attribute {name!r} is {spec.kind}, not numeric")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    labels = tuple(f"b{i + 1}" for i in range(n_bins))
    lo, hi = number_range(name, [row[j] for row in ds.rows])
    width = (hi - lo) / n_bins

    schema = list(ds.schema)
    schema[j] = AttributeSpec(name, "nominal", labels)
    rows = []
    for row in ds.rows:
        new_row = list(row)
        x = new_row[j]
        if x is not MISSING:
            new_row[j] = labels[0] if width == 0 else labels[min(int((x - lo) / width), n_bins - 1)]
        rows.append(new_row)
    return Dataset(schema, rows, ds.relation_name)

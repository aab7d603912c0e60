"""Two-level aggregation: per-batch partials -> driver polars merge.

Ray Data's groupby().aggregate() pays ~20-40s per 100k distinct keys at this
scale (sort-shuffle constants). When the AGGREGATED output is bounded —
windows per user, customers, predicates, distinct texts — the partial rows
(one per key per block) are tiny, and merging them with one polars pass on
the driver is 100-1000× faster than the distributed aggregate.

``sum_partials`` auto-falls back to the distributed aggregate above
``driver_limit`` partial rows, so the same call site is correct when the key
space explodes. This is the single most load-bearing performance pattern in
the engine; see BASELINE.md for measurements.

``reduce_partials`` is the same two-level merge for a reduction that is not
a column-wise sum/min/max — a block kernel that keeps one row per key (the
per-mention link pick): the kernel runs once more over all partials, on the
driver below ``driver_limit``, per hash partition of the keys above it.
"""

from __future__ import annotations

from typing import Callable

import pandas as pd
import polars as pl
import pyarrow as pa
import ray
import ray.data


def _materialize(
    partials: ray.data.Dataset, driver_limit: int
) -> tuple[ray.data.Dataset, bool]:
    """Execute the partials once; True when they fit the driver tier."""
    parts = partials.materialize()
    return parts, parts.count() <= driver_limit


def _typed_empty(parts: ray.data.Dataset, names: list[str]) -> ray.data.Dataset:
    """Zero-row result of ``names``. An object-dtype empty pandas frame loses
    its columns through the Arrow roundtrip, so the fields come from the
    partials' Arrow schema when it carries every name."""
    sch = parts.schema()
    base = getattr(sch, "base_schema", None) if sch else None
    if isinstance(base, pa.Schema) and all(n in base.names for n in names):
        fields = [base.field(n) for n in names]
        return ray.data.from_arrow(pa.schema(fields).empty_table())
    return ray.data.from_pandas(pd.DataFrame(columns=names))


def _n_parts() -> int:
    return max(8, int(ray.cluster_resources().get("CPU", 8)))


def merge_partials(
    partials: ray.data.Dataset,
    *,
    keys: list[str],
    agg: dict[str, str],
    driver_limit: int = 5_000_000,
) -> ray.data.Dataset:
    """Merge partial-aggregate rows (one per key per block) per ``keys``.
    ``agg``: column -> "sum" | "min" | "max" (all three merge associatively,
    so per-batch partials compose). Driver polars below ``driver_limit``
    rows, distributed Ray aggregate above."""
    parts, on_driver = _materialize(partials, driver_limit)
    cols = list(agg)
    if on_driver:
        pdf = parts.to_pandas()
        if pdf.empty:
            return _typed_empty(parts, keys + cols)
        ops = {
            "sum": lambda c: pl.col(c).sum(),
            "min": lambda c: pl.col(c).min(),
            "max": lambda c: pl.col(c).max(),
        }
        merged = (
            pl.from_pandas(pdf)
            .group_by(keys)
            .agg([ops[op](c).alias(c) for c, op in agg.items()])
            .sort(keys)
        )
        return ray.data.from_arrow(merged.to_arrow())
    from ray.data.aggregate import Max, Min, Sum

    ray_ops = {"sum": Sum, "min": Min, "max": Max}
    return parts.repartition(_n_parts()).groupby(keys).aggregate(
        *[ray_ops[op](c, alias_name=c) for c, op in agg.items()]
    )


def reduce_partials(
    partials: ray.data.Dataset,
    *,
    keys: list[str],
    reduce: Callable[[pa.Table], pa.Table],
    columns: list[str],
    driver_limit: int = 5_000_000,
) -> ray.data.Dataset:
    """Merge partial rows with ``reduce``, the Arrow block kernel that made
    them. ``reduce`` must keep at most one row per ``keys`` and be
    associative and commutative (a pick under a total order per key), so
    re-running it over any union of its outputs gives the same rows.

    Below ``driver_limit`` partial rows the merge is one ``reduce`` call on
    the driver, sorted by ``keys``; above it, a hash repartition on ``keys``
    puts each key in one block and ``reduce`` runs per block. ``columns``
    (with ``keys``) name the zero-row result of an empty input whose
    partials carry no schema; with a schema, it keeps every partial column,
    as a non-empty result does."""
    parts, on_driver = _materialize(partials, driver_limit)
    if on_driver:
        tables = [t for t in ray.get(parts.to_arrow_refs()) if t.num_rows]
        if not tables:
            sch = parts.schema()
            rest = [n for n in (sch.names if sch else []) if n not in keys]
            return _typed_empty(parts, keys + (rest or columns))
        merged = reduce(pa.concat_tables(tables, promote_options="permissive"))
        return ray.data.from_arrow(merged.sort_by([(k, "ascending") for k in keys]))
    # key-based repartition runs on the hash shuffle only; the materialized
    # partials carry their own DataContext copy, so this does not leak
    from ray.data.context import ShuffleStrategy

    parts.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    # batch_size=None: one batch per hash partition, so no key is split
    return parts.repartition(_n_parts(), keys=keys).map_batches(
        reduce, batch_format="pyarrow", batch_size=None
    )


def sum_partials(
    partials: ray.data.Dataset,
    *,
    keys: list[str],
    sum_cols: list[str],
    driver_limit: int = 5_000_000,
) -> ray.data.Dataset:
    """Merge partial-sum rows (one per key per block) by summing ``sum_cols``
    per ``keys``. Driver polars below ``driver_limit`` rows, Ray aggregate
    above."""
    return merge_partials(
        partials,
        keys=keys,
        agg={c: "sum" for c in sum_cols},
        driver_limit=driver_limit,
    )

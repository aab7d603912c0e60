"""Duplicate resolution: near-dup components -> canonical survivor -> deduped corpus.

Completes the dedup story (pairs -> components -> RESOLVE): given a component
assignment ``(doc_id, component)`` over the near-duplicate documents, drop
every non-canonical member from the corpus and stream the survivors through.

Reference parity: the reference's duplicate handling keeps one element per
duplicate group (AAExpansion near-dup grouping keeps the canonical abbreviation
row, ``unique``/distinct passes elsewhere keep-first); here the survivor
policy is explicit and pluggable:

* ``keep="min_id"`` — survivor is the component label itself (the UnionFind
  smaller-value-becomes-root rule shared with ``canon/canonicalize.py``).
* ``keep="longest"`` — survivor is the member with the longest text
  (ties -> smaller id): the usual crawl-dedup policy (keep the richest page).
* ``keep="best_score"`` — survivor is the member with the HIGHEST value of
  ``score_col`` (ties -> smaller id): quality-priority dedup — when a
  quality score (classifier logit, Gopher score, perplexity rank) already
  exists, keep the best copy of each near-dup family instead of an
  arbitrary one.

Scale shape: the component table is bounded by near-dup MEMBERSHIP, not the
corpus. The drop set is broadcast (``ray.put`` once, Arrow ``is_in`` filter
per batch — map-only, no shuffle) while it fits ``broadcast_limit``; above
that the corpus anti-joins the drop table with Ray's hash-partitioned
``Dataset.join`` (left_outer + null filter), so nothing corpus-sized ever
lands on one node. The corpus text never shuffles in either tier.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def resolve_oracle_sql(
    components_sql: str,
    *,
    keep: str = "longest",
    table: str = "documents",
    id_col: str = "doc_id",
    text_col: str = "text",
    score_col: str = "n_chars",
    out_cols: str = "doc_id, text",
) -> str:
    """DuckDB twin: drop non-survivors of each component from ``table``.

    ``components_sql`` must yield (doc_id, component) —
    e.g. ``minhash_components_oracle_sql()``. ``length()`` in DuckDB counts
    UTF-8 characters, matching ``pc.utf8_length``.
    """
    if keep == "min_id":
        losers = f"SELECT doc_id FROM comp WHERE doc_id != component"
    elif keep in ("longest", "best_score"):
        rank = f"length(d.{text_col})" if keep == "longest" else f"d.{score_col}"
        losers = (
            "SELECT doc_id FROM ("
            f"  SELECT c.doc_id, row_number() OVER ("
            f"    PARTITION BY c.component"
            f"    ORDER BY {rank} DESC, c.doc_id) AS rn"
            f"  FROM comp c JOIN {table} d ON d.{id_col} = c.doc_id"
            ") WHERE rn > 1"
        )
    else:
        raise ValueError(f"unknown keep policy: {keep!r}")
    return (
        f"WITH comp AS ({components_sql}) "
        f"SELECT {out_cols} FROM {table} "
        f"WHERE {id_col} NOT IN ({losers})"
    )


def _as_dataset(components) -> ray.data.Dataset:
    import ray

    if isinstance(components, ray.data.Dataset):
        return components
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": components["doc_id"].astype("int64"),
                "component": components["component"].astype("int64"),
            }
        )
    )


def duplicate_drop_ids(
    corpus: ray.data.Dataset,
    components,
    *,
    id_col: str = "doc_id",
    keep: str = "min_id",
    text_col: str = "text",
    score_col: str = "n_chars",
) -> ray.data.Dataset:
    """-> single-column Dataset (``id_col``) of the members to drop.

    ``keep="longest"`` / ``keep="best_score"`` rank members with a broadcast
    semi-join of the (small) member table onto the corpus — the corpus is
    scanned once, projected to (id, rank value), and only member rows
    survive the probe.
    """
    comp = _as_dataset(components)
    if comp.count() == 0:
        # empty Datasets lose their column schema through to_pandas /
        # broadcast_join; short-circuit with a typed empty drop list
        return ray.data.from_pandas(
            pd.DataFrame({id_col: pd.Series(dtype="int64")})
        )

    if keep == "min_id":
        def losers(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.not_equal(batch["doc_id"], batch["component"])
            return batch.filter(mask).select(["doc_id"]).rename_columns([id_col])

        return comp.map_batches(losers, batch_format="pyarrow", zero_copy_batch=True)

    if keep not in ("longest", "best_score"):
        raise ValueError(f"unknown keep policy: {keep!r}")

    from knowledgegraphs_ray.extract.joins import broadcast_join

    rank_src = text_col if keep == "longest" else score_col

    def measure(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rank = (
            pc.cast(pc.utf8_length(batch[text_col]), pa.int64())
            if keep == "longest"
            else batch[score_col]
        )
        return pa.table({id_col: batch[id_col], "__rank": rank})

    lengths = corpus.select_columns([id_col, rank_src]).map_batches(
        measure, batch_format="pyarrow", zero_copy_batch=True
    )
    members = broadcast_join(
        lengths, comp, left_on=id_col, right_on="doc_id", how="inner"
    )

    def pick_losers(g: pd.DataFrame) -> pd.DataFrame:
        # survivor: best rank (longest text / highest score), ties ->
        # smallest id (deterministic)
        order = g.sort_values(["__rank", id_col], ascending=[False, True])
        return order.iloc[1:][[id_col]].astype("int64")

    return members.groupby("component").map_groups(pick_losers, batch_format="pandas")


def resolve_duplicates(
    corpus: ray.data.Dataset,
    components,
    *,
    id_col: str = "doc_id",
    keep: str = "min_id",
    text_col: str = "text",
    score_col: str = "n_chars",
    broadcast_limit: int = 5_000_000,
) -> ray.data.Dataset:
    """Corpus minus non-canonical duplicate members (schema unchanged).

    ``components``: ``(doc_id, component)`` as a Dataset
    (``components_by_propagation``) or pandas DataFrame
    (``components_from_pairs``).
    """
    import ray
    from knowledgegraphs_ray.extract.joins import native_join

    drops = duplicate_drop_ids(
        corpus, components, id_col=id_col, keep=keep, text_col=text_col,
        score_col=score_col,
    ).materialize()
    n_drop = drops.count()
    if n_drop == 0:
        return corpus

    if n_drop <= broadcast_limit:
        ids = drops.to_pandas()[id_col].to_numpy().astype(np.int64)
        drop_ref = ray.put(pa.array(np.sort(ids), type=pa.int64()))

        class DropFilter:
            """Broadcast drop set, Arrow is_in per batch — map-only tier."""

            def __init__(self, ref):
                self.ref = ref
                self._ids = None

            def __call__(self, batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                if self._ids is None:
                    self._ids = ray.get(self.ref)
                mask = pc.is_in(batch[id_col], value_set=self._ids)
                return batch.filter(pc.invert(mask))

        return corpus.map_batches(
            DropFilter(drop_ref), batch_format="pyarrow", zero_copy_batch=True
        )

    # anti-join tier: hash-partitioned left join against the drop table,
    # keep rows with no match (drop table rows carry a marker column)
    def to_marker(t: pa.Table) -> pa.Table:
        # enforce one constant schema: empty upstream blocks can arrive
        # column-less (names=[]) and would break the Acero hash join
        import pyarrow.compute as pc

        ids_arr = (
            pc.cast(t[id_col], pa.int64())
            if id_col in t.schema.names
            else pa.array([], type=pa.int64())
        )
        return pa.table(
            {
                id_col: ids_arr,
                "__drop": pa.array(np.ones(len(ids_arr), dtype=np.int8)),
            }
        )

    # partition count scaled to the cluster: each hash join spins up
    # num_partitions aggregator actors (same sizing rule as
    # dedup/minhash._verify_by_join)
    nparts = max(2, min(64, int(ray.cluster_resources().get("CPU", 8)) // 2))
    # repartition squeezes out 0-row blocks: Ray 2.49's hash-shuffle join
    # raises ArrowInvalid ("no match ... on right side") when any right-side
    # input block is empty, even with an identical schema
    marker = drops.map_batches(to_marker, batch_format="pyarrow").repartition(nparts)
    joined = native_join(
        corpus,
        marker,
        left_on=id_col,
        right_on=id_col,
        how="left_outer",
        num_partitions=nparts,
        compact=False,
    )

    def keep_unmatched(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_null(batch["__drop"])).drop_columns(["__drop"])

    return joined.map_batches(keep_unmatched, batch_format="pyarrow", zero_copy_batch=True)

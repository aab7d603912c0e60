"""Corpus snapshot diff — row-level delta between two corpus versions.

The versioning primitive an incremental 100 TB pipeline runs before every
refresh: which documents were ADDED, REMOVED, CHANGED, or are UNCHANGED
between the previous snapshot and the new crawl. Reference analogue: the
processed-file cache decides at FILE granularity what to re-ingest
(FilesToTurtle.java skip list); this is the row-granular, content-aware
version.

Scale shape: each side collapses to a slim (id, md5-hex) table with one
map-only pass — document text never shuffles — and the delta is ONE
hash-partitioned full-outer join of 48-byte rows, classified per batch
with vectorized null/equality masks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

_RKEY = "__diff_id_r"


def _hashed(ds: ray.data.Dataset, id_col: str, column: str, out_h: str,
            out_id: str) -> ray.data.Dataset:
    def kern(df: pd.DataFrame) -> pd.DataFrame:
        # NULL payloads hash a NUL-prefixed sentinel no real varchar can
        # collide with; the SQL twin coalesces to the same sentinel so a
        # null-text row classifies identically on both sides (str(None)
        # would hash as the literal 'None' while md5(NULL) is NULL).
        h = [
            hashlib.md5(
                ("\x00NULL" if pd.isna(t) else str(t)).encode()
            ).hexdigest()
            for t in df[column]
        ]
        return pd.DataFrame({out_id: df[id_col].astype("int64"), out_h: h})

    return ds.map_batches(kern, batch_format="pandas")


def corpus_diff(
    old: ray.data.Dataset,
    new: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    column: str = "text",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """-> (doc_id int64, status string) with status in
    {added, removed, changed, unchanged}.

    ``added``: id only in ``new``; ``removed``: only in ``old``;
    ``changed``: in both with different ``column`` payloads (md5);
    ``unchanged``: in both, identical payload.
    """
    from knowledgegraphs_ray.util.blocks import compact_nonempty

    o = compact_nonempty(
        _hashed(old, id_col, column, "h_old", id_col),
        pa.schema([(id_col, pa.int64()), ("h_old", pa.string())]),
    )
    n = compact_nonempty(
        _hashed(new, id_col, column, "h_new", _RKEY),
        pa.schema([(_RKEY, pa.int64()), ("h_new", pa.string())]),
    )

    def _all_as(ds: ray.data.Dataset, key: str, status: str) -> ray.data.Dataset:
        return ds.map_batches(
            lambda b, _k=key, _s=status: pd.DataFrame(
                {
                    "doc_id": b[_k].to_numpy(zero_copy_only=False).astype("int64"),
                    "status": np.repeat(_s, b.num_rows),
                }
            ),
            batch_format="pyarrow",
        )

    # empty sides would feed the hash join a schema-poisoned empty block;
    # they also have trivial answers — short-circuit
    if n.count() == 0:
        return _all_as(o, id_col, "removed")
    if o.count() == 0:
        return _all_as(n, _RKEY, "added")

    import ray
    from knowledgegraphs_ray.extract.joins import native_join

    if num_partitions is None:
        # one aggregator actor per ~2 CPUs (the minhash join-tier rule):
        # each hash-join partition is an actor slot, and oversubscribing
        # them starves the scan stages on small clusters
        num_partitions = max(
            2, min(16, int(ray.cluster_resources().get("CPU", 8)) // 2)
        )
    j = native_join(
        o,
        n,
        left_on=id_col,
        right_on=_RKEY,
        how="full_outer",
        num_partitions=num_partitions,
        compact=False,
    )

    def classify(b: pa.Table) -> pd.DataFrame:
        # Ray's full_outer coalesces the two key columns into one ``id_col``
        if b.num_rows == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "status": pd.Series([], dtype="string"),
                }
            )
        ids = b[id_col].to_numpy(zero_copy_only=False).astype("int64")
        ho = b["h_old"].to_numpy(zero_copy_only=False)
        hn = b["h_new"].to_numpy(zero_copy_only=False)
        status = np.where(
            pd.isna(ho),
            "added",
            np.where(
                pd.isna(hn),
                "removed",
                np.where(ho != hn, "changed", "unchanged"),
            ),
        )
        return pd.DataFrame({"doc_id": ids, "status": status.astype(str)})

    return j.map_batches(classify, batch_format="pyarrow")


def corpus_diff_oracle_sql(
    *,
    old_table: str,
    new_table: str,
    id_col: str = "doc_id",
    column: str = "text",
) -> str:
    """DuckDB twin: same md5 payload hash, same FULL OUTER classification."""
    return (
        f"SELECT CAST(coalesce(o.{id_col}, n.{id_col}) AS BIGINT) AS doc_id, "
        "CASE WHEN o.h IS NULL THEN 'added' "
        "WHEN n.h IS NULL THEN 'removed' "
        "WHEN o.h <> n.h THEN 'changed' ELSE 'unchanged' END AS status "
        f"FROM (SELECT {id_col}, "
        f"md5(coalesce(CAST({column} AS VARCHAR), chr(0) || 'NULL')) AS h "
        f"FROM {old_table}) o "
        f"FULL OUTER JOIN (SELECT {id_col}, "
        f"md5(coalesce(CAST({column} AS VARCHAR), chr(0) || 'NULL')) AS h "
        f"FROM {new_table}) n ON o.{id_col} = n.{id_col}"
    )

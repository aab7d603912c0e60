"""Join strategies (J1 re-hosted for scale).

The reference's FK join is a per-row lookup into the referenced table
(InsertDataRDB.java:197-211). Here:

* ``broadcast_join`` — small side ``ray.put`` once as an Arrow table, probe
  with a vectorized pandas merge inside ``map_batches``. No shuffle. This is
  the right plan whenever one side fits a worker (dimension tables,
  canonical-entity maps, link tables).
* ``bucket_join`` — both sides large: add ``bucket = hash(key) % B`` to both,
  co-locate with one groupby each, merge matching buckets pairwise. The
  explicit partitioned hash join (documented pattern from the Ray guide);
  used when no side is broadcastable.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray
import ray.data


def broadcast_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_on: str,
    right_on: str,
    right_columns: list[str] | None = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """left JOIN broadcast(right). ``how``: inner | left | semi | anti."""
    cols = right_columns or [c for c in right.schema().names]
    if right_on not in cols:
        cols = [right_on] + cols
    rdf = right.select_columns(cols).to_pandas()
    ref = ray.put(rdf)

    class Probe:
        def __init__(self, ref, how):
            self.ref = ref
            self.how = how
            self._r = None

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            if self._r is None:
                self._r = ray.get(self.ref)
            r = self._r
            if self.how in ("semi", "anti"):
                mask = df[left_on].isin(set(r[right_on]))
                return df[mask] if self.how == "semi" else df[~mask]
            return df.merge(
                r, how=self.how, left_on=left_on, right_on=right_on
            )

    return left.map_batches(Probe(ref, how), batch_format="pandas")


def join_aggregator_args(num_partitions: int) -> dict:
    """``ray.remote`` args for a hash join's aggregator actors that the
    cluster can place all at once.

    Ray sizes each aggregator's ``memory`` reservation from
    ``DataContext.target_max_block_size``, whatever the input size: 896 MiB
    at 128 MiB blocks with one partition per aggregator, so 14 GiB for a
    16-partition join. On a node whose ``memory`` resource is smaller
    (10.8 GiB on a 15 GB host) the aggregators that do not fit stay pending,
    and the join waits for them forever with every worker idle. Here the
    whole pool reserves at most half the cluster's ``memory`` resource,
    leaving the rest to the shuffle tasks that feed it. CPUs are Ray's own
    local default for a join: 0.125 per partition the aggregator holds."""
    ctx = ray.data.DataContext.get_current()
    n_agg = min(
        num_partitions,
        ctx.max_hash_shuffle_aggregators or ctx.default_hash_shuffle_parallelism,
    )
    memory = ray.cluster_resources().get("memory", 0.0)
    return {
        "num_cpus": 0.125 * -(-num_partitions // n_agg),
        "memory": int(memory / 2 / n_agg),
        "scheduling_strategy": "SPREAD",
    }


def native_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_on: str | tuple[str, ...],
    right_on: str | tuple[str, ...],
    how: str = "inner",
    num_partitions: int = 16,
    compact: bool = True,
) -> ray.data.Dataset:
    """Ray's built-in hash-partitioned join (Dataset.join, Ray >= 2.46) —
    the preferred both-sides-large path when available; ``bucket_join`` below
    is the portable fallback with explicit salting control. A tuple key
    joins on the composite (e.g. the (band_id, band_hash) LSH key). Its
    aggregators reserve only what the cluster has (``join_aggregator_args``).

    ``compact`` (default on) drops 0-row blocks from BOTH sides first:
    Ray's hash-shuffle aggregator intermittently fails on schema-poisoned
    empty blocks (the documented flake formerly guarded ad hoc at call
    sites). The check reads block metadata only — a side with no empty
    blocks passes through untouched; disable for join inputs already
    compacted upstream."""
    if compact:
        from knowledgegraphs_ray.util.blocks import drop_empty_blocks

        left = drop_empty_blocks(left)
        right = drop_empty_blocks(right)
    return left.join(
        right,
        join_type=how,
        num_partitions=num_partitions,
        on=(left_on,) if isinstance(left_on, str) else tuple(left_on),
        right_on=(right_on,) if isinstance(right_on, str) else tuple(right_on),
        aggregator_ray_remote_args=join_aggregator_args(num_partitions),
    )


def bucket_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    left_on: str,
    right_on: str,
    n_buckets: int = 32,
    how: str = "inner",
    salt_threshold: int | None = None,
    n_salts: int = 8,
    right_cols: list[str] | None = None,
    left_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Partitioned hash join: both sides bucketed on the key hash, buckets
    co-located via groupby, merged per bucket.

    ``salt_threshold``: automatic hot-key salting (inner/left joins) — keys
    whose LEFT-side frequency exceeds the threshold get a per-row salt
    (spreading the hot key over ``n_salts`` sub-buckets) while the right
    side's hot rows replicate once per salt. A hot left row meets each right
    match in exactly one salt, so results are identical to the unsalted
    join; only the bucket sizes change. Leave ``None`` to salt manually
    upstream via ``canon.skew``.

    CHAINING CAVEAT: the union-concat NaN-pads each side's missing columns,
    so integer NON-KEY columns come out float64. Joining that output AGAIN
    on one of those upcast columns silently matches nothing (float64 and
    int64 key arrays bucket-hash differently). For chained joins on carried
    keys use ``native_join`` (Arrow, type-preserving) — see
    graph/triangles.py:_orient_join for the pattern.

    ``right_cols``: the right side's column names. Without it the merge
    infers each side's columns per bucket by dropping all-null union
    columns — a heuristic that cannot tell a sparse-match left-join
    bucket's missing right side apart from genuinely null payloads. Pass
    it when the right side can be empty in some buckets (sparse
    annotation tables) to get one deterministic output schema."""
    if right_cols is not None:
        assert right_on in right_cols, "right_cols must include the key"
    salt_hot: set = set()
    if salt_threshold is not None:
        assert how in ("inner", "left"), "auto-salting supports inner/left joins"
        from knowledgegraphs_ray.canon.skew import hot_keys

        salt_hot = hot_keys(left, key=left_on, threshold=salt_threshold)

    def add_bucket(df: pd.DataFrame, col: str, replicate: bool) -> pd.DataFrame:
        import numpy as np

        df = df.copy()
        if salt_hot:
            is_hot = df[col].isin(salt_hot).to_numpy()
            if replicate:  # right side: hot rows appear once per salt
                cold = df[~is_hot]
                cold = cold.assign(__salt=np.int64(0))
                hot = df[is_hot]
                if len(hot):
                    hot = hot.loc[hot.index.repeat(n_salts)].copy()
                    hot["__salt"] = np.tile(
                        np.arange(n_salts, dtype=np.int64), len(hot) // n_salts
                    )
                df = pd.concat([cold, hot], ignore_index=True)
            else:  # left side: hot rows fan out round-robin
                salt = np.zeros(len(df), dtype=np.int64)
                salt[is_hot] = np.arange(int(is_hot.sum())) % n_salts
                df["__salt"] = salt
        else:
            df["__salt"] = np.int64(0)
        h = (
            pd.util.hash_array(df[col].to_numpy())
            + df["__salt"].to_numpy().astype("uint64") * np.uint64(0x9E3779B97F4A7C15)
        ) % n_buckets
        df["__bucket"] = h.astype("int64")
        return df

    lb = left.map_batches(
        lambda d: add_bucket(d, left_on, False), batch_format="pandas"
    )
    rb = right.map_batches(
        lambda d: add_bucket(d, right_on, True), batch_format="pandas"
    )
    lb = lb.map_batches(lambda d: d.assign(__side=0), batch_format="pandas")
    rb = rb.map_batches(lambda d: d.assign(__side=1), batch_format="pandas")
    both = lb.union(rb)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0].drop(columns=["__side", "__bucket"])
        r = g[g["__side"] == 1].drop(columns=["__side", "__bucket"])
        if right_cols is not None:
            # deterministic side split: no all-null inference, empty-side-safe
            rc = [c for c in right_cols if c != right_on]
            if left_cols is not None:
                # same determinism for the left side: a bucket assembled
                # ONLY from right-side blocks never saw the left columns
                l = l.reindex(columns=[*left_cols, "__salt"])
            else:
                l = l[[c for c in l.columns if c not in rc]]
            # reindex, not slice: a bucket assembled ONLY from left-side
            # blocks never saw the right columns at all
            r = r.reindex(columns=[right_on, *rc, "__salt"])
            out = l.merge(
                r,
                how=how,
                left_on=[left_on, "__salt"],
                right_on=[right_on, "__salt"],
            )
            return out.drop(columns=["__salt"])
        if l.empty or (r.empty and how == "inner"):
            # schema-stable empty result (union of both sides' columns —
            # matches the merge output except for rare shared non-key names);
            # a column-less frame would flip the stream's RefBundle schema
            drop = [c for c in ("__side", "__bucket", "__salt") if c in g.columns]
            return g.drop(columns=drop).head(0)
        # drop the all-null columns the union introduced from the other side
        # — but never on an EMPTY frame, where how="all" holds vacuously for
        # every column and a left join's empty right bucket would lose its
        # key column (KeyError in the merge)
        if not l.empty:
            l = l.dropna(axis=1, how="all")
        if not r.empty:
            r = r.dropna(axis=1, how="all")
        # __salt joins too: a hot left row must meet each right match in
        # exactly ONE salt even when two (key, salt) combos share a bucket
        out = l.merge(
            r,
            how=how,
            left_on=[left_on, "__salt"],
            right_on=[right_on, "__salt"],
        )
        return out.drop(columns=["__salt"])

    return both.groupby("__bucket").map_groups(merge_bucket, batch_format="pandas")

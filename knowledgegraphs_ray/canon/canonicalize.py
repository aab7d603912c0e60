"""Canonicalization — near-duplicate mention grouping into canonical IRIs.

Reference: groupNearDuplicates (AAExpansion/source/util/NearDuplicates.py:53-79)
clusters strings whose punctuation-stripped concatenations / token sets match
(or fuzzy ratio >= threshold) with union-find; representative = first member.

Ray-Data-first redesign (north_star: "canonicalization via
groupby-on-mention-key union-find merge into canonical IRIs"):

1. every mention gets a **blocking key** (normalized first token — cheap,
   high recall for near-dups which share leading tokens; pluggable);
2. no shuffle: each input block is reduced to its distinct (mention,
   block_key) rows (map-only), and ``fastagg.reduce_partials`` merges those
   partials per block_key with ``canonical_rows`` — one call on the driver
   below fastagg's driver limit, per hash partition of the block_key above
   it. Within a block, union-find merges members whose token sets are
   equal, one is a prefix of the other, or char-trigram Jaccard >=
   ``fuzzy_threshold`` (the model-free stand-in for fuzz.ratio >= 95);
3. representative = lexicographically smallest member (deterministic — the
   reference's "first" depends on arrival order, which a distributed run
   cannot reproduce);
4. **skew handling**: blocks larger than ``hot_block_limit`` are near-dup
   EXACT groups by definition of the key (hot mentions like "user"), so the
   quadratic fuzzy pass inside them is skipped and exact-equality grouping
   is used — bounded work per block regardless of skew (north_rule
   "skew-aware repartitioning of hot entities"; above the driver limit the
   hash repartition spreads blocks across the cluster).
"""

from __future__ import annotations

import functools

import polars as pl
import pyarrow as pa
import ray.data

from knowledgegraphs_ray.canon.unionfind import UnionFind
from knowledgegraphs_ray.linking.mentions import normalize_label
from knowledgegraphs_ray.linking.scorer import char_ngrams, jaccard
from knowledgegraphs_ray.util.fastagg import reduce_partials


def blocking_key(mention: str) -> str:
    norm = normalize_label(mention)
    return norm.split()[0][:4] if norm else ""


def add_blocking_key(batch: pa.Table, *, mention_col: str = "mention") -> pa.Table:
    keys = [blocking_key(m) for m in batch[mention_col].to_pylist()]
    return batch.append_column("block_key", pa.array(keys, pa.string()))


def _near_dup_groups(values: list[str], fuzzy_threshold: float) -> dict[str, str]:
    """value -> canonical representative within one block (A4 union-find)."""
    uf = UnionFind(values)
    norms = {v: normalize_label(v) for v in values}
    toksets = {v: frozenset(norms[v].split()) for v in values}
    grams = {v: char_ngrams(norms[v]) for v in values}
    vs = sorted(set(values))
    concat = {v: norms[v].replace(" ", "") for v in values}
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            a, b = vs[i], vs[j]
            ca, cb = concat[a], concat[b]
            shorter, longer = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
            prefix_plural = (
                len(longer) - len(shorter) <= 2 and longer.startswith(shorter)
            )
            if (
                toksets[a] == toksets[b]
                or ca == cb
                or prefix_plural
                or jaccard(grams[a], grams[b]) >= fuzzy_threshold
            ):
                uf.union(a, b)
    return {v: uf.find(v) for v in values}


def canonical_rows(
    keyed: pa.Table,
    *,
    mention_col: str = "mention",
    fuzzy_threshold: float = 0.75,
    hot_block_limit: int = 500,
) -> pa.Table:
    """(mention, block_key) rows -> one (block_key, mention, canonical,
    canonical_iri) row per distinct mention, sorted by (block_key, mention).

    Key-local: a block's rows depend only on that block's mentions, so any
    split that keeps each block_key whole gives the same rows."""
    keys, mentions, canon = [], [], []
    groups = (
        pl.from_arrow(keyed.select(["block_key", mention_col]))
        .unique()
        .group_by("block_key")
        .agg(pl.col(mention_col))
        .sort("block_key")
    )
    for key, members in groups.iter_rows():
        uniq = sorted(members)
        if len(uniq) > hot_block_limit:
            # hot block: exact-equality canonicalization only (bounded work)
            rep = {v: v for v in uniq}
        else:
            rep = _near_dup_groups(uniq, fuzzy_threshold)
        keys += [key] * len(uniq)
        mentions += uniq
        canon += [rep[v] for v in uniq]
    iris = ["kg:entity/" + normalize_label(c).replace(" ", "_") for c in canon]
    return pa.table(
        {
            "block_key": pa.array(keys, pa.string()),
            mention_col: pa.array(mentions, pa.string()),
            "canonical": pa.array(canon, pa.string()),
            "canonical_iri": pa.array(iris, pa.string()),
        }
    )


def canonicalize_mentions(
    mentions: ray.data.Dataset,
    *,
    mention_col: str = "mention",
    fuzzy_threshold: float = 0.75,
    hot_block_limit: int = 500,
) -> ray.data.Dataset:
    """mention rows -> (mention, canonical, canonical_iri) mapping table."""

    # combine before the merge: corpus mention streams repeat a small
    # surface-form vocabulary millions of times, so each block is reduced to
    # its distinct (mention, block_key) rows first, and blocking keys are
    # computed on distinct values only
    def distinct_keyed(b: pa.Table) -> pa.Table:
        uniq = pl.from_arrow(b.select([mention_col])).unique().to_arrow()
        return add_blocking_key(uniq, mention_col=mention_col)

    keyed = mentions.map_batches(
        distinct_keyed, batch_format="pyarrow", zero_copy_batch=True
    )
    merged = reduce_partials(
        keyed,
        keys=["block_key"],
        reduce=functools.partial(
            canonical_rows,
            mention_col=mention_col,
            fuzzy_threshold=fuzzy_threshold,
            hot_block_limit=hot_block_limit,
        ),
        columns=[mention_col, "canonical", "canonical_iri"],
    )
    return merged.select_columns([mention_col, "canonical", "canonical_iri"])

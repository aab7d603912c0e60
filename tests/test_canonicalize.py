"""Shuffle-free canonicalization: per-block distinct partials merged by
fastagg give what a ``groupby(block_key).map_groups`` union-find gives."""

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from knowledgegraphs_ray.canon import canonicalize
from knowledgegraphs_ray.canon.canonicalize import (
    _near_dup_groups,
    add_blocking_key,
    blocking_key,
    canonicalize_mentions,
)
from knowledgegraphs_ray.linking.mentions import normalize_label

COLS = ["mention", "canonical", "canonical_iri"]


def _groupby_oracle(
    mentions: ray.data.Dataset,
    *,
    mention_col: str = "mention",
    fuzzy_threshold: float = 0.75,
    hot_block_limit: int = 500,
) -> ray.data.Dataset:
    """The shuffle-based canonicalization: per-block distinct mentions, then
    ``groupby(block_key).map_groups`` running union-find per block."""
    import polars as pl

    def distinct_keyed(b: pa.Table) -> pa.Table:
        uniq = pl.from_arrow(b.select([mention_col])).unique().to_arrow()
        return add_blocking_key(uniq, mention_col=mention_col)

    keyed = mentions.map_batches(distinct_keyed, batch_format="pyarrow", zero_copy_batch=True)

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        uniq = sorted(g[mention_col].unique())
        if len(uniq) > hot_block_limit:
            rep = {v: v for v in uniq}
        else:
            rep = _near_dup_groups(uniq, fuzzy_threshold)
        out = pd.DataFrame({mention_col: uniq})
        out["canonical"] = out[mention_col].map(rep)
        out["canonical_iri"] = "kg:entity/" + out["canonical"].map(
            lambda s: normalize_label(s).replace(" ", "_")
        )
        return out

    return keyed.groupby("block_key").map_groups(merge_group, batch_format="pandas")


STEMS = ["order", "supplier", "customer", "nation", "region", "omega", "parts", "lineitem"]


def _mentions(seed: int, n: int = 600, hot: int = 0) -> pd.DataFrame:
    """Mention occurrences over the ``STEMS`` blocks: plurals, split and
    joined tokens, one-letter typos and unrelated tails, each form at least
    once and ``n`` more drawn at random; plus ``hot`` distinct forms in one
    extra block (``user0000`` ...)."""
    rng = np.random.default_rng(seed)
    forms = []
    for stem in STEMS:
        forms += [stem, stem + "s", stem + " key", stem + "key", stem + " key s"]
        forms += [stem + rng.choice(list("abcxyz")) for _ in range(3)]
        forms += [f"{stem} {t}" for t in rng.choice(["date", "total", "name", "code"], 2)]
    forms += [f"user{i:04d}" for i in range(hot)]
    occurrences = forms + list(rng.choice(forms, n))
    return pd.DataFrame({"mention": rng.permutation(occurrences)})


def _blocks(df: pd.DataFrame, n_blocks: int) -> ray.data.Dataset:
    parts = np.array_split(np.arange(len(df)), n_blocks)
    return ray.data.from_pandas([df.iloc[ix] for ix in parts])


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df[COLS].sort_values("mention").reset_index(drop=True)


def _hash_tier(monkeypatch):
    """A zero driver limit sends the merge through the hash repartition."""
    monkeypatch.setattr(
        canonicalize,
        "reduce_partials",
        functools.partial(canonicalize.reduce_partials, driver_limit=0),
    )


@pytest.mark.parametrize("tier", ["driver", "hash"])
@pytest.mark.parametrize(
    "seed,hot,limit", [(1, 0, 500), (2, 0, 500), (3, 30, 20)], ids=["s1", "s2", "hot"]
)
def test_matches_groupby_oracle(seed, hot, limit, tier, monkeypatch):
    df = _mentions(seed, hot=hot)
    blocks = {blocking_key(m) for m in df["mention"]}
    assert len(blocks) >= 6
    if hot:  # the extra block is above the limit, every stem block below it
        sizes = df["mention"].drop_duplicates().map(blocking_key).value_counts()
        assert sizes["user"] > limit and (sizes.drop("user") <= limit).all()
    want = _groupby_oracle(_blocks(df, 5), hot_block_limit=limit).to_pandas()
    if tier == "hash":
        _hash_tier(monkeypatch)
    res = canonicalize_mentions(_blocks(df, 5), hot_block_limit=limit).materialize()
    assert ("Shuffle" in res.stats()) == (tier == "hash")
    got = res.to_pandas()
    assert list(got.columns) == COLS
    assert got["mention"].is_unique
    pd.testing.assert_frame_equal(_norm(got), _norm(want))
    # the cases the oracle is compared on: merged plurals and split tokens,
    # and a hot block left exact
    canon = got.set_index("mention")["canonical"]
    assert canon["orders"] == canon["order"] == "order"
    assert canon["omega key"] == canon["omegakey"]
    if hot:
        users = canon[canon.index.str.startswith("user")]
        assert len(users) == hot and (users.index == users.values).all()


@pytest.mark.parametrize("tier", ["driver", "hash"])
def test_empty_input(tier, monkeypatch):
    empty = ray.data.from_pandas(pd.DataFrame({"mention": pd.Series([], dtype="str")}))
    assert _groupby_oracle(empty).count() == 0
    if tier == "hash":
        _hash_tier(monkeypatch)
    assert canonicalize_mentions(empty).count() == 0


def test_driver_tier_runs_no_all_to_all_operator(monkeypatch):
    """Every Dataset canonicalization executes below the driver limit is
    map-only: no shuffle, sort, aggregate or group map in the executed
    plans' stats."""
    executed = []
    materialize = ray.data.Dataset.materialize

    def recording(self):
        out = materialize(self)
        executed.append(out.stats())
        return out

    monkeypatch.setattr(ray.data.Dataset, "materialize", recording)
    out = canonicalize_mentions(_blocks(_mentions(4), 4)).materialize()
    stats = "\n".join(executed)
    for op in ("HashShuffle", "Sort", "Aggregate", "MapGroups", "Repartition", "Shuffle"):
        assert op not in stats, (op, stats)
    assert out.count() > 0

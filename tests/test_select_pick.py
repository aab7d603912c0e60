"""Shuffle-free optimal selection: the per-block pick merged by fastagg
selects what the per-mention ``select_optimal`` cascade selects."""

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from knowledgegraphs_ray.linking import select
from knowledgegraphs_ray.linking.select import (
    dense_rank_desc,
    pick_optimal,
    select_links,
    select_optimal,
)

COLS = ["mention", "cand_iri", "bes", "pj"]


def _scored(seed: int, n: int = 1500, n_mentions: int = 120) -> pd.DataFrame:
    """Random scored rows with ties in pj, IRI token length and bes, and
    duplicate (mention, cand_iri) pairs; about a third fail the filter."""
    rng = np.random.default_rng(seed)
    stems = ["a", "b", "a_b", "b_a", "a_b_c", "c_b_a"]
    return pd.DataFrame(
        {
            "mention": [f"m{i:03d}" for i in rng.integers(0, n_mentions, n)],
            "cand_iri": [
                f"kg:{stems[s]}{v}"
                for s, v in zip(rng.integers(0, len(stems), n), rng.integers(0, 3, n))
            ],
            "bes": rng.choice([0.3, 0.6, 0.7, 0.85, 0.9, 1.0], n),
            "pj": rng.choice([0.2, 0.5, 0.8, 1.0], n),
            "n_srcs": rng.integers(1, 5, n),
        }
    )


def _per_group(df: pd.DataFrame) -> pd.DataFrame:
    picks = [select_optimal(g) for _, g in df.groupby("mention")]
    return _norm(pd.concat(picks))


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df[COLS].sort_values("mention").reset_index(drop=True)


def _split(df: pd.DataFrame, n_blocks: int, seed: int) -> list[pd.DataFrame]:
    """Shuffled rows in ``n_blocks`` parts, so a mention's candidates land
    in several parts."""
    rows = df.sample(frac=1.0, random_state=seed).reset_index(drop=True)
    return [rows.iloc[ix] for ix in np.array_split(np.arange(len(rows)), n_blocks)]


def _blocks(df: pd.DataFrame, n_blocks: int, seed: int) -> ray.data.Dataset:
    return ray.data.from_pandas(_split(df, n_blocks, seed))


def test_pick_merges_in_any_order():
    df = _scored(0)
    whole = pick_optimal(pa.Table.from_pandas(df, preserve_index=False))
    parts = [
        pick_optimal(pa.Table.from_pandas(p, preserve_index=False))
        for p in _split(df, 5, seed=1)
    ]
    merged = pick_optimal(pa.concat_tables(parts[::-1]))
    pd.testing.assert_frame_equal(_norm(merged.to_pandas()), _norm(whole.to_pandas()))
    pd.testing.assert_frame_equal(_norm(whole.to_pandas()), _per_group(df))


@pytest.mark.parametrize("distributed", [False, True], ids=["driver", "distributed"])
@pytest.mark.parametrize("seed", [1, 2])
def test_select_links_matches_per_group_select_optimal(seed, distributed, monkeypatch):
    if distributed:  # a zero driver limit sends the merge through the hash repartition
        monkeypatch.setattr(
            select, "reduce_partials", functools.partial(select.reduce_partials, driver_limit=0)
        )
    df = _scored(seed)
    parts = _split(df, 6, seed=seed)
    blocks_per_mention = pd.concat(
        [p.assign(block=i) for i, p in enumerate(parts)]
    ).groupby("mention")["block"].nunique()
    assert (blocks_per_mention > 1).all()  # every mention is merged across blocks

    res = select_links(ray.data.from_pandas(parts)).materialize()
    assert ("Shuffle" in res.stats()) == distributed
    out = res.to_pandas()
    assert out["mention"].is_unique
    pd.testing.assert_frame_equal(_norm(out), _per_group(df))


def test_all_below_threshold_is_typed_empty():
    df = _scored(3).assign(bes=0.1, pj=0.0)
    out = select_links(_blocks(df, n_blocks=3, seed=3)).materialize()
    assert out.count() == 0
    schema = out.schema()
    assert schema.names[:4] == COLS
    assert [str(t) for t in schema.types[:4]] == ["string", "string", "double", "double"]


def test_optimal_selection_runs_no_all_to_all_operator(monkeypatch):
    """Every Dataset the optimal path executes is map-only: no shuffle,
    sort, aggregate or group map in the executed plans' stats."""
    executed = []
    materialize = ray.data.Dataset.materialize

    def recording(self):
        out = materialize(self)
        executed.append(out.stats())
        return out

    monkeypatch.setattr(ray.data.Dataset, "materialize", recording)
    out = select_links(_blocks(_scored(4), n_blocks=4, seed=4)).materialize()
    stats = "\n".join(executed)
    for op in ("HashShuffle", "Sort", "Aggregate", "MapGroups", "Repartition", "Shuffle"):
        assert op not in stats, (op, stats)
    assert out.count() > 0
    assert len(executed) >= 2  # the per-block picks and the result


def test_dense_rank_desc_matches_tuple_rank():
    rng = np.random.default_rng(5)
    pj = pd.Series(rng.choice([0.2, 0.5, 0.8], 200), index=rng.permutation(200))
    tok = pd.Series(rng.integers(1, 4, 200).astype(float), index=pj.index)
    by_tuple = pd.Series(list(zip(-pj, -tok)), index=pj.index).rank(method="dense")
    pd.testing.assert_series_equal(
        dense_rank_desc(pj, tok), by_tuple.astype(int), check_dtype=False
    )
    pd.testing.assert_series_equal(
        dense_rank_desc(pj), (-pj).rank(method="dense").astype(int), check_dtype=False
    )

"""Join strategies agree with each other and with pandas semantics."""

import pandas as pd
import ray.data

from knowledgegraphs_ray.extract.asof import asof_join
from knowledgegraphs_ray.extract.joins import broadcast_join, bucket_join, native_join


def _sides():
    left = ray.data.from_items(
        [
            {"k": 1, "lv": "a"},
            {"k": 2, "lv": "b"},
            {"k": 2, "lv": "c"},
            {"k": 9, "lv": "d"},  # dangling
        ]
    )
    right = ray.data.from_items(
        [{"k": 1, "rv": "X"}, {"k": 2, "rv": "Y"}, {"k": 3, "rv": "Z"}]
    )
    return left, right


def _norm(df: pd.DataFrame, cols=("k", "lv", "rv")) -> set:
    return set(map(tuple, df[list(cols)].astype(str).itertuples(index=False)))


def test_three_join_strategies_agree():
    left, right = _sides()
    b = broadcast_join(left, right, left_on="k", right_on="k").to_pandas()
    n = native_join(left, right, left_on="k", right_on="k", num_partitions=4).to_pandas()
    h = bucket_join(left, right, left_on="k", right_on="k", n_buckets=4).to_pandas()
    expect = {("1", "a", "X"), ("2", "b", "Y"), ("2", "c", "Y")}
    assert _norm(b) == expect
    assert _norm(n) == expect
    assert _norm(h) == expect


def test_broadcast_semi_anti():
    left, right = _sides()
    semi = broadcast_join(left, right, left_on="k", right_on="k", how="semi").to_pandas()
    anti = broadcast_join(left, right, left_on="k", right_on="k", how="anti").to_pandas()
    assert set(semi["lv"]) == {"a", "b", "c"}
    assert set(anti["lv"]) == {"d"}


def _ts(s):
    return pd.Timestamp(s)


def test_asof_join_strict_and_missing():
    left = ray.data.from_items(
        [
            {"k": 1, "ts": _ts("2024-01-01 10:00"), "event": "p1"},
            {"k": 1, "ts": _ts("2024-01-01 12:00"), "event": "p2"},
            {"k": 2, "ts": _ts("2024-01-01 09:00"), "event": "p3"},  # no prior view
        ]
    )
    right = ray.data.from_items(
        [
            {"k": 1, "ts": _ts("2024-01-01 10:00"), "view": "v0"},  # == p1 ts
            {"k": 1, "ts": _ts("2024-01-01 11:00"), "view": "v1"},
            {"k": 2, "ts": _ts("2024-01-01 23:00"), "view": "v2"},  # after p3
        ]
    )
    out = asof_join(left, right, key="k", ts_col="ts", right_cols=["view"], strict=True)
    df = out.to_pandas().set_index("event")
    assert pd.isna(df.loc["p1", "view"])  # strict: equal ts does not match
    assert df.loc["p2", "view"] == "v1"
    assert pd.isna(df.loc["p3", "view"])

    out2 = asof_join(left, right, key="k", ts_col="ts", right_cols=["view"], strict=False)
    df2 = out2.to_pandas().set_index("event")
    assert df2.loc["p1", "view"] == "v0"  # inclusive


def test_asof_join_preserves_int64_above_2_53():
    """Snowflake-style ids (> 2^53) must survive the as-of join bit-exact in
    BOTH strategies — the nullable-int widening must not round-trip through
    float64 (ADVICE r2)."""
    big = (1 << 60) + 12345  # not representable in float64
    left = ray.data.from_items(
        [
            {"k": 1, "ts": _ts("2024-01-01 12:00"), "lid": big},
            {"k": 1, "ts": _ts("2024-01-01 09:00"), "lid": big + 1},  # no match
        ]
    )
    right = ray.data.from_items(
        [{"k": 1, "ts": _ts("2024-01-01 11:00"), "rid": big + 7}]
    )
    for strategy in ("scan", "group"):
        df = asof_join(
            left, right, key="k", ts_col="ts", right_cols=["rid"],
            strategy=strategy,
        ).to_pandas().set_index("lid")
        assert big in df.index and big + 1 in df.index, strategy
        assert int(df.loc[big, "rid"]) == big + 7, strategy
        assert pd.isna(df.loc[big + 1, "rid"]), strategy


def test_interval_join_matches_naive_and_bin_invariant():
    """Binned-replication range join == naive cross filter; identical at
    different bin widths (a pair surfaces only in the point's bin)."""
    import numpy as np

    from knowledgegraphs_ray.extract.rangejoin import interval_join

    rng = np.random.default_rng(4)
    pts = pd.DataFrame(
        {
            "pid": np.arange(200, dtype="int64"),
            "k": rng.integers(0, 5, 200).astype("int64"),
            "t": rng.integers(0, 10_000, 200).astype("int64"),
        }
    )
    lo = rng.integers(0, 9_000, 40).astype("int64")
    iv = pd.DataFrame(
        {
            "k": rng.integers(0, 5, 40).astype("int64"),
            "lo": lo,
            "hi": lo + rng.integers(1, 3_000, 40).astype("int64"),
            "iid": np.arange(40, dtype="int64"),
        }
    )
    naive = pts.merge(iv, on="k").query("lo <= t <= hi")[["pid", "iid"]]
    expect = set(map(tuple, naive.itertuples(index=False)))

    for width in (500, 1700):
        got = interval_join(
            ray.data.from_pandas(pts).repartition(4),
            ray.data.from_pandas(iv).repartition(3),
            point_col="t",
            lo_col="lo",
            hi_col="hi",
            key="k",
            bin_width=width,
            n_buckets=8,
        ).to_pandas()
        assert set(zip(got["pid"], got["iid"])) == expect, width

    # auto-tuned bin width (None -> median interval length) — identical pairs
    auto = interval_join(
        ray.data.from_pandas(pts).repartition(4),
        ray.data.from_pandas(iv).repartition(3),
        point_col="t",
        lo_col="lo",
        hi_col="hi",
        key="k",
        n_buckets=8,
    ).to_pandas()
    assert set(zip(auto["pid"], auto["iid"])) == expect


def test_interval_join_preserves_int64_above_2_53():
    """Interval-join payloads above 2^53 survive the widened shuffle
    bit-exact (nullable Int64 placeholders, no float64 round-trip)."""
    big = (1 << 60) + 99
    pts = pd.DataFrame({"pid": [big, big + 1], "t": [5, 50_000]})
    iv = pd.DataFrame({"lo": [0], "hi": [10], "iid": [big + 7]})
    from knowledgegraphs_ray.extract.rangejoin import interval_join

    got = interval_join(
        ray.data.from_pandas(pts),
        ray.data.from_pandas(iv),
        point_col="t",
        lo_col="lo",
        hi_col="hi",
        bin_width=10,
    ).to_pandas()
    assert got["pid"].tolist() == [big] and got["iid"].tolist() == [big + 7]


def test_hopping_window_counts():
    """Every event lands in exactly window/hop hopping windows."""
    from knowledgegraphs_ray.streaming.windows import hopping_window_agg

    ts = pd.to_datetime([1_000_000_000 + x for x in (0, 10, 1800, 3599, 3600)], unit="s")
    ds = ray.data.from_pandas(
        pd.DataFrame({"user_id": [1, 1, 1, 2, 2], "ts": ts, "value": 1.0})
    )
    out = hopping_window_agg(ds, window_sec=3600, hop_sec=900).to_pandas()
    # total (event, window) memberships = n_events * window/hop
    assert out["n_events"].sum() == 5 * 4
    # an event at second s is in windows s-3600 < w <= s (w multiple of 900)
    e0 = out[(out["user_id"] == 1)]
    assert set(e0["window_start"]) >= {999997200, 999998100, 999999000, 999999900}


def test_asof_scan_matches_group_strategy_randomized():
    """Merge-scan as-of == per-key merge_asof on random keyed data with
    unique (key, ts) and straddling blocks."""
    import numpy as np

    from knowledgegraphs_ray.extract.asof import asof_join

    rng = np.random.default_rng(12)
    n_l, n_r = 400, 300
    lt = pd.DataFrame(
        {
            "k": rng.integers(0, 6, n_l).astype("int64"),
            "ts": pd.to_datetime(
                1_000_000_000 + rng.choice(50_000, n_l, replace=False), unit="s"
            ),
            "lv": np.arange(n_l, dtype="int64"),
        }
    )
    rt = pd.DataFrame(
        {
            "k": rng.integers(0, 6, n_r).astype("int64"),
            "ts": pd.to_datetime(
                1_000_000_000 + rng.choice(50_000, n_r, replace=False) + 100_000,
                unit="s",
            ),
            "rv": np.arange(n_r, dtype="int64") + 1000,
        }
    )
    # overlap the ranges so some rows match and some don't
    rt.loc[: n_r // 2, "ts"] -= pd.Timedelta(seconds=100_000)
    lds = ray.data.from_pandas(lt).repartition(7)
    rds = ray.data.from_pandas(rt).repartition(5)
    for strict in (True, False):
        a = (
            asof_join(lds, rds, key="k", ts_col="ts", right_cols=["rv"], strict=strict)
            .to_pandas()
            .sort_values(["k", "ts"])
            .reset_index(drop=True)
        )
        b = (
            asof_join(
                lds, rds, key="k", ts_col="ts", right_cols=["rv"],
                strict=strict, strategy="group",
            )
            .to_pandas()
            .sort_values(["k", "ts"])
            .reset_index(drop=True)
        )
        cols = sorted(a.columns)
        pd.testing.assert_frame_equal(a[cols], b[cols], check_dtype=False)


def test_native_join_compacts_zero_row_blocks():
    """The documented Ray hash-shuffle flake: 0-row (schema-poisoned)
    blocks on a join side.  native_join's centralized compaction (r5)
    must drop them via block metadata and return the exact join result."""
    import pyarrow as pa

    from knowledgegraphs_ray.extract.joins import native_join
    from knowledgegraphs_ray.util.blocks import drop_empty_blocks

    lt = pd.DataFrame({"k": [1, 2, 3, 4], "lv": [10, 20, 30, 40]})
    rt = pd.DataFrame({"k": [2, 3, 5], "rv": [200, 300, 500]})
    # over-partitioning tiny data guarantees 0-row blocks on both sides
    lds = ray.data.from_pandas(lt).repartition(16)
    rds = ray.data.from_pandas(rt).repartition(16)

    # drop_empty_blocks invariants
    c = drop_empty_blocks(lds)
    sizes = [
        m.num_rows for b in c.iter_internal_ref_bundles() for m in b.metadata
    ]
    assert all(s > 0 for s in sizes) and sum(sizes) == 4
    # no-empties input passes through with blocks untouched
    c2 = drop_empty_blocks(c)
    assert c2.count() == 4
    # all-empty input is returned as-is (caller short-circuits on count)
    empty = ray.data.from_arrow(
        pa.schema([("k", pa.int64())]).empty_table()
    )
    assert drop_empty_blocks(empty).count() == 0

    out = (
        native_join(lds, rds, left_on="k", right_on="k", num_partitions=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = lt.merge(rt, on="k").sort_values("k").reset_index(drop=True)
    cols = sorted(out.columns)
    pd.testing.assert_frame_equal(out[cols], exp[cols], check_dtype=False)


def test_native_join_aggregators_fit_the_cluster():
    """Every aggregator of a wide join can be placed at once: the pool
    reserves at most half the cluster's ``memory`` resource (Ray's own
    sizing asks 896 MiB each, more than a 15 GB host has for 16), and the
    join with one aggregator per partition finishes."""
    from knowledgegraphs_ray.extract.joins import join_aggregator_args

    memory = ray.cluster_resources()["memory"]
    for n in (2, 16, 64):
        args = join_aggregator_args(n)
        assert 0 < args["memory"] * n <= memory / 2
        assert args["num_cpus"] == 0.125
    left = ray.data.range(64).map_batches(
        lambda df: df.assign(lv=df["id"] * 2), batch_format="pandas"
    )
    right = ray.data.range(64).map_batches(
        lambda df: df.assign(rv=df["id"] * 3), batch_format="pandas"
    )
    out = native_join(
        left, right, left_on="id", right_on="id", num_partitions=16
    ).to_pandas()
    assert sorted(out["id"]) == list(range(64))
    assert (out["lv"] * 3 == out["rv"] * 2).all()

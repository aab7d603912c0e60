"""Transcript -> knowledge-graph pipeline (the flagship, per BASELINE.json).

Input shape (input_hint): Parquet table of multi-turn conversation / agent
transcripts ``(conv_id:string, turn_idx:int32, role:string, text:string,
tool:string, ts:timestamp)``.

Stages (SURVEY.md §7.1):

1. ``ordered_transcripts`` — groupby(conv_id) + in-group sort by turn_idx:
   the stable-ordering shuffle the north_rule requires before any
   text-sensitive kernel (reference analogue: natural file order the Java
   pipeline implicitly relies on; here made explicit, T8).
2. ``TranscriptTripleKernel`` — vectorized map_batches emitting the
   conversation/turn ontology triples (rule-compiled shape: Conversation /
   Turn classes, p_turn_conversation link, has_*_VALUE data props — naming
   per util/Annotations.java:41-78). **No shuffle**: conversation-level
   triples are emitted from the ``turn_idx == 0`` row of each conversation
   (every conversation has one), so the kernel never needs cross-row state.
3. Downstream: mention extraction / linking / canonicalization
   (``linking``, ``canon`` packages) and edge sinks (``sinks``).

At 10^12-turn scale the only all-to-all exchange in this module is the
optional ordering shuffle of stage 1; triple emission itself is map-only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from knowledgegraphs_ray.extract.kernel import (
    TRIPLE_SCHEMA_ENC,
    _all_true,
    _const,
    _const_dict,
    _valid_mask,
)

KG = "kg:"

# deterministic event_type -> role mapping used when deriving transcripts
# from the testdata ``events`` stream (same CASE expression in oracle SQL)
EVENT_ROLE = {
    "signup": "system",
    "login": "user",
    "click": "user",
    "view": "user",
    "purchase": "assistant",
    "error": "tool",
}

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def transcripts_from_events(sf_dir: str, *, strategy: str = "segrank") -> ray.data.Dataset:
    """Derive a deterministic transcript table from the ``events`` table.

    conv_id = 'conv' + zero-padded user_id; turn_idx = rank of (ts, event_id)
    within the conversation; role = EVENT_ROLE[event_type]; text = props;
    tool = event_type.

    strategy="segrank" (default): ONE distributed sort on
    (user_id, ts, event_id) + vectorized per-block cumcount with O(num_blocks)
    boundary fix-up (``util.segrank``) — no per-conversation Python UDF.
    strategy="group": the literal groupby(user_id) + per-group sort, kept as
    the semantic reference for tests (~1ms Python per conversation — ruinous
    at 10^10 conversations).
    """
    cols = ["event_id", "user_id", "ts", "event_type", "props"]
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=cols)

    if strategy == "group":

        def to_turns(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["ts", "event_id"], kind="mergesort")
            uid = int(g["user_id"].iloc[0])
            return pd.DataFrame(
                {
                    "conv_id": f"conv{uid:08d}",
                    "turn_idx": np.arange(len(g), dtype=np.int32),
                    "role": g["event_type"].map(EVENT_ROLE).fillna("user").to_numpy(),
                    "text": g["props"].to_numpy(),
                    "tool": g["event_type"].to_numpy(),
                    "ts": g["ts"].to_numpy(),
                }
            )

        return ds.groupby("user_id").map_groups(to_turns, batch_format="pandas")

    from knowledgegraphs_ray.util.segrank import sorted_segment_rank

    ranked = sorted_segment_rank(
        ds, key_cols=["user_id"], order_cols=["ts", "event_id"], rank_col="turn_idx"
    )

    def finalize(batch: pa.Table) -> pa.Table:
        uid = pc.cast(batch["user_id"], pa.string())
        conv = pc.binary_join_element_wise(
            pa.scalar("conv"), pc.utf8_lpad(uid, width=8, padding="0"), ""
        )
        etype = batch["event_type"].combine_chunks()
        role = pa.array(
            pd.Series(etype.to_numpy(zero_copy_only=False))
            .map(EVENT_ROLE)
            .fillna("user")
            .to_numpy(),
            pa.string(),
        )
        return pa.table(
            {
                "conv_id": conv,
                "turn_idx": batch["turn_idx"],
                "role": role,
                "text": batch["props"],
                "tool": etype,
                "ts": batch["ts"].cast(pa.timestamp("us")),
            },
            schema=TRANSCRIPT_SCHEMA,
        )

    return ranked.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


def ordered_transcripts(ds: ray.data.Dataset, *, strategy: str = "sort") -> ray.data.Dataset:
    """Stable per-conversation turn order (north_rule T8).

    strategy="sort" (default): one distributed range-partitioned sort on
    (conv_id, turn_idx) — global order implies per-conversation order, and
    Ray's sort is a vectorized C path. strategy="group": the literal
    groupby(conv_id) + in-group sort; semantically identical but pays a
    Python UDF call per conversation (~1ms each — ruinous at 10^10
    conversations), kept for small keyed workloads that need custom
    per-group logic anyway."""
    if strategy == "sort":
        return ds.sort(["conv_id", "turn_idx"])

    def sort_group(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("turn_idx", kind="mergesort")

    return ds.groupby("conv_id").map_groups(sort_group, batch_format="pandas")


def turn_iri(batch: pa.Table) -> pa.Array:
    """Turn IRI per row, ``kg:conversation/<conv_id>/t<turn_idx>``: the one
    place the format is written, shared by the triple kernel (turn
    subjects) and mention extraction (mention-edge subjects)."""
    return pc.binary_join_element_wise(
        pa.scalar(KG + "conversation/"),
        batch["conv_id"].combine_chunks(),
        pa.scalar("/t"),
        pc.cast(batch["turn_idx"], pa.string()).combine_chunks(),
        "",
    )


class TranscriptTripleKernel:
    """Arrow batch of turns -> (subj, pred, obj) triples. Pure / map-only.

    conv IRI = kg:conversation/<conv_id>; turn IRI = ``turn_iri``.
    Conversation-level triples ride on the turn_idx==0 row.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return TRIPLE_SCHEMA_ENC.empty_table()
        conv = pc.binary_join_element_wise(
            pa.scalar(KG + "conversation/"), batch["conv_id"].combine_chunks(), ""
        )
        turn = turn_iri(batch)
        out: list[pa.Table] = []

        def emit(s, pred, o, mask=None):
            t = pa.table(
                {"subj": s, "pred": _const_dict(pred, len(s)), "obj": o},
                schema=TRIPLE_SCHEMA_ENC,
            )
            if mask is not None and not _all_true(mask):
                t = t.filter(mask)
            out.append(t)

        first = pc.equal(batch["turn_idx"].combine_chunks(), pa.scalar(0, pa.int32()))
        emit(conv, "rdf:type", _const(KG + "Conversation", n), first)
        emit(turn, "rdf:type", _const(KG + "Turn", n))
        emit(turn, KG + "p_turn_conversation", conv)
        for col, dtype in (("role", "varchar"), ("text", "varchar"), ("tool", "varchar")):
            arr = batch[col].combine_chunks()
            emit(turn, KG + f"has_{col}_VALUE", arr, _valid_mask(arr, dtype))
        ts = pc.strftime(
            batch["ts"].combine_chunks().cast(pa.timestamp("s"), safe=False),
            format="%Y-%m-%d %H:%M:%S",
        )
        emit(turn, KG + "has_ts_VALUE", ts, pc.is_valid(ts))
        return pa.concat_tables(out)


def extract_transcript_triples(ds: ray.data.Dataset) -> ray.data.Dataset:
    # one kernel call per input block: the triples keep the input's
    # partitioning, so the files ``edges`` adopts (and the N-Triples sink
    # reads, one task per file) are as many as the input's blocks
    return ds.map_batches(
        TranscriptTripleKernel(),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


def with_context_window(
    ds: ray.data.Dataset,
    *,
    k: int = 2,
    strategy: str = "halo",
    assume_sorted: bool = False,
) -> ray.data.Dataset:
    """X2 analogue: per-turn context = concatenated text of the ±k
    neighbouring turns within the SAME conversation (reference: AAExpansion
    context scoring against the ±2 header window, InterpretHeaders.py:163-298;
    for transcripts the window is the conversation — north_star's
    'within-conversation window').

    strategy="halo" (default): ONE distributed sort on (conv_id, turn_idx),
    then each block computes contexts vectorized using k-row halos sliced
    from its neighbour blocks (object-store refs; no driver data path, no
    per-conversation Python). strategy="group": the literal per-conversation
    pandas path, kept as the semantic reference for tests."""
    if strategy == "halo":
        from knowledgegraphs_ray.util.segrank import with_neighbor_context

        return with_neighbor_context(
            ds,
            key_cols=["conv_id"],
            order_cols=["turn_idx"],
            text_col="text",
            k=k,
            assume_sorted=assume_sorted,
        )

    def per_conv(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("turn_idx", kind="mergesort").reset_index(drop=True)
        texts = g["text"].fillna("").tolist()
        ctx = []
        for i in range(len(g)):
            lo, hi = max(0, i - k), min(len(g), i + k + 1)
            ctx.append(" ".join(texts[lo:i] + texts[i + 1 : hi]))
        g["context"] = ctx
        return g

    return ds.groupby("conv_id").map_groups(per_conv, batch_format="pandas")


# ---------------------------------------------------------------------------
# Transcript analytics: tool-call transitions + per-conversation stats
#
# Agent-transcript curation needs corpus-level views of what the agents
# actually DID: which tool follows which (a Markov transition count matrix
# over the ``tool`` column) and per-conversation shape statistics (turn
# counts by role, tool-call volume, text mass) for filtering/stratifying
# SFT data.  Both are integer-exact with window-function DuckDB twins.


def tool_transitions(
    ds: ray.data.Dataset,
    *,
    conv_col: str = "conv_id",
    order_col: str = "turn_idx",
    tool_col: str = "tool",
    assume_sorted: bool = False,
) -> ray.data.Dataset:
    """(tool_from, tool_to, n_transitions): for every adjacent turn pair
    WITHIN a conversation, count the (this turn's tool -> next turn's tool)
    transitions; pairs where either side is null are dropped.

    Scale shape: ``lead()`` comes from the O(num_blocks) single-row halo
    walk over the (conv, turn)-sorted stream (``util.segrank`` — pass
    ``assume_sorted=True`` when upstream already sorted, e.g.
    ``transcripts_from_events``), then per-block partial counts merge by
    the ≤ |tools|² transition keys — the transcript text never shuffles
    and the exchange carries vocabulary-sized count rows only.
    """
    from knowledgegraphs_ray.util.fastagg import sum_partials
    from knowledgegraphs_ray.util.segrank import lead_within_group

    led = lead_within_group(
        ds.select_columns([conv_col, order_col, tool_col]),
        key_cols=[conv_col],
        order_cols=[order_col],
        cols=[tool_col],
        assume_sorted=assume_sorted,
    )
    lead_col = f"lead_{tool_col}"

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df[tool_col].notna() & df[lead_col].notna()]
        g = d.groupby([tool_col, lead_col], as_index=False).size()
        g.columns = ["tool_from", "tool_to", "n_transitions"]
        g["n_transitions"] = g["n_transitions"].astype("int64")
        return g

    parts = led.map_batches(partial, batch_format="pandas")
    return sum_partials(
        parts, keys=["tool_from", "tool_to"], sum_cols=["n_transitions"]
    )


def tool_transitions_oracle_sql() -> str:
    """DuckDB twin over the raw ``events`` view: the same conversation
    derivation as :func:`transcripts_from_events` (conv = user, order =
    (ts, event_id), tool = event_type) expressed as a ``lead()`` window."""
    return (
        "SELECT tool_from, tool_to, count(*)::BIGINT AS n_transitions FROM ("
        "  SELECT event_type AS tool_from, "
        "         lead(event_type) OVER ("
        "           PARTITION BY user_id ORDER BY ts, event_id) AS tool_to"
        "  FROM events"
        ") WHERE tool_to IS NOT NULL GROUP BY tool_from, tool_to"
    )


def conversation_stats(
    ds: ray.data.Dataset,
    *,
    conv_col: str = "conv_id",
    role_col: str = "role",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Per-conversation shape statistics: (conv_id, n_turns, n_user,
    n_assistant, n_tool_calls, total_chars) — the SFT-curation filter
    inputs (drop single-turn convs, cap tool-heavy ones, stratify by
    length).

    Scale shape: per-block partial aggregates (a conversation's rows may
    span blocks) merge by conv_id — one exchange of conversation-sized
    slim integer rows; text never shuffles.
    """
    from knowledgegraphs_ray.util.fastagg import sum_partials

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "conv_id": df[conv_col],
                "n_turns": np.int64(1),
                "n_user": (df[role_col] == "user").astype("int64"),
                "n_assistant": (df[role_col] == "assistant").astype("int64"),
                "n_tool_calls": (df[role_col] == "tool").astype("int64"),
                "total_chars": df[text_col].str.len().fillna(0).astype("int64"),
            }
        )
        return out.groupby("conv_id", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pandas")
    return sum_partials(
        parts,
        keys=["conv_id"],
        sum_cols=["n_turns", "n_user", "n_assistant", "n_tool_calls", "total_chars"],
    )


def conversation_fingerprints(
    ds: ray.data.Dataset,
    *,
    conv_col: str = "conv_id",
    order_col: str = "turn_idx",
    text_col: str = "text",
    assume_sorted: bool = False,
) -> ray.data.Dataset:
    """(conv_id, conv_md5): an order-sensitive whole-conversation content
    fingerprint — md5 of the turn texts joined in turn order with a \\x1f
    separator. THE conversation-level exact-dedup key (two convs match iff
    every turn text matches in order; turn-level hashing can't see order).

    Scale shape: ``util.segrank.ordered_concat_per_group`` — one sort
    (skippable), vectorized per-block piece emission, one piece exchange
    (text moves once), then one md5 per OUTPUT row (conversation-sized,
    the ``state/diff.py`` per-row pattern). Null turn texts are skipped
    (string_agg semantics; twin uses HAVING count(text) > 0)."""
    import hashlib

    from knowledgegraphs_ray.util.segrank import ordered_concat_per_group

    agg = ordered_concat_per_group(
        ds.select_columns([conv_col, order_col, text_col]),
        key_cols=[conv_col],
        order_cols=[order_col],
        text_col=text_col,
        sep="\x1f",
        out_col="__agg",
        assume_sorted=assume_sorted,
    )

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(t.encode()).hexdigest() for t in df["__agg"]]
        return pd.DataFrame({conv_col: df[conv_col], "conv_md5": h})

    return agg.map_batches(kern, batch_format="pandas")


def conversation_fingerprints_oracle_sql() -> str:
    """DuckDB twin: ordered string_agg over the events-derived transcript."""
    return (
        "SELECT 'conv' || lpad(CAST(user_id AS VARCHAR), 8, '0') AS conv_id, "
        "md5(string_agg(props, chr(31) ORDER BY ts, event_id)) AS conv_md5 "
        "FROM events GROUP BY user_id HAVING count(props) > 0"
    )


def conversation_stats_oracle_sql() -> str:
    """DuckDB twin over ``events`` with the shared EVENT_ROLE case map."""
    role_case = (
        "CASE event_type "
        + " ".join(f"WHEN '{k}' THEN '{v}'" for k, v in EVENT_ROLE.items())
        + " ELSE 'user' END"
    )
    return (
        "SELECT 'conv' || lpad(CAST(user_id AS VARCHAR), 8, '0') AS conv_id, "
        "count(*)::BIGINT AS n_turns, "
        f"sum(CASE WHEN {role_case} = 'user' THEN 1 ELSE 0 END)::BIGINT AS n_user, "
        f"sum(CASE WHEN {role_case} = 'assistant' THEN 1 ELSE 0 END)::BIGINT"
        " AS n_assistant, "
        f"sum(CASE WHEN {role_case} = 'tool' THEN 1 ELSE 0 END)::BIGINT"
        " AS n_tool_calls, "
        "sum(length(props))::BIGINT AS total_chars "
        "FROM events GROUP BY user_id"
    )


# ---------------------------------------------------------------------------
# Deterministic synthetic transcripts (FIXTURES.md F1) — distributed generator


_ROLES = np.array(["user", "assistant", "system", "tool"])
_TOOLS = np.array(["search", "code", "db", ""])  # "" -> null
_VOCAB = np.array(
    "the customer order part supplier nation region account balance ship "
    "query filter join merge sort scan batch stream window value data "
    "none null - acct mgr qty amt".split()
)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Counter-based hash (splitmix64): deterministic per input, vectorized."""
    with np.errstate(over="ignore"):
        z = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def synth_transcripts(
    n_convs: int = 50, *, seed: int = 42, parallelism: int = 4
) -> ray.data.Dataset:
    """Deterministic synthetic transcript table (FIXTURES.md F1): Zipf-skewed
    conversation lengths, hot low-cardinality roles, template text embedding
    entity mentions / null sentinels, exact duplicates every 7th turn, turn
    rows shuffled within each generated block so per-conv ordering is
    actually exercised.

    Fully vectorized: every random choice is a counter-based splitmix64 hash
    of (seed, conv_id, turn_idx, stream) ⇒ identical output at any
    parallelism or batching, with NO per-conversation Python loop.
    """

    def gen(batch: dict[str, np.ndarray]) -> pa.Table:
        import polars as pl

        cids = batch["id"].astype(np.uint64)
        base_seed = np.uint64(seed)

        def h(counter: np.ndarray, stream: int) -> np.ndarray:
            with np.errstate(over="ignore"):
                return _splitmix64(
                    counter * np.uint64(0x100000001B3)
                    + base_seed * np.uint64(0x9E3779B1)
                    + np.uint64(stream)
                )

        # Zipf(1.6)-ish lengths via inverse CDF: n = floor(u^(-1/0.6)), clipped
        u = (h(cids, 1) >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        n_turns = np.clip(
            np.floor(np.power(np.maximum(u, 1e-12), -1.0 / 0.6)), 1, 200
        ).astype(np.int64)
        total = int(n_turns.sum())
        conv_rep = np.repeat(cids, n_turns)
        offsets = np.concatenate([[0], np.cumsum(n_turns)])
        turn_idx = (np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], n_turns))
        key = conv_rep * np.uint64(1_000_003) + turn_idx.astype(np.uint64)

        roles = _ROLES[(h(key, 2) % np.uint64(len(_ROLES))).astype(np.int64)]
        tools = _TOOLS[(h(key, 3) % np.uint64(len(_TOOLS))).astype(np.int64)]
        word_cols = [
            pl.Series(
                f"w{j}",
                _VOCAB[(h(key, 10 + j) % np.uint64(len(_VOCAB))).astype(np.int64)],
            )
            for j in range(8)
        ]
        texts = (
            pl.DataFrame(word_cols)
            .select(pl.concat_str([pl.col(f"w{j}") for j in range(8)], separator=" "))
            .to_series()
            .to_numpy()
        )
        # exact duplicates: every 7th turn repeats the conversation's turn 0
        first_idx = np.repeat(offsets[:-1], n_turns)
        dup_mask = (turn_idx % 7 == 0) & (turn_idx > 0)
        texts[dup_mask] = texts[first_idx[dup_mask]]

        base = np.datetime64("2024-01-01T00:00:00", "us")
        ts = (
            base
            + conv_rep.astype("timedelta64[h]").astype("timedelta64[us]")
            + turn_idx.astype("timedelta64[m]").astype("timedelta64[us]")
        )
        conv_names = pl.Series("c", conv_rep.astype(np.int64))
        conv_str = (
            pl.DataFrame([conv_names])
            .select(("conv" + pl.col("c").cast(pl.Utf8).str.zfill(8)).alias("conv_id"))
            .to_series()
            .to_numpy()
        )
        # shuffled row order within the block (deterministic permutation)
        perm = np.argsort(h(key, 99), kind="stable")
        return pa.table(
            {
                "conv_id": pa.array(conv_str[perm], pa.string()),
                "turn_idx": pa.array(turn_idx[perm].astype(np.int32), pa.int32()),
                "role": pa.array(roles[perm], pa.string()),
                "text": pa.array(texts[perm], pa.string()),
                "tool": pa.array(
                    np.where(tools[perm] == "", None, tools[perm]), pa.string()
                ),
                "ts": pa.array(ts[perm], pa.timestamp("us")),
            }
        )

    return (
        ray.data.range(n_convs, override_num_blocks=parallelism)
        .map_batches(gen, batch_format="numpy")
    )

"""End-to-end entity linking + canonicalization pipelines.

Flow (SURVEY.md §7.1 mentions branch):
    corpus -> extract_mentions (broadcast dictionary, map-only)
           -> link_mentions: distinct mentions (per-block counts, one merge)
                -> abbreviation expansion (when a dictionary is configured)
                -> exact label map, or
                   generate_candidates (broadcast IDF inverted index, J2)
                   -> score_candidates (B1 stand-in, fused into the
                      candidate-generation task)
                   -> select_links: per-block best candidate per mention
                      (pick_optimal, map-only) -> one merge of the picks
                      (fastagg.reduce_partials)                       (T2-T5)
           -> canonicalize_mentions (blocking key + union-find, A4)

Documents (``link_scored``), flagship transcripts and the context-aware
transcript path all run the same candidate -> score -> select chain over
distinct mentions. The context path first reduces its turns to one
``ctx_score`` per (mention, candidate) — per-block maxima of the
context similarity, merged by ``fastagg.merge_partials`` — and blends it
into bes before selection, so each (mention, candidate) is scored once.

Linking itself runs no shuffle: the distinct-mention count, the context
maxima and the link selection are per-block partials merged on the driver
(a hash repartition or Ray aggregate only above ``fastagg``'s driver
limit). Besides the context path's (conv_id, turn_idx) sort, the one
shuffle is the canonicalization blocking groupby, keyed on (short) mention
strings after the corpus has been reduced to mention rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from knowledgegraphs_ray.canon.canonicalize import canonicalize_mentions
from knowledgegraphs_ray.config import PipelineConfig
from knowledgegraphs_ray.linking.index import (
    AnnotationIndex,
    generate_candidates,
    ontology_labels_from_rules,
)
from knowledgegraphs_ray.linking.mentions import (
    extract_mentions,
    mention_tokens,
    normalize_label,
)
from knowledgegraphs_ray.linking.scorer import char_ngrams, score_candidates
from knowledgegraphs_ray.linking.select import select_links
from knowledgegraphs_ray.rules.compiler import compile_rules
from knowledgegraphs_ray.schema.model import tpch_schema

STAR_TABLES = ["region", "nation", "customer", "supplier", "part", "orders", "lineitem"]


def star_ontology_index(tables: list[str] | None = None) -> AnnotationIndex:
    """Annotation index over the compiled star-schema ontology (the "DO")."""
    rules = compile_rules(tpch_schema(tables or STAR_TABLES))
    return AnnotationIndex.build(ontology_labels_from_rules(rules))


def single_token_class_labels(index: AnnotationIndex) -> dict[str, str]:
    """label -> iri for single-token class labels (the exact-match surface).

    Deterministic tie-break: smallest IRI wins a shared label."""
    out: dict[str, str] = {}
    for iri, labels in sorted(index.labels.items()):
        for lab in labels:
            if " " not in lab and lab and not iri.startswith("kg:p_") and not iri.startswith("kg:has_"):
                out.setdefault(lab, iri)
    return out


def document_mentions(
    sf_dir: str, forms: set[str] | None = None
) -> ray.data.Dataset:
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    if forms is None:
        forms = set(single_token_class_labels(star_ontology_index()))
    return extract_mentions(ds, forms, id_col="doc_id")


def link_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact annotation match (J3/J4): mention token == class label -> link."""
    index = star_ontology_index()
    label2iri = single_token_class_labels(index)
    mentions = document_mentions(sf_dir, set(label2iri))

    def attach(batch: pa.Table) -> pa.Table:
        iris = [label2iri[m] for m in batch["mention"].to_pylist()]
        return batch.append_column("entity_iri", pa.array(iris, pa.string()))

    return mentions.map_batches(attach, batch_format="pyarrow")


def link_mentions(
    mentions: ray.data.Dataset, index: AnnotationIndex, cfg: PipelineConfig
) -> ray.data.Dataset:
    """Link mention rows (a ``mention`` column, one row per occurrence) to
    ``index`` entities: one selected link per distinct mention STRING.

    Selection is per surface form (the reference selects one mapping per
    source element, MappingSelection.java:62-86) — the dedup-embed pattern:
    score each surface form once, join links back to occurrences downstream
    (J1). ``cfg.mapper == "exact"`` maps label == mention with bes = pj = 1
    and runs no scorer."""
    from knowledgegraphs_ray.util.fastagg import sum_partials

    # combine-before-shuffle: per-block value_counts -> vocabulary-sized
    # partial rows -> fastagg merge (distributed fallback above
    # driver_limit). A native groupby here shuffled every mention OCCURRENCE
    # (23.7M rows on the 1M-conversation soak) to count a small distinct set.
    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["mention"].value_counts()
        return pd.DataFrame(
            {"mention": vc.index, "n_srcs": vc.to_numpy().astype("int64")}
        )

    distinct = sum_partials(
        mentions.select_columns(["mention"]).map_batches(
            partial_counts, batch_format="pandas"
        ),
        keys=["mention"],
        sum_cols=["n_srcs"],
    )

    # X3/X5: abbreviated surface forms expand against the dictionary before
    # candidate generation (AAExpansion analogue); selections map back to
    # every original abbreviation afterwards
    inv_map: dict[str, list[str]] = {}
    own_srcs: dict[str, int] = {}
    if cfg.abbrev_dictionary:
        from knowledgegraphs_ray.linking.abbrev import expand_abbreviations

        # read three times below (expansion, own counts, swap): merge once
        distinct = distinct.materialize()
        exp = expand_abbreviations(distinct, cfg.abbrev_dictionary).to_pandas()
        fwd = (
            dict(zip(exp["abbrev"], exp["expansion"]))  # vocabulary-sized
            if not exp.empty and "abbrev" in exp.columns
            else {}
        )
        for a, e in fwd.items():
            inv_map.setdefault(e, []).append(a)
        # each abbreviation's and expansion's own count, before the swap
        # merges them into one row (vocabulary-sized, on the driver)
        forms = set(fwd) | set(inv_map)
        pre = distinct.map_batches(
            lambda df: df[df["mention"].isin(forms)], batch_format="pandas"
        ).to_pandas()
        if not pre.empty:
            own_srcs = dict(zip(pre["mention"], pre["n_srcs"].astype(int)))

        def swap(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["mention"] = df["mention"].map(lambda m: fwd.get(m, m))
            return df

        # an expansion can be a form the corpus also holds (cust -> customer
        # next to customer): merge the counts again so each surface form is
        # linked once
        distinct = sum_partials(
            distinct.map_batches(swap, batch_format="pandas"),
            keys=["mention"],
            sum_cols=["n_srcs"],
        )

    if cfg.mapper == "exact":
        label2iri = single_token_class_labels(index)

        def exact_map(df: pd.DataFrame) -> pd.DataFrame:
            df = df[df["mention"].isin(label2iri)]
            return pd.DataFrame(
                {
                    "mention": df["mention"],
                    "cand_iri": df["mention"].map(label2iri),
                    "bes": 1.0,
                    "pj": 1.0,
                }
            )

        sel = distinct.map_batches(exact_map, batch_format="pandas")
    else:
        sel = _generate_score_select(distinct, index, cfg, k=cfg.num_raw_candidates)
    return _backmap_links(sel, inv_map, own_srcs)


def _generate_score_select(
    mentions: ray.data.Dataset,
    index: AnnotationIndex,
    cfg: PipelineConfig,
    *,
    k: int,
    blend=None,
) -> ray.data.Dataset:
    """IDF top-``k`` candidates -> ``cfg.scorer_cls`` (a task fused with
    candidate generation) ->
    [``blend``, a pandas batch UDF re-weighting ``bes``] -> per-mention
    selection cascade under ``cfg``'s thresholds."""
    cands = generate_candidates(mentions, index, k=k)
    scored = score_candidates(cands, index, scorer_cls=cfg.scorer_cls)
    if blend is not None:
        scored = scored.map_batches(blend, batch_format="pandas")
    return select_links(
        scored, mode="optimal", bes_hi=cfg.bes_hi, bes_lo=cfg.bes_lo, pj_hi=cfg.pj_hi
    )


def _backmap_links(
    sel: ray.data.Dataset,
    inv_map: dict[str, list[str]],
    own_srcs: dict[str, int],
) -> ray.data.Dataset:
    """After selection over EXPANDED surface forms, re-emit each selection
    under every original abbreviation that expanded to it (broadcast
    inverse multimap), keeping the expanded rows too. Each of these rows
    carries its own form's pre-swap ``n_srcs`` from ``own_srcs`` (0 for an
    expansion the corpus does not hold), not the merged count."""
    if not inv_map:
        return sel

    def back(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty or "mention" not in df.columns:
            return df
        extra = []
        for m in df["mention"]:
            extra.append(inv_map.get(m, []))
        rows = [df]
        exploded = df.assign(__origs=extra).explode("__origs").dropna(
            subset=["__origs"]
        )
        if len(exploded):
            exploded = exploded.assign(mention=exploded["__origs"]).drop(
                columns="__origs"
            )
            rows.append(exploded)
        out = pd.concat(
            [r.drop(columns="__origs", errors="ignore") for r in rows],
            ignore_index=True,
        )
        if "n_srcs" in out.columns:
            fixed = out["mention"].isin(inv_map).to_numpy()
            fixed[len(df):] = True  # the re-emitted abbreviation rows
            out.loc[fixed, "n_srcs"] = (
                out.loc[fixed, "mention"].map(own_srcs).fillna(0).astype("int64")
            )
        return out

    return sel.map_batches(back, batch_format="pandas")


def link_scored(sf_dir: str) -> ray.data.Dataset:
    """Full scored linking over documents: ``link_mentions`` with 50 raw
    candidates per mention and the default thresholds and scorer."""
    return link_mentions(
        document_mentions(sf_dir),
        star_ontology_index(),
        PipelineConfig(num_raw_candidates=50),
    )


def canonical_document_mentions(sf_dir: str) -> ray.data.Dataset:
    """Canonicalization over the distinct document mentions."""
    return canonicalize_mentions(document_mentions(sf_dir))


# candidates per mention on the context path; ContextMaxima and the chain
# must use the same count so every scored pair has a ctx_score
CONTEXT_CANDIDATES = 20


class ContextMaxima:
    """Map stage of the context path: context blocks (``text``, ``context``
    columns) -> one partial row per (mention, cand_iri) with the block's
    largest context similarity ``ctx_score``.

    Per block, each distinct mention's top ``CONTEXT_CANDIDATES``
    candidates are looked up once (the ``index.candidates`` call
    ``CandidateGenerator`` makes, so the pairs are the ones
    ``generate_candidates`` yields), each distinct context is normalized and
    split into char-3-grams once, and each (context, candidate) similarity
    is the max over the candidate's labels of ``inter / (|L| + |C| -
    inter)``: the char-ngram Jaccard with an integer union, so the float
    equals ``jaccard``'s. Instance-passed (a task); candidate lists and
    label gram sets are memoized per instance."""

    SCHEMA = pa.schema(
        [("mention", pa.string()), ("cand_iri", pa.string()), ("ctx_score", pa.float64())]
    )

    def __init__(self, index_ref, forms: list[str]):
        self.index_ref = index_ref
        self.forms = forms
        self._idx: AnnotationIndex | None = None
        self._cands: dict[str, list[str]] = {}
        self._grams: dict[str, list[frozenset]] = {}

    def _candidates(self, mention: str) -> list[str]:
        c = self._cands.get(mention)
        if c is None:
            if self._idx is None:
                self._idx = ray.get(self.index_ref)
            c = [iri for iri, _ in self._idx.candidates(mention, CONTEXT_CANDIDATES)]
            self._cands[mention] = c
        return c

    def _label_grams(self, iri: str) -> list[frozenset]:
        g = self._grams.get(iri)
        if g is None:
            g = [frozenset(char_ngrams(lab)) for lab in self._idx.labels.get(iri, ())]
            self._grams[iri] = g
        return g

    def __call__(self, batch: pa.Table) -> pa.Table:
        import polars as pl

        # the mentions kernel: turn tokens by extract_mentions' rule, kept
        # when they are dictionary forms; a turn's (mention, context) pair
        # scores like any other occurrence of it, so only distinct pairs
        # are kept, grouped by context
        by_ctx = (
            pl.from_arrow(batch.select(["text", "context"]))
            .select(mention_tokens("text").alias("mention"), "context")
            .explode("mention")
            .filter(pl.col("mention").is_in(self.forms))
            .group_by("context")
            .agg(pl.col("mention").unique())
        )
        best: dict[tuple[str, str], float] = {}
        for ctx, mentions in by_ctx.iter_rows():
            grams_ctx = char_ngrams(normalize_label(ctx)[:200])
            n_ctx = len(grams_ctx)
            sims: dict[str, float] = {}
            for m in mentions:
                for iri in self._candidates(m):
                    s = sims.get(iri)
                    if s is None:
                        s = 0.0
                        for lg in self._label_grams(iri):
                            inter = len(lg & grams_ctx)
                            s = max(s, inter / (len(lg) + n_ctx - inter))
                        sims[iri] = s
                    if s > best.get((m, iri), -1.0):
                        best[(m, iri)] = s
        return pa.table(
            [
                pa.array([m for m, _ in best], pa.string()),
                pa.array([i for _, i in best], pa.string()),
                pa.array(list(best.values()), pa.float64()),
            ],
            schema=self.SCHEMA,
        )


# columns of the context path's links: the chain's candidate columns plus
# ``ctx_score``; the zero-row result when no turn holds a dictionary form
_CONTEXT_LINK_SCHEMA = pa.schema(
    [
        ("mention", pa.string()),
        ("cand_iri", pa.string()),
        ("idf_score", pa.float64()),
        ("exact", pa.bool_()),
        ("bes", pa.float64()),
        ("pj", pa.float64()),
        ("ctx_score", pa.float64()),
    ]
)


def check_context_config(cfg: PipelineConfig) -> None:
    """Raise ``ValueError`` for a ``cfg`` the context-aware path cannot
    honour: it has no exact mapper and no abbreviation expansion. The
    flagship calls this before its first stage, so a refused config costs
    no stage work."""
    if cfg.mapper == "exact":
        raise ValueError("context linking scores candidates: mapper='exact' is not supported")
    if cfg.abbrev_dictionary:
        raise ValueError("context linking does not expand abbreviations: unset abbrev_dictionary")


def link_transcripts_with_context(
    transcripts: ray.data.Dataset,
    index: AnnotationIndex,
    cfg: PipelineConfig,
    *,
    assume_sorted: bool = False,
) -> ray.data.Dataset:
    """Context-aware transcript linking (X2 integrated):

    1. ±``cfg.context_window``-turn context per turn
       (``with_context_window`` — the within-conversation window the
       north_star names);
    2. one map pass over the context blocks (``ContextMaxima``): mentions
       per turn, tokenized by ``extract_mentions``' rule
       (``mention_tokens``), and for each (mention, candidate) of the
       mention's 20 IDF candidates the block's largest context similarity
       (char-ngram Jaccard of candidate label vs turn context). The
       per-block maxima merge with ``fastagg.merge_partials`` into one
       ``ctx_score`` per (mention, candidate) — at most |forms| × 20 rows,
       whatever the corpus size, so it is looked up on the driver;
    3. the ``link_mentions`` candidate -> score -> select chain over the
       distinct mentions of that table, with 20 candidates each and, before
       selection, bes blended with the pair's ``ctx_score`` at weight
       ``cfg.context_weight``: bes' = (1 − w)·bes + w·ctx_score.
    Output: one selected link per distinct mention. Each (mention,
    candidate) is scored once: the blend is monotone in ``ctx_score`` and
    the selection thresholds are monotone in bes, so blending the maximum
    selects what blending every occurrence and picking the best would.

    The path has no exact mapper and no abbreviation expansion: a ``cfg``
    asking for either raises ``ValueError`` instead of being ignored."""
    # imported at call time: the benchmark's trace mode (kgbench/spans.py)
    # times with_context_window by wrapping the defining module's binding
    from knowledgegraphs_ray.pipelines.transcripts import with_context_window
    from knowledgegraphs_ray.util.fastagg import merge_partials

    check_context_config(cfg)

    # assume_sorted: the events-derived ingest is already globally ordered by
    # (conv_id, turn_idx) (segrank's sort), so the flagship pays ONE sort for
    # the whole ordering+context chain (VERDICT r2 sort-churn item)
    ctx_ds = with_context_window(
        transcripts, k=cfg.context_window, assume_sorted=assume_sorted
    )
    maxima = ContextMaxima(ray.put(index), sorted(single_token_class_labels(index)))
    ctx = merge_partials(
        ctx_ds.map_batches(maxima, batch_format="pyarrow"),
        keys=["mention", "cand_iri"],
        agg={"ctx_score": "max"},
    ).to_pandas()
    if ctx.empty or "mention" not in ctx.columns:
        # no dictionary hit: the merge may come back without columns
        return ray.data.from_arrow(_CONTEXT_LINK_SCHEMA.empty_table())
    ctx_score = dict(zip(zip(ctx["mention"], ctx["cand_iri"]), ctx["ctx_score"]))
    distinct = ray.data.from_pandas(pd.DataFrame({"mention": ctx["mention"].unique()}))
    w = cfg.context_weight

    def blend(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["ctx_score"] = np.array(
            [ctx_score[p] for p in zip(df["mention"], df["cand_iri"])], dtype=float
        )
        df["bes"] = (1 - w) * df["bes"] + w * df["ctx_score"]
        return df

    return _generate_score_select(distinct, index, cfg, k=CONTEXT_CANDIDATES, blend=blend)

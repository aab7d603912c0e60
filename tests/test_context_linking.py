"""Context-aware transcript linking (X2 integrated into the link path)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from knowledgegraphs_ray.config import PipelineConfig
from knowledgegraphs_ray.pipelines.linking_pipeline import (
    link_transcripts_with_context,
    single_token_class_labels,
    star_ontology_index,
)
from knowledgegraphs_ray.pipelines.transcripts import synth_transcripts

EQ_COLS = ["mention", "cand_iri", "bes", "pj", "ctx_score"]


def test_link_transcripts_with_context():
    ds = synth_transcripts(30, seed=9)
    out = link_transcripts_with_context(
        ds, star_ontology_index(), PipelineConfig(context_window=1)
    ).to_pandas()
    assert {"mention", "cand_iri", "bes", "ctx_score"} <= set(out.columns)
    # synth vocab embeds class names -> at least one selected link
    assert len(out) >= 1
    assert (out["bes"] <= 1.0).all() and (out["bes"] >= 0).all()
    # exact surface matches dominate: every selected candidate's label equals
    # its mention
    assert (out["cand_iri"].str.lower().str.split(":").str[-1] == out["mention"].str.replace(" ", "")).any()


def per_occurrence_links(transcripts, index, cfg):
    """Test oracle: the per-occurrence context path. Every distinct (turn,
    mention) row gets its turn's context, 20 candidates and the scorer's
    bes/pj; each (candidate, context) similarity is blended into bes before
    one ``select_links`` over all occurrence rows.

    Returns the selected rows and, per selected (mention, cand_iri), the
    largest ``ctx_score`` over that pair's occurrences (``ctx_max``): at
    weight 0 a pair's occurrences tie on every selection key, so which
    occurrence's ``ctx_score`` the selected row carries is arbitrary."""
    import polars as pl

    from knowledgegraphs_ray.linking.index import generate_candidates
    from knowledgegraphs_ray.linking.mentions import mention_tokens, normalize_label
    from knowledgegraphs_ray.linking.scorer import char_ngrams, jaccard, score_candidates
    from knowledgegraphs_ray.linking.select import select_links
    from knowledgegraphs_ray.pipelines.transcripts import turn_iri, with_context_window

    forms = pl.Series("f", sorted(single_token_class_labels(index)))
    w = cfg.context_weight

    def mentions_with_context(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(
            batch.select(["text", "context"]).append_column("turn_iri", turn_iri(batch))
        )
        return (
            df.select("turn_iri", mention_tokens("text").alias("mention"), "context")
            .explode("mention")
            .filter(pl.col("mention").is_in(forms))
            .unique(["turn_iri", "mention"], maintain_order=True)
            .to_arrow()
        )

    def blend(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        scores = {}
        for iri, ctx in set(zip(df["cand_iri"], df["context"])):
            grams_ctx = char_ngrams(normalize_label(ctx)[:200])
            best = 0.0
            for lab in index.labels.get(iri, ()):
                best = max(best, jaccard(char_ngrams(lab), grams_ctx))
            scores[(iri, ctx)] = best
        df["ctx_score"] = pd.Series(
            [scores[p] for p in zip(df["cand_iri"], df["context"])], index=df.index, dtype=float
        )
        df["bes"] = (1 - w) * df["bes"] + w * df["ctx_score"]
        return df

    ctx_ds = with_context_window(transcripts, k=cfg.context_window)
    scored = score_candidates(
        generate_candidates(
            ctx_ds.map_batches(mentions_with_context, batch_format="pyarrow"), index, k=20
        ),
        index,
        scorer_cls=cfg.scorer_cls,
    ).map_batches(blend, batch_format="pandas").materialize()
    sel = select_links(
        scored, mode="optimal", bes_hi=cfg.bes_hi, bes_lo=cfg.bes_lo, pj_hi=cfg.pj_hi
    ).to_pandas()
    occ = scored.to_pandas()
    ctx_max = (
        occ.groupby(["mention", "cand_iri"])["ctx_score"].max().rename("ctx_max").reset_index()
        if len(occ)
        else pd.DataFrame(columns=["mention", "cand_iri", "ctx_max"])
    )
    return sel, ctx_max


def _doubled(n_convs: int, seed: int) -> ray.data.Dataset:
    """Each conversation twice, under another conv_id that sorts into
    another block: every context occurs at least twice, so per-block
    ``ctx_score`` maxima tie across blocks."""
    df = synth_transcripts(n_convs, seed=seed).to_pandas()
    return ray.data.from_pandas(
        pd.concat([df, df.assign(conv_id="dup-" + df["conv_id"])], ignore_index=True)
    )


def shared_label_index():
    """Entities that share a surface form and differ in their other labels:
    their exact candidates tie on pj, IRI token length and scorer bes, so
    the context term alone picks the link."""
    from knowledgegraphs_ray.linking.index import AnnotationIndex

    return AnnotationIndex.build(
        {
            "kg:Customer": ["customer"],
            "kg:Client": ["customer", "account balance"],
            "kg:Buyer": ["customer", "order"],
            "kg:Order": ["order"],
            "kg:Nation": ["nation"],
            "kg:Country": ["nation", "region"],
            "kg:Part": ["part"],
            "kg:Component": ["part", "ship"],
            "kg:Supplier": ["supplier"],
            "kg:Vendor": ["supplier", "stream window"],
            "kg:customer_order": ["customer order"],
            "kg:order_customer": ["order customer"],
        }
    )


# name -> (input, index, config)
CASES = {
    "star_window2": (
        lambda: synth_transcripts(60, seed=21),
        star_ontology_index,
        PipelineConfig(context_window=2),
    ),
    "shared_labels_window2": (
        lambda: synth_transcripts(60, seed=11),
        shared_label_index,
        PipelineConfig(context_window=2),
    ),
    "repeated_contexts_w09": (
        lambda: _doubled(30, seed=7),
        shared_label_index,
        PipelineConfig(context_window=2, context_weight=0.9, bes_hi=0.2, bes_lo=0.1),
    ),
    "window1_w0": (
        lambda: synth_transcripts(60, seed=13),
        shared_label_index,
        PipelineConfig(context_window=1, context_weight=0.0),
    ),
    "star_window3_low_thresholds": (
        lambda: synth_transcripts(40, seed=5),
        star_ontology_index,
        PipelineConfig(context_window=3, context_weight=0.5, bes_hi=0.5, bes_lo=0.2, pj_hi=0.2),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_context_links_equal_per_occurrence_oracle(case):
    """Scoring each distinct (mention, candidate) once with the largest
    context similarity selects the links the per-occurrence path selects,
    bit for bit, on multi-block input."""
    make, make_index, cfg = CASES[case]
    index = make_index()
    ds = make().repartition(6).materialize()
    assert ds.num_blocks() >= 5

    got = link_transcripts_with_context(ds, index, cfg).to_pandas()
    want, ctx_max = per_occurrence_links(ds, index, cfg)
    assert len(want) > 0
    assert got["mention"].is_unique

    got = got[EQ_COLS].sort_values("mention").reset_index(drop=True)
    want = want.merge(ctx_max, on=["mention", "cand_iri"], how="left")
    if cfg.context_weight > 0:
        # with a positive weight the selected occurrence is the pair's
        # largest-context one
        assert (want["ctx_score"] == want["ctx_max"]).all()
    want = (
        want.assign(ctx_score=want["ctx_max"])[EQ_COLS]
        .sort_values("mention")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_nothing_passes_gives_typed_empty_links():
    index = star_ontology_index()
    cfg = PipelineConfig(context_window=2, bes_hi=2.0, bes_lo=2.0)
    ds = synth_transcripts(30, seed=3).repartition(5)
    out = link_transcripts_with_context(ds, index, cfg).materialize()
    want, _ = per_occurrence_links(ds, index, cfg)
    assert out.count() == 0 and len(want) == 0
    schema = out.schema()
    assert set(EQ_COLS) <= set(schema.names)
    types = dict(zip(schema.names, (str(t) for t in schema.types)))
    assert [types[c] for c in EQ_COLS] == ["string", "string", "double", "double", "double"]


@pytest.mark.parametrize(
    "cfg",
    [
        PipelineConfig(context_window=2, mapper="exact"),
        PipelineConfig(context_window=2, abbrev_dictionary={"cust": ["customer"]}),
    ],
    ids=["exact_mapper", "abbrev_dictionary"],
)
def test_unsupported_settings_raise(cfg):
    """The context path has no exact mapper and no abbreviation expansion;
    a config asking for either is refused instead of silently ignored."""
    with pytest.raises(ValueError):
        link_transcripts_with_context(synth_transcripts(5, seed=1), star_ontology_index(), cfg)

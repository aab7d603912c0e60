"""Flagship checkpointed KG-construction run over transcripts.

The end-to-end composition the north_star describes, with every stage
checkpointed to partitioned Parquet + lineage manifest (resumable):

    ingest      transcripts (events-derived or synthetic or user Parquet)
    triples     per-turn ontology triples (map-only kernel)
    mentions    dictionary mentions from turn text (map-only)
    links       linking_pipeline.link_mentions: IDF candidates -> scorer
                (one fused task) -> selection (or the context-aware
                variant)
    canonical   union-find canonicalization of mentions
    edges       mention->entity links, plus the ``triples`` files adopted by
                hard link (not re-encoded); Parquet + N-Triples shards

The N-Triples sink (``edges_nt``) is published atomically like a stage and
is rewritten whenever ``edges`` was rebuilt or ``edges_nt`` holds no
``_SUCCESS``.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from knowledgegraphs_ray.canon.canonicalize import canonicalize_mentions
from knowledgegraphs_ray.config import PipelineConfig
from knowledgegraphs_ray.linking.index import AnnotationIndex
from knowledgegraphs_ray.linking.mentions import extract_mentions
from knowledgegraphs_ray.pipelines.linking_pipeline import (
    check_context_config,
    link_mentions,
    link_transcripts_with_context,
    single_token_class_labels,
    star_ontology_index,
)
from knowledgegraphs_ray.pipelines.transcripts import (
    extract_transcript_triples,
    transcripts_from_events,
    turn_iri,
)
from knowledgegraphs_ray.state.checkpoint import CheckpointedPipeline, is_complete

# Unused here: the linking chain runs in linking_pipeline. The names stay
# bound because the benchmark's trace mode (kgbench/spans.py LAYER_CALLS)
# looks each of them up on this module, and a missing one makes every
# traced run raise.
from knowledgegraphs_ray.linking.index import generate_candidates  # noqa: F401
from knowledgegraphs_ray.linking.scorer import score_candidates  # noqa: F401
from knowledgegraphs_ray.linking.select import select_links  # noqa: F401


def flagship_run(
    root: str,
    sf_dir: str | None = None,
    *,
    ingest=None,
    index: AnnotationIndex | None = None,
    write_nt: bool = True,
    kernel_version: str = "1",
    config=None,
) -> CheckpointedPipeline:
    """Run (or resume) the full transcript KG construction under ``root``.

    ``ingest``: zero-arg builder returning the transcript Dataset; defaults
    to the events-derived transcripts of ``sf_dir``. Pass e.g.
    ``lambda: synth_transcripts(50_000)`` for the synthetic corpus whose text
    embeds entity mentions (FIXTURES.md F1).

    ``config``: optional ``PipelineConfig`` — thresholds, candidate counts
    and the ``scorer_cls`` model plug flow into the linking stage (the
    reference's per-use-case config surface, §2.14)."""
    cfg = config or PipelineConfig()
    if cfg.context_window is not None:
        check_context_config(cfg)  # before any stage is built
    idx = index or star_ontology_index()
    forms = set(single_token_class_labels(idx))
    p = CheckpointedPipeline(root)

    ingest_is_sorted = ingest is None  # events-derived path: segrank-sorted
    if ingest is None:
        assert sf_dir is not None, "need sf_dir or an ingest builder"
        ingest = lambda: transcripts_from_events(sf_dir)
    p.stage("ingest", ingest, kernel_version=kernel_version)
    p.stage(
        "triples",
        lambda: extract_transcript_triples(p.dataset("ingest")),
        kernel_version=kernel_version,
    )

    def build_mentions():
        turns = p.dataset("ingest", columns=["conv_id", "turn_idx", "text"])
        with_iri = turns.map_batches(
            lambda b: b.append_column("turn_iri", turn_iri(b)), batch_format="pyarrow"
        )
        return extract_mentions(with_iri, forms, id_col="turn_iri")

    mentions_res = p.stage("mentions", build_mentions, kernel_version=kernel_version)

    def over_mentions(build, empty_columns: dict[str, str]) -> ray.data.Dataset:
        """``build(mentions stage)``; a zero-row table of ``empty_columns``
        (name -> dtype) when the corpus had no dictionary hit."""
        if mentions_res.rows == 0:
            return ray.data.from_pandas(
                pd.DataFrame({c: pd.Series([], dtype=t) for c, t in empty_columns.items()})
            )
        return build(p.dataset("mentions"))

    def build_links():
        if cfg.context_window is None:
            return over_mentions(
                lambda m: link_mentions(m, idx, cfg),
                {"mention": "str", "cand_iri": "str", "bes": "float", "pj": "float"},
            )
        # X2: ±k-turn context blended into the candidate score. The default
        # events-derived ingest was written already sorted by (conv_id,
        # turn_idx) (segrank) and parquet reads preserve file/row order —
        # skip the second sort; custom ingest builders (arbitrary order)
        # keep it. No schema() probe here: on this lazy chain it would run
        # the whole linking chain once more just to read column names
        return link_transcripts_with_context(
            p.dataset("ingest"), idx, cfg, assume_sorted=ingest_is_sorted
        ).select_columns(["mention", "cand_iri", "bes", "pj"])

    links_res = p.stage("links", build_links, kernel_version=kernel_version)
    p.stage(
        "canonical",
        lambda: over_mentions(
            lambda m: canonicalize_mentions(m.select_columns(["mention"])),
            {"mention": "str", "canonical": "str", "canonical_iri": "str"},
        ),
        kernel_version=kernel_version,
    )

    def build_mention_edges() -> ray.data.Dataset:
        """The ``kg:mentions`` edges, turn -> linked entity; the ``edges``
        stage adopts the ``triples`` files next to them."""
        if links_res.rows == 0:
            return ray.data.from_items([])
        # the links checkpoint is vocabulary-sized: read it on the driver and
        # broadcast it as parallel Arrow arrays, so the lookup is a
        # vectorized index_in + take, no Python loop over rows
        links = pq.read_table(links_res.path, columns=["mention", "cand_iri"])
        link_keys = links["mention"].combine_chunks().cast(pa.string())
        link_vals = links["cand_iri"].combine_chunks().cast(pa.string())

        def mention_edges(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            from knowledgegraphs_ray.extract.kernel import TRIPLE_SCHEMA_ENC, _const_dict

            idx = pc.index_in(batch["mention"].combine_chunks(), value_set=link_keys)
            ent = pc.take(link_vals, idx)  # null where the mention has no link
            # dictionary pred, as in the checkpointed triples (parquet
            # round-trips preserve TRIPLE_SCHEMA_ENC), so the adopted triples
            # files and these share one schema
            t = pa.table(
                {
                    "subj": batch["turn_iri"].combine_chunks(),
                    "pred": _const_dict("kg:mentions", batch.num_rows),
                    "obj": ent,
                },
                schema=TRIPLE_SCHEMA_ENC,
            )
            return t.filter(pc.is_valid(t["obj"]))

        return p.dataset("mentions").map_batches(mention_edges, batch_format="pyarrow")

    res = p.stage(
        "edges", build_mention_edges, kernel_version=kernel_version, adopt=p.files("triples")
    )
    nt_dir = root + "/edges_nt"
    # rewritten when edges changed or when no complete sink was published
    # (a run killed while writing it, or a deleted directory)
    if write_nt and (not res.resumed or not is_complete(nt_dir)):
        from knowledgegraphs_ray.sinks.ntriples import write_ntriples

        write_ntriples(p.dataset("edges"), nt_dir)
    return p

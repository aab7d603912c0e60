"""Context-aware transcript linking (X2 integrated into the link path)."""

from knowledgegraphs_ray.config import PipelineConfig
from knowledgegraphs_ray.pipelines.linking_pipeline import (
    link_transcripts_with_context,
    star_ontology_index,
)
from knowledgegraphs_ray.pipelines.transcripts import synth_transcripts


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

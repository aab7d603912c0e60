"""End-to-end flagship run: all stages, resume, identical outputs."""

import os

from knowledgegraphs_ray.pipelines.flagship import flagship_run
from knowledgegraphs_ray.pipelines.transcripts import synth_transcripts


def _ingest():
    return synth_transcripts(40, seed=11)


def test_flagship_end_to_end_and_resume(tmp_path, sf_dir):
    root = str(tmp_path / "run")
    p1 = flagship_run(root, ingest=_ingest)
    m1 = p1.metrics()
    assert set(m1) == {"ingest", "triples", "mentions", "links", "canonical", "edges"}
    assert all(not v["resumed"] for v in m1.values())
    assert m1["triples"]["rows"] > 0
    assert m1["edges"]["rows"] >= m1["triples"]["rows"]
    assert os.path.isdir(root + "/edges_nt")

    # full rerun resumes every stage and leaves identical outputs
    edges_before = set(
        map(tuple, p1.dataset("edges").to_pandas().itertuples(index=False))
    )
    p2 = flagship_run(root, ingest=_ingest)
    assert all(v["resumed"] for v in p2.metrics().values())
    edges_after = set(
        map(tuple, p2.dataset("edges").to_pandas().itertuples(index=False))
    )
    assert edges_before == edges_after


def test_flagship_partial_resume(tmp_path, sf_dir):
    """Kill-and-resume: wipe a mid-pipeline stage; only downstream re-runs."""
    import shutil

    root = str(tmp_path / "run")
    flagship_run(root, ingest=_ingest)
    shutil.rmtree(os.path.join(root, "links"))

    p = flagship_run(root, ingest=_ingest)
    m = p.metrics()
    assert m["ingest"]["resumed"] and m["triples"]["resumed"]
    assert not m["links"]["resumed"]  # rebuilt
    assert m["links"]["rows"] > 0


def test_flagship_with_context_window(tmp_path):
    """PipelineConfig.context_window routes the links stage through the
    context-aware linking path; the run still completes and checkpoints."""
    from knowledgegraphs_ray.config import PipelineConfig
    from knowledgegraphs_ray.pipelines.flagship import flagship_run
    from knowledgegraphs_ray.pipelines.transcripts import synth_transcripts

    p = flagship_run(
        str(tmp_path / "ctx"),
        ingest=lambda: synth_transcripts(30, seed=4),
        write_nt=False,
        config=PipelineConfig(context_window=2, scorer_concurrency=1),
    )
    edges = p.dataset("edges")
    assert edges.count() > 0
    links = p.dataset("links")
    schema = links.schema()
    assert schema is None or "cand_iri" in schema.names or links.count() == 0


def test_flagship_exact_mapper_and_abbrev_expansion(tmp_path):
    """mapper='exact' skips the scorer pool; abbreviation expansion maps
    abbreviated mentions to dictionary full forms and selections re-emit
    under the original abbreviations."""
    from knowledgegraphs_ray.config import PipelineConfig
    from knowledgegraphs_ray.pipelines.flagship import flagship_run
    from knowledgegraphs_ray.pipelines.transcripts import synth_transcripts

    cfg = PipelineConfig(
        mapper="exact",
        abbrev_dictionary={"customer": ["customer"], "supplier": ["supplier"]},
    )
    p = flagship_run(
        str(tmp_path / "exact"),
        ingest=lambda: synth_transcripts(30, seed=6),
        write_nt=False,
        config=cfg,
    )
    links = p.dataset("links").to_pandas()
    if len(links):
        assert (links["bes"] == 1.0).all()  # exact mapper: no surrogate scores
        assert set(links.columns) >= {"mention", "cand_iri", "bes", "pj"}
    assert p.dataset("edges").count() > 0


def test_context_links_only_name_extracted_mentions(tmp_path):
    """The context path tokenizes turns with the mentions stage's rule, so
    every linked mention is one the mentions stage holds and becomes an
    edge. ``customer_order`` is one token to that rule, not ``customer``."""
    import pyarrow as pa
    import ray.data

    from knowledgegraphs_ray.config import PipelineConfig

    n = 3
    turns = pa.table(
        {
            "conv_id": ["c1"] * n,
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": ["user"] * n,
            "text": ["customer_order please", "part supplier", "the nation"],
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array([0] * n, pa.timestamp("us")),
        }
    )
    p = flagship_run(
        str(tmp_path / "tok"),
        ingest=lambda: ray.data.from_arrow(turns),
        write_nt=False,
        config=PipelineConfig(context_window=2, scorer_concurrency=1),
    )
    linked = set(p.dataset("links").to_pandas()["mention"])
    extracted = set(p.dataset("mentions").to_pandas()["mention"])
    assert linked and linked <= extracted
    assert "customer" not in linked

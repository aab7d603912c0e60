"""End-to-end flagship run: all stages, resume, identical outputs."""

import os

import pytest

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
        config=PipelineConfig(context_window=2),
    )
    edges = p.dataset("edges")
    assert edges.count() > 0
    links = p.dataset("links")
    schema = links.schema()
    assert schema is None or "cand_iri" in schema.names or links.count() == 0


def test_flagship_exact_mapper_and_abbrev_expansion(tmp_path):
    """mapper='exact' skips the scorer; abbreviation expansion maps
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
        config=PipelineConfig(context_window=2),
    )
    linked = set(p.dataset("links").to_pandas()["mention"])
    extracted = set(p.dataset("mentions").to_pandas()["mention"])
    assert linked and linked <= extracted
    assert "customer" not in linked


def test_context_window_over_turns_without_a_mention(tmp_path):
    """A corpus with no dictionary hit: the context path's per-(mention,
    candidate) merge is empty, and the run still writes 0 links, the edges
    and their N-Triples."""
    import pyarrow as pa
    import ray.data

    from knowledgegraphs_ray.config import PipelineConfig

    n = 6
    turns = pa.table(
        {
            "conv_id": ["c1"] * 3 + ["c2"] * 3,
            "turn_idx": pa.array(list(range(3)) * 2, pa.int32()),
            "role": ["user", "assistant"] * 3,
            "text": ["hello there", "how can i help", "fine thanks"] * 2,
            "tool": pa.array([None] * n, pa.string()),
            "ts": pa.array([0] * n, pa.timestamp("us")),
        }
    )
    root = str(tmp_path / "nohit")
    p = flagship_run(
        root,
        ingest=lambda: ray.data.from_arrow(turns),
        write_nt=True,
        config=PipelineConfig(context_window=2),
    )
    assert p.metrics()["links"]["rows"] == 0
    assert p.dataset("links").count() == 0
    assert p.dataset("edges").count() > 0
    assert os.path.isdir(root + "/edges_nt") and os.listdir(root + "/edges_nt")


def _edges_rows(root: str) -> int:
    import json

    with open(os.path.join(root, "edges", "_SUCCESS")) as f:
        return json.load(f)["rows"]


def test_rerun_rewrites_a_deleted_sink(tmp_path):
    """A lost ``edges_nt`` is written again by the rerun, although every
    stage resumes."""
    import json
    import shutil

    root = str(tmp_path / "run")
    flagship_run(root, ingest=_ingest)
    shutil.rmtree(os.path.join(root, "edges_nt"))

    p = flagship_run(root, ingest=_ingest)
    assert all(v["resumed"] for v in p.metrics().values())
    with open(os.path.join(root, "edges_nt", "_SUCCESS")) as f:
        manifest = json.load(f)
    assert manifest["triples"] == _edges_rows(root) > 0


def test_rerun_replaces_a_half_written_sink(tmp_path):
    """Shards left without ``_SUCCESS`` (a run killed mid-write) are replaced
    by the rerun's atomic publish; none of them survives."""
    root = str(tmp_path / "run")
    flagship_run(root, ingest=_ingest)
    nt = os.path.join(root, "edges_nt")
    os.remove(os.path.join(nt, "_SUCCESS"))
    with open(os.path.join(nt, "stray_000000.nt"), "w") as f:
        f.write("<http://kg.local/half> <http://kg.local/written")

    flagship_run(root, ingest=_ingest)
    assert os.path.exists(os.path.join(nt, "_SUCCESS"))
    assert "stray_000000.nt" not in os.listdir(nt)
    lines = sum(
        open(os.path.join(nt, f)).read().count("\n") for f in os.listdir(nt) if f.endswith(".nt")
    )
    assert lines == _edges_rows(root)


@pytest.mark.parametrize(
    "cfg",
    [
        {"context_window": 2, "mapper": "exact"},
        {"context_window": 2, "abbrev_dictionary": {"cust": ["customer"]}},
    ],
    ids=["exact_mapper", "abbrev_dictionary"],
)
def test_refused_context_config_builds_no_stage(tmp_path, cfg):
    """A config the context path refuses is reported before the first
    stage: the root holds no stage directory afterwards."""
    from knowledgegraphs_ray.config import PipelineConfig

    root = str(tmp_path / "refused")
    with pytest.raises(ValueError):
        flagship_run(root, ingest=_ingest, config=PipelineConfig(**cfg))
    assert not os.path.exists(root) or os.listdir(root) == []


def _union_edges(root: str):
    """The ``edges`` table as a ``Dataset.union`` builds it from the run's
    checkpoints: ``triples`` ∪ the ``kg:mentions`` edges, every triple
    decoded and re-encoded."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from knowledgegraphs_ray.extract.kernel import TRIPLE_SCHEMA_ENC, _const_dict
    from knowledgegraphs_ray.state.checkpoint import load_stage

    triples = load_stage(os.path.join(root, "triples"))
    links = load_stage(os.path.join(root, "links")).to_pandas()
    if links.empty or "mention" not in links.columns:
        return triples
    link_keys = pa.array(list(links["mention"]), pa.string())
    link_vals = pa.array(list(links["cand_iri"]), pa.string())

    def mention_edges(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch["mention"].combine_chunks(), value_set=link_keys)
        t = pa.table(
            {
                "subj": batch["turn_iri"].combine_chunks(),
                "pred": _const_dict("kg:mentions", batch.num_rows),
                "obj": pc.take(link_vals, idx),
            },
            schema=TRIPLE_SCHEMA_ENC,
        )
        return t.filter(pc.is_valid(t["obj"]))

    mentions = load_stage(os.path.join(root, "mentions"))
    return triples.union(mentions.map_batches(mention_edges, batch_format="pyarrow"))


def _edge_rows(root: str):
    """The ``edges`` checkpoint as a multiset of (subj, pred, obj), read with
    pyarrow, so a dangling or unreadable file fails here."""
    import collections

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(root, "edges"))
    cols = [t[c].cast("string").to_pylist() for c in ("subj", "pred", "obj")]
    return collections.Counter(zip(*cols))


def _parquet_files(stage_dir: str) -> list[str]:
    return sorted(f for f in os.listdir(stage_dir) if f.endswith(".parquet"))


def _nt_lines(nt_dir: str) -> list[str]:
    lines = []
    for f in os.listdir(nt_dir):
        if f.endswith(".nt"):
            with open(os.path.join(nt_dir, f)) as fh:
                lines += fh.read().splitlines()
    return sorted(lines)


def test_edges_equal_the_union_and_hold_the_triples_files(tmp_path):
    """``edges`` holds what the triples ∪ mention-edges union holds, row for
    row, and its triples partitions are the ``triples`` files themselves;
    its N-Triples equal the union's."""
    import collections

    from knowledgegraphs_ray.sinks.ntriples import write_ntriples

    root = str(tmp_path / "run")
    p = flagship_run(root, ingest=_ingest)
    oracle = _union_edges(root)
    rows = oracle.to_pandas().astype(str)
    want = collections.Counter(map(tuple, rows[["subj", "pred", "obj"]].itertuples(index=False)))
    got = _edge_rows(root)
    assert got == want
    assert sum(got.values()) == p.metrics()["edges"]["rows"] > p.metrics()["triples"]["rows"]

    triples = _parquet_files(os.path.join(root, "triples"))
    assert triples
    for f in triples:
        assert os.path.samefile(os.path.join(root, "triples", f), os.path.join(root, "edges", f))

    write_ntriples(oracle, str(tmp_path / "oracle_nt"))
    assert _nt_lines(os.path.join(root, "edges_nt")) == _nt_lines(str(tmp_path / "oracle_nt"))


def test_edges_survive_a_deleted_and_a_rebuilt_triples_stage(tmp_path):
    """The adopted triples files stay readable and unchanged in ``edges``
    when the ``triples`` directory is deleted, and when a rerun rebuilds
    ``triples`` while ``edges`` resumes."""
    import shutil

    root = str(tmp_path / "run")
    flagship_run(root, ingest=_ingest)
    before = _edge_rows(root)

    shutil.rmtree(os.path.join(root, "triples"))
    assert _edge_rows(root) == before

    p = flagship_run(root, ingest=_ingest)
    m = p.metrics()
    assert not m["triples"]["resumed"] and m["edges"]["resumed"]
    assert _edge_rows(root) == before
    rebuilt = _parquet_files(os.path.join(root, "triples"))
    assert rebuilt and set(rebuilt).isdisjoint(_parquet_files(os.path.join(root, "edges")))

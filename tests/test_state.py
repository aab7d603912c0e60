"""Checkpoint/resume + N-Triples sink tests (kill-and-resume semantics)."""

import json
import os

import pyarrow as pa
import ray.data

from knowledgegraphs_ray.sinks.ntriples import to_ntriples_lines, write_ntriples
from knowledgegraphs_ray.state.checkpoint import CheckpointedPipeline, is_complete


def test_checkpoint_runs_then_resumes(tmp_path):
    root = str(tmp_path / "run")
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        return ray.data.from_items([{"x": i} for i in range(10)])

    p = CheckpointedPipeline(root)
    r1 = p.stage("s1", build)
    assert r1.rows == 10 and not r1.resumed and calls["n"] == 1

    # second pipeline over the same root resumes without re-running build
    p2 = CheckpointedPipeline(root)
    r2 = p2.stage("s1", build)
    assert r2.resumed and calls["n"] == 1
    assert p2.dataset("s1").count() == 10


def test_checkpoint_kernel_version_invalidates(tmp_path):
    root = str(tmp_path / "run")
    build = lambda: ray.data.from_items([{"x": 1}])
    p = CheckpointedPipeline(root)
    p.stage("s", build, kernel_version="1")
    r = CheckpointedPipeline(root).stage("s", build, kernel_version="2")
    assert not r.resumed  # version bump re-runs


def test_partial_write_not_treated_as_complete(tmp_path):
    root = str(tmp_path / "run")
    stage_dir = os.path.join(root, "s")
    os.makedirs(stage_dir)  # data dir exists but no _SUCCESS manifest
    with open(os.path.join(stage_dir, "junk.parquet"), "w") as f:
        f.write("garbage")
    assert not is_complete(stage_dir)
    p = CheckpointedPipeline(root)
    r = p.stage("s", lambda: ray.data.from_items([{"x": 1}, {"x": 2}]))
    assert not r.resumed and r.rows == 2
    assert p.dataset("s").count() == 2  # garbage replaced atomically


def test_manifest_lineage_fields(tmp_path):
    root = str(tmp_path / "run")
    p = CheckpointedPipeline(root)
    p.stage("s", lambda: ray.data.from_items([{"x": i} for i in range(5)]))
    with open(os.path.join(root, "s", "_SUCCESS")) as f:
        m = json.load(f)
    assert m["rows"] == 5
    assert m["partitions"] and all("bytes" in pt for pt in m["partitions"])
    assert "kernel_version" in m and "wall_sec" in m


def test_ntriples_formatting():
    batch = pa.table(
        {
            "subj": ["kg:person/1", "kg:person/1"],
            "pred": ["rdf:type", "kg:has_name"],
            "obj": ["kg:Person", 'ann "quoted"\nline'],
        }
    )
    lines = to_ntriples_lines(batch)["line"].to_pylist()
    assert lines[0] == (
        "<http://kg.local/person/1> "
        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<http://kg.local/Person> ."
    )
    assert lines[1].endswith('"ann \\"quoted\\"\\nline" .')


def test_write_ntriples_shards(tmp_path):
    out = str(tmp_path / "nt")
    ds = ray.data.from_items(
        [{"subj": "kg:a", "pred": "rdf:type", "obj": "kg:T"} for _ in range(3)]
    )
    manifest = write_ntriples(ds, out)
    files = [f for f in os.listdir(out) if f.endswith(".nt")]
    assert files
    text = "".join(open(os.path.join(out, f)).read() for f in files)
    assert text.count(" .\n") == 3
    # lineage manifest published alongside the shards
    assert manifest["triples"] == 3
    assert sum(s["lines"] for s in manifest["shards"]) == 3
    assert os.path.exists(os.path.join(out, "_SUCCESS"))


def test_manifest_rows_per_partition_from_footers(tmp_path):
    """Each partition's ``rows`` is its Parquet footer's count and they sum
    to the stage's ``rows``: for written files, a zero-row stage, and files
    adopted from another stage, which are that stage's files by hard link."""
    import pyarrow.parquet as pq

    from knowledgegraphs_ray.state.checkpoint import read_manifest

    root = str(tmp_path / "run")
    p = CheckpointedPipeline(root)
    p.stage("src", lambda: ray.data.from_items([{"x": i} for i in range(12)]).repartition(3))
    p.stage("empty", lambda: ray.data.from_items([]))
    res = p.stage(
        "both", lambda: ray.data.from_items([{"x": i} for i in range(5)]), adopt=p.files("src")
    )
    assert res.rows == 17 and p.dataset("both").count() == 17
    for name, rows in (("src", 12), ("empty", 0), ("both", 17)):
        m = read_manifest(os.path.join(root, name))
        for part in m["partitions"]:
            path = os.path.join(root, name, part["file"])
            assert part["rows"] == pq.read_metadata(path).num_rows
            assert part["bytes"] == os.path.getsize(path)
        assert sum(part["rows"] for part in m["partitions"]) == m["rows"] == rows
    assert read_manifest(os.path.join(root, "empty"))["partitions"] == []

    adopted = [pt for pt in read_manifest(os.path.join(root, "both"))["partitions"] if "from" in pt]
    assert [pt["from"] for pt in adopted] == ["src"] * len(p.files("src"))
    for src in p.files("src"):
        assert os.path.samefile(src, os.path.join(root, "both", os.path.basename(src)))


def test_stage_read_runs_one_fused_task_per_file(tmp_path):
    """A stage with fewer files than Ray's target read parallelism is read
    one task per file, not split into blocks that the next map then runs
    over as separate tasks."""
    p = CheckpointedPipeline(str(tmp_path / "run"))
    p.stage("src", lambda: ray.data.from_items([{"x": i} for i in range(40)]).repartition(2))
    out = p.dataset("src").map_batches(lambda b: b, batch_format="pyarrow").materialize()
    stats = out.stats()
    assert "SplitBlocks" not in stats, stats
    assert "ReadParquet->MapBatches" in stats, stats
    assert out.num_blocks() == 2 and out.count() == 40

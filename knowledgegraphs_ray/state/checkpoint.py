"""Stage checkpointing, resume, and per-partition lineage manifests.

Reference analogues: processed-file caches (TabularFilesReader.java:64-81),
raw_mappings.json save-every-100 resume (mapping_prediction.py:463-493), and
load-or-construct (pipeline.py:175-188). Ray-Data-first redesign:

* a pipeline is a DAG of named stages; each stage writes partitioned Parquet
  under ``<root>/<stage>/`` followed by an atomic ``_SUCCESS`` manifest —
  a rerun skips any stage whose manifest exists and validates;
* the manifest carries per-partition lineage + metrics (north_rule): each
  file with its bytes and its Parquet footer's row count (and the stage it
  was adopted from), the total rows, kernel version, wall time;
* a stage may adopt files of an earlier stage by hard link (the ``edges``
  stage holds the ``triples`` files as they are), never by copying rows;
* deterministic kernels (content-derived IRIs) make re-execution after a
  partial failure produce byte-identical outputs, so skip-if-done is safe.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Sequence

import pyarrow.parquet as pq
import ray.data

MANIFEST = "_SUCCESS"


@dataclass
class StageResult:
    name: str
    path: str
    rows: int
    wall_sec: float
    resumed: bool


def _manifest_path(stage_dir: str) -> str:
    return os.path.join(stage_dir, MANIFEST)


def is_complete(stage_dir: str) -> bool:
    return os.path.exists(_manifest_path(stage_dir))


def read_manifest(stage_dir: str) -> dict:
    with open(_manifest_path(stage_dir)) as f:
        return json.load(f)


def _partition(path: str, source: str | None = None) -> dict:
    """One manifest partition: file name, size and its footer's row count,
    plus the stage it was adopted from."""
    part = {
        "file": os.path.basename(path),
        "bytes": os.path.getsize(path),
        "rows": pq.read_metadata(path).num_rows,
    }
    if source is not None:
        part["from"] = source
    return part


def checkpoint_stage(
    root: str,
    name: str,
    build: "callable[[], ray.data.Dataset]",
    *,
    kernel_version: str = "1",
    adopt: Sequence[str] = (),
) -> StageResult:
    """Run (or skip) one stage: ``build()`` -> write_parquet -> manifest.

    Output is written to a temp dir then renamed (atomic publish), so a
    killed run never leaves a half-written stage that looks complete.

    ``adopt``: Parquet files of earlier stages that this stage also holds.
    Each is hard-linked into the temp dir next to what ``build()`` wrote, so
    it is published, listed and counted like a written partition without
    being decoded or written again. No stage edits a published file in
    place, and a hard link keeps the data when its source stage is rebuilt
    or deleted.
    """
    stage_dir = os.path.join(root, name)
    if is_complete(stage_dir):
        m = read_manifest(stage_dir)
        if m.get("kernel_version") == kernel_version:
            return StageResult(name, stage_dir, m["rows"], 0.0, resumed=True)

    t0 = time.perf_counter()
    tmp_dir = stage_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    ds = build()
    os.makedirs(tmp_dir, exist_ok=True)  # empty datasets may write no files
    ds.write_parquet(tmp_dir)
    partitions = [
        _partition(os.path.join(tmp_dir, f))
        for f in sorted(os.listdir(tmp_dir))
        if f.endswith(".parquet")
    ]
    for src in adopt:
        dst = os.path.join(tmp_dir, os.path.basename(src))
        os.link(src, dst)
        partitions.append(_partition(dst, os.path.basename(os.path.dirname(src))))
    rows = sum(part["rows"] for part in partitions)
    wall = time.perf_counter() - t0

    shutil.rmtree(stage_dir, ignore_errors=True)
    os.replace(tmp_dir, stage_dir)
    manifest = {
        "stage": name,
        "rows": rows,
        "wall_sec": round(wall, 3),
        "kernel_version": kernel_version,
        "partitions": partitions,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    tmp_manifest = _manifest_path(stage_dir) + ".tmp"
    with open(tmp_manifest, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp_manifest, _manifest_path(stage_dir))
    return StageResult(name, stage_dir, rows, wall, resumed=False)


def load_stage(stage_dir: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """A stage's partitions as a Dataset, one read task per file. Ray splits
    the blocks of a read with fewer files than its target parallelism and
    then runs the next map as separate tasks; one task per file keeps the
    read fused with what follows (the N-Triples sink over ``edges``)."""
    n_files = sum(f.endswith(".parquet") for f in os.listdir(stage_dir))
    if not n_files:  # empty stage output
        return ray.data.from_items([])
    return ray.data.read_parquet(stage_dir, columns=columns, override_num_blocks=n_files)


class CheckpointedPipeline:
    """Linear chain of checkpointed stages sharing one root directory.

    >>> p = CheckpointedPipeline("/tmp/kg_run")
    >>> p.stage("triples", lambda: extract_kg(sf))     # runs or resumes
    >>> p.stage("dedup", lambda: dedup(p.dataset("triples")))
    >>> p.results  # [StageResult...], includes which stages were resumed
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.results: list[StageResult] = []

    def stage(self, name: str, build, **kw) -> StageResult:
        res = checkpoint_stage(self.root, name, build, **kw)
        self.results.append(res)
        return res

    def dataset(self, name: str, columns: list[str] | None = None) -> ray.data.Dataset:
        return load_stage(os.path.join(self.root, name), columns)

    def files(self, name: str) -> list[str]:
        """Paths of a completed stage's Parquet partitions, from its manifest."""
        stage_dir = os.path.join(self.root, name)
        parts = read_manifest(stage_dir)["partitions"]
        return [os.path.join(stage_dir, part["file"]) for part in parts]

    def metrics(self) -> dict:
        return {
            r.name: {"rows": r.rows, "wall_sec": round(r.wall_sec, 3), "resumed": r.resumed}
            for r in self.results
        }

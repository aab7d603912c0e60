"""N-Triples sink — the Turtle-writer analogue (S8).

Reference: individuals.ttl / fullGraph.ttl serialization
(E_CreateKG/InsertDataBase.java:226-259) via an in-memory Jena model. Here
a vectorized formatting ``map_batches`` turns (subj, pred, obj) rows into
newline-terminated N-Triples lines, and a datasink writes one text shard per
write task. No global graph ever materializes.

Terms are formatted with masked Arrow kernels, so each row is rewritten only
by the rules that apply to it:

* IRIs: a compact prefix (``kg:``, ``rdf:``, ... see ``PREFIXES``) expands
  to its full IRI. A prefix no row starts with is skipped; one that occurs
  rewrites only its rows (``filter``, slice, join, ``replace_with_mask``).
  A dictionary column (the edges' ``pred``) is formatted on its dictionary
  values and then taken, never decoded first. Characters an N-Triples
  IRIREF forbids (controls, space, ``<>"{}|^`\\``) are written as ``\\uXXXX``
  UCHARs, again only on the rows that hold one.
* Objects that do not look like IRIs are quoted literals; ``\\``, ``"``,
  newline and carriage return are escaped on the literal rows that hold one.
* ``_:`` blank nodes are written bare.

Writes: a block's ``line`` column is one Arrow string array whose data
buffer already is the shard's bytes, so the datasink writes that buffer
between the first and last offset, with no join or copy through Python
strings. Each write returns its shard's (file, bytes, lines), one line per
row, and the manifest is built from those returns, not from re-reading the
shards. The shards are written into ``<out_dir>.tmp``, the ``_SUCCESS``
manifest is published there, and the directory is then renamed to
``out_dir``, so a killed write never leaves a directory that looks complete.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.block import BlockAccessor

PREFIXES = {
    "kg:": "http://kg.local/",
    "rdf:": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs:": "http://www.w3.org/2000/01/rdf-schema#",
    "owl:": "http://www.w3.org/2002/07/owl#",
    "xsd:": "http://www.w3.org/2001/XMLSchema#",
    "skos:": "http://www.w3.org/2004/02/skos/core#",
    "dpv:": "https://w3id.org/dpv#",
    "do:": "http://kg.local/do/",
}
# characters N-Triples' IRIREF production does not allow unescaped
_IRI_FORBIDDEN = '[\\x00-\\x20<>"{}|^`\\\\]'
_LITERAL_ESCAPED = '[\\\\"\\n\\r]'


def _rewrite(arr: pa.Array, mask: pa.Array, fn) -> pa.Array:
    """``arr`` with the rows where ``mask`` holds replaced by ``fn`` of
    those rows; untouched (no copy) when no row matches."""
    if not pc.any(mask).as_py():
        return arr
    return pc.replace_with_mask(arr, mask, fn(arr.filter(mask)))


def _uchar_escape(rows: pa.Array) -> pa.Array:
    # only rows holding a forbidden character get here, so a Python loop
    # over them costs nothing on well-formed IRIs
    bad = re.compile(_IRI_FORBIDDEN)
    sub = lambda m: "\\u%04X" % ord(m.group())
    return pa.array([bad.sub(sub, s) for s in rows.to_pylist()], pa.string())


def _iri(arr: pa.Array) -> pa.Array:
    """Full, IRIREF-safe IRI per row (without the angle brackets)."""
    if pa.types.is_dictionary(arr.type):
        return pc.take(_iri(arr.dictionary.cast(pa.string())), arr.indices)
    # the forbidden characters are looked for before expansion, on the
    # shorter compact form: no expansion adds one
    arr = _rewrite(arr, pc.match_substring_regex(arr, _IRI_FORBIDDEN), _uchar_escape)
    # the compact prefixes are mutually exclusive and no full IRI starts
    # with one, so each is tested on the input column; on the rows that
    # start with it, its first occurrence is that start
    for pfx, full in PREFIXES.items():
        arr = _rewrite(
            arr,
            pc.starts_with(arr, pfx),
            lambda rows: pc.replace_substring(rows, pfx, full, max_replacements=1),
        )
    return arr


def _escape_literal(arr: pa.Array) -> pa.Array:
    out = pc.replace_substring(arr, "\\", "\\\\")
    out = pc.replace_substring(out, '"', '\\"')
    out = pc.replace_substring(out, "\n", "\\n")
    return pc.replace_substring(out, "\r", "\\r")


def _quote(rows: pa.Array) -> pa.Array:
    """Literal rows -> quoted N-Triples literals."""
    escaped = _rewrite(rows, pc.match_substring_regex(rows, _LITERAL_ESCAPED), _escape_literal)
    return pc.binary_join_element_wise('"', escaped, '"', "")


def _is_iri(arr: pa.Array) -> pa.Array:
    m = pc.starts_with(arr, "http://")
    for pfx in list(PREFIXES) + ["https://"]:
        m = pc.or_(m, pc.starts_with(arr, pfx))
    return m


def _bracket(arr: pa.Array) -> pa.Array:
    return pc.binary_join_element_wise("<", _iri(arr), ">", "")


def _s(col, *, decode: bool) -> pa.Array:
    """One string array from a possibly chunked column (parquet round-trips
    may yield large_string); a dictionary column stays dictionary-encoded,
    over string values, unless ``decode``."""
    if isinstance(col, pa.ChunkedArray):
        if pa.types.is_dictionary(col.type):
            col = col.unify_dictionaries()
        col = col.combine_chunks()
    if not pa.types.is_dictionary(col.type):
        return col.cast(pa.string())
    if decode:
        return col.dictionary_decode().cast(pa.string())
    return pa.DictionaryArray.from_arrays(col.indices, col.dictionary.cast(pa.string()))


def _lines(batch: pa.Table) -> pa.Table:
    """(subj, pred, obj) rows -> one ``line`` column of N-Triples lines,
    each ending in ``" .\\n"``: the column's data buffer is the file's
    bytes."""
    subj = _s(batch["subj"], decode=True)
    obj = _s(batch["obj"], decode=True)
    pred = _iri(_s(batch["pred"], decode=False))
    # blank nodes (restriction bnodes, "_:r0") are written bare: their
    # bracketed rows are put back to the input's
    subj_blank = pc.starts_with(subj, "_:")
    subj_term = _rewrite(_bracket(subj), subj_blank, lambda _: subj.filter(subj_blank))
    obj_iri = _is_iri(obj)
    obj_lit = pc.invert(pc.or_(obj_iri, pc.starts_with(obj, "_:")))
    obj_term = _rewrite(obj, obj_iri, _bracket)
    obj_term = _rewrite(obj_term, obj_lit, _quote)
    line = pc.binary_join_element_wise(
        subj_term, " <", pred, "> ", obj_term, " .\n", ""
    )
    return pa.table({"line": line})


def to_ntriples_lines(batch: pa.Table) -> pa.Table:
    """(subj, pred, obj) rows -> one ``line`` column, one N-Triples line
    per row without its newline."""
    return pa.table({"line": pc.utf8_slice_codeunits(_lines(batch)["line"], 0, -1)})


def _line_buffers(lines) -> list[pa.Buffer]:
    """Zero-copy slices of the data buffers holding ``lines`` (a string
    array or chunked array of newline-terminated lines): written or joined
    in order, they are the N-Triples bytes of those rows. Null rows are
    dropped first, so every row that remains is one line."""
    chunks = lines.chunks if isinstance(lines, pa.ChunkedArray) else [lines]
    out = []
    for arr in chunks:
        if arr.null_count:
            arr = arr.filter(pc.is_valid(arr))
        if not len(arr):
            continue
        _, offsets, data = arr.buffers()
        dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        o = np.frombuffer(offsets, dtype=dtype)
        start, end = int(o[arr.offset]), int(o[arr.offset + len(arr)])
        out.append(data[start:end])
    return out


def ntriples_bytes(batch: pa.Table) -> bytes:
    """(subj, pred, obj) rows -> the bytes the file sink writes for them."""
    return b"".join(_line_buffers(_lines(batch)["line"]))


class NTriplesDatasink(ray.data.Datasink):
    """One ``.nt`` shard per write task under ``path``. Each write returns
    its shard's ``{"file", "bytes", "lines"}``; ``on_write_complete`` keeps
    them in ``shards``. A retried task rewrites the same file name."""

    def __init__(self, path: str):
        self.path = path
        self.write_id = uuid.uuid4().hex
        self.shards: list[dict] = []

    def write(self, blocks, ctx) -> dict | None:
        # an empty block may arrive without the formatter's columns
        tables = (BlockAccessor.for_block(b).to_arrow() for b in blocks)
        cols = [t["line"] for t in tables if t.num_rows]
        bufs = [buf for col in cols for buf in _line_buffers(col)]
        if not bufs:
            return None
        lines = sum(len(c) - c.null_count for c in cols)
        name = f"{self.write_id}_{ctx.task_idx:06}.nt"
        with open(os.path.join(self.path, name), "wb") as f:
            for buf in bufs:
                f.write(buf)
        return {"file": name, "bytes": sum(b.size for b in bufs), "lines": lines}

    def on_write_complete(self, write_result) -> None:
        self.shards = sorted(
            (r for r in write_result.write_returns if r), key=lambda r: r["file"]
        )


def write_ntriples(triples: ray.data.Dataset, out_dir: str) -> dict:
    """Materialize the edge table as N-Triples shards, then publish a
    ``_SUCCESS`` manifest with per-shard lineage (file, bytes, line count):
    the same contract as the Parquet stage checkpoints, with the same
    atomic publish (temp dir, manifest, rename over ``out_dir``)."""
    tmp_dir = out_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    sink = NTriplesDatasink(tmp_dir)
    lines = triples.map_batches(_lines, batch_format="pyarrow", zero_copy_batch=True)
    lines.write_datasink(sink)
    manifest = {
        "triples": sum(s["lines"] for s in sink.shards),
        "shards": sink.shards,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(os.path.join(tmp_dir, "_SUCCESS"), "w") as f:
        json.dump(manifest, f, indent=1)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp_dir, out_dir)
    return manifest

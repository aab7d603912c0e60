"""N-Triples sink: the masked formatter against the full-column formatter it
replaced, buffer writes and their manifest line counts, and IRIs holding
characters N-Triples' IRIREF forbids."""

import os
import random
import re
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data

from knowledgegraphs_ray.sinks.ntriples import (
    PREFIXES,
    ntriples_bytes,
    to_ntriples_lines,
    write_ntriples,
)
from knowledgegraphs_ray.sources.ontology import parse_ntriples

# -- oracle: the full-column formatter (every prefix rewritten on every row
# with starts_with / slice / join / if_else) ---------------------------------


def _oracle_expand(arr: pa.Array) -> pa.Array:
    out = arr
    for pfx, full in PREFIXES.items():
        mask = pc.starts_with(out, pfx)
        expanded = pc.binary_join_element_wise(
            pa.scalar(full), pc.utf8_slice_codeunits(out, len(pfx), 1 << 30), ""
        )
        out = pc.if_else(mask, expanded, out)
    return out


def _oracle_is_iri(arr: pa.Array) -> pa.Array:
    m = pc.starts_with(arr, "http://")
    for pfx in list(PREFIXES) + ["https://"]:
        m = pc.or_(m, pc.starts_with(arr, pfx))
    return m


def _oracle_escape_literal(arr: pa.Array) -> pa.Array:
    out = pc.replace_substring(arr, "\\", "\\\\")
    out = pc.replace_substring(out, '"', '\\"')
    out = pc.replace_substring(out, "\n", "\\n")
    return pc.replace_substring(out, "\r", "\\r")


def _oracle_s(col) -> pa.Array:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return arr.cast(pa.string())


def _oracle_lines(batch: pa.Table) -> list[str]:
    subj = _oracle_s(batch["subj"])
    pred = _oracle_expand(_oracle_s(batch["pred"]))
    obj = _oracle_s(batch["obj"])
    subj_term = pc.if_else(
        pc.starts_with(subj, "_:"),
        subj,
        pc.binary_join_element_wise("<", _oracle_expand(subj), ">", ""),
    )
    iri_obj = pc.binary_join_element_wise("<", _oracle_expand(obj), ">", "")
    lit_obj = pc.binary_join_element_wise('"', _oracle_escape_literal(obj), '"', "")
    obj_term = pc.if_else(
        pc.starts_with(obj, "_:"),
        obj,
        pc.if_else(_oracle_is_iri(obj), iri_obj, lit_obj),
    )
    line = pc.binary_join_element_wise(subj_term, " <", pred, "> ", obj_term, " .", "")
    return line.to_pylist()


# -- seeded tables -------------------------------------------------------------

_LITERAL_PARTS = ['say "hi"', "back\\slash", "two\nlines", "cr\rhere", "tab\there", "é ü", ""]


def _iri_term(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f"https://example.org/r{rng.randrange(50)}"
    if kind == 1:
        return f"http://example.org/r{rng.randrange(50)}"
    return rng.choice(list(PREFIXES)) + f"n{rng.randrange(50)}"


def _subj(rng: random.Random) -> str:
    return f"_:b{rng.randrange(9)}" if rng.random() < 0.15 else _iri_term(rng)


def _obj(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.1:
        return f"_:b{rng.randrange(9)}"
    if r < 0.5:
        return _iri_term(rng)
    return " ".join(rng.choice(_LITERAL_PARTS) for _ in range(rng.randrange(1, 4)))


def _chunk(rng: random.Random, n: int, dict_pred: bool) -> pa.Table:
    # each chunk draws its predicates from its own subset, so a dictionary
    # pred column has a different dictionary per chunk
    preds = rng.sample([p + "p" for p in PREFIXES] + ["http://example.org/p"], 4)
    pred = pa.array([rng.choice(preds) for _ in range(n)], pa.string())
    return pa.table(
        {
            "subj": pa.array([_subj(rng) for _ in range(n)], pa.string()),
            "pred": pred.dictionary_encode() if dict_pred else pred,
            "obj": pa.array([_obj(rng) for _ in range(n)], pa.large_string()),
        }
    )


def _seeded_table(seed: int, dict_pred: bool) -> pa.Table:
    rng = random.Random(seed)
    chunks = [_chunk(rng, rng.randrange(1, 200), dict_pred) for _ in range(4)]
    table = pa.concat_tables(chunks)
    assert table["subj"].num_chunks == 4
    return table


def _expected_bytes(batch: pa.Table) -> bytes:
    return "".join(line + "\n" for line in _oracle_lines(batch)).encode()


@pytest.mark.parametrize("dict_pred", [False, True], ids=["plain_pred", "dictionary_pred"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_formatter_matches_full_column_oracle(seed, dict_pred):
    batch = _seeded_table(seed, dict_pred)
    lines = _oracle_lines(batch)
    # the table covers every term kind the formatter distinguishes
    text = "\n".join(lines)
    for full in set(PREFIXES.values()) | {"https://example.org/", "http://example.org/"}:
        assert "<" + full in text, full
    assert any(line.startswith("_:") for line in lines)
    assert any(line.endswith('"" .') for line in lines)
    for esc in ('\\"', "\\\\", "\\n", "\\r", "\t"):
        assert esc in text, esc

    assert to_ntriples_lines(batch)["line"].to_pylist() == lines
    assert ntriples_bytes(batch) == _expected_bytes(batch)


def test_formatter_on_an_empty_batch():
    empty = pa.table(
        {c: pa.array([], pa.string()) for c in ("subj", "pred", "obj")}
    )
    assert _oracle_lines(empty) == []
    assert to_ntriples_lines(empty).num_rows == 0
    assert ntriples_bytes(empty) == b""


def test_manifest_line_counts_sum_to_rows_over_blocks(tmp_path):
    table = _seeded_table(5, dict_pred=True)
    ds = ray.data.from_arrow(table).repartition(5)
    out = str(tmp_path / "nt")
    manifest = write_ntriples(ds, out)

    assert manifest["triples"] == table.num_rows
    assert sum(s["lines"] for s in manifest["shards"]) == table.num_rows
    assert len(manifest["shards"]) > 1
    for shard in manifest["shards"]:
        with open(os.path.join(out, shard["file"]), "rb") as f:
            data = f.read()
        assert len(data) == shard["bytes"]
        assert data.count(b"\n") == shard["lines"]
    written = sorted(f for f in os.listdir(out) if f.endswith(".nt"))
    assert written == sorted(s["file"] for s in manifest["shards"])
    assert not os.path.exists(out + ".tmp")
    # the shards together hold the oracle's lines, in some block order
    got = Counter(
        line
        for f in written
        for line in open(os.path.join(out, f), encoding="utf-8").read().split("\n")[:-1]
    )
    # (str.split, not splitlines: "\r" inside a line is escaped, but other
    # line breaks such as U+2028 would split there)
    assert got == Counter(_oracle_lines(table))


def test_write_of_no_rows_publishes_an_empty_manifest(tmp_path):
    """An edge table without rows still gets a published sink: a ``_SUCCESS``
    with no shards (the directory used to vanish before the manifest was
    written)."""
    empty = pa.table({c: pa.array([], pa.string()) for c in ("subj", "pred", "obj")})
    out = str(tmp_path / "nt")
    manifest = write_ntriples(ray.data.from_arrow(empty), out)
    assert manifest["triples"] == 0 and manifest["shards"] == []
    assert os.listdir(out) == ["_SUCCESS"]


# -- IRIs holding characters IRIREF forbids ------------------------------------

_IRIREF = r'<(?:[^\x00-\x20<>"{}|^`\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*>'
_TERM = rf'(?:{_IRIREF}|_:\w+|"(?:[^"\\\n\r]|\\.)*")'
_NT_LINE = re.compile(rf"^(?:{_IRIREF}|_:\w+) {_IRIREF} {_TERM} \.$")


def test_iris_with_forbidden_characters_are_escaped(tmp_path):
    """Turn IRIs carry ``conv_id`` verbatim: a space or a newline in it must
    not give an invalid IRIREF or split a triple over two lines."""
    from knowledgegraphs_ray.pipelines.flagship import flagship_run

    conv_ids = ["chat 42", "line\nbreak"]
    turns = pa.table(
        {
            "conv_id": [c for c in conv_ids for _ in range(2)],
            "turn_idx": pa.array([0, 1] * 2, pa.int32()),
            "role": ["user", "assistant"] * 2,
            "text": ["the customer order", "a supplier part"] * 2,
            "tool": pa.array([None] * 4, pa.string()),
            "ts": pa.array([0] * 4, pa.timestamp("us")),
        }
    )
    root = str(tmp_path / "run")
    p = flagship_run(root, ingest=lambda: ray.data.from_arrow(turns))
    edges = pa.concat_tables(ray.get(p.dataset("edges").to_arrow_refs()))
    rows = Counter(
        zip(*(edges[c].cast(pa.string()).to_pylist() for c in ("subj", "pred", "obj")))
    )
    assert any("chat 42" in s for s, _, _ in rows)

    nt = root + "/edges_nt"
    lines = [
        line
        for f in sorted(os.listdir(nt))
        if f.endswith(".nt")
        for line in open(os.path.join(nt, f), encoding="utf-8").read().split("\n")[:-1]
    ]
    assert len(lines) == edges.num_rows  # one line per triple
    bad = [line for line in lines if not _NT_LINE.match(line)]
    assert not bad, bad[:3]
    parsed = Counter((s, p_, o) for s, p_, o, _ in parse_ntriples(nt + "/*.nt"))
    assert parsed == rows  # the round trip gives back the original IRIs

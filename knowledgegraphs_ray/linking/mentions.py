"""Mention extraction + label normalization.

Reference analogues: annotation literal processing (DeepOnto
utils/text_utils.py:31-93 — underscore split, camel-case split, lowercase),
punctuation removal (util/Ontology.java:377-384), header tokenization
(AAExpansion HeadersDataset.py:37-76). Re-expressed as vectorized per-batch
kernels (polars/pyarrow) emitting a mention table
``(src_id, mention, n_occurrences)`` — mentions stay grouped per source row
within a batch, so extraction is map-only (no shuffle).
"""

from __future__ import annotations

import re

import polars as pl
import pyarrow as pa
import ray
import ray.data

TOKEN_RE = "[a-z0-9_]+"


def mention_tokens(text_col: str) -> pl.Expr:
    """The mention tokenizer: lowercased ``TOKEN_RE`` runs of ``text_col``,
    as a list per row. Every path that finds mentions in text uses it, so a
    mention the linker sees is always one the mentions table holds."""
    return pl.col(text_col).str.to_lowercase().str.extract_all(TOKEN_RE)


# two boundaries: aB -> "a B", and ABc -> "A Bc" (so APIReference -> API Reference,
# the Java-identifier split of utils/text_utils.py:60-93)
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_PUNCT_RE = re.compile(r"[^\w\s]")


def normalize_label(s: str) -> str:
    """Annotation normalization (M9/M10/M11): camel split, underscores ->
    spaces, punctuation -> space, lowercase, collapse whitespace."""
    s = _CAMEL_RE.sub(" ", s)
    s = s.replace("_", " ")
    s = _PUNCT_RE.sub(" ", s)
    return " ".join(s.lower().split())


class MentionExtractor:
    """Stateless task: tokenize text, keep tokens (and optionally bigrams)
    present in the broadcast surface-form dictionary, count per source row.

    The dictionary rides in the object store (``ray.put`` once); each task
    does one zero-copy ``ray.get``. Reference analogue: the trie lookup of
    MedicalDictionary.py:189-279, degenerated to exact surface matching —
    candidate *generation* handles fuzz (see index.py).
    """

    def __init__(self, forms_ref, *, id_col: str, text_col: str, bigrams: bool = False):
        self.forms_ref = forms_ref
        self._forms: pl.Series | None = None
        self.id_col = id_col
        self.text_col = text_col
        self.bigrams = bigrams

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._forms is None:
            self._forms = pl.Series("f", sorted(ray.get(self.forms_ref)))
        df = pl.from_arrow(batch.select([self.id_col, self.text_col]))
        toks = df.select(pl.col(self.id_col), mention_tokens(self.text_col).alias("tok"))
        uni = toks.explode("tok").drop_nulls("tok")
        parts = [uni]
        if self.bigrams:
            big = toks.with_columns(
                pl.col("tok")
                .list.eval(
                    pl.concat_str(
                        [pl.element(), pl.element().shift(-1)], separator=" "
                    )
                )
                .alias("tok")
            ).explode("tok").drop_nulls("tok")
            parts.append(big)
        allt = pl.concat(parts)
        hits = (
            allt.filter(pl.col("tok").is_in(self._forms))
            .group_by([self.id_col, "tok"])
            .len()
            .rename({"tok": "mention", "len": "n_occurrences"})
            .sort([self.id_col, "mention"])
            .with_columns(pl.col("n_occurrences").cast(pl.Int64))
        )
        return hits.to_arrow()


def extract_mentions(
    ds: ray.data.Dataset,
    surface_forms: set[str] | list[str],
    *,
    id_col: str,
    text_col: str = "text",
    bigrams: bool = False,
) -> ray.data.Dataset:
    ext = MentionExtractor(
        ray.put(set(surface_forms)), id_col=id_col, text_col=text_col, bigrams=bigrams
    )
    return ds.map_batches(ext, batch_format="pyarrow", zero_copy_batch=True)

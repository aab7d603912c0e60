"""Ontology annotation index + IDF inverted-index candidate generation.

Reference: annotation index construction (DeepOnto onto/ontology.py:448-500)
and IDF candidate selection (utils/text_utils.py:155-182,
mapping_prediction.py:174-178): tokenize source annotations, union posting
lists of the inverted token->entity index, score candidates by
Σ idf(token) = Σ log10(D / df(token)), keep the top ``num_raw_candidates``.

Built ONCE on the driver from the (small) ontology, broadcast via ``ray.put``,
looked up inside ``map_batches`` tasks — the linking stage never shuffles the
corpus; only the small candidate table moves.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from knowledgegraphs_ray.linking.mentions import normalize_label
from knowledgegraphs_ray.rules.compiler import RuleTable


@dataclass
class AnnotationIndex:
    """entity_iri -> normalized labels; inverted token -> [entity_iri] with IDF."""

    labels: dict[str, list[str]] = field(default_factory=dict)
    postings: dict[str, list[str]] = field(default_factory=dict)
    idf: dict[str, float] = field(default_factory=dict)

    @classmethod
    def build(cls, entity_labels: dict[str, list[str]]) -> "AnnotationIndex":
        idx = cls()
        inv: dict[str, set[str]] = defaultdict(set)
        for iri, labels in entity_labels.items():
            norm = sorted({normalize_label(l) for l in labels if l})
            idx.labels[iri] = norm
            for lab in norm:
                for tok in lab.split():
                    inv[tok].add(iri)
        n_docs = max(len(idx.labels), 1)
        for tok, iris in inv.items():
            idx.postings[tok] = sorted(iris)
            # idf = log10(D / df) — text_utils.py:178
            idx.idf[tok] = math.log10(n_docs / len(iris))
        return idx

    def candidates(self, mention: str, k: int = 200) -> list[tuple[str, float]]:
        """Top-k candidate entities by summed token IDF (J2)."""
        scores: dict[str, float] = defaultdict(float)
        for tok in normalize_label(mention).split():
            w = self.idf.get(tok)
            if w is None:
                continue
            for iri in self.postings[tok]:
                scores[iri] += w
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def exact_match(self, mention: str) -> list[str]:
        """Entities sharing a normalized annotation exactly (ExactMapper /
        string-match shortcut — ExactMapper.java:49-83,
        mapping_prediction.py:130-149): score 1.0, skip the model."""
        m = normalize_label(mention)
        return sorted(
            iri for iri, labs in self.labels.items() if m in labs
        )


def ontology_labels_from_rules(rules: RuleTable) -> dict[str, list[str]]:
    """Derive entity labels from a compiled rule table — the PO's
    rdfs:label/skos annotations (Annotations.java:24-37): class label = the
    source name; property labels = name with has_/p_/_VALUE affixes stripped
    (Annotations.java:84-111)."""
    out: dict[str, list[str]] = {}
    for ciri in rules.classes:
        name = ciri.split(":", 1)[1]
        out[ciri] = [name]
    for piri in rules.object_props:
        name = piri.split(":", 1)[1]
        out[piri] = [name, name.removeprefix("p_")]
    for diri in rules.data_props:
        name = diri.split(":", 1)[1]
        stripped = name.removeprefix("has_").removesuffix("_VALUE")
        out[diri] = [name, stripped]
    return out


class CandidateGenerator:
    """map_batches stage: mention rows -> exploded candidate rows
    (src keys..., cand_iri, idf_score, exact). Index broadcast once."""

    def __init__(self, index_ref, *, mention_col: str = "mention", k: int = 200):
        self.index_ref = index_ref
        self._idx: AnnotationIndex | None = None
        self.mention_col = mention_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        if self._idx is None:
            self._idx = ray.get(self.index_ref)
        idx = self._idx
        df = batch.to_pandas()
        # dedupe mentions within the batch — candidate gen is per distinct
        # mention string (B5-style dedup-embed)
        uniq = df[self.mention_col].drop_duplicates()
        rows = []
        for m in uniq:
            exact = set(idx.exact_match(m))
            for iri, s in idx.candidates(m, self.k):
                rows.append((m, iri, s, iri in exact))
        cand = pd.DataFrame(
            rows, columns=[self.mention_col, "cand_iri", "idf_score", "exact"]
        )
        if cand.empty:
            cand = pd.DataFrame(
                {
                    self.mention_col: pd.Series([], dtype=str),
                    "cand_iri": pd.Series([], dtype=str),
                    "idf_score": pd.Series([], dtype=float),
                    "exact": pd.Series([], dtype=bool),
                }
            )
        return df.merge(cand, on=self.mention_col, how="inner")


def generate_candidates(
    mentions: ray.data.Dataset,
    index: AnnotationIndex,
    *,
    mention_col: str = "mention",
    k: int = 200,
) -> ray.data.Dataset:
    gen = CandidateGenerator(ray.put(index), mention_col=mention_col, k=k)
    return mentions.map_batches(gen, batch_format="pyarrow")

"""Surrogate cross-encoder scorer — the BERTMap scoring stage re-hosted.

The reference scores (src annotation, tgt annotation) pairs with a fine-tuned
BERT sequence classifier inside one process
(align/bertmap/bert_classifier.py:51-160, batches of 32). Torch isn't
available in this sandbox, so the model is a DETERMINISTIC surrogate
(FIXTURES.md F4): char-3-gram Jaccard + token-set Jaccard, combined. The
Ray-side plumbing (``map_batches`` over (mention, cand_iri) rows, per-pair
scoring, per-candidate aggregation per mapping_prediction.py:122-128) is real
and is exactly where a HF checkpoint drops in (``torch_scorer``).

The surrogate's state is cheap (label profiles built lazily, per candidate
IRI), so ``score_candidates`` passes it as an instance: it runs as a task
that fuses with candidate generation and starts no actors.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from knowledgegraphs_ray.linking.index import AnnotationIndex
from knowledgegraphs_ray.linking.mentions import normalize_label


def char_ngrams(s: str, n: int = 3) -> set[str]:
    s = f"  {s} "  # pad so short strings still produce grams
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def token_overlap(a: str, b: str) -> float:
    ta, tb = set(a.split()), set(b.split())
    return jaccard(ta, tb)


class SurrogateCrossEncoder:
    """Scorer stage (B1 analogue), run instance-passed as a task.

    The instance holds only the broadcast index (ref); the first call pulls
    it, and each candidate IRI's label profiles (char-ngram + token sets)
    are built when a row first names it, so a task's cost follows the
    candidates its rows touch, not the ontology size.
    __call__ (per batch): for each (mention, cand_iri) row compute
    bes = max over candidate labels of 0.5*char3gram_jaccard + 0.5*token_jaccard
    pj  = max token-set Jaccard (the PJ column of extractBertMapMappings.py:66-98)
    exact shortcut (J4): shared normalized annotation -> bes = 1.0.
    """

    def __init__(self, index_ref):
        self.index_ref = index_ref
        self._labels: dict[str, list[str]] | None = None
        self._profiles: dict[str, list[tuple[set, set]]] = {}
        self._mention_cache: dict[str, tuple[set, set]] = {}

    def _profile_for(self, iri: str) -> list[tuple[set, set]]:
        p = self._profiles.get(iri)
        if p is None:
            if self._labels is None:
                idx = self.index_ref
                if not isinstance(idx, AnnotationIndex):
                    idx = ray.get(idx)
                self._labels = idx.labels
            p = [(char_ngrams(lab), set(lab.split())) for lab in self._labels.get(iri, ())]
            self._profiles[iri] = p
        return p

    def _mention_profile(self, m: str) -> tuple[set, set]:
        p = self._mention_cache.get(m)
        if p is None:
            norm = normalize_label(m)
            p = (char_ngrams(norm), set(norm.split()))
            self._mention_cache[m] = p
        return p

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        bes = np.zeros(len(df))
        pj = np.zeros(len(df))
        exact = df["exact"].to_numpy() if "exact" in df else np.zeros(len(df), bool)
        mentions = df["mention"].to_numpy()
        cands = df["cand_iri"].to_numpy()
        # score per distinct (mention, cand) — duplicates hit the memo
        memo: dict[tuple[str, str], tuple[float, float]] = {}
        for i in range(len(df)):
            key = (mentions[i], cands[i])
            got = memo.get(key)
            if got is None:
                grams, toks = self._mention_profile(mentions[i])
                b = p = 0.0
                for lg, lt in self._profile_for(cands[i]):
                    b = max(b, 0.5 * jaccard(grams, lg) + 0.5 * jaccard(toks, lt))
                    p = max(p, jaccard(toks, lt))
                got = (b, p)
                memo[key] = got
            bes[i], pj[i] = got
        bes = np.where(exact, 1.0, bes)
        df["bes"] = bes
        df["pj"] = pj
        return df


def score_candidates(
    cands: ray.data.Dataset,
    index: AnnotationIndex,
    *,
    scorer_cls: type = SurrogateCrossEncoder,
) -> ray.data.Dataset:
    """Add ``bes``/``pj`` to (mention, cand_iri) rows with a ``scorer_cls``
    instance built from the broadcast index ref: one instance-passed task
    per input block, which fuses with the upstream map (candidate
    generation) and starts no actors, so the input's block count sets the
    parallelism.

    ``scorer_cls`` is the model plug: any class constructed from the index
    ref alone, cheaply (it is built on the driver each call), whose
    ``__call__`` adds ``bes``/``pj`` to a batch of (mention, cand_iri) rows."""
    return cands.map_batches(scorer_cls(ray.put(index)), batch_format="pyarrow")

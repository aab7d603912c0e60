"""Surrogate cross-encoder scorer — the BERTMap scoring stage re-hosted.

The reference scores (src annotation, tgt annotation) pairs with a fine-tuned
BERT sequence classifier inside one process
(align/bertmap/bert_classifier.py:51-160, batches of 32). Torch isn't
available in this sandbox, so the model is a DETERMINISTIC surrogate
(FIXTURES.md F4): char-3-gram Jaccard + token-set Jaccard, combined — the
Ray-side plumbing (actor pool via ``map_batches(Cls, concurrency=...)``,
per-actor state built once in ``__init__``, per-pair scoring, per-candidate
aggregation per mapping_prediction.py:122-128) is real and is exactly where a
HF checkpoint would drop in (swap ``_pair_score`` for model inference).
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
    """Actor-pool scorer stage (B1 analogue).

    __init__ (once per actor): pull the broadcast AnnotationIndex, precompute
    char-ngram profiles + token sets of every entity label (the "model load").
    __call__ (per batch): for each (mention, cand_iri) row compute
    bes = max over candidate labels of 0.5*char3gram_jaccard + 0.5*token_jaccard
    pj  = max token-set Jaccard (the PJ column of extractBertMapMappings.py:66-98)
    exact shortcut (J4): shared normalized annotation -> bes = 1.0, skip scoring.
    """

    def __init__(self, index_ref):
        idx: AnnotationIndex = (
            ray.get(index_ref) if not isinstance(index_ref, AnnotationIndex) else index_ref
        )
        self.labels = idx.labels
        self.profiles = {
            iri: [(lab, char_ngrams(lab), set(lab.split())) for lab in labs]
            for iri, labs in idx.labels.items()
        }
        self._mention_cache: dict[str, tuple[set, set]] = {}

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
                for _, lg, lt in self.profiles.get(cands[i], ()):
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
    concurrency: int | tuple[int, int] = 2,
    batch_size: int = 4096,
    scorer_cls: type = SurrogateCrossEncoder,
) -> ray.data.Dataset:
    """Run the scorer as an ActorPoolStrategy map_batches stage — the state
    (label profiles) is built once per actor. Keep
    ``concurrency × num_cpus < cluster CPUs`` or upstream reads starve.

    ``scorer_cls`` is the model plug: any class constructed from the
    broadcast index ref whose ``__call__`` adds ``bes``/``pj`` to a batch of
    (mention, cand_iri) rows (e.g. ``torch_scorer.TorchCrossEncoder``)."""
    return cands.map_batches(
        scorer_cls,
        fn_constructor_args=(ray.put(index),),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )

"""Real-model cross-encoder stage — the production drop-in for the
deterministic surrogate (import-gated: torch/transformers are not in this
container; the class raises a clear error at construction when absent).

Reference: align/bertmap/bert_classifier.py:51-160 —
``AutoModelForSequenceClassification`` fine-tuned on synonym pairs,
``predict(sent_pairs)`` → softmax P(synonym), batch 32, deterministic seeds.

Stage shape mirrors ``SurrogateCrossEncoder``: constructed from the index
ref, ``__call__`` scores (mention, cand_iri) rows with bes = max over
candidate labels of P(synonym). Unlike the surrogate, construction loads a
checkpoint, so the class runs in its own actor pool that loads it ONCE per
actor (see the class docstring). ``score_candidates`` builds its scorer
from the index ref alone, as a task, and does not take this class.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

try:  # pragma: no cover - torch absent in this container
    import torch
    from transformers import AutoModelForSequenceClassification, AutoTokenizer

    _TORCH = True
except ImportError:
    _TORCH = False

    class _NoGrad:  # decorator stand-in so the class body parses without torch
        def __call__(self, fn):
            return fn

    class _TorchShim:
        no_grad = _NoGrad

    torch = _TorchShim()  # type: ignore[assignment]


class TorchCrossEncoder:
    """Actor-pool stage: HF sequence classifier over annotation pairs.

    Use with ``map_batches(TorchCrossEncoder, fn_constructor_args=(index_ref,
    checkpoint_path), concurrency=N, num_gpus=g, batch_size=B)``.
    """

    def __init__(self, index_ref, checkpoint: str, *, max_length: int = 128, infer_batch: int = 32):
        if not _TORCH:
            raise ImportError(
                "torch/transformers are not installed in this environment; "
                "use linking.scorer.SurrogateCrossEncoder (same stage shape) "
                "or install torch and pass a fine-tuned checkpoint path"
            )
        from knowledgegraphs_ray.linking.index import AnnotationIndex

        idx: AnnotationIndex = (
            ray.get(index_ref) if not isinstance(index_ref, AnnotationIndex) else index_ref
        )
        self.labels = idx.labels
        torch.manual_seed(0)  # bert_classifier.py:218-227 determinism
        self.tokenizer = AutoTokenizer.from_pretrained(checkpoint)
        self.model = AutoModelForSequenceClassification.from_pretrained(checkpoint)
        self.model.eval()
        self.device = "cuda" if torch.cuda.is_available() else "cpu"
        self.model.to(self.device)
        self.max_length = max_length
        self.infer_batch = infer_batch

    @torch.no_grad()
    def _predict(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        probs = []
        for i in range(0, len(pairs), self.infer_batch):
            chunk = pairs[i : i + self.infer_batch]
            enc = self.tokenizer(
                [a for a, _ in chunk],
                [b for _, b in chunk],
                padding=True,
                truncation=True,
                max_length=self.max_length,
                return_tensors="pt",
            ).to(self.device)
            logits = self.model(**enc).logits
            probs.append(torch.softmax(logits, dim=-1)[:, -1].cpu().numpy())
        return np.concatenate(probs) if probs else np.empty(0)

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        pairs: list[tuple[str, str]] = []
        spans: list[tuple[int, int]] = []
        for _, r in df.iterrows():
            labs = self.labels.get(r["cand_iri"], [])
            start = len(pairs)
            pairs.extend((r["mention"], lab) for lab in labs)
            spans.append((start, len(pairs)))
        scores = self._predict(pairs)
        # per-candidate aggregation = max over annotation pairs
        # (mapping_prediction.py:243-257 global-matching path)
        df["bes"] = [
            float(scores[s:e].max()) if e > s else 0.0 for s, e in spans
        ]
        df["pj"] = df["bes"]  # PJ recomputed downstream if token ranks needed
        return df

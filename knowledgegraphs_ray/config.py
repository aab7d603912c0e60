"""Pipeline configuration — the reference's user-extension surface (§2.14).

Reference: A_Coordinator/Config.java:84-120,202-328 (per-use-case JSON:
mapper choice, thresholds, abbreviation expansion) and
align/bertmap/default_config.yaml.

One dataclass, loadable from JSON/dict, threaded through the linking stage
(``pipelines.linking_pipeline``). Two extension surfaces match the
reference: (1) this config, (2) the scorer plug (``scorer_cls`` — swap the
surrogate for a HF-checkpoint-backed class with the same __call__ shape).
Every field is read by a pipeline; keys of older configs that no longer
name a field are ignored on load.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any

from knowledgegraphs_ray.linking.scorer import SurrogateCrossEncoder


@dataclass
class PipelineConfig:
    # mapper choice: "exact" (ExactMapper) or "scored" (BERTMap path)
    mapper: str = "scored"
    # selection thresholds (MappingSelection BES/PJ)
    bes_hi: float = 0.85
    bes_lo: float = 0.60
    pj_hi: float = 0.5
    # candidate generation (default_config.yaml:73-74)
    num_raw_candidates: int = 200
    # abbreviation dictionary (full-form vocabulary), the MedicalDictionary
    # analogue; abbreviated mentions are expanded against it when set
    # (Config.java applyMedicalAbbreviationExpansion)
    abbrev_dictionary: dict | None = None
    # scorer stage sizing
    scorer_concurrency: int = 2
    scorer_batch_size: int = 4096
    # context-aware transcript linking (X2): ±k-turn window blended into the
    # candidate score; None = plain per-mention linking
    context_window: int | None = None
    context_weight: float = 0.3
    # scorer plug (see linking.scorer.score_candidates)
    scorer_cls: type = SurrogateCrossEncoder

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PipelineConfig":
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        return cls(**known)

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d.pop("scorer_cls", None)
        return d

"""The scorer runs as a task fused with candidate generation: linking with
the surrogate starts no actor pool."""

import numpy as np
import ray.data
from ray.data import ActorPoolStrategy

from knowledgegraphs_ray.config import PipelineConfig
from knowledgegraphs_ray.linking.index import AnnotationIndex
from knowledgegraphs_ray.pipelines.linking_pipeline import link_mentions


def _index(n: int = 60) -> AnnotationIndex:
    return AnnotationIndex.build(
        {f"kg:E{i}": [f"form{i}", f"form{i} kind{i % 7}"] for i in range(n)}
    )


def _mentions(seed: int, n: int = 300, n_forms: int = 60) -> ray.data.Dataset:
    rng = np.random.default_rng(seed)
    forms = [f"form{i}" if i % 3 else f"form{i} kind{i % 5}" for i in range(n_forms)]
    rows = [{"mention": forms[i]} for i in rng.integers(0, n_forms, n)]
    return ray.data.from_items(rows, override_num_blocks=4)


def _logical_ops(ds: ray.data.Dataset) -> list:
    ops, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        ops.append(op)
        stack.extend(op.input_dependencies)
    return ops


def test_surrogate_link_plan_has_no_actor_pool(monkeypatch):
    """Every plan ``link_mentions`` executes with the surrogate is task-only,
    and the scorer is fused into the candidate-generation task."""
    ops, stats = [], []
    materialize = ray.data.Dataset.materialize

    def recording(self):
        ops.extend(_logical_ops(self))
        out = materialize(self)
        stats.append(out.stats())
        return out

    monkeypatch.setattr(ray.data.Dataset, "materialize", recording)
    out = link_mentions(_mentions(0), _index(), PipelineConfig()).to_pandas()
    assert len(out) > 0
    assert any("SurrogateCrossEncoder" in op.name for op in ops)
    for op in ops:
        assert not isinstance(getattr(op, "_compute", None), ActorPoolStrategy), op.name
    assert "MapBatches(CandidateGenerator)->MapBatches(SurrogateCrossEncoder)" in "\n".join(stats)

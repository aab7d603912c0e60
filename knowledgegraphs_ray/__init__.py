"""knowledgegraphs_ray — a Ray-Data-native knowledge-graph construction engine.

Re-expresses the capabilities of the ENCRYPT KnowledgeGraphs reference
(ChristinaK97/KnowledgeGraphs) as idiomatic Ray Data pipelines:

* rule-based schema -> ontology extraction compiled into vectorized
  triple-extraction kernels (reference: ``C_POextractor/RDB2OWL/*`` and
  ``E_CreateKG/InsertData*``),
* entity/mention matching as instance-passed ``map_batches`` tasks over
  broadcast indexes
  (reference: BERTMap ``align/bertmap/*`` + AAExpansion),
* canonicalization as union-find per mention blocking key, over per-block
  distinct partials merged without a shuffle
  (reference: ``AAExpansion/source/util/NearDuplicates.py``),
* graph materialization as partitioned Parquet / N-Triples edge tables
  (reference: ``E_CreateKG/InsertDataBase.java``).

Nothing here calls ``ray.init`` — sessions are owned by CLI entry points,
``bench.py`` and the pytest fixture.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# Pin polars' per-process thread pool BEFORE its first import: every batch
# kernel here runs inside a 1-CPU Ray task, and polars' default pool (one
# thread per host core, per process) oversubscribes the node ~32x when 32
# such tasks run concurrently — measured ~15% wall on the DSIR weigh stage
# at 64 tasks x 32 cores, and strictly worse at higher task counts. 4
# threads keeps driver-side merges quick while capping worker fan-out.
# Respects an explicit user setting; a no-op if polars is already loaded
# (the pool size is latched at import).
if "polars" not in _sys.modules:
    _os.environ.setdefault("POLARS_MAX_THREADS", "4")

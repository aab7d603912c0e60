"""The benchmark's trace mode (kgbench/spans.py) swaps program functions for
timing wrappers by module and name. Every name it looks up must exist, and
the flagship's linking chain must run through the wrapped bindings."""

import importlib
import importlib.util
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    name = "kgbench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(REPO, "kgbench", "spans.py")
        )
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_every_traced_binding_resolves():
    spans = _spans()
    for mod_name, attr in [c[:2] for c in spans.LAYER_CALLS] + [spans.STAGE_CALL]:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_traced_flagship_times_each_linking_layer(tmp_path):
    from knowledgegraphs_ray.pipelines.flagship import flagship_run
    from knowledgegraphs_ray.pipelines.transcripts import synth_transcripts

    spans = _spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        flagship_run(
            str(tmp_path / "run"),
            ingest=lambda: synth_transcripts(20, seed=3).materialize(),
            write_nt=False,
        )
    names = {s.name for s in tracer.spans}
    assert {"linking.mentions", "linking.candidates", "linking.score", "linking.select"} <= names
    assert {f"state.{st}" for st in ("mentions", "links", "canonical")} <= names

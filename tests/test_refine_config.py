"""Mapping extension (H7), ontology export (R13), config, context windows."""

import pandas as pd
import ray.data

from knowledgegraphs_ray.config import PipelineConfig
from knowledgegraphs_ray.linking.refine import extend_mappings, filter_mappings
from knowledgegraphs_ray.pipelines.transcripts import synth_transcripts, with_context_window
from knowledgegraphs_ray.rules.compiler import compile_rules
from knowledgegraphs_ray.rules.hierarchy import Hierarchy
from knowledgegraphs_ray.rules.ontology_export import ontology_triples
from knowledgegraphs_ray.schema.model import tpch_schema


def test_extend_mappings_one_hop():
    src = Hierarchy.build([("kg:CreditCard", "kg:Card"), ("kg:Card", "kg:Instrument")])
    tgt = Hierarchy.build([("do:credit_card", "do:card"), ("do:card", "do:instrument")])
    out = extend_mappings({"kg:CreditCard": "do:credit_card"}, src, tgt)
    assert out["kg:CreditCard|do:credit_card"] == 1.0
    # parents (Card, card) match by surrogate similarity and extend upward
    assert "kg:Card|do:card" in out
    assert "kg:Instrument|do:instrument" in out
    filtered = filter_mappings(out, lam=0.99)
    assert "kg:CreditCard|do:credit_card" in filtered


def test_extend_stops_on_dissimilar():
    src = Hierarchy.build([("kg:A", "kg:Zebra")])
    tgt = Hierarchy.build([("do:a", "do:spreadsheet")])
    out = extend_mappings({"kg:A": "do:a"}, src, tgt)
    assert "kg:Zebra|do:spreadsheet" not in out


def test_ontology_triples_export():
    rules = compile_rules(tpch_schema(["nation", "region"]))
    df = ontology_triples(rules, subclass_edges=[("kg:Nation", "do:Country")])
    trips = set(map(tuple, df.itertuples(index=False)))
    assert ("kg:Nation", "rdf:type", "owl:Class") in trips
    assert ("kg:p_nation_region", "rdfs:domain", "kg:Nation") in trips
    assert ("kg:p_nation_region", "rdfs:range", "kg:Region") in trips
    assert ("kg:has_n_name", "rdfs:range", "xsd:string") in trips
    assert ("kg:Nation", "rdfs:subClassOf", "do:Country") in trips


def test_pipeline_config_roundtrip(tmp_path):
    cfg = PipelineConfig(num_raw_candidates=50, bes_hi=0.9, mapper="exact")
    p = tmp_path / "cfg.json"
    p.write_text(__import__("json").dumps(cfg.to_dict()))
    cfg2 = PipelineConfig.from_json(str(p))
    assert cfg2.num_raw_candidates == 50 and cfg2.bes_hi == 0.9 and cfg2.mapper == "exact"
    # unknown keys ignored
    cfg3 = PipelineConfig.from_dict({"bes_hi": 0.7, "not_a_field": 1})
    assert cfg3.bes_hi == 0.7


def test_context_window_within_conversation():
    ds = synth_transcripts(5, seed=2)
    out = with_context_window(ds, k=1).to_pandas()
    for _, g in out.groupby("conv_id"):
        g = g.sort_values("turn_idx").reset_index(drop=True)
        if len(g) >= 3:
            assert g.loc[1, "context"] == f"{g.loc[0, 'text']} {g.loc[2, 'text']}"
        if len(g) >= 2:
            assert g.loc[0, "context"] == g.loc[1, "text"]

"""Abbreviation-expansion pipeline (AAExpansion analogue, SURVEY §2.13)."""

import pytest
import ray.data

from knowledgegraphs_ray.linking.abbrev import (
    expand_abbreviations,
    initials_score,
    surrogate_expansion_score,
)

DICT = {
    "hr": ["heart rate", "hour"],
    "bp": ["blood pressure", "base pair"],
    "wt": ["weight"],
    "o3fa": ["omega 3 fatty acid", "omega3 fatty acid"],
}


def test_initials_score():
    assert initials_score("hr", "heart rate") == 1.0
    assert initials_score("hr", "hour") == 0.5  # only 'h' is an initial
    assert initials_score("bp", "blood pressure") == 1.0


def test_surrogate_prefers_initialism():
    assert surrogate_expansion_score("hr", "heart rate") > surrogate_expansion_score(
        "hr", "hour"
    )


def test_expand_pipeline_votes_near_dup_group():
    ds = ray.data.from_items(
        [
            {"mention": "patient hr value"},
            {"mention": "o3fa level"},
            {"mention": "wt in kg"},
            {"mention": "no abbreviations here at all"},
        ]
    )
    out = expand_abbreviations(ds, DICT).to_pandas().set_index("abbrev")
    assert out.loc["hr", "expansion"] == "heart rate"
    assert out.loc["wt", "expansion"] == "weight"
    # the two near-duplicate omega forms merge into one vote group (n=2)
    assert out.loc["o3fa", "n_votes"] == 2
    assert out.loc["o3fa", "expansion"].startswith("omega")


def test_expand_empty_input():
    ds = ray.data.from_items([{"mention": "plain words only"}])
    out = expand_abbreviations(ds, DICT).to_pandas()
    assert len(out) == 0


@pytest.mark.parametrize("mapper", ["exact", "scored"])
def test_expansion_to_a_corpus_form_links_each_mention_once(mapper):
    """cust expands to customer, which the corpus also holds: the expanded
    and the original form still get one link each."""
    from knowledgegraphs_ray.config import PipelineConfig
    from knowledgegraphs_ray.pipelines.linking_pipeline import (
        link_mentions,
        star_ontology_index,
    )

    mentions = ray.data.from_items(
        [{"mention": m} for m in ["customer", "cust", "customer", "cust", "part"]]
    )
    cfg = PipelineConfig(mapper=mapper, abbrev_dictionary={"cust": ["customer"]})
    out = link_mentions(mentions, star_ontology_index(), cfg).to_pandas()
    assert sorted(out["mention"]) == ["cust", "customer", "part"]
    assert dict(zip(out["mention"], out["cand_iri"]))["cust"] == "kg:Customer"

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


def test_backmapped_abbreviation_keeps_its_own_count():
    """customer x2 and cust x3 under cust -> customer: each link row reports
    its own form's occurrences (3 for cust, 2 for customer), not the 5 of
    both; an expansion the corpus does not hold reports 0."""
    from knowledgegraphs_ray.config import PipelineConfig
    from knowledgegraphs_ray.pipelines.linking_pipeline import (
        link_mentions,
        star_ontology_index,
    )

    mentions = ray.data.from_items(
        [{"mention": m} for m in ["customer", "cust", "customer", "cust", "cust", "part"]]
    )
    cfg = PipelineConfig(abbrev_dictionary={"cust": ["customer"]})
    out = link_mentions(mentions, star_ontology_index(), cfg).to_pandas()
    n_srcs = dict(zip(out["mention"], out["n_srcs"]))
    assert n_srcs["cust"] == 3
    assert n_srcs["customer"] == 2
    assert n_srcs["part"] == 1

    only_abbrev = ray.data.from_items([{"mention": m} for m in ["cust", "cust"]])
    out = link_mentions(only_abbrev, star_ontology_index(), cfg).to_pandas()
    assert dict(zip(out["mention"], out["n_srcs"])) == {"cust": 2, "customer": 0}

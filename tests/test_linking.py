"""Tests for mention extraction, candidate generation, surrogate scoring,
selection cascade, and canonicalization (SURVEY.md §2.5-2.8, §2.13)."""

import pandas as pd
import pyarrow as pa
import ray.data

from knowledgegraphs_ray.canon.canonicalize import canonicalize_mentions
from knowledgegraphs_ray.canon.unionfind import UnionFind
from knowledgegraphs_ray.linking.index import AnnotationIndex
from knowledgegraphs_ray.linking.mentions import extract_mentions, normalize_label
from knowledgegraphs_ray.linking.scorer import SurrogateCrossEncoder, char_ngrams, jaccard
from knowledgegraphs_ray.linking.select import rank_candidates, select_optimal, topk


def test_normalize_label():
    assert normalize_label("APIReference_Name") == "api reference name"
    assert normalize_label("has_birth-date!") == "has birth date"


def test_extract_mentions_counts():
    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "the customer met another Customer near the part"},
            {"doc_id": 2, "text": "nothing relevant here"},
        ]
    )
    out = extract_mentions(ds, {"customer", "part"}, id_col="doc_id").to_pandas()
    got = {(r.doc_id, r.mention): r.n_occurrences for r in out.itertuples()}
    assert got == {(1, "customer"): 2, (1, "part"): 1}


def test_extract_mentions_bigrams():
    ds = ray.data.from_items([{"doc_id": 1, "text": "new york and boston"}])
    out = extract_mentions(
        ds, {"new york", "boston"}, id_col="doc_id", bigrams=True
    ).to_pandas()
    assert set(out["mention"]) == {"new york", "boston"}


def test_annotation_index_idf_candidates():
    idx = AnnotationIndex.build(
        {
            "kg:A": ["credit card account"],
            "kg:B": ["savings account"],
            "kg:C": ["credit score"],
        }
    )
    cands = dict(idx.candidates("credit account"))
    # A shares both tokens; B and C share one each
    assert max(cands, key=cands.get) == "kg:A"
    assert set(cands) == {"kg:A", "kg:B", "kg:C"}
    # rarer token ("score") has higher idf than "account" (df 1 vs 2)
    assert idx.idf["score"] > idx.idf["account"]


def test_exact_match_shortcut():
    idx = AnnotationIndex.build({"kg:A": ["Credit_Card"], "kg:B": ["loan"]})
    assert idx.exact_match("credit card") == ["kg:A"]


def test_exact_match_equals_label_scan():
    """The inverse label map answers what a scan over every entity's labels
    answers: shared labels give every IRI, sorted; misses give []."""
    idx = AnnotationIndex.build(
        {
            "kg:Z": ["loan", "Credit_Card"],
            "kg:A": ["credit card", "card"],
            "kg:M": ["CARD", "bank account"],
            "kg:E": [],
        }
    )
    for m in ["credit card", "Card", "loan", "bank_account", "account", "nothing", ""]:
        n = normalize_label(m)
        scan = sorted(iri for iri, labs in idx.labels.items() if n in labs)
        assert idx.exact_match(m) == scan, m
    assert idx.exact_match("card") == ["kg:A", "kg:M"]
    assert idx.exact_match("credit_card") == ["kg:A", "kg:Z"]


def test_surrogate_scorer_orders_by_similarity():
    idx = AnnotationIndex.build(
        {"kg:A": ["customer"], "kg:B": ["custom duty"], "kg:C": ["nation"]}
    )
    sc = SurrogateCrossEncoder(idx)
    batch = pa.table(
        {
            "mention": ["customer"] * 3,
            "cand_iri": ["kg:A", "kg:B", "kg:C"],
            "exact": [True, False, False],
        }
    )
    out = sc(batch)
    assert out.loc[0, "bes"] == 1.0  # exact shortcut (J4)
    assert out.loc[1, "bes"] > out.loc[2, "bes"]  # custom duty closer than nation


def test_rank_and_select_cascade():
    g = pd.DataFrame(
        {
            "mention": ["m"] * 3,
            "cand_iri": ["kg:x", "kg:y", "kg:z"],
            "bes": [0.9, 0.86, 0.3],
            "pj": [0.5, 0.8, 0.9],
        }
    )
    r = rank_candidates(g)
    assert r.loc[2, "pj_rank"] == 1  # highest pj
    sel = select_optimal(g)
    # z fails bes thresholds; among x,y the better pj_rank wins -> y
    assert sel["cand_iri"].tolist() == ["kg:y"]


def test_select_empty_when_all_below_threshold():
    g = pd.DataFrame(
        {"mention": ["m"], "cand_iri": ["kg:x"], "bes": [0.1], "pj": [0.0]}
    )
    assert select_optimal(g).empty


def test_topk_deterministic_tiebreak():
    g = pd.DataFrame(
        {"mention": ["m"] * 3, "cand_iri": ["kg:c", "kg:a", "kg:b"], "bes": [0.5, 0.5, 0.9]}
    )
    out = topk(g, k=2)
    assert out["cand_iri"].tolist() == ["kg:b", "kg:a"]  # ties by iri asc


def test_union_find_deterministic_root():
    uf = UnionFind()
    uf.union("b", "a")
    uf.union("c", "b")
    assert uf.find("c") == "a"  # smallest value is the root


def test_canonicalize_merges_near_duplicates():
    ds = ray.data.from_items(
        [
            {"mention": "order"},
            {"mention": "orders"},
            {"mention": "omega 3 fatty acid"},
            {"mention": "omega3 fatty acid"},
            {"mention": "nation"},
        ]
    )
    out = canonicalize_mentions(ds).to_pandas().set_index("mention")
    assert out.loc["orders", "canonical"] == out.loc["order", "canonical"] == "order"
    assert (
        out.loc["omega 3 fatty acid", "canonical"]
        == out.loc["omega3 fatty acid", "canonical"]
    )
    assert out.loc["nation", "canonical"] == "nation"
    assert out.loc["order", "canonical_iri"] == "kg:entity/order"


def test_canonicalize_hot_block_bounded():
    # a hot block (> limit distinct mentions sharing a key) degrades to exact
    rows = [{"mention": f"user{i:04d}"} for i in range(40)]
    out = canonicalize_mentions(
        ray.data.from_items(rows), hot_block_limit=10
    ).to_pandas()
    assert (out["canonical"] == out["mention"]).all()


def test_char_ngram_jaccard_symmetry():
    a, b = char_ngrams("order"), char_ngrams("orders")
    assert 0 < jaccard(a, b) < 1


def test_overlap_ranking_reference_example():
    """The documented example of mapping_prediction.py:343-356: ranks by
    (overlap fraction desc, token length desc), score-0 unranked."""
    from knowledgegraphs_ray.linking.select import overlap_ranking

    labels = {
        "t:rate": ["rate"],
        "t:base_rate": ["base rate"],
        "t:interest_rate": ["interest rate"],
        "t:long": ["some other with interest rate"],
        "t:unsuitable": ["unsuitable candidate"],
    }
    r = overlap_ranking(
        "contribution interest rate", list(labels), labels
    )
    assert r["t:interest_rate"] == 1  # 2/2, longer beats rate's 1/1 (8.1)
    assert r["t:rate"] == 2
    assert r["t:base_rate"] == 3
    assert r["t:long"] == 4
    assert "t:unsuitable" not in r  # score 0 -> inf


def test_salvage_retention_rules():
    """mapping_prediction.py:405-450: within-perc-diff keep, improving-rank
    keep, and the best-candidate gate."""
    import pandas as pd

    from knowledgegraphs_ray.linking.select import salvage

    labels = {
        "t:rate": ["rate"],
        "t:base_rate": ["base rate"],
        "t:interest_rate": ["interest rate"],
        "t:unsuitable": ["unsuitable candidate"],
    }
    g = pd.DataFrame(
        {
            "mention": ["contribution interest rate"] * 4,
            "cand_iri": ["t:unsuitable", "t:rate", "t:base_rate", "t:interest_rate"],
            "bes": [0.40, 0.35, 0.10, 0.08],
            "pj": [0.0] * 4,
        }
    )
    out = salvage(g, labels=labels, num_raw_candidates=200)
    kept = dict(zip(out["cand_iri"], out["salvage_rank"]))
    # best by bes (unsuitable, 0.40) has no rank and bes < 0.5 -> dropped
    assert "t:unsuitable" not in kept
    # rate: perc_diff |0.35-0.40|/0.40 = 0.125 < 0.5 and ranked -> kept
    assert kept["t:rate"] == 2
    # base_rate: perc_diff 0.75 >= 0.5, rank 3 > best_rank 2 -> dropped
    assert "t:base_rate" not in kept
    # interest_rate: perc_diff 0.8 >= 0.5 BUT rank 1 <= best_rank 2 -> kept
    assert kept["t:interest_rate"] == 1


def test_salvage_high_score_passthrough_and_unranked_rank():
    import pandas as pd

    from knowledgegraphs_ray.linking.select import salvage

    g = pd.DataFrame(
        {
            "mention": ["alpha"] * 2,
            "cand_iri": ["t:a", "t:b"],
            "bes": [0.9, 0.2],
            "pj": [0.0, 0.0],
        }
    )
    # a candidate clears hi -> untouched passthrough
    assert salvage(g).equals(g)

    # best has bes >= perc_thrs but no overlap rank -> kept with the
    # sentinel rank num_raw_candidates + 1
    g2 = pd.DataFrame(
        {
            "mention": ["zzz"] * 1,
            "cand_iri": ["t:q"],
            "bes": [0.6],
            "pj": [0.0],
        }
    )
    out = salvage(g2, labels={"t:q": ["unrelated words"]}, num_raw_candidates=50)
    assert list(out["salvage_rank"]) == [51]


def test_torch_scorer_contract():
    """B2 seam readiness: the surrogate and the torch cross-encoder expose
    identical stage contracts — same constructor head, same
    ``__call__(pa.Table) -> pd.DataFrame`` with identical output
    columns/dtypes — so ``TorchCrossEncoder`` drops into a scoring
    ``map_batches`` stage unchanged when torch lands.
    Reference: align/bertmap/bert_classifier.py:51-160."""
    import inspect

    import numpy as np
    import pytest

    from knowledgegraphs_ray.linking.torch_scorer import _TORCH, TorchCrossEncoder

    idx = AnnotationIndex.build(
        {"kg:e1": ["credit card", "payment card"], "kg:e2": ["bank account"]}
    )
    batch = pa.table(
        {
            "mention": ["credit card", "bank", "credit card"],
            "cand_iri": ["kg:e1", "kg:e2", "kg:e2"],
            "exact": [False, False, False],
        }
    )
    out_s = SurrogateCrossEncoder(idx)(batch)

    # seam: constructing the torch stage without torch raises a clear error
    # that names the drop-in replacement (never a NameError/AttributeError).
    if not _TORCH:
        with pytest.raises(ImportError, match="SurrogateCrossEncoder"):
            TorchCrossEncoder(idx, "/tmp/no-such-checkpoint")

    # signature contract: same __call__ shape, index_ref-first constructor.
    assert (
        list(inspect.signature(SurrogateCrossEncoder.__call__).parameters)
        == list(inspect.signature(TorchCrossEncoder.__call__).parameters)
        == ["self", "batch"]
    )
    assert list(inspect.signature(TorchCrossEncoder.__init__).parameters)[1] == "index_ref"

    # batch contract: a torch instance with the model seam stubbed to a
    # deterministic predictor yields the same columns and dtypes.
    t = object.__new__(TorchCrossEncoder)
    t.labels = idx.labels
    t._predict = lambda pairs: np.linspace(0.1, 0.9, num=len(pairs))
    out_t = TorchCrossEncoder.__call__(t, batch)
    assert isinstance(out_s, pd.DataFrame) and isinstance(out_t, pd.DataFrame)
    assert list(out_s.columns) == list(out_t.columns)
    assert [str(d) for d in out_s.dtypes] == [str(d) for d in out_t.dtypes]
    assert out_t["bes"].between(0.0, 1.0).all()
    # max-over-labels aggregation: kg:e1 has 2 labels -> bes = the larger score
    assert out_t.loc[0, "bes"] > out_t.loc[0, "pj"] - 1e-12  # pj mirrors bes in the torch stage

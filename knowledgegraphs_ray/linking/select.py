"""Candidate ranking + mapping-selection rule cascade (pure functions).

Re-implements the selection math of the reference as unit-testable pandas
kernels applied per mention group, plus one vectorized block kernel for T4
(``pick_optimal``) that ``select_links`` runs without a shuffle:

* T1 — cross-batch top-k per source (mapping_prediction.py:236-273)
* T2 — PJ ranking: PJRank = dense rank by (PJ desc, token-length desc),
  ties share a rank (extractBertMapMappings.py:84-97)
* T3 — low-score salvage: if no candidate >= hi threshold keep top-10 and
  re-rank by token containment (mapping_prediction.py:405-450, simplified)
* T4 — selectTableOptimal: keep BES>=hi OR (BES>=lo AND PJ>=hi), then min
  PJRank, then max PJPerc, first row wins (MappingSelection.java:134-153).
  The max-PJPerc step never changes the result: PJRank ties share PJ, and
  PJPerc (the share of the mention's candidates with a lower PJ) depends on
  PJ alone, so rows with the minimum PJRank share PJPerc.
  T4 is therefore an argmax under one total order per mention
  (``T4_ORDER``): a reduction that per-block picks merge associatively.
* T5 — selectOptimal: min PJRank, tie-break max BES
  (MappingSelection.java:219-227)
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from knowledgegraphs_ray.util.fastagg import reduce_partials

# an IRI's namespace part, up to its last ':' (the rest is its local name)
_NAMESPACE = r"^.*:"

# defaults mirror MappingSelection.java thresholds
BES_HI = 0.85
BES_LO = 0.60
PJ_HI = 0.5


def dense_rank_desc(values: pd.Series, tiebreak: pd.Series | None = None) -> pd.Series:
    """Dense rank, 1 = best (highest ``values``, then highest ``tiebreak``);
    ties share a rank (T2). One numeric lexsort, no per-row tuples."""
    keys = [-values.to_numpy(dtype=float)]
    if tiebreak is not None:
        keys.insert(0, -tiebreak.to_numpy(dtype=float))  # lexsort: last key is primary
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in keys:
        sk = k[order]
        new[1:] |= sk[1:] != sk[:-1]
    ranks = np.empty(len(order), dtype=int)
    ranks[order] = np.cumsum(new)
    return pd.Series(ranks, index=values.index)


def iri_token_length(iris: pd.Series) -> pd.Series:
    """Underscore tokens in each IRI's local name (after its last ':')."""
    return iris.str.replace(_NAMESPACE, "", regex=True).str.count("_") + 1


def rank_candidates(g: pd.DataFrame) -> pd.DataFrame:
    """Add the PJRank column (T2) to one mention's candidates. BESRank and
    PJPerc are not kept: no rule reads BESRank, and T4's PJPerc step is a
    no-op (see the module docstring)."""
    g = g.copy()
    g["pj_rank"] = dense_rank_desc(g["pj"], iri_token_length(g["cand_iri"]))
    return g


_TGT_TOKEN_RE = re.compile(r"\b(?!has\b)\w+")


def overlap_ranking(
    mention: str,
    cand_iris: list[str],
    labels: dict[str, list[str]] | None = None,
) -> dict[str, int]:
    """T3 candidate ranking (mapping_prediction.py:368-402, steps 8.1-8.3):

    score(candidate) = max over its annotations of
    (# tgt tokens, len > 1, excluding 'has', found inside the mention text)
    / (# tgt tokens) — dense rank by (score desc, token-length desc), ties
    share a rank, score 0 gets NO rank (→ inf). Token presence uses plain
    substring containment (the reference's fuzz.partial_ratio == 100)."""
    scored: list[tuple[str, float, int]] = []
    for iri in cand_iris:
        annots = labels.get(iri) if labels else None
        if not annots:
            annots = [iri.split(":")[-1].replace("_", " ")]
        best = (0.0, 0)
        for tgt in annots:
            toks = _TGT_TOKEN_RE.findall(tgt)
            if not toks:
                continue
            score = sum(1 for t in toks if len(t) > 1 and t in mention) / len(toks)
            if (score, len(toks)) > best:
                best = (score, len(toks))
        scored.append((iri, best[0], best[1]))
    scored.sort(key=lambda x: (x[1], x[2]), reverse=True)
    ranking: dict[str, int] = {}
    cur, prev = 0, None
    for iri, s, length in scored:
        if s == 0:
            continue
        if (s, length) != prev:
            cur += 1
        ranking[iri] = cur
        prev = (s, length)
    return ranking


def salvage(
    g: pd.DataFrame,
    *,
    hi: float = BES_HI,
    keep: int = 10,
    perc_thrs: float = 0.5,
    num_raw_candidates: int = 200,
    labels: dict[str, list[str]] | None = None,
) -> pd.DataFrame:
    """T3 low-score salvage (mapping_prediction.py:405-450,
    get_low_score_candidates): when no candidate clears ``hi``,

    1. keep the top-``keep`` by bes;
    2. compute the token-overlap ranking (``overlap_ranking``);
    3. the best-bes candidate survives iff it has a rank or bes >= perc_thrs;
    4. every later candidate survives iff its bes is within ``perc_thrs``
       relative difference of the best AND (it has a rank or bes > perc_thrs),
       OR its rank improves on the best rank seen so far (which it then
       updates);
    5. unranked survivors get salvage_rank = num_raw_candidates + 1.
    """
    import math

    if (g["bes"] >= hi).any():
        return g
    g = g.sort_values(
        ["bes", "cand_iri"], ascending=[False, True], kind="mergesort"
    ).head(keep)
    g = g[g["bes"] != -1].reset_index(drop=True)
    if g.empty:
        g["salvage_rank"] = pd.Series([], dtype="int64")
        return g
    mention = str(g["mention"].iloc[0]) if "mention" in g.columns else ""
    ranking = overlap_ranking(mention, list(g["cand_iri"]), labels)

    best_bes = float(g["bes"].iloc[0])
    best_rank = ranking.get(g["cand_iri"].iloc[0], math.inf)
    kept: list[tuple[int, float]] = []  # (row index, rank)
    if best_rank < math.inf or best_bes >= perc_thrs:
        kept.append((0, best_rank))
    for i in range(1, len(g)):
        s = float(g["bes"].iloc[i])
        perc_diff = abs((s - best_bes) / best_bes) if best_bes else math.inf
        r = ranking.get(g["cand_iri"].iloc[i], math.inf)
        suitable = (perc_diff < perc_thrs and (r < math.inf or s > perc_thrs)) or (
            r < math.inf and r <= best_rank
        )
        if suitable:
            kept.append((i, r))
            best_rank = min(best_rank, r)
    out = g.loc[[i for i, _ in kept]].copy()
    out["salvage_rank"] = [
        num_raw_candidates + 1 if math.isinf(r) else int(r) for _, r in kept
    ]
    return out


def passes_t4(bes, pj, *, bes_hi: float, bes_lo: float, pj_hi: float):
    """T4 threshold filter: BES>=hi OR (BES>=lo AND PJ>=hi). Written with
    the operators pandas Series and Arrow compute expressions share."""
    return (bes >= bes_hi) | ((bes >= bes_lo) & (pj >= pj_hi))


# T4 winner order after the filter, best first: (column, descending). Min
# PJRank is max (pj, IRI token length), the max-PJPerc step is a no-op (module
# docstring), and "first row wins" is (bes desc, cand_iri asc).
T4_ORDER = [("pj", True), ("__tok_len", True), ("bes", True), ("cand_iri", False)]


def select_optimal(
    g: pd.DataFrame,
    *,
    bes_hi: float = BES_HI,
    bes_lo: float = BES_LO,
    pj_hi: float = PJ_HI,
) -> pd.DataFrame:
    """T4 cascade for one mention group -> 0 or 1 row, with its
    ``pj_rank`` (the hierarchy path reports it)."""
    g = rank_candidates(g)
    f = g[passes_t4(g["bes"], g["pj"], bes_hi=bes_hi, bes_lo=bes_lo, pj_hi=pj_hi)]
    f = f.assign(__tok_len=iri_token_length(f["cand_iri"]))
    f = f.sort_values(
        [c for c, _ in T4_ORDER], ascending=[not d for _, d in T4_ORDER], kind="mergesort"
    )
    return f.head(1).drop(columns="__tok_len")


def pick_optimal(
    block: pa.Table,
    *,
    mention_col: str = "mention",
    bes_hi: float = BES_HI,
    bes_lo: float = BES_LO,
    pj_hi: float = PJ_HI,
) -> pa.Table:
    """Vectorized T4 over a whole block: each mention's best passing row
    under ``T4_ORDER``, input columns and types kept. Its output is a valid
    input, so the same kernel merges per-block picks."""
    f = block.filter(
        passes_t4(pc.field("bes"), pc.field("pj"), bes_hi=bes_hi, bes_lo=bes_lo, pj_hi=pj_hi)
    )
    if f.num_rows == 0:
        return f
    local = pc.replace_substring_regex(f["cand_iri"], _NAMESPACE, "")
    f = f.append_column("__tok_len", pc.add(pc.count_substring(local, "_"), 1))
    f = f.sort_by([(c, "descending" if d else "ascending") for c, d in T4_ORDER])
    f = f.append_column("__row", pa.array(np.arange(f.num_rows)))
    first = f.group_by(mention_col, use_threads=False).aggregate([("__row", "min")])
    return f.take(first["__row_min"]).drop_columns(["__tok_len", "__row"])


def topk(g: pd.DataFrame, k: int = 20, score_col: str = "bes") -> pd.DataFrame:
    """T1: per-mention top-k merge across batches (num_best_predictions)."""
    g = g.sort_values([score_col, "cand_iri"], ascending=[False, True], kind="mergesort")
    out = g.head(k).copy()
    out["rank"] = np.arange(1, len(out) + 1)
    return out


def select_links(
    scored: ray.data.Dataset,
    *,
    mention_col: str = "mention",
    mode: str = "optimal",
    k: int = 20,
    hierarchy=None,
    **thresholds,
) -> ray.data.Dataset:
    """One selection per mention over scored candidate rows.

    ``mode="optimal"`` without ``hierarchy`` (the linking pipelines' path)
    runs no shuffle: ``pick_optimal`` keeps each mention's best row per
    block (map-only), and ``fastagg.reduce_partials`` merges those picks —
    at most one row per mention per block — with the same kernel, on the
    driver below fastagg's driver limit, per hash partition of the mention
    above it. The output keeps the input columns.

    ``hierarchy``: optional broadcast Hierarchy — candidates related through
    the ontology are pruned first (H4 considerHierarchies: specialize /
    generalize / sibling-best) before the threshold cascade. That path,
    ``mode="salvage"`` (T3) and ``mode="topk"`` (T1) need a mention's whole
    candidate list at once, so they run groupby(mention) -> per-group pandas
    kernel; the hierarchy path adds ``pj_rank``."""
    if mode == "optimal" and hierarchy is None:
        pick = functools.partial(pick_optimal, mention_col=mention_col, **thresholds)
        return reduce_partials(
            scored.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True),
            keys=[mention_col],
            reduce=pick,
            columns=["cand_iri", "bes", "pj"],
        )

    def with_hierarchy(g: pd.DataFrame) -> pd.DataFrame:
        if hierarchy is not None and len(g) > 1:
            from knowledgegraphs_ray.rules.hierarchy import consider_hierarchies

            g = rank_candidates(g)
            g = consider_hierarchies(g, hierarchy)
        return select_optimal(g, **thresholds)

    if mode == "salvage":
        fn = lambda g: salvage(g, **thresholds)
    else:
        fn = with_hierarchy if mode == "optimal" else (lambda g: topk(g, k))
    return scored.groupby(mention_col).map_groups(fn, batch_format="pandas")

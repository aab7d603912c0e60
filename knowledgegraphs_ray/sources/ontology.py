"""Ontology reader (S7 analogue) — load an N-Triples ontology into the
driver-side structures the linking stages broadcast.

Reference: util/Ontology.java:53-58 (Jena load), DeepOnto Ontology ctor.
No RDF stack ships in this container, so the reader handles the N-Triples
subset our sink emits (and any ontology exported to NT): label annotations,
subclass edges, domains/ranges. Round-trips ``sinks.ntriples`` output.
"""

from __future__ import annotations

import glob
import re

from knowledgegraphs_ray.linking.index import AnnotationIndex
from knowledgegraphs_ray.rules.hierarchy import Hierarchy
from knowledgegraphs_ray.sinks.ntriples import PREFIXES

_LINE = re.compile(
    r'^(?:<([^>]*)>|(_:\w+))\s+<([^>]*)>\s+'
    r'(?:<([^>]*)>|(_:\w+)|"((?:[^"\\]|\\.)*)")\s*\.\s*$'
)

LABEL_PREDS = {
    "http://www.w3.org/2000/01/rdf-schema#label",
    "http://www.w3.org/2004/02/skos/core#prefLabel",
    "http://www.w3.org/2004/02/skos/core#altLabel",
    "rdfs:label",
    "skos:prefLabel",
    "skos:altLabel",
}
SUBCLASS_PREDS = {"http://www.w3.org/2000/01/rdf-schema#subClassOf", "rdfs:subClassOf"}


_UCHAR = re.compile(r"\\u([0-9A-Fa-f]{4})|\\U([0-9A-Fa-f]{8})")


def _compact(iri: str) -> str:
    """Compact form of an IRIREF's text: ``\\uXXXX``/``\\UXXXXXXXX`` UCHARs
    (how the sink writes characters IRIREF forbids) decoded, and a known
    namespace shortened to its prefix."""
    if "\\" in iri:
        iri = _UCHAR.sub(lambda m: chr(int(m.group(1) or m.group(2), 16)), iri)
    for pfx, full in PREFIXES.items():
        if iri.startswith(full):
            return pfx + iri[len(full):]
    return iri


def _unescape(s: str) -> str:
    return s.replace('\\"', '"').replace("\\n", "\n").replace("\\r", "\r").replace("\\\\", "\\")


def parse_ntriples(paths: str | list[str]) -> list[tuple[str, str, str, bool]]:
    """-> (subj, pred, obj, obj_is_literal) rows from .nt file(s)/glob."""
    if isinstance(paths, str):
        files = sorted(glob.glob(paths)) if any(c in paths for c in "*?[") else [paths]
    else:
        files = list(paths)
    out = []
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                m = _LINE.match(line)
                if not m:
                    continue
                s_iri, s_bn, p, o_iri, o_bn, o_lit = m.groups()
                s = s_bn if s_bn is not None else _compact(s_iri)
                if o_lit is not None:
                    out.append((s, _compact(p), _unescape(o_lit), True))
                elif o_bn is not None:
                    out.append((s, _compact(p), o_bn, False))
                else:
                    out.append((s, _compact(p), _compact(o_iri), False))
    return out


def load_ontology(paths: str | list[str]) -> tuple[AnnotationIndex, Hierarchy]:
    """-> (AnnotationIndex from label annotations, Hierarchy from subclass
    edges + owl:Restriction onProperty table) — the broadcast structures the
    linking/selection stages use (the restriction table feeds H6
    ``class_uses_data_props``)."""
    triples = parse_ntriples(paths)
    labels: dict[str, list[str]] = {}
    edges: list[tuple[str, str]] = []
    sub_bnode: list[tuple[str, str]] = []  # (class, bnode)
    bnode_type: dict[str, str] = {}
    bnode_prop: dict[str, str] = {}
    for s, p, o, is_lit in triples:
        if is_lit and (p in LABEL_PREDS or p.split("#")[-1] in ("label", "prefLabel", "altLabel")):
            labels.setdefault(s, []).append(o)
        elif not is_lit and (p in SUBCLASS_PREDS or p.endswith("subClassOf")):
            if o.startswith("_:"):
                sub_bnode.append((s, o))
            else:
                edges.append((s, o))
        elif not is_lit and s.startswith("_:"):
            if p in ("rdf:type",) or p.endswith("#type"):
                bnode_type[s] = o
            elif p.endswith("onProperty") or p == "owl:onProperty":
                bnode_prop[s] = o
        elif not is_lit:
            labels.setdefault(s, [])  # entity exists even without labels
    restrictions = [
        (cls, bnode_prop[b])
        for cls, b in sub_bnode
        if bnode_type.get(b, "").endswith("Restriction") and b in bnode_prop
    ]
    # entities with no labels get their local name as label (Ontology.java
    # fallback: fragment of the IRI)
    for iri, labs in labels.items():
        if not labs:
            labs.append(iri.split("/")[-1].split("#")[-1].split(":")[-1])
    return AnnotationIndex.build(labels), Hierarchy.build(edges, restrictions)

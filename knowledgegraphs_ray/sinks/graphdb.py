"""GraphDB / RDF4J-server uploader (S10) — stdlib HTTP client for the
public RDF4J REST protocol, no rdf4j/ontotext SDK.

Reference parity (`E_CreateKG/GraphDB.java:38-163`), mechanism
re-expressed over the documented wire protocol
(https://rdf4j.org/documentation/reference/rest-api/):

* ``GET  /repositories``                        — list (repoExists)
* ``PUT  /repositories/{id}``                   — create from a Turtle
  repo-config (the reference's template file with ``repoId`` substituted)
* ``DELETE /repositories/{id}``                 — remove (rewrite=True)
* ``POST /repositories/{id}/transactions`` then
  ``PUT {txn}?action=ADD`` / ``?action=COMMIT`` — the reference's single
  begin/add/commit upload of ontology + full graph
* ``POST /repositories/{id}/statements``        — direct (non-txn) adds,
  used by the parallel block path

Ray Data shape: :func:`upload_dataset` ships triples from WORKERS, one
POST per block (``map_batches`` over the triple Dataset — the server
ingests N blocks concurrently and nothing funnels through the driver);
the transactional :meth:`GraphDBClient.upload_files` path matches the
reference's atomic semantics for the (small) ontology + graph files.
Retries with exponential backoff on 5xx/connection errors make block
uploads idempotent-safe only because N-Triples adds are set-semantics in
RDF stores — a retried block re-asserts the same statements.

Offline by design: everything is testable against a loopback stdlib HTTP
server (tests/test_graphdb.py); no external network is required or used.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from knowledgegraphs_ray.sinks.ntriples import ntriples_bytes

# the reference's graphdb_template_config_file.ttl equivalent: the minimal
# public RDF4J SailRepository config with the id substituted
REPO_CONFIG_TEMPLATE = """\
@prefix rep: <http://www.openrdf.org/config/repository#> .
@prefix sr: <http://www.openrdf.org/config/repository/sail#> .
@prefix sail: <http://www.openrdf.org/config/sail#> .

[] a rep:Repository ;
   rep:repositoryID "{repo_id}" ;
   rdfs:label "{repo_id}" ;
   rep:repositoryImpl [
      rep:repositoryType "openrdf:SailRepository" ;
      sr:sailImpl [ sail:sailType "openrdf:NativeStore" ]
   ] .
"""


def _request(
    method: str,
    url: str,
    *,
    data: bytes | None = None,
    content_type: str | None = None,
    accept: str | None = None,
    retries: int = 3,
    backoff: float = 0.25,
) -> tuple[int, bytes, dict]:
    """One HTTP call with bounded retry on 5xx / connection failure."""
    last: Exception | None = None
    for attempt in range(retries + 1):
        req = urllib.request.Request(url, data=data, method=method)
        if content_type:
            req.add_header("Content-Type", content_type)
        if accept:
            req.add_header("Accept", accept)
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as e:
            if e.code < 500 or attempt == retries:
                return e.code, e.read(), dict(e.headers)
            last = e
        except urllib.error.URLError as e:
            if attempt == retries:
                raise
            last = e
        time.sleep(backoff * (2**attempt))
    raise RuntimeError(f"unreachable retry loop: {last}")


class GraphDBClient:
    """Thin protocol client; one instance per (endpoint, repository)."""

    def __init__(self, endpoint: str, repo_id: str):
        self.endpoint = endpoint.rstrip("/")
        self.repo_id = repo_id

    # -- repository management (GraphDB.java:72-97) --------------------------

    def repo_exists(self) -> bool:
        status, body, _ = _request(
            "GET",
            f"{self.endpoint}/repositories",
            accept="application/sparql-results+json",
        )
        if status != 200:
            return False
        try:
            rows = json.loads(body)["results"]["bindings"]
        except (json.JSONDecodeError, KeyError):
            return False
        return any(r.get("id", {}).get("value") == self.repo_id for r in rows)

    def create_repository(self, *, rewrite: bool = False) -> None:
        if self.repo_exists():
            if not rewrite:
                return
            _request("DELETE", f"{self.endpoint}/repositories/{self.repo_id}")
        config = REPO_CONFIG_TEMPLATE.format(repo_id=self.repo_id)
        status, body, _ = _request(
            "PUT",
            f"{self.endpoint}/repositories/{self.repo_id}",
            data=config.encode(),
            content_type="text/turtle",
        )
        if status not in (200, 201, 204):
            raise RuntimeError(f"repository create failed: {status} {body[:200]!r}")

    # -- transactional upload (GraphDB.java:150-163) --------------------------

    def upload_files(self, paths: list[str], *, formats: list[str] | None = None) -> None:
        """Atomic begin/add.../commit of local RDF files — the reference's
        ontology + full-graph upload. ``formats``: per-path MIME types
        (default: by extension — .nt/.ttl/.rdf)."""
        txn = self._begin()
        try:
            for i, p in enumerate(paths):
                mime = (
                    formats[i]
                    if formats
                    else {
                        "nt": "application/n-triples",
                        "ttl": "text/turtle",
                        "rdf": "application/rdf+xml",
                        "owl": "application/rdf+xml",
                    }.get(p.rsplit(".", 1)[-1].lower(), "text/turtle")
                )
                with open(p, "rb") as f:
                    status, body, _ = _request(
                        "PUT", f"{txn}?action=ADD", data=f.read(), content_type=mime
                    )
                if status not in (200, 204):
                    raise RuntimeError(f"txn ADD failed: {status} {body[:200]!r}")
            status, body, _ = _request("PUT", f"{txn}?action=COMMIT")
            if status not in (200, 204):
                raise RuntimeError(f"txn COMMIT failed: {status} {body[:200]!r}")
        except Exception:
            _request("DELETE", txn)  # roll back; server drops the txn
            raise

    def _begin(self) -> str:
        status, body, headers = _request(
            "POST", f"{self.endpoint}/repositories/{self.repo_id}/transactions"
        )
        loc = headers.get("Location")
        if status not in (200, 201) or not loc:
            raise RuntimeError(f"txn begin failed: {status} {body[:200]!r}")
        return loc

    # -- direct statement add (parallel block path) ---------------------------

    def add_ntriples(self, payload: bytes) -> None:
        status, body, _ = _request(
            "POST",
            f"{self.endpoint}/repositories/{self.repo_id}/statements",
            data=payload,
            content_type="application/n-triples",
        )
        if status not in (200, 204):
            raise RuntimeError(f"statement add failed: {status} {body[:200]!r}")


def upload_dataset(
    triples: ray.data.Dataset,
    *,
    endpoint: str,
    repo_id: str,
    create: bool = True,
    rewrite: bool = False,
) -> pd.DataFrame:
    """Parallel ingest: every triple block POSTs itself from its worker —
    the driver never sees a statement. A block's payload is the bytes the
    N-Triples file sink writes for it (``ntriples_bytes``). Returns
    per-block (rows, bytes) accounting. N-Triples set semantics make block
    retries safe."""
    if create:
        GraphDBClient(endpoint, repo_id).create_repository(rewrite=rewrite)

    def block(batch: pa.Table) -> pd.DataFrame:
        payload = ntriples_bytes(batch)
        GraphDBClient(endpoint, repo_id).add_ntriples(payload)
        return pd.DataFrame({"rows": [batch.num_rows], "bytes": [len(payload)]})

    return triples.map_batches(block, batch_format="pyarrow").to_pandas()

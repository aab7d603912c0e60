"""GraphDB/RDF4J uploader (sinks/graphdb.py) against a loopback stdlib
HTTP server implementing the minimal RDF4J REST surface: repo listing,
create/delete, transactions, and direct statement POSTs. Verifies the
reference's begin/add/commit semantics and the parallel per-block upload
path (statements arrive from workers, none through the driver)."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import ray

from knowledgegraphs_ray.sinks.graphdb import (
    GraphDBClient,
    upload_dataset,
)


class _Rdf4jStub(BaseHTTPRequestHandler):
    """In-memory RDF4J server: state lives on the server object."""

    def log_message(self, *a):  # quiet
        pass

    # -- helpers -------------------------------------------------------------

    def _body(self) -> bytes:
        n = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(n)

    def _send(self, status: int, body: bytes = b"", headers: dict | None = None):
        self.send_response(status)
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- protocol ------------------------------------------------------------

    def do_GET(self):
        srv = self.server
        if self.path == "/repositories":
            rows = [
                {"id": {"value": rid}} for rid in sorted(srv.repos)  # type: ignore[attr-defined]
            ]
            self._send(
                200,
                json.dumps({"results": {"bindings": rows}}).encode(),
            )
        else:
            self._send(404)

    def do_PUT(self):
        srv = self.server
        parts = self.path.split("?")[0].strip("/").split("/")
        body = self._body()
        if parts[0] == "repositories" and len(parts) == 2:
            srv.repos[parts[1]] = []  # type: ignore[attr-defined]
            srv.configs[parts[1]] = body.decode()  # type: ignore[attr-defined]
            self._send(204)
        elif parts[0] == "txn":
            txn_id = parts[1]
            action = self.path.split("action=")[-1]
            if action == "ADD":
                srv.txns[txn_id].append(body.decode())  # type: ignore[attr-defined]
                self._send(200)
            elif action == "COMMIT":
                repo = srv.txn_repo[txn_id]  # type: ignore[attr-defined]
                srv.repos[repo].extend(srv.txns.pop(txn_id))  # type: ignore[attr-defined]
                self._send(200)
            else:
                self._send(400)
        else:
            self._send(404)

    def do_POST(self):
        srv = self.server
        parts = self.path.strip("/").split("/")
        if parts[0] == "repositories" and parts[-1] == "transactions":
            txn_id = f"t{len(srv.txns) + len(srv.repos[parts[1]])}"  # type: ignore[attr-defined]
            srv.txns[txn_id] = []  # type: ignore[attr-defined]
            srv.txn_repo[txn_id] = parts[1]  # type: ignore[attr-defined]
            self._send(
                201,
                headers={
                    "Location": f"http://127.0.0.1:{srv.server_port}/txn/{txn_id}"
                },
            )
        elif parts[0] == "repositories" and parts[-1] == "statements":
            repo = parts[1]
            # fail the first N statement posts if the test armed flakiness
            if srv.fail_next > 0:  # type: ignore[attr-defined]
                srv.fail_next -= 1  # type: ignore[attr-defined]
                self._send(503, b"try later")
                return
            srv.repos[repo].append(self._body().decode())  # type: ignore[attr-defined]
            self._send(204)
        else:
            self._send(404)

    def do_DELETE(self):
        srv = self.server
        parts = self.path.strip("/").split("/")
        if parts[0] == "repositories" and len(parts) == 2:
            srv.repos.pop(parts[1], None)  # type: ignore[attr-defined]
            self._send(204)
        elif parts[0] == "txn":
            srv.txns.pop(parts[1], None)  # type: ignore[attr-defined]
            self._send(204)
        else:
            self._send(404)


@pytest.fixture()
def stub():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Rdf4jStub)
    srv.repos, srv.configs, srv.txns, srv.txn_repo = {}, {}, {}, {}
    srv.fail_next = 0
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield srv, f"http://127.0.0.1:{srv.server_port}"
    srv.shutdown()


def test_create_exists_rewrite(stub):
    srv, url = stub
    c = GraphDBClient(url, "kg")
    assert not c.repo_exists()
    c.create_repository()
    assert c.repo_exists()
    assert 'rep:repositoryID "kg"' in srv.configs["kg"]
    # idempotent without rewrite; rewrite recreates (GraphDB.java:45-46)
    srv.repos["kg"].append("sentinel")
    c.create_repository()
    assert srv.repos["kg"] == ["sentinel"]
    c.create_repository(rewrite=True)
    assert srv.repos["kg"] == []


def test_transactional_file_upload(stub, tmp_path):
    srv, url = stub
    onto = tmp_path / "onto.ttl"
    onto.write_text("@prefix ex: <http://ex/> . ex:a ex:b ex:c .")
    graph = tmp_path / "graph.nt"
    graph.write_text("<http://ex/s> <http://ex/p> <http://ex/o> .\n")
    c = GraphDBClient(url, "kg")
    c.create_repository()
    c.upload_files([str(onto), str(graph)])
    assert len(srv.repos["kg"]) == 2  # both ADDs landed atomically
    assert "ex:a ex:b ex:c" in srv.repos["kg"][0]
    assert srv.txns == {}  # txn consumed


def test_parallel_dataset_upload_with_retry(stub):
    srv, url = stub
    srv.fail_next = 2  # first two statement POSTs 503; retries recover
    triples = ray.data.from_items(
        [
            {"subj": "ex:s1", "pred": "rdf:type", "obj": "ex:C"},
            {"subj": "ex:s2", "pred": "ex:p", "obj": "a literal"},
            {"subj": "ex:s3", "pred": "ex:p", "obj": "ex:o"},
        ]
    )
    acct = upload_dataset(triples, endpoint=url, repo_id="kg")
    assert int(acct["rows"].sum()) == 3
    uploaded = "".join(srv.repos["kg"])
    assert uploaded.count(" .") == 3
    assert '"a literal"' in uploaded  # literal vs IRI objects distinguished


def test_failed_transaction_rolls_back(stub, tmp_path):
    srv, url = stub
    c = GraphDBClient(url, "kg")
    c.create_repository()
    with pytest.raises(FileNotFoundError):
        c.upload_files([str(tmp_path / "missing.nt")])
    assert srv.repos["kg"] == []
    assert srv.txns == {}  # rolled back, not leaked


def test_service_tail_end_to_end(stub, tmp_path):
    """Pipeline.java epilogue parity: edges upload to the RDF4J stub AND
    schema PII results publish to the topic log, from one call."""
    import json as _json

    from knowledgegraphs_ray.pipelines.service_tail import (
        run_service_tail,
        schema_pii_results,
    )
    from knowledgegraphs_ray.sinks.topiclog import read_topic

    srv, url = stub
    edges = ray.data.from_items(
        [
            {"subj": "ex:s1", "pred": "rdf:type", "obj": "ex:C"},
            {"subj": "ex:s2", "pred": "ex:p", "obj": "ex:o"},
        ]
    )
    pii = schema_pii_results("/root/testdata/sf0.001")
    assert "dataset" in pii.columns and len(pii) > 0
    out = run_service_tail(
        edges,
        graphdb_endpoint=url,
        graphdb_repo="kg",
        pii_results=pii,
        topic_root=str(tmp_path),
    )
    assert out["graphdb"]["triples"] == 2
    assert out["pii_published"]["messages"] == len(pii)
    assert "".join(srv.repos["kg"]).count(" .") == 2
    log = read_topic(str(tmp_path), "pii").to_pandas()
    keys = set(log["key"])
    assert keys == set(pii["dataset"])
    first = _json.loads(log.iloc[0]["value"])
    assert {"element", "dpv_matches", "dataset"} <= set(first)


def test_upload_payload_equals_file_shard_bytes(stub, tmp_path):
    """The statement upload and the N-Triples file sink write the same bytes
    for the same block."""
    import os

    import pyarrow as pa

    from knowledgegraphs_ray.sinks.ntriples import write_ntriples

    srv, url = stub
    batch = pa.table(
        {
            "subj": ["kg:s1", "_:b0", "http://example.org/s3"],
            "pred": pa.array(["rdf:type", "rdfs:label", "kg:p"]).dictionary_encode(),
            "obj": ["kg:C", 'say "hi"\n', "https://example.org/o"],
        }
    )
    upload_dataset(ray.data.from_arrow(batch), endpoint=url, repo_id="kg")
    out = str(tmp_path / "nt")
    write_ntriples(ray.data.from_arrow(batch), out)
    (shard,) = [f for f in os.listdir(out) if f.endswith(".nt")]
    with open(os.path.join(out, shard), "rb") as f:
        file_bytes = f.read()
    assert [p.encode() for p in srv.repos["kg"]] == [file_bytes]

"""The daemon's endpoints, driven over real HTTP against a live server."""

import json

import pytest

from repro.frontend.parser import parse_loop
from repro.machine import cydra5
from repro.server.app import ServerConfig, running_server
from repro.server.httpcache import ServerClient
from repro.service.cache import metrics_to_payload
from repro.service.keys import cache_key

SOURCE = """\
loop tiny
array x 60
do i = 2, 41
    x(i) = x(i-1) + 1.0
end do
"""

OTHER_SOURCE = SOURCE.replace("+ 1.0", "+ 2.0")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("server-cache")
    config = ServerConfig(
        host="127.0.0.1", port=0, cache_db=str(root / "cache.sqlite")
    )
    with running_server(config) as live:
        yield live


@pytest.fixture(scope="module")
def client(server):
    return ServerClient(server.url)


def test_healthz(client):
    body = client.healthz()
    assert body["status"] == "ok"
    assert body["schema"] == "repro.server.health"


def test_schedule_cold_then_warm_is_byte_identical(client):
    status, headers, cold = client.schedule(
        {"source": SOURCE, "include": ["schedule"]}
    )
    assert status == 200
    assert headers["X-Repro-Cache"] == "miss"
    status, headers, warm = client.schedule(
        {"source": SOURCE, "include": ["schedule"]}
    )
    assert status == 200
    assert headers["X-Repro-Cache"] == "hit"
    assert warm == cold  # the acceptance bar: bytes, not just values
    body = json.loads(warm)
    assert body["schema"] == "repro.server.schedule"
    assert body["metrics"]["success"] is True
    assert body["schedule"]  # include=schedule materialized
    # The ETag is the canonical request key.
    expected = cache_key(parse_loop(SOURCE), cydra5(), "slack", None)
    assert headers["ETag"] == f'"{expected}"'
    assert body["key"] == expected


def test_schedule_conditional_get_returns_304(client):
    status, headers, _ = client.schedule({"source": SOURCE})
    assert status == 200
    status, headers, body = client.schedule(
        {"source": SOURCE}, headers={"If-None-Match": headers["ETag"]}
    )
    assert status == 304
    assert body == b""


def test_schedule_cache_false_bypasses(client):
    status, headers, _ = client.schedule({"source": SOURCE, "cache": False})
    assert status == 200
    assert headers["X-Repro-Cache"] == "bypass"


def test_schedule_rejects_bad_requests(client):
    status, _, raw = client.schedule({"source": "nonsense"})
    assert status == 400
    body = json.loads(raw)
    assert body["schema"] == "repro.server.error"
    assert "sources" not in body["error"]
    status, _, _ = client.request("POST", "/v1/schedule", {"nope": 1})
    assert status == 400


def test_batch_endpoint_with_shared_cache(client):
    status, _, raw = client.batch({"sources": [SOURCE, OTHER_SOURCE]})
    assert status == 200
    body = json.loads(raw)
    assert body["schema"] == "repro.server.batch"
    assert body["ok"] is True
    assert len(body["results"]) == 2
    # The cache block is this request's delta, not the server's
    # lifetime counters: everything resolved through the shared cache.
    assert body["cache"]["hits"] + body["cache"]["misses"] == 2
    status, _, raw = client.batch({"sources": [SOURCE, OTHER_SOURCE]})
    warm = json.loads(raw)
    assert warm["counts"] == {"cached": 2}
    assert warm["cache"]["hits"] == 2 and warm["cache"]["misses"] == 0


def test_cache_get_put_roundtrip(client):
    from repro.experiments import measure_loop

    program = parse_loop(OTHER_SOURCE)
    key = cache_key(program, cydra5(), "slack", None)
    metrics = measure_loop(program, cydra5())
    status, _, _ = client.request(
        "PUT", f"/v1/cache/{key}", metrics_to_payload(key, metrics)
    )
    assert status == 204
    status, headers, raw = client.request("GET", f"/v1/cache/{key}")
    assert status == 200
    assert headers["ETag"] == f'"{key}"'
    assert json.loads(raw)["metrics"]["name"] == metrics.name
    # Conditional get on the same key.
    status, _, _ = client.request(
        "GET", f"/v1/cache/{key}", headers={"If-None-Match": f'"{key}"'}
    )
    assert status == 304


def test_cache_get_unknown_key_is_404(client):
    status, _, _ = client.request("GET", "/v1/cache/" + "0" * 64)
    assert status == 404


def test_cache_bad_key_is_400(client):
    status, _, _ = client.request("GET", "/v1/cache/zz")
    assert status == 400


def test_cache_put_key_mismatch_is_400(client):
    from repro.experiments import measure_loop

    metrics = measure_loop(parse_loop(SOURCE), cydra5())
    status, _, _ = client.request(
        "PUT", "/v1/cache/" + "1" * 64, metrics_to_payload("2" * 64, metrics)
    )
    assert status == 400


def test_cache_put_bad_envelope_is_400(client):
    status, _, _ = client.request(
        "PUT", "/v1/cache/" + "3" * 64, {"schema": "wrong"}
    )
    assert status == 400


def test_unknown_route_and_method(client):
    assert client.request("GET", "/v2/anything")[0] == 404
    assert client.request("GET", "/v1/schedule")[0] == 405
    assert client.request("POST", "/healthz")[0] == 405


def test_metricz_snapshot(client):
    body = client.metricz()
    assert body["schema"] == "repro.server.metricz"
    counters = body["metrics"]["counters"]
    assert counters["server.requests.total"] >= 1
    assert counters["server.requests.schedule"] >= 1
    latency = body["metrics"]["histograms"]["server.latency.schedule"]
    assert {"p50", "p90", "p99"} <= set(latency)
    assert body["cache"]["location"].startswith("sqlite:")
    assert body["cache"]["hits"] >= 1


def test_auth_token_guards_everything_but_healthz(tmp_path):
    config = ServerConfig(
        port=0, cache_db=str(tmp_path / "c.sqlite"), auth_token="sesame"
    )
    with running_server(config) as live:
        anonymous = ServerClient(live.url)
        assert anonymous.healthz()["status"] == "ok"
        assert anonymous.schedule({"source": SOURCE})[0] == 401
        assert anonymous.request("GET", "/metricz")[0] == 401
        assert anonymous.request("GET", "/v1/cache/" + "0" * 64)[0] == 401
        wrong = ServerClient(live.url, auth_token="guess")
        assert wrong.schedule({"source": SOURCE})[0] == 401
        trusted = ServerClient(live.url, auth_token="sesame")
        status, headers, _ = trusted.schedule({"source": SOURCE})
        assert status == 200 and headers["X-Repro-Cache"] == "miss"


def test_server_without_cache_still_schedules(tmp_path):
    with running_server(ServerConfig(port=0)) as live:
        client = ServerClient(live.url)
        status, headers, _ = client.schedule({"source": SOURCE})
        assert status == 200
        assert headers["X-Repro-Cache"] == "bypass"
        assert client.request("GET", "/v1/cache/" + "0" * 64)[0] == 503

"""HTTP transport + client: end-to-end parity, endpoints, shutdown."""

import json
import socket
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import api
from repro.service import (
    REQUEST_SCHEMA,
    ServiceClient,
    SolveService,
    solve_request,
    start_http_service,
)
from repro.utils.serialization import canonical_dumps

SPEC = "maximal-matching:delta=3"
ALGORITHM = "matching:proposal"


@pytest.fixture
def live():
    service = SolveService(jobs=1)
    server, thread = start_http_service(service)
    yield ServiceClient(server.url), service
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestEndToEnd:
    def test_solve_parity_with_direct(self, live):
        client, _service = live
        response = client.solve(SPEC, algorithm=ALGORITHM, n=24, seed=2)
        assert response["status"] == "ok"
        direct = api.solve(SPEC, algorithm=ALGORITHM, n=24, seed=2)
        assert canonical_dumps(response["report"]) == direct.canonical_json()

    def test_repeat_is_cached(self, live):
        client, _service = live
        first = client.solve(SPEC, algorithm=ALGORITHM, n=24)
        second = client.solve(SPEC, algorithm=ALGORITHM, n=24)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["report"] == first["report"]

    def test_roundelim_roundtrip(self, live):
        client, _service = live
        response = client.roundelim("sinkless-orientation:delta=3", op="R")
        assert response["status"] == "ok"
        assert response["result"]["status"] == "ok"

    def test_error_codes_travel_over_http(self, live):
        client, _service = live
        response = client.solve(SPEC, algorithm="no:algo")
        assert response["status"] == "error"
        assert response["error"]["code"] == "unknown-algorithm"

    def test_deleted_batched_engine_is_unknown(self, live):
        """The removed ``batched`` engine has no alias: the daemon answers
        400 ``unknown-engine`` and the service returns the typed error."""
        client, service = live
        body = solve_request(SPEC, algorithm=ALGORITHM, n=24, engine="batched")
        request = urllib.request.Request(
            f"{client.url}/v1/request", data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["code"] == "unknown-engine"
        error = service.submit(body)["error"]
        assert error["code"] == "unknown-engine"
        assert "'object', 'vectorized'" in error["message"]

    def test_malformed_body_is_bad_request(self, live):
        client, _service = live
        request = urllib.request.Request(
            f"{client.url}/v1/request", data=b"this is not json{{",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "bad-request"

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_is_bad_request(self, live, length):
        client, _service = live
        address = urllib.parse.urlsplit(client.url)
        request = (
            b"POST /v1/request HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: " + length
            + b"\r\n\r\n{}"
        )
        with socket.create_connection(
            (address.hostname, address.port), timeout=10
        ) as connection:
            connection.sendall(request)
            reply = connection.makefile("rb").read()  # server closes after
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400"
        error = json.loads(body)["error"]
        assert error["code"] == "bad-request"
        assert "Content-Length" in error["message"]

    def test_client_parses_error_bodies(self, live):
        client, _service = live
        response = client.request({"schema": "bogus/v1"})
        assert response["status"] == "error"
        assert response["error"]["code"] == "unsupported-schema"


class TestEndpoints:
    def test_status(self, live):
        client, service = live
        client.solve(SPEC, algorithm=ALGORITHM, n=24)
        status = client.status()
        assert status["schema"] == "repro.service/status-v1"
        assert status["requests"] == service.requests
        assert status["solves_computed"] == 1

    def test_protocol(self, live):
        client, _service = live
        protocol = client.protocol()
        assert protocol["protocol"]["request"] == REQUEST_SCHEMA
        assert protocol["protocol"]["kinds"] == ["solve", "roundelim"]

    def test_unknown_path_is_404(self, live):
        client, _service = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{client.url}/v2/everything", timeout=10)
        assert excinfo.value.code == 404

    def test_ping(self, live):
        client, _service = live
        assert client.ping() is True
        assert ServiceClient("http://127.0.0.1:9", timeout=0.5).ping() is False


class TestShutdown:
    def test_remote_shutdown_stops_server_and_flushes(self, tmp_path):
        service = SolveService(cache_dir=tmp_path, jobs=1)
        server, thread = start_http_service(service)
        client = ServiceClient(server.url)
        client.solve(SPEC, algorithm=ALGORITHM, n=24)
        response = client.shutdown()
        assert response["status"] == "ok"
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert (tmp_path / "manifest.json").exists()

    def test_shutdown_can_be_disabled(self):
        service = SolveService(jobs=1)
        server, thread = start_http_service(
            service, allow_remote_shutdown=False
        )
        client = ServiceClient(server.url)
        response = client.shutdown()
        assert response["status"] == "error"
        assert response["error"]["code"] == "forbidden"
        assert thread.is_alive()
        server.shutdown()
        thread.join(timeout=10)

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import marble
from marble.agents import SlmAgent
from marble.agents.backends import BackendTimeoutError, RemoteHttpBackend, TransportError
from marble.core import AgentId, DecodingParams, EndpointParams


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append((dict(self.headers), body))
        mode = self.server.mode
        if mode == "delay":
            time.sleep(0.6)
        if mode == "error":
            self.send_response(500)
            self.end_headers()
            return
        payload = json.dumps(
            {"choices": [{"message": {"content": self.server.canned}}]}
        ).encode("utf-8") if mode != "raw" else self.server.canned
        if mode == "trickle_headers":
            head = f"HTTP/1.0 200 OK\r\nContent-Length: {len(payload)}\r\n\r\n".encode("ascii")
            try:  # one byte every 50 ms, until the client hangs up
                for i in range(len(head)):
                    self.wfile.write(head[i : i + 1])
                    time.sleep(0.05)
            except (BrokenPipeError, ConnectionResetError):
                pass
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if mode == "stall_after_headers":
            time.sleep(0.6)
            return
        if mode != "trickle":
            self.wfile.write(payload)
            return
        try:  # one byte every 50 ms, until the client hangs up
            for i in range(len(payload)):
                self.wfile.write(payload[i : i + 1])
                time.sleep(0.05)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.mode = "ok"
    server.canned = "canned reply"
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"


def complete(endpoint_url: str, prompt: str, timeout_ms: int, **endpoint) -> str:
    backend = RemoteHttpBackend(EndpointParams(url=endpoint_url, **endpoint))
    return backend.complete(prompt, DecodingParams(), timeout_ms)


class TestRemoteComplete:
    def test_echoes_canned_payload(self, stub_server):
        stub_server.canned = "the payload"
        assert complete(url(stub_server), "hello", 2000, model="m1") == "the payload"

    def test_request_body_carries_decoding_params(self, stub_server, monkeypatch):
        monkeypatch.setenv("MARBLE_API_KEY", "sekrit")
        complete(url(stub_server), "prompt text", 2000, model="m1")
        headers, body = stub_server.requests[-1]
        assert body["model"] == "m1"
        assert body["messages"] == [{"role": "user", "content": "prompt text"}]
        assert body["temperature"] == 0.2
        assert body["top_p"] == 0.90
        assert body["max_tokens"] == 256
        assert body["repetition_penalty"] == 1.1
        assert headers["Authorization"] == "Bearer sekrit"

    def test_repetition_penalty_dropped_when_disabled(self, stub_server):
        complete(url(stub_server), "p", 2000, send_repetition_penalty=False)
        _, body = stub_server.requests[-1]
        assert "repetition_penalty" not in body

    def test_slow_endpoint_times_out(self, stub_server):
        stub_server.mode = "delay"
        with pytest.raises(BackendTimeoutError):
            complete(url(stub_server), "p", 200)

    def test_trickled_reply_times_out_at_the_deadline(self, stub_server):
        stub_server.mode = "trickle"
        start = time.monotonic()
        with pytest.raises(BackendTimeoutError):
            complete(url(stub_server), "p", 200)
        assert time.monotonic() - start < 0.5

    def test_http_500_raises_transport_error(self, stub_server):
        stub_server.mode = "error"
        with pytest.raises(TransportError) as err:
            complete(url(stub_server), "p", 2000)
        assert err.value.status == 500

    def test_null_content_fails_the_agent_as_transport(self, stub_server, cfg):
        stub_server.canned = None  # what a refusal or a tool call sends
        with pytest.raises(TransportError, match="malformed completion payload"):
            complete(url(stub_server), "p", 2000)
        backend = RemoteHttpBackend(EndpointParams(url=url(stub_server)))
        output = SlmAgent(AgentId.SPATIAL, backend, cfg).evaluate({})
        assert (output.failed, output.failure_kind) == (True, "transport")

    @pytest.mark.parametrize("body", [b"<html>busy</html>", b'{"error": "overloaded"}', b'{"choices": []}'])
    def test_a_body_that_holds_no_completion_is_a_transport_error(self, stub_server, body):
        stub_server.mode, stub_server.canned = "raw", body  # sent as it is
        with pytest.raises(TransportError, match="^malformed completion payload: "):
            complete(url(stub_server), "p", 2000)

    def test_unreachable_host_raises_transport_error(self):
        with pytest.raises(TransportError):
            complete("http://127.0.0.1:9/none", "p", 500)


class TestRemoteHttpBackend:
    def test_reads_credential_from_named_env_var(self, stub_server, monkeypatch):
        monkeypatch.setenv("MARBLE_API_KEY", "from-env")
        backend = RemoteHttpBackend(EndpointParams(url=url(stub_server), model="m"))
        backend.complete("p", DecodingParams(), 2000)
        headers, _ = stub_server.requests[-1]
        assert headers["Authorization"] == "Bearer from-env"

    def test_requires_url(self):
        with pytest.raises(ValueError):
            RemoteHttpBackend(EndpointParams(url=""))


class TestOneDeadline:
    @pytest.mark.parametrize("mode", ["stall_after_headers", "trickle_headers"])
    def test_a_paced_reply_times_out_at_the_deadline(self, stub_server, mode):
        stub_server.mode = mode
        start = time.monotonic()
        with pytest.raises(BackendTimeoutError):
            complete(url(stub_server), "p", 200)
        assert time.monotonic() - start < 0.5

    def test_https_to_a_plain_http_server_fails_within_the_deadline(self, stub_server):
        start = time.monotonic()
        with pytest.raises(TransportError):
            complete(url(stub_server).replace("http://", "https://"), "p", 2000)
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("bad", ["ftp://127.0.0.1/x", "http:///no-host"])
    def test_unsupported_url_raises_transport_error(self, bad):
        with pytest.raises(TransportError):
            complete(bad, "p", 500)

    def test_importing_the_cli_loads_no_http_library(self):
        src = str(Path(marble.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        http = "{'http.client', 'ssl', 'socket', 'email', 'requests', 'urllib3'}"
        probe = f"import sys, marble, marble.cli; print(sorted({http} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

"""Text-completion backends: a remote chat-completions client and the ``--scripted`` reply table."""

from __future__ import annotations

import io
import json
import os
import time
from typing import TYPE_CHECKING, Mapping, Protocol
from urllib.parse import urlunsplit

from ..core import DecodingParams, EndpointParams, split_endpoint_url

if TYPE_CHECKING:
    import socket


class TransportError(Exception):
    """Network failure or HTTP error status from the completion endpoint."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class BackendTimeoutError(TimeoutError):
    """The backend did not produce a completion within the deadline."""


class SlmBackend(Protocol):
    """A text-completion backend.

    ``complete`` must return, or raise ``BackendTimeoutError``, within
    ``timeout_ms``; it raises ``TransportError`` for any other failure to
    obtain a completion. The engine calls it directly and relies on this
    bound: a call that overruns its deadline holds one thread of the agent
    pool until it returns, and the engine abandons its result at the barrier.
    """

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str: ...


class ScriptedBackend:
    """The ``--scripted`` backend: one reply for every prompt, or a table from
    prompt substrings to replies. The table is searched in insertion order,
    with the empty-string key as the default; a prompt that matches no key
    raises ``TransportError``.
    """

    def __init__(self, script: str | Mapping[str, str]):
        self._script = script

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str:
        if isinstance(self._script, str):
            return self._script
        for key, value in self._script.items():
            if key and key in prompt:
                return value
        if "" in self._script:
            return self._script[""]
        raise TransportError("no scripted response matches the prompt")


class _DeadlineSocket(io.RawIOBase):
    """A connected socket whose every send and receive gets only the time left
    before one deadline. ``HTTPResponse`` reads the status line, the headers
    and the body through ``makefile``, so however a server paces its bytes,
    the deadline bounds the whole exchange."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        self._deadline = deadline

    def sendall(self, data: bytes) -> None:
        self._sock.settimeout(_time_left(self._deadline))
        self._sock.sendall(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_time_left(self._deadline))
        return self._sock.recv_into(buffer)

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError
    return left


class RemoteHttpBackend:
    """Chat-completions-compatible HTTP backend configured from EndpointParams.

    A call sends the prompt as one user message with the decoding parameters
    (the repetition penalty only where the endpoint accepts it) and returns
    the first choice's text. The credential is read from the named
    environment variable at call time. A reply body longer than
    ``max(1 MiB, 64 * decoding.max_new_tokens)`` bytes is not read past that
    limit and raises ``TransportError``. Each call opens one connection, and
    one deadline, ``timeout_ms`` from the start, bounds its connect, TLS
    handshake, send, status line, headers and body; name resolution is not
    bounded, and a host name with several addresses gets the time left for
    each. HTTPS verifies the server against the system CA store. Proxy
    variables and ``~/.netrc`` are not read. A URL that is not http or https
    with a host and a valid port, or that holds credentials, raises
    ConfigError when the backend is built. The HTTP, socket and TLS modules
    load then, not on package import.
    """

    def __init__(self, endpoint: EndpointParams):
        # Here rather than in ``complete``, so the first call's deadline
        # does not pay for the import.
        import http.client
        import socket
        import ssl

        url, self._port = split_endpoint_url(endpoint.url)
        self._endpoint = endpoint
        self._host = url.hostname
        self._path = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._tls = ssl.create_default_context() if url.scheme == "https" else None

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str:
        import http.client
        import socket

        deadline = time.monotonic() + timeout_ms / 1000.0
        limit = max(1 << 20, 64 * decoding.max_new_tokens)
        endpoint = self._endpoint
        body: dict[str, object] = {
            "model": endpoint.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": decoding.temperature,
            "top_p": decoding.top_p,
            "max_tokens": decoding.max_new_tokens,
        }
        if endpoint.send_repetition_penalty:
            body["repetition_penalty"] = decoding.repetition_penalty
        headers = {"Content-Type": "application/json", "Connection": "close"}
        api_key = os.environ.get(endpoint.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        try:  # ValueError: a host name that fails IDNA encoding
            with socket.create_connection((self._host, self._port), timeout=_time_left(deadline)) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # headers and body go out apart
                if self._tls:  # the TLS socket takes the descriptor over
                    sock.settimeout(_time_left(deadline))
                    sock = self._tls.wrap_socket(sock, server_hostname=self._host)
                wrapped = _DeadlineSocket(sock, deadline)
                with sock, http.client.HTTPResponse(wrapped, method="POST") as response:
                    conn = (
                        http.client.HTTPSConnection(self._host, self._port, context=self._tls)
                        if self._tls
                        else http.client.HTTPConnection(self._host, self._port)
                    )
                    conn.sock = wrapped
                    conn.request("POST", self._path, json.dumps(body).encode("utf-8"), headers)
                    response.begin()
                    if response.status >= 400:
                        raise TransportError(f"HTTP {response.status}", status=response.status)
                    data = response.read(limit + 1)
                    if len(data) > limit:
                        raise TransportError(f"completion payload longer than {limit} bytes")
        except TimeoutError as exc:
            raise BackendTimeoutError(f"no completion within {timeout_ms} ms") from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise TransportError(f"malformed completion payload: {exc}") from exc
        if not isinstance(content, str):  # null for a refusal or a tool call
            raise TransportError(f"malformed completion payload: content is not text: {content!r:.80}")
        return content

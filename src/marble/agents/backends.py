"""Text-completion backends: a remote chat-completions client and a scripted stand-in."""

from __future__ import annotations

import io
import json
import os
import time
from typing import TYPE_CHECKING, Callable, Mapping, Protocol
from urllib.parse import urlsplit, urlunsplit

from ..core import DecodingParams, EndpointParams

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
    """Deterministic backend for tests: fixed text, a prompt->text table, or a closure.

    A mapping script matches keys as substrings of the prompt in insertion
    order, with the empty-string key acting as the default. ``delay_ms``
    simulates a slow model; ``error`` is raised after the delay. A delay
    that reaches ``timeout_ms`` sleeps until the deadline and raises
    ``BackendTimeoutError``, as the backend contract requires.
    """

    def __init__(
        self,
        script: str | Mapping[str, str] | Callable[[str], str],
        *,
        delay_ms: int = 0,
        error: Exception | None = None,
    ):
        self._script = script
        self._delay_ms = delay_ms
        self._error = error
        self.calls = 0

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str:
        self.calls += 1
        if self._delay_ms >= timeout_ms:
            time.sleep(timeout_ms / 1000.0)
            raise BackendTimeoutError(f"no completion within {timeout_ms} ms")
        if self._delay_ms:
            time.sleep(self._delay_ms / 1000.0)
        if self._error is not None:
            raise self._error
        if callable(self._script):
            return self._script(prompt)
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
    environment variable at call time. Each call opens one connection, and
    one deadline, ``timeout_ms`` from the start, bounds its connect, TLS
    handshake, send, status line, headers and body; name resolution is not
    bounded, and a host name with several addresses gets the time left for
    each. HTTPS verifies the server against the system CA store. Proxy
    variables and ``~/.netrc`` are not read. The HTTP, socket and TLS
    modules load when the first instance is built, not on package import.
    """

    def __init__(self, endpoint: EndpointParams):
        # Here rather than in ``complete``, so the first call's deadline
        # does not pay for the import.
        import http.client
        import socket
        import ssl

        if not endpoint.url:
            raise ValueError("remote backend requires an endpoint url")
        self._endpoint = endpoint
        self._url = urlsplit(endpoint.url)
        self._tls = ssl.create_default_context() if self._url.scheme == "https" else None

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str:
        import http.client
        import socket

        deadline = time.monotonic() + timeout_ms / 1000.0
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
        try:
            url = self._url
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError(f"unsupported endpoint url {endpoint.url!r}")
            host, port = url.hostname, url.port or (443 if self._tls else 80)
            with socket.create_connection((host, port), timeout=_time_left(deadline)) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # headers and body go out apart
                if self._tls:  # the TLS socket takes the descriptor over
                    sock.settimeout(_time_left(deadline))
                    sock = self._tls.wrap_socket(sock, server_hostname=host)
                wrapped = _DeadlineSocket(sock, deadline)
                with sock, http.client.HTTPResponse(wrapped, method="POST") as response:
                    conn = (
                        http.client.HTTPSConnection(host, port, context=self._tls)
                        if self._tls
                        else http.client.HTTPConnection(host, port)
                    )
                    conn.sock = wrapped
                    conn.request("POST", urlunsplit(("", "", url.path or "/", url.query, "")),
                                 json.dumps(body).encode("utf-8"), headers)
                    response.begin()
                    if response.status >= 400:
                        raise TransportError(f"HTTP {response.status}", status=response.status)
                    data = response.read()
        except TimeoutError as exc:
            raise BackendTimeoutError(f"no completion within {timeout_ms} ms") from exc
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc
        if not isinstance(content, str):  # null for a refusal or a tool call
            raise TransportError(f"malformed completion payload: content is not text: {content!r:.80}")
        return content

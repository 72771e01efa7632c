"""Text-completion backends: a remote chat-completions client and a scripted stand-in."""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Mapping, Protocol, runtime_checkable

import requests
import urllib3

from ..core import DecodingParams, EndpointParams


class TransportError(Exception):
    """Network failure or HTTP error status from the completion endpoint."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class BackendTimeoutError(TimeoutError):
    """The backend did not produce a completion within the deadline."""


@runtime_checkable
class SlmBackend(Protocol):
    """A text-completion backend.

    ``complete`` must return, or raise ``BackendTimeoutError``, within
    ``timeout_ms``; it raises ``TransportError`` for any other failure to
    obtain a completion. The engine calls it directly and relies on this
    bound: a call that overruns holds a worker of the shared agent pool
    until it returns, and the engine abandons its result at the barrier.
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


class RemoteHttpBackend:
    """Chat-completions-compatible HTTP backend configured from EndpointParams.

    A call sends the prompt as one user message with the decoding parameters
    (the repetition penalty only where the endpoint accepts it) and returns
    the first choice's text. The credential is read from the named
    environment variable at call time. ``requests`` bounds the connect and
    each socket read by ``timeout_ms``; the body is read in chunks against
    one deadline for the whole call, so a reply trickled byte by byte fails
    once the deadline passes (a reply that stalls outright is held one
    read's ``timeout_ms`` at most).
    """

    def __init__(self, endpoint: EndpointParams):
        if not endpoint.url:
            raise ValueError("remote backend requires an endpoint url")
        self._endpoint = endpoint

    def complete(self, prompt: str, decoding: DecodingParams, timeout_ms: int) -> str:
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
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(endpoint.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        deadline = time.monotonic() + timeout_ms / 1000.0
        try:
            with requests.post(
                endpoint.url, json=body, headers=headers, timeout=timeout_ms / 1000.0, stream=True
            ) as response:
                if response.status_code >= 400:
                    raise TransportError(f"HTTP {response.status_code}", status=response.status_code)
                chunks = []
                while chunk := response.raw.read1(65536, decode_content=True):
                    if time.monotonic() > deadline:
                        raise BackendTimeoutError(f"no completion within {timeout_ms} ms")
                    chunks.append(chunk)
        except (requests.Timeout, urllib3.exceptions.TimeoutError) as exc:
            raise BackendTimeoutError(f"no completion within {timeout_ms} ms") from exc
        except (requests.RequestException, urllib3.exceptions.HTTPError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            payload = json.loads(b"".join(chunks))
            return payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc

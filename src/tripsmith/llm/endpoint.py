"""Remote model client and its offline stand-ins.

A Transport turns one prompt into one reply string. The HTTP transport speaks
the common chat-completion JSON shape; the replay transport serves canned
replies from a transcript file keyed by prompt hash, which makes every
network-dependent feature testable offline. Auth tokens are read from an
environment variable at request time and never logged.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from ..errors import InputError, TripsmithError


class TransportError(TripsmithError):
    """The model could not be reached or did not answer usably."""


@dataclass(frozen=True)
class LlmEndpoint:
    base_url: str
    model: str
    token_env: str = "TRIPSMITH_LLM_TOKEN"
    timeout_seconds: float = 30.0
    max_retries: int = 2


class Transport(Protocol):
    def complete(self, prompt: str) -> str:
        ...


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


class HttpTransport:
    """Single-turn chat completion over HTTP with exponential backoff."""

    def __init__(self, endpoint: LlmEndpoint, sleep: Callable[[float], None] = time.sleep):
        self.endpoint = endpoint
        self._sleep = sleep

    def complete(self, prompt: str) -> str:
        # imported here: urllib.request pulls in http.client, ssl and email,
        # which no offline command needs
        import urllib.request

        payload = json.dumps({
            "model": self.endpoint.model,
            "messages": [{"role": "user", "content": prompt}],
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.endpoint.token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error: Exception | None = None
        for attempt in range(self.endpoint.max_retries + 1):
            request = urllib.request.Request(
                self.endpoint.base_url, data=payload, headers=headers, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=self.endpoint.timeout_seconds) as resp:
                    body = json.loads(resp.read().decode("utf-8"))
                content = body["choices"][0]["message"]["content"]
                if isinstance(content, str):
                    return content
                raise TypeError(f"reply content is {type(content).__name__}, not text")
            # URLError and TimeoutError are OSErrors; the rest, a body that is not a
            # chat-completion object with a string content
            except (OSError, ValueError, RecursionError, LookupError, TypeError) as exc:
                last_error = exc
                if attempt < self.endpoint.max_retries:
                    self._sleep(0.5 * (2 ** attempt))
        raise TransportError(f"model endpoint gave no usable reply: {last_error}")


class ReplayTransport:
    """Serve replies recorded in a JSONL transcript, keyed by prompt hash; a
    missing file or a line that is not a JSON object with a string `hash` and
    `reply` is an InputError."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.replies: dict[str, str] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"transcript {self.path} cannot be read: {exc}") from None
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                record = None
            if not (isinstance(record, dict) and isinstance(record.get("hash"), str)
                    and isinstance(record.get("reply"), str)):
                raise InputError(f"{self.path}:{number}: transcript line is not a JSON "
                                 "object with a string 'hash' and 'reply'")
            self.replies[record["hash"]] = record["reply"]

    def complete(self, prompt: str) -> str:
        key = prompt_hash(prompt)
        if key not in self.replies:
            raise TransportError(f"no transcript entry for prompt hash {key}")
        return self.replies[key]


class RecordingTransport:
    """Wrap another transport and append its replies to a transcript file."""

    def __init__(self, inner: Transport, path: Path | str):
        self.inner = inner
        self.path = Path(path)

    def complete(self, prompt: str) -> str:
        reply = self.inner.complete(prompt)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"hash": prompt_hash(prompt), "reply": reply}) + "\n")
        return reply


class CallableTransport:
    """Test transport backed by a plain function (may raise TransportError)."""

    def __init__(self, fn: Callable[[str], str]):
        self.fn = fn

    def complete(self, prompt: str) -> str:
        return self.fn(prompt)


class FaultInjectingTransport:
    """Fail every call, counting faults; used to exercise degradation."""

    def __init__(self):
        self.faults = 0

    def complete(self, prompt: str) -> str:
        self.faults += 1
        raise TransportError("injected fault")

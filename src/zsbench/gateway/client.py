"""Chat-completion transport with pinned sampling parameters and retries.

A provider takes the JSON request body and returns the assistant text.
complete_chat wraps any provider with exponential backoff on retryable
failures (transport errors, HTTP 429/5xx), waiting instead as long as a
429 or 503 response's Retry-After header asks; authentication failures
surface immediately.
"""

from __future__ import annotations

import functools
import json
import os
import queue
import random
import select
import time
from dataclasses import dataclass, field
from urllib.parse import unquote, urlsplit, urlunsplit

from .. import __version__
from .prompts import PromptBundle


class GatewayError(Exception):
    """Base class for gateway failures."""


# total seconds complete_chat may sleep between the attempts of one request
MAX_BACKOFF_S = 300.0


class ProviderError(GatewayError):
    """A provider call failed; `retryable` says whether backoff applies.

    `retry_after` is the wait in seconds the server asked for, if any.
    """

    def __init__(self, message: str, retryable: bool, retry_after: float | None = None):
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


class AuthenticationError(ProviderError):
    def __init__(self, message: str):
        super().__init__(message, retryable=False)


class RetriesExhaustedError(GatewayError):
    def __init__(self, attempts: int, last: Exception):
        super().__init__(f"provider failed after {attempts} attempts: {last}")
        self.last = last


@dataclass(frozen=True)
class LlmRunConfig:
    """Run parameters for one LLM predictor."""

    model: str
    temperature: float = 0.01
    top_p: float = 0.9
    batch_size: int = 25
    max_retries: int = 3
    timeout_s: float = 60.0
    repeat_count: int = 5
    concurrency: int = 4
    backoff_base_s: float = 1.0
    request_seed: int | None = None

    def __post_init__(self) -> None:
        for name, ok, expected in (
            ("temperature", lambda v: v >= 0, ">= 0"),
            ("top_p", lambda v: 0 < v <= 1, "in (0, 1]"),
            ("batch_size", lambda v: v >= 1, "positive"),
            ("max_retries", lambda v: v >= 0, ">= 0"),
            ("timeout_s", lambda v: v > 0, "positive"),
            ("repeat_count", lambda v: v >= 1, "positive"),
            ("concurrency", lambda v: v >= 1, "positive"),
            ("backoff_base_s", lambda v: v >= 0, ">= 0"),
        ):
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class LlmResponse:
    """Raw provider output; `raw_text` is preserved unmodified for audit."""

    raw_text: str
    latency_s: float
    model: str = ""
    token_usage: dict = field(default_factory=dict)
    retries: int = 0


def build_request_body(bundle: PromptBundle, config: LlmRunConfig) -> dict:
    body = {
        "model": config.model,
        "messages": [
            {"role": "system", "content": bundle.system_instruction},
            {"role": "user", "content": bundle.user_payload},
        ],
        "temperature": config.temperature,
        "top_p": config.top_p,
    }
    if config.request_seed is not None:
        body["seed"] = config.request_seed
    return body


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds to wait from a Retry-After header (RFC 9110 10.2.3): either
    delay-seconds or an HTTP-date. None when absent or malformed."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        return float(value)
    # only an HTTP-date needs these, so importing the client does not
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # "-0000": UTC with no source zone
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


@functools.cache
def _tls_context():
    """The default TLS context, built on the first https connection and
    shared by every later one: it loads the CA store, which takes tens of ms."""
    import ssl

    return ssl.create_default_context()


class HttpProvider:
    """POSTs chat-completion bodies to an OpenAI-compatible endpoint.

    The bearer token is read from the named environment variable; it is
    never stored in configs or logs. Each request checks an idle stdlib
    `http.client` connection out of a pool, or opens one, and puts it back
    once the whole response is read, so no two requests in flight share a
    connection and connections outlive the threads that used them. A
    connection the server closed while idle is reopened before use.
    `http_proxy`, `https_proxy` and `no_proxy` are honoured (an https
    endpoint is reached through a CONNECT tunnel); redirects are not
    followed, so the token never goes to another host. `close()` closes
    the idle connections; the owner calls it once no request is in flight.
    """

    def __init__(
        self,
        endpoint: str,
        api_key_env: str = "OPENAI_API_KEY",
        timeout_s: float = 60.0,
    ):
        # imported here, while the config is validated, not at package import
        import http.client
        from urllib.request import getproxies, proxy_bypass

        url = urlsplit(endpoint) if isinstance(endpoint, str) else None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint: expected an http or https URL, got {endpoint!r}")
        host = url.hostname
        port = url.port or (443 if url.scheme == "https" else 80)
        self.api_key_env = api_key_env
        self._headers = {
            "Content-Type": "application/json",
            "User-Agent": f"zsbench/{__version__}",
        }
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        https = url.scheme == "https"
        connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection

        address, tunnel = (host, port), None
        proxy = getproxies().get(url.scheme)
        if proxy and not proxy_bypass(f"{host}:{port}"):
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                # the proxy URL is not echoed: it may hold a password
                raise ValueError(f"{url.scheme}_proxy: expected an http:// proxy URL")
            address = (proxy_url.hostname, proxy_url.port or 80)
            proxy_headers = {}
            if proxy_url.username is not None:
                from base64 import b64encode

                credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + b64encode(credentials.encode()).decode()
                )
            if https:
                tunnel = (host, port, proxy_headers)
            else:
                # a plain-http proxy takes the request line in absolute form
                self._headers.update(proxy_headers)
                self._target = f"http://{url.netloc.rpartition('@')[2]}{self._target}"

        def connect():
            tls = {"context": _tls_context()} if https else {}
            conn = connection_class(*address, timeout=timeout_s, **tls)
            if tunnel is not None:
                conn.set_tunnel(*tunnel)
            return conn

        self._connect = connect
        self._idle = queue.SimpleQueue()

    def _checkout(self):
        """An idle connection, or a new one when none is idle."""
        try:
            conn = self._idle.get_nowait()
        except queue.Empty:
            return self._connect()
        # an idle socket that reads as ready was closed by the server (urllib3
        # makes the same check); close it, and the request reconnects
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()
        return conn

    def close(self) -> None:
        """Close every idle pooled connection; a later request opens a new one."""
        while True:
            try:
                conn = self._idle.get_nowait()
            except queue.Empty:
                return
            conn.close()

    def complete(self, body: dict) -> tuple[str, dict]:
        """Returns (assistant_text, metadata). Raises ProviderError."""
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise AuthenticationError(
                f"environment variable {self.api_key_env} is not set"
            )
        data = json.dumps(body, allow_nan=False).encode()
        headers = {**self._headers, "Authorization": f"Bearer {api_key}"}
        from http.client import HTTPException  # loaded by __init__: this only binds the name

        conn = self._checkout()
        try:
            conn.request("POST", self._target, body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (OSError, HTTPException) as exc:
            conn.close()
            raise ProviderError(f"transport error: {exc}", retryable=True) from exc
        # back in the pool only once its whole response has been read
        self._idle.put(conn)

        status = resp.status
        if status in (401, 403):
            raise AuthenticationError(f"authentication failed (HTTP {status})")
        if status in (429, 503):
            retry_after = _parse_retry_after(resp.getheader("Retry-After"))
            raise ProviderError(f"HTTP {status}", retryable=True, retry_after=retry_after)
        if status >= 500:
            raise ProviderError(f"HTTP {status}", retryable=True)
        if 300 <= status < 400:
            raise ProviderError(f"HTTP {status}: redirects are not followed", retryable=False)
        if status != 200:
            detail = raw[:200].decode("utf-8", "replace")
            raise ProviderError(f"HTTP {status}: {detail}", retryable=False)

        try:
            payload = json.loads(raw)
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}", retryable=False) from exc
        meta = {
            "model": payload.get("model", ""),
            "usage": payload.get("usage", {}) or {},
        }
        return text, meta


def complete_chat(bundle: PromptBundle, config: LlmRunConfig, provider) -> LlmResponse:
    """Send one request, retrying retryable failures with doubling backoff + jitter.

    A failure that carries `retry_after` waits that long instead (plus the
    jitter, so never less). Retries stop early, with RetriesExhaustedError,
    when the next wait would take this request's total past MAX_BACKOFF_S.
    """
    attempts = config.max_retries + 1
    last: Exception | None = None
    slept = 0.0
    for attempt in range(attempts):
        start = time.monotonic()
        try:
            text, meta = provider.complete(build_request_body(bundle, config))
        except ProviderError as exc:
            if not exc.retryable:
                raise
            last = exc
            if attempt + 1 < attempts:
                delay = exc.retry_after
                if delay is None:
                    delay = config.backoff_base_s * (2.0**attempt)
                delay *= 1.0 + random.uniform(0.0, 0.1)
                if slept + delay > MAX_BACKOFF_S:
                    raise RetriesExhaustedError(attempt + 1, exc)
                time.sleep(delay)
                slept += delay
            continue
        return LlmResponse(
            raw_text=text,
            latency_s=time.monotonic() - start,
            model=meta.get("model", ""),
            token_usage=meta.get("usage", {}),
            retries=attempt,
        )
    raise RetriesExhaustedError(attempts, last)

"""Chat-completion transport with pinned sampling parameters and retries.

A provider takes the JSON request body and returns the assistant text.
complete_chat wraps any provider with exponential backoff on retryable
failures (transport errors, HTTP 429/5xx); authentication failures
surface immediately.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

import requests

from .prompts import PromptBundle


class GatewayError(Exception):
    """Base class for gateway failures."""


class ProviderError(GatewayError):
    """A provider call failed; `retryable` says whether backoff applies."""

    def __init__(self, message: str, retryable: bool):
        super().__init__(message)
        self.retryable = retryable


class AuthenticationError(ProviderError):
    def __init__(self, message: str):
        super().__init__(message, retryable=False)


class RetriesExhaustedError(GatewayError):
    def __init__(self, attempts: int, last: Exception):
        super().__init__(f"provider failed after {attempts} attempts: {last}")
        self.attempts = attempts
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
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.repeat_count < 1:
            raise ValueError(f"repeat_count must be positive, got {self.repeat_count}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be positive, got {self.concurrency}")


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
    if config.seed is not None:
        body["seed"] = config.seed
    return body


class HttpProvider:
    """POSTs chat-completion bodies to an OpenAI-compatible endpoint.

    The bearer token is read from the named environment variable; it is
    never stored in configs or logs.
    """

    def __init__(
        self,
        endpoint: str,
        api_key_env: str = "OPENAI_API_KEY",
        timeout_s: float = 60.0,
        session=None,
    ):
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.timeout_s = timeout_s
        self._session = session if session is not None else requests.Session()

    def complete(self, body: dict) -> tuple[str, dict]:
        """Returns (assistant_text, metadata). Raises ProviderError."""
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise AuthenticationError(
                f"environment variable {self.api_key_env} is not set"
            )
        headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
        }
        try:
            resp = self._session.post(
                self.endpoint, json=body, headers=headers, timeout=self.timeout_s
            )
        except requests.RequestException as exc:
            raise ProviderError(f"transport error: {exc}", retryable=True) from exc

        if resp.status_code in (401, 403):
            raise AuthenticationError(f"authentication failed (HTTP {resp.status_code})")
        if resp.status_code == 429 or resp.status_code >= 500:
            raise ProviderError(f"HTTP {resp.status_code}", retryable=True)
        if resp.status_code != 200:
            raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:200]}", retryable=False)

        try:
            payload = resp.json()
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed provider response: {exc}", retryable=False) from exc
        meta = {
            "model": payload.get("model", ""),
            "usage": payload.get("usage", {}) or {},
        }
        return text, meta


def complete_chat(bundle: PromptBundle, config: LlmRunConfig, provider) -> LlmResponse:
    """Send one request, retrying retryable failures with doubling backoff + jitter."""
    attempts = config.max_retries + 1
    last: Exception | None = None
    for attempt in range(attempts):
        start = time.monotonic()
        try:
            text, meta = provider.complete(build_request_body(bundle, config))
        except ProviderError as exc:
            if not exc.retryable:
                raise
            last = exc
            if attempt + 1 < attempts:
                delay = config.backoff_base_s * (2.0**attempt)
                time.sleep(delay * (1.0 + random.uniform(0.0, 0.1)))
            continue
        return LlmResponse(
            raw_text=text,
            latency_s=time.monotonic() - start,
            model=meta.get("model", ""),
            token_usage=meta.get("usage", {}),
            retries=attempt,
        )
    raise RetriesExhaustedError(attempts, last)

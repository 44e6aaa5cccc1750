from __future__ import annotations

import json
import threading
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from zsbench.gateway import client
from zsbench.gateway.classify import classify_corpus
from zsbench.gateway.client import (
    AuthenticationError,
    HttpProvider,
    LlmRunConfig,
    ProviderError,
    RetriesExhaustedError,
    build_request_body,
    complete_chat,
)
from zsbench.gateway.prompts import build_prompt
from conftest import ECOMMERCE_TASK, ScriptedProvider

FAST = dict(backoff_base_s=0.001)


@pytest.fixture
def bundle(ecommerce_schema):
    return build_prompt(ecommerce_schema, ECOMMERCE_TASK, [(0, "usb charger")])


class TestRequestBody:
    def test_pinned_sampling_parameters(self, bundle):
        config = LlmRunConfig(model="gpt-4-1106-preview")
        body = build_request_body(bundle, config)
        assert body["temperature"] == 0.01
        assert body["top_p"] == 0.9
        assert body["model"] == "gpt-4-1106-preview"
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert "seed" not in body

    def test_optional_request_seed(self, bundle):
        body = build_request_body(bundle, LlmRunConfig(model="m", request_seed=7))
        assert body["seed"] == 7

    def test_config_validation(self):
        with pytest.raises(ValueError, match="top_p"):
            LlmRunConfig(model="m", top_p=0.0)
        with pytest.raises(ValueError, match="temperature"):
            LlmRunConfig(model="m", temperature=-1)


class TestCompleteChat:
    def test_mock_passthrough(self, bundle):
        provider = ScriptedProvider(['{"0": "Electronics"}'])
        response = complete_chat(bundle, LlmRunConfig(model="m", **FAST), provider)
        assert response.raw_text == '{"0": "Electronics"}'
        assert response.retries == 0

    def test_two_rate_limits_then_success(self, bundle):
        provider = ScriptedProvider(
            [
                ProviderError("HTTP 429", retryable=True),
                ProviderError("HTTP 429", retryable=True),
                '{"0": "Electronics"}',
            ]
        )
        response = complete_chat(
            bundle, LlmRunConfig(model="m", max_retries=3, **FAST), provider
        )
        assert response.raw_text == '{"0": "Electronics"}'
        assert response.retries == 2
        assert provider.calls == 3

    def test_auth_error_not_retried(self, bundle):
        provider = ScriptedProvider(
            [AuthenticationError("bad key"), '{"0": "Electronics"}']
        )
        with pytest.raises(AuthenticationError):
            complete_chat(bundle, LlmRunConfig(model="m", max_retries=3, **FAST), provider)
        assert provider.calls == 1

    def test_retries_exhausted(self, bundle):
        provider = ScriptedProvider(
            [ProviderError("HTTP 503", retryable=True)] * 4
        )
        with pytest.raises(RetriesExhaustedError, match="4 attempts"):
            complete_chat(bundle, LlmRunConfig(model="m", max_retries=3, **FAST), provider)


class _FakeResponse:
    def __init__(self, status_code: int, payload=None, text: str = ""):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = {}

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


class TestHttpProvider:
    def _provider(self, responses, monkeypatch):
        monkeypatch.setenv("TEST_API_KEY", "sk-test")
        provider = HttpProvider(
            "https://api.example.com/v1/chat/completions", api_key_env="TEST_API_KEY"
        )
        provider._idle.put(_FakeSession(responses))
        return provider

    def test_parses_chat_completion(self, monkeypatch):
        payload = {
            "model": "gpt-4-1106-preview",
            "usage": {"total_tokens": 10},
            "choices": [{"message": {"content": '{"0": "Books"}'}}],
        }
        provider = self._provider([_FakeResponse(200, payload)], monkeypatch)
        text, meta = provider.complete({"model": "m", "messages": []})
        assert text == '{"0": "Books"}'
        assert meta["model"] == "gpt-4-1106-preview"
        sent = provider._idle.get_nowait().requests[0]
        assert sent["headers"]["Authorization"] == "Bearer sk-test"

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("ABSENT_KEY", raising=False)
        provider = HttpProvider("https://x/v1", api_key_env="ABSENT_KEY")
        provider._idle.put(_FakeSession([]))
        with pytest.raises(AuthenticationError, match="ABSENT_KEY"):
            provider.complete({})

    def test_status_mapping(self, monkeypatch):
        provider = self._provider(
            [
                _FakeResponse(429),
                _FakeResponse(503),
                _FakeResponse(401),
                _FakeResponse(418, text="teapot"),
            ],
            monkeypatch,
        )
        for retryable in (True, True):
            with pytest.raises(ProviderError) as exc_info:
                provider.complete({})
            assert exc_info.value.retryable is retryable
        with pytest.raises(AuthenticationError):
            provider.complete({})
        with pytest.raises(ProviderError) as exc_info:
            provider.complete({})
        assert exc_info.value.retryable is False

    def test_malformed_payload(self, monkeypatch):
        provider = self._provider([_FakeResponse(200, {"choices": []})], monkeypatch)
        with pytest.raises(ProviderError, match="malformed"):
            provider.complete({})


COMPLETION = {"model": "local", "choices": [{"message": {"content": '{"0": "Books"}'}}]}


class _LocalEndpoint:
    """Chat endpoint on 127.0.0.1: replays (status, Retry-After) pairs, then 200s."""

    def __init__(self, script=()):
        self.script = list(script)
        self.requests = 0
        lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            wbufsize = 1 << 16  # headers and body in one segment

            def log_message(self, *args):
                pass

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with lock:
                    endpoint.requests += 1
                    status, retry_after = (
                        endpoint.script.pop(0) if endpoint.script else (200, None)
                    )
                data = json.dumps(COMPLETION if status == 200 else {"error": "busy"}).encode()
                self.send_response(status)
                if retry_after is not None:
                    self.send_header("Retry-After", retry_after)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


@pytest.fixture
def local_endpoint(monkeypatch):
    monkeypatch.setenv("TEST_API_KEY", "sk-test")
    endpoints = []

    def start(script=()):
        endpoints.append(_LocalEndpoint(script))
        return endpoints[-1]

    yield start
    for endpoint in endpoints:
        endpoint.close()


@pytest.fixture
def sleeps(monkeypatch):
    """The waits complete_chat asks for, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr(client.time, "sleep", recorded.append)
    return recorded


class TestRetryAfter:
    def _complete(self, endpoint, bundle, max_retries=3):
        provider = HttpProvider(endpoint.url, api_key_env="TEST_API_KEY")
        config = LlmRunConfig(model="m", max_retries=max_retries, backoff_base_s=0.5)
        return complete_chat(bundle, config, provider)

    def test_delay_seconds_on_429(self, bundle, local_endpoint, sleeps):
        endpoint = local_endpoint([(429, "7")])
        response = self._complete(endpoint, bundle)
        assert response.raw_text == '{"0": "Books"}'
        assert response.retries == 1
        assert len(sleeps) == 1 and 7.0 <= sleeps[0] <= 7.7

    def test_http_date_on_503(self, bundle, local_endpoint, sleeps):
        when = datetime.now(timezone.utc) + timedelta(seconds=30)
        endpoint = local_endpoint([(503, format_datetime(when, usegmt=True))])
        response = self._complete(endpoint, bundle)
        assert response.retries == 1
        assert len(sleeps) == 1 and 27.0 <= sleeps[0] <= 33.0

    def test_past_http_date_retries_at_once(self, bundle, local_endpoint, sleeps):
        endpoint = local_endpoint([(503, "Sun, 06 Nov 1994 08:49:37 GMT")])
        assert self._complete(endpoint, bundle).retries == 1
        assert sleeps == [0.0]

    @pytest.mark.parametrize("header", ["soon", "-5", "1.5", "", None])
    def test_malformed_or_absent_header_falls_back_to_doubling(
        self, bundle, local_endpoint, sleeps, header
    ):
        endpoint = local_endpoint([(429, header), (503, header)])
        assert self._complete(endpoint, bundle).retries == 2
        assert len(sleeps) == 2
        assert 0.5 <= sleeps[0] <= 0.55 and 1.0 <= sleeps[1] <= 1.1

    def test_error_carries_retry_after(self, local_endpoint):
        endpoint = local_endpoint([(429, "12"), (503, "bogus")])
        provider = HttpProvider(endpoint.url, api_key_env="TEST_API_KEY")
        for expected in (12.0, None):
            with pytest.raises(ProviderError) as exc_info:
                provider.complete({"model": "m", "messages": []})
            assert exc_info.value.retryable is True
            assert exc_info.value.retry_after == expected

    def test_total_backoff_capped(self, bundle, local_endpoint, sleeps):
        # the second wait would take the total past the cap: stop, do not sleep it
        wait = client.MAX_BACKOFF_S * 0.6
        endpoint = local_endpoint([(429, str(int(wait)))] * 3)
        with pytest.raises(RetriesExhaustedError, match="after 2 attempts") as exc_info:
            self._complete(endpoint, bundle)
        assert endpoint.requests == 2
        assert len(sleeps) == 1 and sum(sleeps) <= client.MAX_BACKOFF_S
        assert exc_info.value.last.retry_after == int(wait)

    def test_wait_beyond_cap_sends_no_second_request(self, bundle, local_endpoint, sleeps):
        endpoint = local_endpoint([(503, "86400")])
        with pytest.raises(RetriesExhaustedError, match="after 1 attempts"):
            self._complete(endpoint, bundle)
        assert endpoint.requests == 1
        assert sleeps == []


class TestSessions:
    @pytest.fixture
    def recording_session(self, monkeypatch):
        """Patches requests.Session to log each session built and each request it serves."""
        log = {"built": [], "posts": [], "shared": [], "on_post": lambda: None}
        in_flight: set[int] = set()
        lock = threading.Lock()

        class RecordingSession(requests.Session):
            def __init__(self):
                super().__init__()
                log["built"].append(self)

            def post(self, *args, **kwargs):
                with lock:
                    if id(self) in in_flight:
                        log["shared"].append(self)
                    in_flight.add(id(self))
                    log["posts"].append(self)
                try:
                    log["on_post"]()
                    return super().post(*args, **kwargs)
                finally:
                    with lock:
                        in_flight.discard(id(self))

        monkeypatch.setattr(requests, "Session", RecordingSession)
        return log

    def test_concurrent_requests_never_share_a_session(self, local_endpoint, recording_session):
        both_in_flight = threading.Barrier(2, timeout=10)
        recording_session["on_post"] = both_in_flight.wait
        endpoint = local_endpoint()
        provider = HttpProvider(endpoint.url, api_key_env="TEST_API_KEY")
        errors = []

        def worker():
            try:
                for _ in range(2):
                    provider.complete({"model": "m", "messages": []})
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(recording_session["posts"]) == 4
        assert recording_session["shared"] == []
        # each round had two requests in flight; the second reused the first's sessions
        assert len(recording_session["built"]) == 2

    def test_sessions_outlive_classify_repeats(
        self, local_endpoint, recording_session, ecommerce_schema
    ):
        endpoint = local_endpoint()
        provider = HttpProvider(endpoint.url, api_key_env="TEST_API_KEY")
        docs = [(i, f"item {i}") for i in range(8)]
        config = LlmRunConfig(model="m", batch_size=2, concurrency=2, **FAST)
        for _ in range(5):
            classify_corpus(docs, ecommerce_schema, ECOMMERCE_TASK, config, provider)
        assert endpoint.requests >= 20
        assert recording_session["shared"] == []
        assert 1 <= len(recording_session["built"]) <= 2

from __future__ import annotations

import pytest

from zsbench.gateway import (
    AuthenticationError,
    ECOMMERCE_TASK,
    HttpProvider,
    LlmRunConfig,
    ProviderError,
    RetriesExhaustedError,
    build_prompt,
    build_request_body,
    complete_chat,
)
from conftest import ScriptedProvider

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
        body = build_request_body(bundle, LlmRunConfig(model="m", seed=7))
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
        return HttpProvider(
            "https://api.example.com/v1/chat/completions",
            api_key_env="TEST_API_KEY",
            session=_FakeSession(responses),
        )

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
        sent = provider._session.requests[0]
        assert sent["headers"]["Authorization"] == "Bearer sk-test"

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("ABSENT_KEY", raising=False)
        provider = HttpProvider("https://x/v1", api_key_env="ABSENT_KEY", session=_FakeSession([]))
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

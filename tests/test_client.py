from __future__ import annotations

import base64
import json
import os
import ssl
import _thread
import threading
import time
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from zsbench import __version__, orchestrator
from zsbench.gateway import client
from zsbench.gateway.classify import ClassificationPool, classify_corpus
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
from conftest import DATA_DIR, ECOMMERCE_TASK, ScriptedProvider, fixture_experiment_config

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


COMPLETION = {"model": "local", "choices": [{"message": {"content": '{"0": "Books"}'}}]}


class _LocalEndpoint:
    """Chat endpoint on 127.0.0.1.

    Replays (status, Retry-After[, body[, headers]]) entries, then 200s with
    COMPLETION; a dict body is sent as JSON. Every request is recorded in
    `seen` with the client's address, so connections can be counted. With
    `close_after_reply` set, the server closes each connection after its
    reply without announcing it, as an endpoint's idle timeout does;
    `disconnected` is set whenever the server has closed a connection, and
    `closed` counts the connections either side has closed.
    `on_request` runs before each reply, outside the lock. A CONNECT is
    recorded and answered 200, then the connection is closed.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.seen: list[dict] = []
        self.close_after_reply = False
        self.on_request = lambda: None
        self.disconnected = threading.Event()
        self.closed = 0
        lock = threading.Lock()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            wbufsize = 1 << 16  # headers and body in one segment

            def log_message(self, *args):
                pass

            def _record(self, body: bytes) -> None:
                endpoint.seen.append(
                    {"client": self.client_address, "method": self.command,
                     "target": self.path, "headers": dict(self.headers), "body": body}
                )

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with lock:
                    self._record(body)
                    entry = endpoint.script.pop(0) if endpoint.script else (200, None)
                status, retry_after, *rest = entry
                payload = rest[0] if rest else (COMPLETION if status == 200 else {"error": "busy"})
                headers = rest[1] if len(rest) > 1 else {}
                endpoint.on_request()
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                if retry_after is not None:
                    self.send_header("Retry-After", retry_after)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = endpoint.close_after_reply

            def do_CONNECT(self):
                with lock:
                    self._record(b"")
                self.send_response(200)
                self.end_headers()
                self.close_connection = True

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def shutdown_request(self, request):
                super().shutdown_request(request)
                with lock:
                    endpoint.closed += 1
                endpoint.disconnected.set()

        self.server = Server(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        self.address = f"127.0.0.1:{self.server.server_address[1]}"
        self.url = f"http://{self.address}/v1/chat/completions"

    @property
    def requests(self) -> int:
        return len(self.seen)

    @property
    def connections(self) -> int:
        """Distinct client connections the requests arrived on."""
        return len({request["client"] for request in self.seen})

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


@pytest.fixture
def no_proxy_env(monkeypatch):
    """No proxy variable from the environment the tests run in."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def local_endpoint(monkeypatch, no_proxy_env):
    monkeypatch.setenv("TEST_API_KEY", "sk-test")
    endpoints = []

    def start(script=()):
        endpoints.append(_LocalEndpoint(script))
        return endpoints[-1]

    yield start
    for endpoint in endpoints:
        endpoint.close()


@pytest.fixture
def http_provider():
    """Builds HttpProviders that are closed after the test, pooled sockets and all."""
    providers = []

    def build(url: str) -> HttpProvider:
        providers.append(HttpProvider(url, api_key_env="TEST_API_KEY"))
        return providers[-1]

    yield build
    for provider in providers:
        provider.close()


class TestHttpProvider:
    def _provider(self, script, local_endpoint, http_provider):
        endpoint = local_endpoint(script)
        return endpoint, http_provider(endpoint.url)

    def test_parses_chat_completion(self, local_endpoint, http_provider):
        payload = {
            "model": "gpt-4-1106-preview",
            "usage": {"total_tokens": 10},
            "choices": [{"message": {"content": '{"0": "Books"}'}}],
        }
        endpoint, provider = self._provider([(200, None, payload)], local_endpoint, http_provider)
        body = {"model": "m", "messages": [{"role": "user", "content": "café"}]}
        text, meta = provider.complete(body)
        assert text == '{"0": "Books"}'
        assert meta == {"model": "gpt-4-1106-preview", "usage": {"total_tokens": 10}}
        (sent,) = endpoint.seen
        assert (sent["method"], sent["target"]) == ("POST", "/v1/chat/completions")
        assert sent["headers"]["Authorization"] == "Bearer sk-test"
        assert sent["headers"]["Content-Type"] == "application/json"
        assert sent["headers"]["User-Agent"] == f"zsbench/{__version__}"
        assert sent["body"] == json.dumps(body).encode()

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("ABSENT_KEY", raising=False)
        provider = HttpProvider("https://x/v1", api_key_env="ABSENT_KEY")
        with pytest.raises(AuthenticationError, match="ABSENT_KEY"):
            provider.complete({})

    def test_status_mapping(self, local_endpoint, http_provider):
        endpoint, provider = self._provider(
            [(429, None), (503, None), (500, None), (401, None), (403, None),
             (418, None, b"teapot")],
            local_endpoint,
            http_provider,
        )
        for _ in range(3):
            with pytest.raises(ProviderError) as exc_info:
                provider.complete({})
            assert exc_info.value.retryable is True
        for _ in range(2):
            with pytest.raises(AuthenticationError):
                provider.complete({})
        with pytest.raises(ProviderError, match="HTTP 418: teapot") as exc_info:
            provider.complete({})
        assert exc_info.value.retryable is False
        # every reply was read whole, so one connection carried them all
        assert endpoint.requests == 6 and endpoint.connections == 1

    def test_malformed_payload(self, local_endpoint, http_provider):
        _, provider = self._provider(
            [(200, None, {"choices": []}), (200, None, b"not json")],
            local_endpoint,
            http_provider,
        )
        for _ in range(2):
            with pytest.raises(ProviderError, match="malformed") as exc_info:
                provider.complete({})
            assert exc_info.value.retryable is False

    def test_redirect_not_followed(self, local_endpoint, http_provider):
        elsewhere = local_endpoint()
        endpoint, provider = self._provider(
            [(307, None, {"error": "moved"}, {"Location": elsewhere.url})],
            local_endpoint,
            http_provider,
        )
        with pytest.raises(ProviderError, match="HTTP 307") as exc_info:
            provider.complete({})
        assert exc_info.value.retryable is False
        assert endpoint.requests == 1
        assert elsewhere.requests == 0  # the token went to no other host

    @pytest.mark.parametrize(
        "endpoint", [5, None, "ftp://x/v1", "http:///v1", "api.example.com/v1"]
    )
    def test_endpoint_must_be_an_http_url(self, endpoint):
        with pytest.raises(ValueError, match="endpoint: expected an http or https URL"):
            HttpProvider(endpoint)

    def test_https_verifies_certificates_and_hostname(self):
        provider = HttpProvider("https://api.example.com/v1/chat/completions")
        conn = provider._checkout()  # built, not connected
        assert (conn.host, conn.port) == ("api.example.com", 443)
        assert conn._context.check_hostname is True
        assert conn._context.verify_mode == ssl.CERT_REQUIRED

    def test_tls_context_built_on_first_connection_not_while_validating(
        self, no_proxy_env, monkeypatch, tmp_path
    ):
        calls = []
        create = ssl.create_default_context
        monkeypatch.setattr(
            ssl, "create_default_context", lambda *a, **kw: calls.append(1) or create(*a, **kw)
        )
        endpoint = "https://api.example.com/v1/chat/completions"
        entry = {"name": "gpt", "type": "llm", "model": "m",
                 "provider": {"type": "http", "endpoint": endpoint}}
        orchestrator.validate_config(fixture_experiment_config(DATA_DIR / "fixture_corpus.csv", tmp_path, [entry]))
        assert calls == []  # loading the CA store is left to the first connection
        client._tls_context.cache_clear()
        first, second = HttpProvider(endpoint)._checkout(), HttpProvider(endpoint)._checkout()
        assert len(calls) == 1 and first._context is second._context


class TestProxy:
    def test_http_proxy_gets_the_absolute_form(self, local_endpoint, http_provider, monkeypatch):
        proxy, origin = local_endpoint(), local_endpoint()
        monkeypatch.setenv("http_proxy", f"http://user:p%40ss@{proxy.address}")
        provider = http_provider(origin.url)
        for _ in range(2):
            assert provider.complete({"model": "m"})[0] == '{"0": "Books"}'
        assert origin.requests == 0
        assert proxy.requests == 2 and proxy.connections == 1
        credentials = base64.b64encode(b"user:p@ss").decode()
        for sent in proxy.seen:
            assert sent["target"] == origin.url
            assert sent["headers"]["Host"] == origin.address
            assert sent["headers"]["Authorization"] == "Bearer sk-test"
            assert sent["headers"]["Proxy-Authorization"] == f"Basic {credentials}"

    def test_no_proxy_bypasses_it(self, local_endpoint, http_provider, monkeypatch):
        proxy, origin = local_endpoint(), local_endpoint()
        monkeypatch.setenv("http_proxy", f"http://{proxy.address}")
        monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
        provider = http_provider(origin.url)
        provider.complete({"model": "m"})
        assert (origin.requests, proxy.requests) == (1, 0)
        assert origin.seen[0]["target"] == "/v1/chat/completions"

    def test_https_goes_through_a_connect_tunnel(self, local_endpoint, http_provider, monkeypatch):
        proxy = local_endpoint()
        monkeypatch.setenv("https_proxy", f"http://user:pw@{proxy.address}")
        # port 9 on loopback: nothing answers there if the tunnel is bypassed
        provider = http_provider("https://127.0.0.1:9/v1")
        # the test proxy closes the tunnel instead of relaying the TLS handshake
        with pytest.raises(ProviderError, match="transport error") as exc_info:
            provider.complete({"model": "m"})
        assert exc_info.value.retryable is True
        (sent,) = proxy.seen
        assert (sent["method"], sent["target"]) == ("CONNECT", "127.0.0.1:9")
        assert sent["headers"]["Proxy-Authorization"].startswith("Basic ")
        assert "Authorization" not in sent["headers"]

    @pytest.mark.parametrize("proxy", ["https://proxy:3128", "socks5://proxy:1080"])
    def test_only_http_proxies(self, no_proxy_env, monkeypatch, proxy):
        monkeypatch.setenv("https_proxy", proxy)
        with pytest.raises(ValueError, match=r"^https_proxy: expected an http:// proxy URL$"):
            HttpProvider("https://api.example.com/v1")


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
        try:
            return complete_chat(bundle, config, provider)
        finally:
            provider.close()

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

    def test_error_carries_retry_after(self, local_endpoint, http_provider):
        endpoint = local_endpoint([(429, "12"), (503, "bogus")])
        provider = http_provider(endpoint.url)
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
    """Pooled connections, counted on the server side by client address."""

    def test_concurrent_requests_never_share_a_session(self, local_endpoint, http_provider):
        endpoint = local_endpoint()
        # a request waits here for a second one in flight: two requests on
        # one connection could never both be in flight
        endpoint.on_request = threading.Barrier(2, timeout=10).wait
        provider = http_provider(endpoint.url)
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
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        # each round had two requests in flight; the second reused the first's connections
        assert endpoint.requests == 4
        assert endpoint.connections == 2

    def test_sessions_outlive_classify_repeats(
        self, local_endpoint, http_provider, ecommerce_schema
    ):
        endpoint = local_endpoint()
        provider = http_provider(endpoint.url)
        docs = [(i, f"item {i}") for i in range(8)]
        config = LlmRunConfig(model="m", batch_size=2, concurrency=2, repeat_count=5, **FAST)
        with ClassificationPool(docs, ecommerce_schema, ECOMMERCE_TASK, config, provider) as pool:
            for repeat in range(config.repeat_count):
                classify_corpus(pool, repeat)
        assert endpoint.requests >= 20
        assert 1 <= endpoint.connections <= 2

    def test_connection_closed_while_idle_is_reopened(self, local_endpoint, http_provider):
        endpoint = local_endpoint()
        endpoint.close_after_reply = True
        provider = http_provider(endpoint.url)
        for _ in range(3):
            # one attempt each: reusing the closed socket would raise ProviderError
            assert provider.complete({"model": "m"})[0] == '{"0": "Books"}'
            assert endpoint.disconnected.wait(10)
            endpoint.disconnected.clear()
        assert endpoint.requests == 3 and endpoint.connections == 3


class TestProviderLifecycle:
    @pytest.mark.parametrize("outcome", ["finished", "failed", "interrupted"])
    def test_entry_closes_its_pooled_connections(
        self, local_endpoint, monkeypatch, tmp_path, outcome, sigint_raises
    ):
        endpoint = local_endpoint([(401, None)] if outcome == "failed" else ())
        if outcome == "interrupted":
            endpoint.on_request = lambda: endpoint.requests == 3 and _thread.interrupt_main()
        entry = {
            "name": "http-llm", "type": "llm", "model": "m", "repeat_count": 2,
            "batch_size": 4, "concurrency": 2, "backoff_base_s": 0.001,
            "provider": {"type": "http", "endpoint": endpoint.url, "api_key_env": "TEST_API_KEY"},
        }
        config = orchestrator.validate_config(fixture_experiment_config(
            DATA_DIR / "fixture_corpus.csv", tmp_path, [entry], split={"test_size": 20, "seed": 0}
        ))
        built = []  # holds each provider, as a traceback's frames could
        build = orchestrator._build_provider
        monkeypatch.setattr(
            orchestrator, "_build_provider", lambda *args: built.append(build(*args)) or built[-1]
        )
        if outcome == "interrupted":
            with pytest.raises(KeyboardInterrupt):
                orchestrator.run_experiment(config, run_id="r")
        else:
            result = orchestrator.run_experiment(config, run_id="r")
            assert result.predictors["http-llm"].status == {"finished": "ok"}.get(outcome, "error")
        assert len(built) == 1 and endpoint.connections >= 1
        deadline = time.monotonic() + 10
        while endpoint.closed < endpoint.connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert endpoint.closed == endpoint.connections

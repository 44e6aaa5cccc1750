"""Prompt building, chat transport, and robust response parsing."""

from __future__ import annotations

from .classify import (
    AuditLog,
    ClassificationAborted,
    LlmClassification,
    classify_corpus,
    replay_audit,
)
from .client import (
    AuthenticationError,
    GatewayError,
    HttpProvider,
    LlmResponse,
    LlmRunConfig,
    ProviderError,
    RetriesExhaustedError,
    build_request_body,
    complete_chat,
)
from .mock import KeywordRuleProvider
from .parsing import (
    ParseDiagnostics,
    ParsedLabels,
    PayloadError,
    extract_json_payload,
    parse_classification,
    resolve_labels,
)
from .prompts import (
    PromptBundle,
    PromptError,
    TaskDescription,
    build_instruction,
    build_prompt,
)

__all__ = [
    "AuditLog",
    "AuthenticationError",
    "ClassificationAborted",
    "GatewayError",
    "HttpProvider",
    "KeywordRuleProvider",
    "LlmClassification",
    "LlmResponse",
    "LlmRunConfig",
    "ParseDiagnostics",
    "ParsedLabels",
    "PayloadError",
    "PromptBundle",
    "PromptError",
    "ProviderError",
    "RetriesExhaustedError",
    "TaskDescription",
    "build_instruction",
    "build_prompt",
    "build_request_body",
    "classify_corpus",
    "complete_chat",
    "extract_json_payload",
    "parse_classification",
    "replay_audit",
    "resolve_labels",
]

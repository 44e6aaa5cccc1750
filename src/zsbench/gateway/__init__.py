"""Prompt building, chat transport, and robust response parsing.

The package re-exports what the orchestrator, the CLI and audit replay use;
everything else is imported from its submodule.
"""

from __future__ import annotations

from .classify import AuditLog, ClassificationPool, classify_corpus, replay_audit
from .client import GatewayError, HttpProvider, LlmRunConfig
from .mock import KeywordRuleProvider
from .prompts import TaskDescription

__all__ = [
    "AuditLog",
    "ClassificationPool",
    "GatewayError",
    "HttpProvider",
    "KeywordRuleProvider",
    "LlmRunConfig",
    "TaskDescription",
    "classify_corpus",
    "replay_audit",
]

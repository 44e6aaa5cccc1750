"""The resolved form of a config that uses every field: pinned literals.

`config_hash()` is stored in every run's manifest.json, so the resolved
config (defaults filled in, aliases kept) must not change when config
parsing is refactored. The literals below were frozen from the parser as it
stood before its defaults moved to the objects that own them.
"""

from __future__ import annotations

import json

from zsbench.orchestrator import validate_config

PINNED_CONFIG = {
    "dataset": {
        "path": "data/corpus.csv",
        "format": "csv",
        "text_field": "body",
        "label_field": "category",
        "schema": {"task_name": "sms spam", "labels": ["ham", "spam"]},
    },
    "split": {"test_size": 40, "seed": 3},
    "cleaning": {"remove_digits": False},
    "llm_cleaning": {"remove_stopwords": False},
    "features": {"min_df": 1, "l2_normalize": False},
    "repeat_count": 3,
    "predictors": [
        {"name": "mnb", "alpha": 0.5},
        {"name": "lg", "learning_rate": 0.2, "l2_lambda": 0.001, "epochs": 50, "seed": 1},
        {"name": "knn", "k": 3},
        {"name": "dt", "max_depth": 8, "min_leaf": 2},
        {
            "name": "rf",
            "n_trees": 20,
            "max_depth": 10,
            "min_leaf": 1,
            "feature_subsample": "all",
            "bootstrap": False,
            "seed": 7,
        },
        {
            "name": "mock-llm",
            "type": "llm",
            "provider": {"type": "mock", "rules": {"spam": ["win", "prize"]}, "noise": True},
            "text_variant": "both",
            "request_seed": 11,
        },
        {
            "name": "gpt",
            "type": "llm",
            "model": "gpt-4-1106-preview",
            "provider": {
                "type": "http",
                "endpoint": "https://api.example.com/v1/chat/completions",
                "api_key_env": "EXAMPLE_API_KEY",
            },
            "task": {
                "subject": "sms spam",
                "item_singular": "message",
                "item_plural": "messages",
                "venue": "the sms inbox",
            },
            "batch_size": 10,
            "temperature": 0.0,
            "max_retries": 2,
            "timeout_s": 30,
            "concurrency": 2,
            "backoff_base_s": 0.5,
        },
    ],
    "output_dir": "runs",
}

PINNED_CANONICAL_JSON = """\
{
  "cleaning": {
    "apply_stemming": true,
    "remove_digits": false,
    "remove_hashtags": true,
    "remove_html_tags": true,
    "remove_mentions": true,
    "remove_punctuation": true,
    "remove_stopwords": true,
    "remove_urls": true
  },
  "dataset": {
    "format": "csv",
    "label_field": "category",
    "path": "data/corpus.csv",
    "schema": {
      "labels": [
        "ham",
        "spam"
      ],
      "task_name": "sms spam"
    },
    "text_field": "body"
  },
  "features": {
    "l2_normalize": false,
    "min_df": 1
  },
  "llm_cleaning": {
    "apply_stemming": false,
    "remove_digits": true,
    "remove_hashtags": true,
    "remove_html_tags": true,
    "remove_mentions": true,
    "remove_punctuation": false,
    "remove_stopwords": false,
    "remove_urls": true
  },
  "output_dir": "runs",
  "predictors": [
    {
      "alpha": 0.5,
      "name": "mnb"
    },
    {
      "epochs": 50,
      "l2_lambda": 0.001,
      "learning_rate": 0.2,
      "name": "lg",
      "seed": 1
    },
    {
      "k": 3,
      "name": "knn"
    },
    {
      "max_depth": 8,
      "min_leaf": 2,
      "name": "dt"
    },
    {
      "bootstrap": false,
      "feature_subsample": "all",
      "max_depth": 10,
      "min_leaf": 1,
      "n_trees": 20,
      "name": "rf",
      "seed": 7
    },
    {
      "backoff_base_s": 1.0,
      "batch_size": 25,
      "concurrency": 4,
      "max_retries": 3,
      "model": "mock",
      "name": "mock-llm",
      "provider": {
        "noise": true,
        "rules": {
          "spam": [
            "win",
            "prize"
          ]
        },
        "type": "mock"
      },
      "repeat_count": 3,
      "request_seed": 11,
      "task": {
        "item_plural": "texts",
        "item_singular": "text",
        "subject": "sms spam",
        "venue": "the sms spam dataset"
      },
      "temperature": 0.01,
      "text_variant": "both",
      "timeout_s": 60.0,
      "top_p": 0.9,
      "type": "llm"
    },
    {
      "backoff_base_s": 0.5,
      "batch_size": 10,
      "concurrency": 2,
      "max_retries": 2,
      "model": "gpt-4-1106-preview",
      "name": "gpt",
      "provider": {
        "api_key_env": "EXAMPLE_API_KEY",
        "endpoint": "https://api.example.com/v1/chat/completions",
        "type": "http"
      },
      "repeat_count": 3,
      "task": {
        "item_plural": "messages",
        "item_singular": "message",
        "subject": "sms spam",
        "venue": "the sms inbox"
      },
      "temperature": 0.0,
      "text_variant": "raw",
      "timeout_s": 30,
      "top_p": 0.9,
      "type": "llm"
    }
  ],
  "split": {
    "seed": 3,
    "test_size": 40
  }
}"""

PINNED_HASH = "417b9b82d8376ffb6410daf381962cb01eac8270e3d0e848c2cf9e5620eb3097"


def test_canonical_json_is_pinned():
    assert validate_config(json.dumps(PINNED_CONFIG)).canonical_json() == PINNED_CANONICAL_JSON


def test_config_hash_is_pinned():
    assert validate_config(json.dumps(PINNED_CONFIG)).config_hash() == PINNED_HASH

"""Reference cleaning and token path, kept as an oracle for `zsbench.preprocess`.

This is the cleaning as it was before each removal rule was guarded by a
substring test and the token path split the rule output directly: every
enabled rule runs on every text, whitespace is collapsed by a regex pass,
and the tokens are split from that collapsed, lowercased string. Stems come
from the reference stemmer in porter_oracle.py. Both must agree on every
string and every policy.
"""

from __future__ import annotations

import re

import porter_oracle
from zsbench.preprocess import STOPWORDS

_URL_RE = re.compile(r"(?:https?://|www\.)\S+|(?<![^\W\d])t\.co/\S+", re.IGNORECASE)
_HTML_TAG_RE = re.compile(r"<[^<>]*>")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_DIGIT_RE = re.compile(r"\d+")
_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")


def clean_text(text: str, policy) -> str:
    if policy.remove_urls:
        text = _URL_RE.sub(" ", text)
    if policy.remove_html_tags:
        while (stripped := _HTML_TAG_RE.sub(" ", text)) != text:
            text = stripped
    if policy.remove_mentions:
        text = _MENTION_RE.sub(" ", text)
    if policy.remove_hashtags:
        text = _HASHTAG_RE.sub(" ", text)
    if policy.remove_digits:
        text = _DIGIT_RE.sub(" ", text)
    if policy.remove_punctuation:
        text = _PUNCT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip().lower()


def normalize_tokens(text: str, policy) -> list[str]:
    tokens = text.lower().split()
    if policy.remove_stopwords:
        tokens = [t for t in tokens if t not in STOPWORDS]
    if policy.apply_stemming:
        tokens = [porter_oracle.stem(t) for t in tokens]
    return tokens


def preprocess_corpus(texts: list[str], policy) -> list[list[str]]:
    return [normalize_tokens(clean_text(text, policy), policy) for text in texts]

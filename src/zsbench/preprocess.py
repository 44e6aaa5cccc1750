"""Text cleaning and tokenization ahead of feature extraction.

Cleaning applies removal rules in a fixed order (URLs, HTML tags, mentions,
hashtags, digits, punctuation), each replacing the matched span with a
space, then lowercases and collapses whitespace; a rule whose pattern
cannot match the text is skipped, and the one-character digit and
punctuation rules run as one `str.translate` pass. Replacing instead of
deleting keeps the pipeline idempotent: a later rule can never splice two
fragments into a match for an earlier one.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from importlib import resources

from .porter import stem

# t.co links may follow digits: digit removal would expose them to a second pass
_URL_RE = re.compile(r"(?:https?://|www\.)\S+|(?<![^\W\d])t\.co/\S+", re.IGNORECASE)
_HTML_TAG_RE = re.compile(r"<[^<>]*>")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_DIGIT_RE = re.compile(r"\d+")
_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class CleaningPolicy:
    """Which removal rules apply. Lowercasing always applies."""

    remove_urls: bool = True
    remove_html_tags: bool = True
    remove_digits: bool = True
    remove_hashtags: bool = True
    remove_mentions: bool = True
    remove_punctuation: bool = True
    remove_stopwords: bool = True
    apply_stemming: bool = True

    @classmethod
    def tweet_cleaning(cls) -> "CleaningPolicy":
        """The tweet-cleaning recipe: urls, html tags, digits, hashtags,
        mentions and stop words removed; text otherwise left readable."""
        return cls(remove_punctuation=False, apply_stemming=False)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _load_stopwords() -> frozenset[str]:
    text = resources.files("zsbench").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


STOPWORDS = _load_stopwords()


class _RuleTable(dict):
    """`str.translate` table: a code point one of `patterns` matches -> a space, any other -> itself."""

    def __init__(self, *patterns: re.Pattern):
        self.patterns = patterns

    def __missing__(self, code: int) -> int:
        self[code] = result = 32 if any(p.match(chr(code)) for p in self.patterns) else code
        return result


# keyed by (remove_digits, remove_punctuation); a digit run becomes one space per digit
_RULE_TABLES = {(True, False): _RuleTable(_DIGIT_RE), (False, True): _RuleTable(_PUNCT_RE),
                (True, True): _RuleTable(_DIGIT_RE, _PUNCT_RE)}


def _remove(text: str, policy: CleaningPolicy) -> str:
    """Apply the policy's removal rules in fixed order, each match becoming a space.

    A rule runs only when the text holds what its pattern needs: a URL match
    leaves `http`, `www.` or `t.co/` in the lowercased text (the only
    character outside those letters' own case pairs that IGNORECASE lets
    match one of them is U+017F, and it matches the optional `s`), a tag
    needs `<`, a mention `@` and a hashtag `#`.
    """
    if policy.remove_urls:
        lowered = text.lower()
        if "http" in lowered or "www." in lowered or "t.co/" in lowered:
            text = _URL_RE.sub(" ", text)
    if policy.remove_html_tags and "<" in text:
        # removing an inner tag can expose an outer one, as in "<<b>>"
        while (stripped := _HTML_TAG_RE.sub(" ", text)) != text:
            text = stripped
    if policy.remove_mentions and "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if policy.remove_hashtags and "#" in text:
        text = _HASHTAG_RE.sub(" ", text)
    if policy.remove_digits or policy.remove_punctuation:
        text = text.translate(_RULE_TABLES[policy.remove_digits, policy.remove_punctuation])
    return text


def clean_text(text: str, policy: CleaningPolicy) -> str:
    """Apply the policy's removal rules in fixed order, lowercase, and
    collapse whitespace.

    Idempotent: cleaning an already-clean string is a no-op.
    """
    return _WS_RE.sub(" ", _remove(text, policy)).strip().lower()


class _Stems(dict):
    """token -> stem memo: a token missing from it is stemmed on first lookup."""

    def __missing__(self, token: str) -> str:
        self[token] = result = stem(token)
        return result


def normalize_tokens(text: str, policy: CleaningPolicy, stems: _Stems | None = None) -> list[str]:
    """Tokenize cleaned text, dropping stop words and stemming per policy.

    `stems` memoizes stems; calls that share it stem each distinct token once.
    """
    tokens = text.lower().split()
    if policy.remove_stopwords:
        tokens = [t for t in tokens if t not in STOPWORDS]
    if policy.apply_stemming:
        tokens = list(map((_Stems() if stems is None else stems).__getitem__, tokens))
    return tokens


def preprocess_corpus(texts: list[str], policy: CleaningPolicy) -> list[list[str]]:
    """Clean and tokenize every text, in input order.

    One call stems each distinct token once, so an experiment passes all of
    its texts, train and test, in one call. The rule output is lowercased
    and split once, with no whitespace pass: regex `\\s` and `str.isspace`
    agree on every code point, so the tokens equal those of `clean_text`.
    """
    stems = _Stems()
    return [normalize_tokens(_remove(text, policy), policy, stems) for text in texts]


def clean_for_prompt(text: str, policy: CleaningPolicy) -> str:
    """Cleaned single-string form of a text, for sending to an LLM."""
    return " ".join(normalize_tokens(clean_text(text, policy), policy))

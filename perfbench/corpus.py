"""Seeded synthetic corpora for the zsbench benchmark.

Words are built from Zipf-ranked pseudo-word stems, each with a few suffix
variants (``-s``, ``-ing``, ``-ation`` ...), so the Porter stemmer maps
several surface forms onto one stem. Every class owns a block of topical
stems that its documents draw from more often, so the baselines learn.
URLs, hashtags, mentions, digits and punctuation are mixed in so that every
cleaning rule fires. The same seed always gives the same corpus.

This module uses only the standard library: the benchmark never imports
the package under test to build its inputs.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

_ONSETS = ["b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k",
           "l", "m", "n", "p", "pl", "qu", "r", "s", "sh", "sl", "st", "t", "tr", "v",
           "w", "z"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "oo"]
_CODAS = ["", "", "b", "ck", "d", "g", "l", "m", "n", "nd", "nt", "p", "r", "rk", "sk",
          "st", "t", "x"]
SUFFIXES = ["", "s", "ing", "ed", "er", "ers", "ly", "ness", "ment", "ments", "ation",
            "ations", "ful", "able", "ize", "izes", "ized", "ity", "ive", "ism"]
STOPWORDS = ["the", "a", "and", "to", "of", "is", "in", "for", "you", "it", "on", "with",
             "this", "that", "are", "be", "at", "or", "was", "your", "have", "not", "but"]
PUNCT = [".", ",", "!", "?", ";", ":", "...", "-", "'"]

# Words the spam class uses and the mock LLM's keyword rule looks for.
SPAM_KEYWORDS = ["free", "prize", "winner", "claim", "urgent"]


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus."""

    labels: tuple[str, ...]
    class_weights: tuple[float, ...]
    n_docs: int
    n_stems: int  # size of the shared Zipf lexicon
    topic_stems: int  # topical stems per class
    topic_share: float  # chance a content word is drawn from the class topic
    tokens: tuple[int, int]  # content words per document, inclusive range
    zipf_s: float = 1.05
    spam_label: str | None = None  # class that carries SPAM_KEYWORDS
    spam_keyword_p: tuple[float, float] = (0.0, 0.0)  # (in spam, elsewhere)


@dataclass
class Corpus:
    texts: list[str]
    labels: list[str]


def _lexicon(rng: random.Random, n: int) -> list[str]:
    """n distinct pseudo-word stems of two or three syllables."""
    seen: set[str] = set()
    words = []
    while len(words) < n:
        parts = [rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.choice((2, 2, 3)))]
        word = "".join(parts) + rng.choice(_CODAS)
        if word not in seen and word not in SPAM_KEYWORDS:
            seen.add(word)
            words.append(word)
    return words


def _zipf_cum(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(n)))


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    rng = random.Random(seed)
    n_topic = spec.topic_stems * len(spec.labels)
    words = _lexicon(rng, spec.n_stems + n_topic)
    shared, topical = words[: spec.n_stems], words[spec.n_stems :]
    # each stem appears with two to four of the suffix variants
    variants = {w: [w + sfx for sfx in rng.sample(SUFFIXES, rng.randint(2, 4))] for w in words}
    shared_cum = _zipf_cum(len(shared), spec.zipf_s)
    topic_cum = _zipf_cum(spec.topic_stems, spec.zipf_s)

    def zipf_pick(pool, cum, offset=0):
        i = bisect.bisect_left(cum, rng.random() * cum[-1])
        return pool[offset + min(i, len(cum) - 1)]

    # exact class and keyword quotas, so corpora of one spec differ only in
    # which words they hold, not in how hard they are
    classes = _quota(rng, spec.n_docs, spec.class_weights)
    has_kw = [False] * spec.n_docs
    for c, label in enumerate(spec.labels):
        members = [i for i, k in enumerate(classes) if k == c]
        p_kw = spec.spam_keyword_p[0] if label == spec.spam_label else spec.spam_keyword_p[1]
        for i in rng.sample(members, round(p_kw * len(members))):
            has_kw[i] = True
    texts, labels = [], []
    for c, kw in zip(classes, has_kw):
        label = spec.labels[c]
        out = []
        for _ in range(rng.randint(*spec.tokens)):
            if rng.random() < spec.topic_share:
                stem = zipf_pick(topical, topic_cum, c * spec.topic_stems)
            else:
                stem = zipf_pick(shared, shared_cum)
            word = rng.choice(variants[stem])
            r = rng.random()
            if r < 0.05:
                word = word.capitalize()
            elif r < 0.07:
                word = word.upper()
            out.append(word)
            r = rng.random()
            if r < 0.25:
                out.append(rng.choice(STOPWORDS))
            elif r < 0.33:
                out[-1] += rng.choice(PUNCT)
        if kw:
            out.insert(rng.randrange(len(out) + 1), rng.choice(SPAM_KEYWORDS).upper())
        _sprinkle(rng, out, words)
        texts.append(" ".join(out))
        labels.append(label)
    return Corpus(texts=texts, labels=labels)


def _quota(rng: random.Random, n: int, weights: tuple[float, ...]) -> list[int]:
    """Shuffled class indices with counts proportional to `weights`."""
    total = sum(weights)
    counts = [int(n * w / total) for w in weights]
    counts[0] += n - sum(counts)
    classes = [c for c, k in enumerate(counts) for _ in range(k)]
    rng.shuffle(classes)
    return classes


def _sprinkle(rng: random.Random, out: list[str], words: list[str]) -> None:
    """Add the noise the cleaning rules remove: urls, tags, mentions, digits."""
    extras = []
    if rng.random() < 0.2:
        extras.append(f"http://www.{rng.choice(words)}.com/{rng.choice(words)}?id={rng.randint(1, 999)}")
    if rng.random() < 0.2:
        extras.append("#" + rng.choice(words) + rng.choice(words))
    if rng.random() < 0.15:
        extras.append("@" + rng.choice(words))
    if rng.random() < 0.3:
        extras.append(str(rng.randint(1, 99999)))
    if rng.random() < 0.05:
        extras.append("<b>" + rng.choice(words) + "</b>")
    for extra in extras:
        out.insert(rng.randrange(len(out) + 1), extra)


def write_jsonl(corpus: Corpus, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for text, label in zip(corpus.texts, corpus.labels):
            fh.write(json.dumps({"text": text, "label": label}) + "\n")

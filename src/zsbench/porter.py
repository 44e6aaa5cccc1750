"""Porter suffix-stripping stemmer (the original 1980 algorithm).

Within each rule group only the longest matching suffix is tried; if its
condition fails, the group ends without rewriting. Words of length <= 2
are returned unchanged.

Each rule group is a suffix table keyed by suffix length, so the longest
match is found with one slice and one dict lookup per length, longest
first. The conditions read one consonant/vowel pattern of the word, a "c"
or "v" per character: `str.translate` classes every character but y, and a
left-to-right pass settles each y by its predecessor, only when the word
has one. The measure m of a stem is then its pattern's count of "vc".
"""

from __future__ import annotations


class _Classes(dict):
    """`str.translate` table: a, e, i, o, u -> "v"; y kept; any other character -> "c"."""

    def __missing__(self, code: int) -> str:
        return "c"


_CLASSES = _Classes({code: "c" for code in range(128)})
_CLASSES.update(str.maketrans("aeiouy", "vvvvvy"))


def _pattern(word: str) -> str:
    """One "c" (consonant) or "v" (vowel) per character of word."""
    pattern = word.translate(_CLASSES)
    if "y" not in pattern:
        return pattern
    classes = list(pattern)
    for i, cls in enumerate(classes):
        if cls == "y":
            # y is a vowel when preceded by a consonant
            classes[i] = "v" if i and classes[i - 1] == "c" else "c"
    return "".join(classes)


def _measure(stem: str) -> int:
    """Number of VC sequences in the [C](VC)^m[V] decomposition."""
    return _pattern(stem).count("vc")


def _ends_double_consonant(word: str, pattern: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and pattern[-1] == "c"


def _ends_cvc(word: str, pattern: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    return pattern[-3:] == "cvc" and word[-1] not in "wxy"


def _by_length(rules) -> tuple[tuple[int, dict[str, str]], ...]:
    """A rule group as ((n, {suffix: replacement}), ...), suffix length n descending."""
    table: dict[int, dict[str, str]] = {}
    for suffix, repl in rules:
        table.setdefault(len(suffix), {})[suffix] = repl
    return tuple(sorted(table.items(), reverse=True))


def _longest(word: str, table) -> tuple[int, str]:
    """(k, replacement) for the longest suffix word[k:] in the table; k is -1 if none."""
    for n, rules in table:
        suffix = word[-n:]
        if suffix in rules:
            return len(word) - n, rules[suffix]
    return -1, ""


_STEP1A = _by_length((("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")))
_STEP1B = _by_length((("eed", "ee"), ("ed", ""), ("ing", "")))

# (suffix, replacement) groups for steps 2 and 3; condition is m(stem) > 0.
_STEP2 = _by_length((
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
))

_STEP3 = _by_length((
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
))

_STEP4 = _by_length((suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
))


def _step1a(word: str) -> str:
    k, repl = _longest(word, _STEP1A)
    return word if k < 0 else word[:k] + repl


def _step1b(word: str) -> str:
    k, repl = _longest(word, _STEP1B)
    if k < 0:
        return word
    pattern = _pattern(word[:k])
    if word[k:] == "eed":
        return word[:k] + repl if pattern.count("vc") > 0 else word
    if "v" not in pattern:
        return word
    word = word[:k]
    # cleanup after removing -ed / -ing
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word, pattern) and word[-1] not in "lsz":
        return word[:-1]
    if pattern.count("vc") == 1 and _ends_cvc(word, pattern):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and "v" in _pattern(word[:-1]):
        return word[:-1] + "i"
    return word


def _apply_rules(word: str, table) -> str:
    k, repl = _longest(word, table)
    if k >= 0 and _measure(word[:k]) > 0:
        return word[:k] + repl
    return word


def _step4(word: str) -> str:
    k, _ = _longest(word, _STEP4)
    if k < 0:
        return word
    stem = word[:k]
    if _measure(stem) <= 1:
        return word
    if word[k:] == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        pattern = _pattern(stem)
        m = pattern.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, pattern)):
            return stem
    return word


def _step5b(word: str) -> str:
    # m > 1 and a double l, which is always a double consonant
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a single lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2)
    word = _apply_rules(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word

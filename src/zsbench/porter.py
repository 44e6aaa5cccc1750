"""Porter suffix-stripping stemmer (the original 1980 algorithm).

Within each rule group only the longest matching suffix is tried; if its
condition fails, the group ends without rewriting. Words of length <= 2
are returned unchanged.

Each rule group is a suffix table keyed by the last two letters of its
suffixes, each entry longest suffix first, so a word that ends in none of
a group's suffixes costs one slice and one dict miss. Steps 1a, 1b, 1c, 5a
and 5b are entered only when the word's last letter can match. The
conditions read one consonant/vowel pattern of the word, a "c" or "v" per
character: `str.translate` classes every character but y, and a
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


def _by_last2(rules) -> dict[str, tuple[tuple[str, int, str], ...]]:
    """A rule group as {last two letters: ((suffix, len(suffix), replacement), ...)},
    longest suffix first; every suffix has at least two letters."""
    table: dict[str, list[tuple[str, int, str]]] = {}
    for suffix, repl in rules:
        table.setdefault(suffix[-2:], []).append((suffix, len(suffix), repl))
    return {last2: tuple(sorted(group, key=lambda r: -r[1])) for last2, group in table.items()}


# (suffix, replacement) groups for steps 2 and 3; condition is m(stem) > 0.
_STEP2 = _by_last2((
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

_STEP3 = _by_last2((
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
))

_STEP4 = _by_last2((suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
))


def _step1a(word: str) -> str:
    """-sses -> -ss, -ies -> -i, -ss kept, -s dropped; word ends in s."""
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("ss"):
        return word
    return word[:-1]


def _step1b(word: str) -> str:
    """-eed -> -ee when m > 0; -ed and -ing dropped after a stem with a
    vowel, then tidied; word ends in d or g."""
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    if word.endswith("ed"):
        k = len(word) - 2
    elif word.endswith("ing"):
        k = len(word) - 3
    else:
        return word
    pattern = _pattern(word[:k])
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
    """-y -> -i after a stem with a vowel; word ends in y."""
    return word[:-1] + "i" if "v" in _pattern(word[:-1]) else word


def _apply_rules(word: str, table) -> str:
    """Steps 2 and 3: the longest suffix in the table is replaced when m > 0."""
    for suffix, n, repl in table.get(word[-2:], ()):
        if word.endswith(suffix):
            stem = word[:-n]
            return stem + repl if _measure(stem) > 0 else word
    return word


def _step4(word: str) -> str:
    """The longest suffix in the table is dropped when m > 1 (-ion only after s or t)."""
    for suffix, n, _ in _STEP4.get(word[-2:], ()):
        if word.endswith(suffix):
            stem = word[:-n]
            if _measure(stem) <= 1 or (suffix == "ion" and not stem.endswith(("s", "t"))):
                return word
            return stem
    return word


def _step5a(word: str) -> str:
    """-e dropped when m > 1, or m == 1 and the stem does not end cvc; word ends in e."""
    stem = word[:-1]
    pattern = _pattern(stem)
    m = pattern.count("vc")
    if m > 1 or (m == 1 and not _ends_cvc(stem, pattern)):
        return stem
    return word


def stem(word: str) -> str:
    """Stem a single lowercase word."""
    if len(word) <= 2:
        return word
    if word[-1] == "s":
        word = _step1a(word)
    if word[-1] in "dg":
        word = _step1b(word)
    if word[-1] == "y":
        word = _step1c(word)
    word = _apply_rules(word, _STEP2)
    word = _apply_rules(word, _STEP3)
    word = _step4(word)
    if word[-1] == "e":
        word = _step5a(word)
    # 5b: m > 1 and a double l, which is always a double consonant
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word

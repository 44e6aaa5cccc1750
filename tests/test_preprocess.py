from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

import clean_oracle
from zsbench.preprocess import (
    STOPWORDS,
    CleaningPolicy,
    clean_for_prompt,
    clean_text,
    normalize_tokens,
    preprocess_corpus,
)

FULL = CleaningPolicy(apply_stemming=False)
# every rule off: lowercase whitespace tokenization only
NO_RULES = CleaningPolicy(**{f: False for f in CleaningPolicy.__dataclass_fields__})

# tweet-like raw material: words, urls, tags, digits, punctuation
_fragments = st.one_of(
    st.text(alphabet="abcdefghijklm NOPQRST.!?,:;#@&%/0123456789'\"-_()<>", max_size=8),
    st.sampled_from(
        [
            "http://t.co/xyz",
            "HTTPS://Example.com/A1",
            "www.shop.example",
            "T.co/abc",
            "<b>",
            "</b>",
            "#tag",
            "@user",
            "  ",
        ]
    ),
)
tweet_text = st.lists(_fragments, max_size=12).map("".join)

any_policy = st.builds(
    CleaningPolicy,
    remove_urls=st.booleans(),
    remove_html_tags=st.booleans(),
    remove_digits=st.booleans(),
    remove_hashtags=st.booleans(),
    remove_mentions=st.booleans(),
    remove_punctuation=st.booleans(),
    remove_stopwords=st.booleans(),
    apply_stemming=st.booleans(),
)


class TestCleanText:
    def test_tweet_removal_order(self):
        text = "Woolies stopped all orders #coronavirus @user https://t.co/abc"
        assert clean_text(text, FULL) == "woolies stopped all orders"
        assert normalize_tokens(clean_text(text, FULL), FULL) == [
            "woolies",
            "stopped",
            "orders",
        ]

    def test_empty_input(self):
        assert clean_text("", FULL) == ""

    def test_html_and_digits_then_punctuation(self):
        policy = NO_RULES
        html_digits = CleaningPolicy(
            **{**policy.to_json_dict(), "remove_html_tags": True, "remove_digits": True}
        )
        assert clean_text("<b>Sale 50%</b>", html_digits) == "sale %"
        with_punct = CleaningPolicy(
            **{**html_digits.to_json_dict(), "remove_punctuation": True}
        )
        assert clean_text("<b>Sale 50%</b>", with_punct) == "sale"

    def test_always_lowercases(self):
        assert clean_text("HELLO World", NO_RULES) == "hello world"

    @settings(max_examples=300, deadline=None)
    @given(text=tweet_text, policy=any_policy)
    @example(text="0T.co/abc", policy=CleaningPolicy.tweet_cleaning())
    @example(text="<<b>>", policy=CleaningPolicy.tweet_cleaning())
    def test_idempotent(self, text, policy):
        once = clean_text(text, policy)
        assert clean_text(once, policy) == once

    @settings(max_examples=300, deadline=None)
    @given(text=tweet_text, policy=any_policy)
    def test_monotone_length(self, text, policy):
        assert len(clean_text(text, policy)) <= len(text)


class TestNormalizeTokens:
    def test_porter_stemming(self):
        policy = CleaningPolicy(remove_stopwords=False, apply_stemming=True)
        assert normalize_tokens("running quickly", policy) == ["run", "quickli"]

    def test_all_stopwords(self):
        assert normalize_tokens("the a an", FULL) == []

    def test_identity_tokenization(self):
        policy = NO_RULES
        assert normalize_tokens("spam spam ham", policy) == ["spam", "spam", "ham"]

    def test_stopword_list_shape(self):
        assert 150 <= len(STOPWORDS) <= 200
        assert {"the", "a", "an", "all"} <= STOPWORDS

    @settings(max_examples=200, deadline=None)
    @given(text=tweet_text)
    def test_policy_off_is_lowercase_whitespace_split(self, text):
        policy = NO_RULES
        assert normalize_tokens(clean_text(text, policy), policy) == text.lower().split()


class TestPreprocessCorpus:
    def test_order_and_ids_preserved(self):
        texts = ["win a prize", "see you soon", "win again"]
        tokens = preprocess_corpus(texts, FULL)
        assert tokens == [normalize_tokens(clean_text(t, FULL), FULL) for t in texts]
        assert tokens == [["win", "prize"], ["see", "soon"], ["win"]]

    def test_url_only_doc_counted_empty(self):
        tokens = preprocess_corpus(["https://t.co/abc", "free prize"], FULL)
        assert tokens == [[], ["free", "prize"]]

    def test_clean_for_prompt(self):
        policy = CleaningPolicy.tweet_cleaning()
        out = clean_for_prompt("Check THIS out! https://t.co/x #wow", policy)
        assert out == "check out!"


# every CleaningPolicy: all 2**8 flag combinations
EVERY_POLICY = [
    CleaningPolicy(**dict(zip(CleaningPolicy.__dataclass_fields__, flags)))
    for flags in itertools.product((False, True), repeat=len(CleaningPolicy.__dataclass_fields__))
]

# what each guard and the single split rest on: the rules' trigger
# substrings in both cases, the separators \x1c-\x1f and Unicode spaces that
# regex \s and str.split must treat alike, and characters whose case
# mapping is irregular (long s, dotted capital I, Kelvin sign, sigma)
_oracle_fragments = st.one_of(
    st.text(
        alphabet="abcHTPSWeiksy xX09<>@#/.:_-'!\t\n\x1c\x1d\x1e\x1f\u00a0\u2028\u3000"
        "\u017f\u0130\u212a\u03a3",
        max_size=8,
    ),
    st.sampled_from(
        ["http", "HTTP", "hTtPs://", "https://", "www.", "WWW.", "t.co/", "T.CO/",
         "\u017ft.co/", "http\u017f://", "<", ">", "<b>", "@", "#", "7", "\u0660",
         # digits and punctuation outside ASCII: Devanagari zero, a mathematical
         # double-struck one, superscript two (no decimal digit), em dash, fullwidth !
         "\u0966", "\U0001d7d9", "\u00b2", "\u2014", "\uff01"]
    ),
)
oracle_text = st.lists(_oracle_fragments, max_size=10).map("".join)


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(oracle_text, min_size=1, max_size=3))
    @example(texts=["HTTPS://x.co <<b>> @me #tag 42 ab\x1ccd\u3000Kelvin\u212a \u0130stanbul"])
    @example(texts=["httpſ://x y", "0T.co/abc", "ΑΣ ΑΣ\u2028Σ"])
    def test_matches_the_unguarded_oracle_under_every_policy(self, texts):
        for policy in EVERY_POLICY:
            for text in texts:
                assert clean_text(text, policy) == clean_oracle.clean_text(text, policy)
            assert preprocess_corpus(texts, policy) == clean_oracle.preprocess_corpus(texts, policy)

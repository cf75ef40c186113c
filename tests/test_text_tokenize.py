"""Tokenization, normalization, sentence splitting, shingling."""

import re
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from repro.text import analyze, normalize, sentences, tokenize, tokenize_with_spans
from repro.text.tokenize import shingle


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Tom JENKINS") == "tom jenkins"

    def test_strips_accents(self):
        assert normalize("Café Renée") == "cafe renee"

    def test_collapses_whitespace(self):
        assert normalize("  a \t b\n c ") == "a b c"

    def test_empty(self):
        assert normalize("") == ""

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


def _normalize_oracle(text):
    """``normalize`` as it was before its ASCII fast path: always NFKD."""
    text = unicodedata.normalize("NFKD", text)
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    return re.sub(r"\s+", " ", text.lower()).strip()


#: ASCII control and separator characters ``\s`` matches, and non-ASCII
#: spaces (NEL, no-break space) that NFKD or ``\s`` treat specially
_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0"


class TestNormalizeMatchesUnicodeFolding:
    @given(st.text(max_size=120))
    @example("  Caf\u00e9\tRen\u00e9e ")
    @example("\ufb01 \u2460 \uff21 \u212b")  # compatibility forms
    def test_arbitrary_text(self, text):
        assert normalize(text) == _normalize_oracle(text)

    @given(st.text(alphabet=st.sampled_from("aZ9.,'" + _SPACES), max_size=60))
    @example("a\x0bb\x0cc\x1cd\x1de\x1ef\x1fg")
    @example("\x85a\xa0b\x85")
    def test_spaces_and_controls(self, text):
        assert normalize(text) == _normalize_oracle(text)

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=120))
    def test_ascii(self, text):
        assert normalize(text) == _normalize_oracle(text)


class TestTokenize:
    def test_words_and_numbers(self):
        assert tokenize("Meagan Good, 1,234 votes (51.2%)") == [
            "meagan", "good", "1,234", "votes", "51.2",
        ]

    def test_negative_number(self):
        assert "-3.5" in tokenize("temperature -3.5 degrees")

    def test_apostrophe_names(self):
        # one inner apostrophe is kept; a trailing possessive splits off
        assert tokenize("o'brien wrote") == ["o'brien", "wrote"]
        assert tokenize("o'brien's book") == ["o'brien", "s", "book"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("... --- !!!") == []

    @given(st.text(max_size=80))
    def test_tokens_never_empty(self, text):
        assert all(token for token in tokenize(text))

    @given(st.text(max_size=80))
    def test_tokens_present_in_normalized_text(self, text):
        normalized = normalize(text)
        for token in tokenize(text):
            assert token in normalized


class TestTokenizeWithSpans:
    def test_spans_index_normalized_text(self):
        text = "Tom Jenkins 1950"
        normalized = normalize(text)
        for token in tokenize_with_spans(text):
            assert normalized[token.start:token.end] == token.text

    def test_matches_plain_tokenize(self):
        text = "ohio 1 district, 102,000 votes"
        assert [t.text for t in tokenize_with_spans(text)] == tokenize(text)


class TestAnalyze:
    def test_removes_stopwords(self):
        assert "the" not in analyze("the quick fox")

    def test_stems_plurals(self):
        assert "election" in analyze("elections")

    def test_keeps_numbers_verbatim(self):
        assert "1,234" in analyze("1,234 votes")

    def test_options_disable(self):
        tokens = analyze("the elections", remove_stopwords=False, stemming=False)
        assert tokens == ["the", "elections"]


class TestSentences:
    def test_splits_on_period(self):
        parts = sentences("First sentence. Second one. Third here.")
        assert len(parts) == 3

    def test_keeps_abbrev_numbers_together(self):
        parts = sentences("He won 51.2 percent. She lost.")
        assert len(parts) == 2

    def test_empty(self):
        assert sentences("") == []

    def test_single_sentence_no_terminal(self):
        assert sentences("no terminal punctuation") == [
            "no terminal punctuation"
        ]


class TestShingle:
    def test_basic(self):
        assert shingle(["a", "b", "c"], 2) == ["a b", "b c"]

    def test_short_input(self):
        assert shingle(["a"], 3) == ["a"]

    def test_empty(self):
        assert shingle([], 2) == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            shingle(["a"], 0)

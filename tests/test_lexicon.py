import re

import pytest
from hypothesis import given, strategies as st

from cnlsearch.lexicon import (DEFAULT_LEXICON_TEXT, LexiconError, TOKEN_CLASSES,
                               WORD_CLASSES, Token, default_lexicon, detokenize,
                               load_lexicon, tokenize)


def classes_of(ts):
    return [(t.cls, t.lexeme) for t in ts.tokens if t.cls != "WS"]


class TestLoadLexicon:
    def test_default_entries(self, lex):
        expected = {
            "i": "A", "we": "B", "they": "B", "he": "C", "she": "C",
            "am": "F", "are": "G", "is": "H",
            "looking for": "I", "searching for": "I",
            "need": "D", "want": "D", "needs": "E", "wants": "E",
        }
        for lexeme, tag in expected.items():
            assert lex.class_of(lexeme) == tag

    def test_empty_file(self):
        empty = load_lexicon("")
        assert len(empty) == 0
        assert empty.max_phrase_len == 0

    def test_duplicate_lexeme_is_error(self):
        with pytest.raises(LexiconError, match="duplicate.*need"):
            load_lexicon("need\tD\nneed\tJ\n")

    def test_unknown_class_tag_is_error(self):
        with pytest.raises(LexiconError, match="unknown class"):
            load_lexicon("need\tZ\n")

    def test_empty_lexeme_is_error(self):
        with pytest.raises(LexiconError, match="empty lexeme"):
            load_lexicon("\tD\n")

    def test_max_phrase_len(self, lex):
        assert lex.max_phrase_len == 2

    def test_exactly_fifteen_token_classes(self):
        assert len(TOKEN_CLASSES) == 15
        assert len(set(TOKEN_CLASSES)) == 15


class TestTokenize:
    def test_looking_for_statement(self, lex):
        ts = tokenize("I am looking for bolt", lex)
        assert classes_of(ts) == [
            ("A", "I"), ("F", "am"), ("I", "looking for"),
            ("UNKNOWN", "bolt"), ("END_OF_INPUT", ""),
        ]

    def test_empty_line(self, lex):
        ts = tokenize("", lex)
        assert [t.cls for t in ts.tokens] == ["END_OF_INPUT"]

    def test_punctuation_and_part_number(self, lex):
        ts = tokenize("She needs bolt M8.", lex)
        assert classes_of(ts) == [
            ("C", "She"), ("E", "needs"), ("UNKNOWN", "bolt"),
            ("UNKNOWN", "M8"), ("PUNCT", "."), ("END_OF_INPUT", ""),
        ]

    def test_longest_match_wins(self, lex):
        ts = tokenize("searching for pump", lex)
        assert classes_of(ts)[0] == ("I", "searching for")

    def test_phrase_with_internal_runs_of_spaces(self, lex):
        line = "He   is   searching for pump"
        assert detokenize(tokenize(line, lex)) == line

    def test_class_soundness(self, lex):
        ts = tokenize("I want bolt, she wants washer", lex)
        for tok in ts.tokens:
            if tok.cls in WORD_CLASSES:
                assert lex.class_of(tok.normalized) == tok.cls

    def test_spans_strictly_increasing(self, lex):
        ts = tokenize("We are looking for pump seals!", lex)
        spans = [t.span for t in ts.tokens]
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert a1 <= b1 <= a2 <= b2

    def test_single_end_of_input(self, lex):
        ts = tokenize("find bolt", lex)
        assert sum(t.cls == "END_OF_INPUT" for t in ts.tokens) == 1
        assert ts.tokens[-1].cls == "END_OF_INPUT"

    def test_newline_rejected(self, lex):
        with pytest.raises(ValueError):
            tokenize("find\nbolt", lex)


class TestRoundTrip:
    @pytest.mark.parametrize("line", [
        "I need bolt",
        "",
        "He   is   searching for pump",
        "bolt  M8 , washer ;; ???",
        "   leading and trailing   ",
        "weird @@ $% characters &*()",
    ])
    def test_examples(self, lex, line):
        assert detokenize(tokenize(line, lex)) == line

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=80))
    def test_printable_ascii(self, line):
        lex = default_lexicon()
        assert detokenize(tokenize(line, lex)) == line

    @given(st.text(alphabet=st.characters(blacklist_characters="\n\r"),
                   max_size=60))
    def test_arbitrary_unicode(self, line):
        lex = default_lexicon()
        assert detokenize(tokenize(line, lex)) == line


def test_default_text_loads_cleanly():
    assert len(load_lexicon(DEFAULT_LEXICON_TEXT)) >= 14


# Frozen reference: the character-by-character tokenizer that the single
# regex scan replaced.  It shares no code with cnlsearch.lexicon.
_REF_PUNCT = frozenset(".,?!;:")
_REF_WORD = re.compile(r"[A-Za-z0-9_-]+")


def _ref_words_from(line, start, limit):
    spans = []
    pos = start
    while len(spans) < limit:
        m = _REF_WORD.match(line, pos)
        if m is None:
            break
        spans.append((m.start(), m.end()))
        pos = m.end()
        while pos < len(line) and line[pos].isspace():
            pos += 1
        if pos == m.end():
            break
    return spans


def reference_tokenize(line, lex):
    tokens = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            j = i
            while j < n and line[j].isspace():
                j += 1
            tokens.append(Token(line[i:j], line[i:j], "WS", (i, j)))
            i = j
        elif ch in _REF_PUNCT:
            tokens.append(Token(ch, ch, "PUNCT", (i, i + 1)))
            i += 1
        elif _REF_WORD.match(line, i):
            word_spans = _ref_words_from(line, i, lex.max_phrase_len or 1)
            for k in range(len(word_spans), 0, -1):
                phrase = " ".join(line[a:b].lower() for a, b in word_spans[:k])
                tag = lex.class_of(phrase)
                if tag is not None:
                    end = word_spans[k - 1][1]
                    tokens.append(Token(line[i:end], phrase, tag, (i, end)))
                    i = end
                    break
            else:
                end = word_spans[0][1]
                tokens.append(Token(line[i:end], line[i:end].lower(), "UNKNOWN", (i, end)))
                i = end
        else:
            j = i
            while j < n and not (line[j].isspace() or line[j] in _REF_PUNCT
                                 or _REF_WORD.match(line, j)):
                j += 1
            tokens.append(Token(line[i:j], line[i:j].lower(), "UNKNOWN", (i, j)))
            i = j
    tokens.append(Token("", "", "END_OF_INPUT", (n, n)))
    return tokens


# a lexicon with three-word phrases whose prefixes are entries too, so a
# scan that stops at a shorter phrase than the longest one gives other tokens
DEEP_LEXICON_TEXT = "look\tJ\nlook for\tD\nlook for it\tI\nfor it all\tI\ni\tA\n"

WHITESPACE = [" ", "  ", "\t", "\x1c", "\u3000", "\x0b", "\x85", " \t"]


@st.composite
def split_phrase(draw):
    """A lexicon phrase with a whitespace run of its own in each gap."""
    first, *rest = draw(st.sampled_from([
        "look for", "look for it", "for it all", "search for", "searching for",
        "LOOKING FOR", "Looks for", "look for it all"])).split(" ")
    return first + "".join(draw(st.sampled_from(WHITESPACE)) + w for w in rest)


# split lexicon phrases, lexicon words, whitespace, punctuation, ASCII
# and non-ASCII letters, and symbols
TOKENIZER_PIECES = st.one_of(split_phrase(), st.sampled_from([
    "I", "he", "She", "need", "NEEDS", "look", "for", "search", "it", "bolt",
    "M8x20", "m_8", "-", "_", *WHITESPACE, "\u2028",
    ".", ",", "?", "!", ";", ":", "é", "ß", "İ", "Ω", "@", "$%", "\x00", "'",
]))


class TestTokenizeMatchesReference:
    @given(pieces=st.lists(TOKENIZER_PIECES, max_size=16),
           deep=st.booleans())
    def test_token_for_token(self, pieces, deep):
        lex = load_lexicon(DEEP_LEXICON_TEXT) if deep else default_lexicon()
        line = "".join(pieces)
        assert list(tokenize(line, lex).tokens) == reference_tokenize(line, lex)

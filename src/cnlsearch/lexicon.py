"""Closed-class word dictionary and dictionary-driven tokenization.

The lexicon assigns each known word or phrase to one of the word classes
A through J.  Everything else is open-class keyword material (UNKNOWN).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

WORD_CLASSES = ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J")

# The full token-class inventory: ten closed classes plus the open class,
# whitespace, punctuation, newline and the end-of-input sentinel.
TOKEN_CLASSES = WORD_CLASSES + ("UNKNOWN", "WS", "PUNCT", "NEWLINE", "END_OF_INPUT")

PUNCT_CHARS = frozenset(".,?!;:")

# A word is a maximal run of letters, digits, hyphens or underscores, so
# part numbers like "M8" or "M8x20" stay single tokens.
_WORD_RE = re.compile(r"[A-Za-z0-9_-]+")

DEFAULT_LEXICON_TEXT = """\
# default closed-class lexicon: <lexeme><TAB><class>
# pronouns
i\tA
we\tB
they\tB
he\tC
she\tC
# verbs, base form
need\tD
want\tD
look for\tD
search for\tD
# verbs, third person singular
needs\tE
wants\tE
looks for\tE
searches for\tE
# auxiliaries
am\tF
are\tG
is\tH
# present participles
looking for\tI
searching for\tI
# imperatives
find\tJ
search\tJ
show\tJ
get\tJ
"""


class LexiconError(ValueError):
    """Raised when a lexicon file cannot be loaded."""


@dataclass(frozen=True)
class Token:
    lexeme: str
    normalized: str
    cls: str
    span: tuple[int, int]


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[Token, ...]
    source: str


class Lexicon:
    """Immutable lexeme -> word-class map with the longest phrase length."""

    def __init__(self, entries: dict[str, str]):
        self.entries = dict(entries)
        self.max_phrase_len = max(
            (len(k.split(" ")) for k in self.entries), default=0
        )

    def __len__(self) -> int:
        return len(self.entries)

    def class_of(self, lexeme: str) -> str | None:
        return self.entries.get(lexeme)


def load_lexicon(source: str) -> Lexicon:
    """Parse lexicon file text into a Lexicon.

    One entry per line, ``<lexeme><TAB><class>``; ``#`` starts a comment
    line; blank lines are ignored.  Duplicate lexemes, unknown class tags
    and empty lexemes are load errors.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise LexiconError(f"line {lineno}: expected <lexeme><TAB><class>")
        lexeme, _, tag = line.partition("\t")
        lexeme = " ".join(lexeme.lower().split())
        tag = tag.strip()
        if not lexeme:
            raise LexiconError(f"line {lineno}: empty lexeme")
        if tag not in WORD_CLASSES:
            raise LexiconError(f"line {lineno}: unknown class tag {tag!r}")
        if lexeme in entries:
            raise LexiconError(f"line {lineno}: duplicate lexeme {lexeme!r}")
        entries[lexeme] = tag
    return Lexicon(entries)


def default_lexicon() -> Lexicon:
    return load_lexicon(DEFAULT_LEXICON_TEXT)


def _words_from(line: str, start: int, limit: int) -> list[tuple[int, int]]:
    # Spans of up to `limit` consecutive words from `start`, where only
    # whitespace may separate them (a phrase never crosses punctuation).
    spans: list[tuple[int, int]] = []
    pos = start
    while len(spans) < limit:
        m = _WORD_RE.match(line, pos)
        if m is None:
            break
        spans.append((m.start(), m.end()))
        pos = m.end()
        while pos < len(line) and line[pos].isspace():
            pos += 1
        if pos == m.end():  # next char is not whitespace: phrase ends
            break
    return spans


def tokenize(line: str, lex: Lexicon) -> TokenStream:
    """Split one statement line into classed tokens, longest match first.

    At each word position the longest lexicon phrase (case-insensitive,
    up to the lexicon's max phrase length) wins; unmatched words become
    UNKNOWN.  Whitespace runs are WS tokens and ``. , ? ! ; :`` are PUNCT
    tokens, so every input character lands in exactly one token span.
    """
    if "\n" in line or "\r" in line:
        raise ValueError("statement line must not contain newlines")
    tokens: list[Token] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            j = i
            while j < n and line[j].isspace():
                j += 1
            tokens.append(Token(line[i:j], line[i:j], "WS", (i, j)))
            i = j
        elif ch in PUNCT_CHARS:
            tokens.append(Token(ch, ch, "PUNCT", (i, i + 1)))
            i += 1
        elif _WORD_RE.match(line, i):
            word_spans = _words_from(line, i, lex.max_phrase_len or 1)
            matched = False
            for k in range(len(word_spans), 0, -1):
                phrase = " ".join(
                    line[a:b].lower() for a, b in word_spans[:k]
                )
                tag = lex.class_of(phrase)
                if tag is not None:
                    end = word_spans[k - 1][1]
                    tokens.append(Token(line[i:end], phrase, tag, (i, end)))
                    i = end
                    matched = True
                    break
            if not matched:
                end = word_spans[0][1]
                tokens.append(
                    Token(line[i:end], line[i:end].lower(), "UNKNOWN", (i, end))
                )
                i = end
        else:
            # run of characters outside word/whitespace/punctuation classes
            j = i
            while j < n and not (
                line[j].isspace()
                or line[j] in PUNCT_CHARS
                or _WORD_RE.match(line, j)
            ):
                j += 1
            tokens.append(Token(line[i:j], line[i:j].lower(), "UNKNOWN", (i, j)))
            i = j
    tokens.append(Token("", "", "END_OF_INPUT", (n, n)))
    return TokenStream(tuple(tokens), line)


def detokenize(ts: TokenStream) -> str:
    """Rebuild the original line from token spans, byte for byte."""
    return "".join(ts.source[a:b] for t in ts.tokens for a, b in [t.span])

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

# A word is a maximal run of letters, digits, hyphens or underscores, so
# part numbers like "M8" or "M8x20" stay single tokens.
_WORD_CHARS = "A-Za-z0-9_-"
_WORD_RE = re.compile(f"[{_WORD_CHARS}]+")

# A line splits into pieces: whitespace runs, single punctuation marks,
# words, and runs of any other characters.  The four alternatives cover
# every character, so the pieces tile the line.
_PIECE_RE = re.compile(
    rf"(?P<WS>\s+)|(?P<PUNCT>[.,?!;:])|(?P<WORD>[{_WORD_CHARS}]+)"
    rf"|(?P<UNKNOWN>[^\s.,?!;:{_WORD_CHARS}]+)"
)

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


def tokenize(line: str, lex: Lexicon) -> TokenStream:
    """Split one statement line into classed tokens, longest match first.

    At each word the longest lexicon phrase (case-insensitive, words
    separated by one whitespace run, up to the lexicon's max phrase
    length) wins; unmatched words become UNKNOWN.  Whitespace runs are WS
    tokens and ``. , ? ! ; :`` are PUNCT tokens, so every input character
    lands in exactly one token span.
    """
    if "\n" in line or "\r" in line:
        raise ValueError("statement line must not contain newlines")
    pieces = [(m.lastgroup, m.start(), m.end()) for m in _PIECE_RE.finditer(line)]
    limit = lex.max_phrase_len or 1
    tokens: list[Token] = []
    p = 0
    while p < len(pieces):
        kind, start, end = pieces[p]
        if kind != "WORD":
            text = line[start:end]
            tokens.append(Token(text, text.lower(), kind, (start, end)))
            p += 1
            continue
        words = [line[start:end].lower()]
        ends = [end]
        q = p + 2
        while (len(words) < limit and q < len(pieces)
               and pieces[q - 1][0] == "WS" and pieces[q][0] == "WORD"):
            words.append(line[pieces[q][1]:pieces[q][2]].lower())
            ends.append(pieces[q][2])
            q += 2
        for k in range(len(words), 0, -1):
            phrase = " ".join(words[:k])
            tag = lex.class_of(phrase)
            if tag is not None or k == 1:
                break
        end = ends[k - 1]
        tokens.append(Token(line[start:end], phrase, tag or "UNKNOWN", (start, end)))
        p += 2 * k - 1
    tokens.append(Token("", "", "END_OF_INPUT", (len(line), len(line))))
    return TokenStream(tuple(tokens), line)


def detokenize(ts: TokenStream) -> str:
    """Rebuild the original line from token spans, byte for byte."""
    return "".join(ts.source[a:b] for t in ts.tokens for a, b in [t.span])

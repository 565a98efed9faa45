"""Natural-language responses: echo the statement in its own grammatical
frame, list the retrieved products, and present everything in order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import IO

from .grammar import StatementAst
from .store import ProductRecord, ResultSet


@dataclass(frozen=True)
class ResponseFrame:
    echo: str
    results: ResultSet


class AnswerLines(dict):
    """record id -> the record's line in a text answer, built the first
    time the record is shown and kept for every later answer."""

    def __init__(self, records: dict[int, ProductRecord]):
        super().__init__()
        self.records = records

    def __missing__(self, record_id: int) -> str:
        r = self.records[record_id]
        line = self[record_id] = f"- [{record_id}] {r.name} — {r.category}\n"
        return line


def build_echo(ast: StatementAst) -> str:
    """Deterministic restatement: subject capitalized, classes joined by
    single spaces, keyword lowercased, punctuation dropped.
    """
    parts = []
    if ast.subject is not None:
        word = ast.subject.normalized
        parts.append(word[0].upper() + word[1:])
    if ast.auxiliary is not None:
        parts.append(ast.auxiliary.normalized)
    if ast.verb is not None:
        parts.append(ast.verb.normalized)
    parts.extend(t.normalized for t in ast.keyword_phrase)
    return " ".join(parts)


def prioritize(frames: list[ResponseFrame]) -> list[ResponseFrame]:
    """Statements with results come first; ties keep original order."""
    return sorted(frames, key=lambda f: 0 if f.results.items else 1)


def reconstruct(frame: ResponseFrame, lines: Mapping[int, str]) -> str:
    """Fixed response template, LF line endings, trailing newline; ``lines``
    maps a record id to its product line (an ``AnswerLines``)."""
    ids = frame.results.items
    n = len(ids)
    if n == 0:
        return f"Query: {frame.echo}\nResults (0):\n- no matching products\n"
    partial = ", partial match" if frame.results.matched == "OR" else ""
    return (f"Query: {frame.echo}\nResults ({n}{partial}):\n"
            + "".join(map(lines.__getitem__, ids)))


def present(texts: list[str], sink: IO[str]) -> None:
    """Write responses in order, separated by one blank line."""
    sink.write("\n".join(texts))

"""Natural-language responses: echo the statement in its own grammatical
frame, list the retrieved products, and present everything in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

from .grammar import StatementAst
from .store import ResultSet


@dataclass(frozen=True)
class ResponseFrame:
    echo: str
    results: ResultSet


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


def reconstruct(frame: ResponseFrame) -> str:
    """Fixed response template, LF line endings, trailing newline."""
    n = len(frame.results.items)
    if frame.results.matched == "OR" and n > 0:
        header = f"Results ({n}, partial match):"
    else:
        header = f"Results ({n}):"
    lines = [f"Query: {frame.echo}", header]
    if n == 0:
        lines.append("- no matching products")
    else:
        lines.extend(
            f"- [{item.record_id}] {item.name} — {item.category}"
            for item in frame.results.items
        )
    return "".join(line + "\n" for line in lines)


def present(texts: list[str], sink: IO[str]) -> None:
    """Write responses in order, separated by one blank line."""
    sink.write("\n".join(texts))

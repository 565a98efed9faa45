"""Structured queries derived from the semantic model, plus their
deterministic SQL rendering for display and logging.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .semantics import SemanticModel

_LIKE_SPECIAL = re.compile(r"[\\%_]")


@dataclass(frozen=True)
class StructuredQuery:
    statement_id: int
    terms: tuple[str, ...]
    predicate: str


def generate_query(model: SemanticModel) -> list[StructuredQuery]:
    """One query per statement, terms deduplicated in first-occurrence order."""
    queries = []
    for stmt in model.statements:
        terms = list(dict.fromkeys(stmt.triple.object.split()))
        queries.append(
            StructuredQuery(stmt.statement_id, tuple(terms), stmt.triple.predicate)
        )
    return queries


def _like(term: str) -> str:
    """``keywords`` contains term: a LIKE pattern whose wildcards and
    backslashes in the term are escaped, quotes doubled. Only a pattern
    that escapes something gets an ESCAPE clause."""
    pattern = _LIKE_SPECIAL.sub(r"\\\g<0>", term)
    clause = "keywords LIKE '%{}%'".format(pattern.replace("'", "''"))
    return clause if pattern == term else clause + " ESCAPE '\\'"


def render_sql(q: StructuredQuery) -> str:
    """Byte-exact SQL text that selects what the AND pass of
    ``store.execute`` finds."""
    preds = " AND ".join(map(_like, q.terms))
    return f"SELECT id, name, category FROM products WHERE {preds} ORDER BY id;"

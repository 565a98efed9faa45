"""Structured queries derived from the semantic model, plus their
deterministic SQL rendering for display and logging.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import SemanticModel


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


def render_sql(q: StructuredQuery) -> str:
    """Byte-exact SQL text; single quotes inside terms are doubled."""
    preds = " AND ".join(
        "keywords LIKE '%{}%'".format(term.replace("'", "''")) for term in q.terms
    )
    return f"SELECT id, name, category FROM products WHERE {preds} ORDER BY id;"

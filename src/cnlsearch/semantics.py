"""Semantic model: one subject/predicate/object triple per statement,
cross-statement relation links, and a flat TSV triple export.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .grammar import StatementAst

# third-person-singular verb forms map to their base form so each verb
# lemma contributes a single predicate
CANONICAL_PREDICATE = {
    "needs": "need",
    "wants": "want",
    "looks for": "look for",
    "searches for": "search for",
}


@dataclass(frozen=True)
class Triple:
    subject: str  # "-" when the statement has no subject
    predicate: str
    object: str


@dataclass(frozen=True)
class Statement:
    statement_id: int
    triple: Triple


@dataclass(frozen=True)
class RelationLink:
    from_id: int
    to_id: int
    shared_terms: frozenset[str]


@dataclass(frozen=True)
class SemanticModel:
    statements: tuple[Statement, ...]
    relations: tuple[RelationLink, ...]


def canonical_predicate(verb: str) -> str:
    return CANONICAL_PREDICATE.get(verb, verb)


def build_model(asts: list[StatementAst]) -> SemanticModel:
    """One triple per accepted statement, ids consecutive from 1."""
    statements = []
    for i, ast in enumerate(asts, start=1):
        subject = ast.subject.normalized if ast.subject is not None else "-"
        if ast.verb is not None:
            predicate = canonical_predicate(ast.verb.normalized)
        else:
            predicate = "unknown"
        obj = " ".join(t.normalized for t in ast.keyword_phrase)
        statements.append(Statement(i, Triple(subject, predicate, obj)))
    return SemanticModel(tuple(statements), ())


def resolve(model: SemanticModel) -> SemanticModel:
    """Link every statement pair whose objects share at least one word,
    ordered by (from, to). Only statements that hold one of a statement's
    words are visited, so the cost follows the links, not the pairs."""
    stmts = model.statements
    words = [set(s.triple.object.split()) for s in stmts]
    holders: dict[str, list[int]] = {}  # word -> positions of the statements holding it
    for pos, stmt_words in enumerate(words):
        for word in stmt_words:
            holders.setdefault(word, []).append(pos)
    relations = []
    for a, words_a in enumerate(words):
        later = sorted({b for word in words_a for b in holders[word] if b > a})
        relations.extend(
            RelationLink(stmts[a].statement_id, stmts[b].statement_id,
                         frozenset(words_a & words[b]))
            for b in later
        )
    return replace(model, relations=tuple(relations))


def export_triples(model: SemanticModel) -> str:
    """Flat TSV: statement triples in id order, then relation links."""
    lines = [
        f"{s.statement_id}\t{s.triple.subject}\t{s.triple.predicate}\t{s.triple.object}"
        for s in model.statements
    ]
    for rel in model.relations:
        terms = ",".join(sorted(rel.shared_terms))
        lines.append(f"{rel.from_id}\trelated_to\t{rel.to_id}\t{terms}")
    return "".join(line + "\n" for line in lines)

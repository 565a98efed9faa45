"""Embedded product catalog: CSV ingestion, inverted keyword index,
query execution with AND-then-OR fallback, and a TSV query log.
"""

from __future__ import annotations

import csv
import re
from bisect import insort
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

from .lexicon import _WORD_RE
from .queries import StructuredQuery

CATALOG_HEADER = ["id", "name", "category", "description", "attributes"]

# name and category are printed one record per line, so a control
# character there (a tab or a newline) would split an output row
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")


class CatalogError(ValueError):
    """Raised when a catalog file cannot be ingested."""


@dataclass(frozen=True)
class ProductRecord:
    id: int
    name: str
    category: str
    description: str
    attributes: tuple[tuple[str, str], ...]


class Catalog:
    def __init__(self):
        self.records: dict[int, ProductRecord] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self.records

    def __getitem__(self, record_id: int) -> ProductRecord:
        return self.records[record_id]


def _trigrams(text: str) -> set[str]:
    return {text[i:i + 3] for i in range(len(text) - 2)}


class InvertedIndex:
    """term -> ascending, duplicate-free posting list of record ids, and
    trigram -> the terms containing it, which narrows substring lookup."""

    def __init__(self):
        self.postings: dict[str, list[int]] = {}
        self.grams: dict[str, list[str]] = {}

    def post(self, term: str, record_id: int) -> None:
        ids = self.postings.get(term)
        if ids is None:
            self.postings[term] = [record_id]
            for gram in _trigrams(term):
                self.grams.setdefault(gram, []).append(term)
        elif record_id > ids[-1]:  # ingest order
            ids.append(record_id)
        else:  # ids are unique and a record posts each term once
            insort(ids, record_id)

    def ids_matching(self, term: str) -> set[int]:
        # substring semantics, mirroring the LIKE '%term%' rendering. A key
        # containing the term contains each of its trigrams, so the rarest
        # trigram's key list holds every match; an absent trigram gives ().
        # Terms of 1-2 characters have no trigram and scan the vocabulary.
        if len(term) < 3:
            keys = self.postings
        else:
            keys = min((self.grams.get(g, ()) for g in _trigrams(term)), key=len)
        out: set[int] = set()
        for key in keys:
            if term in key:
                out.update(self.postings[key])
        return out


class ResultItem(NamedTuple):
    record_id: int
    name: str
    category: str
    score: int


@dataclass(frozen=True)
class ResultSet:
    items: tuple[ResultItem, ...]
    query: StructuredQuery
    matched: str  # AND | OR


def index_terms(record: ProductRecord) -> set[str]:
    """Lowercased words from name, category, description and attribute values."""
    text_fields = [record.name, record.category, record.description]
    text_fields.extend(value for _, value in record.attributes)
    terms: set[str] = set()
    for text in text_fields:
        terms.update(m.group(0).lower() for m in _WORD_RE.finditer(text))
    return terms


def _lines(source: str):
    """The newline-terminated lines ``io.StringIO(source)`` would yield,
    without the copy of the whole text it makes."""
    start = 0
    while start < len(source):
        end = source.find("\n", start) + 1 or len(source)
        yield source[start:end]
        start = end


def _rows(source: str):
    """CSV rows of the source; malformed CSV is a CatalogError."""
    reader = csv.reader(_lines(source))
    try:
        yield from reader
    except csv.Error as exc:
        raise CatalogError(f"line {reader.line_num}: {exc}") from None


def ingest_catalog(source: str) -> tuple[Catalog, InvertedIndex]:
    """Load catalog CSV text and build the inverted index."""
    rows = _rows(source)
    header = next(rows, None)
    if header is None:
        raise CatalogError("empty catalog file (missing header)")
    if header != CATALOG_HEADER:
        raise CatalogError(f"bad header {header!r}, expected {CATALOG_HEADER!r}")
    catalog = Catalog()
    index = InvertedIndex()
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(CATALOG_HEADER):
            raise CatalogError(f"line {lineno}: expected {len(CATALOG_HEADER)} columns")
        raw_id, name, category, description, attrs_field = row
        try:
            record_id = int(raw_id)
        except ValueError:
            raise CatalogError(f"line {lineno}: non-integer id {raw_id!r}")
        if record_id <= 0:
            raise CatalogError(f"line {lineno}: id must be positive")
        if not name:
            raise CatalogError(f"line {lineno}: empty name")
        if _CONTROL_RE.search(name) or _CONTROL_RE.search(category):
            raise CatalogError(f"line {lineno}: control character in name or category")
        attributes = []
        if attrs_field:
            for pair in attrs_field.split("|"):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise CatalogError(f"line {lineno}: bad attribute {pair!r}")
                attributes.append((key, value))
        if record_id in catalog:
            raise CatalogError(f"line {lineno}: duplicate record id {record_id}")
        record = ProductRecord(record_id, name, category, description,
                               tuple(attributes))
        catalog.records[record_id] = record
        for term in index_terms(record):
            index.post(term, record_id)
    return catalog, index


def execute(q: StructuredQuery, catalog: Catalog, index: InvertedIndex) -> ResultSet:
    """AND pass over all terms; on empty intersection fall back to OR,
    scored by the number of matching terms, ties broken by ascending id.
    """
    per_term = [index.ids_matching(term) for term in q.terms]
    conj = set.intersection(*per_term) if per_term else set()
    if conj:
        matched = "AND"
        scored = [(len(q.terms), rid) for rid in sorted(conj)]
    else:
        matched = "OR"
        union = set().union(*per_term) if per_term else set()
        scored = sorted(
            ((sum(1 for ids in per_term if rid in ids), rid) for rid in union),
            key=lambda pair: (-pair[0], pair[1]),
        )
    records = catalog.records
    items = []
    for score, rid in scored:
        record = records[rid]
        items.append(ResultItem(rid, record.name, record.category, score))
    return ResultSet(tuple(items), q, matched)


def save_index_text(index: InvertedIndex) -> str:
    """Postings dump, one ``term<TAB>id,id,...`` line per term, sorted."""
    return "".join(
        f"{term}\t{','.join(str(i) for i in index.postings[term])}\n"
        for term in sorted(index.postings)
    )


def append_log(log_path: str, statement_id: int, terms: tuple[str, ...],
               matched: str, result_ids: list[int],
               relations: list[tuple[int, int]],
               now: datetime | None = None) -> None:
    """Append one TSV line recording an executed query and its relations."""
    ts = (now or datetime.now(timezone.utc)).isoformat(timespec="seconds")
    ts = ts.replace("+00:00", "Z")
    line = "\t".join([
        ts,
        str(statement_id),
        ",".join(terms),
        matched,
        ",".join(str(i) for i in result_ids),
        ";".join(f"{a}-{b}" for a, b in relations),
    ])
    try:
        with open(log_path, "a", encoding="utf-8", newline="") as fh:
            fh.write(line + "\n")
    except OSError as exc:
        raise OSError(f"cannot append query log {log_path!r}: {exc}") from exc
